"""Event-based electricity disaggregation and inference of occupancy and
household characteristics from smart-meter data.

The library is organized around plain numpy data types:

* series    -- PowerSeries, CSV ingestion, clock-window arithmetic, the
               occupancy window grid, dataset manifests and their homes
               (HomeData)
* events    -- steady-state event detection, edge pairing, background removal
* occupancy -- three occupancy predictors, each giving flags on the window
               grid, plus the windowed evaluation
* disagg    -- supervised factorial-HMM and unsupervised event-cluster
               disaggregation, NILM metrics
* features  -- consumption/appliance feature catalogs, chi-squared selection
* classify  -- from-scratch kNN / random forest and the characteristics
               cross-validation experiment
* synth     -- seeded synthetic-home generator with full ground truth
* cli       -- experiment harness (`nilminfer <subcommand>`)
"""

import os

# Before series imports numpy: no BLAS call here is big enough to thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .series import (PowerSeries, DatasetManifest, HomeEntry,
                     HomeData, load_power_csv, write_power_csv,
                     load_occupancy_csv, window_occupancy, clock_window_mean,
                     load_manifest, save_manifest)
from .events import (EVENT_DTYPE, PAIR_DTYPE, DetectorConfig, detect_events,
                     pair_events, learn_background, remove_background,
                     cluster_magnitudes)
from .occupancy import (window_stats, foreground_pairs, predict_occupancy_events,
                        predict_occupancy_night_threshold, evaluate_occupancy,
                        occupancy_experiment)
from .disagg import (ApplianceHMM, train_hmm, train_appliance_models,
                     fhmm_disaggregate, hart_disaggregate, nilm_metrics)
from .features import (extract_consumption_features, extract_appliance_features,
                       chi2_select, pearson, build_feature_table, write_feature_csv)
from .classify import (label_characteristics, knn_classify, rf_classify,
                       majority_baseline, characteristics_experiment,
                       stratified_folds)
from .synth import HomeSpec, GeneratedHome, Corpus, gen_home, gen_corpus
