# Predict static household characteristics from meter-derived features.
#
# Runs the full 2-fold experiment over a 20-home corpus and compares feature
# sources: aggregate-only vs aggregate+HVAC (submetered) vs aggregate+HVAC
# reconstructed by the unsupervised disaggregator. The interesting question:
# how close does a disaggregated HVAC trace get to the submetered one?
import tempfile
import warnings

from nilminfer import (characteristics_experiment, clock_window_mean,
                       gen_corpus, hart_disaggregate, pearson)

with tempfile.TemporaryDirectory() as workdir:
    corpus = gen_corpus(20, seed=7, days=14, out_dir=workdir)

    # feature fidelity first: disaggregated vs true hvac summary features
    true_max, est_max, true_night, est_night = [], [], [], []
    for home_id in sorted(corpus.homes):
        home = corpus.homes[home_id]
        est = hart_disaggregate(home.aggregate)["hvac"]
        truth = home.appliances["hvac"]
        true_max.append(truth.values.max())
        est_max.append(est.values.max())
        true_night.append(clock_window_mean(truth, 1, 5))
        est_night.append(clock_window_mean(est, 1, 5))
    r_max, _ = pearson(est_max, true_max)
    r_night, _ = pearson(est_night, true_night)
    print(f"disaggregated vs true hvac features across 20 homes:")
    print(f"  max power   r = {r_max:.3f}")
    print(f"  night mean  r = {r_night:.3f}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = characteristics_experiment(
            corpus.manifest,
            feature_sources=("aggregate-only", "both", "disagg-hart"),
            classifier="knn", folds=2, seed=7)

    print("\n2-fold CV accuracy (%) by feature source:")
    print(f"{'characteristic':14s} {'baseline':>8s} {'aggregate':>9s} "
          f"{'both':>6s} {'disagg':>7s}")
    by_char = {}
    for r in rows:
        by_char.setdefault(r["characteristic"], {})[r["source"]] = r
    for char, sources in by_char.items():
        base = sources["aggregate-only"]["baseline_accuracy_pct"]
        print(f"{char:14s} {base:8.1f} "
              f"{sources['aggregate-only']['accuracy_pct']:9.1f} "
              f"{sources['both']['accuracy_pct']:6.1f} "
              f"{sources['disagg-hart']['accuracy_pct']:7.1f}")

    occ = by_char["occupants"]
    picked = occ["both"]["selected_features"][:4]
    print(f"\ntop features picked for occupants (both): {', '.join(picked)}")
