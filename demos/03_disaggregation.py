# Split an aggregate trace into appliances two ways and score both.
#
# The supervised route trains one small HMM per appliance on the first half
# of its submetered trace, then decodes the joint model exactly. The
# unsupervised route never sees a submeter: it clusters event-pair magnitudes
# and rebuilds each cluster as rectangular pulses.
import numpy as np

from nilminfer import (HomeSpec, fhmm_disaggregate, gen_home,
                       hart_disaggregate, nilm_metrics, train_hmm)

home = gen_home(HomeSpec(seed=33, days=6))
agg = home.aggregate
half = len(agg) // 2

models = []
for name in ("fridge", "hvac"):
    trace = home.appliances[name]
    k = 3 if name == "hvac" else 2
    model = train_hmm(trace.slice(0, half), k, name=name)
    levels = ", ".join(f"{m:.0f}" for m in model.state_means_w)
    print(f"trained {name}: {model.n_states} states at [{levels}] W")
    models.append(model)

test = agg.slice(half, len(agg))
fhmm = fhmm_disaggregate(test, models)
hart = hart_disaggregate(test)

print(f"\nhvac reconstruction on the held-out half "
      f"({len(test)} samples):")
truth = home.appliances["hvac"].slice(half, len(agg))
for label, traces in (("fhmm (supervised)", fhmm), ("hart (unsupervised)", hart)):
    m = nilm_metrics(traces["hvac"], truth)
    print(f"  {label:20s} energy error {m['error_energy_pct']:5.1f}%   "
          f"F-score {m['fscore']:.3f}   RMSE {m['rmse_w']:6.1f} W")

# where does the unsupervised route leave energy unexplained? The residual
# is the aggregate less the top cluster's trace, clamped at 0.
top = hart["highest_power_appliance"]
frac = np.maximum(test.values - top.values, 0.0).sum() / test.values.sum()
print(f"\nhart residual carries {100 * frac:.1f}% of the energy "
      f"(baseline load + unpaired events)")

print(f"largest-magnitude cluster peaks at {top.values.max():.0f} W "
      f"(true hvac power {home.spec.hvac_power_w:.0f} W)")
