# Generate a synthetic home and poke at its ground truth.
#
# Every other demo builds on this: the generator gives us an aggregate meter
# trace plus everything a real deployment never has — per-appliance traces,
# the true occupancy schedule, and a log of every switching edge.
import numpy as np

from nilminfer import HomeSpec, gen_home, synth, window_occupancy

spec = HomeSpec(seed=7, days=3, occupants=3)
home = gen_home(spec)

agg = home.aggregate
print(f"aggregate: {len(agg)} samples @ {agg.period_s}s "
      f"({spec.days} days), mean {agg.values.mean():.0f} W, "
      f"max {agg.values.max():.0f} W")

print("\nappliance traces:")
for name, trace in home.appliances.items():
    duty = float((trace.values > 50).mean())
    print(f"  {name:10s} mean {trace.values.mean():7.1f} W   "
          f"time-on {100 * duty:5.1f}%")

# the truth is one flag per sample; scoring reads it on the aggregate's
# fifteen-minute window grid
occupied, scored = window_occupancy(agg, *home.occupancy)
print(f"\noccupancy truth: {occupied.sum()} of {len(occupied)} fifteen-minute "
      f"windows occupied ({100 * occupied.mean():.0f}%); the "
      f"{scored.sum()} starting 06:00-22:00 local are the ones scored")

# one array of (time, delta_w) edges per source, in detect_events' dtype
edges = home.provenance
print(f"\nprovenance log: {sum(len(e) for e in edges.values())} switching edges")
for source, planted in sorted(edges.items()):
    print(f"  {source:15s} {len(planted)}")

# the aggregate really is the sum of its parts plus noise
residual = agg.values - sum(t.values for t in home.appliances.values())
print(f"\naggregate - sum(traces): mean {residual.mean():+.2f} W, "
      f"std {residual.std():.2f} W (configured noise sigma = "
      f"{synth.NOISE_SIGMA_W} W)")

# same seed, same bytes: the corpus is fully reproducible
again = gen_home(HomeSpec(seed=7, days=3, occupants=3))
print("bit-identical on regeneration:",
      bool(np.array_equal(agg.values, again.aggregate.values)))
