# Predict occupancy from the aggregate meter, step by step.
#
# The idea: occupants cause power events; fridges and HVAC cause power events
# too, but theirs recur at night when nobody is acting. So, learn the night
# magnitudes, strike them from the paired edges, and call the home occupied
# around whatever activity remains.
from nilminfer import (DetectorConfig, HomeSpec,
                       detect_events, evaluate_occupancy, gen_home,
                       learn_background, pair_events,
                       predict_occupancy_events,
                       predict_occupancy_night_threshold, remove_background,
                       window_occupancy, window_stats)

home = gen_home(HomeSpec(seed=21, days=7))
agg = home.aggregate
det = DetectorConfig()

events = detect_events(agg, det)
print(f"step 1  detect events:      {len(events)} steps >= {det.min_event_w} W")

centers = learn_background(agg, det)
listed = ", ".join(f"{c:.0f} W" for c in centers)
print(f"step 2  night background:   clusters at [{listed}]")

pairs = pair_events(events)
foreground = remove_background(pairs, centers)
print(f"step 3  pair edges:         {len(pairs)} ON/OFF pairs")
print(f"step 4  drop background:    {len(foreground)} foreground pairs left")

# the steps above are foreground_pairs(agg, det); mark the windows around them
pred = predict_occupancy_events(agg, foreground)
truth = window_occupancy(agg, *home.occupancy)  # per-sample truth, windowed
m = evaluate_occupancy(pred, *truth)
print(f"step 5  windowed occupancy: accuracy {m['accuracy_pct']:.1f}%  "
      f"(TP {m['tp']}  TN {m['tn']}  FP {m['fp']}  FN {m['fn']})")

# compare against the two aggregate-only baselines, on one windowing
stats = window_stats(agg)
for label, stat in (("night-threshold (max)", "max"),
                    ("night-threshold (median)", "median")):
    alt = predict_occupancy_night_threshold(agg, stats, stat)
    am = evaluate_occupancy(alt, *truth)
    print(f"baseline {label:25s} accuracy {am['accuracy_pct']:.1f}%  "
          f"energy proxy {am['energy_proxy']}  miss time {am['miss_time']}")

print(f"\nevent pipeline HVAC-control view: energy proxy {m['energy_proxy']} "
      f"windows, miss time {m['miss_time']} windows")
