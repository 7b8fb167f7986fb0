"""Closed loop: calibrate once, then turn decoded phases back into presses.

Calibration evaluates the transducer over a (location, force) grid and fits
a cubic-in-force model per location and port.  Inversion solves that model
exactly: on each cell between calibrated locations the press that explains a
measured phase pair is a root of a degree-6 polynomial in force, and phases
no press explains fall back to the nearest point on the cell edges.  Here the
whole loop runs against simulated traces at 25 dB SNR, including locations
and forces the calibration never saw.  A spot check synthesizes its trace
with touch_trace and decodes it (the full path); the sweep makes only the
two projections per read tone and subcarrier that a trial's decode reads,
the noiseless part in closed form plus noise of the same distribution
(the projection domain), so it never builds a trace.

Run: python3 demos/calibrate_and_invert.py
"""
import numpy as np

from forcelink.config import default_config_dict, parse_config
from forcelink.sweeps import (calibrate, pressed_phases, run_force_sweep,
                              run_touch_trial, touch_trace)

cfg = parse_config(default_config_dict())
model = calibrate(cfg)
worst_fit = max(f.rms_rad for f in model.fits)
print(f"calibrated {len(model.fits)} locations "
      f"{model.locations()} mm, force span {model.force_range_n} N, "
      f"worst per-location fit rms {np.degrees(worst_fit):.3f} deg\n")

print("spot checks (single trials, 25 dB):")
print("  true F, l      estimated F, l       errors")
for F, loc, seed in ((1.5, 22.0, 3), (4.0, 40.0, 4), (6.2, 55.0, 5),
                     (7.5, 58.5, 6)):
    phases = pressed_phases(cfg, touch_trace(cfg, F, loc, seed))
    r = run_touch_trial(model, F, loc, phases)
    print(f"  {F:4.1f} N {loc:5.1f} mm -> {r['est_force_n']:5.2f} N "
          f"{r['est_location_mm']:6.2f} mm   {r['force_err_n']:.3f} N, "
          f"{r['location_err_mm']:.3f} mm")

trials = 200
rows, aggs = run_force_sweep(cfg, trials=trials, seed=1)
unreliable = sum(1 for r in rows if not r["reliable"])
print(f"\n{trials} random presses across {cfg.sweep.test_locations_mm} mm:")
print(f"  median error {aggs[0]['force_err_n']:.3f} N, "
      f"{aggs[0]['location_err_mm']:.3f} mm")
print(f"  90th pct      {aggs[1]['force_err_n']:.3f} N, "
      f"{aggs[1]['location_err_mm']:.3f} mm")
print(f"  flagged unreliable: {unreliable}")
