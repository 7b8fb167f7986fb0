"""How much SNR the decode needs, and what a second sensor costs.

Part one holds a constant press and sweeps the channel SNR; since the truth
never moves, every decoded step is pure error and its spread is the
per-group phase noise.  Part two runs two sensors on different switching
families over the same channel and measures how much one's activity bleeds
into the other's decode.

Run: python3 demos/noise_and_neighbors.py
"""
from dataclasses import replace

from forcelink.config import default_config_dict, parse_config
from forcelink.sweeps import (run_crosstalk, run_snr_sweep,
                              snr_meeting_threshold)

cfg = parse_config(default_config_dict())

print("per-group phase noise vs SNR (held press, 40 trials each)")
print("  SNR (dB)   port 1 std (deg)   port 2 std (deg)")
grid = replace(cfg.sweep, snr_grid_db=(0.0, 10.0, 20.0, 30.0, 40.0))
_, aggs = run_snr_sweep(replace(cfg, sweep=grid), trials=40, seed=9)
for a in aggs:
    print(f"  {a['snr_db']:7.0f}   {a['phase_std1_deg']:13.3f}   "
          f"{a['phase_std2_deg']:13.3f}")
print(f"both ports settle under 0.5 deg from "
      f"{snr_meeting_threshold(aggs, 0.5):.0f} dB up\n")

print("two sensors, 1.0 kHz and 1.4 kHz switching families, 30 dB SNR:")
cfg30 = replace(cfg, noise=replace(cfg.noise, snr_db=30.0))
rows, xaggs = run_crosstalk(cfg30, seed=0)
for a in xaggs:
    print(f"  sensor {a['victim_sensor']} while the other ramps: worst "
          f"per-group disturbance {a['max_crosstalk_deg']:.4f} deg "
          f"(median {a['median_crosstalk_deg']:.4f})")
print("picking families whose clock harmonics avoid each other's read tones")
print("is what keeps this small; try second_f_s_hz = 2000 to see it fail")
