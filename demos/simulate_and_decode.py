"""Simulate a press staircase and decode it from the channel alone.

Synthesizes the wideband channel a reader would measure while a finger
presses the line progressively harder, then recovers the per-group port
phases using only the trace: project each snapshot group onto the read
tones, difference each group against the first, anchor to the known
no-touch phase.

Run: python3 demos/simulate_and_decode.py
"""
from dataclasses import replace

import numpy as np

from forcelink.chansim import TouchTimeline, synthesize
from forcelink.config import default_config_dict, parse_config
from forcelink.decoder import anchor, auto_group_size, group_phases
from forcelink.sweeps import no_touch_phase
from forcelink.transducer import (TouchEvent, port_phases, shorting_segment,
                                  wrap_phase)

cfg = parse_config(default_config_dict())
Ng = auto_group_size(cfg.waveform, cfg.scheme)

# quiet lead-in, then 2 N / 4 N / 6 N at 30 mm, one group each
forces = (None, 2.0, 4.0, 6.0)
wf = replace(cfg.waveform, n_snapshots=len(forces) * Ng)
timeline = TouchTimeline(entries=tuple(
    (g * Ng, None if F is None else TouchEvent(F, 30.0))
    for g, F in enumerate(forces)))

trace = synthesize(wf, cfg.scheme, timeline, cfg.multipath, cfg.noise,
                   cfg.geometry, cfg.mechanics)
print(f"trace: {trace.data.shape[0]} snapshots x {trace.data.shape[1]} "
      f"subcarriers at {cfg.noise.snr_db:.0f} dB SNR, seed "
      f"{trace.provenance['seed']}")

series = group_phases(trace, cfg.scheme, Ng)
phases = anchor(series, no_touch_phase(cfg))
snr1, snr2 = series.snr_db
print(f"estimated SNR from the trace itself: {snr1:.1f} / {snr2:.1f} dB\n")

print("group  press   decoded phi1/phi2 (rad)    transducer truth (rad)")
worst = 0.0
for g, F in enumerate(forces):
    touch = None if F is None else TouchEvent(F, 30.0)
    truth = port_phases(shorting_segment(touch, cfg.mechanics, cfg.geometry),
                        cfg.geometry, wf.carrier_hz)
    p1, p2 = (wrap_phase(float(p)) for p in phases[g])
    worst = max(worst, abs(wrap_phase(p1 - truth.phi1_wrapped)),
                abs(wrap_phase(p2 - truth.phi2_wrapped)))
    label = "open " if F is None else f"{F:.0f} N  "
    print(f"  {g}    {label} {p1:9.4f} {p2:9.4f}        "
          f"{truth.phi1_wrapped:9.4f} {truth.phi2_wrapped:9.4f}")

print(f"\nworst decoded phase error vs truth: {np.degrees(worst):.3f} deg")
print("(noise plus a small deterministic residue of the sampled 0/1 gates)")
