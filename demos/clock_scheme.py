"""Tour of the two-switch modulation scheme.

Each sensor port is chopped by a 0/1 switch clock.  The reader sees the
backscattered channel multiplied by those gates, which smears each port's
reflection onto tones at the clock's harmonics.  Port 1 is read at the
fundamental f_s, port 2 at 4 f_s (the second harmonic of its double-rate
clock), so a single FFT separates the two ends of the line.

Run: python3 demos/clock_scheme.py
"""
import numpy as np

from forcelink.chansim import (NyquistError, WaveformConfig,
                               equivalent_doppler_velocity, nyquist_check)
from forcelink.clocks import make_scheme, verify_disjoint
from forcelink.decoder import auto_group_size

scheme = make_scheme(1000.0)
wf = WaveformConfig()

print("switch clocks")
for name, clock in (("clock_a", scheme.clock_a), ("clock_b", scheme.clock_b)):
    print(f"  {name}: {clock.frequency:7.1f} Hz, duty {clock.duty}, "
          f"offset {clock.phase_offset} of a period")

rep = verify_disjoint(scheme)
print(f"\non-windows overlap (exact rational): {rep.overlap_fraction} "
      f"-> disjoint: {rep.disjoint}")

print("\nharmonic amplitudes |a_p| (duty 0.25 nulls every 4th):")
for p in range(9):
    a = scheme.clock_a.fourier_coefficient(p)
    bar = "#" * int(round(40 * abs(a)))
    print(f"  p={p}: {abs(a):.6f} {bar}")

f1, f2 = scheme.read_freqs
g1, g2 = scheme.read_gains
print(f"\nread tones: port 1 at {f1:.0f} Hz (gain {g1:.4f}), "
      f"port 2 at {f2:.0f} Hz (gain {g2:.4f})")

nyquist_check(wf, scheme)
print(f"\nsnapshot period {wf.frame_period_s * 1e6:.1f} us -> tones must stay "
      f"under {wf.nyquist_hz:.1f} Hz; top tone {max(scheme.read_freqs):.0f} Hz "
      "passes")
try:
    nyquist_check(wf, make_scheme(2500.0))
except NyquistError as e:
    print(f"a 2500 Hz family is refused: {e}")

Ng = auto_group_size(wf, scheme)
print(f"\nsmallest group with whole tone cycles: {Ng} snapshots "
      f"({Ng * wf.frame_period_s * 1e3:.1f} ms, "
      f"{Ng * wf.frame_period_s * f1:.0f} cycles of the fundamental)")

v = equivalent_doppler_velocity(scheme.f_s, wf.carrier_hz)
print(f"\nthe 1 kHz modulation mimics a reflector moving at {v:.0f} m/s; "
      f"nothing in a room moves that fast, which is the whole point")
