"""Duty-cycled switch clocks for two-ended backscatter modulation.

A sensor port is toggled by a 0/1 square wave.  A clock is described by its
frequency, its duty (fraction of the period spent connected), and a phase
offset expressed as a fraction of its own period.  Two clocks form a scheme:
clock_b runs at twice clock_a's rate and is offset so the two connected
intervals never overlap, which keeps the two reflections free of
intermodulation and places their readable tones at f_s and 4 f_s.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Harmonics whose exact coefficient is zero are reported as exactly 0j.
SUPPORT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SwitchClock:
    """One 0/1 switching wave: on during [offset, offset + duty) of each period."""

    frequency: float
    duty: float
    phase_offset: float = 0.0

    def __post_init__(self):
        if not self.frequency > 0.0:
            raise ValueError(f"clock frequency must be positive, got {self.frequency}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must lie in (0, 1), got {self.duty}")
        if not 0.0 <= self.phase_offset < 1.0:
            raise ValueError(f"phase offset must lie in [0, 1), got {self.phase_offset}")

    def is_on(self, t):
        """Exact 0/1 state at time t (seconds); scalar or ndarray.

        Sample instants that land within float rounding of an exact period
        boundary are treated as the window start (the on-interval is half
        open, [offset, offset + duty)); otherwise a boundary sample's state
        would depend on which side the last ulp fell.
        """
        x = np.asarray(t, dtype=float) * self.frequency - self.phase_offset
        frac = x % 1.0
        eps = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x))
        frac = np.where(1.0 - frac <= eps, 0.0, frac)
        on = frac < self.duty
        if np.isscalar(t):
            return bool(on)
        return on

    def fourier_coefficient(self, p: int) -> complex:
        """Complex exponential-series coefficient a_p of the 0/1 wave.

        m(t) = sum_p a_p exp(+j 2 pi p f t), so a_0 equals the duty and
        |a_p| = |sin(p pi duty)| / (p pi) for p >= 1.  Coefficients that are
        exactly zero (p * duty integral) are returned as exact 0j so harmonic
        nulls survive float evaluation.
        """
        if p < 0:
            raise ValueError("harmonic index must be >= 0")
        if p == 0:
            return complex(self.duty)
        if (p * Fraction(self.duty)).denominator == 1:
            return 0j
        theta = math.pi * p * self.duty
        mag = math.sin(theta) / (math.pi * p)
        # window start at phase_offset shifts the phase; the half-width term
        # centers the window's own contribution
        return mag * cmath.exp(-1j * (2.0 * math.pi * p * self.phase_offset + theta))

    def sampled_coefficient(self, p: int, samples_per_period: int = 256) -> complex:
        """Estimate a_p from point samples of is_on.

        Takes the single-bin DFT over one period and undoes the
        discrete-sampling Dirichlet kernel: the raw bin equals the continuous
        coefficient times (x / sin x) e^{+jx} with
        x = pi p / samples_per_period, so the estimate is multiplied by
        sin(x)/x e^{-jx}.  For windows aligned to the sample grid this
        reproduces the continuous coefficient to roughly float precision;
        without the correction the magnitude alone is biased by about
        (x^2)/6 relative.
        """
        if samples_per_period < 2:
            raise ValueError("need at least 2 samples/period")
        m = samples_per_period
        n = np.arange(m)
        t = n / (samples_per_period * self.frequency)
        s = self.is_on(t).astype(float)
        dft = np.sum(s * np.exp(-2j * np.pi * p * n / m)) / m
        if p == 0:
            return complex(dft)
        x = math.pi * p / samples_per_period
        return complex(dft * (math.sin(x) / x) * cmath.exp(-1j * x))

    def harmonic_support(self, n_max: int) -> set[int]:
        """Indices 1..n_max whose coefficient magnitude exceeds the null tolerance."""
        return {p for p in range(1, n_max + 1)
                if abs(self.fourier_coefficient(p)) > SUPPORT_TOLERANCE}


@dataclass(frozen=True)
class ClockScheme:
    """The two-port modulation pair; clock_b must run at exactly 2x clock_a.

    Each port is read at one fixed harmonic: port 1 at clock_a's 1st (f_s),
    port 2 at clock_b's 2nd (4 f_s).  So each read tone carries one port
    only, clock_a must null its 4th harmonic (4 duty_a whole) and clock_b
    must not null its 2nd (2 duty_b not whole).
    """

    clock_a: SwitchClock
    clock_b: SwitchClock

    def __post_init__(self):
        if self.clock_b.frequency != 2.0 * self.clock_a.frequency:
            raise ValueError(
                "clock_b must run at exactly twice clock_a's frequency, got "
                f"{self.clock_b.frequency} vs {self.clock_a.frequency}")
        if 4 in self.clock_a.harmonic_support(4):
            raise ValueError(
                f"clock_a duty {self.clock_a.duty} puts its 4th harmonic on port "
                "2's 4 f_s read tone; 4 x duty must be whole")
        if 2 not in self.clock_b.harmonic_support(2):
            raise ValueError(
                f"clock_b duty {self.clock_b.duty} nulls its 2nd harmonic, port 2's "
                "4 f_s read tone; 2 x duty must not be whole")

    @property
    def f_s(self) -> float:
        return self.clock_a.frequency

    @property
    def read_freqs(self) -> tuple[float, float]:
        """Frequencies at which the two ports are read: (f_s, 4 f_s)."""
        return (self.f_s, 4.0 * self.f_s)

    @property
    def read_gains(self) -> tuple[float, float]:
        """|a_p| of each port's read harmonic: clock_a's 1st, clock_b's 2nd."""
        return (abs(self.clock_a.fourier_coefficient(1)),
                abs(self.clock_b.fourier_coefficient(2)))

    def switch_states(self, t):
        """Both exact 0/1 states at time(s) t."""
        return self.clock_a.is_on(t), self.clock_b.is_on(t)


def make_scheme(f_s: float) -> ClockScheme:
    """Standard two-switch scheme for a modulation rate f_s.

    clock_a: (f_s, 25% duty, offset 0); clock_b: (2 f_s, 25% duty, offset half
    its own period).  The connected intervals tile [0, 1/f_s) without overlap
    and the readable tones sit at f_s and 4 f_s.
    """
    return ClockScheme(
        clock_a=SwitchClock(f_s, 0.25, 0.0),
        clock_b=SwitchClock(2.0 * f_s, 0.25, 0.5),
    )


@dataclass(frozen=True)
class DisjointReport:
    disjoint: bool
    overlap_fraction: Fraction  # of the common period, exact


def _unit_intervals(clock: SwitchClock, n_rep: int) -> list[tuple[Fraction, Fraction]]:
    # Half-open on-windows in units of the common period, exact rationals built
    # from the clock's actual float parameters.
    offset = Fraction(clock.phase_offset)
    duty = Fraction(clock.duty)
    out = []
    for r in range(n_rep):
        start = (r + offset) / n_rep
        end = start + duty / n_rep
        if end <= 1:
            out.append((start, end))
        else:
            out.append((start, Fraction(1)))
            out.append((Fraction(0), end - 1))
    return out


def verify_disjoint(scheme: ClockScheme) -> DisjointReport:
    """Exact interval arithmetic over one common period (1 / f_s).

    Returns the total overlap of the two on-interval families as an exact
    fraction of the common period; disjoint means overlap == 0.
    """
    ratio = scheme.clock_b.frequency / scheme.clock_a.frequency
    n_rep = round(ratio)
    ints_a = _unit_intervals(scheme.clock_a, 1)
    ints_b = _unit_intervals(scheme.clock_b, n_rep)
    overlap = Fraction(0)
    for sa, ea in ints_a:
        for sb, eb in ints_b:
            lo = max(sa, sb)
            hi = min(ea, eb)
            if hi > lo:
                overlap += hi - lo
    return DisjointReport(disjoint=(overlap == 0), overlap_fraction=overlap)
