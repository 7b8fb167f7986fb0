"""Differential phase decoding via projection onto the switching harmonics.

The switch imprints an artificial modulation tone on the sensor's reflection,
so in slow time each subcarrier's channel estimate carries that tone with the
port's reflection phase.  Projecting each group of snapshots onto a read
frequency isolates one port; conjugate-multiplying two groups' projections
and averaging across subcarriers yields the phase change between them, with
static multipath cancelled exactly when groups hold an integer number of
modulation cycles.  Steps pair consecutive groups; phases pair each group
with group 0, so anchoring them to the no-touch phase adds no error along
the trace.

group_phases is the one decode, of a trace in memory (chansim.ChannelTrace)
or opened from a file (traceio.TraceFile); both yield their rows through
blocks(group_size).  Given the scheme whose read tones it projects on, it
computes every figure (steps, phases, tone energies, noise power) in one
pass over snapshot-major blocks of whole groups, carrying only group 0's
and a block's last group's projections to the next, so memory follows the
block size, not the trace length: a trace file streams through it a chunk
of about 1 MiB at a time, an in-memory trace goes through as one block.

A group size is a plain int from config to decode, held to one rule,
resolve_group_size: a positive multiple of auto_group_size, the smallest
size holding whole cycles of every read tone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .chansim import ChannelTrace, WaveformConfig
from .clocks import ClockScheme
from .transducer import PortPhases

if TYPE_CHECKING:
    from .traceio import TraceFile

GROUP_SIZE_CAP = 100_000
# steps this close to the wrap boundary are flagged as possible aliases
SLEW_SUSPECT_LIMIT = 0.9 * math.pi
SNR_CAP_DB = 200.0
SNR_FLOOR_DB = 0.0
NOISE_SUBCARRIERS = 8  # the noise floor is read from the first few only


def auto_group_size(config: WaveformConfig,
                    schemes: Iterable[ClockScheme] | ClockScheme,
                    cap: int = GROUP_SIZE_CAP) -> int:
    """Smallest group size giving an integer cycle count at every read tone.

    Rationalizes T * f for each read frequency and takes the lcm of the
    denominators; errors out if no integral grouping exists below cap.
    """
    if isinstance(schemes, ClockScheme):
        schemes = (schemes,)
    T = config.frame_period_s
    size = 1
    freqs = list(dict.fromkeys(f for s in schemes for f in s.read_freqs))
    for f in freqs:
        r = Fraction(T) * Fraction(f)
        r = r.limit_denominator(cap)
        size = math.lcm(size, r.denominator)
        if size > cap:
            raise ValueError(
                f"no integer-cycle group size below {cap} for read tones {freqs}")
    for f in freqs:
        cycles = size * T * f
        if abs(cycles - round(cycles)) > 1e-6:
            raise ValueError(
                f"{f} Hz cannot be grouped integrally (best size {size} gives "
                f"{cycles} cycles)")
    return size


def resolve_group_size(config: WaveformConfig,
                       schemes: Iterable[ClockScheme] | ClockScheme,
                       size: int | None = None) -> int:
    """size, or the auto size for None; ValueError unless size is a positive
    multiple of the auto size, i.e. holds whole cycles of every read tone."""
    auto = auto_group_size(config, schemes)
    if size is not None and (size < 1 or size % auto):
        raise ValueError(f"group size {size} is not a positive multiple of {auto}, "
                         "the smallest holding whole cycles of every read tone")
    return size or auto


@dataclass(frozen=True)
class PhaseSeries:
    """What one decode pass yields.

    Column t of steps and phases belongs to read tone t, i.e. port t + 1.
    steps[g, t] is the phase change from group g to g + 1 and phases[g, t]
    group g's phase relative to group 0 (phases[0] is 0), both in [-pi, pi].
    signal[t] is the tone's median group projection energy, sigma2 the
    per-sample noise power.
    """

    scheme: ClockScheme
    group_size: int
    group_duration_s: float
    steps: np.ndarray
    phases: np.ndarray
    signal: np.ndarray
    sigma2: float

    @property
    def n_groups(self) -> int:
        return len(self.phases)

    def group_times(self) -> np.ndarray:
        """Start time of each group, seconds."""
        return np.arange(self.n_groups) * self.group_duration_s

    @property
    def suspect(self) -> np.ndarray:
        """Flags the steps close enough to +-pi to be wrap aliases."""
        return np.abs(self.steps) > SLEW_SUSPECT_LIMIT

    @property
    def snr_db(self) -> tuple[float, ...]:
        """Sensor SNR per read tone in [0, 200] dB, on the synthesis snr_db scale."""
        if self.sigma2 <= 0.0:
            return tuple(SNR_CAP_DB if s > 0.0 else SNR_FLOOR_DB for s in self.signal)
        gain = np.array([self.scheme.projection_gain(f) for f in self.scheme.read_freqs])
        alpha2 = np.maximum(self.signal - self.sigma2 / self.group_size, 0.0)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(alpha2 / (gain ** 2 * self.sigma2))
        return tuple(float(x) for x in np.clip(db, SNR_FLOOR_DB, SNR_CAP_DB))


def anchor(series: PhaseSeries, no_touch: PortPhases) -> np.ndarray:
    """Absolute (n_groups, 2) port phases, taking group 0 as untouched.

    Each group's phase relative to group 0 plus the known open-line phase,
    so a group's error is its own and group 0's, however far it lies from
    group 0; anchored phases are exact modulo 2 pi.
    """
    return series.phases + (no_touch.phi1, no_touch.phi2)


def project_groups(block: np.ndarray, n0: int, read_freqs: Sequence[float],
                   frame_period_s: float, group_size: int) -> np.ndarray:
    """Project each whole group of a snapshot-major (n, K) block on each tone.

    With n0 the block's absolute first snapshot, P[g, t, k] = (1/N_g) *
    sum_{n in group g} H[n, k] e^{-j 2 pi f_t n T}.  With an integer number
    of tone cycles per group any constant-in-n term sums to exactly zero.
    """
    Ng = group_size
    g = len(block) // Ng
    n = np.arange(n0, n0 + g * Ng).reshape(g, 1, Ng)
    f = np.asarray(read_freqs, dtype=float)[:, None]
    w = np.exp(-2j * np.pi * f * n * frame_period_s)
    return w @ np.asarray(block[:g * Ng], np.complex128).reshape(g, Ng, -1) / Ng


def _spread(n: int, count: int = 97) -> np.ndarray:
    """At most count distinct indices spread evenly over range(n)."""
    return np.linspace(0, n - 1, min(n, count)).astype(int)


def group_phases(trace: ChannelTrace | TraceFile, scheme: ClockScheme | None = None,
                 group_size: int | None = None) -> PhaseSeries:
    """Decode both ports of a trace, in memory or opened with traceio.open_trace,
    in one pass over its blocks; defaults: first scheme, auto group size.

    group_size must hold whole cycles of every scheme's read tones in the
    trace, not just the decoded one's, so the other sensors' tones cancel;
    snapshots past the last whole group are ignored.  A step is the angle of
    P[g+1, k] conj(P[g, k]) averaged over subcarriers, so the projection
    magnitudes drop out, and a phase that of P[g, k] conj(P[0, k]); the trace
    needs 2 groups.  A tone's signal is the median group energy, which a
    mid-group step cannot drag down.  sigma^2 is the minimum over group pairs
    of the median energy at odd bins, unbiased by ln 2.  A step inside a pair
    leaks into its odd bins, so sigma^2 relies on at least one group pair with
    no step inside it; a trace whose every pair holds a step reads it high.
    """
    if scheme is None:
        if not trace.schemes:
            raise ValueError("trace carries no scheme; pass one explicitly")
        scheme = trace.schemes[0]
    config = trace.config
    Ng = resolve_group_size(config, (*trace.schemes, scheme), group_size)
    G = config.n_snapshots // Ng
    if G < 2:
        raise ValueError(f"need at least 2 groups, trace holds {G} at size {Ng}")
    m = _spread(Ng)  # odd bins 2m + 1 of a two-group window
    half_turn = np.exp(-1j * np.pi * np.arange(Ng) / Ng)[:, None]
    # P0: group 0's conjugate projections; last: the previous group's
    # projections and noise rows
    n0, P0, last = 0, None, None
    steps, phases, energy, pair_noise = [], [], [], []
    for block in trace.blocks(Ng):  # whole groups, then any tail
        g, start, n0 = len(block) // Ng, n0, n0 + len(block)
        if not g:
            continue
        P = project_groups(block, start, scheme.read_freqs, config.frame_period_s, Ng)
        rows = np.asarray(block[:g * Ng, :NOISE_SUBCARRIERS],
                          dtype=np.complex128).reshape(g, Ng, -1)
        energy.append(np.mean(np.abs(P) ** 2, axis=-1))
        if P0 is None:
            P0 = P[0].conj()
        phases.append(np.angle((P * P0).mean(axis=-1)))
        if last is not None:
            P, rows = np.concatenate((last[0], P)), np.concatenate((last[1], rows))
        steps.append(np.angle((P[1:] * P[:-1].conj()).mean(axis=-1)))
        if len(rows) > 1:
            # clock lines repeat each group exactly, so they land only on
            # even bins of a two-group window; odd bin 2m + 1 is bin m of
            # the groups' difference turned by e^{-j pi n / N_g}
            odd = np.fft.fft((rows[:-1] - rows[1:]) * half_turn, axis=1)[:, m]
            pair_noise.append(np.median(np.abs(odd / (2 * Ng)) ** 2, axis=(1, 2)))
        last = P[-1:], rows[-1:]
    per_bin = float(np.concatenate(pair_noise).min())
    # median of exponential energies = ln 2 x mean; per-bin mean = sigma^2/n
    return PhaseSeries(scheme, Ng, Ng * config.frame_period_s,
                       np.concatenate(steps), np.concatenate(phases),
                       np.median(np.concatenate(energy), axis=0),
                       per_bin / math.log(2.0) * (2 * Ng))


def noise_power(trace: ChannelTrace, group_size: int) -> float:
    """sigma^2 of group_phases; kept only while the benchmark tracer wraps it
    by name, and removed when the tracer drops it (ROADMAP item 1)."""
    return group_phases(trace, None, group_size).sigma2


def read_sensor_snr(trace: ChannelTrace, read_freq: float,
                    group_size: int) -> float:
    """snr_db of group_phases with the scheme reading read_freq; kept only
    while the benchmark tracer wraps it, as noise_power is."""
    for scheme in trace.schemes:
        if read_freq in scheme.read_freqs:
            snr = group_phases(trace, scheme, group_size).snr_db
            return snr[scheme.read_freqs.index(read_freq)]
    raise ValueError(f"no scheme in trace reads {read_freq} Hz")
