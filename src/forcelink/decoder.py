"""Differential phase decoding via projection onto the switching harmonics.

The switch imprints an artificial modulation tone on the sensor's reflection,
so in slow time each subcarrier's channel estimate carries that tone with the
port's reflection phase.  Projecting each group of snapshots onto a read
frequency isolates one port; conjugate-multiplying two groups' projections
and averaging across subcarriers yields the phase change between them, with
static multipath cancelled exactly when groups hold an integer number of
modulation cycles.  Steps pair consecutive groups; phases pair each group
with group 0, so anchoring them adds no error along the trace; anchor, the
one place phases are anchored, forms the open line's phase itself.

group_phases is the one decode, of the one trace type, chansim.ChannelTrace,
held in memory or opened from a file (traceio.open_trace); it reads the rows
through blocks(group_size).  Given the scheme whose read tones it projects
on, it computes every figure (steps, phases, tone energies, noise power) in
one pass over snapshot-major blocks of whole groups, carrying only group 0's
projections and a block's last group (its projections, and its rows as a
view of the block) to the next, so memory follows the block size, not the
trace length: any trace streams through it a chunk of about 1 MiB at a time.

Every config and command decodes at auto_group_size, the smallest size
holding whole cycles of every read tone; a library caller may pass a size,
which decode_group_size holds to a positive multiple of it.  Setup that
depends only on such small keys is worked out once and shared by every
decode: the auto size per (frame period, read tones), one group's tone
weights per (frame period, read tones, group size), and the switch states'
projection table the sweeps' projection domain builds its trials from.
The projection sums each group with numpy's own loops, not BLAS, and every
phase is phase_against's, whose products keep named operands, so decoded
bytes depend neither on how the trace was split into blocks nor on the
BLAS thread count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .chansim import ChannelTrace, WaveformConfig
from .clocks import ClockScheme
from .transducer import SensorGeometry, ShortingState, port_phases

GROUP_SIZE_CAP = 100_000
# a phase pairs a group with group 0, so a decode needs two groups
MIN_GROUPS = 2
# steps this close to the wrap boundary are flagged as possible aliases
SLEW_SUSPECT_LIMIT = 0.9 * math.pi
SNR_CAP_DB = 200.0
SNR_FLOOR_DB = 0.0


def auto_group_size(config: WaveformConfig,
                    schemes: Iterable[ClockScheme] | ClockScheme) -> int:
    """Smallest group size giving an integer cycle count at every read tone.

    Rationalizes T * f for each read frequency and takes the lcm of the
    denominators; errors out if no integral group size exists below
    GROUP_SIZE_CAP.  Only T and the read tones matter, so the size is
    worked out once per (T, tones) and remembered; a failure is not, and
    raises every call.
    """
    if isinstance(schemes, ClockScheme):
        schemes = (schemes,)
    freqs = tuple(dict.fromkeys(f for s in schemes for f in s.read_freqs))
    return _whole_cycle_size(config.frame_period_s, freqs)


@functools.lru_cache(maxsize=64)
def _whole_cycle_size(T: float, freqs: tuple[float, ...]) -> int:
    size = 1
    for f in freqs:
        r = Fraction(T) * Fraction(f)
        r = r.limit_denominator(GROUP_SIZE_CAP)
        size = math.lcm(size, r.denominator)
        if size > GROUP_SIZE_CAP:
            raise ValueError(f"no integer-cycle group size below {GROUP_SIZE_CAP} "
                             f"for read tones {list(freqs)}")
    for f in freqs:
        cycles = size * T * f
        if abs(cycles - round(cycles)) > 1e-6:
            raise ValueError(
                f"{f} Hz cannot be grouped integrally (best size {size} gives "
                f"{cycles} cycles)")
    return size


def decode_group_size(config: WaveformConfig, schemes: Iterable[ClockScheme],
                      size: int | None = None) -> int:
    """size, or the auto size for None, once it is a positive multiple of the
    auto size, i.e. holds whole cycles of every read tone, and
    config.n_snapshots holds MIN_GROUPS of it; ValueError otherwise."""
    auto = auto_group_size(config, schemes)
    if size is not None and (size < 1 or size % auto):
        raise ValueError(f"group size {size} is not a positive multiple of {auto}, "
                         "the smallest holding whole cycles of every read tone")
    Ng = size or auto
    if config.n_snapshots < MIN_GROUPS * Ng:
        raise ValueError(f"{config.n_snapshots} snapshots hold fewer than the "
                         f"{MIN_GROUPS} groups of {Ng} a decode needs")
    return Ng


@dataclass(frozen=True)
class PhaseSeries:
    """What one decode pass yields.

    Column t of steps and phases belongs to read tone t, i.e. port t + 1.
    steps[g, t] is the phase change from group g to g + 1 and phases[g, t]
    group g's phase relative to group 0 (phases[0] is 0), both in [-pi, pi].
    signal[t] is the tone's median group projection energy, sigma2 the
    per-sample noise power: the least over consecutive group pairs of the
    mean |difference|^2 over all subcarriers, halved, which reads high when
    every pair holds a step.
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
        gain = np.array(self.scheme.read_gains)
        alpha2 = np.maximum(self.signal - self.sigma2 / self.group_size, 0.0)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(alpha2 / (gain ** 2 * self.sigma2))
        return tuple(float(x) for x in np.clip(db, SNR_FLOOR_DB, SNR_CAP_DB))


def anchor(phases: np.ndarray, geometry: SensorGeometry, carrier_hz: float) -> np.ndarray:
    """Absolute (..., 2) port phases from phases against an untouched group
    0: each plus the open line's port_phases at geometry and carrier_hz, so
    a group's error is its own and group 0's, however far it lies from group
    0; exact modulo 2 pi.  The one place the open line's phase is added."""
    open_line = port_phases(ShortingState.open(), geometry, carrier_hz)
    return phases + (open_line.phi1, open_line.phi2)


@functools.lru_cache(maxsize=16)
def _tone_table(T: float, freqs: tuple[float, ...], Ng: int) -> np.ndarray:
    """(2 t, Ng) read-only weights of t read tones over one group: the rows of
    Re e^{-j 2 pi f n T}, then those of Im, for n in 0 .. Ng - 1."""
    w = np.exp(-2j * np.pi * np.asarray(freqs)[:, None] * np.arange(Ng) * T)
    table = np.concatenate((w.real, w.imag))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _gate_table(scheme: ClockScheme, T: float, Ng: int) -> np.ndarray:
    """(MIN_GROUPS, 2, 2) read-only projections of each port's switch state
    over each group of a two-group trace on each read tone:
    G[g, t, p] = (1/N_g) sum_{n in group g} s_p(nT) e^{-j 2 pi f_t n T}.

    So a two-group trace whose groups hold port phases phi[g] projects to
    a_k (G[g] e^{j phi[g]})_t on subcarrier k, a_k its sensor path's phasor,
    with the sampled gates' port leak (the off-diagonal entries) kept.  A
    group holds whole clock cycles, so the groups' tables agree in exact
    arithmetic; each is its own, as a switch edge landing on a sample may
    round differently in each.
    """
    states = np.stack(scheme.switch_states(np.arange(MIN_GROUPS * Ng) * T), axis=-1)
    table = project_groups(states.astype(np.complex128), scheme.read_freqs, T, Ng)
    table.flags.writeable = False
    return table


def project_groups(block: np.ndarray, read_freqs: Sequence[float],
                   frame_period_s: float, group_size: int) -> np.ndarray:
    """Project each whole group of a snapshot-major (n, K) block on each tone.

    With the block starting on a group boundary at absolute snapshot n0,
    P[g, t, k] = (1/N_g) sum_{n in group g} H[n, k] e^{-j 2 pi f_t n T}.  A
    group holds whole cycles of every tone, so its weights are one group's
    table whatever n0 is, and any constant-in-n term sums to exactly zero.
    Each group is summed on its own by numpy's einsum over real views, never
    BLAS, so a group's figure is the same bytes in any block and with any
    BLAS thread count.
    """
    Ng = group_size
    g = len(block) // Ng
    W = _tone_table(frame_period_s, tuple(read_freqs), Ng)
    x = np.ascontiguousarray(block[:g * Ng], np.complex128).view(np.float64)
    x = x.reshape(g, Ng, -1)
    # sums, read as [g, s, t, k, c]: tone t's cos (s = 0) or sin (s = 1) row
    # against the real (c = 0) or imaginary (c = 1) part of H[., k]
    sums = np.empty((g, len(W), x.shape[-1]))
    for out, group in zip(sums, x):
        np.einsum("tn,nj->tj", W, group, out=out)
    cos, sin = sums.reshape(g, 2, len(W) // 2, -1, 2).swapaxes(0, 1)
    P = np.empty(cos.shape[:-1], np.complex128)
    P.real = cos[..., 0] - sin[..., 1]
    P.imag = cos[..., 1] + sin[..., 0]
    P /= Ng
    return P


def phase_against(P: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The angle of the subcarrier mean of P conj(ref), broadcast.  The conjugate
    is named: numpy reuses a temporary of 256 KiB or more as the output,
    swapping a complex product's operands, whose rounding is not symmetric."""
    ref_conj = np.conjugate(ref)
    return np.angle((P * ref_conj).mean(axis=-1))


def _median(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0) of a float array, bit for bit, without the
    numpy.ma import (12-15 ms) that np.median's NaN check makes in a fresh
    process.

    As np.median does: np.partition puts the middle value (odd n) or the two
    middle values (even n) of the n rows in place and the largest last, the
    median is np.mean of the middle slice, and a NaN, which sorts last,
    makes it NaN.
    """
    n = len(a)
    part = np.partition(a, sorted({(n - 1) // 2, n // 2, n - 1}), axis=0)
    mid = np.mean(part[(n - 1) // 2:n // 2 + 1], axis=0)
    return np.where(np.isnan(part[-1]), part[-1], mid)


def _quantile(a: np.ndarray, q: float) -> float:
    """np.quantile(a, q) of a 1-D float array (method "linear"), bit for bit,
    without the numpy.ma import np.quantile makes in a fresh process.

    As np.quantile does: the virtual index v = (n - 1) q has neighbours
    floor(v) and floor(v) + 1, both the last for v >= n - 1, and weight
    t = v - (the lower neighbour's index, -1 for the last); np.partition,
    given the same kth (which decides where equal values such as 0.0 and
    -0.0 land), puts the neighbours, the least and the largest value in
    place, they are
    interpolated from the nearer end (b - (b - a)(1 - t) for t >= 0.5, else
    a + (b - a) t), and a NaN, which sorts last, is the result.
    """
    n = len(a)
    virtual = (n - 1) * q
    lo = -1 if virtual >= n - 1 else math.floor(virtual)
    hi = -1 if lo == -1 else lo + 1
    t = virtual - lo
    part = np.partition(a, sorted({0, -1, lo, hi}))  # np.quantile's kth, as given
    if math.isnan(part[-1]):
        return float(part[-1])
    x, y = float(part[lo]), float(part[hi])
    return y - (y - x) * (1 - t) if t >= 0.5 else x + (y - x) * t


def _sum_squares(z: np.ndarray) -> float:
    """sum |z|^2 of a contiguous complex array, by numpy's pairwise sum rather
    than BLAS, so a group pair's figure depends on neither how the trace was
    split into blocks nor the BLAS thread count."""
    x = z.view(np.float64)
    x *= x
    return float(x.sum())


def group_phases(trace: ChannelTrace, scheme: ClockScheme | None = None,
                 group_size: int | None = None) -> PhaseSeries:
    """Decode both ports of a trace, in memory or opened with traceio.open_trace,
    in one pass over its blocks; defaults: first scheme, auto group size.

    group_size must hold whole cycles of every scheme's read tones in the
    trace, not just the decoded one's, so the other sensors' tones cancel;
    snapshots past the last whole group are ignored.  A step is
    phase_against(P[g+1], P[g]) and a phase phase_against(P[g], P[0]); the
    trace needs MIN_GROUPS groups.  A tone's signal is the median group
    energy, which a mid-group step cannot drag down.  Static paths and
    whole-cycle clock lines repeat each group exactly, so the difference of
    two consecutive groups holds only noise, 2 sigma^2 per entry: sigma^2 is
    the least over group pairs of sum |rows[g] - rows[g+1]|^2 / (2 N_g K),
    over all K subcarriers.  A step inside a pair adds to its sum, so
    sigma^2 relies on at least one step-free group pair; a trace whose every
    pair holds a step reads it high.
    """
    if scheme is None:
        if not trace.schemes:
            raise ValueError("trace lists no modulation schemes")
        scheme = trace.schemes[0]
    config = trace.config
    Ng = decode_group_size(config, (*trace.schemes, scheme), group_size)
    # P0: group 0's projections; last: the previous group's projections and
    # its rows, a view of the source block
    P0, last = None, None
    steps, phases, energy, pair_sums = [], [], [], []
    for block in trace.blocks(Ng):  # whole groups, then any tail
        g = len(block) // Ng
        if not g:
            continue
        H = np.asarray(block[:g * Ng], np.complex128)
        P = project_groups(H, scheme.read_freqs, config.frame_period_s, Ng)
        groups = list(H.reshape(g, Ng, -1))
        energy.append(np.mean(np.abs(P) ** 2, axis=-1))
        if P0 is None:
            P0 = P[0]
        phases.append(phase_against(P, P0))
        if last is not None:
            P = np.concatenate((last[0], P))
            groups.insert(0, last[1])
        steps.append(phase_against(P[1:], P[:-1]))
        pair_sums += [_sum_squares(a - b) for a, b in zip(groups, groups[1:])]
        last = P[-1:], block[(g - 1) * Ng:g * Ng]
        del H, groups  # free this block's copy before the next is made
    return PhaseSeries(scheme, Ng, Ng * config.frame_period_s,
                       np.concatenate(steps), np.concatenate(phases),
                       _median(np.concatenate(energy)),
                       min(pair_sums) / (2 * Ng * config.n_subcarriers))


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
