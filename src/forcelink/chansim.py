"""Wideband channel synthesis for a switched backscatter sensor.

Produces the complex channel estimate matrix H[n, k] a reader would observe,
snapshot-major as a reader emits it: n indexes snapshots taken every frame
period T, k OFDM subcarriers.  Static multipath contributes constant-in-n
phasors; the sensor contributes its reflection gated by the two exact 0/1
switch states sampled at t = n T, so every switching harmonic and its
aliases are present, not a truncated approximation.

Memory: one block generator makes every trace, snapshot-major blocks of
whole snapshots (BLOCK_FLOATS // 8 entries; the gate is computed for at most
BLOCK_FLOATS // 8 snapshots at a time), and its seeded noise is one (N, K, 2)
standard_normal stream drawn into those blocks, whatever their size.
synthesize and add_second_sensor let it fill one (N, K) complex128 array;
synthesis_blocks streams it through one reused block, so a caller writing
each block out (cli simulate) holds memory independent of the trace length.
A quantized trace's full scale comes from a first pass over the same
stream.  quantize and ChannelTrace's finiteness check also work in blocks.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .clocks import ClockScheme
from .transducer import (SPEED_OF_LIGHT, MechanicalParams, SensorGeometry,
                         TouchEvent, port_phases, shorting_segment)

# entries per row block: 1 MiB of complex128, the working block every
# streamed step is sized from (traceio.CHUNK_BYTES too)
BLOCK_FLOATS = 2 ** 16


def _row_blocks(n_rows: int, n_cols: int, size: int | None = None) -> list[slice]:
    """Row slices of an (n_rows, n_cols) array: ~size (BLOCK_FLOATS) entries, >= 1 row."""
    step = max(1, (BLOCK_FLOATS if size is None else size) // n_cols)
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


@dataclass(frozen=True)
class WaveformConfig:
    """Reader waveform: K subcarriers spaced F Hz, snapshots every T seconds."""

    n_subcarriers: int = 64
    subcarrier_spacing_hz: float = 195312.5
    frame_period_s: float = 720.0 / 12.5e6
    carrier_hz: float = 2.4e9
    n_snapshots: int = 1875

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ValueError("need at least one subcarrier")
        if not self.subcarrier_spacing_hz > 0.0:
            raise ValueError("subcarrier spacing must be positive")
        if not self.frame_period_s > 0.0:
            raise ValueError("frame period must be positive")
        if not self.carrier_hz > 0.0:
            raise ValueError("carrier must be positive")
        if self.n_snapshots < 1:
            raise ValueError("need at least one snapshot")

    @property
    def nyquist_hz(self) -> float:
        """Highest modulation tone observable at the snapshot rate, 1/(2T)."""
        return 0.5 / self.frame_period_s


@dataclass(frozen=True)
class Path:
    """One propagation path: complex amplitude and one-way distance (m)."""

    amplitude: complex
    distance_m: float

    def __post_init__(self):
        if self.distance_m < 0.0:
            raise ValueError("path distance must be >= 0")


@dataclass(frozen=True)
class MultipathProfile:
    """Static paths plus the path that illuminates the sensor."""

    paths: tuple[Path, ...] = ()
    sensor_path: Path = Path(amplitude=1.0 + 0.0j, distance_m=1.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Complex AWGN level relative to the sensor-path amplitude.

    snr_db None means noiseless.  quantize_bits, when set, rounds re/im to a
    uniform grid spanning the trace's full scale with 2^bits levels.
    """

    snr_db: float | None = None
    seed: int = 0
    quantize_bits: int | None = None

    def __post_init__(self):
        if self.quantize_bits is not None and not 4 <= self.quantize_bits <= 24:
            raise ValueError("quantize_bits must lie in [4, 24]")


@dataclass(frozen=True)
class TouchTimeline:
    """Piecewise-constant touch schedule: (start_snapshot, TouchEvent or None).

    Entries are ordered, start strictly increasing, first entry at snapshot 0.
    """

    entries: tuple[tuple[int, TouchEvent | None], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("timeline needs at least one entry")
        if self.entries[0][0] != 0:
            raise ValueError("first timeline entry must start at snapshot 0")
        starts = [s for s, _ in self.entries]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("timeline starts must be strictly increasing")

    @classmethod
    def constant(cls, touch: TouchEvent | None) -> "TouchTimeline":
        return cls(entries=((0, touch),))

    def touch_at(self, n: int) -> TouchEvent | None:
        current = self.entries[0][1]
        for start, touch in self.entries:
            if start > n:
                break
            current = touch
        return current


@dataclass(frozen=True)
class ChannelTrace:
    """A synthesized (or loaded) channel matrix with its describing metadata."""

    config: WaveformConfig
    data: np.ndarray  # complex, shape (N, K): one row per snapshot
    schemes: tuple[ClockScheme, ...] = ()
    geometry: SensorGeometry | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # a view, so freezing it leaves the caller's array writeable
        arr = np.ascontiguousarray(self.data, dtype=np.complex128).view()
        if arr.shape != (self.config.n_snapshots, self.config.n_subcarriers):
            raise ValueError(
                f"data shape {arr.shape} does not match config "
                f"({self.config.n_snapshots}, {self.config.n_subcarriers})")
        for b in _row_blocks(*arr.shape):
            if not np.isfinite(arr[b]).all():
                raise ValueError("trace entries must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def blocks(self, group_size: int) -> Iterator[np.ndarray]:
        """The rows for decoder.group_phases, as traceio.TraceFile.blocks
        gives a file's: here the whole array in one block."""
        yield self.data


class NyquistError(ValueError):
    """A scheme's read tones exceed what the snapshot rate can represent."""


def nyquist_check(config: WaveformConfig, scheme: ClockScheme) -> None:
    """NyquistError unless every read tone lies within config.nyquist_hz."""
    limit, top = config.nyquist_hz, max(scheme.read_freqs)
    if top > limit:
        raise NyquistError(f"read frequency {top:.1f} Hz exceeds the Nyquist bound "
                           f"{limit:.1f} Hz set by the {config.frame_period_s*1e6:.1f} "
                           "us frame period")


def _subcarrier_phasor(config: WaveformConfig, path: Path) -> np.ndarray:
    k = np.arange(config.n_subcarriers)
    return path.amplitude * np.exp(
        -2j * np.pi * k * config.subcarrier_spacing_hz * path.distance_m
        / SPEED_OF_LIGHT)


def _gate(config: WaveformConfig, scheme: ClockScheme, timeline: TouchTimeline,
          geom: SensorGeometry, mech: MechanicalParams, rows: slice) -> np.ndarray:
    """The sensor's gated reflection on snapshots rows: switch states x e^{j phi}."""
    first, stop = rows.start, rows.stop
    phi = np.empty((2, stop - first))  # per-snapshot port phases held by the timeline
    starts = [s for s, _ in timeline.entries] + [config.n_snapshots]
    for (start, touch), end in zip(timeline.entries, starts[1:]):
        a, b = max(start, first), min(end, stop)
        if a < b:
            pp = port_phases(shorting_segment(touch, mech, geom), geom, config.carrier_hz)
            phi[:, a - first:b - first] = ((pp.phi1,), (pp.phi2,))
    s1, s2 = scheme.switch_states(np.arange(first, stop) * config.frame_period_s)
    # reflection factor e^{+j phi}: phi is the phase OF the reflection
    # coefficient (port_phases convention), already negative with distance
    return s1 * np.exp(1j * phi[0]) + s2 * np.exp(1j * phi[1])


def _reflection_blocks(base: np.ndarray, config: WaveformConfig,
                       scheme: ClockScheme, timeline: TouchTimeline,
                       sensor_path: Path, geom: SensorGeometry, mech: MechanicalParams,
                       noise: tuple | None = None,
                       out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield H = sensor phasor x gate + base, one block of whole snapshots at a time.

    base is an (N, K) view: broadcast static multipath or an existing trace.
    Each block is the next rows of out when out is given, else one reused
    buffer that the next block overwrites.  The gate is computed for spans of
    at most BLOCK_FLOATS // 8 snapshots (128 KiB as complex128); its values
    depend only on the absolute snapshot times, so the span never shows in
    the output.  noise = (rng, scale) first fills each block with the next
    rows of rng's (N, K, 2) standard_normal stream, times scale, then gets
    the reflection added from a temporary of BLOCK_FLOATS // 8 entries:
    malloc reuses its 128 KB, where 1 MB temporaries cost 600 page faults
    per 64 x 1250 trace.  The phasor goes first: numpy's complex
    multiply is not bitwise symmetric.
    """
    N, K = config.n_snapshots, config.n_subcarriers
    phasor = _subcarrier_phasor(config, sensor_path)
    buf = None
    for span in _row_blocks(N, 1, BLOCK_FLOATS // 8):
        gate = _gate(config, scheme, timeline, geom, mech, span)
        rows = _row_blocks(span.stop - span.start, K, BLOCK_FLOATS // 8)
        if out is None and buf is None:  # the first block is the largest
            buf = np.empty((rows[0].stop, K), dtype=np.complex128)
        for b in rows:
            r = slice(span.start + b.start, span.start + b.stop)
            H = out[r] if buf is None else buf[:b.stop - b.start]
            if noise is None:
                np.multiply(phasor, gate[b, None], out=H)
                H += base[r]
            else:
                v = noise[0].standard_normal(out=H.view(float))
                v *= noise[1]
                H += phasor * gate[b, None] + base[r]
            yield H
        del gate  # before the next chunk's gate and its temporaries exist


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _peak(block: np.ndarray) -> float:
    """Largest |re| or |im| of a complex128 block: its share of the full scale."""
    return float(np.max(np.abs(block.view(float))))


def _quantize_block(block: np.ndarray, full_scale: float, bits: int) -> np.ndarray:
    """Quantize a complex128 block in place onto the grid spanning full_scale."""
    if full_scale == 0.0:
        return block
    step = 2.0 * full_scale / (2 ** bits)
    v = block.view(float)
    v /= step
    np.round(v, out=v)
    v *= step
    np.clip(v, -full_scale, full_scale, out=v)
    return block


def _quantize_blocks(blocks: list[np.ndarray], bits: int) -> None:
    """Quantize complex128 blocks in place over their common full scale."""
    full_scale = max(map(_peak, blocks))
    for block in blocks:
        _quantize_block(block, full_scale, bits)


def quantize(data: np.ndarray, bits: int) -> np.ndarray:
    """Uniform re/im quantization to 2^bits levels over the trace full scale.

    Max elementwise deviation is full_scale / 2^bits.  Returns a new
    complex128 array; beyond it only one row block is held at a time.
    """
    if not 4 <= bits <= 24:
        raise ValueError("quantize_bits must lie in [4, 24]")
    out = np.array(data, dtype=np.complex128, order="C")
    H = out.reshape(-1, out.shape[-1])
    _quantize_blocks([H[b] for b in _row_blocks(*H.shape)], bits)
    return out


def _synthesis(config: WaveformConfig, scheme: ClockScheme,
               timeline: TouchTimeline, multipath: MultipathProfile,
               noise: NoiseSpec, geom: SensorGeometry, mech: MechanicalParams
               ) -> tuple[dict, Callable[..., Iterator[np.ndarray]]]:
    """Check a synthesis's inputs; its provenance and a pass starter.

    Each pass (optionally into out) replays the unquantized trace from a
    fresh generator seeded with noise.seed, so every pass is the same.
    """
    nyquist_check(config, scheme)
    K, N = config.n_subcarriers, config.n_snapshots
    static = np.zeros(K, dtype=np.complex128)
    for path in multipath.paths:
        static += _subcarrier_phasor(config, path)
    scale = None
    if noise.snr_db is not None:
        alpha = abs(multipath.sensor_path.amplitude)
        if alpha == 0.0:
            raise ValueError("snr_db is defined against the sensor path; "
                             "its amplitude must be nonzero when noise is on")
        sigma2 = alpha ** 2 * 10.0 ** (-noise.snr_db / 10.0)
        scale = math.sqrt(sigma2 / 2.0)
    prov = {"seed": noise.seed,
            "config_digest": _digest(config, scheme, multipath, noise,
                                     timeline, geom, mech)}

    def run(out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        draw = None if scale is None else (np.random.default_rng(noise.seed), scale)
        return _reflection_blocks(np.broadcast_to(static, (N, K)), config, scheme,
                                  timeline, multipath.sensor_path, geom, mech,
                                  draw, out)
    return prov, run


def synthesize(config: WaveformConfig, scheme: ClockScheme,
               timeline: TouchTimeline, multipath: MultipathProfile,
               noise: NoiseSpec, geom: SensorGeometry,
               mech: MechanicalParams) -> ChannelTrace:
    """Synthesize the full channel matrix H[n, k].

    H = static multipath + sensor reflection gated by the exact switch states,
    plus circular complex AWGN whose per-entry power sits snr_db below the
    sensor path amplitude squared.  Deterministic given noise.seed.
    """
    prov, run = _synthesis(config, scheme, timeline, multipath, noise, geom, mech)
    H = np.empty((config.n_snapshots, config.n_subcarriers), dtype=np.complex128)
    blocks = list(run(H))  # views into H
    if noise.quantize_bits is not None:
        _quantize_blocks(blocks, noise.quantize_bits)
    return ChannelTrace(config=config, data=H, schemes=(scheme,),
                        geometry=geom, provenance=prov)


def synthesis_blocks(config: WaveformConfig, scheme: ClockScheme,
                     timeline: TouchTimeline, multipath: MultipathProfile,
                     noise: NoiseSpec, geom: SensorGeometry, mech: MechanicalParams
                     ) -> tuple[dict, Iterator[np.ndarray]]:
    """synthesize's trace as its provenance and its rows, streamed.

    The rows come as consecutive (n, K) complex128 blocks of whole snapshots,
    each overwritten by the next, so a pass holds one block, not the trace.
    A quantized trace needs its full scale first: a first pass over the
    same seeded stream finds it, the second yields the quantized blocks.
    The inputs are checked before this returns.
    """
    prov, run = _synthesis(config, scheme, timeline, multipath, noise, geom, mech)
    bits = noise.quantize_bits
    if bits is None:
        return prov, run()
    full_scale = max(map(_peak, run()))
    return prov, (_quantize_block(block, full_scale, bits) for block in run())


def add_second_sensor(trace: ChannelTrace, scheme2: ClockScheme,
                      timeline2: TouchTimeline, sensor_path2: Path,
                      geom2: SensorGeometry, mech2: MechanicalParams) -> ChannelTrace:
    """Superpose another sensor's modulated reflection onto an existing trace.

    The new sensor must stay under the Nyquist bound and must not reuse any
    read frequency already present in the trace.
    """
    nyquist_check(trace.config, scheme2)
    existing = {f for s in trace.schemes for f in s.read_freqs}
    clash = existing.intersection(scheme2.read_freqs)
    if clash:
        raise ValueError(f"read frequency collision at {sorted(clash)} Hz")
    data = np.empty_like(trace.data)
    for _ in _reflection_blocks(trace.data, trace.config, scheme2, timeline2,
                                sensor_path2, geom2, mech2, out=data):
        pass
    prov = dict(trace.provenance)
    prov["sensors"] = len(trace.schemes) + 1
    return ChannelTrace(config=trace.config, data=data,
                        schemes=trace.schemes + (scheme2,),
                        geometry=trace.geometry, provenance=prov)


def equivalent_doppler_velocity(f_s: float, carrier_hz: float) -> float:
    """Velocity whose Doppler shift equals the modulation rate: c f_s / f_c."""
    if not carrier_hz > 0.0:
        raise ValueError("carrier must be positive")
    return SPEED_OF_LIGHT * f_s / carrier_hz
