"""Wideband channel synthesis for a switched backscatter sensor.

Produces the complex channel estimate matrix H[k, n] a reader would observe:
k indexes OFDM subcarriers, n indexes channel snapshots taken every frame
period T.  Static multipath contributes constant-in-n phasors; the sensor
contributes its reflection gated by the two exact 0/1 switch states sampled
at t = n T, so every switching harmonic and its aliases are present, not a
truncated approximation.

Memory: synthesize allocates H once, one (K, N) complex128 array, and fills,
perturbs and quantizes it in row blocks of about BLOCK_FLOATS entries, so
beyond H it holds only (N,)-sized vectors and one fixed block buffer.
add_second_sensor, quantize and ChannelTrace's finiteness check work in the
same blocks.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clocks import ClockScheme
from .transducer import (SPEED_OF_LIGHT, MechanicalParams, SensorGeometry,
                         TouchEvent, port_phases, shorting_segment)

BLOCK_FLOATS = 2 ** 16  # entries per row block (512 KB of float64 noise)


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices of an (n_rows, n_cols) array, each about BLOCK_FLOATS entries.

    A row longer than BLOCK_FLOATS is a block of its own.
    """
    step = max(1, BLOCK_FLOATS // n_cols)
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
    data: np.ndarray  # complex, shape (K, N)
    schemes: tuple[ClockScheme, ...] = ()
    geometry: SensorGeometry | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if arr.shape != (self.config.n_subcarriers, self.config.n_snapshots):
            raise ValueError(
                f"data shape {arr.shape} does not match config "
                f"({self.config.n_subcarriers}, {self.config.n_snapshots})")
        for b in _row_blocks(*arr.shape):
            if not np.isfinite(arr[b]).all():
                raise ValueError("trace entries must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


class NyquistError(ValueError):
    """A scheme's read tones exceed what the snapshot rate can represent."""


@dataclass(frozen=True)
class NyquistReport:
    ok: bool
    limit_hz: float
    max_read_hz: float


def nyquist_check(config: WaveformConfig, scheme: ClockScheme,
                  error: type[Exception] | None = None) -> NyquistReport:
    """Whether the read tones are observable; raises error if given and not."""
    limit, top = config.nyquist_hz, max(scheme.read_freqs)
    if error is not None and top > limit:
        raise error(f"read frequency {top:.1f} Hz exceeds the Nyquist bound {limit:.1f} "
                    f"Hz set by the {config.frame_period_s*1e6:.1f} us frame period")
    return NyquistReport(ok=top <= limit, limit_hz=limit, max_read_hz=top)


def _subcarrier_phasor(config: WaveformConfig, path: Path) -> np.ndarray:
    k = np.arange(config.n_subcarriers)
    return path.amplitude * np.exp(
        -2j * np.pi * k * config.subcarrier_spacing_hz * path.distance_m
        / SPEED_OF_LIGHT)


def port_phase_arrays(timeline: TouchTimeline, geom: SensorGeometry,
                      mech: MechanicalParams, carrier_hz: float,
                      n_snapshots: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-snapshot unwrapped port phases implied by the timeline."""
    phi1 = np.empty(n_snapshots)
    phi2 = np.empty(n_snapshots)
    starts = [s for s, _ in timeline.entries] + [n_snapshots]
    for (start, touch), end in zip(timeline.entries, starts[1:]):
        if start >= n_snapshots:
            break
        pp = port_phases(shorting_segment(touch, mech, geom), geom, carrier_hz)
        phi1[start:end] = pp.phi1
        phi2[start:end] = pp.phi2
    return phi1, phi2


def _gate(config: WaveformConfig, scheme: ClockScheme, timeline: TouchTimeline,
          geom: SensorGeometry, mech: MechanicalParams) -> np.ndarray:
    """The sensor's (N,) gated reflection: switch states times e^{j phi}."""
    t = np.arange(config.n_snapshots) * config.frame_period_s
    s1, s2 = scheme.switch_states(t)
    phi1, phi2 = port_phase_arrays(timeline, geom, mech, config.carrier_hz,
                                   config.n_snapshots)
    # reflection factor e^{+j phi}: phi is the phase OF the reflection
    # coefficient (port_phases convention), already negative with distance
    return s1 * np.exp(1j * phi1) + s2 * np.exp(1j * phi2)


def _write_reflection(H: np.ndarray, base: np.ndarray, config: WaveformConfig,
                      scheme: ClockScheme, timeline: TouchTimeline,
                      sensor_path: Path, geom: SensorGeometry,
                      mech: MechanicalParams) -> np.ndarray:
    """H = sensor phasor x gate + base, written one row block at a time.

    base is the (K, 1) static multipath or an existing (K, N) trace.
    """
    gate = _gate(config, scheme, timeline, geom, mech)
    phasor = _subcarrier_phasor(config, sensor_path)
    for b in _row_blocks(*H.shape):
        np.multiply(phasor[b, None], gate, out=H[b])
        H[b] += base[b]
    return H


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _quantize_rows(H: np.ndarray, bits: int) -> None:
    """Quantize a 2-D complex128 array in place, one row block at a time."""
    blocks = _row_blocks(*H.shape)
    full_scale = max(float(np.max(np.abs(H[b].view(float)))) for b in blocks)
    if full_scale == 0.0:
        return
    step = 2.0 * full_scale / (2 ** bits)
    for b in blocks:
        v = H[b].view(float)
        v /= step
        np.round(v, out=v)
        v *= step
        np.clip(v, -full_scale, full_scale, out=v)


def quantize(data: np.ndarray, bits: int) -> np.ndarray:
    """Uniform re/im quantization to 2^bits levels over the trace full scale.

    Max elementwise deviation is full_scale / 2^bits.  Returns a new
    complex128 array; beyond it only one row block is held at a time.
    """
    if not 4 <= bits <= 24:
        raise ValueError("quantize_bits must lie in [4, 24]")
    out = np.array(data, dtype=np.complex128, order="C")
    _quantize_rows(out.reshape(-1, out.shape[-1]), bits)
    return out


def synthesize(config: WaveformConfig, scheme: ClockScheme,
               timeline: TouchTimeline, multipath: MultipathProfile,
               noise: NoiseSpec, geom: SensorGeometry,
               mech: MechanicalParams) -> ChannelTrace:
    """Synthesize the full channel matrix H[k, n].

    H = static multipath + sensor reflection gated by the exact switch states,
    plus circular complex AWGN whose per-entry power sits snr_db below the
    sensor path amplitude squared.  Deterministic given noise.seed.
    """
    nyquist_check(config, scheme, NyquistError)
    K, N = config.n_subcarriers, config.n_snapshots
    static = np.zeros(K, dtype=np.complex128)
    for path in multipath.paths:
        static += _subcarrier_phasor(config, path)
    H = _write_reflection(np.empty((K, N), dtype=np.complex128),
                          static[:, None], config, scheme, timeline,
                          multipath.sensor_path, geom, mech)
    if noise.snr_db is not None:
        alpha = abs(multipath.sensor_path.amplitude)
        if alpha == 0.0:
            raise ValueError("snr_db is defined against the sensor path; "
                             "its amplitude must be nonzero when noise is on")
        sigma2 = alpha ** 2 * 10.0 ** (-noise.snr_db / 10.0)
        scale = math.sqrt(sigma2 / 2.0)
        rng = np.random.default_rng(noise.seed)
        blocks = _row_blocks(K, N)
        buf = np.empty((blocks[0].stop, N))
        # re and im take the first and second (K, N) draws, in that order;
        # drawing them block by block consumes the stream in the same order
        for part in (H.real, H.imag):
            for b in blocks:
                draw = buf[:b.stop - b.start]
                rng.standard_normal(out=draw)
                draw *= scale
                part[b] += draw
    if noise.quantize_bits is not None:
        _quantize_rows(H, noise.quantize_bits)
    prov = {"seed": noise.seed,
            "config_digest": _digest(config, scheme, multipath, noise,
                                     timeline, geom, mech)}
    return ChannelTrace(config=config, data=H, schemes=(scheme,),
                        geometry=geom, provenance=prov)


def add_second_sensor(trace: ChannelTrace, scheme2: ClockScheme,
                      timeline2: TouchTimeline, sensor_path2: Path,
                      geom2: SensorGeometry, mech2: MechanicalParams) -> ChannelTrace:
    """Superpose another sensor's modulated reflection onto an existing trace.

    The new sensor must stay under the Nyquist bound and must not reuse any
    read frequency already present in the trace.
    """
    nyquist_check(trace.config, scheme2, NyquistError)
    existing = {f for s in trace.schemes for f in s.read_freqs}
    clash = existing.intersection(scheme2.read_freqs)
    if clash:
        raise ValueError(f"read frequency collision at {sorted(clash)} Hz")
    data = _write_reflection(np.empty_like(trace.data), trace.data,
                             trace.config, scheme2, timeline2, sensor_path2,
                             geom2, mech2)
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
