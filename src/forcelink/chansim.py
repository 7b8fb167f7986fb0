"""Wideband channel synthesis for a switched backscatter sensor.

Produces the complex channel estimate matrix H[n, k] a reader would observe,
snapshot-major as a reader emits it: n indexes snapshots taken every frame
period T, k OFDM subcarriers.  Static multipath contributes constant-in-n
phasors; the sensor contributes each port's reflection, formed only by
transducer.port_reflections, gated by the two exact 0/1 switch states
sampled at t = n T, so every switching harmonic and its aliases are present.

Every trace comes from one pipeline over snapshot-major blocks of whole
snapshots (BLOCK_FLOATS // 8 entries): the reflection stage (sensor phasor
x gate + base, the static multipath or an existing trace), the noise stage
(default_rng(seed)'s (N, K, 2) standard_normal stream, scaled, plus the
clean block) and the quantizer (the full scale from a first pass over a
replayable block source, then each block gridded in place).
synthesis_blocks streams the chain, so cli simulate holds memory
independent of the trace length.  A trace held in memory reads the same
stream: synthesize collects the noise stage's blocks into its (N, K) array
and quantizes that array in place over its own row blocks, so each stage
runs once; add_second_sensor collects the reflection stage's blocks over an
existing trace.  _draw is the one standard_normal call, for the block
pipeline and the noise the sweeps draw in the projection domain alike.
Every timeline entry must start within the trace: a press past its end is
refused before any row is made, never dropped.  A trace held in memory
records its seed as provenance; cli simulate writes the header's digest.
ChannelTrace is the one trace type, in memory (checked finite when built)
or a trace file's map (traceio.open_trace; each chunk checked as it is
read), and decoder.group_phases reads either through its blocks.
Everything runs on the calling thread.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .clocks import ClockScheme
from .transducer import (SPEED_OF_LIGHT, MechanicalParams, SensorGeometry,
                         TouchEvent, port_reflections)

# entries per row block: 1 MiB of complex128, the working block every
# streamed step is sized from
BLOCK_FLOATS = 2 ** 16
# bytes per ChannelTrace.blocks chunk and per traceio trace write
CHUNK_BYTES = BLOCK_FLOATS * np.dtype(np.complex128).itemsize


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
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


@dataclass(frozen=True)
class ChannelTrace:
    """A channel matrix H[n, k] with the header fields that describe it: in
    memory (synthesize's) or a trace file's payload (traceio.open_trace's)."""

    config: WaveformConfig
    # read-only (N, K), one row per snapshot: a frozen complex128 view of
    # the caller's array, or the file's '<c8' memmap, never copied whole
    data: np.ndarray
    schemes: tuple[ClockScheme, ...] = ()
    geometry: SensorGeometry | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.config.n_snapshots, self.config.n_subcarriers)
        if np.shape(self.data) != shape:
            raise ValueError(f"data shape {np.shape(self.data)} does not match "
                             f"config {shape}")
        if isinstance(self.data, np.memmap):  # a file's, checked as blocks reads it
            return
        # a view, so freezing it leaves the caller's array writeable
        arr = np.ascontiguousarray(self.data, dtype=np.complex128).view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        for _ in self.blocks(1):  # every entry checked finite now
            pass

    def blocks(self, group_size: int) -> Iterator[np.ndarray]:
        """The rows for decoder.group_phases in whole-group chunks of about
        CHUNK_BYTES, each checked finite as it is read."""
        per_group = group_size * self.config.n_subcarriers * self.data.itemsize
        step = group_size * max(1, CHUNK_BYTES // per_group)
        for start in range(0, len(self.data), step):
            block = self.data[start:start + step]
            # re and im as floats: half the time of numpy's complex isfinite
            if not np.isfinite(block.view(block.real.dtype)).all():
                raise ValueError("trace entries must all be finite (snapshots "
                                 f"{start} to {start + len(block) - 1})")
            yield block
            if isinstance(self.data, np.memmap) and hasattr(mmap, "MADV_DONTNEED"):
                self.data._mmap.madvise(mmap.MADV_DONTNEED)  # unmap the pages read


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
          reflections: np.ndarray, rows: slice) -> np.ndarray:
    """The sensor's gated reflection on snapshots rows: switch states x each
    port's reflection, reflections[i] (port_reflections') under timeline entry i."""
    n = np.arange(rows.start, rows.stop)
    r = reflections[np.searchsorted([s for s, _ in timeline.entries], n, "right") - 1]
    s1, s2 = scheme.switch_states(n * config.frame_period_s)
    return s1 * r[:, 0] + s2 * r[:, 1]


def _reflection_blocks(base: np.ndarray, config: WaveformConfig,
                       scheme: ClockScheme, timeline: TouchTimeline,
                       sensor_path: Path, geom: SensorGeometry,
                       mech: MechanicalParams) -> Iterator[np.ndarray]:
    """Reflection stage: H = sensor phasor x gate + base, noiseless, one block
    of whole snapshots at a time in one reused buffer the next block overwrites.

    base is an (N, K) view: broadcast static multipath or an existing trace.
    Every timeline entry must start within the trace, or ValueError naming
    the first that does not, before this returns.  port_reflections is taken
    once per entry; the gate is made from those for spans of at most
    BLOCK_FLOATS // 8 snapshots (128 KiB as complex128) and depends only on
    the absolute snapshot times, so the span never shows in the output.  The
    phasor goes first: numpy's complex multiply is not bitwise symmetric.
    """
    N, K = config.n_snapshots, config.n_subcarriers
    for i, (start, _) in enumerate(timeline.entries):
        if start >= N:
            raise ValueError(f"timeline[{i}] starts at snapshot {start}, past the "
                             f"trace's {N} snapshots")
    phasor = _subcarrier_phasor(config, sensor_path)
    reflections = np.array([port_reflections(touch, mech, geom, config.carrier_hz)
                            for _, touch in timeline.entries])

    def blocks() -> Iterator[np.ndarray]:
        buf = None
        for span in _row_blocks(N, 1, BLOCK_FLOATS // 8):
            gate = _gate(config, scheme, timeline, reflections, span)
            rows = _row_blocks(span.stop - span.start, K, BLOCK_FLOATS // 8)
            if buf is None:  # the first block is the largest
                buf = np.empty((rows[0].stop, K), dtype=np.complex128)
            for b in rows:
                H = buf[:b.stop - b.start]
                np.multiply(phasor, gate[b, None], out=H)
                H += base[span.start + b.start:span.start + b.stop]
                yield H
            del gate  # before the next chunk's gate and its temporaries exist
    return blocks()


def _draw(rng: np.random.Generator, scale: float, out: np.ndarray) -> None:
    """out (complex128) filled with rng's next standard normals, re and im
    innermost, times scale: the package's one noise draw."""
    v = rng.standard_normal(out=out.view(float))
    v *= scale


def _noisy(clean: Iterable[np.ndarray], noise: NoiseSpec,
           sensor_path: Path) -> Iterator[np.ndarray]:
    """Noise stage: each clean block plus the next rows of default_rng(seed)'s
    (N, K, 2) standard_normal stream (re, im innermost) times noise_scale, in
    one reused buffer sized by the first block, the largest; clean as it is
    for snr_db None.  The generator exists before the pass starts: a SIGTERM
    during numpy.random's lazy import would be lost."""
    scale = noise_scale(sensor_path, noise.snr_db)
    if scale is None:
        return iter(clean)
    rng, buf = np.random.default_rng(noise.seed), None

    def add(block: np.ndarray) -> np.ndarray:
        nonlocal buf
        if buf is None:
            buf = np.empty_like(block)
        H = buf[:len(block)]
        _draw(rng, scale, H)
        H += block
        return H
    return map(add, clean)


def _quantized(source: Callable[[], Iterable[np.ndarray]],
               bits: int | None) -> Iterator[np.ndarray]:
    """Quantization stage: source()'s complex128 blocks rounded in place, re
    and im, onto 2^bits levels spanning the full scale (the largest |re| or
    |im|), which a first pass over source() finds before this returns;
    source() as it is for bits None.  source replays the same rows."""
    if bits is None:
        return iter(source())
    full_scale = max(float(np.max(np.abs(block.view(float)))) for block in source())
    step = 2.0 * full_scale / (2 ** bits)

    def grid(block: np.ndarray) -> np.ndarray:
        if full_scale:
            v = block.view(float)
            v /= step
            np.round(v, out=v)
            v *= step
            np.clip(v, -full_scale, full_scale, out=v)
        return block
    return map(grid, source())


def _collected(blocks: Iterable[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """A new complex128 array of the given shape holding blocks'
    consecutive row blocks, copied in as they come."""
    H = np.empty(shape, dtype=np.complex128)
    start = 0
    for block in blocks:
        H[start:start + len(block)] = block
        start += len(block)
    return H


def noise_scale(sensor_path: Path, snr_db: float | None) -> float | None:
    """Standard deviation of each of the noise's re and im at snr_db below the
    sensor path amplitude squared; None for snr_db None (noiseless)."""
    if snr_db is None:
        return None
    alpha = abs(sensor_path.amplitude)
    if alpha == 0.0:
        raise ValueError("snr_db is defined against the sensor path; "
                         "its amplitude must be nonzero when noise is on")
    sigma2 = alpha ** 2 * 10.0 ** (-snr_db / 10.0)
    return math.sqrt(sigma2 / 2.0)


def noiseless_blocks(config: WaveformConfig, scheme: ClockScheme,
                     timeline: TouchTimeline, multipath: MultipathProfile,
                     geom: SensorGeometry, mech: MechanicalParams
                     ) -> Iterator[np.ndarray]:
    """The reflection stage over the static multipath: synthesize's rows
    with NoiseSpec(), as _reflection_blocks yields them.  The scheme is
    checked against the Nyquist bound before this returns."""
    nyquist_check(config, scheme)
    K, N = config.n_subcarriers, config.n_snapshots
    static = sum((_subcarrier_phasor(config, p) for p in multipath.paths),
                 np.zeros(K, dtype=np.complex128))
    return _reflection_blocks(np.broadcast_to(static, (N, K)), config, scheme,
                              timeline, multipath.sensor_path, geom, mech)


def synthesis_blocks(config: WaveformConfig, scheme: ClockScheme,
                     timeline: TouchTimeline, multipath: MultipathProfile,
                     noise: NoiseSpec, geom: SensorGeometry, mech: MechanicalParams
                     ) -> Iterator[np.ndarray]:
    """synthesize's trace rows, streamed.

    The rows come as consecutive (n, K) complex128 blocks of whole snapshots,
    each overwritten by the next, so a pass holds one block, not the trace:
    the three stages chained, where the quantizer's first pass replays the
    same seeded stream.  The inputs are checked before this returns.
    """
    def unquantized() -> Iterator[np.ndarray]:
        return _noisy(noiseless_blocks(config, scheme, timeline, multipath, geom, mech),
                      noise, multipath.sensor_path)
    return _quantized(unquantized, noise.quantize_bits)


def synthesize(config: WaveformConfig, scheme: ClockScheme,
               timeline: TouchTimeline, multipath: MultipathProfile,
               noise: NoiseSpec, geom: SensorGeometry,
               mech: MechanicalParams) -> ChannelTrace:
    """Synthesize the full channel matrix H[n, k].

    H = static multipath + sensor reflection gated by the exact switch states,
    plus circular complex AWGN whose per-entry power sits snr_db below the
    sensor path amplitude squared.  Deterministic given noise.seed: the rows
    of synthesis_blocks, whose noisy blocks are collected into H once and
    quantized in place over H's row blocks, so the trace is made once.  Its
    provenance is the seed.
    """
    H = _collected(_noisy(noiseless_blocks(config, scheme, timeline, multipath,
                                           geom, mech), noise, multipath.sensor_path),
                   (config.n_snapshots, config.n_subcarriers))
    for _ in _quantized(lambda: (H[b] for b in _row_blocks(*H.shape)),
                        noise.quantize_bits):
        pass
    return ChannelTrace(config=config, data=H, schemes=(scheme,), geometry=geom,
                        provenance={"seed": noise.seed})


def check_added_scheme(config: WaveformConfig, schemes: Iterable[ClockScheme],
                       scheme: ClockScheme) -> None:
    """ValueError (NyquistError) unless scheme stays under the Nyquist bound
    and reuses no read frequency of schemes."""
    nyquist_check(config, scheme)
    existing = {f for s in schemes for f in s.read_freqs}
    clash = existing.intersection(scheme.read_freqs)
    if clash:
        raise ValueError(f"read frequency collision at {sorted(clash)} Hz")


def add_second_sensor(trace: ChannelTrace, scheme2: ClockScheme,
                      timeline2: TouchTimeline, sensor_path2: Path,
                      geom2: SensorGeometry, mech2: MechanicalParams) -> ChannelTrace:
    """Superpose another sensor's modulated reflection onto an existing trace.

    scheme2 is checked by check_added_scheme against the trace's schemes.
    """
    check_added_scheme(trace.config, trace.schemes, scheme2)
    data = _collected(_reflection_blocks(trace.data, trace.config, scheme2, timeline2,
                                         sensor_path2, geom2, mech2), trace.data.shape)
    return ChannelTrace(config=trace.config, data=data,
                        schemes=trace.schemes + (scheme2,),
                        geometry=trace.geometry, provenance=dict(trace.provenance))


def equivalent_doppler_velocity(f_s: float, carrier_hz: float) -> float:
    """Velocity whose Doppler shift equals the modulation rate: c f_s / f_c."""
    if not carrier_hz > 0.0:
        raise ValueError("carrier must be positive")
    return SPEED_OF_LIGHT * f_s / carrier_hz
