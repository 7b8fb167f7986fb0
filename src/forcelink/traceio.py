"""Bit-exact persistence: binary channel traces, model JSON, phase CSV.

Trace file layout: 8-byte magic "WFTRACE1", one newline-terminated UTF-8 JSON
header line, then little-endian float32 (re, im) pairs, snapshot-major (n
outer, k inner) as ChannelTrace stores them, so a group of snapshots is one
contiguous byte range.  write_trace_blocks is the one writer: it takes the
header fields and the rows as an iterator of blocks, converts and checks
each block as it comes and renames the file into place only once complete,
so cli simulate streams a trace straight from synthesis and write_trace
passes an in-memory trace in chunks of about CHUNK_BYTES (1 MiB).
open_trace maps the payload unread and TraceFile.blocks streams it in chunks
of whole groups (three 625 x 64 groups at 1 MiB), so a decode holds about
CHUNK_BYTES of any trace, and its complex128 copy, whatever the length.
A malformed header, model or dataset is a ValueError naming its file.
"""
from __future__ import annotations

import json
import mmap
import os
import pathlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator

import numpy as np

from .calib import CalibrationDataset, LocationFit, SensorModel
from .chansim import BLOCK_FLOATS, ChannelTrace, WaveformConfig
from .clocks import ClockScheme, SwitchClock
from .config import parse_scheme, read_section
from .decoder import PhaseSeries
from .transducer import SensorGeometry

MAGIC = b"WFTRACE1"
_PAYLOAD_DTYPE = np.dtype("<c8")  # pairs of little-endian float32
# payload bytes per streamed write or decode step: 1 MiB, chansim's block size
CHUNK_BYTES = BLOCK_FLOATS * np.dtype(np.complex128).itemsize

PHASE_CSV_COLUMNS = ("group_index", "t_seconds", "dphi1_deg", "dphi2_deg",
                     "phi1_deg", "phi2_deg", "snr1_db", "snr2_db")


def scheme_to_dict(scheme: ClockScheme) -> dict:
    def clock(c: SwitchClock) -> dict:
        return {"freq": c.frequency, "duty": c.duty, "offset": c.phase_offset}
    return {"f_s_hz": scheme.f_s,
            "clock_a": clock(scheme.clock_a),
            "clock_b": clock(scheme.clock_b)}


@contextmanager
def _json_object(what: str, path, raw: bytes) -> Iterator[dict]:
    """Yield the JSON object in raw; what reading it raises (KeyError,
    TypeError, ValueError, ConfigError) becomes one ValueError naming path."""
    try:
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        yield doc
    except KeyError as e:
        raise ValueError(f"bad {what} in {path}: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad {what} in {path}: {e}") from None


def write_trace_blocks(path, blocks: Iterable[np.ndarray], config: WaveformConfig,
                       schemes: tuple[ClockScheme, ...] = (),
                       geometry: SensorGeometry | None = None,
                       provenance: dict | None = None) -> None:
    """Write a trace file from its header fields and its rows, block by block.

    blocks are consecutive (n, K) complex arrays of whole snapshots, N rows
    in all.  Each is converted to float32 pairs and checked finite before it
    is written, so an entry past float32's range fails here, not at decode.
    The file is written under a temporary name beside path and renamed to
    path only when complete: a failed or interrupted write leaves no partial
    trace and never replaces an existing file.
    """
    N, K = config.n_snapshots, config.n_subcarriers
    header = {
        "waveform": asdict(config),
        "schemes": [scheme_to_dict(s) for s in schemes],
        "geometry": asdict(geometry) if geometry else None,
        "provenance": provenance or {},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(MAGIC)
            f.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
            f.write(b"\n")
            done = 0
            for block in blocks:
                with np.errstate(over="ignore"):  # overflow is reported below
                    c8 = np.asarray(block).astype(_PAYLOAD_DTYPE)
                if c8.ndim != 2 or c8.shape[1] != K or done + len(c8) > N:
                    raise ValueError(f"block of shape {c8.shape} does not fit a "
                                     f"({N}, {K}) trace after {done} snapshots")
                if not np.isfinite(c8.view(np.float32)).all():
                    raise ValueError("trace entries must all be finite in float32 "
                                     f"(snapshots {done} to {done + len(c8) - 1})")
                f.write(c8)
                done += len(c8)
        if done != N:
            raise ValueError(f"blocks hold {done} snapshots, the trace {N}")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_trace(trace: ChannelTrace, path) -> None:
    """Write an in-memory trace, converted to float32 about CHUNK_BYTES at a time."""
    N, K = trace.data.shape
    step = max(1, CHUNK_BYTES // (K * _PAYLOAD_DTYPE.itemsize))
    write_trace_blocks(path, (trace.data[a:a + step] for a in range(0, N, step)),
                       trace.config, trace.schemes, trace.geometry, trace.provenance)


@dataclass(frozen=True)
class TraceFile:
    """A trace file opened for streaming: its header fields and payload."""

    config: WaveformConfig
    data: np.memmap  # read-only (N, K) '<c8', snapshot-major
    schemes: tuple[ClockScheme, ...] = ()
    geometry: SensorGeometry | None = None
    provenance: dict = field(default_factory=dict)

    def blocks(self, group_size: int) -> Iterator[np.ndarray]:
        """The payload in whole-group chunks of about CHUNK_BYTES, checked finite."""
        per_group = group_size * self.config.n_subcarriers * self.data.itemsize
        step = group_size * max(1, CHUNK_BYTES // per_group)
        for start in range(0, len(self.data), step):
            block = self.data[start:start + step]
            if not np.isfinite(block.view(np.float32)).all():
                raise ValueError("trace entries must all be finite")
            yield block
            if hasattr(mmap, "MADV_DONTNEED"):  # unmap the pages read so far
                self.data._mmap.madvise(mmap.MADV_DONTNEED)


def open_trace(path) -> TraceFile:
    """Check a trace file's magic, header and payload size; map the payload."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise ValueError("truncated header")
        offset = f.tell()
        size = os.fstat(f.fileno()).st_size - offset
    with _json_object("trace header", path, line) as header:
        cfg = read_section(WaveformConfig, header.get("waveform"), "waveform", {})
        schemes = tuple(parse_scheme(d, f"schemes[{i}]")
                        for i, d in enumerate(header.get("schemes", [])))
        geometry = header.get("geometry")
        if geometry is not None:
            geometry = read_section(SensorGeometry, geometry, "geometry", {})
    expected = cfg.n_subcarriers * cfg.n_snapshots * _PAYLOAD_DTYPE.itemsize
    if size < expected:
        raise ValueError(f"truncated payload: {size} bytes, expected {expected}")
    if size > expected:
        raise ValueError("trailing bytes after payload")
    return TraceFile(
        config=cfg,
        data=np.memmap(path, dtype=_PAYLOAD_DTYPE, mode="r", offset=offset,
                       shape=(cfg.n_snapshots, cfg.n_subcarriers)),
        schemes=schemes, geometry=geometry,
        provenance=header.get("provenance", {}))


def read_trace(path) -> ChannelTrace:
    """Load a whole trace file (every entry checked finite)."""
    tf = open_trace(path)
    return ChannelTrace(config=tf.config, data=tf.data, schemes=tf.schemes,
                        geometry=tf.geometry, provenance=tf.provenance)


def write_model(model: SensorModel, path) -> None:
    doc = {
        "carrier_hz": model.carrier_hz,
        "locations_mm": model.locations(),
        "force_range_n": list(model.force_range_n),
        "per_location": [
            {
                **{f"c{i}_port1": fit.c_port1[i] for i in range(4)},
                **{f"c{i}_port2": fit.c_port2[i] for i in range(4)},
                "rms_deg": float(np.degrees(fit.rms_rad)),
            }
            for fit in model.fits
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_model(path) -> SensorModel:
    with _json_object("model", path, pathlib.Path(path).read_bytes()) as doc:
        fits = tuple(
            LocationFit(location_mm=float(loc),
                        c_port1=tuple(float(row[f"c{i}_port1"]) for i in range(4)),
                        c_port2=tuple(float(row[f"c{i}_port2"]) for i in range(4)),
                        rms_rad=float(np.radians(row["rms_deg"])))
            for loc, row in zip(doc["locations_mm"], doc["per_location"],
                                strict=True))
        f_lo, f_hi = doc["force_range_n"]
        return SensorModel(carrier_hz=float(doc["carrier_hz"]), fits=fits,
                           force_range_n=(float(f_lo), float(f_hi)))


def write_dataset(data: CalibrationDataset, path) -> None:
    doc = {"carrier_hz": data.carrier_hz, "source": data.source,
           "samples": [{"force_n": s.force_n, "location_mm": s.location_mm,
                        "phi1_rad": s.phi1, "phi2_rad": s.phi2}
                       for s in data.samples]}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_dataset(path) -> CalibrationDataset:
    with _json_object("dataset", path, pathlib.Path(path).read_bytes()) as doc:
        return read_section(CalibrationDataset, doc, "dataset", {"source": "imported"},
                            {"phi1_rad": "phi1", "phi2_rad": "phi2"})


def write_phase_csv(series: PhaseSeries, path, phases: np.ndarray | None = None,
                    extra_columns: dict | None = None) -> None:
    """Per-group CSV of one decode; '.' decimal, LF newlines.

    Row g carries the step into group g (0 for the first group), the
    anchored phases (anchor's (n_groups, 2) output; blank cells when phases
    is None) and the decode's per-port SNR estimates.  extra_columns maps
    name -> sequence of len n_groups (e.g. inversion output).
    """
    steps = np.degrees(np.concatenate((np.zeros((1, 2)), series.steps)))
    phi = np.degrees(phases) if phases is not None else None
    snr = [repr(s) for s in series.snr_db]
    t = series.group_times()
    extra = extra_columns or {}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(PHASE_CSV_COLUMNS + tuple(extra)) + "\n")
        for g in range(series.n_groups):
            row = [str(g), repr(float(t[g]))]
            row += [repr(float(x)) for x in steps[g]]
            row += [repr(float(x)) for x in phi[g]] if phi is not None else ["", ""]
            row += snr
            row += [repr(float(extra[name][g])) for name in extra]
            f.write(",".join(row) + "\n")
