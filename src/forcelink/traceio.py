"""Bit-exact persistence: binary channel traces, model and dataset JSON, CSVs.

Every file is written through one path, _replacing: under a temporary name
beside its destination, renamed into place only once complete, so a failed
or interrupted write leaves no partial file and never replaces an existing
one.  The CSVs (a decode's phase rows, a sweep's rows) go through write_rows,
the model and dataset through _write_json.

Trace file layout: 8-byte magic "WFTRACE1", one newline-terminated UTF-8 JSON
header line, then little-endian float32 (re, im) pairs, snapshot-major (n
outer, k inner) as ChannelTrace stores them, so a group of snapshots is one
contiguous byte range.  write_trace_blocks is the one trace writer: it takes
the header fields and the rows as an iterator of blocks and converts and
checks each block as it comes, so cli simulate streams a trace straight from
synthesis and write_trace passes a trace in chunks of about CHUNK_BYTES
(1 MiB).  open_trace returns the one trace type, chansim.ChannelTrace, with
the payload mapped unread as its data, whose blocks stream it in chunks of
whole groups (three 625 x 64 groups at 1 MiB), so a decode holds about
CHUNK_BYTES of any trace, and its complex128 copy, whatever the length.
The JSON a trace header, a model or a dataset holds is read with
config.read_section, as a config is: its keys are its dataclasses' fields, so
a model file is asdict(SensorModel) with fits under the key per_location,
and a header's schemes are config.scheme_to_dict's clock_a/clock_b.  A
header, a model and a dataset hold the sensor's line as geometry, in one
form, asdict(SensorGeometry) or null; a model or dataset file written
before it had the key loads with its line unknown (None).  A malformed
header, model or dataset is a ValueError naming its file once, then the
section or field at fault.
"""
from __future__ import annotations

import csv
import json
import os
import pathlib
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from typing import IO, TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .chansim import CHUNK_BYTES, ChannelTrace, WaveformConfig
from .clocks import ClockScheme
from .config import parse_scheme, read_section, scheme_to_dict
from .decoder import PhaseSeries
from .transducer import SensorGeometry

if TYPE_CHECKING:  # imported where read, so a decode without a model skips calib
    from .calib import CalibrationDataset, SensorModel

MAGIC = b"WFTRACE1"
_PAYLOAD_DTYPE = np.dtype("<c8")  # pairs of little-endian float32

PHASE_CSV_COLUMNS = ("group_index", "t_seconds", "dphi1_deg", "dphi2_deg",
                     "phi1_deg", "phi2_deg", "snr1_db", "snr2_db")


@contextmanager
def _json_object(what: str, path, raw: bytes) -> Iterator[dict]:
    """Yield the JSON object in raw; what reading it raises (TypeError,
    ValueError, ConfigError) becomes one ValueError prefixed "bad {what} in
    {path}: ".  That prefix says what is bad, so an error located by
    read_section keeps only its location after it: "bad model.per_location:
    ..." reads "model.per_location: ..."."""
    try:
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        yield doc
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad {what} in {path}: {str(e).removeprefix('bad ')}") from None


@contextmanager
def _replacing(path, binary: bool = False) -> Iterator[IO]:
    """Yield a new file to write path's contents to, UTF-8 text with the
    newlines as written unless binary; it is renamed to path once the block
    completes and removed if the block raises, so path is replaced whole or
    not at all.  A link is followed, so its target is replaced.  A path
    that exists must be a regular file: a rename would replace a device
    such as /dev/stdout, not write to it."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{path} is not a regular file")
    path = os.path.realpath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with (open(tmp, "xb") if binary
              else open(tmp, "x", encoding="utf-8", newline="")) as f:
            yield f
        os.replace(tmp, path)
    except FileExistsError:
        raise  # the random name is another writer's file: leave it
    except BaseException:
        with suppress(FileNotFoundError):  # SIGTERM can land as open returns
            os.unlink(tmp)
        raise


def write_rows(path, fieldnames, rows: Iterable[dict]) -> None:
    """CSV of rows (dicts keyed by fieldnames) under a fieldnames header, LF
    newlines; a field a row lacks is a blank cell."""
    with _replacing(path) as f:
        w = csv.DictWriter(f, fieldnames, restval="", lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _write_json(path, doc: dict) -> None:
    with _replacing(path) as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


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
    }
    with _replacing(path, binary=True) as f:
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


def write_trace(trace: ChannelTrace, path) -> None:
    """Write a trace, converted to float32 about CHUNK_BYTES at a time."""
    N, K = trace.data.shape
    step = max(1, CHUNK_BYTES // (K * _PAYLOAD_DTYPE.itemsize))
    write_trace_blocks(path, (trace.data[a:a + step] for a in range(0, N, step)),
                       trace.config, trace.schemes, trace.geometry, trace.provenance)


def open_trace(path) -> ChannelTrace:
    """Check a trace file's magic, header and payload size; map the payload,
    unread, as the trace's data.
    Every check that fails names the file: "bad trace in {path}: ..." (or
    "bad trace header in {path}: ..." for the header's JSON)."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad trace in {path}: magic {magic!r}, expected {MAGIC!r}")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise ValueError(f"bad trace in {path}: truncated header")
        offset = f.tell()
        size = os.fstat(f.fileno()).st_size - offset
    with _json_object("trace header", path, line) as header:
        cfg = read_section(WaveformConfig, header.get("waveform"), "waveform", {})
        schemes = header.get("schemes", [])
        if not isinstance(schemes, list):
            raise TypeError(f"schemes: expected a JSON list, got {type(schemes).__name__}")
        schemes = tuple(parse_scheme(d, f"schemes[{i}]") for i, d in enumerate(schemes))
        geometry = header.get("geometry")
        if geometry is not None:
            geometry = read_section(SensorGeometry, geometry, "geometry", {})
        provenance = header.get("provenance", {})
        if not isinstance(provenance, dict):
            raise TypeError("provenance: expected a JSON object, got "
                            f"{type(provenance).__name__}")
    expected = cfg.n_subcarriers * cfg.n_snapshots * _PAYLOAD_DTYPE.itemsize
    if size < expected:
        raise ValueError(f"bad trace in {path}: truncated payload: {size} bytes, "
                         f"expected {expected}")
    if size > expected:
        raise ValueError(f"bad trace in {path}: trailing bytes after payload")
    return ChannelTrace(
        config=cfg,
        data=np.memmap(path, dtype=_PAYLOAD_DTYPE, mode="r", offset=offset,
                       shape=(cfg.n_snapshots, cfg.n_subcarriers)),
        schemes=schemes, geometry=geometry, provenance=provenance)


def read_trace(path) -> ChannelTrace:
    """open_trace's trace copied into memory as complex128, checked finite."""
    trace = open_trace(path)
    return replace(trace, data=np.asarray(trace.data, np.complex128))


def write_model(model: SensorModel, path) -> None:
    doc = asdict(model)
    _write_json(path, {"per_location": doc.pop("fits"), **doc})


def read_model(path) -> SensorModel:
    from .calib import SensorModel

    with _json_object("model", path, pathlib.Path(path).read_bytes()) as doc:
        return read_section(SensorModel, doc, "model", {"geometry": None},
                            {"per_location": "fits"})


def write_dataset(data: CalibrationDataset, path) -> None:
    _write_json(path, {"carrier_hz": data.carrier_hz, "source": data.source,
                       "samples": [{"force_n": s.force_n, "location_mm": s.location_mm,
                                    "phi1_rad": s.phi1, "phi2_rad": s.phi2}
                                   for s in data.samples],
                       "geometry": asdict(data.geometry) if data.geometry else None})


def read_dataset(path) -> CalibrationDataset:
    from .calib import CalibrationDataset

    with _json_object("dataset", path, pathlib.Path(path).read_bytes()) as doc:
        return read_section(CalibrationDataset, doc, "dataset",
                            {"source": "imported", "geometry": None},
                            {"phi1_rad": "phi1", "phi2_rad": "phi2"})


def write_phase_csv(series: PhaseSeries, path, phases: np.ndarray | None = None,
                    extra_columns: dict | None = None) -> None:
    """Per-group CSV of one decode; '.' decimal, LF newlines.

    Row g carries the step into group g (0 for the first group), the
    anchored phases (anchor's (n_groups, 2) output; blank cells when phases
    is None) and the decode's per-port SNR estimates.  extra_columns maps
    name -> sequence of n_groups values (e.g. inversion output); a column of
    any other length is a ValueError, raised before anything is written.
    An int value is written as an int (calib.Estimate.columns' reliable, 0
    or 1), any other as a float.
    """
    n = series.n_groups
    extra = extra_columns or {}
    for name, values in extra.items():
        if len(values) != n:
            raise ValueError(f"column {name!r} has {len(values)} values for {n} groups")
    steps = np.degrees(np.concatenate((np.zeros((1, 2)), series.steps)))
    columns = {"t_seconds": series.group_times(),
               "dphi1_deg": steps[:, 0], "dphi2_deg": steps[:, 1], **extra}
    if phases is not None:  # else the phi cells are left blank
        columns["phi1_deg"], columns["phi2_deg"] = np.degrees(phases).T
    snr1, snr2 = series.snr_db
    rows = ({"group_index": g, "snr1_db": snr1, "snr2_db": snr2,
             **{name: v[g] if isinstance(v[g], int) else float(v[g])
                for name, v in columns.items()}} for g in range(n))
    write_rows(path, PHASE_CSV_COLUMNS + tuple(extra), rows)
