"""Streamed decode: the CLI reads the trace file a chunk of whole groups at a
time and must write exactly what an in-memory decode of the same file does."""
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forcelink import cli, traceio
from forcelink.config import default_config_dict
from forcelink.decoder import anchor, group_phases
from forcelink.traceio import open_trace, read_trace, write_phase_csv
from forcelink.transducer import ShortingState, port_phases

from conftest import traced_peak

NG = 625
K = 8
GROUPS = 11
TAIL = 100  # snapshots past the last whole group, ignored by the decode


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("stream")
    doc = default_config_dict()
    doc["waveform"].update(n_subcarriers=K, n_snapshots=GROUPS * NG + TAIL)
    # presses on group boundaries and inside groups
    doc["timeline"] = [{"start_snapshot": 0, "touch": None}] + [
        {"start_snapshot": s, "touch": {"force_n": 1.5 + 0.5 * i,
                                        "location_mm": 40.0}}
        for i, s in enumerate((NG, 3 * NG + 200, 5 * NG, 8 * NG + 400))]
    cfg = d / "config.json"
    cfg.write_text(json.dumps(doc))
    path = str(d / "run.trace")
    assert cli.main(["simulate", "--config", str(cfg), "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def in_memory_csv(trace_path, tmp_path_factory):
    """What decode writes, computed from read_trace's in-memory trace."""
    trace = read_trace(trace_path)
    scheme = trace.schemes[0]
    series = group_phases(trace, scheme, NG)
    quiet = port_phases(ShortingState.open(), trace.geometry,
                        trace.config.carrier_hz)
    out = tmp_path_factory.mktemp("mem") / "phases.csv"
    write_phase_csv(series, out, anchor(series, quiet))
    return out.read_bytes()


def chunk_bytes(groups):
    return groups * NG * K * 8  # float32 (re, im) pairs on disk


@settings(max_examples=25, deadline=None)
@given(groups=st.integers(min_value=1, max_value=GROUPS + 3))
@example(groups=1)
@example(groups=4)  # does not divide GROUPS
@example(groups=GROUPS)
def test_streamed_csv_matches_in_memory_bytes(trace_path, in_memory_csv,
                                              tmp_path_factory, groups):
    out = tmp_path_factory.mktemp("streamed") / "phases.csv"
    with mock.patch.object(traceio, "CHUNK_BYTES", chunk_bytes(groups)):
        assert cli.main(["decode", "--trace", trace_path,
                         "--out", str(out)]) == 0
    assert out.read_bytes() == in_memory_csv


def test_group_phases_decodes_a_trace_file_as_its_in_memory_copy(trace_path):
    # the one decode takes either kind of trace; the file streams in chunks
    with mock.patch.object(traceio, "CHUNK_BYTES", chunk_bytes(4)):
        streamed = group_phases(open_trace(trace_path))
    whole = group_phases(read_trace(trace_path))
    assert streamed.group_size == whole.group_size == NG
    for name in ("steps", "phases", "signal", "sigma2"):
        np.testing.assert_array_equal(getattr(streamed, name), getattr(whole, name))


def test_blocks_hold_whole_groups_within_the_chunk_size(trace_path):
    tf = open_trace(trace_path)
    assert isinstance(tf.data, np.memmap)
    assert tf.data.shape == (GROUPS * NG + TAIL, K)
    assert tf.data.dtype == np.dtype("<c8")
    assert not tf.data.flags.writeable
    with mock.patch.object(traceio, "CHUNK_BYTES", chunk_bytes(3)):
        sizes = [len(b) for b in tf.blocks(NG)]
    assert sizes == [3 * NG] * 3 + [2 * NG + TAIL]
    assert read_trace(trace_path).data.tobytes() == tf.data.astype(
        np.complex128).tobytes()


@pytest.fixture(scope="module", params=[40, 160], ids=["40_groups", "160_groups"])
def long_trace(request, tmp_path_factory):
    """A 64-subcarrier trace of 40 or 160 groups: a 12 or 49 MiB file."""
    d = tmp_path_factory.mktemp("long")
    doc = default_config_dict()
    doc["waveform"].update(n_subcarriers=64, n_snapshots=request.param * NG)
    cfg = d / "config.json"
    cfg.write_text(json.dumps(doc))
    path = str(d / "run.trace")
    assert cli.main(["simulate", "--config", str(cfg), "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    cfg = d / "config.json"
    cfg.write_text(json.dumps(default_config_dict()))
    path = str(d / "model.json")
    assert cli.main(["calibrate", "--config", str(cfg), "--out", path]) == 0
    return path


@pytest.mark.parametrize("with_model", [False, True], ids=["plain", "model"])
def test_decode_memory_does_not_grow_with_the_trace(long_trace, model_path,
                                                    tmp_path, with_model):
    # one chunk of three 625 x 64 groups and its complex128 copy, about
    # 2.3 MiB at either length; 16 MiB chunks would hold 25.5 and 37.9 MiB
    argv = ["decode", "--trace", long_trace, "--out", str(tmp_path / "phases.csv")]
    if with_model:
        argv += ["--model", model_path]
    rc, peak = traced_peak(lambda: cli.main(argv))
    assert rc == 0
    assert peak <= 4 * 2 ** 20


def damaged_copy(src, dst, edit):
    dst.write_bytes(bytes(edit(bytearray(Path(src).read_bytes()))))
    return str(dst)


def nan_at(snapshot):
    def edit(raw):
        # payload ends the file; one snapshot is K (re, im) float32 pairs
        at = len(raw) - (GROUPS * NG + TAIL - snapshot) * K * 8
        raw[at:at + 4] = np.float32(np.nan).tobytes()
        return raw
    return edit


@pytest.mark.parametrize("edit", [
    nan_at(GROUPS * NG - 1),      # last whole group, in the last chunk
    nan_at(GROUPS * NG + TAIL - 1),  # the ignored tail is checked too
    lambda raw: raw[:-4],         # truncated payload
    lambda raw: raw + b"\0",      # trailing bytes
], ids=["nan-last-group", "nan-tail", "truncated", "trailing"])
def test_damaged_trace_fails_decode(trace_path, tmp_path, edit):
    bad = damaged_copy(trace_path, tmp_path / "bad.trace", edit)
    out = tmp_path / "phases.csv"
    with mock.patch.object(traceio, "CHUNK_BYTES", chunk_bytes(2)):
        assert cli.main(["decode", "--trace", bad, "--out", str(out)]) == 1
    assert not out.exists()


def header_edit(change):
    """An edit replacing the trace's JSON header line with change(header)."""
    def edit(raw):
        start = len(traceio.MAGIC)
        end = raw.index(b"\n", start)
        header = change(json.loads(raw[start:end]))
        return raw[:start] + json.dumps(header).encode() + raw[end:]
    return edit


def drop(section, key):
    def change(header):
        part = header[section]
        del (part[0] if isinstance(part, list) else part)[key]
        return header
    return change


def extra_geometry_key(header):
    header["geometry"]["width_mm"] = 1.0
    return header


@pytest.mark.parametrize("change, says", [
    (drop("schemes", "clock_b"),
     "schemes[0] needs both clock_a and clock_b, or just f_s_hz"),
    (drop("waveform", "carrier_hz"), "missing keys in 'waveform': ['carrier_hz']"),
    (extra_geometry_key, "unknown keys in 'geometry': ['width_mm']"),
    (lambda header: [header], "expected a JSON object, got list"),
], ids=["no-clock_b", "no-carrier", "extra-geometry-key", "list-header"])
def test_malformed_header_fails_decode(trace_path, tmp_path, capsys, change, says):
    bad = damaged_copy(trace_path, tmp_path / "bad.trace", header_edit(change))
    out = tmp_path / "phases.csv"
    assert cli.main(["decode", "--trace", bad, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bad trace header in {bad}: {says}\n"
    assert not out.exists()


ZERO_FIT = {f"c{i}_port{p}": 0.0 for i in range(4) for p in (1, 2)} | {"rms_deg": 0.1}


@pytest.mark.parametrize("model", [
    {"carrier_hz": 2.4e9, "locations_mm": [20.0, 60.0], "force_range_n": [1, 8]},
    [1, 2],
    {"carrier_hz": 2.4e9, "locations_mm": [20.0], "force_range_n": [1, 8],
     "per_location": [{f"c{i}_port{p}": "x" for i in range(4) for p in (1, 2)}
                      | {"rms_deg": 0.1}]},
    {"carrier_hz": 2.4e9, "locations_mm": [], "force_range_n": [1, 8],
     "per_location": []},
    {"carrier_hz": 2.4e9, "locations_mm": [40.0, 40.0], "force_range_n": [1, 8],
     "per_location": [ZERO_FIT, ZERO_FIT]},
    {"carrier_hz": 2.4e9, "locations_mm": [60.0, 20.0], "force_range_n": [1, 8],
     "per_location": [ZERO_FIT, ZERO_FIT]},
    {"carrier_hz": 2.4e9, "locations_mm": [20.0, 60.0], "force_range_n": [8, 1],
     "per_location": [ZERO_FIT, ZERO_FIT]},
], ids=["no-per_location", "list-root", "string-coefficient", "no-locations",
        "duplicate-locations", "reversed-locations", "reversed-force-range"])
def test_malformed_model_fails_decode(trace_path, tmp_path, capsys, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "phases.csv"
    assert cli.main(["decode", "--trace", trace_path, "--out", str(out),
                     "--model", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad model in {path}")
    assert not out.exists()


def test_model_is_read_before_the_trace_streams(trace_path, tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    out = tmp_path / "phases.csv"
    stub = mock.Mock(side_effect=AssertionError("decoded before reading --model"))
    with mock.patch.object(cli, "group_phases", stub):
        assert cli.main(["decode", "--trace", trace_path, "--out", str(out),
                         "--model", str(path)]) == 1
    stub.assert_not_called()
    assert not out.exists()


@pytest.mark.parametrize("size", ["0", "-625", "600"])
def test_group_size_must_hold_whole_tone_cycles(trace_path, tmp_path, capsys, size):
    # 625 snapshots hold whole cycles of both read tones; 600 holds 34.56
    # cycles of the 1 kHz tone, so static multipath would not cancel
    out = tmp_path / "phases.csv"
    stub = mock.Mock(side_effect=AssertionError("decoded with a bad group size"))
    with mock.patch.object(cli, "group_phases", stub):
        assert cli.main(["decode", "--trace", trace_path, "--out", str(out),
                         "--group-size", size]) == 2
    stub.assert_not_called()
    assert not out.exists()
    assert "not a positive multiple of 625" in capsys.readouterr().err


def test_group_size_may_be_any_multiple_of_the_auto_size(trace_path, tmp_path):
    out = tmp_path / "phases.csv"
    assert cli.main(["decode", "--trace", trace_path, "--out", str(out),
                     "--group-size", str(2 * NG)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == (GROUPS * NG + TAIL) // (2 * NG)
    assert float(rows[1].split(",")[1]) == pytest.approx(2 * NG * 720.0 / 12.5e6)
