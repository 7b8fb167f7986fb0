"""Streamed decode: the CLI reads the trace file a chunk of whole groups at a
time and must write exactly what an in-memory decode of the same file does."""
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forcelink import chansim, cli, traceio
from forcelink.config import default_config_dict, parse_config
from forcelink.decoder import anchor, group_phases
from forcelink.traceio import open_trace, read_trace, write_phase_csv

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
    out = tmp_path_factory.mktemp("mem") / "phases.csv"
    write_phase_csv(series, out, anchor(series.phases, trace.geometry,
                                        trace.config.carrier_hz))
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
    with mock.patch.object(chansim, "CHUNK_BYTES", chunk_bytes(groups)):
        assert cli.main(["decode", "--trace", trace_path,
                         "--out", str(out)]) == 0
    assert out.read_bytes() == in_memory_csv


def test_group_phases_decodes_a_trace_file_as_its_in_memory_copy(trace_path,
                                                                 default_cfg):
    # one trace type, a file's map or an array in memory, and one decode of
    # it; the file streams in chunks
    opened, copied = open_trace(trace_path), read_trace(trace_path)
    cfg = default_cfg
    synthesized = chansim.synthesize(cfg.waveform, cfg.scheme, cfg.timeline,
                                     cfg.multipath, cfg.noise, cfg.geometry,
                                     cfg.mechanics)
    assert type(opened) is type(copied) is type(synthesized) is chansim.ChannelTrace
    assert isinstance(opened.data, np.memmap)
    assert not isinstance(copied.data, np.memmap)
    with mock.patch.object(chansim, "CHUNK_BYTES", chunk_bytes(4)):
        streamed = group_phases(opened)
    whole = group_phases(copied)
    assert streamed.group_size == whole.group_size == NG
    for name in ("steps", "phases", "signal", "sigma2"):
        np.testing.assert_array_equal(getattr(streamed, name), getattr(whole, name))


def test_blocks_hold_whole_groups_within_the_chunk_size(trace_path):
    tf = open_trace(trace_path)
    assert isinstance(tf.data, np.memmap)
    assert tf.data.shape == (GROUPS * NG + TAIL, K)
    assert tf.data.dtype == np.dtype("<c8")
    assert not tf.data.flags.writeable
    with mock.patch.object(chansim, "CHUNK_BYTES", chunk_bytes(3)):
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


def header_edit(change):
    """An edit replacing the trace's JSON header line with change(header)."""
    def edit(raw):
        start = len(traceio.MAGIC)
        end = raw.index(b"\n", start)
        header = change(json.loads(raw[start:end]))
        return raw[:start] + json.dumps(header).encode() + raw[end:]
    return edit


def schemes_as(value):
    def change(header):
        header["schemes"] = value(header["schemes"])
        return header
    return change


def without(key):
    def change(header):
        del header[key]
        return header
    return change


PAYLOAD_BYTES = (GROUPS * NG + TAIL) * K * 8
# decode reads 2-group chunks: the last one holds snapshots 6250 to 6974
LAST_CHUNK_NAN = "trace entries must all be finite (snapshots 6250 to 6974)"


@pytest.mark.parametrize("edit, says", [
    (nan_at(GROUPS * NG - 1), LAST_CHUNK_NAN),  # last whole group, in the last chunk
    (nan_at(GROUPS * NG + TAIL - 1), LAST_CHUNK_NAN),  # the ignored tail is checked too
    (lambda raw: raw[:-4],
     f"truncated payload: {PAYLOAD_BYTES - 4} bytes, expected {PAYLOAD_BYTES}"),
    (lambda raw: raw + b"\0", "trailing bytes after payload"),
    (header_edit(schemes_as(lambda schemes: [])), "trace lists no modulation schemes"),
    (header_edit(without("schemes")), "trace lists no modulation schemes"),
], ids=["nan-last-group", "nan-tail", "truncated", "trailing", "empty-schemes",
        "missing-schemes"])
def test_damaged_trace_fails_decode(trace_path, tmp_path, capsys, edit, says):
    # every fault names the file once, as open_trace's own faults do
    bad = damaged_copy(trace_path, tmp_path / "bad.trace", edit)
    out = tmp_path / "phases.csv"
    with mock.patch.object(chansim, "CHUNK_BYTES", chunk_bytes(2)):
        assert cli.main(["decode", "--trace", bad, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bad trace in {bad}: {says}\n"
    assert not out.exists()


def drop(section, key):
    def change(header):
        part = header[section]
        del (part[0] if isinstance(part, list) else part)[key]
        return header
    return change


def half_duty_clock_b(header):
    header["schemes"][0]["clock_b"]["duty"] = 0.5
    return header


def extra_geometry_key(header):
    header["geometry"]["width_mm"] = 1.0
    return header


def infinite_carrier(header):
    header["waveform"]["carrier_hz"] = math.inf  # json writes Infinity
    return header


def list_provenance(header):
    header["provenance"] = [1, 2, 3]
    return header


def contradicting_f_s_hz(header):
    header["schemes"][0]["f_s_hz"] = 1400.0
    return header


@pytest.mark.parametrize("change, says", [
    (drop("schemes", "clock_b"),
     "schemes[0] needs both clock_a and clock_b, or just f_s_hz"),
    (drop("waveform", "carrier_hz"), "missing keys in 'waveform': ['carrier_hz']"),
    (half_duty_clock_b, "schemes[0]: clock_b duty 0.5 nulls its 2nd harmonic, "
     "port 2's 4 f_s read tone; 2 x duty must not be whole"),
    (extra_geometry_key, "unknown keys in 'geometry': ['width_mm']"),
    (lambda header: [header], "expected a JSON object, got list"),
    (infinite_carrier, "waveform.carrier_hz: expected a finite number, got inf"),
    (list_provenance, "provenance: expected a JSON object, got list"),
    (contradicting_f_s_hz, "schemes[0].f_s_hz: 1400.0 is not clock_a's freq 1000.0"),
    (schemes_as(lambda schemes: None), "schemes: expected a JSON list, got NoneType"),
    (schemes_as(lambda schemes: 5), "schemes: expected a JSON list, got int"),
    (schemes_as(lambda schemes: schemes[0]), "schemes: expected a JSON list, got dict"),
], ids=["no-clock_b", "no-carrier", "clock_b-2nd-null", "extra-geometry-key",
        "list-header", "infinite-carrier", "list-provenance", "contradicting-f_s_hz",
        "null-schemes", "number-schemes", "object-schemes"])
def test_malformed_header_fails_decode(trace_path, tmp_path, capsys, change, says):
    bad = damaged_copy(trace_path, tmp_path / "bad.trace", header_edit(change))
    out = tmp_path / "phases.csv"
    assert cli.main(["decode", "--trace", bad, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bad trace header in {bad}: {says}\n"
    assert not out.exists()


def with_f_s_hz(header):
    """The header as it was written before schemes held only their clocks."""
    for scheme in header["schemes"]:
        scheme["f_s_hz"] = 1000.0
    return header


def test_header_schemes_hold_only_their_clocks(trace_path, tmp_path):
    raw = Path(trace_path).read_bytes()
    header = json.loads(raw[len(traceio.MAGIC):raw.index(b"\n")])
    assert [set(s) for s in header["schemes"]] == [{"clock_a", "clock_b"}]
    assert "f_s_hz" not in json.dumps(header)
    scheme = parse_config(default_config_dict()).scheme
    assert open_trace(trace_path).schemes == (scheme,)
    # a trace whose header still carries f_s_hz decodes to the same bytes
    old = damaged_copy(trace_path, tmp_path / "old.trace", header_edit(with_f_s_hz))
    assert open_trace(old).schemes == (scheme,)
    for name, path in (("new.csv", trace_path), ("old.csv", old)):
        assert cli.main(["decode", "--trace", path, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def with_created_utc(header):
    """The header as it was written when it carried a write time."""
    header["created_utc"] = "2026-01-01T00:00:00.000000+00:00"
    return header


def test_a_header_holding_created_utc_decodes_the_same(trace_path, tmp_path):
    raw = Path(trace_path).read_bytes()
    assert "created_utc" not in json.loads(raw[len(traceio.MAGIC):raw.index(b"\n")])
    old = damaged_copy(trace_path, tmp_path / "old.trace", header_edit(with_created_utc))
    assert open_trace(old).provenance == open_trace(trace_path).provenance
    for name, path in (("new.csv", trace_path), ("old.csv", old)):
        assert cli.main(["decode", "--trace", path, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def model_doc():
    """A model file that loads: two zero fits, at 20 and 60 mm."""
    fit = {"c_port1": [0.0] * 4, "c_port2": [0.0] * 4, "rms_rad": 0.001}
    return {"carrier_hz": 2.4e9, "force_range_n": [1, 8],
            "per_location": [{"location_mm": 20.0, **fit},
                             {"location_mm": 60.0, **fit}]}


def model_edit(key, value, at=None):
    """model_doc with key set to value, in per_location[at] unless at is None."""
    def edit(doc):
        (doc if at is None else doc["per_location"][at])[key] = value
        return doc
    return edit


@pytest.mark.parametrize("change, says", [
    (lambda doc: {k: v for k, v in doc.items() if k != "per_location"},
     "missing keys in 'model': ['per_location']"),
    (lambda doc: [1, 2], "expected a JSON object, got list"),
    (model_edit("locations_mm", [20.0, 60.0]),
     "unknown keys in 'model': ['locations_mm']"),
    (model_edit("rms_deg", 0.1, at=1),
     "unknown keys in 'model.per_location[1]': ['rms_deg']"),
    (model_edit("c_port1", ["x", 0.0, 0.0, 0.0], at=0),
     "model.per_location[0].c_port1[0]: expected float, got 'x'"),
    (model_edit("c_port2", [0.0, "1e3", 0.0, 0.0], at=1),
     "model.per_location[1].c_port2[1]: expected float, got '1e3'"),
    (model_edit("c_port1", [0.0, 0.0, True, 0.0], at=1),
     "model.per_location[1].c_port1[2]: expected float, got True"),
    (model_edit("c_port2", [0.0, 0.0, 0.0], at=0),
     "model.per_location[0].c_port2: expected a list of 4 values, "
     "got [0.0, 0.0, 0.0]"),
    (model_edit("c_port1", [0.0, 0.0, 0.0, math.nan], at=1),
     "model.per_location[1].c_port1[3]: expected a finite number, got nan"),
    (model_edit("carrier_hz", -2.4e9),
     "model: carrier_hz must be positive, got -2400000000.0"),
    (model_edit("carrier_hz", 0), "model: carrier_hz must be positive, got 0.0"),
    (model_edit("per_location", []), "model: needs at least 2 locations, got 0"),
    (model_edit("location_mm", 60.0, at=0),
     "model: locations must strictly increase, got [60.0, 60.0]"),
    (model_edit("location_mm", 80.0, at=0),
     "model: locations must strictly increase, got [80.0, 60.0]"),
    (model_edit("force_range_n", [8, 1]),
     "model: force_range_n must be finite and increase, got (8.0, 1.0)"),
], ids=["no-per_location", "list-root", "unknown-key", "unknown-fit-key",
        "string-coefficient", "string-number", "boolean-coefficient",
        "three-coefficients", "nan-coefficient", "negative-carrier", "zero-carrier",
        "no-locations", "duplicate-locations", "reversed-locations",
        "reversed-force-range"])
def test_malformed_model_fails_decode(trace_path, tmp_path, capsys, change, says):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(change(model_doc())))
    out = tmp_path / "phases.csv"
    assert cli.main(["decode", "--trace", trace_path, "--out", str(out),
                     "--model", str(path)]) == 1
    assert capsys.readouterr().err == f"error: bad model in {path}: {says}\n"
    assert list(tmp_path.iterdir()) == [path]  # no CSV, no .*.tmp


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


@pytest.mark.parametrize("size", [0, -625, 600])
def test_group_size_must_hold_whole_tone_cycles(trace_path, size):
    # 625 snapshots hold whole cycles of both read tones; 600 holds 34.56
    # cycles of the 1 kHz tone, so static multipath would not cancel.  Only
    # a library caller passes a size: decode takes the auto one
    with pytest.raises(ValueError, match="^group size -?[0-9]+ is not a positive "
                                         "multiple of 625, the smallest holding "
                                         "whole cycles of every read tone$"):
        group_phases(open_trace(trace_path), None, size)


def test_group_size_leaving_fewer_than_two_groups_is_refused(trace_path):
    # 10 groups of 625 make one group of 6250, and a phase needs two
    with pytest.raises(ValueError) as e:
        group_phases(open_trace(trace_path), None, 10 * NG)
    assert str(e.value) == (f"{GROUPS * NG + TAIL} snapshots hold fewer than the 2 "
                            f"groups of {10 * NG} a decode needs")


def test_group_size_may_be_any_multiple_of_the_auto_size(trace_path):
    series = group_phases(open_trace(trace_path), None, 2 * NG)
    assert series.group_size == 2 * NG
    assert series.n_groups == (GROUPS * NG + TAIL) // (2 * NG)
    assert series.group_times()[1] == pytest.approx(2 * NG * 720.0 / 12.5e6)
