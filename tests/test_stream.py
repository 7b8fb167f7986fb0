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
from forcelink.decoder import GroupingSpec, anchor, decode_blocks
from forcelink.traceio import open_trace, read_trace, write_phase_csv
from forcelink.transducer import ShortingState, port_phases

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
    dec = decode_blocks([trace.data.T], trace.config, GroupingSpec(NG), scheme)
    quiet = port_phases(ShortingState.open(), trace.geometry,
                        trace.config.carrier_hz)
    out = tmp_path_factory.mktemp("mem") / "phases.csv"
    write_phase_csv(anchor(dec.series, quiet), out, snr_db=dec.snr_db)
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


def test_blocks_hold_whole_groups_within_the_chunk_size(trace_path):
    tf = open_trace(trace_path)
    assert isinstance(tf.data, np.memmap)
    assert tf.data.shape == (GROUPS * NG + TAIL, K)
    assert tf.data.dtype == np.dtype("<c8")
    assert not tf.data.flags.writeable
    with mock.patch.object(traceio, "CHUNK_BYTES", chunk_bytes(3)):
        sizes = [len(b) for b in tf.blocks(NG)]
    assert sizes == [3 * NG] * 3 + [2 * NG + TAIL]
    assert read_trace(trace_path).data.tobytes() == np.ascontiguousarray(
        tf.data.T).astype(np.complex128).tobytes()


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
