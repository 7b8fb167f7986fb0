"""File formats: binary traces, model and dataset JSON, phase and sweep CSVs."""
import json
import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from forcelink.calib import fit_model, generate_sweep
from forcelink.chansim import (BLOCK_FLOATS, ChannelTrace, MultipathProfile,
                               NoiseSpec, Path, TouchTimeline, WaveformConfig,
                               synthesis_blocks, synthesize)
from forcelink.clocks import make_scheme
from forcelink.decoder import PhaseSeries
from forcelink.traceio import (MAGIC, PHASE_CSV_COLUMNS, read_dataset,
                               read_model, read_trace, write_dataset,
                               write_model, write_phase_csv, write_rows,
                               write_trace, write_trace_blocks)
from forcelink.transducer import MechanicalParams, SensorGeometry, TouchEvent


def small_config(k=3, n=7):
    return WaveformConfig(n_subcarriers=k, n_snapshots=n)


def random_float32_trace(rng, k=3, n=7):
    """Trace whose payload exercises awkward float32 values."""
    c8 = np.empty((n, k), dtype="<c8")
    c8.real = rng.normal(scale=10.0, size=(n, k)).astype(np.float32)
    c8.imag = rng.normal(scale=10.0, size=(n, k)).astype(np.float32)
    specials = np.array([0.0, -0.0, 1e-45, -1e-45, 1.2e-38, -1.2e-38,
                         3.0e38, -3.0e38, 1.0], dtype=np.float32)
    flat = c8.reshape(-1)
    idx = rng.choice(flat.size, size=min(len(specials), flat.size),
                     replace=False)
    for i, v in zip(idx, specials):
        flat[i] = v + 1j * np.float32(-v)
    return ChannelTrace(config=small_config(k, n), data=c8.astype(np.complex128))


def test_trace_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(10):
        trace = random_float32_trace(rng)
        path = tmp_path / f"t{trial}.trace"
        write_trace(trace, path)
        back = read_trace(path)
        want = trace.data.astype("<c8").tobytes()
        got = back.data.astype("<c8").tobytes()
        assert got == want  # includes signbit of -0.0 and subnormals


def test_trace_payload_is_snapshot_major_float32(tmp_path):
    rng = np.random.default_rng(3)
    trace = random_float32_trace(rng)
    path = tmp_path / "layout.trace"
    write_trace(trace, path)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    header_end = raw.index(b"\n", len(MAGIC))
    payload = raw[header_end + 1:]
    # snapshot n's K pairs follow snapshot n - 1's: the (N, K) data as stored
    want = trace.data.astype("<c8").tobytes()
    assert payload == want


def test_trace_roundtrip_preserves_metadata(tmp_path):
    rng = np.random.default_rng(5)
    scheme = make_scheme(1000.0)
    trace = ChannelTrace(
        config=small_config(), data=random_float32_trace(rng).data,
        schemes=(scheme,), geometry=SensorGeometry(),
        provenance={"seed": 3, "config_digest": "deadbeef"})
    path = tmp_path / "meta.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.config == trace.config
    assert back.schemes == (scheme,)
    assert back.geometry == SensorGeometry()
    assert back.provenance["seed"] == 3
    assert back.provenance["config_digest"] == "deadbeef"


def test_read_trace_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"NOTRACE!" + b"{}\n")
    with pytest.raises(ValueError, match="magic"):
        read_trace(path)


def test_read_trace_rejects_truncated_header(tmp_path):
    path = tmp_path / "hdr.trace"
    path.write_bytes(MAGIC + b'{"waveform":')
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


def test_read_trace_rejects_wrong_payload_size(tmp_path):
    rng = np.random.default_rng(9)
    trace = random_float32_trace(rng)
    path = tmp_path / "full.trace"
    write_trace(trace, path)
    raw = path.read_bytes()

    short = tmp_path / "short.trace"
    short.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated payload"):
        read_trace(short)

    long = tmp_path / "long.trace"
    long.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_trace(long)


def header_and_payload(path):
    raw = path.read_bytes()
    end = raw.index(b"\n", len(MAGIC))
    return json.loads(raw[len(MAGIC):end]), raw[end + 1:]


# (n_snapshots, n_subcarriers, noise): 2000 x 16 streams as 4 blocks; one
# subcarrier of BLOCK_FLOATS + 700 snapshots spans nine gate spans of
# BLOCK_FLOATS // 8
STREAM_CASES = {
    "noiseless": (2000, 16, NoiseSpec(snr_db=None)),
    "noisy": (2000, 16, NoiseSpec(snr_db=17.0, seed=5)),
    "noisy_10bit": (2000, 16, NoiseSpec(snr_db=17.0, seed=5, quantize_bits=10)),
    "one_subcarrier": (BLOCK_FLOATS + 700, 1, NoiseSpec(snr_db=17.0, seed=5)),
}


@pytest.mark.parametrize("case", STREAM_CASES)
def test_streamed_trace_file_equals_the_written_synthesis(tmp_path, case):
    n, k, noise = STREAM_CASES[case]
    wf = WaveformConfig(n_subcarriers=k, n_snapshots=n)
    scheme = make_scheme(1000.0)
    args = (wf, scheme, TouchTimeline(entries=((0, None), (700, TouchEvent(4.0, 40.0)))),
            MultipathProfile(paths=(Path(2.0 + 0.0j, 0.0),),
                             sensor_path=Path(0.8 + 0.1j, 1.0)),
            noise, SensorGeometry(), MechanicalParams())
    write_trace(synthesize(*args), tmp_path / "memory.trace")
    write_trace_blocks(tmp_path / "streamed.trace", synthesis_blocks(*args), wf,
                       (scheme,), SensorGeometry(), {"seed": noise.seed})
    assert (header_and_payload(tmp_path / "streamed.trace")
            == header_and_payload(tmp_path / "memory.trace"))


def _interrupted(rows):
    yield rows[:3]
    raise KeyboardInterrupt


@pytest.mark.parametrize("blocks, raises, says", [
    pytest.param(lambda rows: [rows[:3], rows[3:] * 1e39], ValueError,
                 "finite in float32", id="float32_overflow"),
    pytest.param(lambda rows: [rows[:6]], ValueError, "hold 6 snapshots",
                 id="short"),
    pytest.param(lambda rows: [rows, rows[:1]], ValueError, "does not fit",
                 id="long"),
    pytest.param(lambda rows: [rows[:, :2]], ValueError, "does not fit",
                 id="narrow"),
    pytest.param(_interrupted, KeyboardInterrupt, None, id="interrupted"),
])
def test_failed_write_leaves_no_file_and_keeps_the_old_one(tmp_path, blocks,
                                                           raises, says):
    trace = random_float32_trace(np.random.default_rng(4))
    path = tmp_path / "t.trace"
    with pytest.raises(raises, match=says):
        write_trace_blocks(path, blocks(trace.data), trace.config)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"previous run")
    with pytest.raises(raises, match=says):
        write_trace_blocks(path, blocks(trace.data), trace.config)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"previous run"


def fitted_model():
    data = generate_sweep((20.0, 40.0, 60.0), [1.0 + 0.5 * i for i in range(15)],
                          SensorGeometry(), MechanicalParams(), 2.4e9)
    return data, fit_model(data)


def test_model_json_roundtrip(tmp_path):
    data, model = fitted_model()
    path = tmp_path / "model.json"
    write_model(model, path)
    assert read_model(path) == model  # repr-exact JSON floats
    assert len(json.loads(path.read_text())["per_location"]) == 3


def test_dataset_json_roundtrip(tmp_path):
    data, _ = fitted_model()
    path = tmp_path / "cal.json"
    write_dataset(data, path)
    back = read_dataset(path)
    assert back.carrier_hz == data.carrier_hz
    assert back.source == "simulated"
    assert back.samples == data.samples


def test_dataset_missing_source_defaults_to_imported(tmp_path):
    data, _ = fitted_model()
    path = tmp_path / "cal.json"
    write_dataset(data, path)
    doc = json.loads(path.read_text())
    del doc["source"]
    path.write_text(json.dumps(doc))
    assert read_dataset(path).source == "imported"


def phase_series():
    return PhaseSeries(scheme=make_scheme(1000.0), group_size=625,
                       group_duration_s=0.036,
                       steps=np.array([[0.1, 0.05], [-0.2, 0.3]]),
                       phases=np.array([[0.0, 0.0], [0.1, 0.05], [-0.1, 0.35]]),
                       signal=np.array([1.0, 0.25]), sigma2=0.01)


ANCHORED = np.array([[1.0, -1.0], [1.1, -0.95], [0.9, -0.65]])


def test_phase_csv_layout(tmp_path):
    path = tmp_path / "phases.csv"
    series = phase_series()
    write_phase_csv(series, path, ANCHORED,
                    extra_columns={"est_force_n": [0.0, 3.5, 4.0]})
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == ",".join(PHASE_CSV_COLUMNS) + ",est_force_n"
    assert lines[-1] == ""  # trailing newline
    rows = [line.split(",") for line in lines[1:4]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    # first row is the reference group: zero step by construction
    assert float(rows[0][2]) == 0.0 and float(rows[0][3]) == 0.0
    assert float(rows[1][2]) == pytest.approx(math.degrees(0.1))
    assert float(rows[2][3]) == pytest.approx(math.degrees(0.3))
    assert float(rows[1][1]) == pytest.approx(0.036)
    assert float(rows[0][4]) == pytest.approx(math.degrees(1.0))
    assert float(rows[2][5]) == pytest.approx(math.degrees(-0.65))
    # SNR comes from the decode itself, the same on every row
    snr1, snr2 = series.snr_db
    assert snr1 != snr2
    assert all(float(r[6]) == snr1 and float(r[7]) == snr2 for r in rows)
    assert [r[8] for r in rows] == ["0.0", "3.5", "4.0"]


def test_phase_csv_blank_cells_without_anchor(tmp_path):
    path = tmp_path / "phases.csv"
    write_phase_csv(phase_series(), path)
    rows = [line.split(",") for line in
            path.read_text(encoding="utf-8").strip().split("\n")[1:]]
    assert len(rows) == 3
    for r in rows:
        assert r[4] == "" and r[5] == ""  # no anchored phases


def _fails_after(first):
    yield first
    raise RuntimeError("stopped part-way")


def _bad_last_fit(model):
    """The model with a value JSON cannot hold in its last fit."""
    fit = replace(model.fits[-1], c_port1=(0.0, 0.0, 0.0, 1j))
    return replace(model, fits=model.fits[:-1] + (fit,))


def _bad_last_sample(data):
    """The dataset with a value JSON cannot hold in its last sample."""
    sample = replace(data.samples[-1], phi2=1j)
    return replace(data, samples=data.samples[:-1] + (sample,))


def _phase_csv_with(est_force_n):
    return lambda path: write_phase_csv(phase_series(), path, ANCHORED,
                                        extra_columns={"est_force_n": est_force_n})


# each writer, made to fail after it has written part of its file (or, for
# an extra column of the wrong length, before it writes), what it raises and
# what the message says
FAILING_WRITES = {
    "trace_blocks": (RuntimeError, "part-way", lambda path: write_trace_blocks(
        path, _fails_after(np.zeros((3, 3))), small_config())),
    "phase_csv": (ValueError, "not a number",
                  _phase_csv_with([0.0, "not a number", 4.0])),
    "phase_csv_short_column": (ValueError, "'est_force_n' has 2 values for 3",
                               _phase_csv_with([0.0, 3.5])),
    "phase_csv_long_column": (ValueError, "'est_force_n' has 5 values for 3",
                              _phase_csv_with([0.0, 3.5, 4.0, 4.5, 5.0])),
    "rows": (RuntimeError, "part-way", lambda path: write_rows(
        path, ("trial", "force_n"), _fails_after({"trial": 0, "force_n": 1.0}))),
    "model": (TypeError, "complex", lambda path: write_model(
        _bad_last_fit(fitted_model()[1]), path)),
    "dataset": (TypeError, "complex", lambda path: write_dataset(
        _bad_last_sample(fitted_model()[0]), path)),
}


@pytest.mark.parametrize("writer", FAILING_WRITES)
def test_every_writer_replaces_its_file_whole_or_not_at_all(tmp_path, writer):
    raises, says, write = FAILING_WRITES[writer]
    path = tmp_path / "out"
    path.write_bytes(b"previous run")
    with pytest.raises(raises, match=says):
        write(path)
    assert list(tmp_path.iterdir()) == [path]  # no .*.tmp left beside it
    assert path.read_bytes() == b"previous run"


def test_a_temporary_name_another_writer_holds_is_left_alone(tmp_path):
    # the temporary name is random; should it be taken, the write fails and
    # the file holding it is neither replaced nor removed
    path = tmp_path / "out.csv"
    taken = tmp_path / ".out.csv.00000000.tmp"
    taken.write_bytes(b"another writer's")
    with mock.patch("os.urandom", return_value=bytes(4)):
        with pytest.raises(FileExistsError):
            write_rows(path, ("trial",), [{"trial": 0}])
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_bytes() == b"another writer's"


def test_writers_refuse_a_path_that_is_not_a_regular_file(tmp_path):
    # renaming over a FIFO (or a device such as /dev/stdout) would replace
    # it with a regular file, not write to it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(ValueError, match="not a regular file"):
        write_rows(fifo, ("trial",), [{"trial": 0}])
    with pytest.raises(ValueError, match="not a regular file"):
        write_rows(tmp_path, ("trial",), [{"trial": 0}])
    assert list(tmp_path.iterdir()) == [fifo]
    assert fifo.is_fifo()


def test_writers_replace_a_links_target_and_keep_the_link(tmp_path):
    (tmp_path / "runs").mkdir()
    target = tmp_path / "runs" / "sweep.csv"
    target.write_bytes(b"previous run")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    write_rows(link, ("trial",), [{"trial": 0}])
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "trial\n0\n"
