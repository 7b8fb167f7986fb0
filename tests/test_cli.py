"""End-to-end command line behavior, run in process."""
import csv
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from forcelink import cli
from forcelink.chansim import synthesize
from forcelink.config import default_config_dict, load_config
from forcelink.traceio import (PHASE_CSV_COLUMNS, read_dataset, read_model,
                               read_trace)


def write_config(tmp_path, doc=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else default_config_dict()))
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_simulate_then_decode_pipeline(tmp_path):
    cfg = write_config(tmp_path)
    trace_path = str(tmp_path / "run.trace")
    csv_path = str(tmp_path / "run.csv")
    assert cli.main(["simulate", "--config", cfg, "--out", trace_path]) == 0
    trace = read_trace(trace_path)
    assert trace.provenance["seed"] == 1  # config noise.seed
    assert trace.data.shape == (1875, 64)

    assert cli.main(["decode", "--trace", trace_path, "--out", csv_path]) == 0
    rows = read_csv(csv_path)
    assert len(rows) == 3  # 1875 snapshots in groups of 625
    assert tuple(rows[0].keys()) == PHASE_CSV_COLUMNS
    # press lands at the first group boundary: a visible step, then a hold
    assert float(rows[0]["dphi1_deg"]) == 0.0
    assert abs(float(rows[1]["dphi1_deg"])) > 30.0
    assert abs(float(rows[2]["dphi1_deg"])) < 3.0
    for row in rows:
        assert row["phi1_deg"] != ""  # geometry present, so phases anchor
        assert abs(float(row["snr1_db"]) - 25.0) < 4.0
        assert abs(float(row["snr2_db"]) - 25.0) < 4.0


def test_decode_with_model_inverts_press(tmp_path):
    cfg = write_config(tmp_path)
    trace_path = str(tmp_path / "run.trace")
    model_path = str(tmp_path / "model.json")
    csv_path = str(tmp_path / "run.csv")
    assert cli.main(["simulate", "--config", cfg, "--out", trace_path]) == 0
    assert cli.main(["calibrate", "--config", cfg, "--out", model_path]) == 0
    assert cli.main(["decode", "--trace", trace_path, "--out", csv_path,
                     "--model", model_path]) == 0
    rows = read_csv(csv_path)
    last = rows[-1]  # held press: 4 N at 40 mm
    assert abs(float(last["est_force_n"]) - 4.0) < 0.3
    assert abs(float(last["est_location_mm"]) - 40.0) < 1.0
    assert float(last["reliable"]) == 1.0


def test_decode_rejects_model_without_anchor(tmp_path):
    cfg = write_config(tmp_path)
    trace_path = str(tmp_path / "run.trace")
    model_path = str(tmp_path / "model.json")
    cli.main(["simulate", "--config", cfg, "--out", trace_path])
    cli.main(["calibrate", "--config", cfg, "--out", model_path])
    ret = cli.main(["decode", "--trace", trace_path,
                    "--out", str(tmp_path / "x.csv"),
                    "--model", model_path, "--no-anchor"])
    assert ret == 2


def test_calibrate_writes_model_and_dataset(tmp_path):
    cfg = write_config(tmp_path)
    model_path = str(tmp_path / "model.json")
    data_path = str(tmp_path / "cal.json")
    assert cli.main(["calibrate", "--config", cfg, "--out", model_path,
                     "--dataset", data_path]) == 0
    model = read_model(model_path)
    assert model.locations() == [20.0, 30.0, 40.0, 50.0, 60.0]
    data = read_dataset(data_path)
    assert len(data.samples) == 5 * 15
    assert data.source == "simulated"

    # refitting from the saved dataset reproduces the model exactly
    model2_path = str(tmp_path / "model2.json")
    assert cli.main(["calibrate", "--from-dataset", data_path,
                     "--out", model2_path]) == 0
    assert read_model(model2_path).fits == model.fits


@pytest.mark.parametrize("dataset", [
    {"carrier_hz": 2.4e9, "source": "imported"},
    "samples",
    {"carrier_hz": 2.4e9, "samples": [{"force_n": 1.0, "location_mm": 20.0,
                                       "phi1_rad": 0.1}]},
    {"carrier_hz": 2.4e9, "samples": [{"force_n": "1", "location_mm": 20.0,
                                       "phi1_rad": 0.1, "phi2_rad": 0.2}]},
], ids=["no-samples", "string-root", "sample-no-phi2", "string-force"])
def test_malformed_dataset_fails_calibrate(tmp_path, capsys, dataset):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(dataset))
    assert cli.main(["calibrate", "--from-dataset", str(path),
                     "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad dataset in {path}")
    assert not (tmp_path / "m.json").exists()


def test_calibrate_requires_a_source(tmp_path):
    assert cli.main(["calibrate", "--out", str(tmp_path / "m.json")]) == 2


def test_seed_precedence(tmp_path, capsys):
    # --seed beats the file's noise.seed, which defaults to 1
    doc = default_config_dict()
    doc["noise"]["seed"] = 5
    cfg = write_config(tmp_path, doc)
    del doc["noise"]["seed"]
    cfg_noseed = write_config(tmp_path, doc, name="noseed.json")
    out = str(tmp_path / "t.trace")

    for config, flag, seed in ((cfg, ["--seed", "7"], 7), (cfg, [], 5),
                               (cfg_noseed, ["--seed", "7"], 7),
                               (cfg_noseed, [], 1)):
        assert cli.main(["simulate", "--config", config, "--out", out, *flag]) == 0
        assert read_trace(out).provenance["seed"] == seed
    capsys.readouterr()
    assert cli.main(["sweep", "--config", cfg_noseed, "--mode", "crosstalk",
                     "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err.endswith("(mode crosstalk, seed 1)\n")


@pytest.mark.parametrize("doc", [{}, {"noise": {"snr_db": 25.0}}],
                         ids=["empty", "noise-without-seed"])
def test_simulate_writes_the_trace_the_library_makes(tmp_path, doc):
    # one loader: the CLI simulates the run load_config describes, seed too
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "t.trace")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 0
    cfg = load_config(path)
    want = synthesize(cfg.waveform, cfg.scheme, cfg.timeline, cfg.multipath,
                      cfg.noise, cfg.geometry, cfg.mechanics)
    got = read_trace(out)
    assert got.provenance["seed"] == cfg.noise.seed == 1
    assert got.data.astype("<c8").tobytes() == want.data.astype("<c8").tobytes()


def test_simulate_float32_overflow_fails_and_keeps_the_old_trace(tmp_path, capsys):
    # finite in complex128, inf once stored as float32: simulate must fail,
    # not write a trace that decode rejects
    doc = default_config_dict()
    doc["multipath"]["sensor_path"]["amplitude"] = [1e39, 0.0]
    doc["noise"]["snr_db"] = None
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "t.trace"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "finite in float32" in capsys.readouterr().err
    assert not out.exists()
    out.write_bytes(b"previous run")
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert out.read_bytes() == b"previous run"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "t.trace"]


def test_simulate_rejects_clocks_that_cannot_be_grouped(tmp_path, capsys):
    # no group below the cap holds whole cycles of 1001.3 Hz tones, so no
    # decode of the trace could run: the config is refused before any write
    cfg = write_config(tmp_path, {"clocks": {"f_s_hz": 1001.3}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "run.trace")]) == 2
    assert "no integer-cycle group size below 100000" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_decode_scheme_index_out_of_range(tmp_path):
    cfg = write_config(tmp_path)
    trace_path = str(tmp_path / "run.trace")
    cli.main(["simulate", "--config", cfg, "--out", trace_path])
    ret = cli.main(["decode", "--trace", trace_path,
                    "--out", str(tmp_path / "x.csv"), "--scheme-index", "3"])
    assert ret == 2


def test_missing_inputs_map_to_exit_codes(tmp_path):
    assert cli.main(["decode", "--trace", str(tmp_path / "no.trace"),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["simulate", "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "t.trace")]) == 2
    assert cli.main([]) == 2


def test_impedance_forward(capsys):
    assert cli.main(["impedance", "--height-mm", "0.63",
                     "--width-mm", "2.5"]) == 0
    out = capsys.readouterr().out
    z = float(out.strip().split("=")[1])
    assert abs(z - 58.060732435211726) < 1e-9


def test_impedance_solve(capsys):
    assert cli.main(["impedance", "--target-ohm", "50.0",
                     "--height-mm", "0.63"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    ratio = float(lines[0].split("=")[1])
    width = float(lines[1].split("=")[1])
    assert 4.8 <= ratio <= 5.0
    assert width == pytest.approx(ratio * 0.63)


def test_impedance_needs_arguments():
    assert cli.main(["impedance"]) == 2
    assert cli.main(["impedance", "--height-mm", "0.63"]) == 2


def test_sweep_force_mode(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "force.csv")
    assert cli.main(["sweep", "--config", cfg, "--mode", "force",
                     "--out", out, "--trials", "3", "--seed", "0"]) == 0
    rows = read_csv(out)
    trial_rows = [r for r in rows if r["kind"] == "trial"]
    assert len(trial_rows) == 3
    assert {r["kind"] for r in rows} == {"trial", "median", "p90"}
    for r in trial_rows:
        assert float(r["force_err_n"]) < 0.5
        assert float(r["location_err_mm"]) < 1.0
        assert r["reliable"] == "True"


def test_sweep_snr_mode(tmp_path):
    doc = default_config_dict()
    doc["sweep"] = {"snr_grid_db": [10.0, 30.0]}
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "snr.csv")
    assert cli.main(["sweep", "--config", cfg, "--mode", "snr",
                     "--out", out, "--trials", "4", "--seed", "0"]) == 0
    rows = read_csv(out)
    aggs = [r for r in rows if r["kind"] == "aggregate"]
    assert len([r for r in rows if r["kind"] == "trial"]) == 8
    assert len(aggs) == 2
    by_snr = {float(r["snr_db"]): r for r in aggs}
    # 20 dB more SNR shrinks the per-group phase noise decisively
    assert float(by_snr[30.0]["phase_std1_deg"]) < float(
        by_snr[10.0]["phase_std1_deg"])
    assert float(by_snr[30.0]["phase_std2_deg"]) < float(
        by_snr[10.0]["phase_std2_deg"])


@pytest.mark.parametrize("mode,trials", [("force", "0"), ("force", "-3"),
                                         ("snr", "1"), ("crosstalk", "5")])
def test_sweep_rejects_too_few_trials(tmp_path, capsys, mode, trials):
    # no quantile of zero trials, no spread of one, and crosstalk runs no
    # trials at all: a usage error, no CSV
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--mode", mode,
                     "--out", str(out), "--trials", trials]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["force", "snr"])
@pytest.mark.parametrize("key", ["snr_grid_db", "test_locations_mm"])
def test_sweep_rejects_an_empty_grid(tmp_path, capsys, mode, key):
    # an empty grid would sweep nothing and write a header-only CSV
    cfg = write_config(tmp_path, {"sweep": {key: []}})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--mode", mode,
                     "--out", str(out), "--trials", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


def test_sweep_crosstalk_mode(tmp_path):
    # default second family at 1.4 kHz: no clock harmonic of either sensor
    # lands on the other's read tones
    cfg = write_config(tmp_path)
    out = str(tmp_path / "xtalk.csv")
    assert cli.main(["sweep", "--config", cfg, "--mode", "crosstalk",
                     "--out", out, "--seed", "0"]) == 0
    rows = read_csv(out)
    aggs = [r for r in rows if r["kind"] == "aggregate"]
    assert len(aggs) == 2
    assert {r["victim_sensor"] for r in aggs} == {"1", "2"}
    for r in aggs:
        assert float(r["max_crosstalk_deg"]) < 0.5


def test_sigterm_stops_simulate_without_leaving_a_file(tmp_path):
    # SIGTERM unwinds like Ctrl-C, so the writer removes its temporary file;
    # a 10 s trace takes long enough to write that the signal lands mid-way
    doc = default_config_dict()
    doc["waveform"]["n_snapshots"] = 173750
    cfg = write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "forcelink.cli", "simulate", "--config", cfg,
         "--out", str(tmp_path / "run.trace")],
        env=env, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not list(tmp_path.glob(".*.tmp")):
            assert proc.poll() is None, "simulate ended before writing"
            assert time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60.0) == 143
    finally:
        proc.kill()
        proc.wait()
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_main_restores_sigterm_and_runs_off_the_main_thread(capsys):
    before = signal.getsignal(signal.SIGTERM)
    assert cli.main(["impedance", "--target-ohm", "50"]) == 0
    assert signal.getsignal(signal.SIGTERM) is before
    # only the main thread may set a handler; elsewhere main runs without one
    rcs = []
    t = threading.Thread(target=lambda: rcs.append(
        cli.main(["impedance", "--target-ohm", "50"])))
    t.start()
    t.join(timeout=60.0)
    assert not t.is_alive() and rcs == [0]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == out[1]
