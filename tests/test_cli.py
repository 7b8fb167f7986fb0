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
from dataclasses import replace

import numpy as np
import pytest

from forcelink import calib, cli, sweeps
from forcelink.chansim import ChannelTrace, WaveformConfig, synthesize
from forcelink.config import default_config_dict, load_config
from forcelink.traceio import (MAGIC, PHASE_CSV_COLUMNS, read_dataset,
                               read_model, read_trace, write_trace)


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
    assert last["reliable"] == "1"


def test_decode_with_model_refuses_a_batch_that_disagrees_on_group_0(tmp_path,
                                                                     monkeypatch,
                                                                     capsys):
    # decode --model inverts every group in one batch and group 0 once more
    # alone; a batch whose group-0 estimate differs in the last bit fails
    # the command (exit 1) and writes no CSV
    cfg = write_config(tmp_path)
    trace, model = str(tmp_path / "run.trace"), str(tmp_path / "model.json")
    out = tmp_path / "presses.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", trace]) == 0
    assert cli.main(["calibrate", "--config", cfg, "--out", model]) == 0
    batch = calib.invert_many

    def perturbed(*args):
        # calib.invert is invert_many's one-point case: nudging it as well
        # would leave the two agreeing, so only a batch is nudged
        first, *rest = batch(*args)
        if not rest:
            return [first]
        return [replace(first, force_n=math.nextafter(first.force_n, math.inf)), *rest]
    monkeypatch.setattr(calib, "invert_many", perturbed)
    assert cli.main(["decode", "--trace", trace, "--out", str(out),
                     "--model", model]) == 1
    assert "disagrees with the one-point inversion on group 0" in capsys.readouterr().err
    assert not out.exists()


def test_decode_refuses_a_model_calibrated_at_another_carrier(tmp_path, capsys):
    # a 5.8 GHz model read against a 2.4 GHz trace is a usage error: exit 2,
    # one error line naming both carriers, no CSV
    trace, model = str(tmp_path / "run.trace"), str(tmp_path / "model.json")
    assert cli.main(["simulate", "--config", write_config(tmp_path),
                     "--out", trace]) == 0
    other = write_config(tmp_path, {"waveform": {"carrier_hz": 5.8e9}}, "c58.json")
    assert cli.main(["calibrate", "--config", other, "--out", model]) == 0
    capsys.readouterr()
    out = tmp_path / "presses.csv"
    assert cli.main(["decode", "--trace", trace, "--out", str(out),
                     "--model", model]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: --model {model} is calibrated at 5800000000.0 Hz, "
                   "the trace is at 2400000000.0 Hz\n")
    assert not out.exists()


@pytest.mark.parametrize("geometry, says", [
    ({"eps_eff": 1.2}, "eps_eff 1.2 (the trace's 1.0)"),
    ({"length_mm": 82.0}, "length_mm 82.0 (the trace's 80.0)"),
], ids=["eps_eff", "length"])
def test_decode_refuses_a_model_calibrated_on_another_line(tmp_path, capsys, geometry,
                                                            says):
    # a model names the line it was calibrated on: read against a trace of
    # another line it is a usage error, exit 2, one error line, no CSV, as
    # for another carrier (an eps_eff 1.2 model read the default 4 N press
    # as 6.97 N, an 82 mm one as 4.81 N at 41 mm, both reliable)
    trace, model = str(tmp_path / "run.trace"), str(tmp_path / "model.json")
    assert cli.main(["simulate", "--config", write_config(tmp_path),
                     "--out", trace]) == 0
    other = write_config(tmp_path, {"geometry": geometry}, "other.json")
    assert cli.main(["calibrate", "--config", other, "--out", model]) == 0
    assert read_model(model).geometry == load_config(other).geometry
    capsys.readouterr()
    out = tmp_path / "presses.csv"
    assert cli.main(["decode", "--trace", trace, "--out", str(out),
                     "--model", model]) == 2
    assert capsys.readouterr().err == (f"error: --model {model} is calibrated on "
                                       f"another line: {says}\n")
    assert not out.exists()


def test_a_model_file_without_a_line_is_checked_on_its_carrier_alone(tmp_path):
    # a model.json written before models named their line has no geometry
    # key: it loads with the line unknown and inverts as the full file does
    cfg, trace = write_config(tmp_path), str(tmp_path / "run.trace")
    full, old = tmp_path / "model.json", tmp_path / "old_model.json"
    assert cli.main(["simulate", "--config", cfg, "--out", trace]) == 0
    assert cli.main(["calibrate", "--config", cfg, "--out", str(full)]) == 0
    doc = json.loads(full.read_text())
    assert doc.pop("geometry") == dict(vars(load_config(cfg).geometry))
    old.write_text(json.dumps(doc, indent=2) + "\n")
    assert read_model(old) == replace(read_model(full), geometry=None)
    for name, model in (("full.csv", full), ("old.csv", old)):
        assert cli.main(["decode", "--trace", trace, "--out", str(tmp_path / name),
                         "--model", str(model)]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    # a model of another line without the key is not refused: nothing names it
    other = write_config(tmp_path, {"geometry": {"eps_eff": 1.2}}, "eps.json")
    other_model = tmp_path / "eps_model.json"
    assert cli.main(["calibrate", "--config", other, "--out", str(other_model)]) == 0
    doc = json.loads(other_model.read_text())
    del doc["geometry"]
    other_model.write_text(json.dumps(doc))
    assert cli.main(["decode", "--trace", trace, "--out", str(tmp_path / "eps.csv"),
                     "--model", str(other_model)]) == 0


def test_an_imported_dataset_leaves_the_line_unknown(tmp_path):
    # a dataset without a geometry key (measured, not simulated) loads with
    # the line unknown, and so does the model fitted from it, which then
    # writes geometry null and is checked on its carrier alone
    path, model = tmp_path / "cal.json", tmp_path / "model.json"
    path.write_text(json.dumps({"carrier_hz": 2.4e9, "samples": GRID_SAMPLES}))
    data = read_dataset(path)
    assert (data.source, data.geometry) == ("imported", None)
    assert cli.main(["calibrate", "--from-dataset", str(path), "--out", str(model)]) == 0
    assert json.loads(model.read_text())["geometry"] is None
    assert read_model(model).geometry is None
    trace = str(tmp_path / "run.trace")
    assert cli.main(["simulate", "--config", write_config(tmp_path), "--out", trace]) == 0
    assert cli.main(["decode", "--trace", trace, "--out", str(tmp_path / "x.csv"),
                     "--model", str(model)]) == 0


def test_decode_rejects_model_without_anchor(tmp_path, capsys):
    # a trace without sensor geometry decodes unanchored, and cannot invert
    cfg = write_config(tmp_path)
    trace_path = tmp_path / "run.trace"
    model_path = str(tmp_path / "model.json")
    cli.main(["simulate", "--config", cfg, "--out", str(trace_path)])
    cli.main(["calibrate", "--config", cfg, "--out", model_path])
    write_trace(replace(read_trace(trace_path), geometry=None), trace_path)
    out = tmp_path / "x.csv"
    assert cli.main(["decode", "--trace", str(trace_path), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert all(r["phi1_deg"] == r["phi2_deg"] == "" for r in rows)
    out.unlink()
    capsys.readouterr()
    assert cli.main(["decode", "--trace", str(trace_path), "--out", str(out),
                     "--model", model_path]) == 2
    assert "--model needs a trace that carries sensor geometry" in capsys.readouterr().err
    assert not out.exists()


def test_decode_no_anchor_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["decode", "--trace", str(tmp_path / "run.trace"),
                     "--out", str(out), "--no-anchor"]) == 2
    assert "unrecognized arguments: --no-anchor" in capsys.readouterr().err
    assert not out.exists()


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
    # both files name the line they were calibrated on, the config's
    assert model.geometry == data.geometry == load_config(cfg).geometry

    # refitting from the saved dataset reproduces the model exactly
    model2_path = str(tmp_path / "model2.json")
    assert cli.main(["calibrate", "--from-dataset", data_path,
                     "--out", model2_path]) == 0
    assert read_model(model2_path) == model


# two locations of four forces: the least a dataset may hold
GRID_SAMPLES = [{"force_n": F, "location_mm": loc, "phi1_rad": 0.1 * F, "phi2_rad": 0.2}
                for loc in (20.0, 60.0) for F in (1.0, 2.0, 3.0, 4.0)]


@pytest.mark.parametrize("dataset", [
    {"carrier_hz": 2.4e9, "source": "imported"},
    "samples",
    {"carrier_hz": 2.4e9, "samples": [{"force_n": 1.0, "location_mm": 20.0,
                                       "phi1_rad": 0.1}]},
    {"carrier_hz": 2.4e9, "samples": [{"force_n": "1", "location_mm": 20.0,
                                       "phi1_rad": 0.1, "phi2_rad": 0.2}]},
    {"carrier_hz": -2.4e9, "samples": GRID_SAMPLES},
    {"carrier_hz": 2.4e9,
     "samples": [dict(GRID_SAMPLES[0], phi1_rad=math.nan)] + GRID_SAMPLES[1:]},
    {"carrier_hz": 2.4e9,
     "samples": [dict(GRID_SAMPLES[0], force_n=-1.0)] + GRID_SAMPLES[1:]},
], ids=["no-samples", "string-root", "sample-no-phi2", "string-force",
        "negative-carrier", "nan-phase", "negative-force"])
def test_malformed_dataset_fails_calibrate(tmp_path, capsys, dataset):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(dataset))
    assert cli.main(["calibrate", "--from-dataset", str(path),
                     "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad dataset in {path}")
    assert not (tmp_path / "m.json").exists()


def test_calibrate_requires_a_source(tmp_path, capsys):
    # neither source, or both (one of which would be ignored), is a usage
    # error: exit 2, one error line, no model
    data = str(tmp_path / "cal.json")
    assert cli.main(["calibrate", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "first.json"), "--dataset", data]) == 0
    other = write_config(tmp_path, {"waveform": {"carrier_hz": 5.8e9}}, "c58.json")
    out = tmp_path / "m.json"
    for sources in ([], ["--config", other, "--from-dataset", data]):
        capsys.readouterr()
        assert cli.main(["calibrate", *sources, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: calibrate takes one source: "
                                           "--config or --from-dataset\n")
        assert not out.exists()


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


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_help_describes_trials_and_seed(capsys, command):
    # --help names what each option defaults to and what it accepts
    assert cli.main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "overrides the config's noise.seed; must be >= 0" in text
    if command == "sweep":
        assert ("default the config's sweep.trials for force, 50 for snr; "
                "at least 1 for force, 2 for snr") in text


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--mode", "force",
                                                    "--trials", "2"]],
                         ids=["simulate", "sweep"])
@pytest.mark.parametrize("doc, flag, says", [
    ({"noise": {"seed": -3}}, [], "bad noise: seed must be >= 0, got -3"),
    ({}, ["--seed", "-1"], "bad --seed: seed must be >= 0, got -1"),
], ids=["config", "flag"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, command, doc, flag, says):
    cfg = write_config(tmp_path, doc)
    assert cli.main([*command, "--config", cfg, "--out", str(tmp_path / "out"),
                     *flag]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


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


def test_simulate_writes_the_same_bytes_for_one_config_and_seed(tmp_path):
    # the header holds no write time: a rerun is byte-identical
    path = write_config(tmp_path, {"waveform": {"n_subcarriers": 4}})
    outs = [tmp_path / name for name in ("a.trace", "b.trace")]
    for out in outs:
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


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


@pytest.mark.parametrize("clock, duty", [("clock_a", 0.3), ("clock_b", 0.5)])
def test_simulate_rejects_clocks_with_an_unreadable_port(tmp_path, capsys, clock, duty):
    # clock_a's 4th harmonic at duty 0.3 would land on port 2's 4 f_s tone,
    # and clock_b's 2nd, that tone itself, is null at duty 0.5: refused
    # before any write, not at decode
    clocks = {"clock_a": {"freq": 1000.0, "duty": 0.25},
              "clock_b": {"freq": 2000.0, "duty": 0.25, "offset": 0.5}}
    clocks[clock]["duty"] = duty
    cfg = write_config(tmp_path, {"clocks": clocks})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "run.trace")]) == 2
    assert f"error: bad clocks: {clock} duty {duty}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_simulate_rejects_a_trace_too_short_to_decode(tmp_path, capsys):
    # decode needs 2 groups at the auto size, 625 snapshots by default: one
    # short of 1250 is refused before any write, 1250 decodes
    cfg = write_config(tmp_path, {"waveform": {"n_snapshots": 1249}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "run.trace")]) == 2
    assert capsys.readouterr().err == ("error: bad waveform: 1249 snapshots hold "
                                       "fewer than the 2 groups of 625 a decode "
                                       "needs\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    cfg = write_config(tmp_path, {"waveform": {"n_snapshots": 1250}})
    trace = str(tmp_path / "run.trace")
    assert cli.main(["simulate", "--config", cfg, "--out", trace]) == 0
    assert cli.main(["decode", "--trace", trace,
                     "--out", str(tmp_path / "run.csv")]) == 0
    # sweep and calibrate size their own traces and take the same config
    cfg = write_config(tmp_path, {"waveform": {"n_snapshots": 1000}})
    assert cli.main(["sweep", "--config", cfg, "--mode", "force", "--trials", "1",
                     "--out", str(tmp_path / "force.csv")]) == 0
    assert cli.main(["calibrate", "--config", cfg,
                     "--out", str(tmp_path / "model.json")]) == 0


@pytest.mark.parametrize("flag", [["--group-size", "625"], ["--scheme-index", "0"]],
                         ids=["group-size", "scheme-index"])
def test_decode_takes_no_group_size_or_scheme_index(tmp_path, capsys, flag):
    # decode reads the trace's first scheme at the auto group size: a size
    # or a scheme, even the ones it would take, is a usage error
    cfg = write_config(tmp_path)
    trace_path = tmp_path / "run.trace"
    assert cli.main(["simulate", "--config", cfg, "--out", str(trace_path)]) == 0
    capsys.readouterr()
    assert cli.main(["decode", "--trace", str(trace_path),
                     "--out", str(tmp_path / "x.csv"), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run.trace"]


@pytest.mark.parametrize("bits", [None, 10], ids=["float", "10bit"])
def test_simulate_refuses_a_press_past_the_trace_end(tmp_path, capsys, bits):
    # a press the config asks for must happen: one starting at snapshot 5000
    # of 1875 is refused before any write, not dropped
    doc = default_config_dict()
    doc["noise"]["quantize_bits"] = bits
    doc["timeline"][1]["start_snapshot"] = 5000
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "run.trace")]) == 2
    assert capsys.readouterr().err == ("error: timeline[1] starts at snapshot 5000, "
                                       "past the trace's 1875 snapshots\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_decode_of_a_trace_without_schemes_fails(tmp_path, capsys):
    wf = WaveformConfig(n_subcarriers=2, n_snapshots=1250)
    trace_path = tmp_path / "bare.trace"
    write_trace(ChannelTrace(config=wf, data=np.ones((1250, 2))), trace_path)
    out = tmp_path / "x.csv"
    assert cli.main(["decode", "--trace", str(trace_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: bad trace in {trace_path}: "
                                       "trace lists no modulation schemes\n")
    assert list(tmp_path.iterdir()) == [trace_path]


@pytest.mark.parametrize("raw, says", [
    (b"hello\n", "magic b'hello\\n', expected b'WFTRACE1'"),
    (MAGIC, "truncated header"),
], ids=["text", "magic-only"])
def test_decode_of_a_file_that_is_no_trace_names_it(tmp_path, capsys, raw, says):
    trace_path = tmp_path / "not.trace"
    trace_path.write_bytes(raw)
    out = tmp_path / "x.csv"
    assert cli.main(["decode", "--trace", str(trace_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bad trace in {trace_path}: {says}\n"
    assert list(tmp_path.iterdir()) == [trace_path]


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


@pytest.mark.parametrize("argv", [
    ["--target-ohm", "0"], ["--target-ohm", "nan"], ["--target-ohm", "1e6"],
    ["--target-ohm", "50", "--height-mm", "-1"],
    ["--target-ohm", "50", "--width-mm", "2.5"],
    ["--target-ohm", "50", "--width-mm", "2.5", "--height-mm", "0.63"],
    ["--height-mm", "0", "--width-mm", "1"], ["--height-mm", "1", "--width-mm", "-1"],
    ["--height-mm", "inf", "--width-mm", "1"]],
    ids=["target-zero", "target-nan", "target-unrealizable", "target-height",
         "target-width", "target-height-width",
         "height-zero", "width-negative", "ratio-inf"])
def test_impedance_bad_argument_is_a_usage_error(argv, capsys):
    # a bad argument is a usage error (exit 2) that prints nothing to stdout
    # and one error line to stderr
    assert cli.main(["impedance", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


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
        assert r["reliable"] == "1"


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


@pytest.mark.parametrize("f_s, says", [(1000.0, "collision"), (3000.0, "Nyquist"),
                                       (1001.3, "group size")],
                         ids=["read-tone-collision", "past-nyquist", "ungroupable"])
def test_sweep_crosstalk_rejects_a_bad_second_clock(tmp_path, capsys, f_s, says):
    # the second clock is checked before any trace is made: a usage error
    # naming the key, no CSV
    cfg = write_config(tmp_path, {"sweep": {"second_f_s_hz": f_s}})
    out = tmp_path / "xtalk.csv"
    assert cli.main(["sweep", "--config", cfg, "--mode", "crosstalk",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad sweep.second_f_s_hz")
    assert says in err[0]
    assert not out.exists()


@pytest.mark.parametrize("mode", ["force", "snr", "crosstalk"])
@pytest.mark.parametrize("doc", [{}, {"noise": {"seed": 5}}], ids=["empty", "seed-5"])
def test_sweep_writes_the_rows_the_library_makes(tmp_path, doc, mode):
    # the library's sweeps default to the config's noise.seed, as the CLI
    # does, so one file gives one sweep either way
    path = write_config(tmp_path, {**doc, "sweep": {"snr_grid_db": [10.0]}})
    out = str(tmp_path / "sweep.csv")
    trials = [] if mode == "crosstalk" else ["--trials", "2"]
    assert cli.main(["sweep", "--config", path, "--mode", mode,
                     "--out", out, *trials]) == 0
    cfg = load_config(path)
    rows, aggregates = {"force": lambda: sweeps.run_force_sweep(cfg, 2),
                        "snr": lambda: sweeps.run_snr_sweep(cfg, 2),
                        "crosstalk": lambda: sweeps.run_crosstalk(cfg)}[mode]()
    got = read_csv(out)
    assert len(got) == len(rows) + len(aggregates)
    for line, row in zip(got, rows + aggregates):
        assert line == {k: str(row.get(k, "")) for k in line}


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


def cpu_seconds(pid):
    """User plus system CPU time of process pid so far, from /proc."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        fields = f.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to see the sweep's CPU time")
def test_sigterm_stops_a_force_sweep(tmp_path):
    # a million trials take minutes; once the process has spent a second of
    # CPU (imports and calibration take well under that), the sweep loop is
    # running: SIGTERM unwinds it with exit 143 and no CSV is written
    cfg = write_config(tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "force.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "forcelink.cli", "sweep", "--config", cfg,
         "--mode", "force", "--trials", "1000000", "--out", str(out)],
        env=env, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while cpu_seconds(proc.pid) < 1.0:
            assert proc.poll() is None, "sweep ended before its loop"
            assert time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60.0) == 143
    finally:
        proc.kill()
        proc.wait()
    assert not out.exists()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a product differently per thread count; the decode
    # makes no BLAS call, so a force sweep and a decode --model write the
    # same bytes with BLAS on one thread and on two
    cfg = write_config(tmp_path)
    trace, model = str(tmp_path / "run.trace"), str(tmp_path / "model.json")
    assert cli.main(["simulate", "--config", cfg, "--out", trace, "--seed", "7"]) == 0
    assert cli.main(["calibrate", "--config", cfg, "--out", model]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    outputs = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        force = tmp_path / f"force_{threads}.csv"
        presses = tmp_path / f"presses_{threads}.csv"
        for args in (["sweep", "--config", cfg, "--mode", "force", "--trials", "20",
                      "--seed", "7", "--out", str(force)],
                     ["decode", "--trace", trace, "--model", model,
                      "--out", str(presses)]):
            subprocess.run([sys.executable, "-m", "forcelink.cli", *args], env=env,
                           check=True, stderr=subprocess.DEVNULL, timeout=120)
        outputs.append((force.read_bytes(), presses.read_bytes()))
    assert outputs[0] == outputs[1]


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
