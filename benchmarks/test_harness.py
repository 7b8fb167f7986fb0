"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest benchmarks/test_harness.py -q

Runs each workload with a few groups or trials, traced and untraced, and
checks that a deliberately corrupted output is counted as a failure.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wl

TINY = wl.Size(groups=4, force_trials=4, snr_trials=3, min_units=1)
HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    res = run.run(workload, 7, 0.0, False, TINY, str(tmp_path / "work"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload,layer", [
    ("pipeline_10s", "cli.decode_model.calls"),
    ("force_sweep", "sweeps.run_touch_trial.calls"),
    ("snr_sweep", "sweeps.measure_step_errors.calls"),
])
def test_traced_run_reports_every_layer(workload, layer, tmp_path):
    res = run.run(workload, 7, 0.0, True, TINY, str(tmp_path / "work"))
    # failed == 0 includes the byte-identical CSV comparison
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert res["metrics"][layer]["value"] >= 1
    assert res["metrics"]["decoder.group_phases.self_s"]["value"] > 0
    # the control workload must never reach the inversion
    assert (res["metrics"]["calib.invert.calls"]["value"] == 0) == (workload == "snr_sweep")


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    check = wl.check_pipeline

    def corrupt_then_check(d, rc, size, truth, unit):
        path = os.path.join(d, "presses.csv")
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines[:-1])       # drop the last group's row
        check(d, rc, size, truth, unit)

    monkeypatch.setattr(wl, "check_pipeline", corrupt_then_check)
    res = run.run("pipeline_10s", 7, 0.0, False, TINY, str(tmp_path / "work"))
    assert not res["correct"]
    assert res["failed"] == 1
    assert res["attempted"] == 1 + run.PROBES_PER_UNIT + 4


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, None, 1, None],
             ["b", 1.0, 4.0, 0, 1, None],
             ["c", 2.0, 3.0, 1, 1, None],
             ["b", 5.0, 6.0, 0, 1, None]]
    stats = tracer.span_stats(spans)
    assert stats["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}


def test_untraced_worker_never_loads_the_tracer(tmp_path):
    d = str(tmp_path / "unit")
    wl.prepare("force_sweep", 7, 0, TINY, d)
    code = ("import sys, worker; rc = worker.main(['force_sweep', '--dir', sys.argv[1]]); "
            "sys.exit(rc or 'tracer' in sys.modules)")
    env = {**wl.child_env(), "PYTHONPATH": os.pathsep.join((wl.SRC, HERE))}
    assert subprocess.run([sys.executable, "-c", code, d], env=env).returncode == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(BENCH["command"] + ["--workload", "snr_sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
