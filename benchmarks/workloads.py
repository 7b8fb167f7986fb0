"""Seeded inputs, unit runners and output checks for the forcelink benchmark.

A unit is the piece of work a run repeats: one pass of the four CLI commands
over a 10 s trace (``pipeline_10s``), or one sweep in a fresh interpreter
(``force_sweep``, ``snr_sweep``).  Units run one after another in child
processes started from this checkout's ``src`` with BLAS pinned to one
thread, so the harness times whole processes and reads each child's peak
RSS from ``wait4``.  Every output is checked; a failed check counts one
failed operation.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)    # the checks read outputs with forcelink's own helpers

GROUP = 625                # auto group size of the default 1 kHz scheme
FRAME_PERIOD_S = 720.0 / 12.5e6   # the default snapshot period
SNR_DB = 25.0              # the default config's SNR, used by every workload
SNR_GRID_DB = [float(s) for s in range(0, 41, 5)]
FORCE_TOL_N = 0.3          # acceptance 06 medians
LOCATION_TOL_MM = 0.6
PHASE_TOL_DEG = 5.0        # the usability threshold of acceptance 10
BLAS_THREADS = 1           # children run one at a time; never above nproc
CHILD_TIMEOUT_S = 60.0     # the slowest child takes about 3 s on a 2.1 GHz Xeon
REFERENCE_S = 0.3          # reported times are scaled to a machine where
                           # reference.py takes this long, as a 2.1 GHz Xeon does
# Workloads whose unit times are scaled too.  Their work is like the
# kernel's: small arrays and scalar Python.  Over ten seeds scaling cut the
# force_sweep wall-time spread from 18 % to 3 % and snr_sweep's from 10 % to
# 6 %.  The pipeline's time goes to large arrays and file I/O, which the
# kernel does not represent: scaling raised its spread from 8 % to 13 %, so
# its unit times stay raw.  Setup probes are scaled on every workload.
REFERENCE_SCALED = ("force_sweep", "snr_sweep")
SETUP_CODE = ("import json, sys, forcelink; "
              "forcelink.parse_config(json.load(open(sys.argv[1])))")


@dataclass(frozen=True)
class Size:
    """How much work one unit holds."""

    groups: int = 278          # pipeline trace: 278 x 625 snapshots = 10.008 s
    force_trials: int = 100    # closed-loop trials per force_sweep unit
    snr_trials: int = 25       # trials per SNR point per snr_sweep unit
    min_units: int = 4         # even when --seconds has passed


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float


@dataclass
class Unit:
    """What one unit measured and what its checks found."""

    wall_s: dict = field(default_factory=dict)
    rss_mb: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    ref_s: float = 0.0         # reference.py, run right before the unit
    setup_s: list = field(default_factory=list)   # setup probes after ref_s
    inproc_s: float = 0.0      # worker-side time, for the traced comparison
    sweep_s: float = 0.0       # time inside run_*_sweep (after setup)
    trials: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], log_path: str) -> Child:
    """Run argv to completion; wall time and peak RSS of that child alone."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, env=child_env(), stdout=log,
                             stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return Child(p.returncode, wall, usage.ru_maxrss * 1024 / 1e6)


def _write_json(d: str, name: str, doc) -> None:
    with open(os.path.join(d, name), "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _finite(rows: list[dict], cols) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in cols)


# --- inputs -----------------------------------------------------------------

def pipeline_inputs(rng: random.Random, size: Size) -> tuple[dict, dict]:
    """A quiet lead group, then a force ramp of one step per group.

    The press sits at a seeded location inside the calibrated 20-60 mm span
    and the ramp stays inside the calibrated 1-8 N range, so every group
    has a truth the inversion can reach.
    """
    loc = rng.uniform(25.0, 55.0)
    f0, f1 = rng.uniform(1.5, 2.0), rng.uniform(7.0, 7.5)
    step = (f1 - f0) / max(size.groups - 2, 1)
    forces = [f0 + g * step for g in range(size.groups - 1)]
    timeline = [{"start_snapshot": 0, "touch": None}] + [
        {"start_snapshot": (g + 1) * GROUP,
         "touch": {"force_n": F, "location_mm": loc}}
        for g, F in enumerate(forces)]
    doc = {"waveform": {"n_snapshots": size.groups * GROUP},
           "noise": {"snr_db": SNR_DB, "seed": rng.randrange(2 ** 31)},
           "timeline": timeline}
    return doc, {"forces_n": forces, "location_mm": loc}


def sweep_inputs(workload: str, rng: random.Random, size: Size) -> tuple[dict, dict]:
    """The default desk setup; the sweep draws presses or seeds from ``seed``."""
    trials = size.force_trials if workload == "force_sweep" else size.snr_trials
    doc = {"noise": {"snr_db": SNR_DB, "seed": rng.randrange(2 ** 31)},
           "sweep": {"trials": trials, "snr_grid_db": SNR_GRID_DB}}
    return doc, {"config": "config.json", "seed": rng.randrange(2 ** 62),
                 "trials": trials}


def prepare(workload: str, seed: int, index: int, size: Size, d: str) -> dict:
    """Write unit ``index``'s config (and unit.json) into d; return its truth."""
    os.makedirs(d, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "pipeline_10s":
        doc, truth = pipeline_inputs(rng, size)
        _write_json(d, "config.json", doc)
        _write_json(d, "unit.json", {"config": "config.json"})
        return truth
    doc, unit = sweep_inputs(workload, rng, size)
    _write_json(d, "config.json", doc)
    _write_json(d, "unit.json", unit)
    return unit


def true_steps_deg(truth: dict) -> list[tuple[float, float]]:
    """Each group's true phase step on both ports for a pipeline ramp."""
    from forcelink.config import default_config_dict, parse_config
    from forcelink.transducer import (ShortingState, TouchEvent, port_phases,
                                      shorting_segment)
    cfg = parse_config(default_config_dict())
    geom, fc = cfg.geometry, cfg.waveform.carrier_hz
    pp = [port_phases(ShortingState.open(), geom, fc)] + [
        port_phases(shorting_segment(TouchEvent(F, truth["location_mm"]),
                                     cfg.mechanics, geom), geom, fc)
        for F in truth["forces_n"]]
    return [(math.degrees(b.phi1 - a.phi1), math.degrees(b.phi2 - a.phi2))
            for a, b in zip(pp, pp[1:])]


def _wrap_deg(x: float) -> float:
    return (x + 180.0) % 360.0 - 180.0


# --- checks -----------------------------------------------------------------

CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError)


def check_pipeline(d: str, rc: dict, size: Size, truth: dict, unit: Unit) -> None:
    """Exit codes, file shapes and the inverted ramp against its truth."""
    files = {k: os.path.join(d, v) for k, v in worker.PIPELINE_FILES.items()}

    def simulate():
        payload = 8 * 64 * size.groups * GROUP
        if os.path.getsize(files["trace"]) <= payload:
            return "trace file shorter than its payload"

    def calibrate():
        with open(files["model"], encoding="utf-8") as f:
            if len(json.load(f)["per_location"]) != 5:
                return "model does not hold 5 locations"

    def decode():
        rows = _read_rows(files["phases"])
        if len(rows) != size.groups:
            return f"{len(rows)} rows, expected {size.groups}"
        if not _finite(rows, ("dphi1_deg", "dphi2_deg", "phi1_deg", "phi2_deg",
                              "snr1_db", "snr2_db")):
            return "non-finite phase or SNR"
        unit.quality["snr_db"] = [float(rows[0]["snr1_db"]),
                                  float(rows[0]["snr2_db"])]
        unit.quality["dphi_deg"] = [
            (_wrap_deg(float(r["dphi1_deg"]) - t1), _wrap_deg(float(r["dphi2_deg"]) - t2))
            for r, (t1, t2) in zip(rows[1:], true_steps_deg(truth))]

    def decode_model():
        rows = _read_rows(files["presses"])
        if len(rows) != size.groups:
            return f"{len(rows)} rows, expected {size.groups}"
        f_err = [abs(float(r["est_force_n"]) - F)
                 for r, F in zip(rows[1:], truth["forces_n"])]
        l_err = [abs(float(r["est_location_mm"]) - truth["location_mm"])
                 for r in rows[1:]]
        fm, lm = statistics.median(f_err), statistics.median(l_err)
        if not (fm <= FORCE_TOL_N and lm <= LOCATION_TOL_MM):
            return f"median errors {fm:.3f} N / {lm:.3f} mm over the bound"
        unit.quality["force_err_n"] = f_err
        unit.quality["location_err_mm"] = l_err

    for step, check in (("simulate", simulate), ("calibrate", calibrate),
                        ("decode", decode), ("decode_model", decode_model)):
        _count(unit, step, rc.get(step), check)


def check_sweep(workload: str, d: str, rc: int, unit_in: dict, unit: Unit) -> None:
    """Row counts, the acceptance medians (force) or the SNR aggregates."""
    def force():
        rows = _read_rows(os.path.join(d, "sweep.csv"))
        trials = [r for r in rows if r["kind"] == "trial"]
        if len(trials) != unit_in["trials"]:
            return f"{len(trials)} trial rows, expected {unit_in['trials']}"
        f_err = [float(r["force_err_n"]) for r in trials]
        l_err = [float(r["location_err_mm"]) for r in trials]
        fm, lm = statistics.median(f_err), statistics.median(l_err)
        if not (fm <= FORCE_TOL_N and lm <= LOCATION_TOL_MM):
            return f"median errors {fm:.3f} N / {lm:.3f} mm over the bound"
        unit.quality["force_err_n"] = f_err
        unit.quality["location_err_mm"] = l_err

    def snr():
        from forcelink.sweeps import snr_meeting_threshold
        rows = _read_rows(os.path.join(d, "sweep.csv"))
        trials = [r for r in rows if r["kind"] == "trial"]
        aggs = [{"snr_db": float(r["snr_db"]),
                 "phase_std1_deg": float(r["phase_std1_deg"]),
                 "phase_std2_deg": float(r["phase_std2_deg"])}
                for r in rows if r["kind"] == "aggregate"]
        if len(trials) != len(SNR_GRID_DB) * unit_in["trials"]:
            return f"{len(trials)} trial rows"
        if sorted(a["snr_db"] for a in aggs) != SNR_GRID_DB:
            return f"{len(aggs)} aggregates, expected {len(SNR_GRID_DB)}"
        if snr_meeting_threshold(aggs, PHASE_TOL_DEG) is None:
            return f"no SNR reaches {PHASE_TOL_DEG} deg"
        unit.quality["dphi_deg"] = [
            (float(r["dphi1_deg"]), float(r["dphi2_deg"]))
            for r in trials if float(r["snr_db"]) == SNR_DB]

    _count(unit, "sweep", rc, force if workload == "force_sweep" else snr)


def _count(unit: Unit, step: str, rc, check) -> None:
    unit.attempted += 1
    if rc != 0:
        unit.failures.append(f"{step}: exit code {rc}")
        return
    try:
        why = check()
    except CHECK_ERRORS as e:
        why = f"unreadable output ({type(e).__name__}: {e})"
    if why:
        unit.failures.append(f"{step}: {why}")


def check_same_bytes(a: str, b: str, unit: Unit, names) -> None:
    """Traced and untraced workers must write byte-identical CSVs."""
    for name in names:
        unit.attempted += 1
        try:
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                same = fa.read() == fb.read()
        except OSError as e:
            same, name = False, f"{name} ({e})"
        if not same:
            unit.failures.append(f"traced and untraced {name} differ")


# --- units ------------------------------------------------------------------

def run_cli_unit(workload: str, seed: int, index: int, size: Size, d: str,
                 log: str) -> Unit:
    """One untraced unit: CLI children (pipeline) or one sweep worker."""
    truth = prepare(workload, seed, index, size, d)
    unit = Unit()
    if workload == "pipeline_10s":
        rc = {}
        for step, argv in worker.pipeline_argv(d, os.path.join(d, "config.json")):
            c = run_child([sys.executable, "-m", "forcelink.cli", *argv], log)
            rc[step], unit.wall_s[step], unit.rss_mb[step] = c.rc, c.wall_s, c.rss_mb
        check_pipeline(d, rc, size, truth, unit)
        return unit
    c = run_child([sys.executable, worker.__file__, workload, "--dir", d], log)
    unit.wall_s["sweep"], unit.rss_mb["sweep"] = c.wall_s, c.rss_mb
    if c.rc == 0:
        with open(os.path.join(d, "result.json"), encoding="utf-8") as f:
            res = json.load(f)
        unit.sweep_s, unit.trials = res["sweep_s"], res["trials"]
    check_sweep(workload, d, c.rc, truth, unit)
    return unit


def run_worker_unit(workload: str, seed: int, index: int, size: Size, d: str,
                    log: str, spans: str | None) -> Unit:
    """One in-process unit in a worker, traced when ``spans`` names a file."""
    truth = prepare(workload, seed, index, size, d)
    argv = [sys.executable, worker.__file__, workload, "--dir", d]
    c = run_child(argv + (["--spans", spans] if spans else []), log)
    unit = Unit()
    res = {}
    if os.path.exists(os.path.join(d, "result.json")):
        with open(os.path.join(d, "result.json"), encoding="utf-8") as f:
            res = json.load(f)
        unit.inproc_s = res["elapsed_s"]
    if workload == "pipeline_10s":
        rc = res.get("rc", {})
        check_pipeline(d, {s: rc.get(s, c.rc) for s in
                           ("simulate", "calibrate", "decode", "decode_model")},
                       size, truth, unit)
    else:
        check_sweep(workload, d, c.rc, truth, unit)
    return unit


def csv_names(workload: str) -> tuple[str, ...]:
    if workload == "pipeline_10s":
        return (worker.PIPELINE_FILES["phases"], worker.PIPELINE_FILES["presses"])
    return ("sweep.csv",)


def reference_probe() -> float:
    """Seconds the fixed reference kernel takes right now."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                         env=child_env(), cwd=ROOT, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout)


def setup_probe(workload: str, seed: int, size: Size, d: str, log: str) -> Child:
    """A fresh interpreter imports forcelink and parses the workload's config."""
    prepare(workload, seed, 0, size, d)
    return run_child([sys.executable, "-c", SETUP_CODE,
                      os.path.join(d, "config.json")], log)


# --- accuracy figures -------------------------------------------------------

def accuracy(workload: str, units: list[Unit]) -> dict:
    """Accuracy figures over all units, pooled sample by sample."""
    q = [u.quality for u in units]
    out = {}
    if workload != "snr_sweep":
        f_err = statistics.median(e for x in q for e in x.get("force_err_n", []))
        l_err = statistics.median(e for x in q for e in x.get("location_err_mm", []))
        out = {"force_err_med_n": f_err, "location_err_med_mm": l_err,
               "err_budget_frac": max(f_err / FORCE_TOL_N, l_err / LOCATION_TOL_MM)}
    if workload != "force_sweep":
        # decoded step error against truth (zero for the held press of
        # snr_sweep); every group's error is independent, unlike the anchored
        # phases, which share the reference group's noise within a trace
        dphi = [p for x in q for p in x.get("dphi_deg", [])]
        std = max(statistics.stdev(p[0] for p in dphi),
                  statistics.stdev(p[1] for p in dphi))
        out.update({"phase_std_25db_deg": std,
                    "err_budget_frac": std / PHASE_TOL_DEG})
    if workload == "pipeline_10s":
        out["snr_err_db"] = statistics.mean(
            statistics.mean(x["snr_db"]) - SNR_DB for x in q if "snr_db" in x)
    return out
