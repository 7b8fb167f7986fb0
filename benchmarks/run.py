"""forcelink benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload pipeline_10s --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Units run one at a time (a closed loop with one client) until
``--seconds`` have passed, and never fewer than ``Size.min_units``.

``--trace 0`` times untraced child processes and prints the end-to-end
metrics.  ``--trace 1`` runs each unit in-process in a worker twice, once
untraced and once with every public function wrapped, checks that both wrote
byte-identical CSVs, and prints the per-layer metrics.  Either way the last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it carries workload-specific figures and the
machine's provenance.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl

WORKLOADS = ("pipeline_10s", "force_sweep", "snr_sweep")
PROBES_PER_UNIT = 2        # setup_s is the median of all probes of a run
WORK_DIR = ".bench_work"


def provenance(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", wl.ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(wl.ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(wl.SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, wl.SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    nproc = len(os.sched_getaffinity(0))
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, "blas_threads": min(wl.BLAS_THREADS, nproc),
            "machine": platform.machine(), "seed": seed}


def _med(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0    # 0 only when every unit failed


def end_to_end(workload: str, units: list[wl.Unit],
               size: wl.Size) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, workload-specific detail).

    Setup times, and the unit times of REFERENCE_SCALED workloads, are
    scaled by REFERENCE_S over the reference kernel's time just before the
    unit; the detail figures are raw.
    """
    setup_scale = [wl.REFERENCE_S / u.ref_s for u in units]
    scale = setup_scale if workload in wl.REFERENCE_SCALED else [1.0] * len(units)
    setup = [s * k for u, k in zip(units, setup_scale) for s in u.setup_s]
    wall = [sum(u.wall_s.values()) * k for u, k in zip(units, scale)]
    rss = [max(u.rss_mb.values()) for u in units]
    detail = {"reference_s": (_med([u.ref_s for u in units]), "s"),
              "raw_setup_s": (_med([s for u in units for s in u.setup_s]), "s"),
              "raw_wall_s": (_med([sum(u.wall_s.values()) for u in units]), "s")}
    if workload == "pipeline_10s":
        trace_s = size.groups * wl.GROUP * wl.FRAME_PERIOD_S
        items = _med([size.groups / (u.wall_s["decode"] * k)
                      for u, k in zip(units, scale)])
        for step in ("simulate", "calibrate", "decode", "decode_model"):
            detail[f"{step}_s"] = (_med([u.wall_s[step] for u in units]), "s")
        detail["decode_rtf"] = (
            trace_s / _med([u.wall_s["decode"] for u in units]), "trace_s/s")
        detail["simulate_peak_rss_mb"] = (
            _med([u.rss_mb["simulate"] for u in units]), "MB")
        detail["decode_peak_rss_mb"] = (
            _med([max(u.rss_mb["decode"], u.rss_mb["decode_model"])
                  for u in units]), "MB")
    else:
        done = [(u, k) for u, k in zip(units, scale) if u.sweep_s]
        items = _med([u.trials / (u.sweep_s * k) for u, k in done])
        detail["trials_per_s"] = (_med([u.trials / u.sweep_s for u, _ in done]), "1/s")
        detail["peak_rss_mb"] = (_med(rss), "MB")
    try:
        acc = wl.accuracy(workload, units)
    except statistics.StatisticsError:    # every unit failed its checks
        acc = {"err_budget_frac": 0.0}
    units_of = {"force_err_med_n": "N", "location_err_med_mm": "mm",
                "snr_err_db": "dB", "phase_std_25db_deg": "deg",
                "err_budget_frac": "frac"}
    detail.update({k: (v, units_of[k]) for k, v in acc.items()})
    metrics = {"setup_s": (_med(setup), "s"), "wall_s": (_med(wall), "s"),
               "items_per_s": (items, "1/s"), "peak_rss_mb": (_med(rss), "MB"),
               "err_budget_frac": (acc["err_budget_frac"], "frac")}
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: wl.Size, work: str) -> dict:
    """Measure one run; returns the result object printed last."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log = os.path.join(work, "children.log")
    attempted, failures = 0, []

    def probe() -> float:
        nonlocal attempted
        c = wl.setup_probe(workload, seed, size, os.path.join(work, "setup"), log)
        attempted += 1
        if c.rc != 0:
            failures.append(f"setup probe: exit code {c.rc}")
        return c.wall_s

    if not trace:
        probe()                                    # warm-up, not counted
    units, span_sets, traced_s, untraced_s = [], [], [], []
    t0 = time.perf_counter()
    i = 0
    while i < size.min_units or time.perf_counter() - t0 < seconds:
        d = os.path.join(work, f"unit{i}")
        if not trace:
            # probes spread over the run see the machine as the units do
            ref = wl.reference_probe()
            setup = [probe() for _ in range(PROBES_PER_UNIT)]
            units.append(wl.run_cli_unit(workload, seed, i, size, d, log))
            units[-1].ref_s, units[-1].setup_s = ref, setup
        else:
            # same inputs twice; alternate which side runs first
            plain, traced = d + "-plain", d + "-traced"
            spans = os.path.join(work, f"spans{i}.json")
            pair = {}
            for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                pair[side] = wl.run_worker_unit(
                    workload, seed, i, size, side, log,
                    spans if side == traced else None)
            wl.check_same_bytes(plain, traced, pair[traced], wl.csv_names(workload))
            units += [pair[plain], pair[traced]]
            untraced_s.append(pair[plain].inproc_s)
            traced_s.append(pair[traced].inproc_s)
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as f:
                    span_sets.append(json.load(f)["spans"])
        # outputs are checked; drop them (the 10 s trace alone is 89 MB)
        for side in (d, d + "-plain", d + "-traced"):
            shutil.rmtree(side, ignore_errors=True)
        i += 1

    for u in units:
        attempted += u.attempted
        failures += u.failures
    if trace:
        import tracer
        per_layer = tracer.layer_metrics(span_sets, traced_s, untraced_s) \
            if span_sets and all(untraced_s) else {}
        specs = {s["name"]: s["unit"] for s in tracer.metric_specs()}
        metrics = {n: {"value": per_layer.get(n, 0.0), "unit": u}
                   for n, u in specs.items()}
        detail = {"traced_units": len(span_sets)}
    else:
        e2e, det = end_to_end(workload, units, size)
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}
        detail = {n: {"value": v, "unit": u} for n, (v, u) in det.items()}
        detail["units"] = len(units)
    print(json.dumps({"workload": workload, "trace": int(trace),
                      "provenance": provenance(seed), "detail": detail,
                      "failures": failures[:20]}))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run unwinds, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(wl.SRC, "forcelink", "__init__.py")):
        print(f"error: no forcelink sources under {wl.SRC}; run from the root "
              "of a forcelink checkout", file=sys.stderr)
        return 2
    work = os.path.join(wl.ROOT, WORK_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 wl.Size(), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
