"""One benchmark unit inside a single fresh interpreter.

    python3 benchmarks/worker.py <workload> --dir DIR [--spans FILE]

DIR holds ``unit.json`` (written by the harness: the config file name and
the sweep's seed and trial count).  The worker runs the unit, writes its
outputs next to it, and writes ``result.json`` with the exit codes and the
in-process wall time.  ``pipeline_10s`` runs the four CLI commands through
``forcelink.cli.main``; the sweeps call ``forcelink.sweeps`` directly.

With ``--spans`` the public functions are wrapped (see ``tracer.py``) and
the spans are written to FILE at the end; without it this module never
imports the tracer.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

SWEEP_FIELDS = {
    "force_sweep": ("kind", "trial", "true_force_n", "true_location_mm",
                    "est_force_n", "est_location_mm", "force_err_n",
                    "location_err_mm", "residual_rad2", "reliable"),
    "snr_sweep": ("kind", "snr_db", "trial", "dphi1_deg", "dphi2_deg",
                  "phase_std1_deg", "phase_std2_deg"),
}

# file names shared with the harness, which reads and checks them
PIPELINE_FILES = {"trace": "run.trace", "model": "model.json",
                  "phases": "phases.csv", "presses": "presses.csv"}


def pipeline_argv(d: str, config: str) -> list[tuple[str, list[str]]]:
    """The four CLI commands of one pipeline pass, as (step, argv)."""
    f = {k: os.path.join(d, v) for k, v in PIPELINE_FILES.items()}
    return [("simulate", ["simulate", "--config", config, "--out", f["trace"]]),
            ("calibrate", ["calibrate", "--config", config, "--out", f["model"]]),
            ("decode", ["decode", "--trace", f["trace"], "--out", f["phases"]]),
            ("decode_model", ["decode", "--trace", f["trace"], "--out",
                              f["presses"], "--model", f["model"]])]


def write_rows(path: str, fields, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, restval="", lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in fields})


def run_unit(workload: str, d: str) -> dict:
    from forcelink import cli, config, sweeps

    with open(os.path.join(d, "unit.json"), encoding="utf-8") as f:
        unit = json.load(f)
    cfg_path = os.path.join(d, unit["config"])
    if workload == "pipeline_10s":
        rc = {}
        for step, argv in pipeline_argv(d, cfg_path):
            rc[step] = cli.main(argv)
        return {"rc": rc}
    cfg = config.load_config(cfg_path)
    t0 = time.perf_counter()
    if workload == "force_sweep":
        rows, aggs = sweeps.run_force_sweep(cfg, trials=unit["trials"],
                                            seed=unit["seed"])
    else:
        rows, aggs = sweeps.run_snr_sweep(cfg, trials=unit["trials"],
                                          seed=unit["seed"])
    sweep_s = time.perf_counter() - t0
    write_rows(os.path.join(d, "sweep.csv"), SWEEP_FIELDS[workload], rows + aggs)
    return {"rc": {"sweep": 0}, "sweep_s": sweep_s, "trials": len(rows)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=("pipeline_10s", "force_sweep", "snr_sweep"))
    p.add_argument("--dir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    import forcelink.cli  # noqa: F401  (every module loaded before wrapping)
    import forcelink.sweeps  # noqa: F401

    tracer = None
    if args.spans is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    result = run_unit(args.workload, args.dir)
    result["elapsed_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if all(v == 0 for v in result["rc"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
