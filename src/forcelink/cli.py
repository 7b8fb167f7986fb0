"""Command line front end.

Subcommands:
  simulate   render a channel trace from a config file
  decode     turn a trace into per-group phase rows (optionally inverted)
  calibrate  fit the phase-to-force model and write it as JSON
  sweep      run a canned experiment (force | snr | crosstalk) to CSV
  impedance  quick microstrip impedance / width helper

Every subcommand that takes --config loads it with config.load_config, as
library code does, so a file describes one run; --seed, where given,
overrides the file's noise.seed (default 1).

Exit status: 0 on success, 2 for configuration or usage errors, 1 for
runtime failures (unreadable traces, I/O), 143 when stopped by SIGTERM.
Diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import csv
import math
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

from . import calib, sweeps, traceio
from .chansim import synthesis_blocks
from .config import ConfigError, ExperimentConfig, load_config
from .decoder import anchor, group_phases, resolve_group_size
from .transducer import (ShortingState, impedance, port_phases,
                         solve_width_ratio)

def _load_seeded(path, seed: int | None) -> ExperimentConfig:
    """The config at path, its noise.seed replaced by --seed when one is given."""
    cfg = load_config(path)
    if seed is None:
        return cfg
    return replace(cfg, noise=replace(cfg.noise, seed=seed))


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_simulate(args) -> int:
    cfg = _load_seeded(args.config, args.seed)
    wf = cfg.waveform
    provenance, blocks = synthesis_blocks(wf, cfg.scheme, cfg.timeline, cfg.multipath,
                                          cfg.noise, cfg.geometry, cfg.mechanics)
    traceio.write_trace_blocks(args.out, blocks, wf, (cfg.scheme,), cfg.geometry,
                               provenance)
    _info(f"wrote {args.out}: {wf.n_subcarriers} subcarriers x "
          f"{wf.n_snapshots} snapshots, seed {cfg.noise.seed}")
    return 0


def cmd_decode(args) -> int:
    trace = traceio.open_trace(args.trace)
    if not trace.schemes:
        raise ValueError(f"{args.trace} lists no modulation schemes")
    if not 0 <= args.scheme_index < len(trace.schemes):
        raise ConfigError(
            f"--scheme-index {args.scheme_index} out of range, trace has "
            f"{len(trace.schemes)} scheme(s)")
    scheme = trace.schemes[args.scheme_index]
    if args.group_size is not None:
        try:
            resolve_group_size(trace.config, trace.schemes, args.group_size)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    anchored = trace.geometry is not None and not args.no_anchor
    if args.model is not None and not anchored:
        raise ConfigError(
            "inversion needs anchored phases; the trace must carry sensor "
            "geometry and --no-anchor must not be set")
    model = traceio.read_model(args.model) if args.model is not None else None
    series = group_phases(trace, scheme, args.group_size)
    phases = extra = None
    if anchored:
        phases = anchor(series, port_phases(ShortingState.open(), trace.geometry,
                                            trace.config.carrier_hz))
    if model is not None:
        ests = [calib.invert(model, float(p1), float(p2)) for p1, p2 in phases]
        extra = {
            "est_force_n": [e.force_n for e in ests],
            "est_location_mm": [e.location_mm for e in ests],
            "residual_rad2": [e.residual_rad2 for e in ests],
            "reliable": [int(e.reliable) for e in ests],
        }
    traceio.write_phase_csv(series, args.out, phases, extra_columns=extra)
    snr1, snr2 = series.snr_db
    _info(f"wrote {args.out}: {series.n_groups} groups of {series.group_size} "
          f"snapshots, snr {snr1:.1f}/{snr2:.1f} dB")
    return 0


def cmd_calibrate(args) -> int:
    if args.from_dataset is not None:
        data = traceio.read_dataset(args.from_dataset)
    else:
        if args.config is None:
            raise ConfigError("calibrate needs --config or --from-dataset")
        cfg = load_config(args.config)
        data = calib.generate_sweep(cfg.calibration.locations_mm,
                                    cfg.calibration.forces_n,
                                    cfg.geometry, cfg.mechanics,
                                    cfg.waveform.carrier_hz)
    if args.dataset is not None:
        traceio.write_dataset(data, args.dataset)
    model = calib.fit_model(data)
    traceio.write_model(model, args.out)
    worst = max(f.rms_rad for f in model.fits)
    _info(f"wrote {args.out}: {len(model.fits)} locations, worst fit rms "
          f"{math.degrees(worst):.3f} deg")
    return 0


_SWEEP_FIELDS = {
    "force": ("kind", "trial", "true_force_n", "true_location_mm",
              "est_force_n", "est_location_mm", "force_err_n",
              "location_err_mm", "residual_rad2", "reliable"),
    "snr": ("kind", "snr_db", "trial", "dphi1_deg", "dphi2_deg",
            "phase_std1_deg", "phase_std2_deg"),
    "crosstalk": ("kind", "victim_sensor", "port", "group", "crosstalk_deg",
                  "max_crosstalk_deg", "median_crosstalk_deg"),
}


def _write_rows(path, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fieldnames, restval="",
                           lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in fieldnames})


def cmd_sweep(args) -> int:
    if args.mode == "crosstalk" and args.trials is not None:
        raise ConfigError("--mode crosstalk takes no --trials")
    cfg = _load_seeded(args.config, args.seed)
    seed = cfg.noise.seed
    if args.mode == "force":
        rows, aggregates = sweeps.run_force_sweep(cfg, args.trials, seed)
    elif args.mode == "snr":
        rows, aggregates = sweeps.run_snr_sweep(cfg, args.trials, seed)
    else:
        rows, aggregates = sweeps.run_crosstalk(cfg, seed=seed)
    _write_rows(args.out, _SWEEP_FIELDS[args.mode], rows + aggregates)
    _info(f"wrote {args.out}: {len(rows)} trial rows, "
          f"{len(aggregates)} summary rows (mode {args.mode}, seed {seed})")
    return 0


def cmd_impedance(args) -> int:
    if args.target_ohm is not None:
        ratio = solve_width_ratio(args.target_ohm)
        print(f"w_over_h={ratio!r}")
        if args.height_mm is not None:
            print(f"width_mm={ratio * args.height_mm!r}")
        return 0
    if args.height_mm is None or args.width_mm is None:
        raise ConfigError("impedance needs --height-mm and --width-mm, "
                          "or --target-ohm")
    z = impedance(args.height_mm, args.width_mm)
    print(f"impedance_ohm={z!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="forcelink",
        description="Backscatter force sensing: simulate, decode, calibrate.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a channel trace")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    dec = sub.add_parser("decode", help="trace -> per-group phase CSV")
    dec.add_argument("--trace", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--group-size", type=int, default=None)
    dec.add_argument("--scheme-index", type=int, default=0)
    dec.add_argument("--model", default=None,
                     help="sensor model JSON; adds inversion columns")
    dec.add_argument("--no-anchor", action="store_true",
                     help="emit raw steps only, skip anchored phases")
    dec.set_defaults(func=cmd_decode)

    cal = sub.add_parser("calibrate", help="fit and write the sensor model")
    cal.add_argument("--config", default=None)
    cal.add_argument("--out", required=True)
    cal.add_argument("--dataset", default=None,
                     help="also write the raw calibration samples here")
    cal.add_argument("--from-dataset", default=None,
                     help="fit from an existing dataset JSON instead")
    cal.set_defaults(func=cmd_calibrate)

    sw = sub.add_parser("sweep", help="run a canned experiment to CSV")
    sw.add_argument("--config", required=True)
    sw.add_argument("--mode", required=True,
                    choices=("force", "snr", "crosstalk"))
    sw.add_argument("--out", required=True)
    sw.add_argument("--trials", type=int, default=None)
    sw.add_argument("--seed", type=int, default=None)
    sw.set_defaults(func=cmd_sweep)

    imp = sub.add_parser("impedance", help="microstrip impedance helper")
    imp.add_argument("--height-mm", type=float, default=None)
    imp.add_argument("--width-mm", type=float, default=None)
    imp.add_argument("--target-ohm", type=float, default=None)
    imp.set_defaults(func=cmd_impedance)
    return p


@contextmanager
def _sigterm_unwinds():
    """Within, SIGTERM raises SystemExit(143) as Ctrl-C raises
    KeyboardInterrupt, so cleanup (a simulate's temporary file) runs; the
    previous handler is restored after.  Only the main thread may set it."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with _sigterm_unwinds():
            return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
