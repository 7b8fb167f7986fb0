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

decode reads a trace's first scheme at decoder.auto_group_size; a trace it
cannot decode so (no scheme, too few groups, a non-finite entry) is a runtime
failure naming the file.  decode --model refuses, as a usage error, a model
calibrated at another carrier or on another line than the trace's geometry;
a model that names no line is checked on its carrier alone.  simulate writes
the trace header's provenance (the seed, a digest of the config's synthesis
inputs) and no write time.

A command imports calib and sweeps where it uses them, so simulate, decode
without --model and impedance start neither.
"""
from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

from . import traceio
from .chansim import synthesis_blocks
from .config import ConfigError, ExperimentConfig, _build, load_config
from .decoder import anchor, decode_group_size, group_phases
from .transducer import impedance, solve_width_ratio

SEED_HELP = "overrides the config's noise.seed; must be >= 0"


def _load_seeded(path, seed: int | None) -> ExperimentConfig:
    """The config at path, its noise.seed replaced by --seed when one is given."""
    cfg = load_config(path)
    if seed is None:
        return cfg
    try:
        return replace(cfg, noise=replace(cfg.noise, seed=seed))
    except ValueError as e:
        raise ConfigError(f"bad --seed: {e}") from e


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _provenance(cfg: ExperimentConfig) -> dict:
    """A trace header's provenance: the seed and a digest of every input to
    the synthesis."""
    import hashlib  # here, not at the top: only simulate digests
    blob = json.dumps((cfg.waveform, cfg.scheme, cfg.multipath, cfg.noise, cfg.timeline,
                       cfg.geometry, cfg.mechanics), sort_keys=True, default=repr)
    return {"seed": cfg.noise.seed,
            "config_digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}


def cmd_simulate(args) -> int:
    cfg = _load_seeded(args.config, args.seed)
    wf = cfg.waveform
    # only simulate checks: sweep and calibrate size their own traces
    _build(decode_group_size, "waveform", wf, (cfg.scheme,))
    try:  # synthesis_blocks checks its inputs (the timeline fits) before any row
        blocks = synthesis_blocks(wf, cfg.scheme, cfg.timeline, cfg.multipath,
                                  cfg.noise, cfg.geometry, cfg.mechanics)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    traceio.write_trace_blocks(args.out, blocks, wf, (cfg.scheme,), cfg.geometry,
                               _provenance(cfg))
    _info(f"wrote {args.out}: {wf.n_subcarriers} subcarriers x "
          f"{wf.n_snapshots} snapshots, seed {cfg.noise.seed}")
    return 0


def cmd_decode(args) -> int:
    trace = traceio.open_trace(args.trace)
    if args.model is not None and trace.geometry is None:
        raise ConfigError("--model needs a trace that carries sensor geometry")
    model = traceio.read_model(args.model) if args.model is not None else None
    if model is not None and model.carrier_hz != trace.config.carrier_hz:
        raise ConfigError(f"--model {args.model} is calibrated at {model.carrier_hz} Hz,"
                          f" the trace is at {trace.config.carrier_hz} Hz")
    if model is not None and model.geometry not in (None, trace.geometry):
        diff = ", ".join(f"{k} {v} (the trace's {getattr(trace.geometry, k)})"
                         for k, v in vars(model.geometry).items()
                         if v != getattr(trace.geometry, k))
        raise ConfigError(f"--model {args.model} is calibrated on another line: {diff}")
    try:  # its first scheme, at the auto group size
        series = group_phases(trace)
    except ValueError as e:
        raise ValueError(f"bad trace in {args.trace}: {e}") from None
    phases = extra = None
    if trace.geometry is not None:
        phases = anchor(series.phases, trace.geometry, trace.config.carrier_hz)
    if model is not None:  # every group in one batch, group 0 again alone
        from . import calib
        ests = calib.invert_many(model, phases[:, 0], phases[:, 1])
        if ests[0] != (one := calib.invert(model, *map(float, phases[0]))):
            raise ValueError("the batched inversion disagrees with the one-point "
                             f"inversion on group 0: {ests[0]} against {one}")
        cells = [e.columns() for e in ests]
        extra = {name: [c[name] for c in cells] for name in cells[0]}
    traceio.write_phase_csv(series, args.out, phases, extra_columns=extra)
    snr1, snr2 = series.snr_db
    _info(f"wrote {args.out}: {series.n_groups} groups of {series.group_size} "
          f"snapshots, snr {snr1:.1f}/{snr2:.1f} dB")
    return 0


def cmd_calibrate(args) -> int:
    from . import calib, sweeps

    if (args.config is None) == (args.from_dataset is None):
        raise ConfigError("calibrate takes one source: --config or --from-dataset")
    if args.from_dataset is not None:
        data = traceio.read_dataset(args.from_dataset)
    else:
        data = sweeps.calibration_data(load_config(args.config))
    if args.dataset is not None:
        traceio.write_dataset(data, args.dataset)
    model = calib.fit_model(data)
    traceio.write_model(model, args.out)
    worst = max(f.rms_rad for f in model.fits)
    _info(f"wrote {args.out}: {len(model.fits)} locations, worst fit rms "
          f"{math.degrees(worst):.3f} deg")
    return 0


def cmd_sweep(args) -> int:
    from . import sweeps

    if args.mode == "crosstalk" and args.trials is not None:
        raise ConfigError("--mode crosstalk takes no --trials")
    cfg = _load_seeded(args.config, args.seed)
    if args.mode == "force":
        rows, aggregates = sweeps.run_force_sweep(cfg, args.trials)
    elif args.mode == "snr":
        rows, aggregates = sweeps.run_snr_sweep(cfg, args.trials)
    else:
        rows, aggregates = sweeps.run_crosstalk(cfg)
    traceio.write_rows(args.out, sweeps.CSV_COLUMNS[args.mode], rows + aggregates)
    _info(f"wrote {args.out}: {len(rows)} trial rows, {len(aggregates)} "
          f"summary rows (mode {args.mode}, seed {cfg.noise.seed})")
    return 0


def cmd_impedance(args) -> int:
    # every failure here is a bad argument: a usage error, exit 2
    try:
        if args.target_ohm is not None:
            if args.width_mm is not None:
                raise ValueError("--target-ohm solves for the width; it takes "
                                 "no --width-mm")
            ratio = solve_width_ratio(args.target_ohm)
            if args.height_mm is not None and not 0.0 < args.height_mm < math.inf:
                raise ValueError("--height-mm must be positive and finite")
            print(f"w_over_h={ratio!r}")
            if args.height_mm is not None:
                print(f"width_mm={ratio * args.height_mm!r}")
            return 0
        if args.height_mm is None or args.width_mm is None:
            raise ValueError("impedance needs --height-mm and --width-mm, "
                             "or --target-ohm")
        z = impedance(args.height_mm, args.width_mm)
    except ValueError as e:
        raise ConfigError(str(e)) from e
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
    sim.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    sim.set_defaults(func=cmd_simulate)

    dec = sub.add_parser("decode", help="trace -> per-group phase CSV")
    dec.add_argument("--trace", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--model", default=None,
                     help="sensor model JSON; adds inversion columns")
    dec.set_defaults(func=cmd_decode)

    cal = sub.add_parser("calibrate", help="fit and write the sensor model")
    cal.add_argument("--config", default=None)
    cal.add_argument("--out", required=True)
    cal.add_argument("--dataset", default=None,
                     help="also write the raw calibration samples here")
    cal.add_argument("--from-dataset", default=None,
                     help="fit from an existing dataset JSON instead of "
                          "--config")
    cal.set_defaults(func=cmd_calibrate)

    sw = sub.add_parser("sweep", help="run a canned experiment to CSV")
    sw.add_argument("--config", required=True)
    sw.add_argument("--mode", required=True,
                    choices=("force", "snr", "crosstalk"))
    sw.add_argument("--out", required=True)
    sw.add_argument("--trials", type=int, default=None,
                    help="trials (per SNR point for snr): default the config's "
                         "sweep.trials for force, 50 for snr; at least 1 for "
                         "force, 2 for snr; crosstalk takes none")
    sw.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    sw.set_defaults(func=cmd_sweep)

    imp = sub.add_parser("impedance", help="microstrip impedance helper")
    imp.add_argument("--height-mm", type=float, default=None)
    imp.add_argument("--width-mm", type=float, default=None)
    imp.add_argument("--target-ohm", type=float, default=None,
                     help="solve for w/h, and the width given --height-mm; "
                          "takes no --width-mm")
    imp.set_defaults(func=cmd_impedance)
    return p


@contextmanager
def _sigterm_unwinds():
    """Within, SIGTERM raises SystemExit(143) as Ctrl-C raises
    KeyboardInterrupt, so cleanup (an output's temporary file) runs; the
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
