"""Experiment engines: closed-loop trials, SNR sweeps, two-sensor isolation.

These back the sweep CLI command and are importable directly so studies and
the acceptance checks can drive them without shelling out.  All randomness
derives from one seed, the config's noise.seed unless one is passed, so a
sweep run from the library matches forcelink sweep on the same file.

The force and SNR sweeps get their traces from chansim.noisy_traces, which
draws the next trials' seeded noise on a second core while this thread
decodes (and, for a force trial, inverts) the current one, and has this
thread draw too whenever it would otherwise wait; every trace is bit for bit
the one synthesize makes with that trial's seed, and no row depends on the
BLAS thread count, since the decode makes no BLAS call.  SNR trials vary
only the noise, so measure_step_errors makes the group size and the
held-press noiseless trace once per call and adds each seed's noise to it,
and run_snr_sweep measures its whole grid in one call: one noiseless trace
and one pass of noisy_traces per sweep.
"""
from __future__ import annotations

import itertools
import math
from contextlib import closing
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import calib
from .chansim import (ChannelTrace, MultipathProfile, NoiseSpec, Path,
                      TouchTimeline, add_second_sensor, noiseless_blocks,
                      noisy_traces, synthesize)
from .clocks import make_scheme
from .config import ConfigError, ExperimentConfig
from .decoder import (_median, _quantile, anchor, auto_group_size, group_phases,
                      resolve_group_size)
from .transducer import ShortingState, TouchEvent, port_phases


# each sweep mode's CSV columns, in order; a row leaves blank what it lacks
CSV_COLUMNS = {
    "force": ("kind", "trial", "true_force_n", "true_location_mm",
              "est_force_n", "est_location_mm", "force_err_n",
              "location_err_mm", "residual_rad2", "reliable"),
    "snr": ("kind", "snr_db", "trial", "dphi1_deg", "dphi2_deg",
            "phase_std1_deg", "phase_std2_deg"),
    "crosstalk": ("kind", "victim_sensor", "port", "group", "crosstalk_deg",
                  "max_crosstalk_deg", "median_crosstalk_deg"),
}


def calibration_data(cfg: ExperimentConfig) -> calib.CalibrationDataset:
    """The config's calibration grid, simulated: the data calibrate fits."""
    return calib.generate_sweep(cfg.calibration.locations_mm,
                                cfg.calibration.forces_n,
                                cfg.geometry, cfg.mechanics,
                                cfg.waveform.carrier_hz)


def calibrate(cfg: ExperimentConfig) -> calib.SensorModel:
    """Fit the sensor model from the config's calibration grid."""
    return calib.fit_model(calibration_data(cfg))


def no_touch_phase(cfg: ExperimentConfig):
    return port_phases(ShortingState.open(), cfg.geometry, cfg.waveform.carrier_hz)


def _press_timeline(Ng: int, force_n: float, location_mm: float) -> TouchTimeline:
    """One quiet lead group, then the press from the group boundary on."""
    return TouchTimeline(entries=(
        (0, None), (Ng, TouchEvent(force_n=force_n, location_mm=location_mm))))


def touch_trace(cfg: ExperimentConfig, force_n: float, location_mm: float,
                seed: int) -> ChannelTrace:
    """The trace of one closed-loop trial, synthesized with noise seed seed:
    two groups of cfg.group_size (auto for None) snapshots, a quiet group 0
    and the press landing exactly on the group boundary.  The noise is drawn
    row-major, so these are the first two groups of a longer trace with the
    same seed, bit for bit (unquantized; a quantizer's full scale spans the
    whole trace)."""
    Ng = resolve_group_size(cfg.waveform, cfg.scheme, cfg.group_size)
    return synthesize(replace(cfg.waveform, n_snapshots=2 * Ng), cfg.scheme,
                      _press_timeline(Ng, force_n, location_mm), cfg.multipath,
                      replace(cfg.noise, seed=int(seed)), cfg.geometry, cfg.mechanics)


def run_touch_trial(cfg: ExperimentConfig, model: calib.SensorModel,
                    force_n: float, location_mm: float, trace: ChannelTrace) -> dict:
    """One closed-loop pass over a trial's trace (touch_trace's, or one
    run_force_sweep made the same way): decode it, invert the phases.

    Group 1's anchored phases, the pressed group against the quiet group 0,
    feed the inversion; force_n and location_mm are the press's truth, for
    the error columns.
    """
    series = group_phases(trace, cfg.scheme, cfg.group_size)
    phi1, phi2 = anchor(series, no_touch_phase(cfg))[1]
    est = calib.invert(model, float(phi1), float(phi2))
    return {"true_force_n": force_n, "true_location_mm": location_mm,
            **est.columns(), "force_err_n": abs(est.force_n - force_n),
            "location_err_mm": abs(est.location_mm - location_mm)}


def run_force_sweep(cfg: ExperimentConfig, trials: int | None = None,
                    seed: int | None = None) -> tuple[list[dict], list[dict]]:
    """Monte-Carlo closed loop over random presses; per-trial and summary rows.

    Presses and trial seeds are drawn from seed, cfg.noise.seed for None,
    one trial at a time as the trials need them: each trial's force,
    location, then seed, so a long sweep starts at once and holds only the
    presses drawn ahead.
    Trial i's row is run_touch_trial of touch_trace(cfg, F_i, l_i, seed_i),
    bit for bit: a quiet group and one pressed group, as no trial reads a
    second pressed group.  The traces come from chansim.noisy_traces, which
    draws the next trials' noise while this one decodes and inverts.  The
    median and p90 rows are np.median's and np.quantile's, bit for bit.
    """
    trials = trials if trials is not None else cfg.sweep.trials
    if trials < 1:
        raise ConfigError(f"a force sweep needs at least 1 trial, got {trials}")
    model = calibrate(cfg)
    rng = np.random.default_rng(cfg.noise.seed if seed is None else seed)
    f_lo, f_hi = cfg.sweep.force_range_n
    locations = cfg.sweep.test_locations_mm
    Ng = resolve_group_size(cfg.waveform, cfg.scheme, cfg.group_size)
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    # one lazy draw per trial, read by the jobs and again for the rows' truth
    presses, truth = itertools.tee(
        (float(rng.uniform(f_lo, f_hi)), float(rng.choice(locations)),
         int(rng.integers(0, 2 ** 62))) for _ in range(trials))
    jobs = ((noiseless_blocks(wf, cfg.scheme, _press_timeline(Ng, F, loc),
                              cfg.multipath, cfg.geometry, cfg.mechanics),
             replace(cfg.noise, seed=s)) for F, loc, s in presses)
    rows = []
    with closing(noisy_traces(jobs, wf, cfg.multipath.sensor_path, (cfg.scheme,),
                              cfg.geometry)) as traces:
        for i, ((F, loc, _), trace) in enumerate(zip(truth, traces)):
            r = run_touch_trial(cfg, model, F, loc, trace)
            r["kind"] = "trial"
            r["trial"] = i
            rows.append(r)
    f_err = np.array([r["force_err_n"] for r in rows])
    l_err = np.array([r["location_err_mm"] for r in rows])
    aggregates = [
        {"kind": "median", "force_err_n": float(_median(f_err)),
         "location_err_mm": float(_median(l_err))},
        {"kind": "p90", "force_err_n": _quantile(f_err, 0.9),
         "location_err_mm": _quantile(l_err, 0.9)},
    ]
    return rows, aggregates


def measure_step_errors(cfg: ExperimentConfig,
                        snr_db: float | None | Sequence[float | None],
                        seeds: Sequence[int]) -> np.ndarray:
    """Decoded dphi for a held press (truth is zero), rad: one row per seed,
    one column per port; an empty seeds gives a (0, 2) array.

    snr_db is one SNR for every seed, or one per seed.  The trace holds two
    groups of cfg.group_size (auto for None) snapshots.  Row i is bit for
    bit the decode of synthesize's trace with NoiseSpec(snr_db (or its
    i-th entry), seeds[i], cfg.noise.quantize_bits).  Only the noise differs
    between seeds, so the group size and the noiseless trace are made once
    per call (the config is checked even for no seeds); each seed then gets
    its trace from chansim.noisy_traces over that noiseless trace.
    """
    snrs = [snr_db] * len(seeds) if np.ndim(snr_db) == 0 else list(snr_db)
    if len(snrs) != len(seeds):
        raise ValueError(f"{len(snrs)} SNRs for {len(seeds)} seeds")
    Ng = resolve_group_size(cfg.waveform, cfg.scheme, cfg.group_size)
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    clean = synthesize(wf, cfg.scheme, TouchTimeline.constant(TouchEvent(4.0, 40.0)),
                       cfg.multipath, NoiseSpec(), cfg.geometry, cfg.mechanics)
    jobs = (((clean.data,), NoiseSpec(snr, int(seed), cfg.noise.quantize_bits))
            for snr, seed in zip(snrs, seeds))
    errs = np.empty((len(seeds), 2))
    with closing(noisy_traces(jobs, wf, cfg.multipath.sensor_path, clean.schemes,
                              clean.geometry)) as traces:
        for i, trace in enumerate(traces):
            errs[i] = group_phases(trace, cfg.scheme, Ng).steps[0]
    return errs


def run_snr_sweep(cfg: ExperimentConfig, trials: int | None = None,
                  seed: int | None = None) -> tuple[list[dict], list[dict]]:
    """Phase-error spread versus SNR for a held press, over cfg.sweep.snr_grid_db.

    The press phase is constant, so each decoded step is pure error; its
    standard deviation over seeds (trials per point, 50 for None) is the
    per-group phase noise.  The seeds are drawn from seed (cfg.noise.seed
    for None), a point's trials after the previous point's, and the whole
    grid is measured in one measure_step_errors call.
    """
    trials = trials if trials is not None else 50
    if trials < 2:
        raise ConfigError("an SNR sweep needs at least 2 trials per point for a "
                          f"spread, got {trials}")
    rng = np.random.default_rng(cfg.noise.seed if seed is None else seed)
    grid = cfg.sweep.snr_grid_db
    seeds = [int(rng.integers(0, 2 ** 62)) for _ in range(trials * len(grid))]
    errs = measure_step_errors(cfg, [snr for snr in grid for _ in range(trials)],
                               seeds)
    rows, aggregates = [], []
    for snr, point in zip(grid, errs.reshape(len(grid), trials, 2)):
        for i, (e1, e2) in enumerate(point.tolist()):
            rows.append({"kind": "trial", "snr_db": snr, "trial": i,
                         "dphi1_deg": math.degrees(e1),
                         "dphi2_deg": math.degrees(e2)})
        arr = np.degrees(point)
        aggregates.append({"kind": "aggregate", "snr_db": snr,
                           "phase_std1_deg": float(arr[:, 0].std(ddof=1)),
                           "phase_std2_deg": float(arr[:, 1].std(ddof=1))})
    return rows, aggregates


def snr_meeting_threshold(aggregates: list[dict], threshold_deg: float) -> float | None:
    """Lowest swept SNR whose worse-port phase std is at or under threshold."""
    for row in sorted(aggregates, key=lambda r: r["snr_db"]):
        worst = max(row["phase_std1_deg"], row["phase_std2_deg"])
        if worst <= threshold_deg:
            return row["snr_db"]
    return None


def _staircase_timeline(Ng: int, n_groups: int, location_mm: float,
                        f_start: float, f_step: float) -> TouchTimeline:
    entries = [(0, TouchEvent(f_start, location_mm))]
    for g in range(1, n_groups):
        entries.append((g * Ng, TouchEvent(f_start + g * f_step, location_mm)))
    return TouchTimeline(entries=tuple(entries))


def run_crosstalk(cfg: ExperimentConfig, n_groups: int = 9,
                  seed: int | None = None) -> tuple[list[dict], list[dict]]:
    """Two co-channel sensors; how much one's steps leak into the other.

    Sensor 1 holds a press; sensor 2, 0.7 m further, runs at second_f_s_hz
    with a force staircase (a realistic slew, about half a newton per group).
    Each is the victim in turn: crosstalk is the difference between its
    decode with and without the other present, computed on traces sharing
    the identical noise realization (seeded by seed, cfg.noise.seed for
    None) so only the interference remains.
    """
    scheme2 = make_scheme(cfg.sweep.second_f_s_hz)
    Ng = auto_group_size(cfg.waveform, (cfg.scheme, scheme2))
    wf = replace(cfg.waveform, n_snapshots=n_groups * Ng)
    noise = cfg.noise if seed is None else replace(cfg.noise, seed=seed)
    path2 = Path(amplitude=cfg.multipath.sensor_path.amplitude,
                 distance_m=cfg.multipath.sensor_path.distance_m + 0.7)
    held = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    ramp = _staircase_timeline(Ng, n_groups, 30.0, 1.0, 0.5)

    sensors = ((cfg.scheme, held, cfg.multipath.sensor_path), (scheme2, ramp, path2))
    rows = []
    for victim, ((v_scheme, v_timeline, v_path), aggressor) in enumerate(
            zip(sensors, sensors[::-1]), start=1):
        mp = MultipathProfile(paths=cfg.multipath.paths, sensor_path=v_path)
        solo = synthesize(wf, v_scheme, v_timeline, mp, noise,
                          cfg.geometry, cfg.mechanics)
        pair = add_second_sensor(solo, *aggressor, cfg.geometry, cfg.mechanics)
        leak = (group_phases(pair, v_scheme, Ng).steps
                - group_phases(solo, v_scheme, Ng).steps)
        for (g, t), d in np.ndenumerate(leak):
            rows.append({"kind": "trial", "victim_sensor": victim,
                         "port": t + 1, "group": g,
                         "crosstalk_deg": math.degrees(abs(d))})
    aggregates = []
    for victim in (1, 2):
        vals = np.array([r["crosstalk_deg"] for r in rows
                         if r["victim_sensor"] == victim])
        aggregates.append({"kind": "aggregate", "victim_sensor": victim,
                           "max_crosstalk_deg": float(vals.max()),
                           "median_crosstalk_deg": float(_median(vals))})
    return rows, aggregates
