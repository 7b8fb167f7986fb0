"""Experiment engines: closed-loop trials, SNR sweeps, two-sensor isolation.

These back the sweep CLI command and are importable directly so studies and
the acceptance checks can drive them without shelling out.  All randomness
derives from one seed.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import calib
from .chansim import (MultipathProfile, NoiseSpec, Path, TouchTimeline,
                      WaveformConfig, add_second_sensor, synthesize)
from .clocks import make_scheme
from .config import ConfigError, ExperimentConfig
from .decoder import anchor, auto_group_size, group_phases, resolve_group_size
from .transducer import ShortingState, TouchEvent, port_phases


def calibrate(cfg: ExperimentConfig) -> calib.SensorModel:
    """Fit the sensor model from the config's calibration grid."""
    data = calib.generate_sweep(cfg.calibration.locations_mm,
                                cfg.calibration.forces_n,
                                cfg.geometry, cfg.mechanics,
                                cfg.waveform.carrier_hz)
    return calib.fit_model(data)


def no_touch_phase(cfg: ExperimentConfig):
    return port_phases(ShortingState.open(), cfg.geometry, cfg.waveform.carrier_hz)


def run_touch_trial(cfg: ExperimentConfig, model: calib.SensorModel,
                    force_n: float, location_mm: float, seed: int) -> dict:
    """One closed-loop pass: simulate a press, decode it, invert the phases.

    The trace holds one quiet lead group followed by two touched groups; the
    press lands exactly on the group boundary.  The final group's anchored
    phases feed the inversion.
    """
    Ng = resolve_group_size(cfg.waveform, cfg.scheme, cfg.group_size)
    wf = replace(cfg.waveform, n_snapshots=3 * Ng)
    timeline = TouchTimeline(entries=(
        (0, None), (Ng, TouchEvent(force_n=force_n, location_mm=location_mm))))
    noise = replace(cfg.noise, seed=int(seed))
    trace = synthesize(wf, cfg.scheme, timeline, cfg.multipath, noise,
                       cfg.geometry, cfg.mechanics)
    phi1, phi2 = anchor(group_phases(trace, cfg.scheme, Ng), no_touch_phase(cfg))[-1]
    est = calib.invert(model, float(phi1), float(phi2))
    return {"true_force_n": force_n, "true_location_mm": location_mm,
            "est_force_n": est.force_n, "est_location_mm": est.location_mm,
            "force_err_n": abs(est.force_n - force_n),
            "location_err_mm": abs(est.location_mm - location_mm),
            "residual_rad2": est.residual_rad2,
            "reliable": est.reliable}


def run_force_sweep(cfg: ExperimentConfig, trials: int | None = None,
                    seed: int = 0) -> tuple[list[dict], list[dict]]:
    """Monte-Carlo closed loop over random presses; per-trial and summary rows."""
    trials = trials if trials is not None else cfg.sweep.trials
    if trials < 1:
        raise ConfigError(f"a force sweep needs at least 1 trial, got {trials}")
    model = calibrate(cfg)
    rng = np.random.default_rng(seed)
    f_lo, f_hi = cfg.sweep.force_range_n
    locations = cfg.sweep.test_locations_mm
    rows = []
    for i in range(trials):
        F = float(rng.uniform(f_lo, f_hi))
        loc = float(rng.choice(locations))
        trial_seed = int(rng.integers(0, 2 ** 62))
        r = run_touch_trial(cfg, model, F, loc, trial_seed)
        r["kind"] = "trial"
        r["trial"] = i
        rows.append(r)
    f_err = np.array([r["force_err_n"] for r in rows])
    l_err = np.array([r["location_err_mm"] for r in rows])
    aggregates = [
        {"kind": "median", "force_err_n": float(np.median(f_err)),
         "location_err_mm": float(np.median(l_err))},
        {"kind": "p90", "force_err_n": float(np.quantile(f_err, 0.9)),
         "location_err_mm": float(np.quantile(l_err, 0.9))},
    ]
    return rows, aggregates


def measure_step_errors(cfg: ExperimentConfig, snr_db: float | None,
                        seed: int) -> tuple[float, float]:
    """Decoded dphi for a held press (truth is zero); one value per port, rad.

    The trace holds two groups of cfg.group_size (auto for None) snapshots.
    """
    Ng = resolve_group_size(cfg.waveform, cfg.scheme, cfg.group_size)
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    timeline = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    noise = NoiseSpec(snr_db=snr_db, seed=int(seed),
                      quantize_bits=cfg.noise.quantize_bits)
    trace = synthesize(wf, cfg.scheme, timeline, cfg.multipath, noise,
                       cfg.geometry, cfg.mechanics)
    d1, d2 = group_phases(trace, cfg.scheme, Ng).steps[0]
    return float(d1), float(d2)


def run_snr_sweep(cfg: ExperimentConfig, trials: int | None = None,
                  seed: int = 0) -> tuple[list[dict], list[dict]]:
    """Phase-error spread versus SNR for a held press, over cfg.sweep.snr_grid_db.

    The press phase is constant, so each decoded step is pure error; its
    standard deviation over seeds (trials per point, 50 for None) is the
    per-group phase noise.
    """
    trials = trials if trials is not None else 50
    if trials < 2:
        raise ConfigError("an SNR sweep needs at least 2 trials per point for a "
                          f"spread, got {trials}")
    rng = np.random.default_rng(seed)
    rows, aggregates = [], []
    for snr in cfg.sweep.snr_grid_db:
        errs = []
        for i in range(trials):
            e1, e2 = measure_step_errors(cfg, snr, int(rng.integers(0, 2 ** 62)))
            errs.append((e1, e2))
            rows.append({"kind": "trial", "snr_db": snr, "trial": i,
                         "dphi1_deg": math.degrees(e1),
                         "dphi2_deg": math.degrees(e2)})
        arr = np.degrees(np.array(errs))
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
                  seed: int = 0) -> tuple[list[dict], list[dict]]:
    """Two co-channel sensors; how much one's steps leak into the other.

    Sensor 2 runs at cfg.sweep.second_f_s_hz with a force staircase (a
    realistic slew, about half a newton per group); the victim holds a
    constant press.  Crosstalk is the difference between the victim's decode
    with and without the interferer present, computed on traces sharing the
    identical noise realization so only the interference remains.
    """
    scheme1 = cfg.scheme
    scheme2 = make_scheme(cfg.sweep.second_f_s_hz)
    Ng = auto_group_size(cfg.waveform, (scheme1, scheme2))
    wf = replace(cfg.waveform, n_snapshots=n_groups * Ng)
    noise = replace(cfg.noise, seed=seed)
    path2 = Path(amplitude=cfg.multipath.sensor_path.amplitude,
                 distance_m=cfg.multipath.sensor_path.distance_m + 0.7)
    held = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    ramp = _staircase_timeline(Ng, n_groups, 30.0, 1.0, 0.5)

    rows = []
    for victim, v_scheme in ((1, scheme1), (2, scheme2)):
        if victim == 1:
            solo = synthesize(wf, scheme1, held, cfg.multipath, noise,
                              cfg.geometry, cfg.mechanics)
            pair = add_second_sensor(solo, scheme2, ramp, path2,
                                     cfg.geometry, cfg.mechanics)
        else:
            mp2 = MultipathProfile(paths=cfg.multipath.paths, sensor_path=path2)
            solo = synthesize(wf, scheme2, ramp, mp2, noise,
                              cfg.geometry, cfg.mechanics)
            pair = add_second_sensor(solo, scheme1, held,
                                     cfg.multipath.sensor_path,
                                     cfg.geometry, cfg.mechanics)
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
                           "median_crosstalk_deg": float(np.median(vals))})
    return rows, aggregates
