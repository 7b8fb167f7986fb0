"""Experiment engines: closed-loop trials, SNR sweeps, two-sensor isolation.

These back the sweep CLI command and are importable directly so studies and
the acceptance checks can drive them without shelling out.  All randomness
derives from one seed, the config's noise.seed unless one is passed, so a
sweep run from the library matches forcelink sweep on the same file.

A force or SNR trial reads nothing of its trace but two groups' projections
P[g, t, k] on the two read tones, so for an unquantized config the sweeps
make those projections and not the trace (the projection domain): the clean
part in closed form, a_k (G[g] r(g))_t with G decoder._gate_table, r(g) the
ports' reflections (transducer.port_reflections) and a_k the sensor path's
subcarrier phasor, plus i.i.d. CN(0, sigma^2/N_g) noise: 2 x 2 x K normals
drawn by chansim._draw from the trial's seed where the trace takes 2 N_g K.
That is exact: a group holds whole cycles of both read tones and of their
difference, so static paths cancel, the tones are orthogonal over a group
and the projected noise is independent across groups, tones and subcarriers.
Once per sweep call the closed form's projections are compared with
project_groups' of one noiseless full-path trace, whose group_phases decode
must read its phases from them by decoder.phase_against, as the projection
domain does, so a change to the reflection stage or the decode that the
closed form does not follow fails the sweep instead of drifting from it.
The projection domain makes SWEEP_CHUNK trials in one vectorised pass; only
each trial's noise draw and its press's port_reflections stay per trial.
A force sweep anchors each chunk's phases with decoder.anchor, as decode
and pressed_phases do, inverts them with one calib.invert_many call, on
either path, and a trial's row is the same bytes in any chunk.

A quantized config keeps the full path, whose quantizer's full scale spans
the whole trace: each trial's trace is _trial_trace's, decoded by
group_phases, one trial at a time; _chunk_phases picks the path.  That path
(touch_trace, pressed_phases) is also the oracle the tests hold the
projection domain to.  Neither path starts a thread or decodes through BLAS,
so no row depends on the BLAS thread count.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import calib
from .chansim import (ChannelTrace, MultipathProfile, NoiseSpec, Path,
                      TouchTimeline, _draw, _subcarrier_phasor,
                      add_second_sensor, check_added_scheme, noise_scale,
                      synthesize)
from .clocks import make_scheme
from .config import ConfigError, ExperimentConfig
from .decoder import (_gate_table, _median, _quantile, anchor, auto_group_size,
                      group_phases, phase_against, project_groups)
from .transducer import TouchEvent, port_reflections


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

# the held press of SNR trials and crosstalk's sensor 1; the projection domain's check
HELD_PRESS = TouchEvent(4.0, 40.0)
# largest gap between the projection domain's clean projections and
# project_groups' of the same noiseless trace, entry by entry, per unit of
# that trace's largest entry: project_groups rounds in proportion to it,
# about 1e-15 per unit
CLOSED_FORM_TOLERANCE = 1e-12
# trials the projection domain makes in one vectorised pass: a force sweep
# draws a chunk's presses, then runs them
SWEEP_CHUNK = 128
# groups of the crosstalk sweep's traces: 8 steps per port and victim
CROSSTALK_GROUPS = 9


def calibration_data(cfg: ExperimentConfig) -> calib.CalibrationDataset:
    """The config's calibration grid, simulated: the data calibrate fits."""
    return calib.generate_sweep(cfg.calibration.locations_mm, cfg.calibration.forces_n,
                                cfg.geometry, cfg.mechanics, cfg.waveform.carrier_hz)


def calibrate(cfg: ExperimentConfig) -> calib.SensorModel:
    """Fit the sensor model from the config's calibration grid."""
    return calib.fit_model(calibration_data(cfg))


def _trial_trace(cfg: ExperimentConfig, Ng: int,
                 touches: tuple[TouchEvent | None, TouchEvent | None],
                 noise: NoiseSpec) -> ChannelTrace:
    """The full-path trace of a two-group trial, synthesized with noise: Ng
    snapshots under touches[0] (None: open), then Ng under touches[1] from
    the group boundary on: every force and SNR trial's full-path trace."""
    return synthesize(replace(cfg.waveform, n_snapshots=2 * Ng), cfg.scheme,
                      TouchTimeline(entries=((0, touches[0]), (Ng, touches[1]))),
                      cfg.multipath, noise, cfg.geometry, cfg.mechanics)


def touch_trace(cfg: ExperimentConfig, force_n: float, location_mm: float,
                seed: int) -> ChannelTrace:
    """The full-path trace of one closed-loop trial, synthesized with noise
    seed seed: two groups of the auto size, a quiet group 0 and the press
    landing exactly on the group boundary.  The noise is drawn row-major,
    so these are the first two groups of a longer trace with the same seed,
    bit for bit (unquantized; a quantizer's full scale spans the whole
    trace)."""
    Ng = auto_group_size(cfg.waveform, cfg.scheme)
    return _trial_trace(cfg, Ng, (None, TouchEvent(force_n, location_mm)),
                        replace(cfg.noise, seed=int(seed)))


def pressed_phases(cfg: ExperimentConfig, trace: ChannelTrace) -> np.ndarray:
    """A trial trace's (touch_trace's) anchored group-1 phases (phi1, phi2):
    the pressed group against the quiet group 0, plus the open-line phase."""
    return anchor(group_phases(trace, cfg.scheme).phases[1], cfg.geometry,
                  cfg.waveform.carrier_hz)


def run_touch_trial(model: calib.SensorModel, force_n: float, location_mm: float,
                    phases: Sequence[float]) -> dict:
    """One closed-loop inversion: a trial's row from its anchored pressed-group
    phases (phi1, phi2), pressed_phases' or the projection domain's, and
    the press's truth force_n and location_mm, for the error columns."""
    return _trial_row(force_n, location_mm,
                      calib.invert(model, float(phases[0]), float(phases[1])))


def _trial_row(force_n: float, location_mm: float, est: calib.Estimate) -> dict:
    """A force trial's row: its truth, its estimate's columns and both errors."""
    return {"true_force_n": force_n, "true_location_mm": location_mm,
            **est.columns(), "force_err_n": abs(est.force_n - force_n),
            "location_err_mm": abs(est.location_mm - location_mm)}


class _ProjectionDomain:
    """Two-group trials' projections P[g, t, k], as project_groups gives them
    for their traces, made without the traces (unquantized configs only).

    Built once per sweep call, it checks its closed form against the full
    path: its projections of a quiet group and then HELD_PRESS must be
    project_groups' of that noiseless trace, entry by entry, to
    CLOSED_FORM_TOLERANCE times the trace's largest entry (a strong static
    path scales the full path's rounding up), and group_phases' decode of
    the trace must read group 1's phases as phase_against of those
    projections, bit for bit, or ValueError.
    """

    def __init__(self, cfg: ExperimentConfig, Ng: int):
        self.cfg, self.Ng = cfg, Ng
        self.gate = _gate_table(cfg.scheme, cfg.waveform.frame_period_s, Ng)
        self.phasor = _subcarrier_phasor(cfg.waveform, cfg.multipath.sensor_path)
        P0, P1 = self.clean(None, (HELD_PRESS,))
        trace = _trial_trace(cfg, Ng, (None, HELD_PRESS), NoiseSpec())
        full = project_groups(trace.data, cfg.scheme.read_freqs,
                              cfg.waveform.frame_period_s, Ng)
        gap = float(np.abs(np.stack([P0, P1[0]]) - full).max())
        tol = CLOSED_FORM_TOLERANCE * float(np.abs(trace.data).max())
        decoded = group_phases(trace, cfg.scheme, Ng).phases[1]
        if not (gap <= tol and (decoded == phase_against(full[1], full[0])).all()):
            raise ValueError(  # a NaN gap fails too
                "the projection domain disagrees with the full-path decode of a "
                f"noiseless trial: projections by {gap:.3g} (at most {tol:.3g}), "
                f"decoded phases {decoded} against {phase_against(full[1], full[0])}")

    def clean(self, touch0: TouchEvent | None, touches1: Sequence[TouchEvent | None]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Noiseless projections of group 0 under touch0, (2, K), and of group
        1 under each of touches1, (n, 2, K) (None: open): one port_reflections
        per distinct touch, then one broadcast."""
        cfg = self.cfg
        r = {t: port_reflections(t, cfg.mechanics, cfg.geometry, cfg.waveform.carrier_hz)
             for t in dict.fromkeys((touch0, *touches1))}
        e = np.array([r[t] for t in (touch0, *touches1)])
        tones0 = (self.gate[0] * e[0]).sum(axis=-1)
        tones1 = (self.gate[1] * e[1:, None, :]).sum(axis=-1)
        return tones0[:, None] * self.phasor, tones1[..., None] * self.phasor

    def phases(self, touch0: TouchEvent | None, touches1: Sequence[TouchEvent | None],
               snrs: Sequence[float | None], seeds: Sequence[int]) -> np.ndarray:
        """(n, 2) phases of group 1 against group 0 of n trials, as
        group_phases takes them, phase_against(P[1], P[0]): trial i's P is
        clean(touch0, touches1)'s plus default_rng(seeds[i])'s projected
        noise at snrs[i], drawn into the trial's own (2, 2, K) row in
        project_groups' (g, t, k) order with re, im innermost; the clean
        projections alone for an SNR of None.  A trial's row is the same
        bytes in any chunk."""
        clean0, clean1 = self.clean(touch0, touches1)
        noise = np.empty((len(seeds), 2) + clean0.shape, dtype=complex)
        for row, snr, seed in zip(noise, snrs, seeds):
            scale = noise_scale(self.cfg.multipath.sensor_path, snr)
            if scale is None:  # x + -0.0 is x, a signed zero too: clean unchanged
                row[...] = complex(-0.0, -0.0)
            else:
                _draw(np.random.default_rng(int(seed)), scale / math.sqrt(self.Ng), row)
        return phase_against(noise[:, 1] + clean1, noise[:, 0] + clean0)


def _chunk_phases(cfg: ExperimentConfig, Ng: int):
    """The sweeps' one choice of path: the function giving a chunk's (n, 2)
    phases of group 1 against group 0, as _ProjectionDomain.phases does.
    Unquantized, that method (its check made here); quantized, group_phases
    of each trial's _trial_trace with NoiseSpec(snrs[i], seeds[i], bits)."""
    if cfg.noise.quantize_bits is None:
        return _ProjectionDomain(cfg, Ng).phases

    def full_path(touch0, touches1, snrs, seeds) -> np.ndarray:
        return np.array([group_phases(_trial_trace(
            cfg, Ng, (touch0, t), NoiseSpec(snr, int(seed), cfg.noise.quantize_bits)),
            cfg.scheme, Ng).phases[1] for t, snr, seed in zip(touches1, snrs, seeds)])
    return full_path


def run_force_sweep(cfg: ExperimentConfig, trials: int | None = None,
                    seed: int | None = None) -> tuple[list[dict], list[dict]]:
    """Monte-Carlo closed loop over random presses; per-trial and summary rows.

    Presses (forces over the model's calibrated range, locations from
    cfg.sweep.test_locations_mm) and trial seeds are drawn from seed,
    cfg.noise.seed for None, a chunk of SWEEP_CHUNK trials at a time and in
    a serial loop's order (each trial's force, location, then seed), so a
    long sweep starts at once and holds only its rows and one chunk.  Trial
    i's row is run_touch_trial's for its anchored pressed-group phases, one
    _chunk_phases call a chunk: for a quantized config pressed_phases of
    touch_trace(cfg, F_i, l_i, seed_i), bit for bit; otherwise the
    projection domain's, the quiet group's and each press's clean
    projections plus seed_i's projected noise.  Each chunk's phases are
    inverted in one calib.invert_many call; trial 0 is inverted once more
    through run_touch_trial, and a batch row that differs from it raises
    ValueError.  The median and p90 rows are np.median's and np.quantile's,
    bit for bit.
    """
    trials = trials if trials is not None else cfg.sweep.trials
    if trials < 1:
        raise ConfigError(f"a force sweep needs at least 1 trial, got {trials}")
    model = calibrate(cfg)
    rng = np.random.default_rng(cfg.noise.seed if seed is None else seed)
    f_lo, f_hi = model.force_range_n
    locations = cfg.sweep.test_locations_mm
    Ng = auto_group_size(cfg.waveform, cfg.scheme)
    phases = _chunk_phases(cfg, Ng)
    rows = []
    for start in range(0, trials, SWEEP_CHUNK):
        # locations[integers(n)] is rng.choice(locations)'s stream, at a fifth the cost
        presses = [(float(rng.uniform(f_lo, f_hi)),
                    float(locations[int(rng.integers(len(locations)))]),
                    int(rng.integers(0, 2 ** 62)))
                   for _ in range(min(SWEEP_CHUNK, trials - start))]
        p = phases(None, [TouchEvent(F, loc) for F, loc, _ in presses],
                   [cfg.noise.snr_db] * len(presses), [s for _, _, s in presses])
        p = anchor(p, cfg.geometry, cfg.waveform.carrier_hz)
        chunk = [_trial_row(F, loc, est) for (F, loc, _), est in
                 zip(presses, calib.invert_many(model, p[:, 0], p[:, 1]))]
        if start == 0:  # trial 0 again, by run_touch_trial's one-point invert
            one = run_touch_trial(model, *presses[0][:2], p[0])
            if chunk[0] != one:
                raise ValueError("the batched inversion disagrees with the one-point "
                                 f"inversion on trial 0: {chunk[0]} against {one}")
        rows += [{**r, "kind": "trial", "trial": i} for i, r in enumerate(chunk, start)]
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

    snr_db is one SNR for every seed, or one per seed.  A trial holds two
    groups of the auto size, both pressed by HELD_PRESS; a chunk of
    SWEEP_CHUNK rows is one _chunk_phases call.  For a quantized config row
    i is bit for bit the decode of synthesize's trace with NoiseSpec(snr_db
    (or its i-th entry), seeds[i], quantize_bits); otherwise the projection
    domain's, the held press's clean projections plus each seed's projected
    noise.  The config is checked even for no seeds.
    """
    snrs = [snr_db] * len(seeds) if np.ndim(snr_db) == 0 else list(snr_db)
    if len(snrs) != len(seeds):
        raise ValueError(f"{len(snrs)} SNRs for {len(seeds)} seeds")
    Ng = auto_group_size(cfg.waveform, cfg.scheme)
    phases, errs = _chunk_phases(cfg, Ng), np.empty((len(seeds), 2))
    for start in range(0, len(seeds), SWEEP_CHUNK):
        chunk = slice(start, start + SWEEP_CHUNK)
        errs[chunk] = phases(HELD_PRESS, [HELD_PRESS] * len(errs[chunk]),
                             snrs[chunk], seeds[chunk])
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


def run_crosstalk(cfg: ExperimentConfig,
                  seed: int | None = None) -> tuple[list[dict], list[dict]]:
    """Two co-channel sensors; how much one's steps leak into the other.

    Sensor 1 holds HELD_PRESS; sensor 2, 0.7 m further, runs at second_f_s_hz
    with a force staircase (a realistic slew, about half a newton per group).
    Each is the victim in turn: crosstalk is the difference between its
    decode with and without the other present, computed on traces sharing
    the identical noise realization (seeded by seed, cfg.noise.seed for
    None) so only the interference remains.
    """
    try:  # before any trace is made: a clock that cannot join is a config error
        scheme2 = make_scheme(cfg.sweep.second_f_s_hz)
        check_added_scheme(cfg.waveform, (cfg.scheme,), scheme2)
        Ng = auto_group_size(cfg.waveform, (cfg.scheme, scheme2))
    except ValueError as e:
        raise ConfigError(f"bad sweep.second_f_s_hz {cfg.sweep.second_f_s_hz}: "
                          f"{e}") from e
    wf = replace(cfg.waveform, n_snapshots=CROSSTALK_GROUPS * Ng)
    noise = cfg.noise if seed is None else replace(cfg.noise, seed=seed)
    path2 = Path(amplitude=cfg.multipath.sensor_path.amplitude,
                 distance_m=cfg.multipath.sensor_path.distance_m + 0.7)
    held = TouchTimeline.constant(HELD_PRESS)
    ramp = TouchTimeline(entries=tuple((g * Ng, TouchEvent(1.0 + g * 0.5, 30.0))
                                       for g in range(CROSSTALK_GROUPS)))

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
