"""Experiment engines: closed-loop trials, SNR sweeps, crosstalk isolation."""
import math
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace

import numpy as np
import pytest

from forcelink import calib, chansim, sweeps
from forcelink.chansim import NoiseSpec, TouchTimeline, synthesize
from forcelink.decoder import anchor, group_phases
from forcelink.sweeps import (calibrate, measure_step_errors, no_touch_phase,
                              run_crosstalk, run_force_sweep, run_snr_sweep,
                              run_touch_trial, snr_meeting_threshold,
                              touch_trace)
from forcelink.transducer import ShortingState, TouchEvent, port_phases

from conftest import traced_peak


def with_grid(cfg, *snr_db):
    return replace(cfg, sweep=replace(cfg.sweep, snr_grid_db=snr_db))


@pytest.fixture(scope="module")
def model(default_cfg):
    return calibrate(default_cfg)


def test_calibrate_uses_config_grid(default_cfg, model):
    assert tuple(model.locations()) == default_cfg.calibration.locations_mm
    assert model.force_range_n == (1.0, 8.0)
    assert model.carrier_hz == default_cfg.waveform.carrier_hz


def test_no_touch_phase_matches_transducer(default_cfg):
    want = port_phases(ShortingState.open(), default_cfg.geometry,
                       default_cfg.waveform.carrier_hz)
    got = no_touch_phase(default_cfg)
    assert got.phi1 == want.phi1 and got.phi2 == want.phi2


def test_run_touch_trial_is_deterministic(default_cfg, model):
    def trial(seed):
        trace = touch_trace(default_cfg, 3.0, 45.0, seed=seed)
        return run_touch_trial(default_cfg, model, 3.0, 45.0, trace)
    r1 = trial(42)
    r2 = trial(42)
    assert r1 == r2
    assert set(r1) == {"true_force_n", "true_location_mm", "est_force_n",
                       "est_location_mm", "force_err_n", "location_err_mm",
                       "residual_rad2", "reliable"}
    assert str(r1["reliable"]) == "1"  # as the force-sweep CSV writes it
    assert r1["force_err_n"] < 0.2
    assert r1["location_err_mm"] < 0.5
    r3 = trial(43)
    assert r3["est_force_n"] != r1["est_force_n"]


def test_touch_trace_holds_a_quiet_group_then_the_press(default_cfg):
    trace = touch_trace(default_cfg, 3.0, 45.0, seed=42)
    wf = replace(default_cfg.waveform, n_snapshots=2 * 625)
    timeline = TouchTimeline(entries=((0, None), (625, TouchEvent(3.0, 45.0))))
    want = synthesize(wf, default_cfg.scheme, timeline, default_cfg.multipath,
                      replace(default_cfg.noise, seed=42), default_cfg.geometry,
                      default_cfg.mechanics)
    assert trace.data.tobytes() == want.data.tobytes()


def test_run_force_sweep_structure(default_cfg):
    rows, aggregates = run_force_sweep(default_cfg, trials=10, seed=1)
    assert [r["trial"] for r in rows] == list(range(10))
    assert all(r["kind"] == "trial" for r in rows)
    assert all(r["true_location_mm"] in default_cfg.sweep.test_locations_mm
               for r in rows)
    kinds = [a["kind"] for a in aggregates]
    assert kinds == ["median", "p90"]
    assert aggregates[0]["force_err_n"] < 0.3
    assert aggregates[0]["location_err_mm"] < 0.6
    # the summary rows are numpy's, bit for bit
    for key in ("force_err_n", "location_err_mm"):
        errs = np.array([r[key] for r in rows])
        assert [a[key] for a in aggregates] == [float(np.median(errs)),
                                                float(np.quantile(errs, 0.9))]


def test_run_force_sweep_leaves_numpy_ma_unimported():
    # np.median and np.quantile import numpy.ma (12-15 ms) on their first
    # call in a process, inside the timed sweep
    script = textwrap.dedent("""
        import sys
        from forcelink.config import parse_config
        from forcelink.sweeps import run_force_sweep
        run_force_sweep(parse_config({}), trials=3, seed=1)
        print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
    """)
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


GRID = [pytest.mark.parametrize("K", [1, 64]),
        pytest.mark.parametrize("group_size", [None, 1250], ids=["auto", "1250"]),
        pytest.mark.parametrize("bits", [None, 10], ids=["float", "10bit"]),
        pytest.mark.parametrize("snr_db", [None, 0.0, 25.0],
                                ids=["noiseless", "0dB", "25dB"])]


def on_grid(test):
    """The GRID marks stacked as decorators, in that order."""
    for mark in reversed(GRID):
        test = mark(test)
    return test


def grid_cfg(cfg, snr_db, bits, group_size, K):
    return replace(cfg, group_size=group_size,
                   noise=replace(cfg.noise, snr_db=snr_db, quantize_bits=bits),
                   waveform=replace(cfg.waveform, n_subcarriers=K))


@on_grid
def test_run_force_sweep_rows_match_one_synthesis_per_trial(default_cfg, snr_db,
                                                             bits, group_size, K):
    # the next trials' noise is drawn while this one decodes; every row must
    # still be the serial decode and inversion of synthesize's trace for
    # that trial's press and seed, bit for bit.  That trace is a quiet group
    # and one pressed group; the noise is drawn row-major, so unquantized it
    # is the first two groups of the three-group trace with the same seed,
    # and the row inverts that trace's group-1 phases.  A quantizer's full
    # scale spans the whole trace, so the 10-bit cases differ between two
    # and three groups and are left out of that check on purpose
    cfg = grid_cfg(default_cfg, snr_db, bits, group_size, K)
    rows, _ = run_force_sweep(cfg, trials=3, seed=5)
    rng = np.random.default_rng(5)
    Ng = group_size or 625
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    model = calibrate(cfg)
    for i, row in enumerate(rows):
        F = float(rng.uniform(*cfg.sweep.force_range_n))
        loc = float(rng.choice(cfg.sweep.test_locations_mm))
        seed = int(rng.integers(0, 2 ** 62))
        timeline = TouchTimeline(entries=((0, None), (Ng, TouchEvent(F, loc))))
        trace = synthesize(wf, cfg.scheme, timeline, cfg.multipath,
                           NoiseSpec(snr_db, seed, bits), cfg.geometry, cfg.mechanics)
        assert row == {**run_touch_trial(cfg, model, F, loc, trace),
                       "kind": "trial", "trial": i}
        if bits is None:
            longer = synthesize(replace(wf, n_snapshots=3 * Ng), cfg.scheme, timeline,
                                cfg.multipath, NoiseSpec(snr_db, seed), cfg.geometry,
                                cfg.mechanics)
            phi1, phi2 = anchor(group_phases(longer, cfg.scheme, cfg.group_size),
                                no_touch_phase(cfg))[1]
            est = calib.invert(model, float(phi1), float(phi2))
            assert (row["est_force_n"], row["est_location_mm"], row["residual_rad2"],
                    row["reliable"]) == (est.force_n, est.location_mm,
                                         est.residual_rad2, est.reliable)


def test_sweeps_leave_no_thread_behind(default_cfg, monkeypatch):
    # the noise helper is joined on a full sweep, on no seeds, and when the
    # consumer raises mid-sweep
    baseline = threading.active_count()
    run_force_sweep(default_cfg, trials=3, seed=1)
    assert threading.active_count() == baseline
    assert measure_step_errors(default_cfg, 10.0, []).shape == (0, 2)
    assert threading.active_count() == baseline
    trial, calls = sweeps.run_touch_trial, []

    def fails_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("consumer failed")
        return trial(*args)
    monkeypatch.setattr(sweeps, "run_touch_trial", fails_second)
    with pytest.raises(RuntimeError, match="consumer failed"):
        run_force_sweep(default_cfg, trials=5, seed=1)
    assert len(calls) == 2
    assert threading.active_count() == baseline


def test_force_sweep_draws_its_presses_as_the_trials_need_them(default_cfg,
                                                                monkeypatch):
    # 2e5 presses drawn up front would hold about 35 MB before the first
    # trial; drawn lazily, a sweep stopped at its 3rd trial holds a few
    # traces of 2 subcarriers.  A 1-trial sweep first makes the one-time
    # imports and caches, which are not the sweep's to bound.
    cfg = replace(default_cfg, waveform=replace(default_cfg.waveform, n_subcarriers=2))
    run_force_sweep(cfg, trials=1, seed=1)
    trial, calls = sweeps.run_touch_trial, []

    def fails_third(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("consumer failed")
        return trial(*args)
    monkeypatch.setattr(sweeps, "run_touch_trial", fails_third)

    def stopped_sweep():
        with pytest.raises(RuntimeError, match="consumer failed"):
            run_force_sweep(cfg, trials=200_000, seed=1)
    _, peak = traced_peak(stopped_sweep)
    assert len(calls) == 3
    assert peak < 2 ** 20


def test_only_the_noise_draw_leaves_the_calling_thread(default_cfg, monkeypatch):
    # traced spans must nest on one thread: the helper runs _draw and
    # nothing else; a draw runs there or, when the caller would otherwise
    # wait, on the calling thread
    threads = {}

    def record(name, fn):
        def wrapped(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread().name)
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(chansim, "_draw", record("draw", chansim._draw))
    monkeypatch.setattr(chansim, "_gate", record("gate", chansim._gate))
    monkeypatch.setattr(sweeps, "group_phases", record("decode", sweeps.group_phases))
    run_force_sweep(default_cfg, trials=3, seed=1)
    run_snr_sweep(with_grid(default_cfg, 10.0, 20.0), trials=3, seed=1)
    main = threading.current_thread().name
    assert threads.pop("draw") <= {"forcelink-noise", main}
    assert threads == {"gate": {main}, "decode": {main}}


@pytest.mark.parametrize("trials", [0, -3])
def test_run_force_sweep_needs_a_trial(default_cfg, trials):
    with pytest.raises(ValueError, match="at least 1 trial"):
        run_force_sweep(default_cfg, trials=trials)


@pytest.mark.parametrize("trials", [1, 0])
def test_run_snr_sweep_needs_two_trials_for_a_spread(default_cfg, trials):
    with pytest.raises(ValueError, match="at least 2 trials"):
        run_snr_sweep(with_grid(default_cfg, 10.0), trials=trials)


def test_run_snr_sweep_grid_must_not_be_empty(default_cfg):
    # the grid comes only from the config, which refuses an empty one
    with pytest.raises(ValueError, match="snr_grid_db must not be empty"):
        with_grid(default_cfg)


def test_measure_step_errors_noiseless_is_zero(default_cfg):
    # a held press gives identical groups, so the decoded step is exactly
    # zero; even the sampled-gate alias terms repeat and cancel
    e1, e2 = measure_step_errors(default_cfg, snr_db=None, seeds=[0])[0]
    assert abs(e1) < 1e-9
    assert abs(e2) < 1e-9


def test_measure_step_errors_rejects_a_group_size_without_whole_cycles(default_cfg):
    # 600 snapshots hold 34.56 cycles of the 1 kHz tone, so static multipath
    # would not cancel: the decode must refuse, not return steps of garbage;
    # 0 is a size like any other, not a stand-in for auto
    for size in (600, 0, -625):
        with pytest.raises(ValueError, match="not a positive multiple of 625"):
            measure_step_errors(replace(default_cfg, group_size=size),
                                snr_db=None, seeds=[0])
    e1, e2 = measure_step_errors(replace(default_cfg, group_size=1250),
                                 snr_db=None, seeds=[0])[0]
    assert abs(e1) < 1e-9 and abs(e2) < 1e-9


def test_measure_step_errors_rejects_zero_subcarriers(default_cfg):
    # the count comes only from the config's waveform, which refuses 0 rather
    # than let a decode fall back to 64; a single subcarrier decodes
    with pytest.raises(ValueError, match="at least one subcarrier"):
        replace(default_cfg.waveform, n_subcarriers=0)
    one = replace(default_cfg, waveform=replace(default_cfg.waveform,
                                                n_subcarriers=1))
    e1, e2 = measure_step_errors(one, snr_db=None, seeds=[0])[0]
    assert abs(e1) < 1e-9 and abs(e2) < 1e-9


@on_grid
def test_measure_step_errors_rows_match_one_synthesis_per_seed(default_cfg, snr_db,
                                                               bits, group_size, K):
    # the noiseless trace is made once per call and each seed's noise added
    # to it; every row must still be the serial decode of synthesize's
    # trace for that seed, bit for bit (a repeated seed included)
    cfg = grid_cfg(default_cfg, snr_db, bits, group_size, K)
    seeds = [11, 2 ** 62 - 1, 11]
    got = measure_step_errors(cfg, snr_db, seeds)
    assert got.shape == (3, 2) and got.dtype == np.float64
    Ng = group_size or 625
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    held = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    for row, seed in zip(got, seeds):
        trace = synthesize(wf, cfg.scheme, held, cfg.multipath,
                           NoiseSpec(snr_db, seed, bits), cfg.geometry, cfg.mechanics)
        want = group_phases(trace, cfg.scheme, Ng).steps[0]
        assert row.tobytes() == want.tobytes()


def test_measure_step_errors_of_no_seeds_is_empty_but_checked(default_cfg):
    # no seeds, no rows; the config is still checked as for any other call
    got = measure_step_errors(default_cfg, 10.0, [])
    assert got.shape == (0, 2) and got.dtype == np.float64
    with pytest.raises(ValueError, match="not a positive multiple of 625"):
        measure_step_errors(replace(default_cfg, group_size=600), 10.0, [])


def test_measure_step_errors_takes_one_snr_per_seed(default_cfg):
    # one call over mixed SNRs gives each row of the call for its SNR alone
    snrs, seeds = [25.0, None, 0.0, 25.0], [3, 4, 5, 6]
    got = measure_step_errors(default_cfg, snrs, seeds)
    for row, snr, seed in zip(got, snrs, seeds):
        assert row.tobytes() == measure_step_errors(default_cfg, snr, [seed]).tobytes()
    with pytest.raises(ValueError, match="3 SNRs for 4 seeds"):
        measure_step_errors(default_cfg, snrs[:3], seeds)


def test_run_snr_sweep_measures_its_grid_in_one_pass(default_cfg, monkeypatch):
    # one noiseless trace and one noisy_traces pass per sweep; every row and
    # summary still those of one measure_step_errors call per point, with
    # each point's seeds drawn after the previous point's
    cfg, trials = with_grid(default_cfg, 30.0, 5.0, 15.0), 4
    rng, want, want_aggs = np.random.default_rng(9), [], []
    for snr in cfg.sweep.snr_grid_db:
        seeds = [int(rng.integers(0, 2 ** 62)) for _ in range(trials)]
        errs = measure_step_errors(cfg, snr, seeds)
        for i, (e1, e2) in enumerate(errs.tolist()):
            want.append({"kind": "trial", "snr_db": snr, "trial": i,
                         "dphi1_deg": math.degrees(e1),
                         "dphi2_deg": math.degrees(e2)})
        arr = np.degrees(errs)
        want_aggs.append({"kind": "aggregate", "snr_db": snr,
                          "phase_std1_deg": float(arr[:, 0].std(ddof=1)),
                          "phase_std2_deg": float(arr[:, 1].std(ddof=1))})
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(sweeps, "synthesize", counted("synthesize", sweeps.synthesize))
    monkeypatch.setattr(sweeps, "noisy_traces",
                        counted("noisy_traces", sweeps.noisy_traces))
    rows, aggs = run_snr_sweep(cfg, trials=trials, seed=9)
    assert calls == ["synthesize", "noisy_traces"]
    assert rows == want
    assert aggs == want_aggs


def test_run_snr_sweep_noise_shrinks_with_snr(default_cfg):
    rows, aggs = run_snr_sweep(with_grid(default_cfg, 10.0, 30.0),
                               trials=12, seed=3)
    assert len(rows) == 24
    assert len(aggs) == 2
    by_snr = {a["snr_db"]: a for a in aggs}
    assert by_snr[30.0]["phase_std1_deg"] < by_snr[10.0]["phase_std1_deg"]
    assert by_snr[30.0]["phase_std2_deg"] < by_snr[10.0]["phase_std2_deg"]


def test_snr_meeting_threshold_picks_lowest_passing():
    aggs = [
        {"snr_db": 20.0, "phase_std1_deg": 0.4, "phase_std2_deg": 0.6},
        {"snr_db": 0.0, "phase_std1_deg": 8.0, "phase_std2_deg": 9.0},
        {"snr_db": 10.0, "phase_std1_deg": 3.0, "phase_std2_deg": 4.0},
        {"snr_db": 30.0, "phase_std1_deg": 0.2, "phase_std2_deg": 0.3},
    ]
    assert snr_meeting_threshold(aggs, 5.0) == 10.0
    assert snr_meeting_threshold(aggs, 0.5) == 30.0
    assert snr_meeting_threshold(aggs, 0.1) is None


def test_run_crosstalk_isolation(default_cfg):
    rows, aggregates = run_crosstalk(default_cfg, n_groups=5, seed=0)
    # 2 victims x 4 steps x 2 ports
    assert len(rows) == 16
    assert {r["victim_sensor"] for r in rows} == {1, 2}
    assert {r["port"] for r in rows} == {1, 2}
    assert all(r["crosstalk_deg"] >= 0.0 for r in rows)
    assert len(aggregates) == 2
    for agg in aggregates:
        assert agg["max_crosstalk_deg"] < 0.1
        assert agg["median_crosstalk_deg"] <= agg["max_crosstalk_deg"]
