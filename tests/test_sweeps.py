"""Experiment engines: closed-loop trials, SNR sweeps, crosstalk isolation."""
import math
from dataclasses import replace

import pytest

from forcelink.sweeps import (calibrate, measure_step_errors, no_touch_phase,
                              run_crosstalk, run_force_sweep, run_snr_sweep,
                              run_touch_trial, snr_meeting_threshold)
from forcelink.transducer import ShortingState, port_phases


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
    r1 = run_touch_trial(default_cfg, model, 3.0, 45.0, seed=42)
    r2 = run_touch_trial(default_cfg, model, 3.0, 45.0, seed=42)
    assert r1 == r2
    assert set(r1) == {"true_force_n", "true_location_mm", "est_force_n",
                       "est_location_mm", "force_err_n", "location_err_mm",
                       "residual_rad2", "reliable"}
    assert r1["reliable"] is True
    assert r1["force_err_n"] < 0.2
    assert r1["location_err_mm"] < 0.5
    r3 = run_touch_trial(default_cfg, model, 3.0, 45.0, seed=43)
    assert r3["est_force_n"] != r1["est_force_n"]


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
    e1, e2 = measure_step_errors(default_cfg, snr_db=None, seed=0)
    assert abs(e1) < 1e-9
    assert abs(e2) < 1e-9


def test_measure_step_errors_rejects_a_group_size_without_whole_cycles(default_cfg):
    # 600 snapshots hold 34.56 cycles of the 1 kHz tone, so static multipath
    # would not cancel: the decode must refuse, not return steps of garbage;
    # 0 is a size like any other, not a stand-in for auto
    for size in (600, 0, -625):
        with pytest.raises(ValueError, match="not a positive multiple of 625"):
            measure_step_errors(replace(default_cfg, group_size=size),
                                snr_db=None, seed=0)
    e1, e2 = measure_step_errors(replace(default_cfg, group_size=1250),
                                 snr_db=None, seed=0)
    assert abs(e1) < 1e-9 and abs(e2) < 1e-9


def test_measure_step_errors_rejects_zero_subcarriers(default_cfg):
    # the count comes only from the config's waveform, which refuses 0 rather
    # than let a decode fall back to 64; a single subcarrier decodes
    with pytest.raises(ValueError, match="at least one subcarrier"):
        replace(default_cfg.waveform, n_subcarriers=0)
    one = replace(default_cfg, waveform=replace(default_cfg.waveform,
                                                n_subcarriers=1))
    e1, e2 = measure_step_errors(one, snr_db=None, seed=0)
    assert abs(e1) < 1e-9 and abs(e2) < 1e-9


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
