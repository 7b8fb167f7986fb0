import math

import numpy as np
import pytest

from forcelink.chansim import (ChannelTrace, MultipathProfile, NoiseSpec,
                               NyquistError, Path, TouchTimeline,
                               WaveformConfig, nyquist_check, synthesize)
from forcelink.clocks import make_scheme
from forcelink.decoder import (anchor, auto_group_size, group_phases,
                               noise_power, project_groups, read_sensor_snr)
from forcelink.transducer import (MechanicalParams, SensorGeometry,
                                  ShortingState, TouchEvent, port_phases,
                                  shorting_segment, wrap_phase)

from conftest import tone_trace

GEOM = SensorGeometry()
MECH = MechanicalParams()
SCHEME = make_scheme(1000.0)
WF = WaveformConfig()
NG = 625


def step_phases(n_snapshots, step_at, before, after):
    n = np.arange(n_snapshots)
    return np.where(n < step_at, before, after)


def test_auto_group_size_single_scheme():
    assert auto_group_size(WF, SCHEME) == 625


def test_auto_group_size_two_schemes():
    assert auto_group_size(WF, (SCHEME, make_scheme(1400.0))) == 3125


def test_auto_group_size_incommensurate_raises():
    with pytest.raises(ValueError):
        auto_group_size(WF, make_scheme(1000.0 * math.pi / 3.0))


def test_nyquist_report_values():
    assert WF.nyquist_hz == pytest.approx(8680.555555555556, abs=1e-9)
    assert max(SCHEME.read_freqs) == 4000.0
    nyquist_check(WF, SCHEME)
    with pytest.raises(NyquistError, match="10000.0 Hz exceeds the Nyquist bound "
                       "8680.6 Hz"):
        nyquist_check(WF, make_scheme(2500.0))


def test_pure_tone_step_recovered_to_float_precision():
    for delta_deg in (-90.0, -10.0, -1.0, 1.0, 10.0, 90.0):
        d = math.radians(delta_deg)
        wf = WaveformConfig(n_subcarriers=8, n_snapshots=2 * NG)
        p1 = step_phases(wf.n_snapshots, NG, 0.3, 0.3 + d)
        p2 = step_phases(wf.n_snapshots, NG, -1.1, -1.1 + 0.5 * d)
        trace = tone_trace(wf, SCHEME, p1, p2)
        series = group_phases(trace, SCHEME, NG)
        d1, d2 = series.steps[0]
        assert abs(d1 - d) < 1e-9, delta_deg
        assert abs(d2 - 0.5 * d) < 1e-9, delta_deg


def test_pure_tone_static_offsets_change_nothing():
    wf = WaveformConfig(n_subcarriers=8, n_snapshots=2 * NG)
    p1 = step_phases(wf.n_snapshots, NG, 0.3, 0.9)
    p2 = step_phases(wf.n_snapshots, NG, -1.1, -0.4)
    rng = np.random.default_rng(11)
    offsets = [rng.standard_normal(8) * 50.0 + 1j * rng.standard_normal(8) * 50.0
               for _ in range(10)]
    clean = group_phases(tone_trace(wf, SCHEME, p1, p2), SCHEME, NG)
    dirty = group_phases(tone_trace(wf, SCHEME, p1, p2, offsets), SCHEME, NG)
    assert np.abs(clean.steps[0] - dirty.steps[0]).max() < 1e-6


def test_projection_single_group_matches_matrix_slice():
    wf = WaveformConfig(n_subcarriers=4, n_snapshots=3 * NG)
    timeline = TouchTimeline(entries=((0, None), (NG, TouchEvent(4.0, 30.0))))
    mp = MultipathProfile(paths=(Path(3.0 + 0.0j, 0.0),),
                          sensor_path=Path(1.0, 1.0))
    trace = synthesize(wf, SCHEME, timeline, mp, NoiseSpec(None), GEOM, MECH)
    rows, T = trace.data, wf.frame_period_s
    whole = project_groups(rows, 0, SCHEME.read_freqs, T, NG)
    assert whole.shape == (3, 2, 4)
    for g in range(3):
        # one group on its own, at its absolute snapshot index
        P = project_groups(rows[g * NG:(g + 1) * NG], g * NG,
                           SCHEME.read_freqs, T, NG)
        assert P.shape == (1, 2, 4)
        np.testing.assert_array_equal(P[0], whole[g])
        n = np.arange(g * NG, (g + 1) * NG)
        for t, f in enumerate(SCHEME.read_freqs):
            want = (trace.data[n] * np.exp(-2j * np.pi * f * n * T)[:, None]
                    ).sum(axis=0) / NG
            np.testing.assert_allclose(P[0, t], want, rtol=1e-12, atol=1e-12)


def full_sim_staircase(n_groups=3, snr_db=None, seed=0):
    wf = WaveformConfig(n_snapshots=n_groups * NG)
    timeline = TouchTimeline(entries=(
        (0, None), (NG, TouchEvent(4.0, 30.0)), (2 * NG, TouchEvent(6.0, 30.0))))
    mp = MultipathProfile(paths=(Path(100.0 + 0.0j, 0.0),
                                 Path(0.4 + 0.3j, 3.2)),
                          sensor_path=Path(1.0, 1.0))
    return synthesize(wf, SCHEME, timeline, mp, NoiseSpec(snr_db, seed=seed),
                      GEOM, MECH), timeline


def exact_phi(touch):
    return port_phases(shorting_segment(touch, MECH, GEOM), GEOM, WF.carrier_hz)


def test_full_simulation_steps_near_transducer_truth():
    # the sampled 0/1 gates carry alias lines that land on the read bins
    # (relative magnitude a few 1e-3), so full-simulation decodes are exact
    # only to well under a degree, not machine precision
    trace, timeline = full_sim_staircase()
    series = group_phases(trace, SCHEME, NG)
    states = [None, TouchEvent(4.0, 30.0), TouchEvent(6.0, 30.0)]
    for g in range(2):
        before = exact_phi(states[g])
        after = exact_phi(states[g + 1])
        want1 = wrap_phase(after.phi1 - before.phi1)
        want2 = wrap_phase(after.phi2 - before.phi2)
        assert abs(series.steps[g, 0] - want1) < math.radians(1.0), g
        assert abs(series.steps[g, 1] - want2) < math.radians(1.0), g


def test_full_simulation_ignores_static_multipath():
    wf = WaveformConfig(n_subcarriers=16, n_snapshots=2 * NG)
    timeline = TouchTimeline(entries=((0, None), (NG, TouchEvent(4.0, 30.0))))
    rng = np.random.default_rng(4)
    extra = tuple(Path(complex(*rng.standard_normal(2)) * 70.0,
                       float(rng.uniform(0.0, 10.0))) for _ in range(10))
    lean = MultipathProfile(paths=(), sensor_path=Path(1.0, 1.0))
    rich = MultipathProfile(paths=extra, sensor_path=Path(1.0, 1.0))
    a = group_phases(synthesize(wf, SCHEME, timeline, lean, NoiseSpec(None),
                                GEOM, MECH), SCHEME, NG)
    b = group_phases(synthesize(wf, SCHEME, timeline, rich, NoiseSpec(None),
                                GEOM, MECH), SCHEME, NG)
    assert np.abs(a.steps[0] - b.steps[0]).max() < 1e-6


def test_anchor_reproduces_absolute_phases_mod_two_pi():
    wf = WaveformConfig(n_subcarriers=8, n_snapshots=3 * NG)
    quiet = exact_phi(None)
    touched = exact_phi(TouchEvent(4.0, 30.0))
    harder = exact_phi(TouchEvent(6.0, 30.0))
    p1 = np.concatenate([np.full(NG, quiet.phi1), np.full(NG, touched.phi1),
                         np.full(NG, harder.phi1)])
    p2 = np.concatenate([np.full(NG, quiet.phi2), np.full(NG, touched.phi2),
                         np.full(NG, harder.phi2)])
    trace = tone_trace(wf, SCHEME, p1, p2)
    phases = anchor(group_phases(trace, SCHEME, NG), quiet)
    assert phases.shape == (3, 2)
    assert phases[0, 0] == quiet.phi1
    for g, pp in enumerate((quiet, touched, harder)):
        assert abs(wrap_phase(phases[g, 0] - pp.phi1)) < 1e-9
        assert abs(wrap_phase(phases[g, 1] - pp.phi2)) < 1e-9


def test_wrap_suspect_flags():
    wf = WaveformConfig(n_subcarriers=4, n_snapshots=2 * NG)
    big = 0.95 * math.pi
    p1 = step_phases(wf.n_snapshots, NG, 0.0, big)
    p2 = step_phases(wf.n_snapshots, NG, 0.0, 0.3)
    series = group_phases(tone_trace(wf, SCHEME, p1, p2), SCHEME, NG)
    assert series.suspect[0].tolist() == [True, False]


def test_group_phases_argument_handling():
    wf = WaveformConfig(n_subcarriers=4, n_snapshots=2 * NG)
    trace = tone_trace(wf, SCHEME, np.zeros(2 * NG), np.zeros(2 * NG))
    # defaults: first scheme in the trace, auto group size
    series = group_phases(trace)
    assert series.group_size == NG
    assert series.n_groups == 2
    bare = ChannelTrace(config=wf, data=trace.data)
    with pytest.raises(ValueError):
        group_phases(bare)
    with pytest.raises(ValueError):
        group_phases(trace, SCHEME, 2 * NG)  # only one group
    with pytest.raises(ValueError):
        group_phases(trace, SCHEME, 0)


def default_noisy_trace(snr_db, seed, n_groups=3):
    wf = WaveformConfig(n_snapshots=n_groups * NG)
    timeline = TouchTimeline(entries=((0, None), (NG, TouchEvent(4.0, 40.0))))
    mp = MultipathProfile(paths=(Path(100.0 + 0.0j, 0.0),),
                          sensor_path=Path(1.0, 1.0))
    return synthesize(wf, SCHEME, timeline, mp, NoiseSpec(snr_db, seed=seed),
                      GEOM, MECH)


def test_noise_power_estimate_tracks_truth():
    for snr_db in (10.0, 30.0):
        want = 10.0 ** (-snr_db / 10.0)
        for seed in (1, 2):
            trace = default_noisy_trace(snr_db, seed)
            got = group_phases(trace, SCHEME, NG).sigma2
            assert got == pytest.approx(want, rel=0.25), (snr_db, seed)


def test_snr_estimate_tracks_truth_with_touch_steps_present():
    for snr_db in (10.0, 30.0):
        for seed in (1, 2, 3):
            trace = default_noisy_trace(snr_db, seed)
            for t, est in enumerate(group_phases(trace, SCHEME, NG).snr_db):
                assert abs(est - snr_db) < 1.5, (snr_db, seed, t)


def test_snr_estimate_near_cap_when_noiseless():
    trace = default_noisy_trace(None, 0)
    assert group_phases(trace, SCHEME, NG).snr_db[0] > 150.0


def test_snr_estimate_rejects_unknown_read_freq():
    trace = default_noisy_trace(20.0, 1)
    with pytest.raises(ValueError):
        read_sensor_snr(trace, 2500.0, NG)
    # the two wrappers read the figures of the one decode
    series = group_phases(trace, SCHEME, NG)
    assert noise_power(trace, NG) == series.sigma2
    for t, f in enumerate(SCHEME.read_freqs):
        assert read_sensor_snr(trace, f, NG) == series.snr_db[t]


def test_noise_power_from_the_shortest_decodable_trace():
    # a held press: the one group pair of a 2-group trace is step-free
    held = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    mp = MultipathProfile(paths=(Path(100.0 + 0.0j, 0.0),),
                          sensor_path=Path(1.0, 1.0))
    for snr_db in (10.0, 20.0, 30.0):
        want = 10.0 ** (-snr_db / 10.0)
        for seed in (1, 5):
            trace = synthesize(WaveformConfig(n_snapshots=2 * NG), SCHEME, held,
                               mp, NoiseSpec(snr_db, seed=seed), GEOM, MECH)
            got = group_phases(trace, SCHEME, NG).sigma2
            assert got == pytest.approx(want, rel=0.25), (snr_db, seed)
    one = default_noisy_trace(20.0, 5, n_groups=1)
    with pytest.raises(ValueError, match="need at least 2 groups, trace holds 1"):
        group_phases(one, SCHEME, NG)


def test_decode_rejects_non_positive_group_size():
    trace = default_noisy_trace(20.0, 5)
    for size in (0, -NG):
        with pytest.raises(ValueError, match="not a positive multiple"):
            group_phases(trace, SCHEME, size)


def test_group_size_must_hold_whole_cycles_of_every_sensor():
    # the 1.4 kHz sensor's read tones need 3125 snapshots; at 625 its
    # tones would leak into the first sensor's steps
    wf = WaveformConfig(n_subcarriers=4, n_snapshots=10 * 625)
    other = make_scheme(1400.0)
    flat = np.zeros(wf.n_snapshots)
    pair = ChannelTrace(config=wf, data=tone_trace(wf, SCHEME, flat, flat).data
                        + tone_trace(wf, other, flat + 1.0, flat).data,
                        schemes=(SCHEME, other))
    with pytest.raises(ValueError, match="not a positive multiple of 3125"):
        group_phases(pair, SCHEME, 625)
    series = group_phases(pair, SCHEME, 3125)
    assert series.n_groups == 2
    np.testing.assert_allclose(series.steps, 0.0, atol=1e-9)


def test_anchored_error_does_not_grow_along_the_trace(default_cfg):
    # a press held from the start: every group's phase relative to group 0
    # is zero, so each anchored phase should equal the no-touch phase
    groups = 100
    wf = WaveformConfig(n_subcarriers=8, n_snapshots=groups * NG)
    held = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    quiet = port_phases(ShortingState.open(), GEOM, wf.carrier_hz)
    errs = []
    for seed in range(30):
        trace = synthesize(wf, SCHEME, held, default_cfg.multipath,
                           NoiseSpec(0.0, seed=seed), GEOM, MECH)
        phases = anchor(group_phases(trace, SCHEME, NG), quiet)
        errs.append([[wrap_phase(phases[g, 0] - quiet.phi1),
                      wrap_phase(phases[g, 1] - quiet.phi2)]
                     for g in (1, groups - 1)])
    # spread over seeds, pooled over both ports: first group vs last group
    first, last = np.sqrt((np.array(errs).std(axis=0, ddof=1) ** 2).mean(axis=1))
    assert last <= 1.25 * first, (math.degrees(first), math.degrees(last))
