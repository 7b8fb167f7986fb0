"""Experiment engines: closed-loop trials, SNR sweeps, crosstalk isolation."""
import functools
import math
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from forcelink import calib, chansim, cli, decoder, sweeps, transducer
from forcelink.chansim import (MultipathProfile, NoiseSpec, Path, TouchTimeline,
                               noise_scale, synthesize)
from forcelink.clocks import ClockScheme, make_scheme
from forcelink.config import ConfigError, parse_config
from forcelink.decoder import (_tone_table, anchor, auto_group_size, group_phases,
                              project_groups)
from forcelink.sweeps import (HELD_PRESS, calibrate, measure_step_errors,
                              pressed_phases, run_crosstalk, run_force_sweep,
                              run_snr_sweep, run_touch_trial,
                              snr_meeting_threshold, touch_trace)
from forcelink.transducer import (ShortingState, TouchEvent, port_phases,
                                  shorting_segment, wrap_phase)

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
    # anchor adds the open line's unwrapped port_phases, bit for bit
    want = port_phases(ShortingState.open(), default_cfg.geometry,
                       default_cfg.waveform.carrier_hz)
    got = anchor(np.zeros(2), default_cfg.geometry, default_cfg.waveform.carrier_hz)
    assert got[0] == want.phi1 and got[1] == want.phi2


def test_run_touch_trial_is_deterministic(default_cfg, model):
    def trial(seed):
        trace = touch_trace(default_cfg, 3.0, 45.0, seed=seed)
        return run_touch_trial(model, 3.0, 45.0, pressed_phases(default_cfg, trace))
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


# clocks whose auto group size is 1250: f_s T = 73/1250 and 4 f_s T = 146/625
F_S_1250 = 73 / (1250 * parse_config({}).waveform.frame_period_s)

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
    """cfg on K subcarriers with the given noise, its clocks the default
    (group_size None, an auto size of 625) or F_S_1250's."""
    cfg = replace(cfg, noise=replace(cfg.noise, snr_db=snr_db, quantize_bits=bits),
                  waveform=replace(cfg.waveform, n_subcarriers=K))
    if group_size is not None:
        cfg = replace(cfg, scheme=make_scheme(F_S_1250))
    assert auto_group_size(cfg.waveform, cfg.scheme) == (group_size or 625)
    return cfg


def projection_oracle(cfg, Ng, touches, snr_db, seed):
    """A two-group trial's projections as the projection domain defines
    them, made another way: project_groups of synthesize's noiseless trace
    (quiet or pressed groups per touches) plus default_rng(seed)'s
    (2, 2, K, 2) normals times noise_scale / sqrt(N_g), re and im innermost."""
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    timeline = TouchTimeline(entries=((0, touches[0]), (Ng, touches[1])))
    clean = synthesize(wf, cfg.scheme, timeline, cfg.multipath, NoiseSpec(),
                       cfg.geometry, cfg.mechanics)
    P = project_groups(clean.data, cfg.scheme.read_freqs, wf.frame_period_s, Ng)
    scale = noise_scale(cfg.multipath.sensor_path, snr_db)
    if scale is not None:
        d = np.random.default_rng(seed).standard_normal(P.shape + (2,))
        P = P + scale / math.sqrt(Ng) * (d[..., 0] + 1j * d[..., 1])
    return np.angle((P[1] * P[0].conj()).mean(axis=-1))


def drawn_presses(cfg, trials, seed):
    """The (force, location, seed) of each trial, drawn as a force sweep
    draws them: forces over the calibrated model's range."""
    rng, force_range = np.random.default_rng(seed), calibrate(cfg).force_range_n
    return [(float(rng.uniform(*force_range)),
             float(rng.choice(cfg.sweep.test_locations_mm)),
             int(rng.integers(0, 2 ** 62))) for _ in range(trials)]


# trials per path in the grid's distributional checks; each KS test there
# must not reject at KS_GRID_LEVEL, a level that holds the whole grid's 32
# comparisons near a 3 % chance of any false alarm
GRID_TRIALS, KS_GRID_LEVEL = 120, 0.001


@on_grid
def test_run_force_sweep_rows_match_one_synthesis_per_trial(default_cfg, snr_db,
                                                             bits, group_size, K):
    # quantized, the sweep stays on the full path: every row is the serial
    # decode and inversion of synthesize's trace for that trial's press and
    # seed, bit for bit.  Unquantized, it works in the projection domain:
    # the truth columns keep their bytes, the estimates match a
    # projection-domain oracle built from project_groups, and the errors
    # match the full path's in distribution (noiseless: to 1e-9)
    cfg = grid_cfg(default_cfg, snr_db, bits, group_size, K)
    model = calibrate(cfg)
    Ng = auto_group_size(cfg.waveform, cfg.scheme)
    noisy_float = bits is None and snr_db is not None
    trials = GRID_TRIALS if noisy_float else 3
    rows, _ = run_force_sweep(cfg, trials=trials, seed=5)
    presses = drawn_presses(cfg, trials, 5)
    for i, (row, (F, loc, seed)) in enumerate(zip(rows, presses)):
        assert (row["kind"], row["trial"], row["true_force_n"],
                row["true_location_mm"]) == ("trial", i, F, loc)
        if bits is not None:
            trace = touch_trace(cfg, F, loc, seed)
            assert row == {**run_touch_trial(model, F, loc, pressed_phases(cfg, trace)),
                           "kind": "trial", "trial": i}
        elif i < 3:
            phases = anchor(projection_oracle(cfg, Ng, (None, TouchEvent(F, loc)),
                                              snr_db, seed),
                            cfg.geometry, cfg.waveform.carrier_hz)
            want = run_touch_trial(model, F, loc, phases)
            assert row["reliable"] == want["reliable"]
            for key in ("est_force_n", "est_location_mm", "residual_rad2"):
                assert row[key] == pytest.approx(want[key], rel=1e-9, abs=1e-9)
    if noisy_float:
        # the full path's rows for the same presses, with seeds of their own
        full = [run_touch_trial(model, F, loc, pressed_phases(
                    cfg, touch_trace(cfg, F, loc, seed + 1)))
                for F, loc, seed in presses]
        for key in ("force_err_n", "location_err_mm"):
            got = [r[key] for r in rows]
            assert ks_2samp(got, [r[key] for r in full]).pvalue > KS_GRID_LEVEL, key


def patch_batch(monkeypatch, fn):
    """Let the sweeps call fn where they call calib.invert_many; calib.invert,
    and so run_touch_trial's check of trial 0, keeps the real batch."""
    monkeypatch.setattr(sweeps, "calib",
                        SimpleNamespace(**{**vars(calib), "invert_many": fn}))


def test_sweeps_leave_no_thread_behind(default_cfg, monkeypatch):
    # both sweeps, on either path (unquantized, 10-bit), run every stage on
    # the calling thread and start none: on a full sweep, on no seeds, and
    # when a later chunk's inversion raises mid-sweep (chunks of 2 trials)
    threads = set()

    def record(fn):
        def wrapped(*args, **kwargs):
            threads.add(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapped

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(chansim, "_draw", record(chansim._draw))
    monkeypatch.setattr(sweeps, "_draw", record(sweeps._draw))
    monkeypatch.setattr(chansim, "_gate", record(chansim._gate))
    monkeypatch.setattr(sweeps, "group_phases", record(sweeps.group_phases))
    batch, calls = calib.invert_many, []

    def fails_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("consumer failed")
        return batch(*args)
    baseline = threading.active_count()
    for bits in (None, 10):
        cfg = replace(default_cfg, noise=replace(default_cfg.noise, quantize_bits=bits))
        run_force_sweep(cfg, trials=3, seed=1)
        run_snr_sweep(with_grid(cfg, 10.0, 20.0), trials=3, seed=1)
        assert measure_step_errors(cfg, 10.0, []).shape == (0, 2)
        with monkeypatch.context() as m:
            patch_batch(m, fails_second)
            m.setattr(sweeps, "SWEEP_CHUNK", 2)
            with pytest.raises(RuntimeError, match="consumer failed"):
                run_force_sweep(cfg, trials=5, seed=1)
        assert len(calls) == 2
        calls.clear()
    assert threads == {threading.current_thread()}
    assert threading.active_count() == baseline


def test_force_sweep_draws_its_presses_as_the_trials_need_them(default_cfg,
                                                                monkeypatch):
    # 2e5 presses drawn up front would hold about 35 MB before the first
    # trial; drawn a chunk of trials at a time, a sweep stopped at its 2nd
    # chunk's inversion holds one chunk's rows, presses and projections of
    # 2 subcarriers.  A 1-trial sweep first makes the one-time imports and
    # caches, which are not the sweep's to bound.
    cfg = replace(default_cfg, waveform=replace(default_cfg.waveform, n_subcarriers=2))
    run_force_sweep(cfg, trials=1, seed=1)
    batch, calls = calib.invert_many, []

    def fails_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("consumer failed")
        return batch(*args)
    patch_batch(monkeypatch, fails_second)

    def stopped_sweep():
        with pytest.raises(RuntimeError, match="consumer failed"):
            run_force_sweep(cfg, trials=200_000, seed=1)
    _, peak = traced_peak(stopped_sweep)
    assert len(calls) == 2
    assert peak < 2 ** 20


@pytest.mark.parametrize("bits", [None, 10])
def test_force_sweep_refuses_a_batch_that_disagrees_on_trial_0(default_cfg,
                                                                monkeypatch, bits):
    # each sweep inverts its trial 0 a second time, alone, through
    # run_touch_trial; a batch whose estimate differs from it in the last
    # bit fails the sweep
    cfg = replace(default_cfg, noise=replace(default_cfg.noise, quantize_bits=bits))
    batch = calib.invert_many

    def perturbed(*args):
        first, *rest = batch(*args)
        return [replace(first, force_n=math.nextafter(first.force_n, math.inf)), *rest]
    patch_batch(monkeypatch, perturbed)
    with pytest.raises(ValueError, match="disagrees with the one-point inversion"):
        run_force_sweep(cfg, trials=3, seed=1)


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
    # a trial's groups take the auto size, whole cycles of both read tones;
    # clocks with no such size below the cap must be refused, not decoded
    # into steps of garbage: the config refuses them when it is built, so
    # no such config reaches a sweep.  Clocks whose size is 1250 decode exactly
    with pytest.raises(ConfigError, match="no integer-cycle group size below 100000"):
        replace(default_cfg, scheme=make_scheme(1001.3))
    e1, e2 = measure_step_errors(replace(default_cfg, scheme=make_scheme(F_S_1250)),
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


def full_path_steps(cfg, Ng, snr_db, seeds):
    """The held press's decoded steps, one row per seed: group_phases of
    synthesize's two-group trace with that seed and cfg's quantizer."""
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    held = TouchTimeline.constant(HELD_PRESS)
    return np.array([group_phases(synthesize(
        wf, cfg.scheme, held, cfg.multipath,
        NoiseSpec(snr_db, seed, cfg.noise.quantize_bits), cfg.geometry,
        cfg.mechanics), cfg.scheme, Ng).steps[0] for seed in seeds])


@on_grid
def test_measure_step_errors_rows_match_one_synthesis_per_seed(default_cfg, snr_db,
                                                               bits, group_size, K):
    # quantized, every row is the serial decode of synthesize's trace for
    # that seed, bit for bit (a repeated seed included).  Unquantized, rows
    # are the projection domain's: a repeated seed repeats its row, each
    # row matches a projection-domain oracle built from project_groups, and
    # the rows match the full path's in distribution (noiseless: to 1e-9)
    cfg = grid_cfg(default_cfg, snr_db, bits, group_size, K)
    seeds = [11, 2 ** 62 - 1, 11]
    got = measure_step_errors(cfg, snr_db, seeds)
    assert got.shape == (3, 2) and got.dtype == np.float64
    Ng = auto_group_size(cfg.waveform, cfg.scheme)
    if bits is not None:
        assert got.tobytes() == full_path_steps(cfg, Ng, snr_db, seeds).tobytes()
        return
    assert got[0].tobytes() == got[2].tobytes()
    for row, seed in zip(got, seeds):
        want = projection_oracle(cfg, Ng, (HELD_PRESS, HELD_PRESS), snr_db, seed)
        assert np.abs(row - want).max() <= 1e-9
    if snr_db is not None:
        projected = measure_step_errors(cfg, snr_db, range(GRID_TRIALS))
        full = full_path_steps(cfg, Ng, snr_db, range(GRID_TRIALS, 2 * GRID_TRIALS))
        for port in (0, 1):
            assert ks_2samp(projected[:, port], full[:, port]).pvalue > KS_GRID_LEVEL


def phasors(magnitude):
    """Complex amplitudes of at most magnitude."""
    return st.builds(lambda r, a: r * complex(math.cos(a), math.sin(a)),
                     st.floats(0.0, magnitude), st.floats(-math.pi, math.pi))


@st.composite
def closed_form_cases(draw):
    """A config, a group size and two groups' touches: f_s = c / (N T) for
    whole c cycles in N snapshots with 4 f_s under Nyquist, the group size
    a multiple of the auto size, passed to the projection domain as a
    library caller may, K in 1..8, up to three static paths as strong as the
    default's direct path, a press or none in each group."""
    cfg = draw(st.sampled_from([parse_config({})]))
    T = cfg.waveform.frame_period_s
    n = draw(st.integers(16, 1000))
    f_s = draw(st.integers(1, (n - 1) // 8)) / (n * T)
    scheme = make_scheme(f_s)
    wf = replace(cfg.waveform, n_subcarriers=draw(st.integers(1, 8)))
    auto = auto_group_size(wf, scheme)
    Ng = auto * draw(st.integers(1, max(1, 2000 // auto)))
    paths = draw(st.lists(st.builds(Path, phasors(100.0), st.floats(0.0, 10.0)),
                          max_size=3))
    sensor = Path(draw(phasors(2.0).filter(lambda a: abs(a) > 0.1)),
                  draw(st.floats(0.0, 5.0)))
    touches = draw(st.lists(st.none() | st.builds(
        TouchEvent, st.floats(0.0, 9.0), st.floats(0.0, 80.0)),
        min_size=2, max_size=2))
    return replace(cfg, waveform=wf, scheme=scheme,
                   multipath=MultipathProfile(tuple(paths), sensor)), Ng, touches


@settings(max_examples=60, deadline=None)
@given(closed_form_cases())
def test_closed_form_projections_match_project_groups(case):
    # the projection domain's clean projections are project_groups of
    # synthesize's noiseless two-group trace: static paths cancel and the
    # sampled gates' port leak is kept.  They agree to 1e-12 of the trace's
    # largest entry, the scale of project_groups' rounding (a static path
    # 100 times the sensor's leaves it at about 1e-13).  Over one group the
    # read tones are orthogonal, their Gram matrix N_g I
    cfg, Ng, touches = case
    wf = cfg.waveform
    P0, P1 = sweeps._ProjectionDomain(cfg, Ng).clean(touches[0], touches[1:])
    P = np.stack([P0, P1[0]])
    timeline = TouchTimeline(entries=((0, touches[0]), (Ng, touches[1])))
    trace = synthesize(replace(wf, n_snapshots=2 * Ng), cfg.scheme, timeline,
                       cfg.multipath, NoiseSpec(), cfg.geometry, cfg.mechanics)
    want = project_groups(trace.data, cfg.scheme.read_freqs, wf.frame_period_s, Ng)
    assert np.abs(P - want).max() <= 1e-12 * np.abs(trace.data).max()
    table = _tone_table(wf.frame_period_s, cfg.scheme.read_freqs, Ng)
    tones = table[:2] + 1j * table[2:]
    gram = tones @ tones.conj().T
    assert np.abs(gram - Ng * np.eye(2)).max() <= 1e-12 * Ng


@functools.cache
def projected_noise(freqs, T, K, Ng, n, batch=250):
    """(n, 2, 2, K) projections of n two-group traces of chansim._draw's
    unit-scale noise, batch traces at a time through one project_groups
    call; shared by the SNR levels below, as a trace's projections are
    linear in its rows."""
    rng, H, out = np.random.default_rng(n), np.empty((batch * 2 * Ng, K), complex), []
    for _ in range(n // batch):
        chansim._draw(rng, 1.0, H)
        out.append(project_groups(H, freqs, T, Ng).reshape(batch, 2, 2, K))
    return np.concatenate(out)


def chunk_case(cfg, name):
    """The default config, or one config of closed_form_cases' kind: whole
    cycles of f_s = 7 / (125 T), so an auto group size of 125, K = 5, two
    strong static paths and a rotated sensor path."""
    if name == "default":
        return cfg
    return replace(cfg, scheme=make_scheme(7 / (125 * cfg.waveform.frame_period_s)),
                   waveform=replace(cfg.waveform, n_subcarriers=5),
                   multipath=MultipathProfile(
                       (Path(60 - 40j, 2.5), Path(-8 + 3j, 9.0)), Path(0.6 + 0.9j, 3.7)))


@pytest.mark.parametrize("case", ["default", "closed_form"])
def test_a_force_trial_row_does_not_depend_on_its_chunk(default_cfg, case):
    # the projection domain makes a chunk of trials in one pass; every
    # shorter sweep is the head of a longer one with the same seed, bit for
    # bit, wherever its chunks end
    cfg, B = chunk_case(default_cfg, case), sweeps.SWEEP_CHUNK
    rows, _ = run_force_sweep(cfg, trials=3 * B, seed=8)
    for n in (1, B - 1, B, B + 1, 2 * B + 1):
        assert run_force_sweep(cfg, trials=n, seed=8)[0] == rows[:n], n


@pytest.mark.parametrize("case", ["default", "closed_form"])
def test_a_step_error_row_does_not_depend_on_its_chunk(default_cfg, case):
    # one call over seeds that straddle chunk boundaries, at mixed SNRs
    # (noiseless among them), gives each row of a one-seed call, bit for bit
    cfg, B = chunk_case(default_cfg, case), sweeps.SWEEP_CHUNK
    seeds = range(B - 2, 3 * B + 3)
    snrs = [(25.0, None, 0.0, 10.0)[s % 4] for s in seeds]
    got = measure_step_errors(cfg, snrs, seeds)
    for row, snr, seed in zip(got, snrs, seeds):
        assert row.tobytes() == measure_step_errors(cfg, snr, [seed]).tobytes(), seed


def test_projection_domain_sweeps_under_a_strong_direct_path(default_cfg):
    # a direct path of amplitude 1e6, 120 dB over the sensor's, rounds the
    # full path's projections of the noiseless check trace to about 6e-9 rad;
    # the check's tolerance scales with that rounding, so the sweeps run.
    # Static paths cancel over a group, so their rows are the default's
    strong = replace(default_cfg, multipath=replace(
        default_cfg.multipath, paths=(Path(amplitude=1e6, distance_m=1.0),)))
    assert run_force_sweep(strong, trials=4, seed=3) == run_force_sweep(
        default_cfg, trials=4, seed=3)
    grid = with_grid(strong, 10.0, 20.0)
    assert run_snr_sweep(grid, trials=3, seed=3) == run_snr_sweep(
        with_grid(default_cfg, 10.0, 20.0), trials=3, seed=3)


def test_projection_domain_refuses_a_wrong_closed_form(default_cfg, monkeypatch):
    # a gate table off by 1e-6 is a closed form the full path does not
    # follow: both sweeps refuse it before their first trial
    table = sweeps._gate_table
    monkeypatch.setattr(sweeps, "_gate_table", lambda *args: table(*args) + 1e-6)
    with pytest.raises(ValueError, match="disagrees with the full-path decode"):
        run_force_sweep(default_cfg, trials=1, seed=1)
    with pytest.raises(ValueError, match="disagrees with the full-path decode"):
        measure_step_errors(default_cfg, 10.0, [1])


@pytest.mark.parametrize("wrong", [np.conjugate, np.flip], ids=["conjugate", "reverse"])
def test_projection_domain_refuses_a_wrong_subcarrier_phasor(default_cfg, monkeypatch,
                                                             wrong):
    # a conjugated or reversed sensor-path phasor keeps every |a_k|, so the
    # decoded phases and tone energies of the check trace would not move;
    # its projections do, and the check compares them
    phasor = sweeps._subcarrier_phasor
    monkeypatch.setattr(sweeps, "_subcarrier_phasor", lambda *args: wrong(phasor(*args)))
    with pytest.raises(ValueError, match="disagrees with the full-path decode"):
        sweeps._ProjectionDomain(default_cfg, 625)


def test_both_paths_take_the_one_sensor_response(default_cfg, monkeypatch):
    # transducer.port_reflections is the one place a port phase becomes a
    # phasor.  Bend a press's port 2 there by a constant angle, in every
    # module that holds the function: the projection domain still builds,
    # since its closed form and the full path both follow it, and both the
    # noiseless full-path decode and the projection domain read port 2's
    # pressed phase moved by that angle against the open line
    bend, Ng, real = 0.3, 625, transducer.port_reflections
    trace = sweeps._trial_trace(default_cfg, Ng, (None, HELD_PRESS), NoiseSpec())
    full = pressed_phases(default_cfg, trace)
    closed = sweeps._ProjectionDomain(default_cfg, Ng).phases(
        None, [HELD_PRESS], [None], [0])[0]

    def bent(touch, *args):
        r = real(touch, *args)
        return r if touch is None else r * np.array([1.0, np.exp(1j * bend)])
    for module in [m for name, m in sys.modules.items() if name.startswith("forcelink")]:
        if getattr(module, "port_reflections", None) is real:
            monkeypatch.setattr(module, "port_reflections", bent)
    domain = sweeps._ProjectionDomain(default_cfg, Ng)
    trace = sweeps._trial_trace(default_cfg, Ng, (None, HELD_PRESS), NoiseSpec())
    moved = [pressed_phases(default_cfg, trace) - full,
             domain.phases(None, [HELD_PRESS], [None], [0])[0] - closed]
    for d1, d2 in moved:
        assert abs(wrap_phase(float(d1))) <= 1e-3  # port 2's leak into port 1
        assert abs(wrap_phase(float(d2) - bend)) <= 1e-3
    assert np.abs(moved[0] - moved[1]).max() <= 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the gates are sampled, and "
                   "the samples leak each port onto the other's read tone, so a "
                   "noiseless gated decode is off by up to about 1.2e-2 rad")
def test_noiseless_gated_trials_decode_exactly_at_any_clock_phase(default_cfg):
    # noiseless two-group trials, gated and with the static multipath kept,
    # at random presses: their anchored pressed phases are the presses'
    # port_phases to 1e-9 rad, at the default clock phase and with both
    # clocks shifted by a random fraction of clock_a's period.  Unmixing each
    # group's projections by the inverse gate table lands within 1.1e-12
    cfg = replace(default_cfg, noise=replace(default_cfg.noise, snr_db=None))
    a, b = cfg.scheme.clock_a, cfg.scheme.clock_b
    rng, worst = np.random.default_rng(2), 0.0
    for shift in (0.0, *rng.uniform(0.0, 1.0, 4)):
        offsets = ((c.phase_offset + shift * c.frequency / a.frequency) % 1.0
                   for c in (a, b))
        shifted = replace(cfg, scheme=ClockScheme(
            *(replace(c, phase_offset=o) for c, o in zip((a, b), offsets))))
        for F, loc in zip(rng.uniform(1.0, 8.0, 3), rng.uniform(20.0, 60.0, 3)):
            got = pressed_phases(shifted, touch_trace(shifted, F, loc, seed=0))
            want = port_phases(shorting_segment(TouchEvent(F, loc), cfg.mechanics,
                                                cfg.geometry),
                               cfg.geometry, cfg.waveform.carrier_hz)
            worst = max(worst, *(abs(wrap_phase(float(g) - w))
                                 for g, w in zip(got, (want.phi1, want.phi2))))
    assert worst <= 1e-9


def test_every_anchored_phase_takes_the_one_anchor(default_cfg, tmp_path, monkeypatch):
    # decoder.anchor is the one place the open line's phase is formed and
    # added.  Bend that phase there by a known amount per port: decode's
    # anchored columns, a 10-bit trial's pressed_phases and the phases an
    # unquantized force sweep inverts all move by it, and nothing else does
    bend = np.array([0.3, -0.7])
    config, trace = tmp_path / "config.json", tmp_path / "run.trace"
    config.write_text("{}")
    assert cli.main(["simulate", "--config", str(config), "--out", str(trace)]) == 0
    bits10 = replace(default_cfg, noise=replace(default_cfg.noise, quantize_bits=10))
    trial = touch_trace(bits10, 4.0, 40.0, seed=3)

    def run(tag):
        out, inverted, invert_many = tmp_path / f"{tag}.csv", [], calib.invert_many
        assert cli.main(["decode", "--trace", str(trace), "--out", str(out)]) == 0

        def recording(model, phi1, phi2):
            inverted.append(np.stack([phi1, phi2], axis=-1))
            return invert_many(model, phi1, phi2)
        with monkeypatch.context() as m:
            m.setattr(calib, "invert_many", recording)
            rows, _ = run_force_sweep(default_cfg, trials=3, seed=5)
        return (np.genfromtxt(out, delimiter=",", names=True),
                pressed_phases(bits10, trial), np.concatenate(inverted),
                [(r["true_force_n"], r["true_location_mm"]) for r in rows])

    csv, pressed, inverted, truth = run("straight")
    real = decoder.port_phases

    def bent(*args):
        pp = real(*args)
        return transducer.PortPhases(pp.phi1 + bend[0], pp.phi2 + bend[1])
    monkeypatch.setattr(decoder, "port_phases", bent)
    bent_csv, bent_pressed, bent_inverted, bent_truth = run("bent")
    for name in csv.dtype.names:
        moved = bent_csv[name] - csv[name]
        if name in ("phi1_deg", "phi2_deg"):
            want = math.degrees(bend[int(name[3]) - 1])
            np.testing.assert_allclose(moved, want, rtol=0, atol=1e-9)
        else:
            assert (moved == 0).all(), name
    np.testing.assert_allclose(bent_pressed - pressed, bend, rtol=0, atol=1e-12)
    # the chunk's three trials, then trial 0 again through calib.invert
    assert inverted.shape == (4, 2) and bent_truth == truth
    np.testing.assert_allclose(bent_inverted - inverted, np.broadcast_to(bend, (4, 2)),
                               rtol=0, atol=1e-12)


def test_projection_domain_refuses_a_decode_that_reads_other_phases(default_cfg,
                                                                    monkeypatch):
    # the check also decodes its trace: group_phases must read group 1's
    # phases from the projections it compared, bit for bit, so a decode
    # whose phases move by one ulp fails it
    decode = sweeps.group_phases

    def nudged(*args):
        series = decode(*args)
        phases = series.phases.copy()
        phases[1, 0] = np.nextafter(phases[1, 0], np.inf)
        return replace(series, phases=phases)
    sweeps._ProjectionDomain(default_cfg, 625)
    monkeypatch.setattr(sweeps, "group_phases", nudged)
    with pytest.raises(ValueError, match="disagrees with the full-path decode"):
        sweeps._ProjectionDomain(default_cfg, 625)


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 25.0])
def test_projection_domain_matches_the_full_path_in_distribution(default_cfg, snr_db):
    # 20 000 held-press trials per path at K = 2, N_g = 625: on each port the
    # projection domain's step errors have the full path's std to 3 % (the
    # ratio's 1 sigma is 0.7 %) and a two-sample KS test does not reject at
    # 1 %.  A full-path trial is synthesize's noiseless trace plus drawn
    # noise at noise_scale, projected and decoded as group_phases does
    n, K, Ng = 20_000, 2, 625
    cfg = replace(default_cfg, waveform=replace(default_cfg.waveform, n_subcarriers=K))
    projected = measure_step_errors(cfg, snr_db, range(n))
    wf = replace(cfg.waveform, n_snapshots=2 * Ng)
    clean = synthesize(wf, cfg.scheme, TouchTimeline.constant(HELD_PRESS),
                       cfg.multipath, NoiseSpec(), cfg.geometry, cfg.mechanics)
    freqs, T = cfg.scheme.read_freqs, wf.frame_period_s
    P = (project_groups(clean.data, freqs, T, Ng)
         + noise_scale(cfg.multipath.sensor_path, snr_db)
         * projected_noise(freqs, T, K, Ng, n))
    full = np.angle((P[:, 1] * P[:, 0].conj()).mean(axis=-1))
    for port in (0, 1):
        ratio = projected[:, port].std(ddof=1) / full[:, port].std(ddof=1)
        assert abs(ratio - 1.0) <= 0.03, (port, ratio)
        assert ks_2samp(projected[:, port], full[:, port]).pvalue > 0.01, port


def test_measure_step_errors_of_no_seeds_is_empty_but_checked(default_cfg):
    # no seeds, no rows; the config is still checked as for any other call,
    # when it is built, so an ungroupable one never reaches the call
    got = measure_step_errors(default_cfg, 10.0, [])
    assert got.shape == (0, 2) and got.dtype == np.float64
    with pytest.raises(ConfigError, match="no integer-cycle group size below 100000"):
        replace(default_cfg, scheme=make_scheme(1001.3))


def test_measure_step_errors_takes_one_snr_per_seed(default_cfg):
    # one call over mixed SNRs gives each row of the call for its SNR alone
    snrs, seeds = [25.0, None, 0.0, 25.0], [3, 4, 5, 6]
    got = measure_step_errors(default_cfg, snrs, seeds)
    for row, snr, seed in zip(got, snrs, seeds):
        assert row.tobytes() == measure_step_errors(default_cfg, snr, [seed]).tobytes()
    with pytest.raises(ValueError, match="3 SNRs for 4 seeds"):
        measure_step_errors(default_cfg, snrs[:3], seeds)


def test_run_snr_sweep_measures_its_grid_in_one_pass(default_cfg, monkeypatch):
    # every row and summary is that of one measure_step_errors call per
    # point, with each point's seeds drawn after the previous point's, bit
    # for bit on either path.  The projection domain (unquantized)
    # synthesizes and decodes one noiseless trace per sweep, its closed-form
    # check; the full path (10-bit) one trace per trial
    trials = 4
    for bits, traces in ((None, 1), (10, 3 * trials)):
        cfg = with_grid(default_cfg, 30.0, 5.0, 15.0)
        cfg = replace(cfg, noise=replace(cfg.noise, quantize_bits=bits))
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
        with monkeypatch.context() as m:
            m.setattr(sweeps, "synthesize", counted("synthesize", sweeps.synthesize))
            m.setattr(sweeps, "group_phases",
                      counted("group_phases", sweeps.group_phases))
            rows, aggs = run_snr_sweep(cfg, trials=trials, seed=9)
        assert calls == ["synthesize", "group_phases"] * traces
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
    rows, aggregates = run_crosstalk(default_cfg, seed=0)
    # 2 victims x 8 steps x 2 ports
    assert len(rows) == 32
    assert {r["victim_sensor"] for r in rows} == {1, 2}
    assert {r["port"] for r in rows} == {1, 2}
    assert all(r["crosstalk_deg"] >= 0.0 for r in rows)
    assert len(aggregates) == 2
    for agg in aggregates:
        assert agg["max_crosstalk_deg"] < 0.1
        assert agg["median_crosstalk_deg"] <= agg["max_crosstalk_deg"]
