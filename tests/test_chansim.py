import functools
import json
import math
import os
import sys
import threading
import time
from contextlib import closing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelink import chansim, cli
from forcelink.chansim import (BLOCK_FLOATS, ChannelTrace, MultipathProfile,
                               NoiseSpec,
                               NyquistError, Path, TouchTimeline,
                               WaveformConfig, add_second_sensor,
                               equivalent_doppler_velocity, noiseless_blocks,
                               noisy_traces, synthesis_blocks, synthesize)
from forcelink.clocks import make_scheme
from forcelink.config import default_config_dict
from forcelink.transducer import (SPEED_OF_LIGHT, MechanicalParams,
                                  SensorGeometry, TouchEvent, port_phases,
                                  shorting_segment)

from conftest import traced_peak

GEOM = SensorGeometry()
MECH = MechanicalParams()
WF_SMALL = WaveformConfig(n_subcarriers=4, n_snapshots=50)
SCHEME = make_scheme(1000.0)
MP = MultipathProfile(
    paths=(Path(2.0 + 0.0j, 0.0), Path(0.3 - 0.2j, 3.2)),
    sensor_path=Path(0.8 + 0.1j, 1.0),
)
QUIET = NoiseSpec(snr_db=None)


def loop_oracle(wf, scheme, timeline, mp, geom, mech):
    """Element-by-element resynthesis with explicit loops, no vectorization."""
    K, N = wf.n_subcarriers, wf.n_snapshots
    H = np.zeros((N, K), dtype=complex)
    for n in range(N):
        for k in range(K):
            for p in mp.paths:
                H[n, k] += p.amplitude * np.exp(
                    -2j * np.pi * k * wf.subcarrier_spacing_hz
                    * p.distance_m / SPEED_OF_LIGHT)
            t = n * wf.frame_period_s
            s1 = scheme.clock_a.is_on(t)
            s2 = scheme.clock_b.is_on(t)
            pp = port_phases(shorting_segment(timeline.touch_at(n), mech, geom),
                             geom, wf.carrier_hz)
            gate = (float(s1) * np.exp(1j * pp.phi1)
                    + float(s2) * np.exp(1j * pp.phi2))
            H[n, k] += mp.sensor_path.amplitude * np.exp(
                -2j * np.pi * k * wf.subcarrier_spacing_hz
                * mp.sensor_path.distance_m / SPEED_OF_LIGHT) * gate
    return H


def test_noiseless_synthesis_matches_loop_oracle():
    timeline = TouchTimeline(entries=(
        (0, None), (20, TouchEvent(4.0, 30.0)), (35, TouchEvent(6.0, 52.0))))
    trace = synthesize(WF_SMALL, SCHEME, timeline, MP, QUIET, GEOM, MECH)
    want = loop_oracle(WF_SMALL, SCHEME, timeline, MP, GEOM, MECH)
    assert np.max(np.abs(trace.data - want)) < 1e-12


def test_noise_power_calibrated_to_sensor_amplitude():
    wf = WaveformConfig(n_subcarriers=16, n_snapshots=2000)
    timeline = TouchTimeline.constant(None)
    quiet = synthesize(wf, SCHEME, timeline, MP, QUIET, GEOM, MECH)
    for snr_db in (10.0, 25.0):
        noisy = synthesize(wf, SCHEME, timeline, MP,
                           NoiseSpec(snr_db=snr_db, seed=9), GEOM, MECH)
        measured = float(np.mean(np.abs(noisy.data - quiet.data) ** 2))
        want = abs(MP.sensor_path.amplitude) ** 2 * 10.0 ** (-snr_db / 10.0)
        assert measured == pytest.approx(want, rel=0.02), snr_db


def test_same_seed_reproduces_different_seed_differs():
    timeline = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    noise = NoiseSpec(snr_db=20.0, seed=7)
    a = synthesize(WF_SMALL, SCHEME, timeline, MP, noise, GEOM, MECH)
    b = synthesize(WF_SMALL, SCHEME, timeline, MP, noise, GEOM, MECH)
    c = synthesize(WF_SMALL, SCHEME, timeline, MP,
                   NoiseSpec(snr_db=20.0, seed=8), GEOM, MECH)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.provenance["seed"] == 7
    assert a.provenance["config_digest"] == b.provenance["config_digest"]


def test_digest_tracks_scenario_changes():
    t1 = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    t2 = TouchTimeline.constant(TouchEvent(4.0, 41.0))
    noise = NoiseSpec(snr_db=None)
    a = synthesize(WF_SMALL, SCHEME, t1, MP, noise, GEOM, MECH)
    b = synthesize(WF_SMALL, SCHEME, t2, MP, noise, GEOM, MECH)
    assert a.provenance["config_digest"] != b.provenance["config_digest"]


def test_modulation_above_snapshot_nyquist_is_rejected():
    # 2.5 kHz puts the 4 f_s read tone at 10 kHz, past 1/(2T) = 8680.6 Hz
    with pytest.raises(NyquistError):
        synthesize(WF_SMALL, make_scheme(2500.0), TouchTimeline.constant(None),
                   MP, QUIET, GEOM, MECH)
    assert WF_SMALL.nyquist_hz == pytest.approx(8680.555555555556, abs=1e-9)


def test_zero_sensor_amplitude_rejected_with_noise_on():
    mp = MultipathProfile(paths=(), sensor_path=Path(0.0j, 1.0))
    with pytest.raises(ValueError):
        synthesize(WF_SMALL, SCHEME, TouchTimeline.constant(None), mp,
                   NoiseSpec(snr_db=20.0), GEOM, MECH)


def added(clean, noises):
    """The data of noisy_traces' trace for each of noises over clean's rows,
    copied, since each trace is overwritten after the next."""
    jobs = (((clean.data,), noise) for noise in noises)
    with closing(noisy_traces(jobs, clean.config, MP.sensor_path)) as traces:
        return [trace.data.copy() for trace in traces]


def quantized(trace, bits):
    """trace through the quantizer alone: noisy_traces with the noise off,
    one trace, which nothing overwrites once the generator is closed."""
    jobs = [((trace.data,), NoiseSpec(quantize_bits=bits))]
    with closing(noisy_traces(jobs, trace.config, MP.sensor_path)) as traces:
        return next(traces)


def test_quantize_bounds_and_grid():
    rng = np.random.default_rng(3)
    data = (rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64)))
    trace = ChannelTrace(WaveformConfig(n_subcarriers=64, n_snapshots=8), data)
    for bits in (4, 8, 12):
        q = quantized(trace, bits).data
        fs = float(np.max(np.abs(data.view(float))))
        err = np.max(np.abs((q - data).view(float)))
        assert err <= fs / 2 ** bits + 1e-15, bits
        levels = np.unique(q.view(float))
        assert len(levels) <= 2 ** bits + 1
    with pytest.raises(ValueError):
        quantized(trace, 3)


def test_quantize_applied_by_synthesize():
    timeline = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    exact = synthesize(WF_SMALL, SCHEME, timeline, MP, QUIET, GEOM, MECH)
    coarse = synthesize(WF_SMALL, SCHEME, timeline, MP,
                        NoiseSpec(snr_db=None, quantize_bits=6), GEOM, MECH)
    fs = float(np.max(np.abs(exact.data.view(float))))
    assert np.max(np.abs((coarse.data - exact.data).view(float))) <= fs / 64
    assert not np.array_equal(coarse.data, exact.data)


def test_noiseless_blocks_match_synthesize_and_check_nyquist():
    # the force sweep adds its noise to these rows: they must be the
    # noiseless trace synthesize makes, and refuse a scheme over Nyquist
    # before any row is made
    mp = MultipathProfile(paths=(Path(0.3 + 0.1j, 2.0),), sensor_path=MP.sensor_path)
    rows = noiseless_blocks(WF_SMALL, SCHEME, LAYOUT_TIMELINE, mp, GEOM, MECH)
    want = synthesize(WF_SMALL, SCHEME, LAYOUT_TIMELINE, mp, QUIET, GEOM, MECH)
    assert b"".join(b.tobytes() for b in rows) == want.data.tobytes()
    with pytest.raises(NyquistError):
        noiseless_blocks(WF_SMALL, make_scheme(2500.0), LAYOUT_TIMELINE, mp, GEOM, MECH)


def test_quantized_synthesize_makes_the_trace_once():
    # the quantizer's full scale comes from the collected array, not from a
    # replay of the reflection and noise stages; the rows match the stream's
    timeline = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    noise = NoiseSpec(snr_db=20.0, seed=5, quantize_bits=10)
    calls, reflection_blocks = [], chansim._reflection_blocks

    def counted(*args):
        calls.append(1)
        return reflection_blocks(*args)
    with mock.patch.object(chansim, "_reflection_blocks", counted):
        trace = synthesize(WF_SMALL, SCHEME, timeline, MP, noise, GEOM, MECH)
    assert len(calls) == 1
    _, blocks = chansim.synthesis_blocks(WF_SMALL, SCHEME, timeline, MP, noise,
                                         GEOM, MECH)
    assert np.array_equal(np.concatenate([b.copy() for b in blocks]), trace.data)


# (N, K) shapes for the layout test, keyed by a test-id suffix: one block;
# BLOCK_FLOATS // 5 subcarriers give 5 snapshots per quantization block, so
# 12 snapshots split 5 + 5 + 2, and one per noise block (BLOCK_FLOATS // 8
# entries); a snapshot just longer than a block is a block of its own
LAYOUT_SHAPES = {"": (300, 8),
                 "-uneven_blocks": (12, BLOCK_FLOATS // 5),
                 "-row_blocks": (3, BLOCK_FLOATS + 1)}
LAYOUT_TIMELINE = TouchTimeline(entries=((0, None), (100, TouchEvent(4.0, 40.0))))


def layout_waveform(shape):
    return WaveformConfig(n_subcarriers=shape[1], n_snapshots=shape[0])


@pytest.mark.parametrize("bits, shape", [
    pytest.param(bits, shape, id=f"{bits}{tag}")
    for tag, shape in LAYOUT_SHAPES.items() for bits in (None, 10)])
def test_noise_layout_is_two_seeded_draws(bits, shape):
    # pins the seeded noise (the name is kept for stable test ids): one
    # (N, K, 2) standard_normal draw of default_rng(seed), re and im of each
    # entry innermost, scaled by sqrt(sigma^2 / 2)
    wf = layout_waveform(shape)
    snr_db, seed = 17.0, 12345
    quiet = synthesize(wf, SCHEME, LAYOUT_TIMELINE, MP, QUIET, GEOM, MECH)
    noisy = synthesize(wf, SCHEME, LAYOUT_TIMELINE, MP,
                       NoiseSpec(snr_db=snr_db, seed=seed, quantize_bits=bits),
                       GEOM, MECH)
    d = np.random.default_rng(seed).standard_normal(shape + (2,))
    sigma2 = abs(MP.sensor_path.amplitude) ** 2 * 10.0 ** (-snr_db / 10.0)
    want = quiet.data + math.sqrt(sigma2 / 2.0) * (d[..., 0] + 1j * d[..., 1])
    if bits is not None:
        want = quantized(ChannelTrace(wf, want), bits).data
    assert noisy.data.tobytes() == want.tobytes()  # bit for bit


def block_size_traces():
    """Noisy, noisy 10-bit and two-sensor traces at the current BLOCK_FLOATS,
    then the noisy and 10-bit ones as synthesis_blocks streams them, then
    as noisy_traces adds their noise to the noiseless trace."""
    wf = layout_waveform(LAYOUT_SHAPES[""])
    noises = [NoiseSpec(snr_db=17.0, seed=12345, quantize_bits=bits)
              for bits in (None, 10)]
    args = [(wf, SCHEME, LAYOUT_TIMELINE, MP, noise, GEOM, MECH) for noise in noises]
    noisy, quantized = (synthesize(*a) for a in args)
    pair = add_second_sensor(noisy, make_scheme(1400.0), LAYOUT_TIMELINE,
                             Path(0.5 - 0.3j, 1.7), GEOM, MECH)
    streamed = [b"".join(block.tobytes() for block in synthesis_blocks(*a)[1])
                for a in args]
    clean = synthesize(wf, SCHEME, LAYOUT_TIMELINE, MP, QUIET, GEOM, MECH)
    return ([t.data.tobytes() for t in (noisy, quantized, pair)] + streamed
            + [data.tobytes() for data in added(clean, noises)])


default_block_traces = functools.cache(block_size_traces)


@settings(max_examples=40, deadline=None)
@given(block=st.integers(min_value=1,
                         max_value=2 * math.prod(LAYOUT_SHAPES[""]) + 3))
def test_traces_do_not_depend_on_the_block_size(block):
    # from one snapshot per block up; at the default size one block holds
    # this whole trace
    with mock.patch.object(chansim, "BLOCK_FLOATS", block):
        got = block_size_traces()
    assert got == default_block_traces()
    # the streamed rows and the added noise are synthesize's
    assert got[3:5] == got[5:] == got[:2]


HELD = TouchTimeline.constant(TouchEvent(4.0, 40.0))


def test_noisy_traces_joins_its_helper_when_closed_early():
    # the helper starts with the iteration, not before, and an early close()
    # joins it although it holds a queued draw
    clean = synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    baseline = threading.active_count()
    jobs = (((clean.data,), NoiseSpec(snr_db=20.0, seed=seed)) for seed in range(5))
    traces = noisy_traces(jobs, WF_SMALL, MP.sensor_path)
    assert threading.active_count() == baseline
    first = next(traces)
    assert threading.active_count() == baseline + 1
    want = synthesize(WF_SMALL, SCHEME, HELD, MP, NoiseSpec(snr_db=20.0, seed=0),
                      GEOM, MECH)
    assert first.data.tobytes() == want.data.tobytes()
    traces.close()
    assert threading.active_count() == baseline


def test_noisy_traces_under_stress_match_synthesize():
    # a short switch interval interleaves the helper's draws with a slow
    # consumer: a draw landing in the array of a trace still in use, or a
    # draw taken out of order, would change a trace's bytes
    wf = WaveformConfig(n_subcarriers=64, n_snapshots=200)
    clean = synthesize(wf, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    noises = [NoiseSpec(snr_db=None if seed % 7 == 3 else 15.0, seed=seed,
                        quantize_bits=10 if seed % 2 else None) for seed in range(40)]
    want = [synthesize(wf, SCHEME, HELD, MP, noise, GEOM, MECH).data.tobytes()
            for noise in noises]
    got = []

    def consume():
        jobs = (((clean.data,), noise) for noise in noises)
        with closing(noisy_traces(jobs, wf, MP.sensor_path)) as traces:
            for trace in traces:
                first = trace.data.tobytes()
                time.sleep(0.0002)
                got.append((first, trace.data.tobytes()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=consume)
        worker.start()
        worker.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert [a for a, _ in got] == [b for _, b in got] == want


def test_noisy_traces_raises_a_failed_draw_on_the_calling_thread(monkeypatch):
    def fails(*args):
        raise FloatingPointError("draw failed")
    monkeypatch.setattr(chansim, "_draw", fails)
    clean = synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        added(clean, [NoiseSpec(snr_db=20.0, seed=1)] * 3)
    assert threading.active_count() == baseline


def slowed_helper(monkeypatch, seconds):
    """_draw patched to sleep seconds first on the helper thread only; the
    returned list gets the name of the thread running each draw."""
    draw, ran = chansim._draw, []

    def slowed(*args):
        ran.append(threading.current_thread().name)
        if ran[-1] == "forcelink-noise":
            time.sleep(seconds)
        return draw(*args)
    monkeypatch.setattr(chansim, "_draw", slowed)
    return ran


def test_the_caller_draws_while_the_helper_is_busy(monkeypatch):
    # a helper slower than the caller leaves queued draws, which the caller
    # runs itself rather than wait; which thread drew a trace's noise must
    # not show in its bytes
    wf = WaveformConfig(n_subcarriers=64, n_snapshots=200)
    clean = synthesize(wf, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    noises = [NoiseSpec(snr_db=None if seed % 5 == 2 else 15.0, seed=seed,
                        quantize_bits=10 if seed % 3 == 1 else None)
              for seed in range(12)]
    want = [synthesize(wf, SCHEME, HELD, MP, noise, GEOM, MECH).data.tobytes()
            for noise in noises]
    ran = slowed_helper(monkeypatch, 0.02)
    assert [data.tobytes() for data in added(clean, noises)] == want
    main = threading.current_thread().name
    assert main in ran and set(ran) <= {main, "forcelink-noise"}
    assert len(ran) == sum(noise.snr_db is not None for noise in noises)


def test_a_draw_failing_on_the_calling_thread_raises_there(monkeypatch):
    # the helper sleeps through its draw, so the caller takes the next queued
    # one, which fails
    draw, main = chansim._draw, threading.current_thread().name

    def fails_on_the_caller(*args):
        if threading.current_thread().name == main:
            raise FloatingPointError("caller's draw failed")
        time.sleep(0.05)
        return draw(*args)
    monkeypatch.setattr(chansim, "_draw", fails_on_the_caller)
    clean = synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="caller's draw failed"):
        added(clean, [NoiseSpec(snr_db=20.0, seed=seed) for seed in range(6)])
    assert threading.active_count() == baseline


@pytest.mark.parametrize("helper_delay", [0.0, 0.02])
def test_a_failed_draw_raises_when_its_trace_is_asked_for(monkeypatch, helper_delay):
    # only job 2's draw fails, on whichever thread runs it (a slowed helper
    # leaves more draws to the caller): traces 0 and 1 still come out whole,
    # asking for trace 2 raises, and the helper is joined
    draw = chansim._draw

    def fails_for_job_2(rng, scale, out):
        if threading.current_thread().name == "forcelink-noise":
            time.sleep(helper_delay)
        if rng.bit_generator.seed_seq.entropy == 2:
            raise FloatingPointError("draw 2 failed")
        return draw(rng, scale, out)
    monkeypatch.setattr(chansim, "_draw", fails_for_job_2)
    clean = synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    noises = [NoiseSpec(snr_db=20.0, seed=seed) for seed in range(5)]
    baseline = threading.active_count()
    traces = noisy_traces((((clean.data,), noise) for noise in noises),
                          WF_SMALL, MP.sensor_path)
    for noise in noises[:2]:
        got = next(traces).data.tobytes()
        assert got == synthesize(WF_SMALL, SCHEME, HELD, MP, noise, GEOM,
                                 MECH).data.tobytes()
    with pytest.raises(FloatingPointError, match="draw 2 failed"):
        next(traces)
    assert threading.active_count() == baseline
    assert "forcelink-noise" not in {t.name for t in threading.enumerate()}
    with pytest.raises(StopIteration):
        next(traces)


def test_closing_with_the_ring_full_leaves_no_thread_behind(monkeypatch):
    # after the first trace every array is taken: the trace in use and the
    # next two jobs' draws, queued or under way on the slowed helper
    clean = synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    ran = slowed_helper(monkeypatch, 0.05)
    baseline = threading.active_count()
    jobs = (((clean.data,), NoiseSpec(snr_db=20.0, seed=seed)) for seed in range(8))
    traces = noisy_traces(jobs, WF_SMALL, MP.sensor_path)
    next(traces)
    assert threading.active_count() == baseline + 1
    traces.close()
    assert threading.active_count() == baseline
    assert "forcelink-noise" not in {t.name for t in threading.enumerate()}
    assert 1 <= len(ran) <= 3  # only the posted jobs' draws ever started


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="CPU affinity is not exposed here")
def test_noise_helper_keeps_off_the_callers_cpu(monkeypatch):
    # a helper woken onto the caller's CPU may stay there for a whole sweep,
    # so it may run on every CPU the caller may use but the caller's own;
    # the caller's own draws (slowed, so that the helper gets some) keep the
    # caller's affinity
    allowed, seen, draw = os.sched_getaffinity(0), [], chansim._draw
    main = threading.current_thread().name

    def record(*args):
        seen.append((threading.current_thread().name, os.sched_getaffinity(0)))
        if seen[-1][0] == main:
            time.sleep(0.02)
        return draw(*args)
    monkeypatch.setattr(chansim, "_draw", record)
    clean = synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    added(clean, [NoiseSpec(snr_db=20.0, seed=seed) for seed in range(6)])
    assert len(seen) == 6
    helper = [cpus for name, cpus in seen if name == "forcelink-noise"]
    assert helper
    for cpus in helper:
        if len(allowed) > 1:
            assert cpus < allowed and len(cpus) == len(allowed) - 1
        else:
            assert cpus == allowed
    assert all(cpus == allowed for name, cpus in seen if name == main)
    assert os.sched_getaffinity(0) == allowed  # the caller's is untouched


def test_synthesis_holds_one_array_plus_a_block():
    # H is allocated once and filled, perturbed and quantized in row blocks;
    # a whole-array noise draw or isfinite temporary would exceed this bound
    wf = WaveformConfig(n_subcarriers=64, n_snapshots=20000)
    timeline = TouchTimeline(entries=((0, None), (100, TouchEvent(4.0, 40.0))))
    noisy = NoiseSpec(snr_db=20.0, seed=3)
    trace, peak = traced_peak(lambda: synthesize(
        wf, SCHEME, timeline, MP, noisy, GEOM, MECH))
    bound = 1.15 * trace.data.nbytes + 2 ** 20
    assert peak <= bound
    pair, peak = traced_peak(lambda: add_second_sensor(
        trace, make_scheme(1400.0), timeline, Path(0.5 - 0.3j, 1.7), GEOM, MECH))
    assert peak <= bound
    _, peak = traced_peak(lambda: quantized(pair, 8))
    assert peak <= bound
    # noisy_traces (here also quantizing) holds its three reused arrays (one
    # for one trace) and only blocks beside them: no trace-sized temporary
    # (20 MB here)
    def drain(n):
        jobs = (((trace.data,), NoiseSpec(snr_db=20.0, seed=4 + i, quantize_bits=8))
                for i in range(n))
        with closing(noisy_traces(jobs, wf, MP.sensor_path)) as traces:
            for _ in traces:
                pass
    for n in (1, 4):
        _, peak = traced_peak(lambda: drain(n))
        assert peak <= min(n, 3) * trace.data.nbytes + 2 * 2 ** 20
        if n == 1:
            assert peak <= bound


@pytest.mark.parametrize("n_snapshots", [2 * BLOCK_FLOATS + 3, 8 * BLOCK_FLOATS + 12])
def test_streamed_simulate_holds_a_constant_bound(tmp_path, n_snapshots):
    # N and 4N snapshots, 17 and 65 gate spans of BLOCK_FLOATS // 8: the
    # streamed noisy 10-bit simulate (two passes) holds one span's
    # temporaries (about 0.9 MiB, plus as much again for a cold start's lazy
    # imports), not the (N, K) array (8 MiB at N, 32 MiB at 4N); gate spans
    # of BLOCK_FLOATS snapshots would hold 4.4-5.2 MiB
    doc = default_config_dict()
    doc["waveform"].update(n_subcarriers=4, n_snapshots=n_snapshots)
    doc["noise"].update(snr_db=20.0, seed=3, quantize_bits=10)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.trace")]
    rc, peak = traced_peak(lambda: cli.main(argv))
    assert rc == 0
    assert peak <= 3 * 2 ** 20


def test_add_second_sensor_superposes_exactly():
    held = TouchTimeline.constant(TouchEvent(4.0, 40.0))
    ramp = TouchTimeline(entries=((0, TouchEvent(1.0, 30.0)),
                                  (25, TouchEvent(2.0, 30.0))))
    scheme2 = make_scheme(1400.0)
    path2 = Path(0.5 - 0.3j, 1.7)
    base = synthesize(WF_SMALL, SCHEME, held, MP, QUIET, GEOM, MECH)
    pair = add_second_sensor(base, scheme2, ramp, path2, GEOM, MECH)
    # difference must be exactly the second sensor's isolated term
    solo2 = synthesize(WF_SMALL, scheme2, ramp,
                       MultipathProfile(paths=(), sensor_path=path2),
                       QUIET, GEOM, MECH)
    assert np.array_equal(pair.data, base.data + solo2.data)
    assert len(pair.schemes) == 2
    assert pair.provenance["sensors"] == 2


def test_add_second_sensor_rejects_collisions():
    base = synthesize(WF_SMALL, SCHEME, TouchTimeline.constant(None), MP,
                      QUIET, GEOM, MECH)
    with pytest.raises(ValueError):
        add_second_sensor(base, make_scheme(1000.0),
                          TouchTimeline.constant(None), Path(1.0, 1.0),
                          GEOM, MECH)
    with pytest.raises(NyquistError):
        add_second_sensor(base, make_scheme(2400.0),
                          TouchTimeline.constant(None), Path(1.0, 1.0),
                          GEOM, MECH)


def test_timeline_validation_and_lookup():
    with pytest.raises(ValueError):
        TouchTimeline(entries=())
    with pytest.raises(ValueError):
        TouchTimeline(entries=((5, None),))
    with pytest.raises(ValueError):
        TouchTimeline(entries=((0, None), (10, None), (10, None)))
    tl = TouchTimeline(entries=((0, None), (10, TouchEvent(4.0, 40.0))))
    assert tl.touch_at(0) is None
    assert tl.touch_at(9) is None
    assert tl.touch_at(10).force_n == 4.0
    assert tl.touch_at(10 ** 9).force_n == 4.0


def test_trace_is_frozen_and_validated():
    trace = synthesize(WF_SMALL, SCHEME, TouchTimeline.constant(None), MP,
                       QUIET, GEOM, MECH)
    assert trace.data.flags.writeable is False
    with pytest.raises(ValueError):
        ChannelTrace(config=WF_SMALL, data=np.zeros((2, 2), dtype=complex))
    bad = np.zeros((50, 4), dtype=complex)
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        ChannelTrace(config=WF_SMALL, data=bad)


def test_trace_freezes_a_view_not_the_callers_array():
    d = np.ones((50, 4), dtype=complex)  # already complex128 and C-contiguous
    trace = ChannelTrace(config=WF_SMALL, data=d)
    d[0, 0] = 5
    assert trace.data.flags.writeable is False
    with pytest.raises(ValueError, match="read-only"):
        trace.data[0, 0] = 7


@pytest.mark.parametrize("where, value", [
    pytest.param((11, -1), complex(np.nan, 0.0), id="nan_in_last_block"),
    pytest.param((6, 7), complex(1.0, np.inf), id="inf_imag_only"),
    pytest.param((0, 0), complex(-np.inf, 2.0), id="inf_real_only")])
def test_trace_rejects_non_finite_in_any_block(where, value):
    # 12 snapshots of BLOCK_FLOATS // 5 subcarriers check in blocks of
    # 5 + 5 + 2 snapshots: a NaN in the last block and an inf in only the
    # imaginary part must fail
    wf = WaveformConfig(n_subcarriers=BLOCK_FLOATS // 5, n_snapshots=12)
    data = np.ones((12, BLOCK_FLOATS // 5), dtype=complex)
    ChannelTrace(config=wf, data=data.copy())
    data[where] = value
    with pytest.raises(ValueError, match="trace entries must all be finite"):
        ChannelTrace(config=wf, data=data)


def test_equivalent_doppler_velocity():
    assert equivalent_doppler_velocity(1000.0, 2.4e9) == pytest.approx(125.0)
    assert equivalent_doppler_velocity(1000.0, 900.0e6) == pytest.approx(
        1000.0 / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        equivalent_doppler_velocity(1000.0, 0.0)


def test_waveform_validation():
    with pytest.raises(ValueError):
        WaveformConfig(n_subcarriers=0)
    with pytest.raises(ValueError, match="spacing must be positive"):
        WaveformConfig(subcarrier_spacing_hz=0.0)
    with pytest.raises(ValueError):
        WaveformConfig(frame_period_s=0.0)
    with pytest.raises(ValueError, match="carrier must be positive"):
        WaveformConfig(carrier_hz=-2.4e9)
    with pytest.raises(ValueError, match="at least one snapshot"):
        WaveformConfig(n_snapshots=0)
    with pytest.raises(ValueError):
        NoiseSpec(quantize_bits=25)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        NoiseSpec(seed=-1)
    with pytest.raises(ValueError):
        Path(amplitude=1.0, distance_m=-1.0)
