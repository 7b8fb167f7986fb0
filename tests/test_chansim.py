import functools
import json
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelink import chansim, cli, sweeps
from forcelink.chansim import (BLOCK_FLOATS, ChannelTrace, MultipathProfile,
                               NoiseSpec,
                               NyquistError, Path, TouchTimeline,
                               WaveformConfig, add_second_sensor,
                               equivalent_doppler_velocity, noiseless_blocks,
                               synthesis_blocks, synthesize)
from forcelink.clocks import make_scheme
from forcelink.config import default_config_dict, parse_config
from forcelink.traceio import read_trace
from forcelink.transducer import (SPEED_OF_LIGHT, MechanicalParams,
                                  SensorGeometry, TouchEvent, port_phases,
                                  port_reflections, shorting_segment)

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
            touch = [t for start, t in timeline.entries if start <= n][-1]
            pp = port_phases(shorting_segment(touch, mech, geom), geom, wf.carrier_hz)
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
    assert a.provenance == b.provenance == {"seed": 7}
    assert c.provenance == {"seed": 8}


def test_digest_tracks_scenario_changes(tmp_path):
    # simulate's trace header digests every synthesis input: the same config
    # gives the same digest, one changed input (the press 1 mm over, or the
    # seed) another
    def provenance(name, location_mm=40.0, seed=()):
        doc = default_config_dict()
        doc["waveform"].update(n_subcarriers=4, n_snapshots=1250)
        doc["timeline"][1]["touch"]["location_mm"] = location_mm
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.trace"
        cfg.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(cfg), "--out", str(out), *seed]
        assert cli.main(argv) == 0
        return read_trace(out).provenance
    a, b = provenance("a"), provenance("b")
    assert a == b and set(a) == {"seed", "config_digest"} and a["seed"] == 1
    assert provenance("moved", location_mm=41.0)["config_digest"] != a["config_digest"]
    reseeded = provenance("reseeded", seed=("--seed", "2"))
    assert reseeded["seed"] == 2 and reseeded["config_digest"] != a["config_digest"]


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


def quantized(trace, bits):
    """trace through the quantizer alone, as synthesize's last stage runs it:
    _quantized over a copy's row blocks, in place (NoiseSpec checks bits)."""
    noise = NoiseSpec(quantize_bits=bits)
    H = trace.data.copy()
    for _ in chansim._quantized(lambda: (H[b] for b in chansim._row_blocks(*H.shape)),
                                noise.quantize_bits):
        pass
    return ChannelTrace(trace.config, H)


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
    timeline = layout_timeline(WF_SMALL.n_snapshots)
    rows = noiseless_blocks(WF_SMALL, SCHEME, timeline, mp, GEOM, MECH)
    want = synthesize(WF_SMALL, SCHEME, timeline, mp, QUIET, GEOM, MECH)
    assert b"".join(b.tobytes() for b in rows) == want.data.tobytes()
    with pytest.raises(NyquistError):
        noiseless_blocks(WF_SMALL, make_scheme(2500.0), timeline, mp, GEOM, MECH)


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
    blocks = chansim.synthesis_blocks(WF_SMALL, SCHEME, timeline, MP, noise,
                                      GEOM, MECH)
    assert np.array_equal(np.concatenate([b.copy() for b in blocks]), trace.data)


# (N, K) shapes for the layout test, keyed by a test-id suffix: one block;
# BLOCK_FLOATS // 5 subcarriers give 5 snapshots per quantization block, so
# 12 snapshots split 5 + 5 + 2, and one per noise block (BLOCK_FLOATS // 8
# entries); a snapshot just longer than a block is a block of its own
LAYOUT_SHAPES = {"": (300, 8),
                 "-uneven_blocks": (12, BLOCK_FLOATS // 5),
                 "-row_blocks": (3, BLOCK_FLOATS + 1)}


def layout_timeline(n_snapshots):
    """Quiet, then a press from snapshot 100, or from the middle of a
    shorter trace, whose timeline must end within it."""
    return TouchTimeline(entries=((0, None), (min(100, n_snapshots // 2),
                                              TouchEvent(4.0, 40.0))))


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
    timeline = layout_timeline(wf.n_snapshots)
    quiet = synthesize(wf, SCHEME, timeline, MP, QUIET, GEOM, MECH)
    noisy = synthesize(wf, SCHEME, timeline, MP,
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
    then the noisy and 10-bit ones as synthesis_blocks streams them."""
    wf = layout_waveform(LAYOUT_SHAPES[""])
    noises = [NoiseSpec(snr_db=17.0, seed=12345, quantize_bits=bits)
              for bits in (None, 10)]
    timeline = layout_timeline(wf.n_snapshots)
    args = [(wf, SCHEME, timeline, MP, noise, GEOM, MECH) for noise in noises]
    noisy, quantized = (synthesize(*a) for a in args)
    pair = add_second_sensor(noisy, make_scheme(1400.0), timeline,
                             Path(0.5 - 0.3j, 1.7), GEOM, MECH)
    streamed = [b"".join(block.tobytes() for block in synthesis_blocks(*a))
                for a in args]
    return [t.data.tobytes() for t in (noisy, quantized, pair)] + streamed


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
    # the streamed rows are synthesize's
    assert got[3:] == got[:2]


HELD = TouchTimeline.constant(TouchEvent(4.0, 40.0))


def test_chansim_starts_no_thread(monkeypatch):
    # every trace, its seeded draw included, is made on the calling thread
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert not hasattr(chansim, "threading")
    baseline = threading.active_count()
    for bits in (None, 10):
        noise = NoiseSpec(snr_db=20.0, seed=3, quantize_bits=bits)
        trace = synthesize(WF_SMALL, SCHEME, HELD, MP, noise, GEOM, MECH)
        add_second_sensor(trace, make_scheme(1400.0), HELD, Path(0.5 - 0.3j, 1.7),
                          GEOM, MECH)
        for _ in synthesis_blocks(WF_SMALL, SCHEME, HELD, MP, noise, GEOM, MECH):
            pass
    assert threading.active_count() == baseline


def test_a_draw_failing_on_the_calling_thread_raises_there(monkeypatch):
    # the one noise draw runs on the calling thread, so what it raises is
    # raised there: by synthesize, by the streamed pipeline and by both
    # sweeps' projected noise; a noiseless trace draws nothing
    ran = []

    def fails(*args):
        ran.append(threading.current_thread())
        raise FloatingPointError("draw failed")
    monkeypatch.setattr(chansim, "_draw", fails)
    monkeypatch.setattr(sweeps, "_draw", fails)  # imported by name
    noise = NoiseSpec(snr_db=20.0, seed=1)
    synthesize(WF_SMALL, SCHEME, HELD, MP, QUIET, GEOM, MECH)
    cfg = parse_config({"noise": {"snr_db": 20.0}})
    for make in (lambda: synthesize(WF_SMALL, SCHEME, HELD, MP, noise, GEOM, MECH),
                 lambda: list(synthesis_blocks(WF_SMALL, SCHEME, HELD, MP, noise,
                                               GEOM, MECH)),
                 lambda: sweeps.run_force_sweep(cfg, trials=3, seed=1),
                 lambda: sweeps.measure_step_errors(cfg, 20.0, [1, 2])):
        with pytest.raises(FloatingPointError, match="draw failed"):
            make()
    assert ran == [threading.current_thread()] * 4


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
    assert pair.provenance == base.provenance == {"seed": 0}


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
    # the gate holds each entry's reflection from its start to the next
    # entry's; an entry starting past the trace's end is never looked up
    tl = TouchTimeline(entries=((0, None), (10, TouchEvent(4.0, 40.0)),
                                (10 ** 9, TouchEvent(4.0, 1e6))))
    rows = slice(0, WF_SMALL.n_snapshots)
    one = chansim._gate(WF_SMALL, SCHEME, TouchTimeline.constant(None),
                        np.ones((1, 2), complex), rows)
    got = chansim._gate(WF_SMALL, SCHEME, tl, np.array([[1, 1], [2, 2]], complex), rows)
    assert got.tobytes() == (one * np.where(np.arange(rows.stop) < 10, 1, 2)).tobytes()
    # but a trace refuses such an entry before making any row, naming it
    # and the trace length: a press the timeline asks for must happen
    says = r"^timeline\[2\] starts at snapshot 1000000000, past the trace's 50 snapshots$"
    base = synthesize(WF_SMALL, SCHEME, TouchTimeline.constant(None), MP, QUIET,
                      GEOM, MECH)
    for make in (lambda: synthesize(WF_SMALL, SCHEME, tl, MP, QUIET, GEOM, MECH),
                 lambda: synthesis_blocks(WF_SMALL, SCHEME, tl, MP, QUIET, GEOM, MECH),
                 lambda: add_second_sensor(base, make_scheme(1400.0), tl,
                                           MP.sensor_path, GEOM, MECH)):
        with pytest.raises(ValueError, match=says):
            make()
    # the last snapshot is still within the trace
    synthesize(WF_SMALL, SCHEME, TouchTimeline(entries=((0, None), (49, None))), MP,
               QUIET, GEOM, MECH)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_gate_over_a_span_is_its_sub_spans_gates(data):
    # the gate depends only on absolute snapshot times and each entry's
    # port_reflections: any split of a span gives the same bytes, for random
    # touches (some starting past the trace's end), lines and carriers
    geom = SensorGeometry(length_mm=data.draw(st.floats(26.0, 400.0)),
                          eps_eff=data.draw(st.floats(1.0, 12.0)))
    wf = WaveformConfig(n_subcarriers=1, n_snapshots=data.draw(st.integers(2, 300)),
                        carrier_hz=data.draw(st.floats(1e8, 6e9)))
    N, L = wf.n_snapshots, geom.length_mm
    starts = [0] + sorted(data.draw(st.sets(st.integers(1, N + 20), max_size=6)))
    touches = [data.draw(st.none() | st.builds(
        TouchEvent, st.floats(0.0, 20.0), st.floats(0.0, L))) for _ in starts]
    timeline = TouchTimeline(entries=tuple(zip(starts, touches)))
    reflections = np.array([port_reflections(t, MECH, geom, wf.carrier_hz)
                            for s, t in timeline.entries if s < N])
    a, b = sorted(data.draw(st.sets(st.integers(0, N), min_size=2, max_size=2)))
    cuts = [a, *sorted(data.draw(st.sets(st.integers(a + 1, b), max_size=5)) - {b}), b]
    whole = chansim._gate(wf, SCHEME, timeline, reflections, slice(a, b))
    parts = [chansim._gate(wf, SCHEME, timeline, reflections, slice(x, y))
             for x, y in zip(cuts, cuts[1:])]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


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
