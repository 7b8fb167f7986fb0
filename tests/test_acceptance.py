"""Whole-system acceptance checks.

Each check prints exactly one line, "ACCEPTANCE nn: PASS - <measurements>"
(run pytest with -s to see the lines for passing checks).  Together they pin
the headline guarantees: exact clock algebra, the snapshot-rate bound,
decoder exactness and its averaging behavior, transducer geometry, closed
loop force accuracy, two-sensor isolation, microstrip design math, CLI
behavior, and bit-exact persistence.
"""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from forcelink import cli
from forcelink.calib import fit_model, generate_sweep, model_forward
from forcelink.chansim import (ChannelTrace, NoiseSpec, NyquistError,
                               TouchTimeline, WaveformConfig, nyquist_check,
                               synthesize)
from forcelink.clocks import SwitchClock, make_scheme, verify_disjoint
from forcelink.config import ConfigError, default_config_dict, parse_config
from forcelink.decoder import group_phases
from forcelink.sweeps import (run_crosstalk, run_force_sweep, run_snr_sweep,
                              snr_meeting_threshold)
from forcelink.traceio import read_trace, write_trace
from forcelink.transducer import (MechanicalParams, SensorGeometry,
                                  ShortingState, TouchEvent, impedance,
                                  port_phases, shorting_segment,
                                  solve_width_ratio)

from conftest import tone_trace


def report(n, ok, detail):
    line = f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_01_switch_clock_algebra():
    t0 = time.perf_counter()
    scheme = make_scheme(1000.0)
    rep = verify_disjoint(scheme)
    support = SwitchClock(1000.0, 0.25).harmonic_support(8)
    nulls = max(abs(scheme.clock_a.fourier_coefficient(p)) for p in (4, 8))
    worst = max(abs(clock.sampled_coefficient(p, samples_per_period=256)
                    - clock.fourier_coefficient(p))
                for clock in (scheme.clock_a, scheme.clock_b)
                for p in range(9))
    dt = time.perf_counter() - t0
    ok = (rep.disjoint and rep.overlap_fraction == 0
          and support == {1, 2, 3, 5, 6, 7}
          and nulls == 0.0 and worst < 1e-6 and dt < 1.0)
    report(1, ok, f"on-window overlap exactly {rep.overlap_fraction}, "
                  f"support {sorted(support)}, null harmonics {nulls:.1e}, "
                  f"sampled-vs-analytic {worst:.2e}, {dt:.2f}s")


def test_02_snapshot_rate_bound():
    t0 = time.perf_counter()
    wf = WaveformConfig()

    def accepted(f_s):
        try:
            nyquist_check(wf, make_scheme(f_s))
        except NyquistError:
            return False
        return True

    limit = wf.nyquist_hz
    exact = limit == 0.5 / wf.frame_period_s
    with pytest.raises(ConfigError):
        parse_config({"clocks": {"f_s_hz": 2500.0}})
    dt = time.perf_counter() - t0
    ok = (accepted(1000.0) and not accepted(2500.0) and exact
          and abs(limit - 8680.5556) < 0.01 and dt < 1.0)
    report(2, ok, f"bound {limit:.1f} Hz, 1000 Hz accepted, "
                  f"2500 Hz rejected, {dt:.2f}s")


def test_03_decoder_exactness():
    t0 = time.perf_counter()
    scheme = make_scheme(1000.0)
    ng = 625
    wf = WaveformConfig(n_snapshots=2 * ng)
    n = np.arange(wf.n_snapshots)
    worst_step = 0.0
    for delta_deg in (1.0, -1.0, 10.0, -10.0, 90.0, -90.0):
        delta = math.radians(delta_deg)
        for port in (1, 2):
            phi1 = np.full(wf.n_snapshots, 0.3)
            phi2 = np.full(wf.n_snapshots, -1.1)
            (phi1 if port == 1 else phi2)[n >= ng] += delta
            series = group_phases(tone_trace(wf, scheme, phi1, phi2),
                                  scheme, ng)
            moved, still = series.steps[0, port - 1], series.steps[0, 2 - port]
            worst_step = max(worst_step, abs(float(moved) - delta),
                             abs(float(still)))

    # static reflections up to 40 dB above the sensor return project to zero
    phi1 = np.full(wf.n_snapshots, 0.3)
    phi2 = np.where(n < ng, -1.1, -1.1 + math.radians(10.0))
    clean = group_phases(tone_trace(wf, scheme, phi1, phi2), scheme, ng)
    rng = np.random.default_rng(17)
    offsets = (rng.uniform(10.0, 100.0, size=(10, 1))
               * np.exp(2j * np.pi * rng.random((10, wf.n_subcarriers))))
    dirty = group_phases(tone_trace(wf, scheme, phi1, phi2,
                                    static_offsets=offsets), scheme, ng)
    worst_mp = float(np.abs(dirty.steps[0] - clean.steps[0]).max())
    dt = time.perf_counter() - t0
    ok = worst_step < 1e-9 and worst_mp < 1e-6 and dt < 10.0
    report(3, ok, f"injected-step error {worst_step:.2e} rad, 10 static "
                  f"reflections shift {worst_mp:.2e} rad, {dt:.1f}s")


def test_04_averaging_gain(default_cfg):
    t0 = time.perf_counter()
    n_seeds = 400

    cfg, held = default_cfg, TouchTimeline.constant(TouchEvent(4.0, 40.0))

    def stds(k, ng):
        # the averaging gain is what the sweeps' projection domain assumes,
        # so it is measured on the full path: synthesize's two-group traces
        wf = replace(cfg.waveform, n_subcarriers=k, n_snapshots=2 * ng)
        errs = [group_phases(synthesize(wf, cfg.scheme, held, cfg.multipath,
                                        NoiseSpec(10.0, seed), cfg.geometry,
                                        cfg.mechanics), cfg.scheme, ng).steps[0]
                for seed in range(1000, 1000 + n_seeds)]
        return np.std(errs, axis=0, ddof=1)

    s_k1 = stds(1, 625)
    s_k16 = stds(16, 625)
    s_k64 = stds(64, 625)
    s_big = stds(64, 3125)
    r_a = s_k1 / s_k16    # 16x the subcarriers: expect 4
    r_b = s_k16 / s_k64   # 4x the subcarriers: expect 2
    r_g = s_k64 / s_big   # 5x the snapshots per group: expect sqrt(5)
    within = (np.all(np.abs(r_a / 4.0 - 1.0) <= 0.2)
              and np.all(np.abs(r_b / 2.0 - 1.0) <= 0.2)
              and np.all(np.abs(r_g / math.sqrt(5.0) - 1.0) <= 0.2))
    _, aggs = run_snr_sweep(default_cfg, trials=30, seed=77)
    snr_half_deg = snr_meeting_threshold(aggs, 0.5)
    dt = time.perf_counter() - t0
    ok = within and snr_half_deg is not None and dt < 120.0
    report(4, ok, f"{n_seeds} seeds: std ratios K1/K16 {r_a.round(2)}, "
                  f"K16/K64 {r_b.round(2)}, group 625/3125 {r_g.round(2)}; "
                  f"std<=0.5 deg from {snr_half_deg} dB; {dt:.1f}s")


def test_05_press_geometry():
    t0 = time.perf_counter()
    geom, mech = SensorGeometry(), MechanicalParams()
    base = port_phases(ShortingState.open(), geom, 2.4e9)
    worst_asym = 0.0
    center_ok = True
    for F in np.arange(0.6, 8.01, 0.1):
        pp = port_phases(shorting_segment(TouchEvent(float(F), 40.0),
                                          mech, geom), geom, 2.4e9)
        worst_asym = max(worst_asym,
                         abs((pp.phi1 - base.phi1) - (pp.phi2 - base.phi2)))
    center_ok = worst_asym <= 1e-12
    edge_ok = True
    for F in np.arange(0.51, 8.01, 0.05):
        pp = port_phases(shorting_segment(TouchEvent(float(F), 20.0),
                                          mech, geom), geom, 2.4e9)
        if abs(pp.phi1 - base.phi1) < abs(pp.phi2 - base.phi2):
            edge_ok = False
    dt = time.perf_counter() - t0
    ok = center_ok and edge_ok and dt < 1.0
    report(5, ok, f"center press port asymmetry {worst_asym:.1e} rad, "
                  f"near-end press always moves port 1 more: {edge_ok}, "
                  f"{dt:.2f}s")


def test_06_closed_loop_accuracy(default_cfg):
    t0 = time.perf_counter()
    rows, aggs = run_force_sweep(default_cfg, trials=500, seed=0)
    med_f = aggs[0]["force_err_n"]
    med_l = aggs[0]["location_err_mm"]
    dt = time.perf_counter() - t0
    ok = (len(rows) == 500 and med_f <= 0.3 and med_l <= 0.6 and dt < 300.0)
    report(6, ok, f"500 presses at 25 dB: median force error {med_f:.3f} N, "
                  f"median location error {med_l:.3f} mm, {dt:.1f}s")


def test_07_model_held_out_location():
    t0 = time.perf_counter()
    geom, mech = SensorGeometry(), MechanicalParams()
    forces = [1.0 + 0.5 * i for i in range(15)]
    model = fit_model(generate_sweep((20.0, 30.0, 40.0, 50.0, 60.0), forces,
                                     geom, mech, 2.4e9))
    errs = []
    for F in np.arange(1.0, 8.01, 0.25):
        fw = model_forward(model, float(F), 55.0)
        pp = port_phases(shorting_segment(TouchEvent(float(F), 55.0),
                                          mech, geom), geom, 2.4e9)
        errs += [fw.phi1 - pp.phi1, fw.phi2 - pp.phi2]
    rms = math.degrees(math.sqrt(float(np.mean(np.square(errs)))))
    dt = time.perf_counter() - t0
    ok = rms < 2.0 and dt < 10.0
    report(7, ok, f"55 mm held out of calibration: {rms:.3f} deg rms across "
                  f"the force range, {dt:.1f}s")


def test_08_two_sensor_isolation(default_cfg):
    t0 = time.perf_counter()
    cfg = replace(default_cfg, noise=replace(default_cfg.noise, snr_db=30.0))
    rows, aggs = run_crosstalk(cfg, seed=0)
    worst = {a["victim_sensor"]: a["max_crosstalk_deg"] for a in aggs}
    dt = time.perf_counter() - t0
    ok = worst[1] < 0.1 and worst[2] < 0.1 and dt < 60.0
    report(8, ok, f"1.0 and 1.4 kHz families at 30 dB: worst per-group leak "
                  f"{worst[1]:.4f} deg into sensor 1, {worst[2]:.2e} deg "
                  f"into sensor 2, {dt:.1f}s")


def test_09_microstrip_design():
    t0 = time.perf_counter()
    z_point = impedance(1.0, 5.0)  # height/width = 0.2
    ratio = solve_width_ratio(50.0)
    z_round = impedance(1.0, ratio)
    dt = time.perf_counter() - t0
    ok = (abs(z_point - 49.4) < 0.05 and 4.8 <= ratio <= 5.0
          and abs(z_round - 50.0) < 1e-6 and dt < 1.0)
    report(9, ok, f"z(h/w=0.2)={z_point:.3f} ohm, 50 ohm at w/h={ratio:.4f}, "
                  f"roundtrip error {abs(z_round - 50.0):.1e} ohm, {dt:.2f}s")


def test_10_cli_snr_sweep(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(default_config_dict()))
    out = tmp_path / "snr.csv"
    ret = cli.main(["sweep", "--config", str(cfg_path), "--mode", "snr",
                    "--out", str(out), "--trials", "30", "--seed", "5"])
    aggs = []
    for line in out.read_text().strip().split("\n")[1:]:
        kind, snr_db, _, _, _, std1, std2 = line.split(",")
        if kind == "aggregate":
            aggs.append({"snr_db": float(snr_db),
                         "phase_std1_deg": float(std1),
                         "phase_std2_deg": float(std2)})
    snrs = [a["snr_db"] for a in aggs]
    worsts = [max(a["phase_std1_deg"], a["phase_std2_deg"]) for a in aggs]
    rho = float(spearmanr(snrs, worsts)[0])
    usable_from = snr_meeting_threshold(aggs, 5.0)
    dt = time.perf_counter() - t0
    ok = (ret == 0 and len(aggs) == 9 and rho <= -0.95
          and usable_from is not None and dt < 120.0)
    report(10, ok, f"phase noise vs SNR Spearman rho {rho:.3f} over "
                   f"{snrs[0]:.0f}..{snrs[-1]:.0f} dB, std<=5 deg from "
                   f"{usable_from} dB, {dt:.1f}s")


def test_11_bit_exact_persistence(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    specials = np.array([0.0, -0.0, 1e-45, -1e-45, 1.1754944e-38,
                         -1.1754944e-38, 3.4e38, -3.4e38, 1.0, -1.0],
                        dtype=np.float32)
    all_ok = True
    for trial in range(100):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(2, 50))
        c8 = np.empty((n, k), dtype="<c8")
        c8.real = rng.normal(scale=1e3, size=(n, k)).astype(np.float32)
        c8.imag = rng.normal(scale=1e-3, size=(n, k)).astype(np.float32)
        flat = c8.reshape(-1)
        idx = rng.choice(flat.size, size=min(len(specials), flat.size),
                         replace=False)
        for i, v in zip(idx, specials):
            flat[i] = complex(v, -v)
        trace = ChannelTrace(config=WaveformConfig(n_subcarriers=k,
                                                   n_snapshots=n),
                             data=c8.astype(np.complex128))
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        back = read_trace(path)
        if back.data.astype("<c8").tobytes() != c8.tobytes():
            all_ok = False
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 10.0
    report(11, ok, f"100 random float32 traces (zeros, signed zeros, "
                   f"subnormals, extremes) reread bit-identically, {dt:.1f}s")
