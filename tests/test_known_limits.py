"""The fooling ledger: each known way to fool the loop, pinned.

Each strict xfail asserts what its ROADMAP item's "Done when" asks, never a
looser bound, so the fix that lands the item turns it into a failure
(XPASS) until its marker goes.  Each is seeded and runs in well under a
second.  The plain tests beside them pin ways to fool the loop that are
mended: an input that checks itself refuses them where it is built.
"""
import json
from dataclasses import replace

import numpy as np
import pytest

from forcelink import calib, cli
from forcelink.chansim import NoiseSpec, TouchTimeline, synthesize
from forcelink.clocks import make_scheme
from forcelink.config import ConfigError, ExperimentConfig, parse_config
from forcelink.decoder import anchor, group_phases
from forcelink.sweeps import calibrate, touch_trace
from forcelink.traceio import write_trace
from forcelink.transducer import TouchEvent

NG = 625  # the default config's auto group size
PRESS = TouchEvent(4.0, 40.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 7: a 100 ppm clock offset the header does not carry biases "
    "every step, by 0.75-1.85 deg on port 1 and 4.0-6.3 deg on port 2"))
def test_a_clock_offset_leaves_a_held_press_without_steps(default_cfg):
    # noiseless, a held 4 N press at 40 mm over 20 groups, synthesized with
    # the clocks 100 ppm fast and decoded with the nominal scheme
    cfg = default_cfg
    trace = synthesize(replace(cfg.waveform, n_snapshots=20 * NG),
                       make_scheme(1000.0 * (1 + 1e-4)), TouchTimeline.constant(PRESS),
                       cfg.multipath, NoiseSpec(), cfg.geometry, cfg.mechanics)
    steps = group_phases(replace(trace, schemes=(make_scheme(1000.0),))).steps
    assert np.degrees(np.abs(steps)).max() <= 0.01


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5: a press starting 10 % into a group reads 3.24 N, not 4 N, "
    "and is marked reliable"))
def test_a_press_inside_a_group_is_not_reliable_unless_it_is_right(default_cfg):
    # noiseless, a 4 N press at 40 mm starting 62 snapshots into group 1;
    # group 1 is inverted by the default model
    cfg = default_cfg
    trace = synthesize(replace(cfg.waveform, n_snapshots=2 * NG), cfg.scheme,
                       TouchTimeline(((0, None), (NG + NG // 10, PRESS))),
                       cfg.multipath, NoiseSpec(), cfg.geometry, cfg.mechanics)
    phi = anchor(group_phases(trace).phases[1], cfg.geometry, cfg.waveform.carrier_hz)
    est = calib.invert(calibrate(cfg), float(phi[0]), float(phi[1]))
    assert not est.reliable or abs(est.force_n - PRESS.force_n) <= 0.3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 4 and 5: with a step in every group pair, sigma^2 reads "
    "about 537 times truth at 30 dB"))
def test_noise_power_holds_when_every_group_pair_holds_a_step(default_cfg):
    # two groups at 30 dB, seed 1: quiet, then the press on the boundary
    cfg = replace(default_cfg, noise=replace(default_cfg.noise, snr_db=30.0))
    truth = abs(cfg.multipath.sensor_path.amplitude) ** 2 * 10 ** (-30.0 / 10)
    sigma2 = group_phases(touch_trace(cfg, PRESS.force_n, PRESS.location_mm, 1)).sigma2
    assert abs(sigma2 / truth - 1) <= 0.03


def test_a_config_is_checked_however_it_is_built(default_cfg):
    # a force sweep on a 30-50 mm calibration would press at 20, 55 and
    # 60 mm, outside the model, and report it; a config made with replace
    # or built by hand refuses it as a parsed one does (test_config.py)
    narrow = replace(default_cfg.calibration, locations_mm=(30.0, 50.0))
    says = r"sweep.test_locations_mm: touch location 20.0 mm outside"
    with pytest.raises(ConfigError, match=says):
        replace(default_cfg, calibration=narrow)
    with pytest.raises(ConfigError, match=says):
        ExperimentConfig(**{**vars(default_cfg), "calibration": narrow})


# clock_b unshifted keeps both switches closed for 1/8 of each period
OVERLAPPING = {"clock_a": {"freq": 1000.0, "duty": 0.25},
               "clock_b": {"freq": 2000.0, "duty": 0.25, "offset": 0.0}}
OVERLAP_SAYS = "both switches are closed for 1/8 of each period"


def overlapping_scheme():
    scheme = make_scheme(1000.0)
    return replace(scheme, clock_b=replace(scheme.clock_b, phase_offset=0.0))


def test_overlapping_clocks_are_refused(default_cfg):
    with pytest.raises(ConfigError, match=OVERLAP_SAYS):
        parse_config({"clocks": OVERLAPPING})
    with pytest.raises(ConfigError, match=OVERLAP_SAYS):
        replace(default_cfg, scheme=overlapping_scheme())


@pytest.mark.parametrize("argv", [
    ["simulate"], ["calibrate"], ["sweep", "--mode", "force"],
    ["sweep", "--mode", "snr"], ["sweep", "--mode", "crosstalk"]],
    ids=["simulate", "calibrate", "sweep-force", "sweep-snr", "sweep-crosstalk"])
def test_every_command_refuses_overlapping_clocks(tmp_path, capsys, argv):
    config, out = tmp_path / "overlap.json", tmp_path / "out"
    config.write_text(json.dumps({"clocks": OVERLAPPING}))
    assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 2
    assert OVERLAP_SAYS in capsys.readouterr().err
    assert not out.exists()


def test_a_trace_of_overlapping_clocks_still_decodes(default_cfg, tmp_path):
    # a trace is data: the refusal is the config's, so decode reads a trace
    # whose header holds the overlapping scheme
    cfg = default_cfg
    trace = synthesize(cfg.waveform, overlapping_scheme(), cfg.timeline, cfg.multipath,
                       cfg.noise, cfg.geometry, cfg.mechanics)
    write_trace(trace, tmp_path / "run.trace")
    out = tmp_path / "phases.csv"
    assert cli.main(["decode", "--trace", str(tmp_path / "run.trace"),
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
