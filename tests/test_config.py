"""Config document parsing, validation, and error mapping."""
import json
import math

import pytest

from forcelink import cli
from forcelink.config import ConfigError, default_config_dict, load_config, parse_config
from forcelink.decoder import auto_group_size

from conftest import traced_peak


def test_default_document_parses():
    cfg = parse_config(default_config_dict())
    assert cfg.scheme.f_s == 1000.0
    assert cfg.waveform.n_subcarriers == 64
    assert cfg.waveform.n_snapshots == 1875
    assert cfg.noise.snr_db == 25.0
    assert cfg.noise.seed == 1
    assert len(cfg.timeline.entries) == 2
    assert cfg.calibration.locations_mm == (20.0, 30.0, 40.0, 50.0, 60.0)
    assert cfg.sweep.trials == 500
    assert len(cfg.multipath.paths) == 3
    assert cfg.multipath.sensor_path.distance_m == 1.0


def test_empty_document_gets_all_defaults():
    cfg = parse_config({})
    assert cfg.scheme.f_s == 1000.0
    assert cfg.noise.snr_db == 25.0


def test_partial_section_merges_with_defaults():
    cfg = parse_config({"waveform": {"n_snapshots": 5000}})
    assert cfg.waveform.n_snapshots == 5000
    assert cfg.waveform.subcarrier_spacing_hz == 195312.5


# one key of each dataclass section, and a valid value other than its default
ONE_KEY = {
    "waveform": ("n_snapshots", 5000),
    "geometry": ("height_mm", 0.7),
    "mechanics": ("force_scale_n", 5.0),
    "multipath": ("sensor_path", {"amplitude": [0.5, 0.0], "distance_m": 2.0}),
    "noise": ("snr_db", 10.0),
    "calibration": ("forces_n", [1.0, 2.0, 3.0, 4.0]),
    "sweep": ("trials", 12),
}


@pytest.mark.parametrize("section", ONE_KEY)
def test_a_section_given_one_key_keeps_its_other_defaults(section):
    key, value = ONE_KEY[section]
    full = default_config_dict()
    full[section][key] = value
    cfg = parse_config({section: {key: value}})
    assert cfg == parse_config(full)
    assert cfg != parse_config({})


@pytest.mark.parametrize("doc", [
    {"wave": {}},
    {"waveform": {"n_carriers": 8}},
    {"clocks": {"f_s_hz": 1000.0, "rate": 2}},
    {"geometry": {"length_cm": 8}},
    {"mechanics": {"stiffness": 1}},
    {"multipath": {"paths": [], "sensor_path": {"amplitude": [1, 0],
                                                "distance_m": 1.0},
                   "extra": 1}},
    {"noise": {"snr": 20}},
    {"timeline": [{"start_snapshot": 0, "touch": None, "label": "x"}]},
    {"timeline": [{"start_snapshot": 0,
                   "touch": {"force_n": 1, "location_mm": 10, "id": 7}}]},
    {"grouping": {"size": 625}},
    {"calibration": {"points": 4}},
    {"sweep": {"mode": "snr"}},
])
def test_unknown_keys_rejected(doc):
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(doc)


def test_non_object_root_rejected():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_switching_too_fast_for_snapshot_rate_rejected():
    # 2.5 kHz puts the top read tone at 10 kHz, past the snapshot Nyquist
    with pytest.raises(ConfigError, match="Nyquist"):
        parse_config({"clocks": {"f_s_hz": 2500.0}})
    cfg = parse_config({"clocks": {"f_s_hz": 1000.0}})
    assert cfg.scheme.f_s == 1000.0


def test_touch_location_outside_line_rejected():
    doc = {"timeline": [{"start_snapshot": 0,
                         "touch": {"force_n": 2.0, "location_mm": 90.0}}]}
    with pytest.raises(ConfigError, match="outside"):
        parse_config(doc)


def test_explicit_clock_pair():
    doc = {"clocks": {
        "clock_a": {"freq": 1000.0, "duty": 0.25, "offset": 0.0},
        "clock_b": {"freq": 2000.0, "duty": 0.25, "offset": 0.5}}}
    cfg = parse_config(doc)
    assert cfg.scheme.f_s == 1000.0
    assert cfg.scheme.clock_b.frequency == 2000.0


def test_mismatched_clock_pair_rejected():
    doc = {"clocks": {
        "clock_a": {"freq": 1000.0, "duty": 0.25, "offset": 0.0},
        "clock_b": {"freq": 2500.0, "duty": 0.25, "offset": 0.5}}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_lone_clock_rejected():
    doc = {"clocks": {"clock_a": {"freq": 1000.0, "duty": 0.25, "offset": 0.0}}}
    with pytest.raises(ConfigError, match="clock_b"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="f_s_hz"):
        parse_config({"clocks": {}})


def forces_range(start, stop, step):
    return {"calibration": {"forces_n": {"start": start, "stop": stop,
                                         "step": step}}}


def test_calibration_forces_as_range_spec(tmp_path, capsys):
    # forces_n is a list: a {start, stop, step} object is refused, by the
    # loader and by calibrate (exit 2, no model)
    path = tmp_path / "range.json"
    path.write_text(json.dumps(forces_range(1.0, 8.0, 0.5)))
    with pytest.raises(ConfigError, match=r"bad calibration\.forces_n: expected a "
                                          r"list of values, got \{'start'"):
        load_config(path)
    out = tmp_path / "model.json"
    assert cli.main(["calibrate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bad calibration.forces_n")
    assert not out.exists()


def test_a_negative_calibration_force_is_a_config_error(tmp_path, capsys):
    # a press cannot pull: the loader refuses a negative calibration force,
    # naming the section and key, so calibrate and the force sweep exit 2
    # and write nothing
    doc = {"calibration": {"forces_n": [-1, 1, 2, 3, 4]}}
    says = "bad calibration: forces_n must be >= 0, got (-1.0, 1.0, 2.0, 3.0, 4.0)"
    with pytest.raises(ConfigError) as e:
        parse_config(doc)
    assert str(e.value) == says
    path, out = tmp_path / "config.json", str(tmp_path / "out")
    path.write_text(json.dumps(doc))
    for argv in (["calibrate"], ["sweep", "--mode", "force"]):
        assert cli.main([*argv, "--config", str(path), "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {says}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_an_f_s_hz_beside_explicit_clocks_must_be_clock_a_freq(tmp_path, capsys):
    # f_s_hz beside clock_a and clock_b restates clock_a's freq: an equal one
    # reads the same scheme, another contradicts the clocks and is refused
    # (exit 2, no trace) rather than dropped
    clocks = {"clock_a": {"freq": 1000.0, "duty": 0.25},
              "clock_b": {"freq": 2000.0, "duty": 0.25, "offset": 0.5}}
    scheme = parse_config({"clocks": clocks}).scheme
    assert parse_config({"clocks": {"f_s_hz": 1000, **clocks}}).scheme == scheme
    doc = {"clocks": {"f_s_hz": 1400, **clocks}}
    says = "bad clocks.f_s_hz: 1400 is not clock_a's freq 1000.0"
    with pytest.raises(ConfigError) as e:
        parse_config(doc)
    assert str(e.value) == says
    path, out = tmp_path / "config.json", str(tmp_path / "out")
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_calibration_forces_as_list():
    doc = {"calibration": {"forces_n": [1, 2, 3, 4], "locations_mm": [20, 60]}}
    cfg = parse_config(doc)
    assert cfg.calibration.forces_n == (1.0, 2.0, 3.0, 4.0)
    assert cfg.calibration.locations_mm == (20.0, 60.0)


def test_a_grouping_section_is_refused(tmp_path, capsys):
    # the group size follows from the frame period and the clocks: a config
    # sets no size, not even the auto one, and every command refuses one
    # that tries before it writes anything
    path, out = tmp_path / "config.json", str(tmp_path / "out")
    for group_size in (1250, "auto"):
        doc = {"grouping": {"group_size": group_size}}
        with pytest.raises(ConfigError,
                           match=r"^unknown keys in 'config': \['grouping'\]$"):
            parse_config(doc)
        path.write_text(json.dumps(doc))
        for argv in (["simulate"], ["calibrate"], ["sweep", "--mode", "force"],
                     ["sweep", "--mode", "snr"], ["sweep", "--mode", "crosstalk"]):
            assert cli.main([*argv, "--config", str(path), "--out", out]) == 2
            assert capsys.readouterr().err == ("error: unknown keys in 'config': "
                                               "['grouping']\n")
            assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_clocks_fix_the_group_size():
    # the size holds whole cycles of every read tone: 625 snapshots for the
    # 1 kHz scheme, 3125 for a 1.4 kHz one; clocks that no size below the
    # cap holds whole cycles of are refused
    for f_s, size in ((1000.0, 625), (1400.0, 3125)):
        cfg = parse_config({"clocks": {"f_s_hz": f_s}})
        assert auto_group_size(cfg.waveform, cfg.scheme) == size
    with pytest.raises(ConfigError, match="^bad clocks: no integer-cycle group size "
                                          "below 100000"):
        parse_config({"clocks": {"f_s_hz": 1001.3}})


def test_noiseless_and_quantized_noise_settings():
    cfg = parse_config({"noise": {"snr_db": None, "quantize_bits": 12}})
    assert cfg.noise.snr_db is None
    assert cfg.noise.quantize_bits == 12


def test_bad_path_amplitude_rejected():
    doc = {"multipath": {"paths": [{"amplitude": [1.0], "distance_m": 0.0}],
                         "sensor_path": {"amplitude": [1.0, 0.0],
                                         "distance_m": 1.0}}}
    with pytest.raises(ConfigError, match="path"):
        parse_config(doc)


@pytest.mark.parametrize("snr_db", [25.0, None])
def test_an_invisible_sensor_is_refused(tmp_path, capsys, snr_db):
    # a sensor path of amplitude 0 carries no reflection: noise has no level
    # against it and a noiseless decode reads nothing, so the config is
    # refused on load and no command writes a file (exit 2).  A library
    # Path(0j, ...) stays legal
    doc = {"multipath": {"sensor_path": {"amplitude": [0.0, -0.0], "distance_m": 1.0}},
           "noise": {"snr_db": snr_db}}
    with pytest.raises(ConfigError, match="sensor_path.amplitude"):
        parse_config(doc)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    for argv in (["simulate"], ["calibrate"], ["sweep", "--mode", "force"],
                 ["sweep", "--mode", "snr"], ["sweep", "--mode", "crosstalk"]):
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 2, argv
        assert "sensor_path.amplitude" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_overrides():
    doc = {"sweep": {"trials": 12, "snr_grid_db": [0, 10, 20],
                     "test_locations_mm": [25, 45]}}
    cfg = parse_config(doc)
    assert cfg.sweep.trials == 12
    assert cfg.sweep.snr_grid_db == (0.0, 10.0, 20.0)
    assert cfg.sweep.test_locations_mm == (25.0, 45.0)
    assert cfg.sweep.second_f_s_hz == 1400.0


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(default_config_dict()))
    assert load_config(good).scheme.f_s == 1000.0


def test_a_range_spec_is_bounded_before_it_is_expanded():
    # a spec of 10^12 forces (8 TB as a list), or of an infinite count from
    # finite ends, is refused as it stands: nothing near that size is ever
    # allocated; an infinite end is refused the same way
    for start, stop in ((0.0, 1e12), (-1e308, 1e308), (0.0, math.inf)):
        def refused():
            with pytest.raises(ConfigError, match="expected a list of values"):
                parse_config(forces_range(start, stop, 1.0))
        _, peak = traced_peak(refused)
        assert peak < 2 ** 20, stop


@pytest.mark.parametrize("doc", [
    {"geometry": {"length_mm": None}},
    {"waveform": [1]},
    {"noise": "loud"},
    {"timeline": [{"touch": None}]},
    {"timeline": {"start_snapshot": 0}},
    forces_range(1.0, 8.0, 0),
    forces_range(1.0, 8.0, -0.5),
    forces_range(8.0, 1.0, 0.5),
    {"calibration": {"forces_n": {"start": 1.0, "stop": 8.0}}},
    {"sweep": {"trials": "x"}},
    {"sweep": {"trials": 2.5}},
    {"sweep": {"force_range_n": [1]}},  # an unknown key: the range is the model's
    {"grouping": {"group_size": "x"}},
    {"grouping": {"group_size": None}},
    {"clocks": {"f_s_hz": -1000.0}},
    {"clocks": {"clock_a": {"freq": 1000.0},
                "clock_b": {"freq": 2000.0, "duty": 0.25}}},
    {"multipath": {"paths": 5}},
    {"noise": {"seed": True}},
    {"sweep": {"trials": 0}},
    {"sweep": {"trials": -3}},
    {"clocks": {"f_s_hz": 1001.3}},
    {"mechanics": {"max_halfwidth_mm": 50.0}},
    {"calibration": {"forces_n": [1.0, 2.0, 3.0]}},
    {"calibration": {"locations_mm": [40.0, 40.0, 40.0]}},
    {"calibration": {"locations_mm": [20.0, 120.0]}},
    {"sweep": {"test_locations_mm": [100.0]}},
    {"clocks": {"clock_a": {"freq": 1000.0, "duty": 0.3},
                "clock_b": {"freq": 2000.0, "duty": 0.25, "offset": 0.5}}},
    {"clocks": {"clock_a": {"freq": 1000.0, "duty": 0.25},
                "clock_b": {"freq": 2000.0, "duty": 0.5, "offset": 0.5}}},
    {"noise": {"snr_db": math.nan}},
    {"waveform": {"subcarrier_spacing_hz": math.inf}},
    {"timeline": [{"start_snapshot": 0,
                   "touch": {"force_n": math.nan, "location_mm": 40.0}}]},
    {"sweep": {"force_range_n": [-1.0, 8.0]}},  # an unknown key, as above
], ids=["null-float", "section-list", "section-string", "row-no-start",
        "timeline-object", "step-zero", "step-negative", "stop-below-start",
        "range-no-step", "trials-string", "trials-fraction", "range-one-value",
        "group-size-string", "group-size-null", "negative-f_s", "clock-no-duty",
        "paths-number", "seed-bool", "trials-zero", "trials-negative",
        "ungroupable-f_s", "halfwidth-past-half-line", "three-forces",
        "one-distinct-location", "calibration-past-line", "test-location-past-line",
        "clock_a-4th-on-port-2", "clock_b-2nd-null", "snr-nan", "spacing-infinity",
        "timeline-force-nan", "force-range-negative"])
def test_malformed_config_is_a_config_error(doc, tmp_path, capsys):
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(path), "--mode", "force",
                     "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [["simulate"], ["calibrate"],
                                  *(["sweep", "--mode", m] for m in ("force", "snr",
                                                                     "crosstalk"))],
                         ids=["simulate", "calibrate", "sweep-force", "sweep-snr",
                              "sweep-crosstalk"])
def test_every_command_refuses_a_sweep_force_range(tmp_path, capsys, argv):
    # the force sweep draws over the calibrated model's range: the sweep
    # section sets none, so the key is unknown
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"sweep": {"force_range_n": [1.0, 8.0]}}))
    assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: unknown keys in 'sweep': "
                                       "['force_range_n']\n")
    assert list(tmp_path.iterdir()) == [path]


def test_section_errors_name_the_section():
    with pytest.raises(ConfigError, match=r"sweep\.trials"):
        parse_config({"sweep": {"trials": "x"}})
    with pytest.raises(ConfigError, match=r"missing keys in 'timeline\[0\]\.touch'"):
        parse_config({"timeline": [{"start_snapshot": 0,
                                    "touch": {"force_n": 1.0}}]})
    with pytest.raises(ConfigError, match=r"bad geometry: eps_eff"):
        parse_config({"geometry": {"eps_eff": 0.5}})


def test_default_document_bytes_are_pinned():
    # its waveform, geometry, mechanics, calibration and sweep sections come
    # from the dataclass defaults, so changing one of those must show here
    assert json.dumps(default_config_dict()) == (
        '{"waveform": {"n_subcarriers": 64, "subcarrier_spacing_hz": 195312.5, '
        '"frame_period_s": 5.76e-05, "carrier_hz": 2400000000.0, '
        '"n_snapshots": 1875}, "clocks": {"f_s_hz": 1000.0}, '
        '"geometry": {"length_mm": 80.0, "signal_width_mm": 2.5, '
        '"ground_width_mm": 6.0, "height_mm": 0.63, "eps_eff": 1.0}, '
        '"mechanics": {"contact_threshold_n": 0.5, "force_scale_n": 4.0, '
        '"max_halfwidth_mm": 13.0, "asymmetry_exponent": 1.0}, '
        '"multipath": {"paths": [{"amplitude": [100.0, 0.0], "distance_m": 0.0}, '
        '{"amplitude": [0.4, 0.3], "distance_m": 3.2}, '
        '{"amplitude": [-0.2, 0.1], "distance_m": 7.4}], '
        '"sensor_path": {"amplitude": [1.0, 0.0], "distance_m": 1.0}}, '
        '"noise": {"snr_db": 25.0, "seed": 1, "quantize_bits": null}, '
        '"timeline": [{"start_snapshot": 0, "touch": null}, '
        '{"start_snapshot": 625, "touch": {"force_n": 4.0, "location_mm": 40.0}}], '
        '"calibration": {"locations_mm": [20.0, 30.0, 40.0, 50.0, 60.0], '
        '"forces_n": [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, '
        '7.0, 7.5, 8.0]}, '
        '"sweep": {"test_locations_mm": [20.0, 40.0, 55.0, 60.0], '
        '"trials": 500, '
        '"snr_grid_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0], '
        '"second_f_s_hz": 1400.0}}')
