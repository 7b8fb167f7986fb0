"""Config document parsing, validation, and error mapping."""
import json

import pytest

from forcelink import cli
from forcelink.config import (ConfigError, default_config_dict, load_config,
                              parse_config)


def test_default_document_parses():
    cfg = parse_config(default_config_dict())
    assert cfg.scheme.f_s == 1000.0
    assert cfg.waveform.n_subcarriers == 64
    assert cfg.waveform.n_snapshots == 1875
    assert cfg.noise.snr_db == 25.0
    assert cfg.noise.seed == 1
    assert len(cfg.timeline.entries) == 2
    assert cfg.group_size is None  # auto
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


def test_calibration_forces_as_range_spec():
    doc = {"calibration": {"forces_n": {"start": 1.0, "stop": 8.0, "step": 0.5}}}
    cfg = parse_config(doc)
    assert len(cfg.calibration.forces_n) == 15
    assert cfg.calibration.forces_n[0] == 1.0
    assert cfg.calibration.forces_n[-1] == 8.0


def test_calibration_forces_as_list():
    doc = {"calibration": {"forces_n": [1, 2, 3, 4], "locations_mm": [20, 60]}}
    cfg = parse_config(doc)
    assert cfg.calibration.forces_n == (1.0, 2.0, 3.0, 4.0)
    assert cfg.calibration.locations_mm == (20.0, 60.0)


def test_grouping_explicit_and_auto():
    assert parse_config({"grouping": {"group_size": 1250}}).group_size == 1250
    assert parse_config({"grouping": {"group_size": "auto"}}).group_size is None
    with pytest.raises(ConfigError):
        parse_config({"grouping": {"group_size": 0}})
    # a size must hold whole cycles of every read tone: a multiple of 625
    # for the 1 kHz scheme, of 3125 for a 1.4 kHz one
    assert parse_config({"grouping": {"group_size": 3 * 625}}).group_size == 1875
    fast = {"clocks": {"f_s_hz": 1400.0}}
    assert parse_config({"grouping": {"group_size": 3125}, **fast}).group_size == 3125
    for doc in ({"grouping": {"group_size": 600}},
                {"grouping": {"group_size": -625}},
                {"grouping": {"group_size": 625}, **fast}):
        with pytest.raises(ConfigError, match="not a positive multiple of"):
            parse_config(doc)


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


def forces_range(start, stop, step):
    return {"calibration": {"forces_n": {"start": start, "stop": stop,
                                         "step": step}}}


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
    {"sweep": {"force_range_n": [1]}},
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
], ids=["null-float", "section-list", "section-string", "row-no-start",
        "timeline-object", "step-zero", "step-negative", "stop-below-start",
        "range-no-step", "trials-string", "trials-fraction", "range-one-value",
        "group-size-string", "group-size-null", "negative-f_s", "clock-no-duty",
        "paths-number", "seed-bool", "trials-zero", "trials-negative",
        "ungroupable-f_s", "halfwidth-past-half-line"])
def test_malformed_config_is_a_config_error(doc, tmp_path, capsys):
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(path), "--mode", "force",
                     "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_section_errors_name_the_section():
    with pytest.raises(ConfigError, match=r"sweep\.trials"):
        parse_config({"sweep": {"trials": "x"}})
    with pytest.raises(ConfigError, match=r"missing keys in 'timeline\[0\]\.touch'"):
        parse_config({"timeline": [{"start_snapshot": 0,
                                    "touch": {"force_n": 1.0}}]})
    with pytest.raises(ConfigError, match=r"bad geometry: eps_eff"):
        parse_config({"geometry": {"eps_eff": 0.5}})


def test_default_document_bytes_are_pinned():
    # its waveform, geometry and mechanics sections come from the dataclass
    # defaults, so changing one of those must show here
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
        '{"start_snapshot": 625, "touch": {"force_n": 4.0, "location_mm": 40.0}}]}')
