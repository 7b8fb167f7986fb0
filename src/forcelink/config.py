"""Experiment configuration: one JSON document describing a whole run.

Sections: waveform, clocks, geometry, mechanics, multipath, noise, timeline,
plus optional grouping, calibration, sweep, and second_sensor blocks.  Keys
are validated strictly; unknown keys are rejected rather than ignored.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .chansim import (MultipathProfile, NoiseSpec, Path, TouchTimeline,
                      WaveformConfig, nyquist_check)
from .clocks import ClockScheme, SwitchClock, make_scheme
from .transducer import MechanicalParams, SensorGeometry, TouchEvent


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


def _take(d: dict, section: str, known: set[str]) -> None:
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")


@dataclass(frozen=True)
class SweepSettings:
    test_locations_mm: tuple[float, ...] = (20.0, 40.0, 55.0, 60.0)
    force_range_n: tuple[float, float] = (1.0, 8.0)
    trials: int = 500
    snr_grid_db: tuple[float, ...] = tuple(float(s) for s in range(0, 41, 5))
    second_f_s_hz: float = 1400.0


@dataclass(frozen=True)
class CalibrationSettings:
    locations_mm: tuple[float, ...] = (20.0, 30.0, 40.0, 50.0, 60.0)
    forces_n: tuple[float, ...] = tuple(1.0 + 0.5 * i for i in range(15))


@dataclass(frozen=True)
class ExperimentConfig:
    waveform: WaveformConfig
    scheme: ClockScheme
    geometry: SensorGeometry
    mechanics: MechanicalParams
    multipath: MultipathProfile
    noise: NoiseSpec
    timeline: TouchTimeline
    group_size: int | None = None  # None means auto
    calibration: CalibrationSettings = field(default_factory=CalibrationSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)


def default_config_dict() -> dict:
    """The reference desk-scale setup, serializable and editable."""
    return {
        "waveform": {"n_subcarriers": 64, "subcarrier_spacing_hz": 195312.5,
                     "frame_period_s": 720.0 / 12.5e6, "carrier_hz": 2.4e9,
                     "n_snapshots": 1875},
        "clocks": {"f_s_hz": 1000.0},
        "geometry": {"length_mm": 80.0, "signal_width_mm": 2.5,
                     "ground_width_mm": 6.0, "height_mm": 0.63, "eps_eff": 1.0},
        "mechanics": {"contact_threshold_n": 0.5, "force_scale_n": 4.0,
                      "max_halfwidth_mm": 13.0, "asymmetry_exponent": 1.0},
        "multipath": {
            "paths": [{"amplitude": [100.0, 0.0], "distance_m": 0.0},
                      {"amplitude": [0.4, 0.3], "distance_m": 3.2},
                      {"amplitude": [-0.2, 0.1], "distance_m": 7.4}],
            "sensor_path": {"amplitude": [1.0, 0.0], "distance_m": 1.0},
        },
        "noise": {"snr_db": 25.0, "seed": 1, "quantize_bits": None},
        "timeline": [{"start_snapshot": 0, "touch": None},
                     {"start_snapshot": 625,
                      "touch": {"force_n": 4.0, "location_mm": 40.0}}],
    }


def _parse_clock(d: dict, name: str) -> SwitchClock:
    _take(d, name, {"freq", "duty", "offset"})
    try:
        return SwitchClock(frequency=float(d["freq"]), duty=float(d["duty"]),
                           phase_offset=float(d.get("offset", 0.0)))
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad {name}: {e}") from e


def _parse_scheme(d: dict) -> ClockScheme:
    _take(d, "clocks", {"f_s_hz", "clock_a", "clock_b"})
    if "clock_a" in d or "clock_b" in d:
        if not ("clock_a" in d and "clock_b" in d):
            raise ConfigError("clocks needs both clock_a and clock_b, or just f_s_hz")
        try:
            return ClockScheme(clock_a=_parse_clock(d["clock_a"], "clock_a"),
                               clock_b=_parse_clock(d["clock_b"], "clock_b"))
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if "f_s_hz" not in d:
        raise ConfigError("clocks needs f_s_hz or explicit clock_a/clock_b")
    return make_scheme(float(d["f_s_hz"]))


def _parse_path(d: dict, name: str) -> Path:
    _take(d, name, {"amplitude", "distance_m"})
    try:
        re, im = d["amplitude"]
        return Path(amplitude=complex(float(re), float(im)),
                    distance_m=float(d["distance_m"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad path '{name}': {e}") from e


def _parse_timeline(rows: list) -> TouchTimeline:
    entries = []
    for i, row in enumerate(rows):
        _take(row, f"timeline[{i}]", {"start_snapshot", "touch"})
        touch = row.get("touch")
        if touch is not None:
            _take(touch, f"timeline[{i}].touch", {"force_n", "location_mm"})
            touch = TouchEvent(force_n=float(touch["force_n"]),
                               location_mm=float(touch["location_mm"]))
        entries.append((int(row["start_snapshot"]), touch))
    try:
        return TouchTimeline(entries=tuple(entries))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the typed experiment description."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _take(doc, "config", {"waveform", "clocks", "geometry", "mechanics",
                          "multipath", "noise", "timeline", "grouping",
                          "calibration", "sweep"})
    base = default_config_dict()

    wf = {**base["waveform"], **doc.get("waveform", {})}
    _take(wf, "waveform", {"n_subcarriers", "subcarrier_spacing_hz",
                           "frame_period_s", "carrier_hz", "n_snapshots"})
    try:
        waveform = WaveformConfig(
            n_subcarriers=int(wf["n_subcarriers"]),
            subcarrier_spacing_hz=float(wf["subcarrier_spacing_hz"]),
            frame_period_s=float(wf["frame_period_s"]),
            carrier_hz=float(wf["carrier_hz"]),
            n_snapshots=int(wf["n_snapshots"]))
    except ValueError as e:
        raise ConfigError(f"bad waveform: {e}") from e

    scheme = _parse_scheme(doc.get("clocks", base["clocks"]))

    geo = {**base["geometry"], **doc.get("geometry", {})}
    _take(geo, "geometry", {"length_mm", "signal_width_mm", "ground_width_mm",
                            "height_mm", "eps_eff"})
    try:
        geometry = SensorGeometry(**{k: float(v) for k, v in geo.items()})
    except ValueError as e:
        raise ConfigError(f"bad geometry: {e}") from e

    mech_d = {**base["mechanics"], **doc.get("mechanics", {})}
    _take(mech_d, "mechanics", {"contact_threshold_n", "force_scale_n",
                                "max_halfwidth_mm", "asymmetry_exponent"})
    try:
        mechanics = MechanicalParams(**{k: float(v) for k, v in mech_d.items()})
    except ValueError as e:
        raise ConfigError(f"bad mechanics: {e}") from e

    mp_d = doc.get("multipath", base["multipath"])
    _take(mp_d, "multipath", {"paths", "sensor_path"})
    multipath = MultipathProfile(
        paths=tuple(_parse_path(p, f"paths[{i}]")
                    for i, p in enumerate(mp_d.get("paths", []))),
        sensor_path=_parse_path(
            mp_d.get("sensor_path", base["multipath"]["sensor_path"]),
            "sensor_path"))

    noise_d = {**base["noise"], **doc.get("noise", {})}
    _take(noise_d, "noise", {"snr_db", "seed", "quantize_bits"})
    try:
        noise = NoiseSpec(
            snr_db=None if noise_d["snr_db"] is None else float(noise_d["snr_db"]),
            seed=int(noise_d["seed"]),
            quantize_bits=(None if noise_d["quantize_bits"] is None
                           else int(noise_d["quantize_bits"])))
    except ValueError as e:
        raise ConfigError(f"bad noise: {e}") from e

    timeline = _parse_timeline(doc.get("timeline", base["timeline"]))

    group_size = None
    if "grouping" in doc:
        _take(doc["grouping"], "grouping", {"group_size"})
        gs = doc["grouping"].get("group_size", "auto")
        if gs != "auto":
            group_size = int(gs)
            if group_size < 1:
                raise ConfigError("group_size must be >= 1 or 'auto'")

    calibration = CalibrationSettings()
    if "calibration" in doc:
        _take(doc["calibration"], "calibration", {"locations_mm", "forces_n"})
        c = doc["calibration"]
        locs = tuple(float(x) for x in c.get("locations_mm",
                                             calibration.locations_mm))
        forces = c.get("forces_n", list(calibration.forces_n))
        if isinstance(forces, dict):
            _take(forces, "calibration.forces_n", {"start", "stop", "step"})
            start, stop, step = (float(forces["start"]), float(forces["stop"]),
                                 float(forces["step"]))
            n = int(round((stop - start) / step)) + 1
            forces = [start + i * step for i in range(n)]
        calibration = CalibrationSettings(locations_mm=locs,
                                          forces_n=tuple(float(f) for f in forces))

    sweep = SweepSettings()
    if "sweep" in doc:
        _take(doc["sweep"], "sweep", {"test_locations_mm", "force_range_n",
                                      "trials", "snr_grid_db", "second_f_s_hz"})
        s = doc["sweep"]
        sweep = SweepSettings(
            test_locations_mm=tuple(float(x) for x in s.get(
                "test_locations_mm", sweep.test_locations_mm)),
            force_range_n=tuple(float(x) for x in s.get(
                "force_range_n", sweep.force_range_n)),
            trials=int(s.get("trials", sweep.trials)),
            snr_grid_db=tuple(float(x) for x in s.get(
                "snr_grid_db", sweep.snr_grid_db)),
            second_f_s_hz=float(s.get("second_f_s_hz", sweep.second_f_s_hz)))

    cfg = ExperimentConfig(waveform=waveform, scheme=scheme, geometry=geometry,
                           mechanics=mechanics, multipath=multipath, noise=noise,
                           timeline=timeline, group_size=group_size,
                           calibration=calibration, sweep=sweep)
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    nyquist_check(cfg.waveform, cfg.scheme, ConfigError)
    L = cfg.geometry.length_mm
    for _, touch in cfg.timeline.entries:
        if touch is not None and not 0.0 <= touch.location_mm <= L:
            raise ConfigError(
                f"touch location {touch.location_mm} mm outside line [0, {L}] mm")


def read_config_doc(path) -> dict:
    """The raw JSON document of a config file; unreadable files are ConfigErrors."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def load_config(path) -> ExperimentConfig:
    return parse_config(read_config_doc(path))
