"""Experiment configuration: one JSON document describing a whole run.

Sections: waveform, clocks, geometry, mechanics, multipath, noise, timeline,
calibration and sweep, each listed in default_config_dict().  A
section's keys are the fields of the dataclass it builds (clocks use
freq/duty/offset, the layout scheme_to_dict writes) and keys it omits take
that document's values.  read_section is the one JSON -> dataclass step:
unknown keys and missing or malformed values are ConfigErrors naming the
section (CLI exit 2).  traceio reads trace headers, datasets and sensor
models with it too and re-raises its errors as ValueErrors naming the file
(exit 1).
load_config is the one loader of a config file, for the CLI and the library
alike, so one file gives one run: the same seed, the same trace.
"""
from __future__ import annotations

import functools
import json
import numbers
import sys
import types
import typing
from dataclasses import asdict, dataclass, fields

from .chansim import (MultipathProfile, NoiseSpec, Path, TouchTimeline,
                      WaveformConfig, nyquist_check)
from .clocks import ClockScheme, SwitchClock, make_scheme
from .decoder import auto_group_size
from .transducer import MechanicalParams, SensorGeometry, TouchEvent


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


_type_hints = functools.cache(typing.get_type_hints)  # once per dataclass


def _take(d, section: str, known: set[str]) -> None:
    if not isinstance(d, dict):
        raise ConfigError(
            f"'{section}' must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")


def _convert(tp, v, name: str, keys: dict | None = None):
    """v as a value of type annotation tp, or a ConfigError naming it."""
    if tp in (float, int, str):
        if tp is str:
            ok = isinstance(v, str)
        else:  # a number but not true/false, and a whole one for an int
            ok = (isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool)
                  and (tp is float or isinstance(v, (int, numbers.Integral))
                       or float(v).is_integer()))
        if not ok:
            raise ConfigError(f"bad {name}: expected {tp.__name__}, got {v!r}")
        # json reads NaN, Infinity and integers past float's range
        if tp is float and not abs(v) <= sys.float_info.max:
            raise ConfigError(f"bad {name}: expected a finite number, got {v!r}")
        return tp(v)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if v is None else _convert(args[0], v, name, keys)
    if tp is complex:  # [re, im]
        return complex(*_convert(tuple[float, float], v, name))
    if origin is tuple:  # tuple[X, ...] or tuple[X, X, ...] of fixed length
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(v, (list, tuple)) or n not in (None, len(v)):
            raise ConfigError(f"bad {name}: expected a list of "
                              f"{f'{n} ' if n else ''}values, got {v!r}")
        return tuple(_convert(args[0], x, f"{name}[{i}]", keys)
                     for i, x in enumerate(v))
    return read_section(tp, v, name, {}, keys)  # a nested dataclass


def _build(cls, section: str, *args, **kwargs):
    """cls(*args, **kwargs), its own ValueErrors raised as ConfigErrors."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"bad {section}: {e}") from e


def read_section(cls, doc, section: str, defaults: dict, keys: dict | None = None):
    """Build dataclass cls from the JSON object doc merged over defaults.

    keys maps JSON keys to field names where they differ, here and in nested
    dataclasses.  Unknown or (after the merge) missing keys, values that do
    not convert to their field's type and the dataclass's own checks all
    raise a ConfigError naming the section.
    """
    field_key = {f: k for k, f in (keys or {}).items()}
    names = {field_key.get(f.name, f.name): f.name for f in fields(cls)}
    _take(doc, section, set(names))
    merged = {**defaults, **doc}
    missing = sorted(set(names) - set(merged))
    if missing:
        raise ConfigError(f"missing keys in '{section}': {missing}")
    hints = _type_hints(cls)
    return _build(cls, section, **{
        names[k]: _convert(hints[names[k]], v, f"{section}.{k}", keys)
        for k, v in merged.items()})


@dataclass(frozen=True)
class SweepSettings:
    test_locations_mm: tuple[float, ...] = (20.0, 40.0, 55.0, 60.0)
    trials: int = 500
    snr_grid_db: tuple[float, ...] = tuple(float(s) for s in range(0, 41, 5))
    second_f_s_hz: float = 1400.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for key in ("test_locations_mm", "snr_grid_db"):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")


@dataclass(frozen=True)
class CalibrationSettings:
    locations_mm: tuple[float, ...] = (20.0, 30.0, 40.0, 50.0, 60.0)
    forces_n: tuple[float, ...] = tuple(1.0 + 0.5 * i for i in range(15))

    def __post_init__(self):
        self.check_grid(dict.fromkeys(self.locations_mm, self.forces_n))

    @staticmethod
    def check_grid(forces_at: dict) -> None:
        """The calibration grid rule, calib.CalibrationDataset's too: a cubic fit
        per location needs 2 locations of 4 distinct forces each, none negative
        (a press cannot pull); forces_at maps each location to its forces."""
        if len(forces_at) < 2:
            raise ValueError(f"needs at least 2 locations, got {list(forces_at)}")
        for loc, forces in forces_at.items():
            if len(set(forces)) < 4:
                raise ValueError(f"location {loc} mm has {len(set(forces))} distinct "
                                 "forces; a cubic fit needs at least 4")
            if min(forces) < 0.0:
                raise ValueError(f"forces_n must be >= 0, got {tuple(forces)}")


@dataclass(frozen=True)
class ExperimentConfig:
    waveform: WaveformConfig
    scheme: ClockScheme
    geometry: SensorGeometry
    mechanics: MechanicalParams
    multipath: MultipathProfile
    noise: NoiseSpec
    timeline: TouchTimeline
    calibration: CalibrationSettings
    sweep: SweepSettings


def default_config_dict() -> dict:
    """The reference desk-scale setup, serializable and editable: every
    section, and so every key parse_config knows."""
    return {
        "waveform": asdict(WaveformConfig()),
        "clocks": {"f_s_hz": 1000.0},
        "geometry": asdict(SensorGeometry()),
        "mechanics": asdict(MechanicalParams()),
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
        "calibration": asdict(CalibrationSettings()),
        "sweep": asdict(SweepSettings()),
    }


# a clock's JSON keys and the SwitchClock fields they hold, read and written
_CLOCK_KEYS = {"freq": "frequency", "duty": "duty", "offset": "phase_offset"}


def scheme_to_dict(scheme: ClockScheme) -> dict:
    """The explicit clocks layout parse_scheme reads back as scheme."""
    return {name: {k: getattr(getattr(scheme, name), f) for k, f in _CLOCK_KEYS.items()}
            for name in ("clock_a", "clock_b")}


def parse_scheme(d, section: str = "clocks") -> ClockScheme:
    """A clock scheme from f_s_hz alone or from explicit clock_a and clock_b,
    beside which an f_s_hz must be clock_a's freq."""
    _take(d, section, {"f_s_hz", "clock_a", "clock_b"})
    if "clock_a" in d or "clock_b" in d:
        if not ("clock_a" in d and "clock_b" in d):
            raise ConfigError(
                f"{section} needs both clock_a and clock_b, or just f_s_hz")
        scheme = _build(ClockScheme, section, *(
            read_section(SwitchClock, d[name], f"{section}.{name}", {"offset": 0.0},
                         _CLOCK_KEYS)
            for name in ("clock_a", "clock_b")))
        f_a = scheme.clock_a.frequency
        if _convert(float, d.get("f_s_hz", f_a), f"{section}.f_s_hz") != f_a:
            raise ConfigError(f"bad {section}.f_s_hz: {d['f_s_hz']} is not "
                              f"clock_a's freq {f_a}")
        return scheme
    if "f_s_hz" not in d:
        raise ConfigError(f"{section} needs f_s_hz or explicit clock_a/clock_b")
    return _build(make_scheme, section,
                  _convert(float, d["f_s_hz"], f"{section}.f_s_hz"))


def _parse_timeline(rows) -> TouchTimeline:
    if not isinstance(rows, list):
        raise ConfigError(f"'timeline' must be a JSON list, got {type(rows).__name__}")
    entries = []
    for i, row in enumerate(rows):
        name = f"timeline[{i}]"
        _take(row, name, {"start_snapshot", "touch"})
        entries.append((
            _convert(int, row.get("start_snapshot"), f"{name}.start_snapshot"),
            _convert(TouchEvent | None, row.get("touch"), f"{name}.touch")))
    return _build(TouchTimeline, "timeline", entries=tuple(entries))


# the dataclass sections, each named as its ExperimentConfig field
_SECTIONS = {"waveform": WaveformConfig, "geometry": SensorGeometry,
             "mechanics": MechanicalParams, "multipath": MultipathProfile,
             "noise": NoiseSpec, "calibration": CalibrationSettings,
             "sweep": SweepSettings}


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the typed experiment description.

    A dataclass section merges key by key over its section of
    default_config_dict(); clocks and timeline replace theirs whole.
    """
    base = default_config_dict()
    _take(doc, "config", set(base))
    doc = {**base, **doc}
    cfg = ExperimentConfig(
        **{name: read_section(cls, doc[name], name, base[name])
           for name, cls in _SECTIONS.items()},
        scheme=parse_scheme(doc["clocks"]),
        timeline=_parse_timeline(doc["timeline"]))
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    _build(nyquist_check, "clocks", cfg.waveform, cfg.scheme)
    # clocks that no group size holds whole cycles of cannot decode
    _build(auto_group_size, "clocks", cfg.waveform, cfg.scheme)
    if cfg.multipath.sensor_path.amplitude == 0:
        raise ConfigError("multipath.sensor_path.amplitude must be nonzero: the "
                          "reader cannot see a sensor whose path carries nothing")
    L = cfg.geometry.length_mm
    if cfg.mechanics.max_halfwidth_mm > 0.5 * L:
        raise ConfigError(f"mechanics.max_halfwidth_mm {cfg.mechanics.max_halfwidth_mm}"
                          f" mm exceeds half of the {L} mm line")
    presses = [t.location_mm for _, t in cfg.timeline.entries if t is not None]
    for name, locations in (("timeline", presses),
                            ("calibration.locations_mm", cfg.calibration.locations_mm),
                            ("sweep.test_locations_mm", cfg.sweep.test_locations_mm)):
        for loc in locations:
            if not 0.0 <= loc <= L:
                raise ConfigError(
                    f"{name}: touch location {loc} mm outside line [0, {L}] mm")


def load_config(path) -> ExperimentConfig:
    """The experiment a config file describes; the one place a file is read.

    A missing file, invalid JSON and every malformed section are ConfigErrors.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return parse_config(doc)
