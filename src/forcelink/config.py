"""Experiment configuration: one JSON document describing a whole run.

Sections: waveform, clocks, geometry, mechanics, multipath, noise, timeline,
plus optional grouping, calibration and sweep blocks.  A section's keys are
the fields of the dataclass it builds (clocks use freq/duty/offset) and keys
it omits take the reference defaults.  read_section is the one JSON ->
dataclass step: unknown keys and missing or malformed values are ConfigErrors
naming the section (CLI exit 2).  traceio reads trace headers and datasets
with it too and re-raises its errors as ValueErrors naming the file (exit 1).
load_config is the one loader of a config file, for the CLI and the library
alike, so one file gives one run: the same seed, the same trace.
"""
from __future__ import annotations

import functools
import json
import numbers
import types
import typing
from dataclasses import asdict, dataclass, field, fields

from .chansim import (MultipathProfile, NoiseSpec, Path, TouchTimeline,
                      WaveformConfig, nyquist_check)
from .clocks import ClockScheme, SwitchClock, make_scheme
from .decoder import resolve_group_size
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
    force_range_n: tuple[float, float] = (1.0, 8.0)
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
    }


def parse_scheme(d, section: str = "clocks") -> ClockScheme:
    """A clock scheme from f_s_hz alone or from explicit clock_a and clock_b."""
    _take(d, section, {"f_s_hz", "clock_a", "clock_b"})
    if "clock_a" in d or "clock_b" in d:
        if not ("clock_a" in d and "clock_b" in d):
            raise ConfigError(
                f"{section} needs both clock_a and clock_b, or just f_s_hz")
        return _build(ClockScheme, section, *(
            read_section(SwitchClock, d[name], f"{section}.{name}", {"offset": 0.0},
                         {"freq": "frequency", "offset": "phase_offset"})
            for name in ("clock_a", "clock_b")))
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


def _force_range(spec) -> list[float]:
    """The forces of a calibration.forces_n {start, stop, step} range spec."""
    _take(spec, "calibration.forces_n", {"start", "stop", "step"})
    start, stop, step = (_convert(float, spec.get(k), f"calibration.forces_n.{k}")
                         for k in ("start", "stop", "step"))
    if not (step > 0.0 and stop >= start):
        raise ConfigError("calibration.forces_n needs step > 0 and stop >= start")
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and build the typed experiment description."""
    _take(doc, "config", {"waveform", "clocks", "geometry", "mechanics",
                          "multipath", "noise", "timeline", "grouping",
                          "calibration", "sweep"})
    base = default_config_dict()

    def section(cls, name, defaults):
        return read_section(cls, doc.get(name, {}), name, defaults)

    grouping = doc.get("grouping", {})
    _take(grouping, "grouping", {"group_size"})
    gs = grouping.get("group_size", "auto")
    group_size = None if gs == "auto" else _convert(int, gs, "grouping.group_size")

    calibration = doc.get("calibration", {})
    if isinstance(calibration, dict) and isinstance(calibration.get("forces_n"), dict):
        calibration = {**calibration,
                       "forces_n": _force_range(calibration["forces_n"])}

    cfg = ExperimentConfig(
        waveform=section(WaveformConfig, "waveform", base["waveform"]),
        scheme=parse_scheme(doc.get("clocks", base["clocks"])),
        geometry=section(SensorGeometry, "geometry", base["geometry"]),
        mechanics=section(MechanicalParams, "mechanics", base["mechanics"]),
        multipath=read_section(
            MultipathProfile, doc.get("multipath", base["multipath"]),
            "multipath", {"paths": [],
                          "sensor_path": base["multipath"]["sensor_path"]}),
        noise=section(NoiseSpec, "noise", base["noise"]),
        timeline=_parse_timeline(doc.get("timeline", base["timeline"])),
        group_size=group_size,
        calibration=read_section(CalibrationSettings, calibration, "calibration",
                                 asdict(CalibrationSettings())),
        sweep=section(SweepSettings, "sweep", asdict(SweepSettings())))
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    _build(nyquist_check, "clocks", cfg.waveform, cfg.scheme)
    # the auto size too: clocks that no size holds whole cycles of cannot decode
    _build(resolve_group_size, "grouping", cfg.waveform, cfg.scheme, cfg.group_size)
    L = cfg.geometry.length_mm
    if cfg.mechanics.max_halfwidth_mm > 0.5 * L:
        raise ConfigError(f"mechanics.max_halfwidth_mm {cfg.mechanics.max_halfwidth_mm}"
                          f" mm exceeds half of the {L} mm line")
    for _, touch in cfg.timeline.entries:
        if touch is not None and not 0.0 <= touch.location_mm <= L:
            raise ConfigError(
                f"touch location {touch.location_mm} mm outside line [0, {L}] mm")


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
