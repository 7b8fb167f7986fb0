"""Spans around forcelink's public functions, for the traced benchmark run.

Only the traced worker imports this module, so untraced processes carry no
wrappers at all.  ``Tracer.install`` replaces each function listed in
``FUNCTIONS`` in every ``forcelink`` module namespace that holds it (and
methods on their class), so calls made through ``from .x import f`` are
caught as well.  Spans stay in memory; ``Tracer.dump`` writes them once, at
the end of the unit.  ``layer_metrics`` turns the spans of many units into
per-unit ``<layer>.<function>.<stat>`` figures with self time.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time


def _trace_file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _read_file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _synth_bytes(args, kwargs, out):
    return {"bytes_out": out.data.nbytes}  # K * N * 16 for complex128


def _invert_flags(args, kwargs, out):
    return {"reliable": int(out.reliable), "in_range": int(out.in_range)}


def _cli_decode_name(args, kwargs):
    return "cli.decode_model" if args[0].model is not None else "cli.decode"


# (span name, module, attribute, extra-stats hook, opens a new span group).
# A span group is one command or one trial; its spans share an id.
FUNCTIONS = (
    ("chansim.synthesize", "forcelink.chansim", "synthesize", _synth_bytes, False),
    ("clocks.ClockScheme.switch_states", "forcelink.clocks",
     "ClockScheme.switch_states", None, False),
    ("transducer.port_phases", "forcelink.transducer", "port_phases", None, False),
    ("traceio.write_trace", "forcelink.traceio", "write_trace", _trace_file_bytes, False),
    ("traceio.read_trace", "forcelink.traceio", "read_trace", _read_file_bytes, False),
    ("traceio.write_phase_csv", "forcelink.traceio", "write_phase_csv", None, False),
    ("traceio.read_model", "forcelink.traceio", "read_model", None, False),
    ("decoder.group_phases", "forcelink.decoder", "group_phases", None, False),
    ("decoder.read_sensor_snr", "forcelink.decoder", "read_sensor_snr", None, False),
    ("decoder.noise_power", "forcelink.decoder", "noise_power", None, False),
    ("decoder.anchor", "forcelink.decoder", "anchor", None, False),
    ("decoder.auto_group_size", "forcelink.decoder", "auto_group_size", None, False),
    ("calib.invert", "forcelink.calib", "invert", _invert_flags, False),
    ("calib.fit_model", "forcelink.calib", "fit_model", None, False),
    ("calib.generate_sweep", "forcelink.calib", "generate_sweep", None, False),
    ("sweeps.run_force_sweep", "forcelink.sweeps", "run_force_sweep", None, False),
    ("sweeps.run_snr_sweep", "forcelink.sweeps", "run_snr_sweep", None, False),
    ("sweeps.run_touch_trial", "forcelink.sweeps", "run_touch_trial", None, True),
    ("sweeps.measure_step_errors", "forcelink.sweeps", "measure_step_errors", None, True),
    ("cli.simulate", "forcelink.cli", "cmd_simulate", None, True),
    ("cli.calibrate", "forcelink.cli", "cmd_calibrate", None, True),
    (_cli_decode_name, "forcelink.cli", "cmd_decode", None, True),
    ("config.parse_config", "forcelink.config", "parse_config", None, False),
)

SPAN_NAMES = tuple(n for n, *_ in FUNCTIONS if isinstance(n, str)) + (
    "cli.decode", "cli.decode_model")

# extra per-layer stats beyond calls / total_s / self_s: (name, unit, better)
EXTRA_STATS = (
    ("chansim.synthesize.bytes_out", "B", "lower"),
    ("traceio.write_trace.bytes", "B", "lower"),
    ("traceio.read_trace.bytes", "B", "lower"),
    ("calib.invert.per_point_ms", "ms", "lower"),
    ("calib.invert.reliable_frac", "frac", "higher"),
    ("calib.invert.in_range_frac", "frac", "higher"),
    ("harness.trace_overhead_frac", "frac", "lower"),
)


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run prints, in BENCHMARK.json form."""
    specs = []
    for name in sorted(SPAN_NAMES):
        specs += [{"name": f"{name}.calls", "unit": "count", "better": "lower"},
                  {"name": f"{name}.total_s", "unit": "s", "better": "lower"},
                  {"name": f"{name}.self_s", "unit": "s", "better": "lower"}]
    specs += [{"name": n, "unit": u, "better": b} for n, u, b in EXTRA_STATS]
    return specs


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, group."""

    def __init__(self):
        # each span: [name, start_s, end_s, parent index, group id, extras]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._groups = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra, new_group):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if new_group:
                self._groups += 1
                group = self._groups
            else:
                group = self.spans[parent][4] if parent is not None else 0
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, parent, group, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a forcelink module holds it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "forcelink" or n.startswith("forcelink."))]
        for name, module, attr, extra, new_group in FUNCTIONS:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, extra, new_group)
            holders = [owner] if "." in attr else [
                m for m in mods if getattr(m, leaf, None) is original]
            for holder in holders:
                self._patches.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._patches):
            setattr(holder, leaf, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "group",
                                  "extra"], "spans": self.spans}, f)


def span_stats(spans: list[list]) -> dict[str, dict]:
    """calls, total_s, self_s and summed extras per span name.

    Self time is a span's duration minus its direct children's; calls nest
    and run one at a time, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, group, extra in spans:
        if parent is not None:
            child_s[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, group, extra) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_s[i]
        for key, val in (extra or {}).items():
            s[key] = s.get(key, 0) + val
    return stats


def layer_metrics(span_sets: list[list[list]], traced_s: list[float],
                  untraced_s: list[float]) -> dict[str, float]:
    """Per-unit per-layer figures from the spans of each traced unit.

    Counts and times are totals over all traced units divided by their
    number.  The overhead is the median, over pairs of units run back to
    back on the same inputs, of traced over untraced in-process time, less 1.
    """
    n = len(span_sets)
    merged = span_stats([s for spans in span_sets for s in spans])
    out = {}
    for name in sorted(SPAN_NAMES):
        s = merged.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = s["calls"] / n
        out[f"{name}.total_s"] = s["total_s"] / n
        out[f"{name}.self_s"] = s["self_s"] / n
    synth = merged.get("chansim.synthesize", {})
    write = merged.get("traceio.write_trace", {})
    read = merged.get("traceio.read_trace", {})
    inv = merged.get("calib.invert", {})
    calls = inv.get("calls", 0)
    out["chansim.synthesize.bytes_out"] = synth.get("bytes_out", 0) / n
    out["traceio.write_trace.bytes"] = write.get("bytes", 0) / n
    out["traceio.read_trace.bytes"] = read.get("bytes", 0) / n
    out["calib.invert.per_point_ms"] = 1e3 * inv["total_s"] / calls if calls else 0.0
    out["calib.invert.reliable_frac"] = inv["reliable"] / calls if calls else 0.0
    out["calib.invert.in_range_frac"] = inv["in_range"] / calls if calls else 0.0
    out["harness.trace_overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced_s, untraced_s)) - 1.0
    return out
