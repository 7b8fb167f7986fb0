"""Phase-based backscatter force sensing: simulator, decoder, calibration.

A transmission-line force sensor shorted by a press reflects the reader's
wideband signal with force-dependent phases at both ends.  Two switch clocks
shift those reflections to known read frequencies; this package synthesizes
the channel snapshots a reader would estimate, decodes per-port differential
phases from them, and maps phases back to force and contact location.

Importing the package loads none of its modules.  Each public name is
imported from the module that defines it (_EXPORTS) on first access, so a
process starts only the modules it uses: parse_config loads config and what
config imports, not calib, traceio, sweeps or cli.
"""

from importlib import import_module

_EXPORTS = {
    "calib": ("CalibrationDataset", "Estimate", "Sample", "SensorModel",
              "fit_model", "generate_sweep", "invert", "invert_many",
              "model_forward"),
    "chansim": ("ChannelTrace", "MultipathProfile", "NoiseSpec", "NyquistError",
                "Path", "TouchTimeline", "WaveformConfig", "add_second_sensor",
                "equivalent_doppler_velocity", "nyquist_check",
                "synthesis_blocks", "synthesize"),
    "clocks": ("ClockScheme", "DisjointReport", "SwitchClock", "make_scheme",
               "verify_disjoint"),
    "config": ("ConfigError", "ExperimentConfig", "default_config_dict",
               "load_config", "parse_config"),
    "decoder": ("PhaseSeries", "anchor", "auto_group_size", "group_phases"),
    "traceio": ("open_trace", "read_dataset", "read_model", "read_trace",
                "write_dataset", "write_model", "write_phase_csv", "write_rows",
                "write_trace", "write_trace_blocks"),
    "transducer": ("MechanicalParams", "PortPhases", "SensorGeometry",
                   "ShortingState", "TouchEvent", "impedance", "phase_per_mm",
                   "port_phases", "port_reflections", "propagation_constant",
                   "shorting_segment", "solve_width_ratio", "wrap_phase"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """A public name, imported from its module and kept; any other name is
    an AttributeError, so `from forcelink import cli` imports the submodule."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
