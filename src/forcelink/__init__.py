"""Phase-based backscatter force sensing: simulator, decoder, calibration.

A transmission-line force sensor shorted by a press reflects the reader's
wideband signal with force-dependent phases at both ends.  Two switch clocks
shift those reflections to known read frequencies; this package synthesizes
the channel snapshots a reader would estimate, decodes per-port differential
phases from them, and maps phases back to force and contact location.
"""

from .calib import (CalibrationDataset, Estimate, Sample, SensorModel,
                    fit_model, generate_sweep, invert, model_forward)
from .chansim import (ChannelTrace, MultipathProfile, NoiseSpec, NyquistError,
                      Path, TouchTimeline, WaveformConfig, add_second_sensor,
                      equivalent_doppler_velocity, nyquist_check, quantize,
                      synthesis_blocks, synthesize)
from .clocks import (ClockScheme, DisjointReport, SwitchClock, make_scheme,
                     verify_disjoint)
from .config import ConfigError, ExperimentConfig, default_config_dict, \
    load_config, parse_config
from .decoder import PhaseSeries, anchor, auto_group_size, group_phases
from .traceio import (open_trace, read_dataset, read_model, read_trace,
                      write_dataset, write_model, write_phase_csv, write_trace,
                      write_trace_blocks)
from .transducer import (MechanicalParams, PortPhases, SensorGeometry,
                         ShortingState, TouchEvent, impedance, phase_per_mm,
                         port_phases, propagation_constant, shorting_segment,
                         solve_width_ratio, wrap_phase)

__version__ = "0.1.0"

__all__ = [
    "CalibrationDataset", "Estimate", "Sample", "SensorModel",
    "fit_model", "generate_sweep", "invert", "model_forward",
    "ChannelTrace", "MultipathProfile", "NoiseSpec", "NyquistError", "Path",
    "TouchTimeline", "WaveformConfig", "add_second_sensor",
    "equivalent_doppler_velocity", "nyquist_check", "quantize",
    "synthesis_blocks", "synthesize",
    "ClockScheme", "DisjointReport", "SwitchClock", "make_scheme",
    "verify_disjoint",
    "ConfigError", "ExperimentConfig", "default_config_dict", "load_config",
    "parse_config",
    "PhaseSeries", "anchor", "auto_group_size", "group_phases",
    "open_trace", "read_dataset", "read_model", "read_trace", "write_dataset",
    "write_model", "write_phase_csv", "write_trace", "write_trace_blocks",
    "MechanicalParams", "PortPhases", "SensorGeometry", "ShortingState",
    "TouchEvent", "impedance", "phase_per_mm", "port_phases",
    "propagation_constant", "shorting_segment", "solve_width_ratio",
    "wrap_phase",
    "__version__",
]
