import tracemalloc

import numpy as np
import pytest

from forcelink import parse_config, default_config_dict
from forcelink.chansim import ChannelTrace, WaveformConfig
from forcelink.clocks import ClockScheme


@pytest.fixture(scope="session")
def default_cfg():
    # frozen dataclass tree, safe to share
    return parse_config(default_config_dict())


def tone_trace(wf: WaveformConfig, scheme: ClockScheme,
               phi1_per_snapshot: np.ndarray, phi2_per_snapshot: np.ndarray,
               static_offsets=()) -> ChannelTrace:
    """Trace whose sensor term is two clean read tones (no square-wave gate).

    Each port contributes its projection-gain-weighted tone with the given
    per-snapshot phase; optional static complex offsets are added per
    subcarrier (constant over snapshots).  Useful when a decode result must
    be exact rather than limited by sampled-gate alias lines.
    """
    f1, f2 = scheme.read_freqs
    g1, g2 = scheme.read_gains
    t = np.arange(wf.n_snapshots) * wf.frame_period_s
    tone = (g1 * np.exp(1j * (phi1_per_snapshot + 2.0 * np.pi * f1 * t))
            + g2 * np.exp(1j * (phi2_per_snapshot + 2.0 * np.pi * f2 * t)))
    H = np.repeat(tone[:, None], wf.n_subcarriers, axis=1).astype(complex)
    for off in static_offsets:
        H += np.asarray(off, dtype=complex)[None, :]
    return ChannelTrace(config=wf, data=H, schemes=(scheme,))


def traced_peak(fn):
    """fn's result and the most memory it held above what it started with."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
