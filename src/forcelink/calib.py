"""Calibration: fit a per-location phase model and invert phases to (F, l).

Calibration sweeps record both ports' unwrapped phases over a force grid at a
handful of contact locations.  Each location gets a cubic-in-force least
squares fit per port; between locations the cubic coefficients interpolate
linearly.  Inversion runs a coarse grid search over the calibrated box
followed by a derivative-free coordinate-shrinking refinement on the wrapped
squared residual.  The grid and its model phases are built once per
SensorModel and cached on it; the refinement evaluates the model in plain
floats.  Grid pitch, refinement moves and tolerances are fixed constants.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .transducer import (MechanicalParams, SensorGeometry, TouchEvent,
                         port_phases, shorting_segment, wrap_phase)

# inversion defaults: coarse grid pitch, refinement tolerance, and the
# residual above which an estimate is not trusted, (3 deg)^2 over both ports
FORCE_GRID_N = 0.05
LOCATION_GRID_MM = 0.25
REFINE_TOL = 1e-3
RESIDUAL_THRESHOLD_RAD2 = math.radians(3.0) ** 2


@dataclass(frozen=True)
class Sample:
    force_n: float
    location_mm: float
    phi1: float
    phi2: float


@dataclass(frozen=True)
class CalibrationDataset:
    """Phase samples over a (force, location) grid.

    Needs at least two distinct locations and at least four distinct forces
    per location (a cubic has four coefficients).
    """

    samples: tuple[Sample, ...]
    carrier_hz: float
    source: str = "simulated"

    def __post_init__(self):
        if self.source not in ("simulated", "imported"):
            raise ValueError("source must be 'simulated' or 'imported'")
        locs = {s.location_mm for s in self.samples}
        if len(locs) < 2:
            raise ValueError("calibration needs at least 2 distinct locations")
        for loc in locs:
            forces = {s.force_n for s in self.samples if s.location_mm == loc}
            if len(forces) < 4:
                raise ValueError(
                    f"location {loc} mm has {len(forces)} distinct forces; "
                    "a cubic fit needs at least 4")

    def locations(self) -> list[float]:
        return sorted({s.location_mm for s in self.samples})


@dataclass(frozen=True)
class LocationFit:
    """Cubic coefficients (ascending powers of F) for each port at one location."""

    location_mm: float
    c_port1: tuple[float, float, float, float]
    c_port2: tuple[float, float, float, float]
    rms_rad: float


@dataclass(frozen=True)
class SensorModel:
    carrier_hz: float
    fits: tuple[LocationFit, ...]  # sorted by location
    force_range_n: tuple[float, float]

    def locations(self) -> list[float]:
        return [f.location_mm for f in self.fits]

    @cached_property
    def _knots(self) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """Locations and each one's eight cubic coefficients, as plain floats."""
        return (tuple(self.locations()),
                tuple(tuple(map(float, f.c_port1 + f.c_port2)) for f in self.fits))

    @cached_property
    def _search_grid(self) -> tuple[np.ndarray, ...]:
        """The coarse inversion grid F, l and its model phases m1, m2 (l, F)."""
        f_lo, f_hi = self.force_range_n
        locs = self.locations()
        nF = max(2, int(round((f_hi - f_lo) / FORCE_GRID_N)) + 1)
        nL = max(2, int(round((locs[-1] - locs[0]) / LOCATION_GRID_MM)) + 1)
        F = np.linspace(f_lo, f_hi, nF)
        l = np.linspace(locs[0], locs[-1], nL)
        return (F, l, *_model_grid(self, F, l))


@dataclass(frozen=True)
class ForwardPhases:
    phi1: float
    phi2: float
    in_range: bool


@dataclass(frozen=True)
class Estimate:
    force_n: float
    location_mm: float
    residual_rad2: float
    in_range: bool
    reliable: bool


def generate_sweep(locations_mm: Sequence[float], forces_n: Sequence[float],
                   geom: SensorGeometry, mech: MechanicalParams,
                   carrier_hz: float) -> CalibrationDataset:
    """Evaluate the transducer model over a calibration grid."""
    samples = []
    for loc in locations_mm:
        for F in forces_n:
            pp = port_phases(
                shorting_segment(TouchEvent(F, loc), mech, geom), geom, carrier_hz)
            samples.append(Sample(force_n=float(F), location_mm=float(loc),
                                  phi1=pp.phi1, phi2=pp.phi2))
    return CalibrationDataset(samples=tuple(samples), carrier_hz=carrier_hz)


def _fit_cubic(F: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    V = np.vander(F, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(V, phi, rcond=None)
    return coef, V @ coef - phi


def fit_model(data: CalibrationDataset) -> SensorModel:
    """Least-squares cubic per location and port, on unwrapped phases."""
    fits = []
    forces_all = [s.force_n for s in data.samples]
    for loc in data.locations():
        rows = [s for s in data.samples if s.location_mm == loc]
        F = np.array([s.force_n for s in rows])
        if len(set(F.tolist())) < 4:
            raise ValueError(f"location {loc} mm is rank deficient for a cubic")
        c1, r1 = _fit_cubic(F, np.array([s.phi1 for s in rows]))
        c2, r2 = _fit_cubic(F, np.array([s.phi2 for s in rows]))
        rms = math.sqrt(float(np.mean(np.concatenate([r1, r2]) ** 2)))
        fits.append(LocationFit(location_mm=loc,
                                c_port1=tuple(c1), c_port2=tuple(c2),
                                rms_rad=rms))
    return SensorModel(carrier_hz=data.carrier_hz, fits=tuple(fits),
                       force_range_n=(min(forces_all), max(forces_all)))


def _phases(model: SensorModel, force_n: float,
            location_mm: float) -> tuple[float, float]:
    """Both ports' model phases in plain floats; location must be in span."""
    locs, coeffs = model._knots
    hi = bisect_left(locs, location_mm)
    lo = max(hi - 1, 0)
    t = (location_mm - locs[lo]) / (locs[hi] - locs[lo]) if hi else 0.0
    s = 1.0 - t
    a0, a1, a2, a3, a4, a5, a6, a7 = coeffs[lo]
    b0, b1, b2, b3, b4, b5, b6, b7 = coeffs[hi]
    F, F2 = force_n, force_n * force_n
    F3 = F2 * F
    return ((s * a0 + t * b0) + (s * a1 + t * b1) * F
            + (s * a2 + t * b2) * F2 + (s * a3 + t * b3) * F3,
            (s * a4 + t * b4) + (s * a5 + t * b5) * F
            + (s * a6 + t * b6) * F2 + (s * a7 + t * b7) * F3)


def model_forward(model: SensorModel, force_n: float,
                  location_mm: float) -> ForwardPhases:
    """Model phases at (F, l); piecewise-linear in location, cubic in force.

    Locations outside the calibrated span raise; forces outside the
    calibrated range still evaluate but come back flagged.
    """
    locs = model._knots[0]
    if not locs[0] <= location_mm <= locs[-1]:
        raise ValueError(
            f"location {location_mm} mm outside calibrated span "
            f"[{locs[0]}, {locs[-1]}] mm")
    phi1, phi2 = _phases(model, force_n, location_mm)
    lo, hi = model.force_range_n
    return ForwardPhases(phi1=float(phi1), phi2=float(phi2),
                         in_range=lo <= force_n <= hi)


def _model_grid(model: SensorModel, F: np.ndarray, l: np.ndarray):
    """Vectorized model phases over an (l, F) grid: two (nl, nF) arrays."""
    locs = np.array(model.locations())
    C1 = np.array([f.c_port1 for f in model.fits])  # (nloc, 4)
    C2 = np.array([f.c_port2 for f in model.fits])
    hi = np.clip(np.searchsorted(locs, l), 1, len(locs) - 1)
    lo = hi - 1
    t = ((l - locs[lo]) / (locs[hi] - locs[lo]))[:, None]
    c1 = (1 - t) * C1[lo] + t * C1[hi]  # (nl, 4)
    c2 = (1 - t) * C2[lo] + t * C2[hi]
    P = F[None, :] ** np.arange(4)[:, None, None]  # (4, 1, nF)
    phi1 = np.einsum("li,ijf->lf", c1, P)
    phi2 = np.einsum("li,ijf->lf", c2, P)
    return phi1, phi2


def invert(model: SensorModel, phi1: float, phi2: float,
           residual_threshold_rad2: float = RESIDUAL_THRESHOLD_RAD2) -> Estimate:
    """Recover (force, location) from a pair of measured phases.

    Coarse grid over the calibrated box (0.05 N by 0.25 mm) on the wrapped
    squared residual summed over both ports, then compass refinement that
    halves its steps until both fall below 1e-3.  Wrapped residuals make the
    estimate immune to whole-turn offsets in the measured phases.
    """
    F, l, m1, m2 = model._search_grid
    cost, u, k = np.zeros_like(m1), np.empty_like(m1), np.empty_like(m1)
    for m, phi in ((m1, phi1), (m2, phi2)):
        # the package's one array wrap: u - 2 pi rint(u / 2 pi), in place
        np.subtract(m, phi, out=u)
        np.rint(np.multiply(u, 1.0 / math.tau, out=k), out=k)
        u -= np.multiply(k, math.tau, out=k)
        cost += np.square(u, out=u)
    il, iF = np.unravel_index(np.argmin(cost), cost.shape)
    best_F, best_l = float(F[iF]), float(l[il])
    best = float(cost[il, iF])
    f_lo, f_hi = model.force_range_n
    l_lo, l_hi = model._knots[0][0], model._knots[0][-1]

    step_F, step_l = FORCE_GRID_N / 2.0, LOCATION_GRID_MM / 2.0
    while step_F >= REFINE_TOL or step_l >= REFINE_TOL:
        moved = False
        # diagonal moves keep the search from stalling in tilted valleys
        for dF, dl in ((step_F, 0.0), (-step_F, 0.0), (0.0, step_l),
                       (0.0, -step_l), (step_F, step_l), (step_F, -step_l),
                       (-step_F, step_l), (-step_F, -step_l)):
            cF = min(max(best_F + dF, f_lo), f_hi)
            cl = min(max(best_l + dl, l_lo), l_hi)
            p1, p2 = _phases(model, cF, cl)
            c = wrap_phase(p1 - phi1) ** 2 + wrap_phase(p2 - phi2) ** 2
            if c < best:
                best, best_F, best_l = c, cF, cl
                moved = True
        if not moved:
            step_F /= 2.0
            step_l /= 2.0

    edge = (best_F - f_lo < REFINE_TOL or f_hi - best_F < REFINE_TOL
            or best_l - l_lo < REFINE_TOL or l_hi - best_l < REFINE_TOL)
    return Estimate(force_n=best_F, location_mm=best_l, residual_rad2=best,
                    in_range=not edge,
                    reliable=best <= residual_threshold_rad2)
