"""Calibration: fit a per-location phase model and invert phases to (F, l).

Calibration sweeps record both ports' unwrapped phases over a force grid at a
handful of contact locations.  Each location gets a cubic-in-force least
squares fit per port; between locations the coefficients interpolate
linearly, so inversion solves each location cell in closed form, a sextic in
F per pair of 2 pi branches.  It solves one point on Python floats from tables
cached on the SensorModel, one eigvals call a root search: about 0.05 ms a press
inside the box and 0.13 ms on the edge fallback (2-vCPU Xeon, one BLAS thread).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .transducer import (MechanicalParams, SensorGeometry, TouchEvent,
                         port_phases, shorting_segment)

# the residual above which an estimate is not trusted, (3 deg)^2 over both ports
RESIDUAL_THRESHOLD_RAD2 = math.radians(3.0) ** 2
# the largest |phase| accepted: a float there still resolves the wrapped
# phase to about 1e-10 rad, where 1e17 rad would leave no digit of it
PHASE_LIMIT_RAD = 1e6
# slack, relative to its interval, for a root to count as real and in the box
_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class Sample:
    force_n: float
    location_mm: float
    phi1: float
    phi2: float


@dataclass(frozen=True)
class CalibrationDataset:
    """Phase samples over a (force, location) grid.

    Needs a positive carrier_hz, finite samples, at least two distinct
    locations and at least four distinct forces per location (a cubic has
    four coefficients), so that fit_model makes a valid SensorModel.
    """

    samples: tuple[Sample, ...]
    carrier_hz: float
    source: str = "simulated"

    def __post_init__(self):
        if self.source not in ("simulated", "imported"):
            raise ValueError("source must be 'simulated' or 'imported'")
        if not self.carrier_hz > 0.0:
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")
        if not all(math.isfinite(v) for s in self.samples
                   for v in (s.force_n, s.location_mm, s.phi1, s.phi2)):
            raise ValueError("samples must all be finite")
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
    """Per-location fits, interpolated between locations: a positive
    carrier_hz; at least 2 fits, their locations and coefficients finite and
    the locations strictly increasing; a finite, increasing force_range_n."""

    carrier_hz: float
    fits: tuple[LocationFit, ...]
    force_range_n: tuple[float, float]

    def __post_init__(self):
        if not self.carrier_hz > 0.0:
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")
        locs = self.locations()
        if len(locs) < 2:
            raise ValueError(f"needs at least 2 locations, got {len(locs)}")
        for f in self.fits:
            if not all(map(math.isfinite, (f.location_mm, *f.c_port1, *f.c_port2))):
                raise ValueError(f"fit at {f.location_mm} mm must be finite, got "
                                 f"coefficients {f.c_port1} and {f.c_port2}")
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError(f"locations must strictly increase, got {locs}")
        lo, hi = self.force_range_n
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError("force_range_n must be finite and increase, got "
                             f"{self.force_range_n}")

    def locations(self) -> list[float]:
        return [f.location_mm for f in self.fits]

    @cached_property
    def _cells(self) -> tuple:
        """A one-point solve's floats.  Per cell s (knots s, s + 1): locations,
        bounds (lo1, hi1, lo2, hi2), A = K[s], D = K[s + 1] - K[s] (port p reads
        A_p + t D_p, 0 <= t <= 1), sextic base K_2 D_1 - K_1 D_2, (A_1, A_2, D_1,
        D_2) at both force ends.  Per knot: location, bounds, K, sum_p K_p K_p', K'."""
        K = np.array([(f.c_port1, f.c_port2) for f in self.fits], dtype=float)
        D, dK, ends = np.diff(K, axis=0), K[..., 1:] * (1.0, 2.0, 3.0), self.force_range_n
        # each cubic's extremes lie at an end of the force range or where K' vanishes
        vals = [[_horner(k, F) for F in ends] for k in K.reshape(-1, 4).tolist()]
        for r, F in _real_roots(dK.reshape(-1, 3).tolist(), *ends):
            vals[r].append(_horner(K.reshape(-1, 4)[r].tolist(), F))
        kb = [(min(a), max(a), min(b), max(b)) for a, b in zip(vals[::2], vals[1::2])]
        cb = [(min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
              for a, b in zip(kb, kb[1:])]
        G = [np.convolve(b, c) - np.convolve(a, d) for (a, b), (c, d) in zip(K, D)]
        Q = [sum(map(np.convolve, k, dk)) for k, dk in zip(K, dK)]
        locs, (K, D, dK, G, Q) = self.locations(), (np.array(x).tolist()
                                                    for x in (K, D, dK, G, Q))
        cells = tuple((*c, [[_horner(p, F) for p in (*c[3], *c[4])] for F in ends])
                      for c in zip(locs, locs[1:], cb, K, D, G))
        return cells, tuple(zip(locs, kb, K, Q, dK))


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

    def columns(self) -> dict:
        """The inversion columns of the decode --model and force-sweep CSVs,
        reliable as 0 or 1."""
        return {"est_force_n": self.force_n, "est_location_mm": self.location_mm,
                "residual_rad2": self.residual_rad2, "reliable": int(self.reliable)}


def generate_sweep(locations_mm: Sequence[float], forces_n: Sequence[float],
                   geom: SensorGeometry, mech: MechanicalParams,
                   carrier_hz: float) -> CalibrationDataset:
    """Evaluate the transducer model over a calibration grid."""
    samples = []
    for loc in locations_mm:
        for F in forces_n:
            pp = port_phases(shorting_segment(TouchEvent(F, loc), mech, geom),
                             geom, carrier_hz)
            samples.append(Sample(float(F), float(loc), pp.phi1, pp.phi2))
    return CalibrationDataset(samples=tuple(samples), carrier_hz=carrier_hz)


def fit_model(data: CalibrationDataset) -> SensorModel:
    """Least-squares cubic per location and port, on unwrapped phases."""
    fits = []
    for loc in data.locations():
        rows = [s for s in data.samples if s.location_mm == loc]
        V = np.vander(np.array([s.force_n for s in rows]), 4, increasing=True)
        phis = (np.array([s.phi1 for s in rows]), np.array([s.phi2 for s in rows]))
        c1, c2 = (np.linalg.lstsq(V, phi, rcond=None)[0] for phi in phis)
        err = np.concatenate([V @ c1 - phis[0], V @ c2 - phis[1]])
        fits.append(LocationFit(location_mm=loc, c_port1=tuple(c1), c_port2=tuple(c2),
                                rms_rad=math.sqrt(float(np.mean(err ** 2)))))
    forces = [s.force_n for s in data.samples]
    return SensorModel(carrier_hz=data.carrier_hz, fits=tuple(fits),
                       force_range_n=(min(forces), max(forces)))


def model_forward(model: SensorModel, force_n: float,
                  location_mm: float) -> ForwardPhases:
    """Model phases at (F, l); piecewise-linear in location, cubic in force.

    Locations outside the calibrated span raise; forces outside the
    calibrated range still evaluate but come back flagged.
    """
    locs, knots, (lo, hi) = model.locations(), model._cells[1], model.force_range_n
    if not locs[0] <= location_mm <= locs[-1]:
        raise ValueError(f"location {location_mm} mm outside calibrated span "
                         f"[{locs[0]}, {locs[-1]}] mm")
    s = max(int(np.searchsorted(locs, location_mm)) - 1, 0)
    t = (location_mm - locs[s]) / (locs[s + 1] - locs[s])
    phi1, phi2 = (_horner([(1.0 - t) * a + t * b for a, b in zip(k0, k1)], float(force_n))
                  for k0, k1 in zip(knots[s][2], knots[s + 1][2]))
    return ForwardPhases(phi1=phi1, phi2=phi2, in_range=lo <= force_n <= hi)


def _horner(c, x: float) -> float:
    """The polynomial with ascending coefficients c at x."""
    out = c[-1]
    for a in c[-2::-1]:
        out = out * x + a
    return out


def _real_roots(coef, lo: float, hi: float) -> list[tuple[int, float]]:
    """Real roots in [lo, hi] of each row's polynomial (ascending powers) as (row,
    root) pairs, one eigvals call per degree; a zero leading coefficient lowers it."""
    degree = [next((d for d in range(len(c) - 1, 0, -1) if c[d] != 0.0), 0) for c in coef]
    out, tol = [], _ROOT_TOL * (hi - lo)
    for d in sorted(set(degree) - {0}, reverse=True):
        rows = [r for r, e in enumerate(degree) if e == d]
        comp = np.zeros((len(rows), d, d))
        comp.reshape(len(rows), -1)[:, d::d + 1] = 1.0  # the subdiagonal
        comp[:, :, -1] = [[-a / coef[r][d] for a in coef[r][:d]] for r in rows]
        for r, z in zip(rows, np.linalg.eigvals(comp).tolist()):
            out += [(r, min(max(w.real, lo), hi)) for w in z
                    if abs(w.imag) <= tol and lo - tol <= w.real <= hi + tol]
    return out


def _pairs(b: Sequence[float], p: float, q: float, w: float = 0.0):
    """The branch pairs (p + 2 pi k1, q + 2 pi k2), each within its port's
    bounds in b = (lo1, hi1, lo2, hi2) widened by w."""
    (l1, h1, l2, h2), t = b, math.tau
    return [(p + t * a, q + t * c)
            for a in range(math.ceil((l1 - w - p) / t), math.floor((h1 + w - p) / t) + 1)
            for c in range(math.ceil((l2 - w - q) / t), math.floor((h2 + w - q) / t) + 1)]


def _nearest(F, l0, l1, a1, a2, d1, d2, y1, y2):
    """The point nearest branches (y1, y2) on a cell at force F, where port p
    reads a_p + t d_p at location (1 - t) l0 + t l1, 0 <= t <= 1, as (squared
    distance, F, location); and whether the unclipped t lay in [0, 1]."""
    den = d1 * d1 + d2 * d2
    t = (d1 * (y1 - a1) + d2 * (y2 - a2)) / den if den > 0.0 else 0.0
    inside, t = abs(t - 0.5) <= 0.5 + _ROOT_TOL, min(max(t, 0.0), 1.0)
    e1, e2 = a1 + t * d1 - y1, a2 + t * d2 - y2
    return (e1 * e1 + e2 * e2, F, (1.0 - t) * l0 + t * l1), inside


def invert(model: SensorModel, phi1: float, phi2: float,
           residual_threshold_rad2: float = RESIDUAL_THRESHOLD_RAD2) -> Estimate:
    """Recover (force, location) from a pair of measured phases.

    On a location cell port p's phase is A_p(F) + t D_p(F), 0 <= t <= 1.  For
    each pair of 2 pi branches y that can land there, the presses matching
    both ports are the real roots F of the sextic (A_2 - y_2) D_1 - (A_1 - y_1)
    D_2, with t from one linear equation.  With no root in the calibrated box
    the estimate, not in_range, is the nearest point on the cell edges.  The
    residual is the least over branches, so whole turns do not matter.
    """
    phi1, phi2 = float(phi1), float(phi2)
    if not (abs(phi1) <= PHASE_LIMIT_RAD and abs(phi2) <= PHASE_LIMIT_RAD):  # or NaN
        raise ValueError(f"phases must be finite and within {PHASE_LIMIT_RAD:g} "
                         f"rad, got {phi1}, {phi2}")
    (cells, knots), ends = model._cells, model.force_range_n
    rows = [(cell, y) for cell in cells for y in _pairs(cell[2], phi1, phi2)]
    sextics = [[g + (y1 * d2 - y2 * d1) for g, d1, d2 in zip(G, *D)] + G[4:]
               for (*_, D, G, _), (y1, y2) in rows]
    points = []  # (residual, force, location) per candidate, in search order
    for r, F in _real_roots(sextics, *ends):
        (l0, l1, _, A, D, *_), y = rows[r]
        point, inside = _nearest(F, l0, l1, *(_horner(c, F) for c in (*A, *D)), *y)
        points += [point] if inside else []
    if not (in_range := bool(points)):
        # force edges, where the residual is quadratic in t
        points = [_nearest(F, l0, l1, *ad, *y)[0] for l0, l1, b, *_, at_ends in cells
                  for ys in [_pairs(b, phi1, phi2, math.pi)]
                  for F, ad in zip(ends, at_ends) for y in ys]
        # calibrated locations no farther: roots of the residual's derivative
        # sum_p (K_p - y_p) K_p', a quintic affine in the branches y
        widen = min(math.pi, math.sqrt(min(p[0] for p in points)))
        rows = [(knot, y) for knot in knots for y in _pairs(knot[1], phi1, phi2, widen)]
        quintics = [[q - (y1 * a + y2 * b) for q, a, b in zip(Q, *dK)] + Q[3:]
                    for (*_, Q, dK), (y1, y2) in rows]
        for r, F in _real_roots(quintics, *ends):
            (l, _, K, *_), y = rows[r]
            e1, e2 = (_horner((k[0] - yp, *k[1:]), F) for k, yp in zip(K, y))
            points.append((e1 * e1 + e2 * e2, F, l))
    res, F, l = min(points, key=lambda p: p[0])
    return Estimate(force_n=F, location_mm=l, residual_rad2=res, in_range=in_range,
                    reliable=bool(res <= residual_threshold_rad2))
