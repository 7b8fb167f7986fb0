"""Calibration: fit a per-location phase model and invert phases to (F, l).

Calibration sweeps record both ports' unwrapped phases over a force grid at a
handful of contact locations.  Each location gets a cubic-in-force least
squares fit per port; between locations the coefficients interpolate
linearly, so inversion solves each location cell in closed form, a sextic in
F per pair of 2 pi branches.  invert_many solves a batch of points in one pass
over numpy arrays, from tables cached on the SensorModel, one eigvals call per
polynomial degree; invert is its one-point case.  On a 2-vCPU Xeon with one
BLAS thread a point takes about 0.02-0.04 ms in a 128-point batch, bound by
LAPACK's eigenvalue solve, and a one-point call about 0.15 ms inside the box
and 0.35 ms on the edge fallback, where numpy's per-call cost dominates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import CalibrationSettings
from .transducer import (MechanicalParams, SensorGeometry, TouchEvent,
                         port_phases, shorting_segment)

# the residual above which an estimate is not trusted, (3 deg)^2 over both ports
RESIDUAL_THRESHOLD_RAD2 = math.radians(3.0) ** 2
# the largest |phase| accepted: a float there still resolves the wrapped
# phase to about 1e-10 rad, where 1e17 rad would leave no digit of it
PHASE_LIMIT_RAD = 1e6
# slack, relative to its interval, for a root to count as real and in the box
_ROOT_TOL = 1e-9
# bounds (lo, hi) widened by w are (lo, hi) + w * _WIDEN
_WIDEN = np.array([[-1.0], [1.0]])


@dataclass(frozen=True)
class Sample:
    force_n: float
    location_mm: float
    phi1: float
    phi2: float


@dataclass(frozen=True)
class CalibrationDataset:
    """Phase samples over a (force, location) grid, valid for fit_model: a
    positive carrier_hz, finite samples and the grid rule a config's
    calibration keeps, config.CalibrationSettings.check_grid."""

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
        CalibrationSettings.check_grid({loc: [s.force_n for s in self.samples if
                                              s.location_mm == loc]
                                        for loc in self.locations()})

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
        """The inversion's tables, as arrays.  Per cell s (knots s, s + 1):
        locations (l0, l1); phase bounds [(lo, hi), port], and the same
        widened by pi for each force end; the cubics (A_1, A_2, D_1, D_2), A =
        K[s], D = K[s + 1] - K[s] (port p reads A_p + t D_p, 0 <= t <= 1); the
        sextic base K_2 D_1 - K_1 D_2, then D_2 and D_1; (A_1, A_2, D_1, D_2)
        at both force ends.  Per knot: location, bounds, K, and the quintic
        base sum_p K_p K_p', then K_1' and K_2'.  Then the force range, and
        an arange longer than the most 2 pi branches one port's bounds
        widened by pi can hold."""
        K = np.array([(f.c_port1, f.c_port2) for f in self.fits], dtype=float)
        D, dK = np.diff(K, axis=0), K[..., 1:] * (1.0, 2.0, 3.0)
        ends = np.array(self.force_range_n, dtype=float)
        # each cubic's extremes lie at an end of the force range or where K' vanishes
        vals = _horner(K[..., None, :], ends)
        klo, khi = vals.min(axis=-1).ravel(), vals.max(axis=-1).ravel()
        r, F = _real_roots(dK.reshape(-1, 3), *ends)
        np.minimum.at(klo, r, _horner(K.reshape(-1, 4)[r], F))
        np.maximum.at(khi, r, _horner(K.reshape(-1, 4)[r], F))
        kb = np.stack([klo.reshape(-1, 2), khi.reshape(-1, 2)], axis=1)
        cb = np.stack([np.minimum(kb[:-1, 0], kb[1:, 0]),
                       np.maximum(kb[:-1, 1], kb[1:, 1])], axis=1)
        G = [np.convolve(b, c) - np.convolve(a, d) for (a, b), (c, d) in zip(K, D)]
        Q = [sum(map(np.convolve, k, dk)) for k, dk in zip(K, dK)]
        AD, locs = np.concatenate([K[:-1], D], axis=1), np.array(self.locations(), float)
        cells = (np.stack([locs[:-1], locs[1:]], axis=-1), cb,
                 np.repeat((cb + math.pi * _WIDEN)[:, None], 2, axis=1), AD,
                 np.concatenate([G, D[:, 1], D[:, 0]], axis=1),
                 _horner(AD[:, None], ends[:, None]))
        knots = locs, kb, K, np.concatenate([Q, dK[:, 0], dK[:, 1]], axis=1)
        # a knot's bounds lie within its cells'
        slots = np.arange(int(np.max(cb[:, 1] - cb[:, 0]) / math.tau) + 3)
        return cells, knots, ends, slots


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
    locs, K, (lo, hi) = model.locations(), model._cells[1][2], model.force_range_n
    if not locs[0] <= location_mm <= locs[-1]:
        raise ValueError(f"location {location_mm} mm outside calibrated span "
                         f"[{locs[0]}, {locs[-1]}] mm")
    s = max(int(np.searchsorted(locs, location_mm)) - 1, 0)
    t = (location_mm - locs[s]) / (locs[s + 1] - locs[s])
    phi1, phi2 = _horner((1.0 - t) * K[s] + t * K[s + 1], float(force_n)).tolist()
    return ForwardPhases(phi1=phi1, phi2=phi2, in_range=lo <= force_n <= hi)


def _horner(c: np.ndarray, x):
    """The polynomials with ascending coefficients along c's last axis at x."""
    out = c[..., -1]
    for i in range(c.shape[-1] - 2, -1, -1):
        out = out * x + c[..., i]
    return out


def _real_roots(coef: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Real roots in [lo, hi] of each row's polynomial (ascending powers) as
    (row, root) arrays, by degree descending, then row, then eigvals' order:
    one eigvals call per degree; a zero leading coefficient lowers it."""
    m = coef.shape[1]
    degree = ((coef[:, 1:] != 0.0) * np.arange(1, m)).max(axis=1, initial=0)
    rows, roots, tol = [np.empty(0, np.intp)], [np.empty(0)], _ROOT_TOL * (hi - lo)
    for d in sorted(set(degree.tolist()) - {0}, reverse=True):
        r = (degree == d).nonzero()[0]
        c, comp = coef[r], np.zeros((len(r), d, d))
        comp.reshape(len(r), -1)[:, d::d + 1] = 1.0  # the subdiagonal
        np.divide(c[:, :d], -c[:, d:d + 1], out=comp[:, :, -1])
        w = np.linalg.eigvals(comp)
        i, e = ((abs(w.imag) <= tol) & (w.real >= lo - tol)
                & (w.real <= hi + tol)).nonzero()
        x = w.real[i, e]
        x[x < lo] = lo
        x[x > hi] = hi
        rows.append(r[i])
        roots.append(x)
    return np.concatenate(rows), np.concatenate(roots)


def _pairs(b: np.ndarray, phi: np.ndarray, slots: np.ndarray):
    """The branch pairs y = phi + 2 pi (k1, k2) within bounds b[..., 0, p] <=
    y_p <= b[..., 1, p] on both ports p, for each owner of the grid that b
    and phi[..., None, :] broadcast to, slots an arange longer than the most
    branches of one port: the owners' grid indices and y, (R, 2), by owner,
    then k1, then k2."""
    x = (b - phi[..., None, :]) / math.tau
    k = np.ceil(x[..., 0, :, None]) + slots
    ok = k <= np.floor(x[..., 1, :, None])
    y = phi[..., None] + math.tau * k
    *owner, i, j = (ok[..., 0, :, None] & ok[..., 1, None, :]).nonzero()
    return owner, y[(*(o[:, None] for o in owner), [0, 1], np.array([i, j]).T)]


def _nearest(l: np.ndarray, a: np.ndarray, d: np.ndarray, y: np.ndarray):
    """The points nearest branches y on cells, where port p reads a_p + t d_p
    at location (1 - t) l0 + t l1, 0 <= t <= 1 (rows of l, a, d and y, each
    (m, 2)), as squared distance and location; and whether the unclipped t
    lay in [0, 1]."""
    dd, dy = d * d, d * (y - a)
    den = dd[:, 0] + dd[:, 1]
    t = np.divide(dy[:, 0] + dy[:, 1], den, out=np.zeros(len(den)), where=den > 0.0)
    inside = abs(t - 0.5) <= 0.5 + _ROOT_TOL
    t[t < 0.0] = 0.0
    t[t > 1.0] = 1.0
    e = a + t[:, None] * d - y
    e *= e
    return e[:, 0] + e[:, 1], (1.0 - t) * l[:, 0] + t * l[:, 1], inside


def _least(point: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points that have candidates, and the index of each one's first
    least residual, for candidates in each point's search order."""
    order = np.lexsort((res, point))  # a stable sort: ties keep the search order
    p = point[order]
    head = np.ones(len(p), dtype=bool)
    np.not_equal(p[1:], p[:-1], out=head[1:])
    return p[head], order[head]


def invert_many(model: SensorModel, phi1: Sequence[float],
                phi2: Sequence[float]) -> list[Estimate]:
    """Recover (force, location) from each pair of measured phases (phi1[i],
    phi2[i]), the whole batch in one pass.

    On a location cell port p's phase is A_p(F) + t D_p(F), 0 <= t <= 1.  For
    each pair of 2 pi branches y that can land there, the presses matching
    both ports are the real roots F of the sextic (A_2 - y_2) D_1 - (A_1 - y_1)
    D_2, with t from one linear equation.  With no root in the calibrated box
    the estimate, not in_range, is the nearest point on the cell edges.  The
    residual is the least over branches, so whole turns do not matter, and of
    equal residuals the first found counts.  Each (point, cell, branch pair)
    is one row and each degree's rows share one eigvals call, so a point's
    estimate is the same bytes in any batch.  Phases that are not finite or
    exceed PHASE_LIMIT_RAD raise ValueError naming the first such index, and
    so do phi1 and phi2 that are not 1-D or differ in length; an empty batch
    gives [].
    """
    if len(phi1) != len(phi2):
        raise ValueError(f"phi1 and phi2 must have one length, got {len(phi1)} "
                         f"and {len(phi2)}")
    phi = np.array((phi1, phi2), dtype=float).T
    if phi.ndim != 2:
        raise ValueError(f"phi1 and phi2 must be 1-D, got shape {phi.shape[-2::-1]}")
    if not abs(phi).max(initial=0.0) <= PHASE_LIMIT_RAD:  # or NaN
        i = int(np.argmin((abs(phi) <= PHASE_LIMIT_RAD).all(axis=1)))
        raise ValueError(f"phases must be finite and within {PHASE_LIMIT_RAD:g} "
                         f"rad, got {phi[i, 0]}, {phi[i, 1]} at index {i}")
    (L, bounds, edge_bounds, AD, GD, ad_ends), knots, ends, slots = model._cells
    # each point's (force, location, residual); inf: no root in the box yet
    out = np.full((3, len(phi)), np.inf)
    (point, cell), y = _pairs(bounds, phi[:, None], slots)
    coef = GD[cell]  # the sextic base, plus y_1 D_2 - y_2 D_1 on its low four
    coef[:, :4] += y[:, :1] * coef[:, 7:11] - y[:, 1:] * coef[:, 11:]
    r, F = _real_roots(coef[:, :7], *ends)
    cell, y = cell[r], y[r]
    v = _horner(AD[cell], F[:, None])
    res, l, inside = _nearest(L[cell], v[:, :2], v[:, 2:], y)
    res[~inside] = np.inf  # only a root whose t lies in its cell counts
    found, best = _least(point[r], res)
    out[:, found] = np.array([F, l, res])[:, best]
    in_range = out[2] < np.inf
    if len(fb := (~in_range).nonzero()[0]):
        loc, kb, K, QdK = knots
        # force edges, where the residual is quadratic in t
        (point, cell, end), y = _pairs(edge_bounds, phi[fb, None, None], slots)
        v = ad_ends[cell, end]
        res, l, _ = _nearest(L[cell], v[:, :2], v[:, 2:], y)
        edges = point, ends[end], l, res
        # calibrated locations no farther: roots of the residual's derivative
        # sum_p (K_p - y_p) K_p', a quintic affine in the branches y
        near = np.full(len(fb), np.inf)
        np.minimum.at(near, point, res)
        widen = np.minimum(math.pi, np.sqrt(near))[:, None, None, None]
        (point, knot), y = _pairs(kb + widen * _WIDEN, phi[fb, None], slots)
        coef = QdK[knot]  # the quintic base, less y_1 K_1' + y_2 K_2' on its low three
        coef[:, :3] -= y[:, :1] * coef[:, 6:9] + y[:, 1:] * coef[:, 9:]
        r, F = _real_roots(coef[:, :6], *ends)
        knot = knot[r]
        e = K[knot]
        e[..., 0] -= y[r]
        e = _horner(e, F[:, None])
        e *= e
        quintics = point[r], F, loc[knot], e[:, 0] + e[:, 1]
        point, F, l, res = map(np.concatenate, zip(edges, quintics))
        found, best = _least(point, res)
        out[:, fb[found]] = np.array([F, l, res])[:, best]
    return [Estimate(force_n=F, location_mm=l, residual_rad2=res, in_range=inside,
                     reliable=bool(res <= RESIDUAL_THRESHOLD_RAD2))
            for F, l, res, inside in zip(*out.tolist(), in_range.tolist())]


def invert(model: SensorModel, phi1: float, phi2: float) -> Estimate:
    """Recover (force, location) from one pair of measured phases:
    invert_many's one-point case."""
    return invert_many(model, (phi1,), (phi2,))[0]
