"""Calibration: fit a per-location phase model and invert phases to (F, l).

Calibration sweeps record both ports' unwrapped phases over a force grid at a
handful of contact locations.  Each location gets a cubic-in-force least
squares fit per port; between locations the coefficients interpolate
linearly, so inversion solves each location cell in closed form, a sextic in
F per pair of 2 pi branches, from polynomials cached on the SensorModel.
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
    def _cells(self) -> tuple[np.ndarray, ...]:
        """Knots (n,) and cubics K (n, 2, 4), ascending in F; per cell s, D =
        K[s+1] - K[s] (port p's phase there is K_p[s](F) + t D_p(F), 0 <= t <= 1)
        and the sextic K_2 D_1 - K_1 D_2; each cubic's lo and hi over the forces."""
        K = np.array([(f.c_port1, f.c_port2) for f in self.fits], dtype=float)
        D, flat = np.diff(K, axis=0), K.reshape(-1, 4)
        # extremes lie at an end of the force range or where K' vanishes
        row, F = _real_roots(flat[:, 1:] * (1.0, 2.0, 3.0), *self.force_range_n)
        v = _horner(flat[:, None], np.array(self.force_range_n))
        lo, hi = v.min(axis=1), v.max(axis=1)
        np.minimum.at(lo, row, _horner(flat[row], F))
        np.maximum.at(hi, row, _horner(flat[row], F))
        sextic = np.array([np.convolve(k2, d1) - np.convolve(k1, d2)
                           for (k1, k2), (d1, d2) in zip(K, D)]).reshape(-1, 7)
        return (np.array(self.locations()), K, D, sextic,
                lo.reshape(-1, 2), hi.reshape(-1, 2))


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
    locs, K = model._cells[:2]
    if not locs[0] <= location_mm <= locs[-1]:
        raise ValueError(f"location {location_mm} mm outside calibrated span "
                         f"[{locs[0]}, {locs[-1]}] mm")
    s = max(int(np.searchsorted(locs, location_mm)) - 1, 0)
    t = (location_mm - locs[s]) / (locs[s + 1] - locs[s])
    phi1, phi2 = _horner((1.0 - t) * K[s] + t * K[s + 1], force_n).tolist()
    lo, hi = model.force_range_n
    return ForwardPhases(phi1=phi1, phi2=phi2, in_range=lo <= force_n <= hi)


def _horner(c: np.ndarray, x) -> np.ndarray:
    """Polynomials with ascending coefficients on c's last axis, at x."""
    out = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * x + c[..., k]
    return out


def _real_roots(coef: np.ndarray, lo: float, hi: float):
    """Real roots in [lo, hi] of each row's polynomial (ascending powers) as
    (row, root) arrays, from companion-matrix eigenvalues, a batch per degree."""
    rows, roots, idx = [np.empty(0, int)], [np.empty(0)], np.arange(len(coef))
    d, tol = coef.shape[1] - 1, _ROOT_TOL * (hi - lo)
    while d > 0 and len(coef):  # a zero leading coefficient lowers the degree
        lead = coef[:, d] != 0.0
        comp = np.repeat(np.eye(d, k=-1)[None], lead.sum(), axis=0)
        comp[:, :, -1] = -coef[lead, :d] / coef[lead, d:]
        z = np.linalg.eigvals(comp)
        ok = (np.abs(z.imag) <= tol) & (z.real >= lo - tol) & (z.real <= hi + tol)
        rows.append(idx[lead][np.nonzero(ok)[0]])
        roots.append(np.minimum(np.maximum(z.real[ok], lo), hi))
        coef, idx, d = coef[~lead, :d], idx[~lead], d - 1
    return np.concatenate(rows), np.concatenate(roots)


def _branches(lo: np.ndarray, hi: np.ndarray, phi: np.ndarray):
    """Rows r and branches y = phi + 2 pi k with lo[r] <= y <= hi[r], per port."""
    k = np.concatenate([np.ceil((lo - phi) / math.tau),
                        np.floor((hi - phi) / math.tau)], axis=1).astype(int)
    rk = np.array([(r, a, b) for r, (a0, b0, a1, b1) in enumerate(k.tolist())
                   for a in range(a0, a1 + 1) for b in range(b0, b1 + 1)],
                  dtype=int).reshape(-1, 3)
    return rk[:, 0], phi + math.tau * rk[:, 1:]


def _cell_fit(cells: tuple, s: np.ndarray, F: np.ndarray, y: np.ndarray):
    """Per row, on cell s at force F: the location whose phases lie nearest
    y, their squared distance, and whether the unclipped t lay in [0, 1]."""
    locs, K, D = cells[:3]
    a, d = _horner(K[s], F[:, None]), _horner(D[s], F[:, None])
    den = np.einsum("ij,ij->i", d, d)
    t = np.einsum("ij,ij->i", d, y - a) / np.where(den > 0.0, den, 1.0)  # d = 0: t = 0
    inside = np.abs(t - 0.5) <= 0.5 + _ROOT_TOL
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    e = a + t[:, None] * d - y
    return (1.0 - t) * locs[s] + t * locs[s + 1], np.einsum("ij,ij->i", e, e), inside


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
    cells = locs, K, D, G, lo, hi = model._cells
    ends, phi = np.array(model.force_range_n), np.array([phi1, phi2], dtype=float)
    if not np.abs(phi).max() <= PHASE_LIMIT_RAD:  # NaN fails it too
        raise ValueError(f"phases must be finite and within {PHASE_LIMIT_RAD:g} "
                         f"rad, got {phi1}, {phi2}")
    c_lo, c_hi = np.minimum(lo[:-1], lo[1:]), np.maximum(hi[:-1], hi[1:])
    s, y = _branches(c_lo, c_hi, phi)
    sextic = G[s]
    sextic[:, :4] += y[:, :1] * D[s, 1] - y[:, 1:] * D[s, 0]
    r, F = _real_roots(sextic, *ends)
    l, res, inside = _cell_fit(cells, s[r], F, y[r])
    points = [(F[inside], l[inside], res[inside])]
    if not inside.any():
        # force edges, row 2 s + (0, 1) for cell s: the residual is quadratic in t
        e, y = _branches(*np.repeat([c_lo - math.pi, c_hi + math.pi], 2, axis=1), phi)
        F = ends[e % 2]
        points.append((F, *_cell_fit(cells, e // 2, F, y)[:2]))
        # calibrated locations that could beat that: the residual's quintic derivative
        i, y = _branches(lo - math.pi, hi + math.pi, phi)
        gap = np.maximum(lo[i] - y, 0.0) + np.maximum(y - hi[i], 0.0)
        keep = np.einsum("ij,ij->i", gap, gap) < points[-1][2].min()
        if keep.any():
            i, c = i[keep], K[i[keep]]
            c[..., 0] -= y[keep]
            quintic = np.array([sum(map(np.convolve, cp, dcp)) for cp, dcp
                                in zip(c, c[..., 1:] * (1.0, 2.0, 3.0))]).reshape(-1, 6)
            r, F = _real_roots(quintic, *ends)
            e = _horner(c[r], F[:, None])
            points.append((F, locs[i[r]], np.einsum("ij,ij->i", e, e)))
    F, l, res = map(np.concatenate, zip(*points))
    k = np.argmin(res)
    return Estimate(force_n=float(F[k]), location_mm=float(l[k]),
                    residual_rad2=float(res[k]), in_range=bool(inside.any()),
                    reliable=bool(res[k] <= residual_threshold_rad2))
