"""Microstrip force transducer: geometry, impedance, contact mechanics, phases.

The sensing element is a microstrip transmission line that a press shorts to
ground.  The short is not a point: the contact patch closes a segment [a, b]
whose edges move outward with force, asymmetrically when the press sits away
from the line's center.  Each end of the line sees a reflection whose phase
encodes the distance to its nearest shorting edge, so the two ends together
encode both force magnitude and contact location.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class SensorGeometry:
    """Physical line geometry; lengths/widths in millimeters."""

    length_mm: float = 80.0
    signal_width_mm: float = 2.5
    ground_width_mm: float = 6.0
    height_mm: float = 0.63
    eps_eff: float = 1.0

    def __post_init__(self):
        for name in ("length_mm", "signal_width_mm", "ground_width_mm", "height_mm"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.eps_eff >= 1.0:
            raise ValueError("eps_eff must be >= 1")


@dataclass(frozen=True)
class MechanicalParams:
    """Phenomenological press model.

    Above the contact threshold the shorted half-width grows as
    w(F) = max_halfwidth * (1 - exp(-(F - threshold)/force_scale)); each
    segment edge moves outward in proportion to the fraction of line on the
    far side of the contact (raised to asymmetry_exponent), so an off-center
    press pushes the edge on its short side farther than the other.
    """

    contact_threshold_n: float = 0.5
    force_scale_n: float = 4.0
    max_halfwidth_mm: float = 13.0
    asymmetry_exponent: float = 1.0

    def __post_init__(self):
        if self.contact_threshold_n < 0.0:
            raise ValueError("contact_threshold_n must be >= 0")
        if not self.force_scale_n > 0.0:
            raise ValueError("force_scale_n must be positive")
        if not self.max_halfwidth_mm > 0.0:
            raise ValueError("max_halfwidth_mm must be positive")
        if self.asymmetry_exponent < 0.0:
            raise ValueError("asymmetry_exponent must be >= 0")


@dataclass(frozen=True)
class TouchEvent:
    """A press of force_n newtons centered at location_mm from port 1.

    The absence of touch is represented by None wherever a TouchEvent is
    accepted.
    """

    force_n: float
    location_mm: float

    def __post_init__(self):
        if self.force_n < 0.0:
            raise ValueError("force must be >= 0")


@dataclass(frozen=True)
class ShortingState:
    """Either open (no short) or a shorted segment [a, b] in mm from port 1."""

    segment: tuple[float, float] | None

    @classmethod
    def open(cls) -> "ShortingState":
        return cls(segment=None)

    @property
    def is_open(self) -> bool:
        return self.segment is None


@dataclass(frozen=True)
class PortPhases:
    """Unwrapped reflection phases seen from each end, radians."""

    phi1: float
    phi2: float


def wrap_phase(x: float) -> float:
    """Wrap a phase to (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def impedance(height_mm: float, width_mm: float) -> float:
    """Characteristic impedance (ohms) of the air-substrate line.

    Z = 60 ln(6h/w + sqrt(1 + (2h/w)^2)); only the h/w ratio matters.  With
    x = h/w it is evaluated as 60 log1p(6x + 4x^2 / (1 + sqrt(1 + 4x^2))),
    sqrt(1 + 4x^2) - 1 rationalized, so a thin line (x -> 0, Z ~ 360x)
    keeps its digits; the 4x^2 is split so that no square overflows.
    """
    if not height_mm > 0.0 or not width_mm > 0.0:
        raise ValueError("height and width must be positive")
    x = height_mm / width_mm
    if not math.isfinite(x):
        raise ValueError(f"h/w = {height_mm}/{width_mm} is out of float range")
    y = 2.0 * x
    return 60.0 * math.log1p(6.0 * x + y * (y / (1.0 + math.hypot(1.0, y))))


def solve_width_ratio(z_target: float) -> float:
    """Width-to-height ratio w/h that realizes a target impedance, exactly.

    With E = e^{Z/60} and x = h/w, impedance's Z = 60 ln(6x + sqrt(1 + 4x^2))
    is 32x^2 - 12Ex + E^2 - 1 = 0, and its root below E/6 (where the square
    root is E - 6x) gives w/h = 1/x = 2(3E + sqrt(E^2 + 8)) / (E^2 - 1).
    Evaluated in q = 1/E, as 2q(3 + sqrt(1 + 8q^2)) / (1 - q^2) with
    1 - q^2 = -expm1(-Z/30), nothing overflows and Z -> 0 keeps its digits.
    """
    if not z_target > 0.0:
        raise ValueError("target impedance must be positive")
    q, den = math.exp(-z_target / 60.0), -math.expm1(-z_target / 30.0)
    ratio = 2.0 * q * (3.0 + math.sqrt(1.0 + 8.0 * q * q)) / den if den else math.inf
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise ValueError(f"no realizable ratio for {z_target} ohm")
    return ratio


def shorting_segment(touch: TouchEvent | None, mech: MechanicalParams,
                     geom: SensorGeometry) -> ShortingState:
    """Map a touch to the shorted segment [a, b].

    Below the contact threshold the line stays open.  Above it the segment
    spreads from the contact location with saturating half-width w(F); each
    edge moves in proportion to the fraction of line on the far side of the
    contact (asymmetry exponent kappa), and both edges clamp to the line.
    """
    if touch is None or touch.force_n <= mech.contact_threshold_n:
        return ShortingState.open()
    L = geom.length_mm
    lc = touch.location_mm
    if not 0.0 <= lc <= L:
        raise ValueError(f"touch location {lc} mm outside line [0, {L}] mm")
    if mech.max_halfwidth_mm > 0.5 * L:
        raise ValueError("max_halfwidth_mm must not exceed half the line length")
    w = mech.max_halfwidth_mm * (
        1.0 - math.exp(-(touch.force_n - mech.contact_threshold_n) / mech.force_scale_n))
    kappa = mech.asymmetry_exponent
    a = lc - 2.0 * w * (1.0 - lc / L) ** kappa
    b = lc + 2.0 * w * (lc / L) ** kappa
    a = min(max(a, 0.0), lc)
    b = min(max(b, lc), L)
    return ShortingState(segment=(a, b))


def propagation_constant(carrier_hz: float, eps_eff: float) -> float:
    """beta in rad/m."""
    return 2.0 * math.pi * carrier_hz * math.sqrt(eps_eff) / SPEED_OF_LIGHT


def port_phases(state: ShortingState, geom: SensorGeometry,
                carrier_hz: float) -> PortPhases:
    """Reflection phase at each end for a shorting state.

    Open line: both ends see the full round trip, phi = -2 beta L.  Shorted
    segment [a, b]: port 1 sees the round trip to a plus the short's pi flip,
    port 2 likewise to L - b.  Values are unwrapped; wrap_phase wraps them.
    """
    if not carrier_hz > 0.0:
        raise ValueError("carrier frequency must be positive")
    beta = propagation_constant(carrier_hz, geom.eps_eff)
    L_m = geom.length_mm * 1e-3
    if state.is_open:
        phi = -2.0 * beta * L_m
        return PortPhases(phi1=phi, phi2=phi)
    a, b = state.segment
    phi1 = -2.0 * beta * (a * 1e-3) + math.pi
    phi2 = -2.0 * beta * ((geom.length_mm - b) * 1e-3) + math.pi
    return PortPhases(phi1=phi1, phi2=phi2)


def port_reflections(touch: TouchEvent | None, mech: MechanicalParams,
                     geom: SensorGeometry, carrier_hz: float) -> np.ndarray:
    """Each port's reflection e^{j phi} for a touch (None: open), shape (2,),
    phi port_phases' angle: the one place a port phase becomes a phasor."""
    pp = port_phases(shorting_segment(touch, mech, geom), geom, carrier_hz)
    return np.exp(1j * np.array((pp.phi1, pp.phi2)))


def phase_per_mm(carrier_hz: float, eps_eff: float = 1.0) -> float:
    """Round-trip phase change per millimeter of edge travel, degrees."""
    return math.degrees(2.0 * propagation_constant(carrier_hz, eps_eff) * 1e-3)
