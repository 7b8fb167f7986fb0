import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelink.transducer import (MechanicalParams, SensorGeometry,
                                  ShortingState, TouchEvent, check_line, impedance,
                                  phase_per_mm, port_phases, port_reflections,
                                  propagation_constant, shorting_segment,
                                  solve_width_ratio, wrap_phase)

GEOM = SensorGeometry()
MECH = MechanicalParams()
CARRIER = 2.4e9


def test_impedance_satisfies_its_own_inverse():
    # if Z = 60 ln(6x + sqrt(1 + 4x^2)) then with y = exp(Z/60) the ratio
    # must solve 32x^2 - 12xy + y^2 - 1 = 0; checked without reusing the
    # forward formula
    for x in (0.05, 0.2, 0.252, 1.0, 3.0):
        z = impedance(x, 1.0)
        y = math.exp(z / 60.0)
        assert abs(32.0 * x * x - 12.0 * x * y + y * y - 1.0) < 1e-9


def test_impedance_reference_points():
    assert impedance(0.2, 1.0) == pytest.approx(49.4, abs=0.05)
    assert impedance(0.63, 2.5) == pytest.approx(58.060732435211726, abs=1e-9)
    # scale invariance: only h/w matters
    assert impedance(0.2, 1.0) == impedance(2.0, 10.0)


def test_impedance_monotone_in_ratio():
    zs = [impedance(x, 1.0) for x in np.linspace(0.01, 5.0, 50)]
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_solve_width_ratio_roundtrip():
    # a closed form, not a search: the round trip is as good as impedance's
    # own rounding, a few ulps of 60 (the log's argument) and of Z, and the
    # ratio solves the quadratic
    for target in [30.0, 50.0, 75.0, 120.0] + np.geomspace(1e-6, 1000.0, 801).tolist():
        ratio = solve_width_ratio(target)
        assert type(ratio) is float
        assert abs(impedance(1.0, ratio) - target) <= 1e-15 * (60.0 + target), target
        x, y = 1.0 / ratio, math.exp(target / 60.0)
        assert abs(32.0 * x * x - 12.0 * x * y + y * y - 1.0) <= 1e-12 * y * y
    # Z -> 0 is x -> 0, where Z = 360 x to first order
    assert solve_width_ratio(1e-6) == pytest.approx(360.0 / 1e-6, rel=1e-8)
    # high targets still have a (thin) ratio
    assert 0.0 < solve_width_ratio(2000.0) < 1e-13


def test_fifty_ohm_ratio_near_five():
    assert 4.8 <= solve_width_ratio(50.0) <= 5.0


def test_impedance_validation():
    with pytest.raises(ValueError):
        impedance(0.0, 1.0)
    with pytest.raises(ValueError):
        impedance(1.0, -2.0)
    # h/w past float range is a ValueError; a huge finite one squares nothing
    # (Z ~ 60 ln 8x), and a thin line keeps its digits (Z ~ 360x)
    with pytest.raises(ValueError):
        impedance(1e308, 1e-308)
    assert impedance(1e300, 1.0) == pytest.approx(60.0 * math.log(8e300),
                                                  rel=1e-15, abs=0.0)
    assert impedance(1e-20, 1.0) == pytest.approx(3.6e-18, rel=1e-15, abs=0.0)
    # a ratio past float range is a ValueError, never an OverflowError
    for target in (0.0, -5.0, math.nan, 5e-324, 1e6, math.inf):
        with pytest.raises(ValueError):
            solve_width_ratio(target)


def test_light_touch_leaves_line_open():
    assert shorting_segment(None, MECH, GEOM).is_open
    assert shorting_segment(TouchEvent(0.2, 40.0), MECH, GEOM).is_open
    assert shorting_segment(TouchEvent(0.5, 40.0), MECH, GEOM).is_open
    assert not shorting_segment(TouchEvent(0.6, 40.0), MECH, GEOM).is_open


def test_center_press_is_symmetric():
    L = GEOM.length_mm
    for F in (1.0, 2.5, 4.0, 8.0):
        a, b = shorting_segment(TouchEvent(F, L / 2.0), MECH, GEOM).segment
        assert a == pytest.approx(L - b, abs=1e-12)
        assert a < L / 2.0 < b


def test_off_center_press_spreads_toward_its_near_end():
    # the edge on the press's short side moves in proportion to the span on
    # the far side, so a press at 20 mm pushes edge a three times as far as b
    st = shorting_segment(TouchEvent(3.0, 20.0), MECH, GEOM)
    a, b = st.segment
    assert (20.0 - a) == pytest.approx(3.0 * (b - 20.0), rel=1e-12)


def test_halfwidth_saturates_with_force():
    widths = []
    for F in (1.0, 2.0, 4.0, 8.0, 16.0, 100.0):
        a, b = shorting_segment(TouchEvent(F, 40.0), MECH, GEOM).segment
        widths.append(b - a)
    assert all(w2 > w1 for w1, w2 in zip(widths, widths[1:]))
    # centered: b - a = 2 w(F), saturating at twice the max half-width
    assert widths[-1] < 2.0 * MECH.max_halfwidth_mm
    assert widths[-1] == pytest.approx(2.0 * MECH.max_halfwidth_mm, rel=1e-6)


def test_segment_clamps_to_line_ends():
    a, b = shorting_segment(TouchEvent(50.0, 2.0), MECH, GEOM).segment
    assert a == 0.0
    assert b <= GEOM.length_mm
    a, b = shorting_segment(TouchEvent(50.0, 79.0), MECH, GEOM).segment
    assert b <= GEOM.length_mm


def test_shorting_segment_validation():
    with pytest.raises(ValueError):
        shorting_segment(TouchEvent(1.0, -3.0), MECH, GEOM)
    with pytest.raises(ValueError):
        shorting_segment(TouchEvent(1.0, 81.0), MECH, GEOM)
    wide = MechanicalParams(max_halfwidth_mm=41.0)
    with pytest.raises(ValueError):
        shorting_segment(TouchEvent(1.0, 40.0), wide, GEOM)
    with pytest.raises(ValueError):
        TouchEvent(-1.0, 40.0)


def test_check_line_is_where_a_press_may_land():
    # both ends of the line, and a patch of exactly the line's length, pass;
    # with no location the patch alone is checked
    check_line(MECH, GEOM)
    check_line(MechanicalParams(max_halfwidth_mm=40.0), GEOM, 0.0, 40.0, 80.0)
    for mech, locs, says in (
            (MECH, (0.0, 80.5), "touch location 80.5 mm outside line [0, 80.0] mm"),
            (MECH, (-0.5,), "touch location -0.5 mm outside line [0, 80.0] mm"),
            (MechanicalParams(max_halfwidth_mm=40.5), (40.0,),
             "max_halfwidth_mm 40.5 mm exceeds half of the 80.0 mm line")):
        with pytest.raises(ValueError) as e:
            check_line(mech, GEOM, *locs)
        assert str(e.value) == says
        # shorting_segment refuses the same press with the same words
        with pytest.raises(ValueError) as e:
            shorting_segment(TouchEvent(1.0, locs[-1]), mech, GEOM)
        assert str(e.value) == says
    # below the contact threshold the line stays open, wherever the press is
    assert shorting_segment(TouchEvent(0.2, 90.0), MECH, GEOM).is_open


def test_open_line_phase_frozen():
    pp = port_phases(ShortingState.open(), GEOM, CARRIER)
    # -2 beta L with beta = 2 pi f/c: 2.4 GHz over 80 mm gives -0.064 pi * 40
    want = -2.0 * (2.0 * math.pi * CARRIER / 3.0e8) * 0.080
    assert pp.phi1 == pytest.approx(-8.042477193189871, abs=1e-12)
    assert pp.phi1 == pytest.approx(want, abs=1e-12)
    assert pp.phi2 == pp.phi1
    assert wrap_phase(pp.phi1) == pytest.approx(-1.7592918860102849, abs=1e-12)


def test_shorted_phases_encode_edge_distances():
    st = shorting_segment(TouchEvent(4.0, 30.0), MECH, GEOM)
    a, b = st.segment
    beta = propagation_constant(CARRIER, 1.0)
    pp = port_phases(st, GEOM, CARRIER)
    assert pp.phi1 == pytest.approx(-2.0 * beta * a * 1e-3 + math.pi, abs=1e-12)
    assert pp.phi2 == pytest.approx(
        -2.0 * beta * (GEOM.length_mm - b) * 1e-3 + math.pi, abs=1e-12)
    # each port's wrapped phase is its own phase mod 2 pi, in (-pi, pi]
    assert wrap_phase(pp.phi1) != wrap_phase(pp.phi2)
    for phi in (pp.phi1, pp.phi2):
        wrapped = wrap_phase(phi)
        assert -math.pi < wrapped <= math.pi
        assert math.remainder(phi - wrapped, 2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-12)


def test_port_phases_validation():
    with pytest.raises(ValueError):
        port_phases(ShortingState.open(), GEOM, 0.0)


def test_phase_per_mm_frozen():
    # 2.4 GHz in air: 2 beta = 32 pi rad/m, i.e. exactly 5.76 deg/mm round trip
    assert phase_per_mm(2.4e9) == pytest.approx(5.76, abs=1e-12)
    assert phase_per_mm(900.0e6) == pytest.approx(2.16, abs=1e-12)
    # eps_eff scales beta by its square root
    assert phase_per_mm(2.4e9, 4.0) == pytest.approx(11.52, abs=1e-12)


def test_wrap_phase():
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(0.1) == pytest.approx(0.1)
    assert wrap_phase(2.0 * math.pi + 0.1) == pytest.approx(0.1)
    assert wrap_phase(-0.2 - 4.0 * math.pi) == pytest.approx(-0.2)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SensorGeometry(length_mm=0.0)
    with pytest.raises(ValueError):
        SensorGeometry(eps_eff=0.5)
    with pytest.raises(ValueError):
        MechanicalParams(force_scale_n=0.0)
    with pytest.raises(ValueError, match="contact_threshold_n"):
        MechanicalParams(contact_threshold_n=-0.1)
    with pytest.raises(ValueError, match="max_halfwidth_mm"):
        MechanicalParams(max_halfwidth_mm=0.0)
    with pytest.raises(ValueError, match="asymmetry_exponent"):
        MechanicalParams(asymmetry_exponent=-1.0)


@settings(max_examples=200, deadline=None)
@given(pressed=st.booleans(), force=st.floats(0.0, 20.0), where=st.floats(0.0, 1.0),
       eps_eff=st.floats(1.0, 12.0), length_mm=st.floats(26.0, 400.0),
       carrier_hz=st.floats(1e8, 6e9))
def test_port_reflections_are_unit_phasors_at_the_port_phases(
        pressed, force, where, eps_eff, length_mm, carrier_hz):
    # each port's reflection is e^{j phi}: unit magnitude, at port_phases'
    # angle modulo 2 pi, for the open line and for any press
    geom = SensorGeometry(length_mm=length_mm, eps_eff=eps_eff)
    touch = TouchEvent(force, where * length_mm) if pressed else None
    r = port_reflections(touch, MECH, geom, carrier_hz)
    pp = port_phases(shorting_segment(touch, MECH, geom), geom, carrier_hz)
    assert r.shape == (2,) and r.dtype == complex
    assert np.abs(np.abs(r) - 1.0).max() <= 1e-15
    for angle, phi in zip(np.angle(r), (pp.phi1, pp.phi2)):
        assert abs(wrap_phase(float(angle) - phi)) <= 1e-12
