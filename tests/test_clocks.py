import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from forcelink.clocks import (ClockScheme, SwitchClock, make_scheme,
                              verify_disjoint)

F_S = 1000.0


def quad_coefficient(clock: SwitchClock, p: int) -> complex:
    """Oracle: a_p = f * integral of m(t) e^{-j 2 pi p f t} over one period.

    m(t) is 1 on [offset, offset + duty) of each period, so the integral
    reduces to the on-window; evaluated numerically, independent of the
    closed form under test.
    """
    f = clock.frequency
    t0 = clock.phase_offset / f
    t1 = (clock.phase_offset + clock.duty) / f
    re = quad(lambda t: math.cos(2.0 * math.pi * p * f * t), t0, t1,
              epsabs=1e-14, epsrel=1e-13)[0]
    im = quad(lambda t: -math.sin(2.0 * math.pi * p * f * t), t0, t1,
              epsabs=1e-14, epsrel=1e-13)[0]
    return f * complex(re, im)


@pytest.mark.parametrize("duty,offset", [(0.25, 0.0), (0.25, 0.5),
                                         (0.5, 0.25), (0.3, 0.1)])
def test_fourier_coefficient_matches_quadrature(duty, offset):
    clock = SwitchClock(F_S, duty, offset)
    for p in range(0, 9):
        want = quad_coefficient(clock, p)
        got = clock.fourier_coefficient(p)
        assert abs(got - want) < 1e-10, (duty, offset, p)


def test_dc_coefficient_is_duty():
    assert SwitchClock(F_S, 0.25).fourier_coefficient(0) == 0.25
    assert SwitchClock(F_S, 0.3, 0.7).fourier_coefficient(0) == complex(0.3)


def test_quarter_duty_nulls_are_exact():
    clock = SwitchClock(F_S, 0.25)
    assert clock.fourier_coefficient(4) == 0j
    assert clock.fourier_coefficient(8) == 0j
    assert clock.fourier_coefficient(12) == 0j


def test_harmonic_support_quarter_duty():
    clock = SwitchClock(F_S, 0.25)
    assert clock.harmonic_support(8) == {1, 2, 3, 5, 6, 7}


def test_first_harmonic_magnitude_frozen():
    # |a_1| = sin(pi/4)/pi for a quarter-duty wave
    clock = SwitchClock(F_S, 0.25)
    assert abs(clock.fourier_coefficient(1)) == pytest.approx(
        0.22507907903927651, abs=1e-15)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_sampled_coefficient_matches_analytic(offset):
    clock = SwitchClock(F_S, 0.25, offset)
    for p in range(1, 9):
        got = clock.sampled_coefficient(p, samples_per_period=256)
        want = clock.fourier_coefficient(p)
        assert abs(got - want) < 1e-12, p


def test_sampled_coefficient_matches_phase_not_just_magnitude():
    clock = SwitchClock(F_S, 0.3, 0.1)
    # window edges at 0.1 and 0.4 of the period align with a 10-sample grid
    for p in (1, 2, 3):
        got = clock.sampled_coefficient(p, samples_per_period=10)
        want = clock.fourier_coefficient(p)
        assert abs(got - want) < 1e-12


def test_is_on_window_half_open():
    clock = SwitchClock(F_S, 0.25, 0.0)
    period = 1.0 / F_S
    assert clock.is_on(0.0) is True
    assert clock.is_on(0.2499 * period) is True
    assert clock.is_on(0.25 * period) is False
    assert clock.is_on(0.9999 * period) is False
    assert clock.is_on(period) is True  # next window starts


def test_is_on_exactly_periodic_on_snapshot_grid():
    # snapshot instants n * T do not divide the clock period exactly in
    # floats; rounding once flipped isolated samples near period boundaries
    T = 720.0 / 12.5e6
    n = np.arange(12500)
    t = n * T
    for scheme in (make_scheme(1000.0), make_scheme(1400.0)):
        for clock in (scheme.clock_a, scheme.clock_b):
            s = clock.is_on(t)
            assert np.array_equal(s, np.tile(s[:3125], 4)), clock


def test_scheme_requires_double_rate():
    with pytest.raises(ValueError):
        ClockScheme(clock_a=SwitchClock(F_S, 0.25),
                    clock_b=SwitchClock(3.0 * F_S, 0.25))


def test_make_scheme_read_freqs_and_gains():
    scheme = make_scheme(F_S)
    assert scheme.read_freqs == (1000.0, 4000.0)
    g1, g2 = scheme.read_gains
    assert g1 == pytest.approx(0.22507907903927651, abs=1e-15)
    # the 4 f_s tone is the second harmonic of the double-rate clock
    assert g2 == pytest.approx(0.15915494309189535, abs=1e-15)
    assert g2 == abs(scheme.clock_b.fourier_coefficient(2))
    # clock_a's own 4th harmonic, also at 4 f_s, is an exact null
    assert scheme.clock_a.fourier_coefficient(4) == 0j


def test_scheme_rejects_unreadable_read_harmonics():
    # port 2 is read at 4 f_s, clock_b's 2nd harmonic: refused when clock_a
    # puts its own 4th there (|a_4| = 0.047 at duty 0.3) or clock_b nulls it
    for duty_a, duty_b, bad in ((0.3, 0.25, "clock_a duty 0.3"),
                                (0.25, 0.5, "clock_b duty 0.5")):
        with pytest.raises(ValueError, match=bad):
            ClockScheme(clock_a=SwitchClock(F_S, duty_a),
                        clock_b=SwitchClock(2.0 * F_S, duty_b, 0.5))
    # the rule is 4 duty_a whole and 2 duty_b not
    for duty_a, duty_b in ((0.5, 0.25), (0.75, 0.1), (0.25, 0.75)):
        ClockScheme(clock_a=SwitchClock(F_S, duty_a),
                    clock_b=SwitchClock(2.0 * F_S, duty_b))


def test_preset_on_intervals_disjoint_exact():
    rep = verify_disjoint(make_scheme(F_S))
    assert rep.disjoint is True
    assert rep.overlap_fraction == Fraction(0)


def test_unshifted_double_clock_overlaps_by_an_eighth():
    bad = ClockScheme(clock_a=SwitchClock(F_S, 0.25, 0.0),
                      clock_b=SwitchClock(2.0 * F_S, 0.25, 0.0))
    rep = verify_disjoint(bad)
    assert rep.disjoint is False
    assert rep.overlap_fraction == Fraction(1, 8)


def test_an_on_window_wrapping_past_the_period_end_overlaps_at_the_start():
    # clock_b's second window opens at (1 + 0.9) / 2 of the common period and
    # stays on 1/8 of it: the part past the end wraps into clock_a's [0, 1/4)
    scheme = ClockScheme(clock_a=SwitchClock(F_S, 0.25, 0.0),
                         clock_b=SwitchClock(2.0 * F_S, 0.25, 0.9))
    rep = verify_disjoint(scheme)
    assert rep.disjoint is False
    assert rep.overlap_fraction == (1 + Fraction(0.9)) / 2 + Fraction(1, 8) - 1
    assert float(rep.overlap_fraction) == pytest.approx(0.075, abs=1e-15)


def test_switch_states_never_both_on():
    scheme = make_scheme(F_S)
    t = np.linspace(0.0, 5.0 / F_S, 4001)
    s1, s2 = scheme.switch_states(t)
    assert not np.any(s1 & s2)


def test_clock_validation():
    with pytest.raises(ValueError):
        SwitchClock(0.0, 0.25)
    with pytest.raises(ValueError):
        SwitchClock(F_S, 0.0)
    with pytest.raises(ValueError):
        SwitchClock(F_S, 1.0)
    with pytest.raises(ValueError):
        SwitchClock(F_S, 0.25, 1.0)
    with pytest.raises(ValueError):
        SwitchClock(F_S, 0.25).fourier_coefficient(-1)
    with pytest.raises(ValueError):
        SwitchClock(F_S, 0.25).sampled_coefficient(1, samples_per_period=1)
