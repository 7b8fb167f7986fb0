"""Calibration fitting and phase-to-press inversion."""
import functools
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelink import calib
from forcelink.calib import (RESIDUAL_THRESHOLD_RAD2, _WIDEN, CalibrationDataset,
                             Sample, _pairs, fit_model, generate_sweep, invert,
                             invert_many, model_forward)
from forcelink.transducer import (MechanicalParams, SensorGeometry,
                                  ShortingState, TouchEvent, port_phases,
                                  shorting_segment)

GEOM = SensorGeometry()
MECH = MechanicalParams()
CARRIER = 2.4e9
LOCATIONS = (20.0, 30.0, 40.0, 50.0, 60.0)
FORCES = tuple(1.0 + 0.5 * i for i in range(15))  # 1.0 .. 8.0 N


def exact_phases(force_n, location_mm, mech=MECH):
    state = shorting_segment(TouchEvent(force_n, location_mm), mech, GEOM)
    return port_phases(state, GEOM, CARRIER)


@pytest.fixture(scope="module")
def model():
    data = generate_sweep(LOCATIONS, FORCES, GEOM, MECH, CARRIER)
    return fit_model(data)


def make_samples(locations, forces):
    out = []
    for loc in locations:
        for F in forces:
            out.append(Sample(force_n=F, location_mm=loc, phi1=0.1 * F,
                              phi2=-0.1 * F))
    return tuple(out)


def test_dataset_requires_two_locations():
    with pytest.raises(ValueError):
        CalibrationDataset(samples=make_samples([40.0], FORCES),
                           carrier_hz=CARRIER)


def test_dataset_requires_four_forces_per_location():
    samples = make_samples([20.0], FORCES) + make_samples([40.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        CalibrationDataset(samples=samples, carrier_hz=CARRIER)


@pytest.mark.parametrize("field", ["force_n", "location_mm", "phi1", "phi2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_requires_finite_samples(field, bad):
    # a dataset file cannot hold these (its reader refuses a non-finite
    # number first); a library caller's samples are checked here
    samples = make_samples([20.0, 40.0], [1.0, 2.0, 3.0, 4.0])
    samples = (replace(samples[0], **{field: bad}),) + samples[1:]
    with pytest.raises(ValueError, match="^samples must all be finite$"):
        CalibrationDataset(samples=samples, carrier_hz=CARRIER)


def test_dataset_refuses_a_negative_force():
    # the grid rule a config's calibration grid keeps: a press cannot pull
    samples = make_samples([20.0, 40.0], [1.0, 2.0, 3.0, 4.0])
    samples = (replace(samples[0], force_n=-1.0),) + samples[1:]
    with pytest.raises(ValueError, match=r"^forces_n must be >= 0, got "
                                         r"\(-1\.0, 2\.0, 3\.0, 4\.0\)$"):
        CalibrationDataset(samples=samples, carrier_hz=CARRIER)


def test_dataset_source_validation():
    samples = make_samples([20.0, 40.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        CalibrationDataset(samples=samples, carrier_hz=CARRIER, source="guessed")
    ds = CalibrationDataset(samples=samples, carrier_hz=CARRIER)
    assert ds.source == "simulated"
    assert ds.locations() == [20.0, 40.0]


def test_sweep_covers_grid():
    data = generate_sweep(LOCATIONS, FORCES, GEOM, MECH, CARRIER)
    assert len(data.samples) == len(LOCATIONS) * len(FORCES)
    s = data.samples[0]
    want = exact_phases(s.force_n, s.location_mm)
    assert s.phi1 == want.phi1 and s.phi2 == want.phi2


def test_fit_reproduces_calibration_grid(model):
    assert model.locations() == sorted(LOCATIONS)
    assert model.force_range_n == (min(FORCES), max(FORCES))
    # a cubic in force tracks the saturating-width phase curves closely
    assert max(f.rms_rad for f in model.fits) < math.radians(1.0)
    worst = 0.0
    for loc in LOCATIONS:
        for F in FORCES:
            fw = model_forward(model, F, loc)
            want = exact_phases(F, loc)
            worst = max(worst, abs(fw.phi1 - want.phi1),
                        abs(fw.phi2 - want.phi2))
    assert worst < math.radians(1.0)


def test_model_forward_interpolates_held_out_location(model):
    # 55 mm is halfway between calibrated locations
    errs = []
    for F in FORCES:
        fw = model_forward(model, F, 55.0)
        want = exact_phases(F, 55.0)
        errs.append(fw.phi1 - want.phi1)
        errs.append(fw.phi2 - want.phi2)
    rms = math.sqrt(float(np.mean(np.square(errs))))
    assert rms < math.radians(2.0)


def test_model_forward_flags_out_of_range_force(model):
    assert model_forward(model, 4.0, 40.0).in_range
    assert not model_forward(model, 0.9, 40.0).in_range
    assert not model_forward(model, 8.1, 40.0).in_range


def test_model_forward_outside_location_span_raises(model):
    with pytest.raises(ValueError):
        model_forward(model, 4.0, 19.0)
    with pytest.raises(ValueError):
        model_forward(model, 4.0, 61.0)


def test_invert_roundtrip_random_presses(model):
    rng = np.random.default_rng(7)
    worst_f, worst_l = 0.0, 0.0
    for _ in range(60):
        F = float(rng.uniform(1.1, 7.9))
        loc = float(rng.uniform(20.5, 59.5))
        pp = exact_phases(F, loc)
        est = invert(model, pp.phi1, pp.phi2)
        assert est.in_range and est.reliable
        worst_f = max(worst_f, abs(est.force_n - F))
        worst_l = max(worst_l, abs(est.location_mm - loc))
    assert worst_f < 0.05
    assert worst_l < 0.05


@settings(max_examples=60, deadline=None)
@given(F=st.floats(min(FORCES), max(FORCES)),
       loc=st.floats(min(LOCATIONS), max(LOCATIONS)))
def test_invert_roundtrips_model_phases(model, F, loc):
    # a noiseless press inside the box is an exact root of the model
    fw = model_forward(model, F, loc)
    est = invert(model, fw.phi1, fw.phi2)
    assert abs(est.force_n - F) < 1e-9
    assert abs(est.location_mm - loc) < 1e-9
    assert est.in_range and est.reliable
    assert est.residual_rad2 < 1e-20


# the dense-grid oracle's models: the default press and both asymmetry extremes
ORACLE_MECHS = {"default": MECH, "asym0": replace(MECH, asymmetry_exponent=0.0),
                "asym2": replace(MECH, asymmetry_exponent=2.0)}


def dense_grid(m):
    """m's phases on a 0.05 N by 0.25 mm grid over the box, from
    model_forward alone."""
    return np.array([[(fw.phi1, fw.phi2) for fw in (model_forward(m, F, loc)
                                                    for F in np.linspace(1.0, 8.0, 141))]
                     for loc in np.linspace(20.0, 60.0, 161)])


def grid_residual(grid, phi):
    """The least squared phase distance from phi to any grid point, whole
    turns aside."""
    err = np.angle(np.exp(1j * (grid - phi)))
    return float(np.min(np.sum(err ** 2, axis=-1)))


@functools.cache
def oracle(name):
    """A model and its dense grid."""
    m = fit_model(generate_sweep(LOCATIONS, FORCES, GEOM, ORACLE_MECHS[name],
                                 CARRIER))
    return m, dense_grid(m)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_MECHS)),
       F=st.floats(0.6, 9.5), loc=st.floats(14.0, 66.0),
       noise_deg=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       turns=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_invert_is_no_worse_than_a_dense_grid(name, F, loc, noise_deg, turns):
    # noisy and over-range presses: no point of the box fits the phases
    # better than the estimate does
    m, grid = oracle(name)
    pp = exact_phases(F, loc, ORACLE_MECHS[name])
    phi = (np.array([pp.phi1, pp.phi2]) + np.radians(noise_deg)
           + 2.0 * math.pi * np.array(turns))
    est = invert(m, *phi)
    assert est.residual_rad2 <= grid_residual(grid, phi) + 1e-12
    fw = model_forward(m, est.force_n, est.location_mm)
    assert math.isclose(est.residual_rad2,
                        sum(float(np.angle(np.exp(1j * (p - q)))) ** 2
                            for p, q in zip((fw.phi1, fw.phi2), phi)),
                        rel_tol=1e-9, abs_tol=1e-15)


@functools.cache
def quadratic_oracle():
    """The default model with every fit's cubic coefficients zeroed, and its
    dense grid."""
    m = oracle("default")[0]
    m = replace(m, fits=tuple(replace(f, c_port1=(*f.c_port1[:3], 0.0),
                                      c_port2=(*f.c_port2[:3], 0.0)) for f in m.fits))
    return m, dense_grid(m)


@settings(max_examples=80, deadline=None)
@given(F=st.floats(1.0, 2.0) | st.floats(1.0, 8.0), loc=st.floats(20.0, 60.0),
       push=st.floats(0.1, 0.8),
       turns=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_invert_drops_degrees_on_a_quadratic_model(F, loc, push, turns):
    # with every cubic coefficient zero the two leading coefficients of
    # each sextic and each quintic vanish, so every root search drops
    # degrees.  A
    # noiseless press is an exact root; each port's quadratic peaks near
    # 5.1 N, so a press under 2.2 N has no twin in the box and comes back
    # itself.  phi1 + phi2 depends on force alone and is least at 1 N over
    # the box, so the 1 N edge's phases moved down on both ports lie outside
    # the image: out of range, and no worse than the dense grid
    m, grid = quadratic_oracle()
    fw = model_forward(m, F, loc)
    est = invert(m, fw.phi1, fw.phi2)
    assert est.in_range and est.reliable and est.residual_rad2 < 1e-20
    back = model_forward(m, est.force_n, est.location_mm)
    assert abs(back.phi1 - fw.phi1) < 1e-9 and abs(back.phi2 - fw.phi2) < 1e-9
    if F <= 2.0:
        assert abs(est.force_n - F) < 1e-9 and abs(est.location_mm - loc) < 1e-9
    edge = model_forward(m, 1.0, loc)
    phi = np.array([edge.phi1, edge.phi2]) - push + 2.0 * math.pi * np.array(turns)
    est = invert(m, *phi)
    assert not est.in_range
    assert est.residual_rad2 <= grid_residual(grid, phi) + 1e-12


@pytest.mark.xfail(strict=True, reason="the edge fallback searches the box's "
                   "boundary only; a fold inside the box can lie nearer")
def test_invert_finds_the_nearest_point_past_a_fold():
    # the quadratic model folds along 5.1 N, where phi1 + phi2 peaks.  Phases
    # pushed past that peak lie nearest the fold, inside the box (0.377 rad^2
    # at 5.1 N, 22.5 mm on the grid), but the fallback returns the best point
    # of the box's boundary (0.537 rad^2 at 5.1 N, 20 mm)
    m, grid = quadratic_oracle()
    fw = model_forward(m, 1.0, 20.0)
    phi = np.array([fw.phi1, fw.phi2]) + 1.0
    est = invert(m, *phi)
    assert not est.in_range
    assert est.residual_rad2 <= grid_residual(grid, phi) + 1e-12


def test_two_ended_principle_on_the_default_model(model):
    # the sensor's premise: the sum of the two port phases reads force and
    # their difference reads location.  On the default model the shorted
    # length b - a = 2 w(F) does not depend on location, so phi1 + phi2 =
    # 2 pi - 2 beta (L - 2 w(F)).  That is a property of the default
    # asymmetry_exponent 1, not an identity: at 2 the sum moves about 16 deg
    # along the line.
    forces, locs = np.linspace(1.0, 8.0, 29), np.linspace(20.0, 60.0, 41)
    phi = np.degrees([[(fw.phi1, fw.phi2) for fw in
                       (model_forward(model, F, loc) for loc in locs)]
                      for F in forces])
    total, diff = phi[..., 0] + phi[..., 1], phi[..., 0] - phi[..., 1]
    assert np.ptp(total, axis=1).max() <= 1e-9  # 5.7e-12 deg
    assert (np.diff(total[:, 0]) > 0.0).all()
    assert np.ptp(total) > 100.0  # 109.2 deg over the force range
    assert (np.diff(diff, axis=1) < 0.0).all()
    assert np.ptp(diff) < 720.0  # 587.8 deg: under two turns
    mech = MechanicalParams(asymmetry_exponent=2.0)
    skewed = fit_model(generate_sweep(LOCATIONS, FORCES, GEOM, mech, CARRIER))
    ends = [model_forward(skewed, 4.0, loc) for loc in (20.0, 40.0)]
    assert abs(np.degrees((ends[0].phi1 + ends[0].phi2)
                          - (ends[1].phi1 + ends[1].phi2))) > 1.0


def test_invert_ignores_whole_turn_phase_offsets(model):
    for press in ((3.5, 35.0), (1.2, 58.0), (7.6, 22.5)):
        pp = exact_phases(*press)
        base = invert(model, pp.phi1, pp.phi2)
        # a thousand whole turns are still far inside PHASE_LIMIT_RAD
        for k1, k2 in [*itertools.product(range(-3, 4), repeat=2), (1000, -1000)]:
            off = invert(model, pp.phi1 + 2.0 * math.pi * k1,
                         pp.phi2 + 2.0 * math.pi * k2)
            key = (press, k1, k2)
            assert abs(off.force_n - base.force_n) < 1e-9, key
            assert abs(off.location_mm - base.location_mm) < 1e-9, key
            assert off.reliable, key


@functools.cache
def other_model():
    """A model with another force range, location span and carrier."""
    return fit_model(generate_sweep((10.0, 35.0, 70.0), FORCES[2:], GEOM, MECH, 2.0e9))


def test_invert_cell_cache_is_per_model(model):
    # another force range, span and carrier: different cached cells
    other = other_model()
    for m, (F, loc) in ((model, (3.5, 35.0)), (other, (2.5, 12.0)),
                        (model, (6.2, 52.0)), (other, (7.5, 66.0))):
        fw = model_forward(m, F, loc)
        est = invert(m, fw.phi1, fw.phi2)
        # an equal model whose caches are still empty
        assert est == invert(replace(m), fw.phi1, fw.phi2)
        assert abs(est.force_n - F) < 0.05 and abs(est.location_mm - loc) < 0.05


@settings(max_examples=100, deadline=None)
@given(other=st.booleans(),
       presses=st.lists(st.tuples(st.floats(-0.1, 1.1), st.floats(0.0, 1.0),
                                  st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                                  st.integers(-1000, 1000), st.integers(-1000, 1000)),
                        max_size=10),
       uniform=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
                        max_size=6),
       data=st.data())
def test_invert_many_is_the_one_point_inversion_in_any_chunks(model, other, presses,
                                                               uniform, data):
    # noisy model images (forces a little past the box too) whole turns
    # away, and uniform phases: the batch gives each point invert's
    # estimate, field for field, however the batch is split
    m = other_model() if other else model
    (f_lo, f_hi), locs = m.force_range_n, m.locations()
    phi = uniform + [
        (fw.phi1 + n1 + 2.0 * math.pi * k1, fw.phi2 + n2 + 2.0 * math.pi * k2)
        for f, l, n1, n2, k1, k2 in presses
        for fw in [model_forward(m, f_lo + f * (f_hi - f_lo),
                                 locs[0] + l * (locs[-1] - locs[0]))]]
    phi = data.draw(st.permutations(phi))
    want = [invert(m, a, b) for a, b in phi]
    p1, p2 = [a for a, _ in phi], [b for _, b in phi]
    assert invert_many(m, p1, p2) == want
    cuts = sorted(data.draw(st.lists(st.integers(0, len(phi)), max_size=4)))
    assert [est for a, b in zip([0, *cuts], [*cuts, len(phi)])
            for est in invert_many(m, p1[a:b], p2[a:b])] == want


@settings(max_examples=60, deadline=None)
@given(other=st.booleans(), phi=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       widen=st.floats(0.0, math.pi))
def test_branch_pairs_are_every_whole_turn_within_the_bounds(model, other, phi, widen):
    # a cell's or knot's bounds widened by up to pi (the edge fallback's
    # most) hold no more branches on a port than the cached slots: the
    # pairs are the float loops' (p + 2 pi k1, q + 2 pi k2), in their order
    m = other_model() if other else model
    (_, cells, *_), (_, knots, *_), _, slots = m._cells
    tau, (p, q) = 2.0 * math.pi, phi

    def turns(lo, hi, x):
        return range(math.ceil((lo - x) / tau), math.floor((hi - x) / tau) + 1)
    for b in (cells + widen * _WIDEN, knots + widen * _WIDEN):
        (owner,), y = _pairs(b, np.array(phi), slots)
        want = [(s, p + tau * k1, q + tau * k2)
                for s, ((l1, l2), (h1, h2)) in enumerate(b.tolist())
                for k1 in turns(l1, h1, p) for k2 in turns(l2, h2, q)]
        assert [(s, *ys) for s, ys in zip(owner.tolist(), y.tolist())] == want


def test_invert_many_checks_its_batch(model):
    assert invert_many(model, [], []) == []
    with pytest.raises(ValueError, match="one length"):
        invert_many(model, [0.1, 0.2, 0.3], [0.1, 0.2])
    with pytest.raises(ValueError, match="1-D"):
        invert_many(model, np.full((3, 1), 0.5), np.full((3, 1), 0.5))
    for bad in (math.nan, 2e6):
        good, worse = [0.5] * 6, [0.5, 0.4, 0.3, bad, 0.2, math.nan]
        for p1, p2 in ((good, worse), (worse, good)):
            with pytest.raises(ValueError, match="finite.* at index 3$"):
                invert_many(model, p1, p2)


def test_invert_reliable_flag_follows_threshold(model, monkeypatch):
    pp = exact_phases(5.0, 45.0)
    est = invert(model, pp.phi1, pp.phi2)
    assert est.reliable == (est.residual_rad2 <= RESIDUAL_THRESHOLD_RAD2)
    monkeypatch.setattr(calib, "RESIDUAL_THRESHOLD_RAD2", 0.0)
    assert not invert(model, pp.phi1, pp.phi2).reliable
    monkeypatch.setattr(calib, "RESIDUAL_THRESHOLD_RAD2", 1e6)
    assert invert(model, pp.phi1, pp.phi2).reliable


def test_invert_pins_overrange_force_to_edge(model):
    # a press harder than anything calibrated lands on the force edge and
    # comes back flagged as out of range
    pp = exact_phases(9.0, 40.0)
    est = invert(model, pp.phi1, pp.phi2)
    assert not est.in_range
    assert est.force_n > 7.9


@pytest.mark.parametrize("case", ["degenerate-cell", "open-line"])
def test_invert_without_an_exact_root_is_out_of_range(model, case):
    # two equal adjacent fits make D = 0 on their cell, so the model does not
    # depend on location there; an open line's phases lie outside the image
    if case == "degenerate-cell":
        fit = model.fits[2]
        m = replace(model, fits=(fit, replace(fit, location_mm=50.0)))
        fw = model_forward(m, 4.0, 45.0)
        phi = (fw.phi1, fw.phi2)
    else:
        m = model
        pp = port_phases(ShortingState.open(), GEOM, CARRIER)
        phi = (pp.phi1, pp.phi2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        est = invert(m, *phi)
    assert not est.in_range
    assert all(map(math.isfinite, (est.force_n, est.location_mm,
                                   est.residual_rad2)))
    if case == "degenerate-cell":
        assert abs(est.force_n - 4.0) < 1e-9 and est.residual_rad2 < 1e-20
    else:
        assert not est.reliable


# past 1e6 rad (PHASE_LIMIT_RAD) a float resolves the wrapped phase worse than
# 1e-10 rad; at 1e17 it holds no digit of it
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2e6, 1e17, -1e17])
def test_invert_rejects_non_finite_phases(model, bad):
    with pytest.raises(ValueError, match="finite"):
        invert(model, 0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        invert(model, bad, -bad)


def test_fit_rejects_rank_deficient_location():
    samples = (make_samples([20.0], [1.0, 2.0, 3.0, 4.0])
               + make_samples([40.0], [2.0]) * 4)
    with pytest.raises(ValueError):
        CalibrationDataset(samples=samples, carrier_hz=CARRIER)


@pytest.mark.parametrize("locations", [[40.0], [40.0, 40.0], [60.0, 20.0]],
                         ids=["one", "duplicate", "reversed"])
def test_model_requires_strictly_increasing_locations(model, locations):
    # interpolation and inversion bracket a location between its neighbours
    fits = tuple(replace(model.fits[0], location_mm=loc) for loc in locations)
    with pytest.raises(ValueError, match="locations"):
        replace(model, fits=fits)


@pytest.mark.parametrize("force_range", [(8.0, 1.0), (4.0, 4.0)],
                         ids=["reversed", "empty"])
def test_model_requires_an_increasing_force_range(model, force_range):
    # a reversed range would pin every inverted force to one of its edges
    with pytest.raises(ValueError, match="force_range_n"):
        replace(model, force_range_n=force_range)


def test_model_requires_finite_coefficients(model):
    # the file reader refuses a NaN before this check; a model built in
    # code still meets it
    fits = (replace(model.fits[0], c_port1=(0.0, 0.0, 0.0, math.nan)),) + model.fits[1:]
    with pytest.raises(ValueError, match="must be finite"):
        replace(model, fits=fits)
