"""Calibration fitting and phase-to-press inversion."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelink.calib import (REFINE_TOL, RESIDUAL_THRESHOLD_RAD2,
                             CalibrationDataset, Sample, fit_model,
                             generate_sweep, invert, model_forward)
from forcelink.transducer import (MechanicalParams, SensorGeometry,
                                  TouchEvent, port_phases, shorting_segment)

GEOM = SensorGeometry()
MECH = MechanicalParams()
CARRIER = 2.4e9
LOCATIONS = (20.0, 30.0, 40.0, 50.0, 60.0)
FORCES = tuple(1.0 + 0.5 * i for i in range(15))  # 1.0 .. 8.0 N


def exact_phases(force_n, location_mm):
    state = shorting_segment(TouchEvent(force_n, location_mm), MECH, GEOM)
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
    fw = model_forward(model, F, loc)
    est = invert(model, fw.phi1, fw.phi2)
    assert abs(est.force_n - F) < 0.05
    assert abs(est.location_mm - loc) < 0.05
    assert est.reliable


def test_invert_ignores_whole_turn_phase_offsets(model):
    for press in ((3.5, 35.0), (1.2, 58.0), (7.6, 22.5)):
        pp = exact_phases(*press)
        base = invert(model, pp.phi1, pp.phi2)
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                off = invert(model, pp.phi1 + 2.0 * math.pi * k1,
                             pp.phi2 + 2.0 * math.pi * k2)
                key = (press, k1, k2)
                assert abs(off.force_n - base.force_n) < REFINE_TOL, key
                assert abs(off.location_mm - base.location_mm) < REFINE_TOL, key
                assert off.reliable, key


def test_invert_grid_cache_is_per_model(model):
    # another force range, span and carrier: a different search grid
    other = fit_model(generate_sweep((10.0, 35.0, 70.0), FORCES[2:], GEOM,
                                     MECH, 2.0e9))
    for m, (F, loc) in ((model, (3.5, 35.0)), (other, (2.5, 12.0)),
                        (model, (6.2, 52.0)), (other, (7.5, 66.0))):
        fw = model_forward(m, F, loc)
        est = invert(m, fw.phi1, fw.phi2)
        # an equal model whose caches are still empty
        assert est == invert(replace(m), fw.phi1, fw.phi2)
        assert abs(est.force_n - F) < 0.05 and abs(est.location_mm - loc) < 0.05


def test_invert_reliable_flag_follows_threshold(model):
    pp = exact_phases(5.0, 45.0)
    est = invert(model, pp.phi1, pp.phi2)
    assert est.reliable == (est.residual_rad2 <= RESIDUAL_THRESHOLD_RAD2)
    strict = invert(model, pp.phi1, pp.phi2, residual_threshold_rad2=0.0)
    assert not strict.reliable
    loose = invert(model, pp.phi1, pp.phi2, residual_threshold_rad2=1e6)
    assert loose.reliable


def test_invert_pins_overrange_force_to_edge(model):
    # a press harder than anything calibrated lands on the force edge and
    # comes back flagged as out of range
    pp = exact_phases(9.0, 40.0)
    est = invert(model, pp.phi1, pp.phi2)
    assert not est.in_range
    assert est.force_n > 7.9


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
