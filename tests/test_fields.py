"""Vortex beam envelope, intensity ratio and detuning profiles."""

import math

import numpy as np
import pytest

from vortexloc import make_config
from vortexloc.config import TWO_PI, with_winding
from vortexloc.fields import (
    _bisect,
    control_envelope,
    detuning_profile,
    envelope_peak_radius,
    eta_of_radius,
    radius_at_eta,
)

CFG = make_config()
BEAM = CFG.beam


def test_vortex_core_is_dark():
    assert control_envelope(0.0, BEAM) == 0.0
    assert isinstance(control_envelope(0.5, BEAM), float)


def test_envelope_maximum_location_and_value():
    # independent dense grid search for the modulus maximum
    r = np.linspace(0.0, 4.0, 400001)
    vals = control_envelope(r, BEAM)
    i = int(np.argmax(vals))
    assert r[i] == pytest.approx(BEAM.waist_w0 / math.sqrt(2.0), abs=2e-5)
    assert vals[i] == pytest.approx(0.42888 * BEAM.omega_c0, rel=1e-4)
    assert envelope_peak_radius(BEAM) == pytest.approx(r[i], abs=2e-5)
    assert control_envelope(envelope_peak_radius(BEAM), BEAM) == pytest.approx(vals[i], rel=1e-9)


def test_higher_winding_darkens_the_core_faster():
    beam2 = with_winding(CFG, -2).beam
    assert control_envelope(BEAM.waist_w0, beam2) == pytest.approx(
        math.exp(-1.0) * BEAM.omega_c0
    )
    # quadratic vs linear core scaling
    assert control_envelope(1e-3, beam2) < control_envelope(1e-3, BEAM) * 1e-2


@pytest.mark.parametrize("winding", [1, 2, 3])
def test_the_envelope_keeps_every_finite_value_and_is_zero_far_outside_the_beam(winding):
    beam = with_winding(CFG, winding).beam
    u = np.concatenate(([0.0], np.geomspace(1e-3, 1e300, 2001), np.linspace(26.0, 29.0, 301)))
    r = u * beam.waist_w0

    def before(r):  # the expression before the clip, which overflowed far out
        u = np.asarray(r, dtype=float) / beam.waist_w0
        with np.errstate(all="ignore"):
            return beam.omega_c0 * u ** abs(beam.winding_l) * np.exp(-u * u)

    # an array and each of its elements alone, which can take other numpy paths
    for got, want in (
        (control_envelope(r, beam), before(r)),
        (np.array([control_envelope(x, beam) for x in r.tolist()]), np.array([before(x) for x in r.tolist()])),
    ):
        finite = np.isfinite(want)
        assert np.array_equal(got[finite], want[finite])
        assert np.all(got[~finite] == 0.0)
        assert finite.all() == (winding == 1)  # at |l| >= 2 the range reaches where it gave NaN


def test_eta_vanishes_at_the_core_and_matches_the_amplitude_ratio():
    cfg = make_config(kappa=10.0)
    assert eta_of_radius(0.0, cfg) == 0.0
    rng = np.random.default_rng(7)
    for r in rng.uniform(0.01, 3.0, 20):
        direct = control_envelope(float(r), cfg.beam) ** 2 / cfg.probe.omega_p0**2
        assert eta_of_radius(float(r), cfg) == pytest.approx(direct, rel=1e-12)


def test_eta_reaches_unity_near_a_tenth_of_the_waist_at_kappa_10():
    cfg = make_config(kappa=10.0)
    root = radius_at_eta(1.0, cfg)
    assert eta_of_radius(root, cfg) == pytest.approx(1.0, rel=1e-9)
    assert root == pytest.approx(0.101 * cfg.beam.waist_w0, rel=1e-2)


@pytest.mark.parametrize("winding", [1, 2])
def test_radius_at_eta_inverts_eta_inside_the_envelope_peak(winding):
    cfg = with_winding(make_config(kappa=10.0), winding)
    r_peak = cfg.beam.waist_w0 * math.sqrt(winding / 2.0)
    eta_max = eta_of_radius(r_peak, cfg)
    for q in (1e-2, 2.0 / 3.0, 1.0, 0.5 * eta_max, 0.999 * eta_max):
        r = radius_at_eta(q, cfg)
        assert 0.0 < r < r_peak
        assert eta_of_radius(r, cfg) == pytest.approx(q, rel=1e-9)


def test_eta_is_the_squared_control_envelope_over_the_probe_intensity():
    cfg = make_config(kappa=177.1)
    r = np.linspace(0.0, 3.0, 301)
    env = control_envelope(r, cfg.beam)
    assert np.array_equal(eta_of_radius(r, cfg), env * env / cfg.probe.intensity)
    for radius in r[::10].tolist():
        env = control_envelope(radius, cfg.beam)
        eta = eta_of_radius(radius, cfg)
        assert type(eta) is float
        assert eta == env * env / cfg.probe.intensity
    for q in (1e-3, 1.0, 0.99 * eta_of_radius(envelope_peak_radius(cfg.beam), cfg)):
        env = control_envelope(radius_at_eta(q, cfg), cfg.beam)
        assert env * env / cfg.probe.intensity == pytest.approx(q, rel=1e-9)


@pytest.mark.parametrize("xtol", [1e-3, 1e-12, 0.0])
def test_bisect_on_array_brackets_equals_the_scalar_call_per_element(xtol):
    rng = np.random.default_rng(17)
    roots = rng.uniform(-2.0, 2.0, 40)
    lo = roots - rng.uniform(0.0, 1.0, roots.size)
    hi = roots + rng.uniform(0.0, 1.0, roots.size)
    predicates = (
        lambda c: lambda x: (x - c) ** 3 + 0.5 * (x - c),  # rising
        lambda c: lambda x: c - x,  # falling
        lambda c: lambda x: x >= c,  # boolean, as the blockade march's
    )
    for predicate in predicates:
        together = _bisect(predicate(roots), lo, hi, xtol)
        assert isinstance(together, np.ndarray) and together.shape == roots.shape
        for k in range(roots.size):
            alone = _bisect(predicate(roots[k]), float(lo[k]), float(hi[k]), xtol)
            assert type(alone) is float
            assert alone == together[k]
            assert abs(alone - roots[k]) <= max(xtol, 1e-15)


def test_radius_at_eta_rejects_ratios_it_cannot_reach():
    cfg = make_config(kappa=10.0)  # eta peaks at 100/(2e) = 18.4
    for q in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="intensity ratio must be positive"):
            radius_at_eta(q, cfg)
    with pytest.raises(ValueError, match="requested intensity ratio exceeds the envelope maximum"):
        radius_at_eta(19.0, cfg)


def test_standing_wave_detuning_at_the_special_phases():
    mod = CFG.detuning
    lam = mod.period
    assert detuning_profile(0.75 * lam, mod) == pytest.approx(
        mod.delta_shift - mod.delta_c0, abs=1e-10
    )
    assert detuning_profile(0.25 * lam, mod) == pytest.approx(
        mod.delta_shift + mod.delta_c0, abs=1e-10
    )


def test_detuning_profile_is_periodic():
    mod = CFG.detuning
    rng = np.random.default_rng(11)
    z = rng.uniform(-3.0, 3.0, 20)
    a = np.asarray(detuning_profile(z, mod), dtype=float)
    b = np.asarray(detuning_profile(z + mod.period, mod), dtype=float)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-9)


def test_constant_mode_ignores_z():
    mod = make_config(detuning_mode="constant", delta_c_const_mhz=5.0).detuning
    assert detuning_profile(0.1, mod) == pytest.approx(TWO_PI * 5.0)
    assert detuning_profile(7.9, mod) == detuning_profile(0.1, mod)


def test_envelope_accepts_per_point_amplitudes():
    r = np.linspace(0.0, 2.0, 9)
    amps = np.full(r.size, BEAM.omega_c0)
    # equal inputs must give bit-equal outputs: the zero-noise reduction seam
    assert np.array_equal(control_envelope(r, BEAM, amplitude=amps), control_envelope(r, BEAM))
    doubled = control_envelope(r, BEAM, amplitude=2.0 * amps)
    assert np.allclose(doubled, 2.0 * control_envelope(r, BEAM), rtol=1e-15)

