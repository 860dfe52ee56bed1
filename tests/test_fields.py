"""Vortex beam envelope, intensity ratio and detuning profiles."""

import math

import numpy as np
import pytest

from vortexloc import make_config
from vortexloc.config import TWO_PI, Position, with_winding
from vortexloc.fields import (
    control_envelope,
    detuning_profile,
    envelope_maximum,
    eta_of_radius,
    lg_amplitude,
    radius_at_eta,
    taylor_eta,
)

CFG = make_config()
BEAM = CFG.beam


def test_vortex_core_is_dark():
    assert lg_amplitude(Position(0.0, 0.3, 0.0), BEAM) == 0.0


def test_envelope_maximum_location_and_value():
    # independent dense grid search for the modulus maximum
    r = np.linspace(0.0, 4.0, 400001)
    vals = control_envelope(r, BEAM)
    i = int(np.argmax(vals))
    assert r[i] == pytest.approx(BEAM.waist_w0 / math.sqrt(2.0), abs=2e-5)
    assert vals[i] == pytest.approx(0.42888 * BEAM.omega_c0, rel=1e-4)
    assert envelope_maximum(BEAM) == pytest.approx(vals[i], rel=1e-9)


def test_phase_factor_carries_the_winding():
    amp = lg_amplitude(Position(BEAM.waist_w0, math.pi / 2.0, 0.0), BEAM)
    assert amp == pytest.approx(1j * math.exp(-1.0) * BEAM.omega_c0)


def test_modulus_is_azimuthally_symmetric():
    reference = abs(lg_amplitude(Position(0.7, 0.0, 0.0), BEAM))
    for phi in (0.5, 1.0, 2.0, 4.0, 6.0):
        assert abs(lg_amplitude(Position(0.7, phi, 0.0), BEAM)) == pytest.approx(
            reference, rel=1e-12
        )


def test_higher_winding_darkens_the_core_faster():
    beam2 = with_winding(CFG, -2).beam
    assert abs(lg_amplitude(Position(BEAM.waist_w0, 0.0, 0.0), beam2)) == pytest.approx(
        math.exp(-1.0) * BEAM.omega_c0
    )
    # quadratic vs linear core scaling
    assert control_envelope(1e-3, beam2) < control_envelope(1e-3, BEAM) * 1e-2


def test_eta_vanishes_at_the_core_and_matches_the_amplitude_ratio():
    cfg = make_config(kappa=10.0)
    assert eta_of_radius(0.0, cfg) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        pos = Position(
            float(rng.uniform(0.01, 3.0)),
            float(rng.uniform(0.0, TWO_PI)),
            float(rng.uniform(-1.0, 1.0)),
        )
        direct = abs(lg_amplitude(pos, cfg.beam)) ** 2 / cfg.probe.omega_p0**2
        assert eta_of_radius(pos.r, cfg) == pytest.approx(direct, rel=1e-12)


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


def test_radius_at_eta_rejects_ratios_it_cannot_reach():
    cfg = make_config(kappa=10.0)  # eta peaks at 100/(2e) = 18.4
    for q in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="intensity ratio must be positive"):
            radius_at_eta(q, cfg)
    with pytest.raises(ValueError, match="requested intensity ratio exceeds the envelope maximum"):
        radius_at_eta(19.0, cfg)


def test_taylor_expansion_is_a_core_approximation_only():
    cfg = make_config(kappa=500.0)
    assert taylor_eta(0.0, cfg) == 0.0
    r_near = 0.01 * cfg.beam.waist_w0
    exact = eta_of_radius(r_near, cfg)
    assert abs(taylor_eta(r_near, cfg) - exact) / exact < 1e-3
    r_far = 0.5 * cfg.beam.waist_w0
    exact_far = eta_of_radius(r_far, cfg)
    assert abs(taylor_eta(r_far, cfg) - exact_far) / exact_far > 0.10


def test_taylor_expansion_rejects_higher_windings():
    assert taylor_eta(0.1, with_winding(CFG, -1)) == taylor_eta(0.1, CFG)
    with pytest.raises(ValueError, match="winding number"):
        taylor_eta(0.1, with_winding(CFG, 2))


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


def test_control_envelope_matches_the_complex_modulus():
    r = np.linspace(0.0, 3.0, 50)
    env = control_envelope(r, BEAM)
    direct = np.array([abs(lg_amplitude(Position(float(v), 1.3, 0.2), BEAM)) for v in r])
    assert np.allclose(env, direct, rtol=1e-13, atol=0.0)
    assert isinstance(control_envelope(0.5, BEAM), float)


def test_envelope_accepts_per_point_amplitudes():
    r = np.linspace(0.0, 2.0, 9)
    amps = np.full(r.size, BEAM.omega_c0)
    # equal inputs must give bit-equal outputs: the zero-noise reduction seam
    assert np.array_equal(control_envelope(r, BEAM, amplitude=amps), control_envelope(r, BEAM))
    doubled = control_envelope(r, BEAM, amplitude=2.0 * amps)
    assert np.allclose(doubled, 2.0 * control_envelope(r, BEAM), rtol=1e-15)

