"""Equations of motion and analytic steady states.

The oracle is an independent three-level master equation written directly
against a 3x3 density matrix (tests/oracles.py): RHS agreement is checked
component by component, and the analytic steady-state formula is checked
against the null space of the independently built generator.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    GROUND,
    drive_at_intensity_ratio,
    fastest,
    master_rhs,
    random_drive,
    rho_from_vector,
    rk4_oracle,
    rk4_run,
    settle_plan,
    steady_oracle,
)
from vortexloc import bloch, make_config
from vortexloc.bloch import (
    LocalDrive,
    bloch_rhs,
    linewidth_from,
    sigma_rr_steady,
    steady_population,
    steady_sigma_rr,
    steady_time,
)
from vortexloc.config import TWO_PI, Position
from vortexloc.fields import control_envelope, detuning_profile
from vortexloc.meanfield import local_linewidth


def _random_state(rng):
    pops = rng.uniform(0.0, 1.0, 3)
    return np.concatenate([pops / pops.sum(), rng.uniform(-0.3, 0.3, 6)])


def test_local_drive_from_config_reads_the_local_fields():
    cfg = make_config()
    pos = Position(r=0.8, z=0.1)
    drive = LocalDrive.from_config(cfg, pos, s_shift=0.25)
    assert drive.omega_p == cfg.probe.omega_p0
    assert drive.omega_c == control_envelope(pos.r, cfg.beam)
    assert type(drive.omega_c) is float
    assert drive.delta_c == detuning_profile(pos.z, cfg.detuning)
    assert (drive.delta_p, drive.s_shift) == (cfg.probe.delta_p, 0.25)
    m = cfg.medium
    assert (drive.gamma, drive.gamma_e, drive.gamma_r) == (m.gamma, m.gamma_e, m.gamma_r)


def test_local_drive_rejects_a_complex_control_amplitude():
    # the control amplitude is real; a complex one would silently give a wrong bloch_rhs
    for bad in (10.0 + 0j, 10.0j, "10"):
        with pytest.raises(ValueError, match="omega_c"):
            LocalDrive(10.0, bad, 0.0, 0.0, 0.0, 38.0)
    # a numpy real is accepted; on resonance with I_p = I_c the population is I_p / (I_p + I_c)
    assert steady_sigma_rr(LocalDrive(10.0, np.float64(10.0), 0.0, 0.0, 0.0, 38.0)) == 0.5


def test_the_dephasing_rate_is_derived_from_the_decay_rates():
    # gamma is not a field, so no drive can contradict (gamma_e + gamma_r)/2
    with pytest.raises(TypeError, match="gamma"):
        LocalDrive(10.0, 10.0, 0.0, 0.0, 0.0, gamma=19.0, gamma_e=38.0)
    assert LocalDrive(10.0, 10.0, 0.0, 0.0, 0.0, 38.0, 2.0).gamma == 20.0
    cfg = make_config(gamma_r_mhz=0.4)
    drive = LocalDrive.from_config(cfg, Position(r=0.5, z=0.2))
    assert drive.gamma == cfg.medium.gamma
    assert drive.gamma_r == cfg.medium.gamma_r > 0.0


def test_rhs_matches_the_independent_master_equation():
    rng = np.random.default_rng(101)
    for k in range(50):
        drive = random_drive(rng, with_decay_chain=(k % 3 == 0))
        states = np.column_stack([_random_state(rng) for _ in range(6)])
        got = bloch_rhs(states, drive)
        assert got.shape == (9, 6)
        # linear with no constant term: the generator times the states
        generated = bloch_rhs(np.eye(9), drive) @ states
        for col in range(6):
            want = master_rhs(rho_from_vector(states[:, col]), drive)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(rho_from_vector(got[:, col]) - want)) <= 1e-12 * scale
            assert np.max(np.abs(generated[:, col] - got[:, col])) <= 1e-12 * scale


def test_ground_state_without_probe_is_stationary():
    drive = LocalDrive(0.0, 10.0, 1.0, 2.0, 0.0, 38.0)
    assert np.all(bloch_rhs(GROUND, drive) == 0.0)


def test_derivative_conserves_the_trace():
    rng = np.random.default_rng(55)
    for _ in range(100):
        drive = random_drive(rng)
        d = bloch_rhs(_random_state(rng), drive)
        assert abs(d[0] + d[1] + d[2]) < 1e-12


def test_uncoupled_rydberg_level_stays_empty():
    drive = LocalDrive(8.0, 0.0, 0.0, 0.0, 0.0, 38.0)
    states = rk4_run(GROUND, drive, n_steps=2000, dt=1e-3)
    assert np.all(states[:, 2] == 0.0)
    assert np.all(states[:, 7:9] == 0.0)
    assert states[-1, 1] > 0.01  # damped two-level drive populates |e>
    assert abs(states[-1, 0] + states[-1, 1] - 1.0) < 1e-9


def test_steady_formula_matches_the_master_equation_null_space():
    rng = np.random.default_rng(202)
    for _ in range(20):
        drive = random_drive(rng)
        assert steady_sigma_rr(drive) == pytest.approx(steady_oracle(drive), abs=1e-10)


def test_long_time_evolution_reaches_the_analytic_steady_state():
    rng = np.random.default_rng(303)
    for _ in range(8):
        drive = random_drive(rng)
        states = rk4_run(GROUND, drive, *settle_plan(drive))
        assert states[-1, 2] == pytest.approx(steady_sigma_rr(drive), abs=1e-6)
        assert np.max(np.abs(states[:, :3].sum(axis=1) - 1.0)) < 1e-9


def test_halving_the_step_barely_moves_the_endpoint():
    drive = LocalDrive(12.0, 9.0, 5.0, -8.0, 2.0, 38.0)
    coarse = rk4_run(GROUND, drive, n_steps=2000, dt=1e-3)
    fine = rk4_run(GROUND, drive, n_steps=4000, dt=5e-4)
    assert abs(coarse[-1, 2] - fine[-1, 2]) < 1e-8


def test_step_size_guard_rejects_underresolved_integration():
    drive = LocalDrive(10.0, 10.0, 0.0, 0.0, 0.0, 38.0)
    with pytest.raises(ValueError, match="dt"):
        steady_time(drive, dt=0.01)


def test_steady_sigma_special_points():
    # no control field, fully resonant: saturation at 1
    assert sigma_rr_steady(4.0, 0.0, 0.0, 0.0, 19.0) == 1.0
    # compensated two-photon detuning at equal intensities: 1/2
    assert sigma_rr_steady(4.0, 4.0, 0.0, 0.0, 19.0) == 0.5
    with pytest.raises(ValueError, match="degenerate"):
        steady_sigma_rr(LocalDrive(0.0, 0.0, 0.0, 0.0, 0.0, 38.0))


def _full_denominator_sigma(ip, ic, delta_p, two_photon, gamma):
    """I_p (I_p + I_c) / D with the full steady-state denominator D."""
    total = ip + ic
    denom = total * total - 2.0 * delta_p * two_photon * ic + (
        gamma * gamma + delta_p * delta_p + 2.0 * ip
    ) * two_photon * two_photon
    return ip * total / denom


def test_steady_sigma_matches_the_full_denominator_formula():
    rng = np.random.default_rng(23)
    n = 20000
    # the drives of this package: probe and control intensities up to
    # (2 pi 80 MHz)^2, |Delta_p| up to 2 pi 5 MHz, two-photon detunings up to
    # 2 pi 60 MHz, gamma from 2 pi 1.5 to 2 pi 6 MHz
    ip = 10.0 ** rng.uniform(-2.0, 5.4, n)
    ic = ip * 10.0 ** rng.uniform(-6.0, 4.0, n)
    ic[::7] = 0.0
    delta_p = rng.uniform(-31.5, 31.5, n)
    delta_p[::5] = 0.0
    two_photon = rng.uniform(-380.0, 380.0, n)
    gamma = rng.uniform(9.5, 38.0, n)
    got = sigma_rr_steady(ip, ic, delta_p, two_photon, gamma)
    want = _full_denominator_sigma(ip, ic, delta_p, two_photon, gamma)
    assert np.all(np.isfinite(want))
    assert np.max(np.abs(got - want) / want) <= 1e-13
    # scalars stay plain floats
    assert type(sigma_rr_steady(4.0, 1.0, 0.5, 2.0, 19.0)) is float


def test_steady_sigma_stays_finite_where_the_full_denominator_overflows():
    ip = (TWO_PI * 1e153) ** 2  # (I_p + I_c)^2 overflows; 2 I_p does not
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(_full_denominator_sigma(np.float64(ip), 1.0, 0.0, 0.0, 19.0))
    assert sigma_rr_steady(ip, 1.0, 0.0, 0.0, 19.0) == pytest.approx(1.0, rel=1e-15)
    assert 0.0 < sigma_rr_steady(ip, 0.0, 0.0, 1e150, 19.0) < 1.0


def antiblockade_sigma(eta: float) -> float:
    """Steady population 1/(1+eta) under an exactly compensated two-photon detuning."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return 1.0 / (1.0 + eta)


def approx_sigma(delta_c: float, s: float, w: float) -> float:
    """Lorentzian approximation 1/(1 + (Delta_c - s)^2 / w^2), valid for I_c << I_p."""
    if w <= 0:
        raise ValueError("linewidth w must be positive")
    x = (delta_c - s) / w
    return 1.0 / (1.0 + x * x)


def test_steady_formula_reduces_to_the_lorentzian_in_the_weak_control_limit():
    # at the half-width detuning the weak-control profile sits at 1/2
    ip, gamma = 25.0, 19.0
    ic = 1e-4 * ip
    w = linewidth_from(ip, ic, 0.0, gamma)
    val = sigma_rr_steady(ip, ic, 0.0, w, gamma)
    assert val == pytest.approx(0.5, rel=0.02)
    assert approx_sigma(w, 0.0, w) == 0.5


def test_antiblockade_sigma_reduction():
    assert antiblockade_sigma(0.0) == 1.0
    assert antiblockade_sigma(1.0) == 0.5
    rng = np.random.default_rng(17)
    ip = 9.0
    for eta in rng.uniform(0.0, 50.0, 50):
        # compensated detuning: the full formula must collapse to 1/(1+eta)
        full = sigma_rr_steady(ip, eta * ip, 0.0, 0.0, 21.0)
        assert abs(full - antiblockade_sigma(float(eta))) < 1e-12
    with pytest.raises(ValueError, match="eta"):
        antiblockade_sigma(-0.1)


def test_perfect_antiblockade_saturates_at_the_dark_core():
    # sigma -> 1 as the control intensity vanishes toward the vortex core
    ip = 1.0106  # probe intensity at kappa=500
    last = 0.0
    for eta in (1e-1, 1e-2, 1e-3):
        val = sigma_rr_steady(ip, eta * ip, 0.0, 0.0, 19.0)
        assert val > last
        last = val
    assert last >= 1.0 - 1e-3


def test_lorentzian_approximation_arithmetic():
    assert approx_sigma(5.0, 5.0, 2.0) == 1.0
    assert approx_sigma(11.0, 5.0, 2.0) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="linewidth"):
        approx_sigma(1.0, 0.0, 0.0)


def test_linewidth_at_the_reference_point():
    cfg = make_config(kappa=100.0)
    ip = cfg.probe.omega_p0 * cfg.probe.omega_p0
    w = linewidth_from(ip, 0.0, 0.0, cfg.medium.gamma)
    assert w / TWO_PI == pytest.approx(0.198, rel=1e-2)
    assert local_linewidth(cfg, 0.0) == w


# the first three are kappas where libm's pow(x, 2) and x * x round apart on
# glibc x86-64, so a square written two ways would tell the paths apart
@pytest.mark.parametrize("kappa", [177.1, 186.39, 209.71, 100.0, 180.0, 500.0])
def test_the_drive_path_and_the_config_path_agree_bit_for_bit(kappa):
    # `steady` goes through a LocalDrive, the scans through the config; both
    # square the probe amplitude the same way
    cfg = make_config(kappa=kappa)
    for r in np.linspace(0.0, 1.5, 40):
        for z in (0.0, 0.36, 0.41):
            drive = LocalDrive.from_config(cfg, Position(r=float(r), z=z))
            ic = drive.omega_c * drive.omega_c
            two_photon = drive.delta_p + drive.delta_c - drive.s_shift
            assert steady_sigma_rr(drive) == steady_population(cfg, ic, two_photon)
            ip = drive.omega_p * drive.omega_p
            assert local_linewidth(cfg, float(r)) == linewidth_from(ip, ic, drive.delta_p, drive.gamma)


def test_linewidth_limits():
    # vanishing probe: w -> I_c / gamma
    assert linewidth_from(1e-12, 7.0, 0.0, 19.0) == pytest.approx(7.0 / 19.0, rel=1e-6)
    # gamma-dominated regime: doubling both intensities doubles w
    w1 = linewidth_from(0.5, 1.0, 0.0, 19.0)
    w2 = linewidth_from(1.0, 2.0, 0.0, 19.0)
    assert w2 == pytest.approx(2.0 * w1, rel=2e-3)
    with pytest.raises(ValueError, match="positive"):
        linewidth_from(0.0, 1.0, 0.0, 0.0)


def test_steady_time_at_the_reference_working_points():
    t180 = steady_time(drive_at_intensity_ratio(180.0), rel_tol=0.01, t_budget=30.0)
    assert t180 == pytest.approx(11.114, abs=0.05)
    t10 = steady_time(drive_at_intensity_ratio(10.0), rel_tol=0.01, t_budget=5.0)
    assert t10 == pytest.approx(0.518, abs=0.05)
    assert t10 < t180


def test_steady_time_input_validation():
    drive = drive_at_intensity_ratio(10.0)
    with pytest.raises(ValueError, match="rel_tol"):
        steady_time(drive, rel_tol=0.5)
    with pytest.raises(ValueError, match="t_budget"):
        steady_time(drive, t_budget=-1.0)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"dt must be finite, got {dt}"):
            steady_time(drive, dt=dt)
    with pytest.raises(RuntimeError, match="no steady entry"):
        steady_time(drive_at_intensity_ratio(180.0), rel_tol=0.01, t_budget=0.5)


def test_steady_time_refuses_more_steps_than_its_cap_before_integrating(monkeypatch):
    # with the cap lowered to 1000 steps, 1000 steps run and reach the band,
    # and one step more is refused before the integrator is called
    drive = drive_at_intensity_ratio(10.0)
    dt = 0.04 / bloch._fastest_scale(drive)
    monkeypatch.setattr(bloch, "_MAX_STEPS", 1000)
    assert steady_time(drive, t_budget=1000 * dt, dt=dt) < 1000 * dt
    monkeypatch.setattr(bloch, "_rk4_samples", None)
    with pytest.raises(ValueError, match=r"t_budget / dt asks for 1e\+03 steps; at most 1e\+03 are integrated"):
        steady_time(drive, t_budget=1000.5 * dt, dt=dt)


def _stepwise_steady_time(drive, rel_tol, t_budget):
    """Oracle: steady_time's band-exit rule over the per-step RK4 loop."""
    dt = 0.04 / bloch._fastest_scale(drive)
    n_steps = int(math.ceil(t_budget / dt - 1e-12))
    states = rk4_oracle(bloch_rhs(np.eye(9), drive).__matmul__, GROUND, n_steps, dt)
    target = steady_sigma_rr(drive)
    outside = np.flatnonzero(np.abs(states[:, 2] - target) > rel_tol * target)
    assert outside[-1] < n_steps
    return (int(outside[-1]) + 1) * dt


def _random_pure_state(rng):
    """A physical starting point: the projector onto a random normalised ket."""
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    ge, er, gr = rho[0, 1], rho[1, 2], rho[0, 2]
    return np.array([*np.diag(rho).real, ge.real, ge.imag, er.real, er.imag, gr.real, gr.imag])


def test_the_equations_of_motion_have_no_constant_term():
    rng = np.random.default_rng(404)
    for k in range(30):
        drive = random_drive(rng, with_decay_chain=(k % 2 == 0))
        assert np.all(bloch_rhs(np.zeros(9), drive) == 0.0)
        assert np.all(bloch_rhs(np.zeros((9, 2, 3)), drive) == 0.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 5000))
@example(seed=7, n_steps=2 * bloch._SAMPLE_BLOCK + 17)  # three sample blocks
def test_rk4_samples_match_the_four_stage_oracle(seed, n_steps):
    rng = np.random.default_rng(seed)
    drive = random_drive(rng, with_decay_chain=bool(seed % 2))
    initial = _random_pure_state(rng)
    dt = 0.04 / fastest(drive)
    blocks = list(bloch._rk4_samples(initial, drive, n_steps, dt))
    np.testing.assert_array_equal(np.concatenate([steps for steps, _ in blocks]), np.arange(n_steps + 1))
    want = rk4_oracle(lambda x: bloch_rhs(x, drive), initial, n_steps, dt)
    assert np.max(np.abs(np.concatenate([states for _, states in blocks]) - want)) <= 1e-10


@pytest.mark.parametrize("kappa, t_budget", [(10.0, 5.0), (180.0, 30.0), (500.0, 100.0)])
def test_steady_time_equals_the_stepwise_oracle(kappa, t_budget):
    drive = drive_at_intensity_ratio(kappa)
    want = _stepwise_steady_time(drive, 0.01, t_budget)
    assert steady_time(drive, rel_tol=0.01, t_budget=t_budget) == want


def test_infinite_horizons_are_rejected():
    drive = drive_at_intensity_ratio(10.0)
    with pytest.raises(ValueError, match="t_budget must be positive and finite"):
        steady_time(drive, t_budget=math.inf)
