"""Equations of motion and analytic steady states.

The oracle here is an independent three-level master equation written
directly against a 3x3 density matrix: RHS agreement is checked component
by component, and the analytic steady-state formula is checked against the
null space of the independently built generator.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vortexloc import bloch, make_config
from vortexloc.bloch import (
    BlochState,
    LocalDrive,
    bloch_rhs,
    evolve,
    ground_state,
    linewidth_from,
    linewidth_w,
    sigma_rr_steady,
    steady_sigma_rr,
    steady_time,
)
from vortexloc.config import TWO_PI, Position
from vortexloc.fields import control_envelope, detuning_profile, radius_at_eta

SIGMA_GE = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
SIGMA_ER = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)


def _hamiltonian(drive):
    two_photon = drive.delta_p + drive.delta_c - drive.s_shift
    return np.array(
        [
            [0.0, drive.omega_p, 0.0],
            [drive.omega_p, drive.delta_p, drive.omega_c],
            [0.0, drive.omega_c, two_photon],
        ],
        dtype=complex,
    )


def _master_rhs(rho, drive):
    """Independent master-equation right-hand side on the raw density matrix.

    Cascade decay in Lindblad form, plus the extra dephasing needed to damp
    both optical coherences at the single rate drive.gamma (the bare cascade
    would give gamma_e/2 on ge). Both extras vanish for a stable upper level
    with gamma = gamma_e/2, where this is the plain Lindblad equation.
    """
    h = _hamiltonian(drive)
    out = -1j * (h @ rho - rho @ h)
    for rate, c in ((drive.gamma_e, SIGMA_GE), (drive.gamma_r, SIGMA_ER)):
        if rate:
            cd = c.conj().T
            out = out + rate * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
    extra_ge = drive.gamma - 0.5 * drive.gamma_e
    extra_er = drive.gamma - 0.5 * (drive.gamma_e + drive.gamma_r)
    adj = np.zeros((3, 3), dtype=complex)
    adj[0, 1] = -extra_ge * rho[0, 1]
    adj[1, 0] = -extra_ge * rho[1, 0]
    adj[1, 2] = -extra_er * rho[1, 2]
    adj[2, 1] = -extra_er * rho[2, 1]
    return out + adj


def _rho_from_state(state):
    return np.array(
        [
            [state.sigma_gg, state.sigma_ge, state.sigma_gr],
            [np.conj(state.sigma_ge), state.sigma_ee, state.sigma_er],
            [np.conj(state.sigma_gr), np.conj(state.sigma_er), state.sigma_rr],
        ],
        dtype=complex,
    )


def _steady_oracle(drive):
    """sigma_rr of the trace-one null vector of the independent generator."""
    basis = []
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            basis.append(_master_rhs(e, drive).reshape(9))
    gen = np.array(basis, dtype=complex).T
    rows = np.vstack([gen, np.array([[1, 0, 0, 0, 1, 0, 0, 0, 1]], dtype=complex)])
    rhs = np.zeros(10, dtype=complex)
    rhs[9] = 1.0
    rho, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return float(rho.reshape(3, 3)[2, 2].real)


def _random_drive(rng, with_decay_chain=False):
    gamma_e = float(rng.uniform(25.0, 50.0))
    gamma_r = float(rng.uniform(0.0, 2.0)) if with_decay_chain else 0.0
    omega_p = float(rng.uniform(8.0, 25.0))
    ratio = float(rng.uniform(0.8, 1.4))
    return LocalDrive(
        omega_p=omega_p,
        omega_c=omega_p * ratio,
        delta_p=float(rng.uniform(-12.0, 12.0)),
        delta_c=float(rng.uniform(-12.0, 12.0)),
        s_shift=float(rng.uniform(-6.0, 6.0)),
        gamma=0.5 * (gamma_e + gamma_r),
        gamma_e=gamma_e,
        gamma_r=gamma_r,
    )


def settle_plan(drive, decades=8.0):
    """(t_end, dt) long and fine enough to damp transients below ~10**-decades.

    The slowest relaxation rate is read off the generator spectrum, probed
    column by column from bloch_rhs.
    """
    zero = BlochState(0.0, 0.0, 0.0, 0j, 0j, 0j)
    offset = bloch_rhs(zero, drive).as_vector()
    cols = []
    for j in range(9):
        vec = np.zeros(9)
        vec[j] = 1.0
        cols.append(bloch_rhs(BlochState.from_vector(vec), drive).as_vector() - offset)
    rates = -np.linalg.eigvals(np.array(cols).T).real
    slowest = float(np.min(rates[rates > 1e-9]))
    t_end = decades * math.log(10.0) / slowest
    dt = 0.04 / _fastest(drive)
    return t_end, dt


def _fastest(drive):
    return max(
        abs(drive.omega_p),
        abs(drive.omega_c),
        drive.gamma_e,
        abs(drive.delta_p),
        abs(drive.delta_c - drive.s_shift),
        abs(drive.delta_p + drive.delta_c - drive.s_shift),
    )


def _random_state(rng):
    pops = rng.uniform(0.0, 1.0, 3)
    pops = pops / pops.sum()
    coh = rng.uniform(-0.3, 0.3, 6)
    return BlochState(
        sigma_gg=float(pops[0]),
        sigma_ee=float(pops[1]),
        sigma_rr=float(pops[2]),
        sigma_ge=complex(coh[0], coh[1]),
        sigma_er=complex(coh[2], coh[3]),
        sigma_gr=complex(coh[4], coh[5]),
    )


def drive_at_intensity_ratio(kappa, q=2.0 / 3.0):
    """Resonant local drive at the radius where I_c/I_p = q."""
    cfg = make_config(kappa=kappa)
    env = control_envelope(radius_at_eta(q, cfg), cfg.beam)
    m = cfg.medium
    return LocalDrive(
        omega_p=cfg.probe.omega_p0,
        omega_c=env,
        delta_p=0.0,
        delta_c=0.0,
        s_shift=0.0,
        gamma=m.gamma,
        gamma_e=m.gamma_e,
        gamma_r=m.gamma_r,
    )


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
            LocalDrive(10.0, bad, 0.0, 0.0, 0.0, 19.0, 38.0)
    assert LocalDrive(10.0, np.float64(10.0), 0.0, 0.0, 0.0, 19.0, 38.0).intensities() == (100.0, 100.0)


def test_rhs_matches_the_independent_master_equation():
    rng = np.random.default_rng(101)
    for k in range(50):
        drive = _random_drive(rng, with_decay_chain=(k % 3 == 0))
        state = _random_state(rng)
        got = bloch_rhs(state, drive)
        want = _master_rhs(_rho_from_state(state), drive)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert abs(got.sigma_gg - want[0, 0].real) <= 1e-12 * scale
        assert abs(got.sigma_ee - want[1, 1].real) <= 1e-12 * scale
        assert abs(got.sigma_rr - want[2, 2].real) <= 1e-12 * scale
        assert abs(got.sigma_ge - want[0, 1]) <= 1e-12 * scale
        assert abs(got.sigma_er - want[1, 2]) <= 1e-12 * scale
        assert abs(got.sigma_gr - want[0, 2]) <= 1e-12 * scale


def test_ground_state_without_probe_is_stationary():
    drive = LocalDrive(0.0, 10.0, 1.0, 2.0, 0.0, 19.0, 38.0)
    d = bloch_rhs(ground_state(), drive)
    assert d.sigma_gg == 0.0 and d.sigma_ee == 0.0 and d.sigma_rr == 0.0
    assert d.sigma_ge == 0.0 and d.sigma_er == 0.0 and d.sigma_gr == 0.0


def test_derivative_conserves_the_trace():
    rng = np.random.default_rng(55)
    for _ in range(100):
        drive = _random_drive(rng)
        d = bloch_rhs(_random_state(rng), drive)
        assert abs(d.sigma_gg + d.sigma_ee + d.sigma_rr) < 1e-12


def test_uncoupled_rydberg_level_stays_empty():
    drive = LocalDrive(8.0, 0.0, 0.0, 0.0, 0.0, 19.0, 38.0)
    traj = evolve(ground_state(), drive, t_end=2.0, dt=1e-3)
    assert np.all(traj.sigma_rr == 0.0)
    assert np.all(np.abs(traj.sigma_gr) == 0.0)
    assert traj.sigma_ee[-1] > 0.01  # damped two-level drive populates |e>
    assert abs(traj.sigma_gg[-1] + traj.sigma_ee[-1] - 1.0) < 1e-9


def test_steady_formula_matches_the_master_equation_null_space():
    rng = np.random.default_rng(202)
    for _ in range(20):
        drive = _random_drive(rng)
        assert steady_sigma_rr(drive) == pytest.approx(_steady_oracle(drive), abs=1e-10)


def test_long_time_evolution_reaches_the_analytic_steady_state():
    rng = np.random.default_rng(303)
    for _ in range(8):
        drive = _random_drive(rng)
        t_end, dt = settle_plan(drive)
        traj = evolve(ground_state(), drive, t_end=t_end, dt=dt, sample_every=4000)
        assert traj.sigma_rr[-1] == pytest.approx(steady_sigma_rr(drive), abs=1e-6)
        trace = traj.sigma_gg + traj.sigma_ee + traj.sigma_rr
        assert np.max(np.abs(trace - 1.0)) < 1e-9


def test_halving_the_step_barely_moves_the_endpoint():
    drive = LocalDrive(12.0, 9.0, 5.0, -8.0, 2.0, 19.0, 38.0)
    coarse = evolve(ground_state(), drive, t_end=2.0, dt=1e-3, sample_every=2000)
    fine = evolve(ground_state(), drive, t_end=2.0, dt=5e-4, sample_every=4000)
    assert abs(coarse.sigma_rr[-1] - fine.sigma_rr[-1]) < 1e-8


def test_step_size_guard_rejects_underresolved_integration():
    drive = LocalDrive(10.0, 10.0, 0.0, 0.0, 0.0, 19.0, 38.0)
    with pytest.raises(ValueError, match="dt"):
        evolve(ground_state(), drive, t_end=1.0, dt=0.01)
    with pytest.raises(ValueError, match="t_end"):
        evolve(ground_state(), drive, t_end=0.0, dt=1e-3)


def test_steady_sigma_special_points():
    # no control field, fully resonant: saturation at 1
    assert sigma_rr_steady(4.0, 0.0, 0.0, 0.0, 19.0) == 1.0
    # compensated two-photon detuning at equal intensities: 1/2
    assert sigma_rr_steady(4.0, 4.0, 0.0, 0.0, 19.0) == 0.5
    with pytest.raises(ValueError, match="degenerate"):
        steady_sigma_rr(LocalDrive(0.0, 0.0, 0.0, 0.0, 0.0, 19.0, 38.0))


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
    ip = cfg.probe.omega_p0**2
    w = linewidth_from(ip, 0.0, 0.0, cfg.medium.gamma)
    assert w / TWO_PI == pytest.approx(0.198, rel=1e-2)
    drive = LocalDrive.from_config(cfg, Position(r=0.0, z=0.0))
    assert linewidth_w(drive) == pytest.approx(w, rel=1e-12)


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


def _probed_generator(drive):
    """Columns of A in x' = A x, probed from bloch_rhs one unit vector at a time."""
    cols = []
    for j in range(9):
        vec = np.zeros(9)
        vec[j] = 1.0
        cols.append(bloch_rhs(BlochState.from_vector(vec), drive).as_vector())
    return np.array(cols).T


def _stepwise_rk4(x0, drive, n_steps, dt, sample_every):
    """Oracle: the per-step four-stage RK4 loop, sampled where evolve samples."""
    a = _probed_generator(drive)
    x = np.array(x0, dtype=float)
    steps, states = [0], [x]
    half, sixth = 0.5 * dt, dt / 6.0
    for step in range(1, n_steps + 1):
        k1 = a @ x
        k2 = a @ (x + half * k1)
        k3 = a @ (x + half * k2)
        k4 = a @ (x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if step % sample_every == 0 or step == n_steps:
            steps.append(step)
            states.append(x)
    return np.array(steps), np.array(states)


def _stepwise_steady_time(drive, rel_tol, t_budget):
    """Oracle: steady_time's band-exit rule over the per-step RK4 loop."""
    dt = 0.04 / bloch._fastest_scale(drive)
    n_steps = int(math.ceil(t_budget / dt - 1e-12))
    steps, states = _stepwise_rk4(ground_state().as_vector(), drive, n_steps, dt, 1)
    target = steady_sigma_rr(drive)
    outside = np.flatnonzero(np.abs(states[:, 2] - target) > rel_tol * target)
    assert outside[-1] < n_steps
    return (int(steps[outside[-1]]) + 1) * dt


def _random_pure_state(rng):
    """A physical starting point: the projector onto a random normalised ket."""
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    return BlochState(
        float(rho[0, 0].real), float(rho[1, 1].real), float(rho[2, 2].real),
        complex(rho[0, 1]), complex(rho[1, 2]), complex(rho[0, 2]),
    )


def test_the_equations_of_motion_have_no_constant_term():
    rng = np.random.default_rng(404)
    zero = BlochState.from_vector(np.zeros(9))
    for k in range(30):
        drive = _random_drive(rng, with_decay_chain=(k % 2 == 0))
        assert np.all(bloch_rhs(zero, drive).as_vector() == 0.0)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 5000),
    sample_every=st.sampled_from([1, 1, 3, 7, 250]),
)
@example(seed=7, n_steps=2 * bloch._SAMPLE_BLOCK + 17, sample_every=1)  # three sample blocks
@example(seed=8, n_steps=2 * bloch._SAMPLE_BLOCK + 405, sample_every=2)  # two blocks and a partial last step
def test_evolve_matches_the_stepwise_rk4_oracle(seed, n_steps, sample_every):
    rng = np.random.default_rng(seed)
    drive = _random_drive(rng, with_decay_chain=bool(seed % 2))
    initial = _random_pure_state(rng)
    dt = 0.04 / _fastest(drive)
    traj = evolve(initial, drive, t_end=(n_steps - 0.5) * dt, dt=dt, sample_every=sample_every)
    steps, states = _stepwise_rk4(initial.as_vector(), drive, n_steps, dt, sample_every)
    np.testing.assert_array_equal(traj.times, steps * dt)
    got = np.column_stack(
        [traj.sigma_gg, traj.sigma_ee, traj.sigma_rr]
        + [part for c in (traj.sigma_ge, traj.sigma_er, traj.sigma_gr) for part in (c.real, c.imag)]
    )
    assert np.max(np.abs(got - states)) <= 1e-10


@pytest.mark.parametrize("kappa, t_budget", [(10.0, 5.0), (180.0, 30.0), (500.0, 100.0)])
def test_steady_time_equals_the_stepwise_oracle(kappa, t_budget):
    drive = drive_at_intensity_ratio(kappa)
    want = _stepwise_steady_time(drive, 0.01, t_budget)
    assert steady_time(drive, rel_tol=0.01, t_budget=t_budget) == want


def test_infinite_horizons_are_rejected():
    drive = drive_at_intensity_ratio(10.0)
    with pytest.raises(ValueError, match="t_budget must be positive and finite"):
        steady_time(drive, t_budget=math.inf)
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        evolve(ground_state(), drive, t_end=math.inf, dt=1e-4)
    with pytest.raises(ValueError, match="sample_every"):
        evolve(ground_state(), drive, t_end=1.0, dt=1e-4, sample_every=0)
