"""Single-(super)atom density-matrix dynamics and steady states.

The closed-form steady state is the primary path for every scan; the
fixed-step integrator serves only the steady-time settling time. The tests
check the integrator against the closed form and against a plain
four-stage RK4.

A state is the real 9-vector [gg, ee, rr, Re/Im ge, Re/Im er, Re/Im gr] of
the density matrix of the ladder {g, e, r}. The integrator is classical
fixed-step RK4. The equations of motion are linear, x' = A x, so one RK4
step is exactly x <- M x with the degree-4 Taylor polynomial
M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 of exp(hA). The same scheme is
applied through that one-step propagator: samples come from a stack of
powers of M applied to whole blocks at once, not from four stage
evaluations per step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import Position, SystemConfig
from .fields import control_envelope, detuning_profile


@dataclass(frozen=True)
class LocalDrive:
    """All drive parameters entering the equations of motion at one point.

    Both Rabi amplitudes are real. The vortex phase of the control field is
    not carried: it enters no result, which depends on |Omega_c|^2 only.
    """

    omega_p: float
    omega_c: float
    delta_p: float
    delta_c: float
    s_shift: float
    gamma_e: float
    gamma_r: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.omega_c, numbers.Real):
            raise ValueError(f"omega_c must be a real amplitude, got {self.omega_c!r}")

    @property
    def gamma(self) -> float:
        """Coherence dephasing rate (gamma_e + gamma_r)/2, the formula of AtomMedium.gamma."""
        return 0.5 * (self.gamma_e + self.gamma_r)

    @classmethod
    def from_config(cls, config: SystemConfig, pos: Position, s_shift: float = 0.0) -> "LocalDrive":
        return cls(
            omega_p=config.probe.omega_p0,
            omega_c=control_envelope(pos.r, config.beam),
            delta_p=config.probe.delta_p,
            delta_c=detuning_profile(pos.z, config.detuning),
            s_shift=s_shift,
            gamma_e=config.medium.gamma_e,
            gamma_r=config.medium.gamma_r,
        )


def bloch_rhs(x: np.ndarray, drive: LocalDrive) -> np.ndarray:
    """Time derivative of the real 9-vector [gg, ee, rr, Re/Im ge, Re/Im er, Re/Im gr].

    `x` holds one state per column (any trailing axes), so the generator A
    of x' = A x is bloch_rhs(np.eye(9), drive): the equations are linear
    with no constant term. Dephasings: gamma_ge = gamma_er = gamma,
    gamma_gr = gamma_r/2 (zero for a stable Rydberg level). The Rydberg
    population derivative is defined as -(d sigma_gg + d sigma_ee) so the
    trace is conserved identically.
    """
    op = drive.omega_p
    oc = drive.omega_c
    dp = drive.delta_p
    two_photon = drive.delta_p + drive.delta_c - drive.s_shift
    dc_eff = drive.delta_c - drive.s_shift
    gamma = drive.gamma
    gamma_gr = 0.5 * drive.gamma_r
    gg, ee, rr = x[0], x[1], x[2]
    ge, er, gr = x[3] + 1j * x[4], x[5] + 1j * x[6], x[7] + 1j * x[8]

    d_gg = drive.gamma_e * ee - 2.0 * (op * ge).imag
    d_ee = drive.gamma_r * rr - drive.gamma_e * ee - 2.0 * (oc * er).imag + 2.0 * (op * ge).imag
    d_ge = (1j * dp - gamma) * ge + 1j * (oc * gr - op * (ee - gg))
    d_er = (1j * dc_eff - gamma) * er - 1j * (op * gr + oc * (rr - ee))
    d_gr = (1j * two_photon - gamma_gr) * gr + 1j * (oc * ge - op * er)
    return np.stack(
        [d_gg, d_ee, -(d_gg + d_ee), d_ge.real, d_ge.imag, d_er.real, d_er.imag, d_gr.real, d_gr.imag]
    )


def _fastest_scale(drive: LocalDrive) -> float:
    return max(
        abs(drive.omega_p),
        abs(drive.omega_c),
        drive.gamma,
        drive.gamma_e,
        abs(drive.delta_p),
        abs(drive.delta_c - drive.s_shift),
        abs(drive.delta_p + drive.delta_c - drive.s_shift),
    )


def _check_step(dt: float, drive: LocalDrive) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    scale = _fastest_scale(drive)
    if scale > 0 and dt > 0.05 / scale:
        raise ValueError(
            f"step size {dt:.3g} us too large for the fastest drive scale "
            f"{scale:.3g} rad/us; need dt <= {0.05 / scale:.3g}"
        )


POPULATION_TOL = 1e-6


def _check_population(states: np.ndarray, times: np.ndarray) -> None:
    """Raise at the first sampled state that is non-finite or off the population and trace bounds."""
    pops = states[:, :3]
    trace = pops.sum(axis=1)
    finite = np.isfinite(states).all(axis=1)
    bad = ~finite | (pops.min(axis=1) < -POPULATION_TOL) | (pops.max(axis=1) > 1.0 + POPULATION_TOL)
    bad |= np.abs(trace - 1.0) > POPULATION_TOL
    if not bad.any():
        return
    i = int(np.argmax(bad))
    t = times[i]
    if not finite[i]:
        raise RuntimeError(f"integration failure: non-finite state at t={t:.6g} us")
    raise RuntimeError(
        f"integration failure: populations out of range at t={t:.6g} us "
        f"(min={pops[i].min():.3e}, max={pops[i].max():.3e}, trace={trace[i]:.9f})"
    )


# Samples per block: the stack of propagator powers is _SAMPLE_BLOCK x 9 x 9
# floats (about 1.3 MB), whatever the step count.
_SAMPLE_BLOCK = 2048


def _power_stack(p: np.ndarray, count: int) -> np.ndarray:
    """[p^0, p^1, ..., p^(count-1)], filled by doubling."""
    powers = np.empty((count, 9, 9))
    powers[0] = np.eye(9)
    filled = 1
    while filled < count:
        top = powers[filled - 1] @ p
        take = min(filled, count - filled)
        powers[filled : filled + take] = powers[:take] @ top
        filled += take
    return powers


def _rk4_samples(x0: np.ndarray, drive: LocalDrive, n_steps: int, dt: float):
    """Fixed-step classical RK4 run; yields (step indices, states) one block of samples at a time.

    Samples fall on every step from 0 to n_steps. This is the RK4 scheme
    applied as its exact one-step propagator, not a new integrator: for
    x' = A x the four stages of a step compose to x <- M x with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24. A block is the stack
    [M^0 .. M^(K-1)] applied to its first state, and M^K carries the state
    to the next block, so memory stays O(K) for any step count.
    """
    eye = np.eye(9)
    ha = dt * bloch_rhs(eye, drive)
    m = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    n_samples = n_steps + 1
    powers = _power_stack(m, min(n_samples, _SAMPLE_BLOCK))
    advance = m @ powers[-1]
    x = np.array(x0, dtype=float)
    for first in range(0, n_samples, len(powers)):
        count = min(len(powers), n_samples - first)
        yield np.arange(first, first + count), (powers[:count].reshape(-1, 9) @ x).reshape(count, 9)
        x = advance @ x


def b_coefficients(ip, ic, nsa_ip, delta_p, gamma):
    """(P, Q, R) of the steady-state denominator B = P + t (Q + R t) in the two-photon detuning t.

    P = I_c + N_sa I_p, Q = -2 Delta_p I_c / (I_p + I_c) and
    R = (gamma^2 + Delta_p^2 + 2 I_p) / (I_p + I_c), with `nsa_ip` = N_sa I_p.
    Elementwise over arrays; plain floats raise ZeroDivisionError when I_p + I_c = 0.
    """
    total = ip + ic
    return ic + nsa_ip, -2.0 * delta_p * ic / total, (gamma * gamma + delta_p * delta_p + 2.0 * ip) / total


def b_values(b_p, b_q, b_r, t, out=None):
    """B = P + t (Q + R t); written into `out` when given, coefficients broadcasting against t."""
    if out is None:
        return b_p + t * (b_q + b_r * t)
    np.multiply(b_r, t, out=out)
    np.add(out, b_q, out=out)
    np.multiply(out, t, out=out)
    return np.add(out, b_p, out=out)


def sigma_rr_steady(ip, ic, delta_p, two_photon, gamma):
    """Closed-form steady Rydberg population I_p / B, with B at N_sa = 1.

    B is the full steady-state denominator divided by I_p + I_c, so nothing
    is squared beyond I_p itself and the result stays finite while 2 I_p is.
    Vectorized over any mix of array arguments; `two_photon` is
    Delta_p + Delta_c - s.
    """
    return ip / b_values(*b_coefficients(ip, ic, ip, delta_p, gamma), two_photon)


def steady_population(config: SystemConfig, ic, two_photon):
    """sigma_rr_steady with the probe, Delta_p and gamma of `config`, at control intensity ic."""
    return sigma_rr_steady(config.probe.intensity, ic, config.probe.delta_p, two_photon, config.medium.gamma)


def steady_sigma_rr(drive: LocalDrive) -> float:
    """Steady-state sigma_rr for one drive; errors on a degenerate zero denominator."""
    ip = drive.omega_p * drive.omega_p
    ic = drive.omega_c * drive.omega_c
    two_photon = drive.delta_p + drive.delta_c - drive.s_shift
    try:
        # plain floats, so that a zero denominator raises instead of giving inf
        return sigma_rr_steady(
            float(ip), float(ic), float(drive.delta_p), float(two_photon), float(drive.gamma)
        )
    except ZeroDivisionError:
        raise ValueError("degenerate drive: steady-state denominator is zero") from None


def linewidth_from(ip, ic, delta_p, gamma):
    """Half-peak width w = (I_p + I_c) / sqrt(gamma^2 + Delta_p^2 + 2 I_p), vectorized over intensities."""
    under = gamma * gamma + delta_p * delta_p + 2.0 * ip
    if np.ndim(under) == 0 and under <= 0:
        raise ValueError("gamma^2 + Delta_p^2 + 2 I_p must be positive")
    return (ip + ic) / np.sqrt(under)


def steady_time(
    drive: LocalDrive,
    rel_tol: float = 0.01,
    t_budget: float = 200.0,
    dt: float | None = None,
) -> float:
    """Earliest time after which sigma_rr stays within rel_tol of its steady value.

    Integrates from the all-ground state; the band must hold at every later
    sampled time inside the budget, so transient re-entries do not count.
    """
    if not 0.0 < rel_tol <= 0.1:
        raise ValueError("rel_tol must lie in (0, 0.1]")
    if not 0 < t_budget < math.inf:
        raise ValueError("t_budget must be positive and finite")
    target = steady_sigma_rr(drive)
    if target <= 0:
        raise ValueError("steady-state population is zero; steady time undefined")
    scale = _fastest_scale(drive)
    if dt is None:
        if scale == 0:
            raise ValueError("drive has no dynamics; steady time undefined")
        dt = 0.04 / scale
    _check_step(dt, drive)
    n_steps = int(math.ceil(t_budget / dt - 1e-12))
    band = rel_tol * target
    last_outside = -1
    for steps, states in _rk4_samples(np.eye(9)[0], drive, n_steps, dt):
        _check_population(states, steps * dt)
        outside = np.flatnonzero(np.abs(states[:, 2] - target) > band)
        if outside.size:
            last_outside = int(steps[outside[-1]])
    if last_outside >= n_steps:
        raise RuntimeError(
            f"no steady entry within t_budget={t_budget:g} us "
            f"(sigma_rr still outside the {rel_tol:.3g} band)"
        )
    return (last_outside + 1) * dt


__all__ = [
    "LocalDrive",
    "bloch_rhs",
    "sigma_rr_steady",
    "steady_population",
    "steady_sigma_rr",
    "linewidth_from",
    "steady_time",
]
