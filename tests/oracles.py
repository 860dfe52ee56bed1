"""Oracles and drives shared by the Bloch, mean-field and acceptance tests.

The master equation here is written directly against a 3x3 density matrix,
independently of bloch_rhs, and the RK4 oracle is the plain per-step
four-stage loop, independently of the package's power-stack propagator.
"""

import dataclasses
import math

import numpy as np

from vortexloc import bloch, make_config
from vortexloc.bloch import LocalDrive, bloch_rhs
from vortexloc.fields import control_envelope, radius_at_eta

GROUND = np.eye(9)[0]  # all population in |g>

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


def master_rhs(rho, drive):
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


def rho_from_vector(x):
    """The Hermitian density matrix of the real 9-vector [gg, ee, rr, Re/Im ge, Re/Im er, Re/Im gr]."""
    gg, ee, rr = x[:3]
    ge, er, gr = complex(x[3], x[4]), complex(x[5], x[6]), complex(x[7], x[8])
    return np.array(
        [[gg, ge, gr], [ge.conjugate(), ee, er], [gr.conjugate(), er.conjugate(), rr]],
        dtype=complex,
    )


def steady_oracle(drive):
    """sigma_rr of the trace-one null vector of the independent generator."""
    basis = []
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            basis.append(master_rhs(e, drive).reshape(9))
    gen = np.array(basis, dtype=complex).T
    rows = np.vstack([gen, np.array([[1, 0, 0, 0, 1, 0, 0, 0, 1]], dtype=complex)])
    rhs = np.zeros(10, dtype=complex)
    rhs[9] = 1.0
    rho, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return float(rho.reshape(3, 3)[2, 2].real)


def random_drive(rng, with_decay_chain=False):
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
        gamma_e=gamma_e,
        gamma_r=gamma_r,
    )


def fastest(drive):
    return max(
        abs(drive.omega_p),
        abs(drive.omega_c),
        drive.gamma_e,
        abs(drive.delta_p),
        abs(drive.delta_c - drive.s_shift),
        abs(drive.delta_p + drive.delta_c - drive.s_shift),
    )


def settle_plan(drive, decades=8.0):
    """(n_steps, dt) long and fine enough to damp transients below ~10**-decades.

    The slowest relaxation rate is read off the spectrum of the generator
    bloch_rhs(np.eye(9), drive).
    """
    rates = -np.linalg.eigvals(bloch_rhs(np.eye(9), drive)).real
    slowest = float(np.min(rates[rates > 1e-9]))
    t_end = decades * math.log(10.0) / slowest
    dt = 0.04 / fastest(drive)
    return math.ceil(t_end / dt - 1e-12), dt


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
        gamma_e=m.gamma_e,
        gamma_r=m.gamma_r,
    )


def rk4_oracle(rhs, x0, n_steps, dt):
    """The per-step four-stage RK4 loop on x' = rhs(x); the states at steps 0..n_steps, one per row."""
    x = np.array(x0, dtype=float)
    states = [x]
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        states.append(x)
    return np.array(states)


def rk4_run(x0, drive, n_steps, dt):
    """The package's RK4 propagator: the states at steps 0..n_steps, one per row."""
    return np.concatenate([states for _, states in bloch._rk4_samples(x0, drive, n_steps, dt)])


def halved(lattice):
    """The quadrature lattice with both spacings halved and the extents kept."""
    return dataclasses.replace(lattice, spacing_r=0.5 * lattice.spacing_r, spacing_z=0.5 * lattice.spacing_z)
