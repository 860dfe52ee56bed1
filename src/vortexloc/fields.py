"""Spatial beam profiles: vortex control amplitude, intensity ratio, detuning modulation."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import (
    CONSTANT,
    STANDING_WAVE,
    TWO_PI,
    BeamConfig,
    DetuningModulation,
    Position,
    SystemConfig,
)


def lg_amplitude(pos: Position, beam: BeamConfig) -> complex:
    """Doughnut vortex amplitude Omega_c0 * (r/W0)^|l| * exp(-r^2/W0^2) * exp(i*l*phi).

    Collimated beam: the waist is constant in z and no propagation phase is
    carried, since only |Omega|^2 and the two-photon detuning enter downstream.
    """
    u = pos.r / beam.waist_w0
    envelope = beam.omega_c0 * u ** abs(beam.winding_l) * math.exp(-u * u)
    return envelope * cmath.exp(1j * beam.winding_l * pos.phi)


def envelope_maximum(beam: BeamConfig) -> float:
    """Largest control modulus: Omega_c0 * (|l|/2)^(|l|/2) * exp(-|l|/2), at r = W0*sqrt(|l|/2)."""
    half_l = 0.5 * abs(beam.winding_l)
    return beam.omega_c0 * half_l**half_l * math.exp(-half_l)


def control_envelope(r, beam: BeamConfig, amplitude=None):
    """Real control modulus on a radius grid: amp * (r/W0)^|l| * exp(-r^2/W0^2).

    `amplitude` defaults to the configured peak and may be an array of
    per-position values (noisy beams). Every consumer of |Omega_c| on grids
    goes through here so equal inputs give bit-equal intensities.
    """
    u = np.asarray(r, dtype=float) / beam.waist_w0
    amp = beam.omega_c0 if amplitude is None else amplitude
    env = amp * u ** abs(beam.winding_l) * np.exp(-u * u)
    if np.ndim(r) == 0 and np.ndim(env) == 0:
        return float(env)
    return env


def eta_of_radius(r, config: SystemConfig):
    """Control-to-probe intensity ratio eta = I_c/I_p = kappa^2 (r/W0)^(2|l|) e^(-2 r^2/W0^2).

    Takes a scalar radius or, for grid work, an ndarray of radii.
    """
    u = np.asarray(r, dtype=float) / config.beam.waist_w0
    k = config.kappa
    eta = k * k * u ** (2 * abs(config.beam.winding_l)) * np.exp(-2.0 * u * u)
    if np.ndim(r) == 0:
        return float(eta)
    return eta


def radius_at_eta(q: float, config: SystemConfig) -> float:
    """The radius inside the envelope peak where eta = q, by bisection to 1e-12 W0.

    eta rises monotonically on the bracket [0, W0*sqrt(|l|/2)], from 0 at the
    core to its maximum at the envelope peak.
    """
    if q <= 0:
        raise ValueError("intensity ratio must be positive")
    beam = config.beam
    hi = beam.waist_w0 * math.sqrt(abs(beam.winding_l) / 2.0)
    if eta_of_radius(hi, config) < q:
        raise ValueError("requested intensity ratio exceeds the envelope maximum")
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-12 * beam.waist_w0:
            break
        mid = 0.5 * (lo + hi)
        if eta_of_radius(mid, config) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def taylor_eta(r: float, config: SystemConfig) -> float:
    """Small-radius expansion kappa^2 [(r/W0)^2 - 2 (r/W0)^4]; valid for |l| = 1 only."""
    if abs(config.beam.winding_l) != 1:
        raise ValueError("taylor expansion is defined for winding number +-1 only")
    u2 = (r / config.beam.waist_w0) ** 2
    k = config.kappa
    return k * k * (u2 - 2.0 * u2 * u2)


def detuning_profile(z, mod: DetuningModulation):
    """Local control detuning: constant value, or delta_c0*sin(2*pi*z/period) + delta_shift."""
    if mod.mode == CONSTANT:
        if np.ndim(z) == 0:
            return mod.delta_c_const
        return np.full(np.shape(z), mod.delta_c_const, dtype=float)
    value = mod.delta_c0 * np.sin(TWO_PI * np.asarray(z, dtype=float) / mod.period) + mod.delta_shift
    if np.ndim(z) == 0:
        return float(value)
    return value


__all__ = [
    "CONSTANT",
    "STANDING_WAVE",
    "lg_amplitude",
    "envelope_maximum",
    "control_envelope",
    "eta_of_radius",
    "radius_at_eta",
    "taylor_eta",
    "detuning_profile",
]
