"""Spatial beam profiles: vortex control amplitude, intensity ratio, detuning modulation.

The control amplitude is the real doughnut envelope. The vortex phase
exp(i*l*azimuth) is left out: every result depends on the control field only
through |Omega_c|^2, so the phase enters none of them.
"""

from __future__ import annotations

import math

import numpy as np

from .config import (
    CONSTANT,
    STANDING_WAVE,
    TWO_PI,
    BeamConfig,
    DetuningModulation,
    SystemConfig,
)


def envelope_peak_radius(beam: BeamConfig) -> float:
    """Radius W0*sqrt(|l|/2) of the envelope maximum, where eta is largest too."""
    return beam.waist_w0 * math.sqrt(abs(beam.winding_l) / 2.0)


def control_envelope(r, beam: BeamConfig, amplitude=None):
    """Real control amplitude amp * (r/W0)^|l| * exp(-r^2/W0^2), at one radius or on a grid.

    Collimated beam: the waist is constant in z and no propagation phase is
    carried. `amplitude` defaults to the configured peak and may be an array
    of per-position values (noisy beams). Every consumer of Omega_c goes
    through here, so equal inputs give bit-equal intensities.
    """
    u = np.asarray(r, dtype=float) / beam.waist_w0
    amp = beam.omega_c0 if amplitude is None else amplitude
    env = amp * u ** abs(beam.winding_l) * np.exp(-u * u)
    if np.ndim(r) == 0 and np.ndim(env) == 0:
        return float(env)
    return env


def eta_of_radius(r, config: SystemConfig):
    """Control-to-probe intensity ratio eta = I_c/I_p, with I_c the squared control envelope.

    Takes a scalar radius or, for grid work, an ndarray of radii.
    """
    env = control_envelope(r, config.beam)
    return env * env / config.probe.intensity


def radius_at_eta(q: float, config: SystemConfig) -> float:
    """The radius inside the envelope peak where eta = q, by bisection to 1e-12 W0.

    eta rises monotonically on the bracket [0, envelope_peak_radius], from 0
    at the core to its maximum at the envelope peak.
    """
    if not q > 0:  # written so that NaN fails it too
        raise ValueError("intensity ratio must be positive")
    beam = config.beam
    hi = envelope_peak_radius(beam)
    if eta_of_radius(hi, config) < q:
        raise ValueError("requested intensity ratio exceeds the envelope maximum")
    return _bisect(lambda r: eta_of_radius(r, config) - q, 0.0, hi, 1e-12 * beam.waist_w0)


def _bisect(fn, lo, hi, xtol: float):
    """Root of fn between lo and hi (opposite signs assumed) to width xtol, per element of array brackets.

    The midpoint replaces lo where fn(mid) > 0 holds exactly when fn(lo) > 0 does; floats give a float.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo_positive = fn(lo) > 0.0
    for _ in range(200):
        active = hi - lo > xtol
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        to_lo = np.equal(fn(mid) > 0.0, lo_positive)  # a numpy bool: ~ on a Python bool is -1 or -2
        lo = np.where(active & to_lo, mid, lo)
        hi = np.where(active & ~to_lo, mid, hi)
    root = 0.5 * (lo + hi)
    return float(root) if root.ndim == 0 else root


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
    "envelope_peak_radius",
    "control_envelope",
    "eta_of_radius",
    "radius_at_eta",
    "detuning_profile",
]
