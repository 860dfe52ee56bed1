"""Monte-Carlo robustness of the localized peak under drive noise.

Each trajectory draws independent per-position disturbances of the control
beam, either amplitude (intensity) or detuning (frequency) noise, recomputes
the steady profile, and the ensemble is averaged pointwise. Per-trajectory
generators derive from (master seed, trajectory index), so results are
reproducible, and a zero noise level reproduces the noiseless profile bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import steady_population
from .config import SystemConfig
from .fields import control_envelope
from .localization import ScanProfile, _axis_two_photon, _radius_grid, _resolve_offsets, extract_fwhm
from .meanfield import ShiftQuadrature, localized_point
from .parallel import pairwise_sum

KIND_INTENSITY = "intensity"
KIND_FREQUENCY = "frequency"
_KINDS = (KIND_INTENSITY, KIND_FREQUENCY)


@dataclass(frozen=True)
class NoiseSpec:
    """White position-wise noise on the control beam.

    `std_dev` is a fraction of the peak amplitude for intensity noise and an
    absolute detuning scale in rad/us for frequency noise.
    """

    kind: str
    std_dev: float
    trajectories: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"noise kind must be one of {_KINDS}")
        if not self.std_dev >= 0.0:
            raise ValueError("std_dev must be nonnegative")
        if not math.isfinite(self.std_dev):
            raise ValueError("std_dev must be finite")
        if int(self.trajectories) != self.trajectories or self.trajectories < 1:
            raise ValueError("trajectories must be a positive integer")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class NoisyScan:
    """Trajectory-averaged transverse profile with its pointwise spread."""

    profile: ScanProfile
    spread: np.ndarray  # pointwise standard deviation over trajectories
    clamp_count: int


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trajectory of one run."""
    return np.random.default_rng([seed, index])


def noisy_transverse_scan(
    config: SystemConfig,
    spec: NoiseSpec,
    x_max: float | None = None,
    n_samples: int = 201,
    s0: float | None = None,
    delta_offset: float | None = None,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
) -> NoisyScan:
    """Averaged transverse cut sigma_rr(x) through the core under drive noise.

    The x grid mirrors a radius grid through the origin, so the x >= 0 half
    coincides sample-for-sample with a radial scan. The profile is taken at
    the calibrated working point (the standing-wave node, delta - Delta_c0 = s_0)
    unless `delta_offset` detunes it deliberately. Averages accumulate as
    offsets from the first trajectory, so identical trajectories average to
    the identical profile. `quadrature` serves only the s0 calibration.
    """
    r = _radius_grid(config, x_max, n_samples, "x_max")
    s0, delta_offset, _ = _resolve_offsets(config, s0, delta_offset, quadrature)
    beam = config.beam
    x = np.concatenate([-r[:0:-1], r])
    u = np.abs(x)

    on_node = _axis_two_photon(config, localized_point(config).z, s0, delta_offset)
    intensity = spec.kind == KIND_INTENSITY
    scale = spec.std_dev * beam.omega_c0 if intensity else spec.std_dev

    sigmas = []
    clamp_count = 0
    for index in range(spec.trajectories):
        draws = trajectory_rng(spec.seed, index).normal(0.0, scale, size=x.size)
        if intensity:
            amplitudes = beam.omega_c0 + draws
            clamp_count += int(np.count_nonzero(amplitudes < 0.0))
            env = control_envelope(u, beam, amplitude=np.maximum(amplitudes, 0.0))
            two_photon = on_node
        else:
            env = control_envelope(u, beam)
            two_photon = on_node + draws
        sigmas.append(np.asarray(steady_population(config, env * env, two_photon), dtype=float))

    base = sigmas[0]
    n_traj = float(spec.trajectories)
    mean = base + pairwise_sum([s - base for s in sigmas[1:]]) / n_traj
    variance = pairwise_sum([(s - mean) ** 2 for s in sigmas]) / n_traj
    spread = np.sqrt(variance)

    try:
        fwhm = extract_fwhm(x, mean, beam.wavelength_c)
    except ValueError:
        fwhm = None

    profile = ScanProfile(
        axis="x",
        mode=f"noisy-{spec.kind}",
        coords=x,
        sigma=mean,
        fwhm=fwhm,
        peak=float(mean.max()),
        peak_coord=float(x[int(np.argmax(mean))]),
        s0=s0,
        delta_offset=delta_offset,
    )
    return NoisyScan(profile=profile, spread=spread, clamp_count=clamp_count)


def spread_at(scan: NoisyScan, x_value: float) -> float:
    """Pointwise trajectory spread at the grid point nearest x_value."""
    i = int(np.argmin(np.abs(scan.profile.coords - x_value)))
    return float(scan.spread[i])


__all__ = [
    "KIND_INTENSITY",
    "KIND_FREQUENCY",
    "NoiseSpec",
    "NoisyScan",
    "trajectory_rng",
    "noisy_transverse_scan",
    "spread_at",
]
