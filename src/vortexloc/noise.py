"""Monte-Carlo robustness of the localized peak under drive noise.

Each trajectory draws independent per-position disturbances of the control
beam, either amplitude (intensity) or detuning (frequency) noise, recomputes
the steady profile, and the ensemble is averaged pointwise. Per-trajectory
generators derive from (master seed, trajectory index), so results are
reproducible for any worker count, and a zero noise level reproduces the
noiseless profile bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import sigma_rr_steady
from .config import SystemConfig
from .fields import control_envelope
from .localization import ScanProfile, _resolve_offsets, extract_fwhm
from .meanfield import MASK_LOCAL, QuadratureSpec
from .parallel import map_ordered, pairwise_sum

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
class IntensityField:
    """One noisy control-amplitude realization."""

    amplitudes: np.ndarray  # rad/us, clamped at zero
    offsets: np.ndarray  # rad/us, as drawn
    clamp_count: int


@dataclass(frozen=True)
class NoisyScan:
    """Trajectory-averaged transverse profile with its pointwise spread."""

    profile: ScanProfile
    spread: np.ndarray  # pointwise standard deviation over trajectories
    clamp_count: int


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trajectory of one run."""
    return np.random.default_rng([seed, index])


def sample_intensity_field(
    spec: NoiseSpec, n: int, omega_c0: float, rng: np.random.Generator
) -> IntensityField:
    """Per-position peak amplitudes omega_c0 + N(0, std_dev*omega_c0), clamped at zero."""
    if spec.kind != KIND_INTENSITY:
        raise ValueError("spec kind must be 'intensity'")
    offsets = rng.normal(0.0, spec.std_dev * omega_c0, size=n)
    raw = omega_c0 + offsets
    clamp_count = int(np.count_nonzero(raw < 0.0))
    return IntensityField(
        amplitudes=np.maximum(raw, 0.0), offsets=offsets, clamp_count=clamp_count
    )


def sample_frequency_offsets(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-position two-photon detuning offsets N(0, std_dev) in rad/us."""
    if spec.kind != KIND_FREQUENCY:
        raise ValueError("spec kind must be 'frequency'")
    return rng.normal(0.0, spec.std_dev, size=n)


def noisy_transverse_scan(
    config: SystemConfig,
    spec: NoiseSpec,
    x_max: float | None = None,
    n_samples: int = 201,
    s0: float | None = None,
    delta_offset: float | None = None,
    quad: QuadratureSpec | None = None,
    mask: str = MASK_LOCAL,
    threads: int = 1,
    tail_tol: float = 0.01,
) -> NoisyScan:
    """Averaged transverse cut sigma_rr(x) through the core under drive noise.

    The x grid mirrors a radius grid through the origin, so the x >= 0 half
    coincides sample-for-sample with a radial scan. The profile is taken at
    the calibrated working point (z = 3 lambda_c/4, delta - Delta_c0 = s_0)
    unless `delta_offset` detunes it deliberately. Averages accumulate as
    offsets from the first trajectory, so identical trajectories average to
    the identical profile.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    beam = config.beam
    if x_max is None:
        x_max = 1.5 * beam.waist_w0
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    s0, delta_offset, quad = _resolve_offsets(config, s0, delta_offset, quad, mask, threads, tail_tol)

    r = np.linspace(0.0, x_max, n_samples)
    x = np.concatenate([-r[:0:-1], r])
    u = np.abs(x)

    ip = config.probe.omega_p0 ** 2
    dp = config.probe.delta_p
    gamma = config.medium.gamma
    mismatch0 = delta_offset - s0  # exactly 0.0 when calibrated

    def one_trajectory(index: int) -> tuple[np.ndarray, int]:
        rng = trajectory_rng(spec.seed, index)
        if spec.kind == KIND_INTENSITY:
            realization = sample_intensity_field(spec, x.size, beam.omega_c0, rng)
            env = control_envelope(u, beam, amplitude=realization.amplitudes)
            two_photon = dp + mismatch0
            clamps = realization.clamp_count
        else:
            detuning_noise = sample_frequency_offsets(spec, x.size, rng)
            env = control_envelope(u, beam)
            two_photon = dp + mismatch0 + detuning_noise
            clamps = 0
        sigma = sigma_rr_steady(ip, env * env, dp, two_photon, gamma)
        return np.asarray(sigma, dtype=float), clamps

    results = map_ordered(one_trajectory, range(spec.trajectories), threads=threads)
    sigmas = [sigma for sigma, _ in results]
    clamp_count = int(sum(clamps for _, clamps in results))

    base = sigmas[0]
    n_traj = float(spec.trajectories)
    if spec.trajectories == 1:
        mean = base.copy()
    else:
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
        lambda_c=beam.wavelength_c,
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
    "IntensityField",
    "NoisyScan",
    "trajectory_rng",
    "sample_intensity_field",
    "sample_frequency_offsets",
    "noisy_transverse_scan",
    "spread_at",
]
