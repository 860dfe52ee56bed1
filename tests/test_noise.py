"""Monte-Carlo drive-noise robustness: reproducibility and peak survival."""

import numpy as np
import pytest

from vortexloc import make_config
from vortexloc.config import TWO_PI
from vortexloc.localization import MODE_NONE, transverse_scan
from vortexloc.noise import (
    KIND_FREQUENCY,
    KIND_INTENSITY,
    NoiseSpec,
    noisy_transverse_scan,
    sample_frequency_offsets,
    sample_intensity_field,
    spread_at,
    trajectory_rng,
)

CFG180 = make_config(kappa=180.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="noise kind"):
        NoiseSpec(kind="phase", std_dev=0.1)
    with pytest.raises(ValueError, match="std_dev"):
        NoiseSpec(kind=KIND_INTENSITY, std_dev=-0.1)
    with pytest.raises(ValueError, match="std_dev must be finite"):
        NoiseSpec(kind=KIND_INTENSITY, std_dev=float("inf"))
    with pytest.raises(ValueError, match="trajectories"):
        NoiseSpec(kind=KIND_INTENSITY, std_dev=0.1, trajectories=0)
    with pytest.raises(ValueError, match="trajectories"):
        NoiseSpec(kind=KIND_INTENSITY, std_dev=0.1, trajectories=2.5)
    with pytest.raises(ValueError, match="seed"):
        NoiseSpec(kind=KIND_INTENSITY, std_dev=0.1, seed=-1)


def test_trajectory_streams_are_reproducible_and_independent():
    a = trajectory_rng(7, 3).normal(size=16)
    b = trajectory_rng(7, 3).normal(size=16)
    c = trajectory_rng(7, 4).normal(size=16)
    d = trajectory_rng(8, 3).normal(size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_intensity_draws_are_centered_and_clamped():
    omega_c0 = CFG180.beam.omega_c0
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.2)
    field = sample_intensity_field(spec, 10**6, omega_c0, trajectory_rng(1, 0))
    # the sample mean of 10^6 centered draws stays within 3 standard errors
    assert abs(field.offsets.mean()) < 3.0 * 0.2 * omega_c0 / 1000.0
    assert field.clamp_count == 0
    assert np.all(field.amplitudes >= 0.0)

    wide = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.5)
    field_wide = sample_intensity_field(wide, 10**6, omega_c0, trajectory_rng(1, 0))
    assert field_wide.clamp_count > 0
    assert field_wide.amplitudes.min() == 0.0
    with pytest.raises(ValueError, match="intensity"):
        sample_intensity_field(NoiseSpec(kind=KIND_FREQUENCY, std_dev=0.1), 10, omega_c0, trajectory_rng(0, 0))


def test_zero_width_draws_are_exactly_zero():
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.0)
    field = sample_intensity_field(spec, 1000, 500.0, trajectory_rng(0, 0))
    assert np.all(field.offsets == 0.0)
    assert np.all(field.amplitudes == 500.0)
    fspec = NoiseSpec(kind=KIND_FREQUENCY, std_dev=0.0)
    assert np.all(sample_frequency_offsets(fspec, 1000, trajectory_rng(0, 0)) == 0.0)
    with pytest.raises(ValueError, match="frequency"):
        sample_frequency_offsets(spec, 10, trajectory_rng(0, 0))


@pytest.mark.parametrize("kind", [KIND_INTENSITY, KIND_FREQUENCY])
def test_zero_noise_reproduces_the_deterministic_scan(kind, fast_calibration):
    s0, _ = fast_calibration(180.0)
    spec = NoiseSpec(kind=kind, std_dev=0.0, trajectories=3, seed=5)
    scan = noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, s0=s0)
    clean = transverse_scan(CFG180, mode=MODE_NONE, r_max=0.06, n_samples=121)
    n = clean.sigma.size
    assert np.array_equal(scan.profile.sigma[n - 1 :], clean.sigma)
    assert np.all(scan.spread == 0.0)
    assert scan.clamp_count == 0
    assert scan.profile.peak == 1.0 and scan.profile.peak_coord == 0.0


def test_reruns_and_worker_counts_leave_the_average_unchanged(fast_calibration):
    s0, _ = fast_calibration(180.0)
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.3, trajectories=8, seed=11)
    one = noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, s0=s0)
    again = noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, s0=s0)
    pooled = noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, s0=s0, threads=4)
    assert np.array_equal(one.profile.sigma, again.profile.sigma)
    assert np.array_equal(one.spread, again.spread)
    assert np.array_equal(one.profile.sigma, pooled.profile.sigma)
    assert np.array_equal(one.spread, pooled.spread)


def test_stronger_intensity_noise_broadens_the_averaged_peak(fast_calibration):
    s0, _ = fast_calibration(180.0)

    def width(std):
        spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=std, trajectories=10, seed=13)
        return noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, s0=s0)

    clean = width(0.0).profile.fwhm
    mild = width(0.2)
    strong = width(0.5)
    assert clean == pytest.approx(0.011094, rel=1e-3)
    assert mild.profile.fwhm == pytest.approx(0.0119063, rel=1e-3)
    assert strong.profile.fwhm == pytest.approx(0.0123438, rel=1e-3)
    # 20% amplitude noise leaves the width within 20% of the clean value
    assert abs(mild.profile.fwhm - clean) / clean < 0.20
    assert strong.profile.fwhm > mild.profile.fwhm
    assert strong.clamp_count > 0 and mild.clamp_count == 0


def test_frequency_noise_only_matters_where_the_control_is_weak(fast_calibration):
    s0, _ = fast_calibration(180.0)
    # half-megahertz detuning jitter, on the order of the residual shift
    spec = NoiseSpec(kind=KIND_FREQUENCY, std_dev=TWO_PI * 0.5, seed=3)
    assert spec.std_dev / s0 == pytest.approx(0.5 / 0.42, rel=0.02)
    scan = noisy_transverse_scan(CFG180, spec, x_max=1.2, n_samples=121, s0=s0)
    core = spread_at(scan, 0.0)
    waist = spread_at(scan, CFG180.beam.waist_w0)
    assert core >= 5.0 * waist
    assert core > 0.05
    # the averaged profile is too ragged for a single-peak width
    assert scan.profile.fwhm is None


def test_noisy_scan_input_validation(fast_calibration):
    s0, _ = fast_calibration(180.0)
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.1)
    with pytest.raises(ValueError, match="n_samples"):
        noisy_transverse_scan(CFG180, spec, n_samples=10, s0=s0)
    with pytest.raises(ValueError, match="x_max"):
        noisy_transverse_scan(CFG180, spec, x_max=0.0, s0=s0)
    for x_max in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="x_max must be finite"):
            noisy_transverse_scan(CFG180, spec, x_max=x_max, s0=s0)
