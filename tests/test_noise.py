"""Monte-Carlo drive-noise robustness: reproducibility and peak survival."""

import re

import numpy as np
import pytest

from vortexloc import make_config, noise
from vortexloc.bloch import steady_population
from vortexloc.config import TWO_PI
from vortexloc.fields import control_envelope
from vortexloc.meanfield import QuadratureSpec, ShiftQuadrature
from vortexloc.localization import MODE_NONE, transverse_scan
from vortexloc.noise import (
    KIND_FREQUENCY,
    KIND_INTENSITY,
    NoiseSpec,
    noisy_transverse_scan,
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


@pytest.mark.parametrize("kind, std_dev", [(KIND_INTENSITY, 0.6), (KIND_FREQUENCY, TWO_PI * 0.5)])
def test_one_trajectory_is_its_draws_through_the_steady_formula(kind, std_dev):
    # trajectory 0 rebuilt from its own stream: one N(0, scale) draw per x
    # sample, on the peak amplitude (clamped at zero) or on the two-photon detuning
    s0 = TWO_PI * 0.415
    spec = NoiseSpec(kind=kind, std_dev=std_dev, trajectories=1, seed=21)
    scan = noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, s0=s0)
    r = np.linspace(0.0, 0.06, 121)
    u = np.abs(np.concatenate([-r[:0:-1], r]))
    beam, dp = CFG180.beam, CFG180.probe.delta_p
    if kind == KIND_INTENSITY:
        raw = beam.omega_c0 + trajectory_rng(21, 0).normal(0.0, std_dev * beam.omega_c0, size=u.size)
        env = control_envelope(u, beam, amplitude=np.maximum(raw, 0.0))
        two_photon = dp
        clamps = int(np.count_nonzero(raw < 0.0))
        assert clamps > 0
    else:
        env = control_envelope(u, beam)
        two_photon = dp + trajectory_rng(21, 0).normal(0.0, std_dev, size=u.size)
        clamps = 0
    assert np.array_equal(scan.profile.sigma, steady_population(CFG180, env * env, two_photon))
    assert scan.clamp_count == clamps
    assert np.all(scan.spread == 0.0)


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


def test_reruns_and_worker_counts_leave_the_average_unchanged():
    # s0 is left to the calibration, the one step that uses the worker count
    lattice = QuadratureSpec.scaled(CFG180.beam.wavelength_c, 0.1)
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.3, trajectories=8, seed=11)

    def scan(threads):
        quadrature = ShiftQuadrature(lattice, threads=threads)
        return noisy_transverse_scan(CFG180, spec, x_max=0.06, n_samples=121, quadrature=quadrature)

    one, again, pooled = scan(1), scan(1), scan(4)
    assert np.array_equal(one.profile.sigma, again.profile.sigma)
    assert np.array_equal(one.spread, again.spread)
    assert one.profile.s0 == pooled.profile.s0
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


@pytest.mark.parametrize(
    "kind, std_dev, level",
    [(KIND_INTENSITY, 1e300, "1e+300"), (KIND_FREQUENCY, 1e200, "1e+200 rad/us (1.59155e+199 MHz)")],
    ids=["intensity-1e+300", "frequency-1e+200"],
)
def test_a_noise_level_that_overflows_is_refused_by_name(kind, std_dev, level):
    # an intensity level is a fraction of the peak amplitude; a frequency level
    # is named in rad/us, the library's unit, and in MHz, the command line's
    s0 = TWO_PI * 0.4
    with pytest.raises(ValueError, match=re.escape(f"{kind} noise of std_dev {level} overflows the steady population")):
        noisy_transverse_scan(CFG180, NoiseSpec(kind=kind, std_dev=std_dev, trajectories=2), s0=s0)
    # a level whose squared amplitudes stay finite still averages to finite numbers
    scan = noisy_transverse_scan(CFG180, NoiseSpec(kind=kind, std_dev=1e150, trajectories=2), s0=s0)
    assert np.isfinite(scan.profile.sigma).all() and np.isfinite(scan.spread).all()


def test_trajectories_times_samples_above_the_cap_are_refused_before_any_draw(monkeypatch):
    # with the cap lowered to 3 x 100, three 100-sample trajectories run, and a
    # fourth is refused before the calibration, the draws or the envelope
    monkeypatch.setattr(noise, "_MAX_TRAJECTORY_SAMPLES", 300)
    s0 = TWO_PI * 0.415
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.1, trajectories=3)
    assert noisy_transverse_scan(CFG180, spec, n_samples=100, s0=s0).spread.size == 199
    for name in ("_resolve_offsets", "trajectory_rng", "control_envelope"):
        monkeypatch.setattr(noise, name, None)
    spec = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.1, trajectories=4)
    with pytest.raises(ValueError, match=r"^trajectories x samples must be at most 300, got 4 x 100$"):
        noisy_transverse_scan(CFG180, spec, n_samples=100, s0=s0)
