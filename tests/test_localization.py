"""Transverse/longitudinal localization profiles, 3D maps, width extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexloc import make_config
from vortexloc.bloch import linewidth_from, sigma_rr_steady
from vortexloc.config import TWO_PI, Position
from vortexloc.fields import control_envelope
from vortexloc.localization import (
    HALF_MAX,
    MODE_NONE,
    MODE_PARTIAL,
    MODE_PERFECT,
    OFFSET_CALIBRATED,
    OFFSET_DETUNED,
    analytic_a_r,
    analytic_a_z,
    extract_fwhm,
    iso_extents,
    longitudinal_scan,
    map3d,
    map_window,
    oam_broadening_scan,
    _run_around,
    transverse_scan,
)
from vortexloc.meanfield import QuadratureSpec, ShiftQuadrature, localized_point, shift_at

CFG = make_config()

# mode-"none" transverse widths, frozen for regression (um)
FWHM_NONE = {50.0: 0.039990, 100.0: 0.020010, 180.0: 0.011104, 200.0: 0.009990, 500.0: 0.004014}

# unshifted widths for winding numbers 1..5 at kappa=10, frozen (um)
FWHM_BY_L = [0.20206, 0.66882, 1.01083, 1.23771, 1.38987]


def _core_w(config):
    ip = config.probe.omega_p0**2
    return float(linewidth_from(ip, 0.0, config.probe.delta_p, config.medium.gamma))


def test_analytic_transverse_width():
    root8 = 2.0 * 2.0**0.5
    assert analytic_a_r(root8, 1.0) == pytest.approx(1.0, abs=1e-7)
    assert analytic_a_r(500.0) == pytest.approx(0.0040002, rel=1e-4)
    assert analytic_a_r(500.0, w0=2.0) == pytest.approx(2.0 * analytic_a_r(500.0), rel=1e-12)
    with pytest.raises(ValueError, match="waist"):
        analytic_a_r(100.0, w0=0.0)
    with pytest.raises(ValueError, match="kappa"):
        analytic_a_r(2.0)


def test_analytic_longitudinal_width():
    lam = CFG.beam.wavelength_c
    d0 = CFG.detuning.delta_c0
    assert analytic_a_z(_core_w(CFG), d0, lam) == pytest.approx(0.017571, rel=1e-3)
    # the widest admissible line covers the whole period
    assert analytic_a_z(2.0 * d0, d0, lam) == pytest.approx(lam, rel=1e-12)
    with pytest.raises(ValueError, match="wavelength"):
        analytic_a_z(1.0, d0, 0.0)
    with pytest.raises(ValueError, match="modulation depth"):
        analytic_a_z(1.0, 0.0, lam)
    with pytest.raises(ValueError, match="linewidth w"):
        analytic_a_z(2.1 * d0, d0, lam)


@pytest.mark.parametrize("kappa", sorted(FWHM_NONE))
def test_transverse_width_tracks_the_analytic_value(kappa):
    profile = transverse_scan(make_config(kappa=kappa), mode=MODE_NONE)
    assert profile.fwhm == pytest.approx(FWHM_NONE[kappa], rel=1e-3)
    assert profile.fwhm == pytest.approx(analytic_a_r(kappa), rel=5e-3)
    assert profile.peak == 1.0
    assert profile.peak_coord == 0.0
    assert profile.axis == "r" and profile.mode == MODE_NONE


def test_perfect_tracking_restores_the_unshifted_profile():
    none = transverse_scan(CFG, mode=MODE_NONE)
    perfect = transverse_scan(CFG, mode=MODE_PERFECT)
    assert np.array_equal(none.sigma, perfect.sigma)
    assert none.fwhm == perfect.fwhm


def test_partial_compensation_pins_the_core():
    quad = QuadratureSpec.scaled(CFG.beam.wavelength_c, 0.1)
    cfg = make_config(kappa=10.0)
    partial = transverse_scan(cfg, mode=MODE_PARTIAL, n_samples=100, quadrature=ShiftQuadrature(quad))
    none = transverse_scan(cfg, mode=MODE_NONE, n_samples=100)
    assert partial.sigma[0] == 1.0
    assert partial.s0 is not None and partial.s0 > 0.0
    # at a 1 um waist the shift profile is flat enough to stay within 2%
    assert np.max(np.abs(partial.sigma - none.sigma) / none.sigma) < 0.02


# a 500 x 500 lattice keeps the per-position oracles below a second
TINY = QuadratureSpec.scaled(CFG.beam.wavelength_c, 0.2)


def _partial_scan_oracle(config, n_samples, quad):
    """Partial-mode sigma, s0 and FWHM with one shift_at call per radius, grid and bisection alike."""
    ip, dp, gamma = config.probe.omega_p0 * config.probe.omega_p0, config.probe.delta_p, config.medium.gamma
    z_loc = 0.75 * config.beam.wavelength_c
    r = np.linspace(0.0, 1.5 * config.beam.waist_w0, n_samples)

    def s_of(radius):
        return shift_at(Position(r=float(radius), z=z_loc), config, quadrature=ShiftQuadrature(quad))

    s_grid = np.array([s_of(x) for x in r])
    s0 = float(s_grid[0])
    env = control_envelope(r, config.beam)
    sigma = sigma_rr_steady(ip, env * env, dp, dp + (s0 - s_grid), gamma)

    def excess(radius):
        env = control_envelope(radius, config.beam)
        return float(sigma_rr_steady(ip, env * env, dp, dp + (s0 - s_of(radius)), gamma)) - 0.5

    i = int(np.nonzero(sigma < 0.5)[0][0])
    lo, hi = r[i - 1], r[i]
    f_lo = excess(lo)
    while hi - lo > 1e-4 * config.beam.wavelength_c:
        mid = 0.5 * (lo + hi)
        if (excess(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return sigma, s0, 2.0 * (0.5 * (lo + hi))


@pytest.mark.parametrize("kappa", [10.0, 180.0])
def test_partial_scan_equals_the_per_position_oracle(kappa):
    cfg = make_config(kappa=kappa)
    scan = transverse_scan(cfg, mode=MODE_PARTIAL, n_samples=100, quadrature=ShiftQuadrature(TINY))
    sigma, s0, fwhm = _partial_scan_oracle(cfg, 100, TINY)
    assert np.array_equal(scan.sigma, sigma)
    assert scan.s0 == s0
    assert scan.fwhm == fwhm


def test_partial_scans_leave_no_state_behind():
    a, b = make_config(kappa=180.0), make_config(kappa=250.0)

    def scans(configs):
        return [transverse_scan(c, mode=MODE_PARTIAL, n_samples=100, quadrature=ShiftQuadrature(TINY)) for c in configs]

    first = scans((a, b))
    second = scans((b, a))[::-1]
    for x, y in zip(first, second):
        assert np.array_equal(x.sigma, y.sigma)
        assert (x.s0, x.fwhm) == (y.s0, y.fwhm)


def test_transverse_scan_input_validation():
    with pytest.raises(ValueError, match="unknown antiblockade mode"):
        transverse_scan(CFG, mode="full")
    with pytest.raises(ValueError, match="n_samples"):
        transverse_scan(CFG, n_samples=50)
    with pytest.raises(ValueError, match="r_max"):
        transverse_scan(CFG, r_max=-1.0)
    for r_max in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="r_max must be finite"):
            transverse_scan(CFG, r_max=r_max)
    with pytest.raises(ValueError, match="widen"):
        transverse_scan(CFG, r_max=0.001)


def test_broader_vortices_widen_the_profile():
    results = oam_broadening_scan(make_config(kappa=10.0))
    widths = [w for _, w in results]
    assert [l for l, _ in results] == [1, 2, 3, 4, 5]
    assert widths == pytest.approx(FWHM_BY_L, rel=1e-3)
    assert all(a < b for a, b in zip(widths, widths[1:]))
    with pytest.raises(ValueError, match="winding numbers"):
        oam_broadening_scan(CFG, l_values=(1, 0))


def test_longitudinal_scan_is_locked_to_the_node(fast_calibration):
    s0, _ = fast_calibration(500.0)
    cfg = make_config(kappa=500.0)
    profile = longitudinal_scan(cfg, s0=s0)
    lam = cfg.beam.wavelength_c
    assert profile.peak == 1.0
    assert profile.peak_coord == pytest.approx(0.75 * lam, abs=2e-3)
    a_z = analytic_a_z(_core_w(cfg), cfg.detuning.delta_c0, lam)
    assert profile.fwhm == pytest.approx(a_z, rel=0.01)
    assert profile.mode == OFFSET_CALIBRATED


def test_longitudinal_window_may_sit_on_any_period(fast_calibration):
    s0, _ = fast_calibration(500.0)
    cfg = make_config(kappa=500.0)
    lam = cfg.beam.wavelength_c
    base = longitudinal_scan(cfg, s0=s0)
    z0, z1 = base.coords[0], base.coords[-1]
    shifted = longitudinal_scan(cfg, z_range=(z0 + lam, z1 + lam), s0=s0)
    assert shifted.peak_coord == pytest.approx(1.75 * lam, abs=2e-3)
    assert np.allclose(shifted.sigma, base.sigma, rtol=1e-9, atol=1e-12)
    assert shifted.fwhm == pytest.approx(base.fwhm, abs=1e-6)


def test_detuned_longitudinal_scan_suppresses_the_peak(fast_calibration):
    s0, _ = fast_calibration(100.0)
    w_core = _core_w(CFG)
    profile = longitudinal_scan(CFG, s0=s0, delta_offset=s0 + 0.5 * w_core)
    assert profile.mode == OFFSET_DETUNED
    assert profile.peak == pytest.approx(0.8, abs=1e-6)
    # the absolute half-maximum band shrinks when the line is pushed down
    assert 0.0 < profile.fwhm < analytic_a_z(w_core, CFG.detuning.delta_c0, CFG.beam.wavelength_c)
    # doubling the full offset buries the on-axis line below the half maximum
    with pytest.raises(ValueError, match="never reaches the half maximum"):
        longitudinal_scan(CFG, s0=s0, delta_offset=2.0 * s0)


def test_longitudinal_scan_input_validation(fast_calibration):
    s0, _ = fast_calibration(100.0)
    with pytest.raises(ValueError, match="z_range"):
        longitudinal_scan(CFG, z_range=(0.5, 0.1), s0=s0)
    with pytest.raises(ValueError, match="n_samples"):
        longitudinal_scan(CFG, n_samples=10, s0=s0)


def test_default_map_extents_frame_the_peak():
    x_ext, y_ext, (z_lo, z_hi) = map_window(CFG)
    half = 3.0 * analytic_a_r(CFG.kappa, CFG.beam.waist_w0)
    assert x_ext == y_ext == (-half, half)
    z_node = 0.75 * CFG.beam.wavelength_c
    assert z_hi - z_node == pytest.approx(z_node - z_lo, rel=1e-12)
    assert 0.0 < z_hi - z_node <= 0.5 * CFG.detuning.period
    # a given transverse half-extent replaces only the x and y windows
    assert map_window(CFG, 0.05) == ((-0.05, 0.05), (-0.05, 0.05), (z_lo, z_hi))


def test_a_custom_period_puts_the_working_point_and_its_windows_on_the_node():
    # the node is three quarters of the modulation period up, not of the control wavelength
    config = make_config(kappa=180.0, period_um=0.4567)
    z_node = localized_point(config).z
    assert z_node == 0.75 * config.detuning.period
    s0 = TWO_PI * 0.415
    window = map_window(config)
    assert 0.5 * (window[2][0] + window[2][1]) == pytest.approx(z_node, abs=1e-12)
    volume = map3d(config, extents=window, samples_per_axis=31, s0=s0)
    assert volume.field.max() == pytest.approx(1.0, abs=1e-12)
    z_lo, z_hi = iso_extents(volume)["z"]
    assert 0.5 * (z_lo + z_hi) == pytest.approx(z_node, abs=1e-9)
    profile = longitudinal_scan(config, s0=s0)
    assert abs(profile.peak_coord - z_node) <= 0.5 * (profile.coords[1] - profile.coords[0])


def test_the_map_window_along_z_scales_with_the_modulation_period():
    # three longitudinal widths of the standing wave, which scale with its period, not with lambda_c
    config = make_config(kappa=180.0, period_um=0.4567)
    z_lo, z_hi = map_window(config)[2]
    assert 0.5 * (z_hi - z_lo) == pytest.approx(0.02848, abs=5e-6)
    assert 0.5 * (z_hi - z_lo) == pytest.approx(3.0 * analytic_a_z(_core_w(config), config.detuning.delta_c0, 0.4567))


def test_map_is_symmetric_under_beam_rotations(fast_calibration):
    s0, _ = fast_calibration(100.0)
    # binary-exact grid values (a 1/256 step in x and y) keep the x -> -x reflection bitwise exact
    half = 1.0 / 16.0
    ext = ((-half, half), (-half, half), (0.30, 0.42))
    volume = map3d(CFG, extents=ext, samples_per_axis=33, s0=s0)
    assert np.array_equal(volume.field, volume.field.transpose(1, 0, 2))
    assert np.array_equal(volume.field, volume.field[::-1, :, :])
    assert np.array_equal(volume.field, volume.field[:, ::-1, :])
    assert volume.field.max() == 1.0


def test_map_half_maximum_extents_match_the_analytic_widths(fast_calibration):
    s0, _ = fast_calibration(100.0)
    volume = map3d(CFG, s0=s0)
    spans = iso_extents(volume)
    a_r = analytic_a_r(CFG.kappa)
    a_z = analytic_a_z(_core_w(CFG), CFG.detuning.delta_c0, CFG.beam.wavelength_c)
    for axis in ("x", "y"):
        lo, hi = spans[axis]
        assert hi - lo == pytest.approx(a_r, rel=0.02)
    lo, hi = spans["z"]
    assert hi - lo == pytest.approx(a_z, rel=0.02)


def test_detuned_map_suppresses_the_peak(fast_calibration):
    s0, _ = fast_calibration(100.0)
    volume = map3d(CFG, delta_offset_mode=OFFSET_DETUNED, s0=s0)
    assert volume.delta_offset == 2.0 * s0
    assert volume.field.max() < 1.0


def test_per_voxel_shifts_stay_close_to_the_frozen_core_value():
    quad = QuadratureSpec.scaled(CFG.beam.wavelength_c, 0.1)
    ext = ((-0.02, 0.02), (-0.02, 0.02), (0.35, 0.37))
    s0 = shift_at(localized_point(CFG), CFG, quadrature=ShiftQuadrature(quad))
    frozen = map3d(CFG, extents=ext, samples_per_axis=9, s0=s0, quadrature=ShiftQuadrature(quad))
    exact = map3d(CFG, extents=ext, samples_per_axis=9, s0=s0, quadrature=ShiftQuadrature(quad), per_voxel_exact=True)
    # the shift profile is flat across this window, so freezing it at the
    # core value is a sub-2% approximation of the exact field
    assert np.max(np.abs(exact.field - frozen.field)) < 0.02


def test_per_voxel_field_equals_the_per_position_oracle():
    ext = ((-0.02, 0.02), (-0.02, 0.02), (0.35, 0.37))
    s0 = 2.6
    exact = map3d(CFG, extents=ext, samples_per_axis=9, s0=s0, quadrature=ShiftQuadrature(TINY), per_voxel_exact=True)
    ip, dp, gamma = CFG.probe.omega_p0 * CFG.probe.omega_p0, CFG.probe.delta_p, CFG.medium.gamma
    mod = CFG.detuning
    tp_z = dp + mod.delta_c0 * (np.sin(TWO_PI * exact.z / mod.period) + 1.0)
    oracle = np.empty_like(exact.field)
    for i, x in enumerate(exact.x):
        for j, y in enumerate(exact.y):
            r = float(np.hypot(x, y))
            env = control_envelope(r, CFG.beam)
            for k, z in enumerate(exact.z):
                s_here = shift_at(Position(r=r, z=float(z)), CFG, quadrature=ShiftQuadrature(TINY))
                oracle[i, j, k] = sigma_rr_steady(ip, env * env, dp, tp_z[k] + s0 - s_here, gamma)
    assert np.array_equal(exact.field, oracle)


def test_per_voxel_mode_is_exact_when_the_shift_is_uniform():
    cfg = make_config(c6_mhz_um6=0.0)
    ext = ((-0.02, 0.02), (-0.02, 0.02), (0.35, 0.37))
    frozen = map3d(cfg, extents=ext, samples_per_axis=9)
    exact = map3d(cfg, extents=ext, samples_per_axis=9, per_voxel_exact=True)
    assert np.array_equal(exact.field, frozen.field)
    assert frozen.s0 == 0.0


def test_map_input_validation(fast_calibration):
    s0, _ = fast_calibration(100.0)
    with pytest.raises(ValueError, match="unknown delta offset mode"):
        map3d(CFG, delta_offset_mode="shifted", s0=s0)
    with pytest.raises(ValueError, match="extents"):
        map3d(CFG, extents=((0.1, -0.1), (-0.1, 0.1), (0.3, 0.4)), s0=s0)
    with pytest.raises(ValueError, match=r"x extent \[-inf, inf\] and spacing inf must be finite"):
        map3d(CFG, extents=((-np.inf, np.inf), (-0.1, 0.1), (0.3, 0.4)), s0=s0)
    with pytest.raises(ValueError, match=r"z extent \[0.3, nan\] and spacing nan must be finite"):
        map3d(CFG, extents=((-0.1, 0.1),) * 2 + ((0.3, np.nan),), s0=s0)
    with pytest.raises(ValueError, match="impractical"):
        map3d(CFG, s0=s0, per_voxel_exact=True)
    with pytest.raises(RuntimeError, match="too coarse"):
        map3d(CFG, extents=((-0.05, 0.05),) * 2 + ((0.30, 0.42),), samples_per_axis=3, s0=s0)


def test_map_axes_step_from_the_lower_extent_by_the_sample_count(fast_calibration):
    s0, _ = fast_calibration(100.0)
    extents = map_window(CFG)
    n = 31
    volume = map3d(CFG, extents=extents, samples_per_axis=n, s0=s0)
    for axis, (lo, hi) in zip((volume.x, volume.y, volume.z), extents):
        assert np.array_equal(axis, lo + (hi - lo) / (n - 1) * np.arange(n))
    # the x step is not binary-exact: its last sample misses the upper extent
    assert volume.x[-1] != extents[0][1]
    with pytest.raises(ValueError, match="need at least 2 samples per axis"):
        map3d(CFG, extents=extents, samples_per_axis=1, s0=s0)
    # a fractional count would step past the upper extent
    with pytest.raises(TypeError):
        map3d(CFG, extents=extents, samples_per_axis=30.5, s0=s0)


def test_extract_fwhm_on_a_lorentzian():
    h = 0.013
    x = np.linspace(-0.1, 0.1, 4001)
    fwhm = extract_fwhm(x, 1.0 / (1.0 + (x / h) ** 2), CFG.beam.wavelength_c)
    assert fwhm == pytest.approx(2.0 * h, abs=1e-3 * 2 * h)


def test_extract_fwhm_rejects_degenerate_profiles():
    lam = CFG.beam.wavelength_c
    x = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="no crossing"):
        extract_fwhm(x, np.linspace(0.4, 1.0, 101), lam)
    twin = np.exp(-((x - 0.25) ** 2) / 1e-3) + np.exp(-((x - 0.75) ** 2) / 1e-3)
    with pytest.raises(ValueError, match="multiple peaks"):
        extract_fwhm(x, twin, lam)
    with pytest.raises(ValueError, match="below the half-maximum"):
        extract_fwhm(x, np.full(101, 0.2), lam)
    with pytest.raises(ValueError, match="strictly increasing"):
        extract_fwhm(x[::-1], np.exp(-(x**2)), lam)
    with pytest.raises(ValueError, match="at least 3"):
        extract_fwhm(np.array([0.0, 1.0]), np.array([1.0, 0.0]), lam)
    with pytest.raises(ValueError, match="below the half-maximum"):
        extract_fwhm(x, np.full(101, np.nan), lam)


def _outward_walk(values, i, level):
    """Oracle: the step-by-step walk out from index i that the scans used to write by hand."""
    left = right = i
    while right + 1 < len(values) and values[right + 1] >= level:
        right += 1
    while left - 1 >= 0 and values[left - 1] >= level:
        left -= 1
    return left, right


_SAMPLES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, float("nan")]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_SAMPLES, min_size=1, max_size=40), data=st.data())
def test_run_search_equals_the_outward_walk(values, data):
    values = np.array(values)
    i = data.draw(st.integers(0, values.size - 1))
    assert _run_around(values, i, HALF_MAX) == _outward_walk(values, i, HALF_MAX)
