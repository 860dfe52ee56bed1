"""Release gate: every headline number and behavior the package promises.

Each test covers one numbered claim and prints a single PASS/FAIL line with
the measured values (visible with -s, or in the captured output on failure).
Tolerances are stated inline and are not to be loosened; a red line here
means the physics or the numerics regressed.
"""

import math

import numpy as np
import pytest

from oracles import GROUND, drive_at_intensity_ratio, halved, random_drive, rk4_run, settle_plan
from vortexloc import make_config
from vortexloc.bloch import linewidth_from, steady_sigma_rr, steady_time
from vortexloc.config import TWO_PI
from vortexloc.localization import (
    MODE_PARTIAL,
    MODE_PERFECT,
    OFFSET_DETUNED,
    analytic_a_r,
    analytic_a_z,
    iso_extents,
    longitudinal_scan,
    map3d,
    oam_broadening_scan,
    transverse_scan,
)
from vortexloc.meanfield import FAST_SPACING, REFERENCE_SPACING, QuadratureSpec, ShiftQuadrature
from vortexloc.noise import (
    KIND_FREQUENCY,
    KIND_INTENSITY,
    NoiseSpec,
    noisy_transverse_scan,
    spread_at,
)

LAMBDA_C = 0.48


def _verdict(num: int, checks: list[tuple[bool, str]]) -> None:
    failed = [label for ok, label in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {num:02d}: {status} | " + "; ".join(label for _, label in checks))
    assert not failed, f"criterion {num:02d}: " + "; ".join(failed)


def _core_w(config) -> float:
    ip = config.probe.omega_p0**2
    return float(linewidth_from(ip, 0.0, config.probe.delta_p, config.medium.gamma))


def test_criterion_01_transverse_resolution():
    checks = []
    fwhm_500 = transverse_scan(make_config(kappa=500.0)).fwhm
    checks.append(
        (abs(fwhm_500 - 0.004) <= 0.001, f"fwhm(500)={fwhm_500 * 1e3:.4f} nm in 4+-1")
    )
    for kappa in (50.0, 100.0, 200.0, 500.0):
        got = transverse_scan(make_config(kappa=kappa)).fwhm
        want = analytic_a_r(kappa)
        checks.append(
            (
                abs(got - want) <= 0.05 * want,
                f"kappa={kappa:g} numeric={got:.6f} analytic={want:.6f}",
            )
        )
    _verdict(1, checks)


def test_criterion_02_working_point_width_and_settling():
    fwhm = transverse_scan(make_config(kappa=180.0)).fwhm
    t_s = steady_time(drive_at_intensity_ratio(180.0), rel_tol=0.01, t_budget=30.0)
    _verdict(
        2,
        [
            (abs(fwhm - 0.011) <= 0.002, f"fwhm={fwhm * 1e3:.3f} nm in 11+-2"),
            (abs(t_s - 11.0) <= 0.2 * 11.0, f"t_s={t_s:.3f} us in 11+-20%"),
        ],
    )


def test_criterion_03_steady_time_grows_with_kappa():
    budgets = {10.0: 5.0, 100.0: 20.0, 180.0: 30.0, 500.0: 150.0}
    times = {
        kappa: steady_time(drive_at_intensity_ratio(kappa), rel_tol=0.01, t_budget=budget)
        for kappa, budget in budgets.items()
    }
    ordered = [times[k] for k in sorted(times)]
    _verdict(
        3,
        [
            (abs(times[500.0] - 86.0) <= 0.2 * 86.0, f"t_s(500)={times[500.0]:.2f} us in 86+-20%"),
            (
                all(a < b for a, b in zip(ordered, ordered[1:])),
                "monotone " + " < ".join(f"{t:.3f}" for t in ordered),
            ),
        ],
    )


def test_criterion_04_delta_calibration(full_calibration, fast_calibration):
    targets_mhz = {10.0: 37.77, 100.0: 31.15, 500.0: 30.063}
    checks = []
    for kappa, delta_target in targets_mhz.items():
        s0_full, delta_full = full_calibration(kappa)
        cfg = make_config(kappa=kappa)
        offset_mhz = (delta_full - cfg.detuning.delta_shift) / TWO_PI
        offset_target = delta_target - 30.0
        checks.append(
            (
                abs(offset_mhz - offset_target) <= 0.02 * offset_target,
                f"kappa={kappa:g} offset={offset_mhz:.4f} MHz vs {offset_target:.3f}",
            )
        )
        s0_fast, _ = fast_calibration(kappa)
        checks.append(
            (
                abs(s0_fast - s0_full) <= 0.01 * s0_full,
                f"kappa={kappa:g} fast-vs-full {abs(s0_fast - s0_full) / s0_full:.2e}",
            )
        )
    _verdict(4, checks)


def test_criterion_05_residual_shift_at_the_working_point(full_calibration):
    s0, _ = full_calibration(180.0)
    s0_mhz = s0 / TWO_PI
    _verdict(
        5,
        [(abs(s0_mhz - 0.42) <= 0.05 * 0.42, f"s0(180)={s0_mhz:.5f} MHz vs 0.42+-5%")],
    )


def test_criterion_06_orbital_winding_broadens_the_spot():
    widths = dict(oam_broadening_scan(make_config(kappa=10.0)))
    ordered = [widths[l] for l in range(1, 6)]
    _verdict(
        6,
        [
            (abs(widths[5] - 1.39) <= 0.05 * 1.39, f"fwhm(l=5)={widths[5]:.4f} um vs 1.39+-5%"),
            (
                all(a < b for a, b in zip(ordered, ordered[1:])),
                "increasing " + " < ".join(f"{w:.3f}" for w in ordered),
            ),
        ],
    )


def test_criterion_07_longitudinal_localization(fast_calibration):
    cfg = make_config(kappa=500.0)
    s0, _ = fast_calibration(500.0)
    scan = longitudinal_scan(cfg, s0=s0)
    period = cfg.detuning.period
    shifted = longitudinal_scan(
        cfg,
        z_range=(scan.peak_coord - 0.5 * period + LAMBDA_C, scan.peak_coord + 0.5 * period + LAMBDA_C),
        s0=s0,
    )
    a_z = analytic_a_z(_core_w(cfg), cfg.detuning.delta_c0, LAMBDA_C)
    ladder = [
        analytic_a_z(_core_w(make_config(kappa=k)), cfg.detuning.delta_c0, LAMBDA_C)
        for k in (10.0, 50.0, 100.0, 200.0, 500.0)
    ]
    _verdict(
        7,
        [
            (
                abs(scan.peak_coord - 0.75 * LAMBDA_C) <= 2e-3,
                f"peak at {scan.peak_coord:.4f} um vs (3/4)lambda={0.75 * LAMBDA_C:.4f}",
            ),
            (
                abs(shifted.peak_coord - 1.75 * LAMBDA_C) <= 2e-3,
                f"next peak at {shifted.peak_coord:.4f} um vs (7/4)lambda={1.75 * LAMBDA_C:.4f}",
            ),
            (0.5 * 0.0022 <= a_z <= 2.0 * 0.0022, f"a_z(500)={a_z * 1e3:.3f} nm vs 2.2 within x2"),
            (
                abs(scan.fwhm - a_z) <= 0.05 * a_z,
                f"numeric={scan.fwhm:.6f} um vs analytic={a_z:.6f}",
            ),
            (
                all(a > b for a, b in zip(ladder, ladder[1:])),
                "a_z decreasing " + " > ".join(f"{w:.4f}" for w in ladder),
            ),
        ],
    )


def test_criterion_08_antiblockade_ordering():
    quad = QuadratureSpec.scaled(LAMBDA_C, 0.05)
    checks = []
    for kappa in (10.0, 100.0, 500.0):
        wide = make_config(kappa=kappa, waist_w0_um=5.0)
        partial = transverse_scan(wide, mode=MODE_PARTIAL, quadrature=ShiftQuadrature(quad), n_samples=100)
        perfect = transverse_scan(wide, mode=MODE_PERFECT, quadrature=ShiftQuadrature(quad), n_samples=100)
        checks.append(
            (
                partial.fwhm < perfect.fwhm,
                f"W0=5 kappa={kappa:g} partial={partial.fwhm:.4f} < perfect={perfect.fwhm:.4f}",
            )
        )
    narrow = make_config(kappa=10.0)
    partial = transverse_scan(narrow, mode=MODE_PARTIAL, quadrature=ShiftQuadrature(quad), n_samples=100)
    perfect = transverse_scan(narrow, mode=MODE_PERFECT, quadrature=ShiftQuadrature(quad), n_samples=100)
    gap = float(np.max(np.abs(partial.sigma - perfect.sigma)))
    checks.append((gap <= 0.01, f"W0=1 kappa=10 pointwise gap={gap:.4f} <= 0.01"))
    _verdict(8, checks)


def test_criterion_09_detuning_destroys_the_3d_peak(full_calibration):
    checks = []
    for kappa in (10.0, 100.0, 500.0):
        cfg = make_config(kappa=kappa)
        s0, _ = full_calibration(kappa)
        calibrated = map3d(cfg, s0=s0)
        detuned = map3d(cfg, s0=s0, delta_offset_mode=OFFSET_DETUNED)
        peak = float(detuned.field.max())
        checks.append((peak < 1.0, f"kappa={kappa:g} detuned peak={peak:.4f} < 1"))
        cal_ext = iso_extents(calibrated)
        det_ext = iso_extents(detuned)
        for axis in ("x", "y", "z"):
            cal_lo, cal_hi = cal_ext[axis]
            if det_ext[axis] is None:
                checks.append((True, f"kappa={kappa:g} {axis}: extent vanished"))
                continue
            det_lo, det_hi = det_ext[axis]
            checks.append(
                (
                    det_hi - det_lo > cal_hi - cal_lo,
                    f"kappa={kappa:g} {axis}: {det_hi - det_lo:.4f} > {cal_hi - cal_lo:.4f}",
                )
            )
    _verdict(9, checks)


def test_criterion_10_property_suites(full_calibration, fast_calibration):
    checks = []

    rng = np.random.default_rng(2026)
    worst_sigma = 0.0
    worst_trace = 0.0
    for _ in range(20):
        drive = random_drive(rng)
        states = rk4_run(GROUND, drive, *settle_plan(drive))
        worst_sigma = max(worst_sigma, abs(states[-1, 2] - steady_sigma_rr(drive)))
        worst_trace = max(worst_trace, float(np.max(np.abs(states[:, :3].sum(axis=1) - 1.0))))
    checks.append((worst_sigma <= 1e-6, f"ode-vs-analytic {worst_sigma:.2e} <= 1e-6"))
    checks.append((worst_trace <= 1e-9, f"trace drift {worst_trace:.2e} <= 1e-9"))

    s0_fast, _ = fast_calibration(100.0)
    s0_full, _ = full_calibration(100.0)
    halving = abs(s0_fast - s0_full) / s0_full
    checks.append(
        (
            halved(QuadratureSpec.scaled(LAMBDA_C, FAST_SPACING))
            == QuadratureSpec.scaled(LAMBDA_C, REFERENCE_SPACING)
            and halving <= 0.01,
            f"halving convergence {halving:.2e} <= 1e-2",
        )
    )

    cfg = make_config(kappa=180.0)
    s0_180, _ = fast_calibration(180.0)
    silent = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.0, trajectories=3, seed=5)
    noisy = noisy_transverse_scan(cfg, silent, x_max=0.06, n_samples=121, s0=s0_180)
    clean = transverse_scan(cfg, r_max=0.06, n_samples=121)
    n = clean.sigma.size
    zero_ok = (
        noisy.profile.sigma[-n:].tobytes() == clean.sigma.tobytes()
        and not noisy.spread.any()
    )
    checks.append((zero_ok, "zero-noise run byte-identical to the deterministic scan"))

    loud = NoiseSpec(kind=KIND_INTENSITY, std_dev=0.3, trajectories=8, seed=11)
    # s0=None, so the threads reach the calibration quadrature
    coarse = QuadratureSpec.scaled(cfg.beam.wavelength_c, 0.1)
    serial, pooled = (
        noisy_transverse_scan(cfg, loud, x_max=0.06, n_samples=121, quadrature=ShiftQuadrature(coarse, threads=t))
        for t in (1, 4)
    )
    thread_ok = (
        serial.profile.s0 == pooled.profile.s0
        and serial.profile.sigma.tobytes() == pooled.profile.sigma.tobytes()
        and serial.spread.tobytes() == pooled.spread.tobytes()
    )
    checks.append((thread_ok, "threads=1 and threads=4 byte-identical"))

    jitter = NoiseSpec(kind=KIND_FREQUENCY, std_dev=TWO_PI * 0.5, seed=3)
    scan = noisy_transverse_scan(cfg, jitter, x_max=1.2, n_samples=121, s0=s0_180)
    core = spread_at(scan, 0.0)
    waist = spread_at(scan, cfg.beam.waist_w0)
    checks.append(
        (core >= 5.0 * waist, f"frequency spread core={core:.4f} >= 5x waist={waist:.2e}")
    )

    _verdict(10, checks)
