"""Command-line front end.

Parameters resolve in precedence order: command-line flags, then the INI
config file, then built-in defaults. All progress goes to stderr; stdout
carries exactly one summary line per successful run, and result files are
byte-reproducible for equal inputs (worker count and wall time never enter
file content).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time

import numpy as np

from . import bloch, localization, meanfield, noise, output
from .config import (
    Position,
    SystemConfig,
    angular_from_mhz,
    make_config,
    mhz_from_angular,
)
from .fields import control_envelope, eta_of_radius
from .meanfield import MASK_ATOM, MASK_LOCAL, QuadratureSpec

# make_config kwarg for each (section, key) pair accepted in config files.
_CONFIG_KEYS: dict[tuple[str, str], tuple[str, type]] = {
    ("beam", "omega_c0"): ("omega_c0_mhz", float),
    ("beam", "waist_w0"): ("waist_w0_um", float),
    ("beam", "winding_l"): ("winding_l", int),
    ("beam", "wavelength_c"): ("wavelength_c_um", float),
    ("probe", "omega_p0"): ("omega_p0_mhz", float),
    ("probe", "kappa"): ("kappa", float),
    ("probe", "delta_p"): ("delta_p_mhz", float),
    ("detuning", "mode"): ("detuning_mode", str),
    ("detuning", "delta_c_const"): ("delta_c_const_mhz", float),
    ("detuning", "delta_c0"): ("delta_c0_mhz", float),
    ("detuning", "delta_shift"): ("delta_shift_mhz", float),
    ("detuning", "period"): ("period_um", float),
    ("medium", "gamma_e"): ("gamma_e_mhz", float),
    ("medium", "gamma_r"): ("gamma_r_mhz", float),
    ("medium", "density_rho"): ("density_rho_um3", float),
    ("medium", "c6"): ("c6_mhz_um6", float),
}

_MAX_THREADS = 64

_QUAD_KEYS = {"spacing": float, "extent": float}
_NOISE_KEYS = {"kind": str, "std": float, "trajectories": int, "seed": int}

_OP_NAMES = {
    "steady": "steady_sigma_rr",
    "scan-r": "transverse_scan",
    "scan-z": "longitudinal_scan",
    "scan-l": "oam_broadening_scan",
    "map3d": "map3d",
    "shift": "shift_profile",
    "calibrate-delta": "calibrate_delta",
    "blockade": "blockade_boundary",
    "steady-time": "steady_time",
    "noise": "noisy_transverse_scan",
}


def parse_config(path: str) -> dict:
    """Read an INI config file into {'config': make_config kwargs, 'quadrature': ..., 'noise': ...}.

    Frequencies are MHz, lengths um; quadrature spacing and extent are
    multiples of the control wavelength. Unknown sections or keys are errors.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file '{path}' is malformed: {exc}") from exc
    if not read:
        raise ValueError(f"config file '{path}' not found or unreadable")
    out: dict = {"config": {}, "quadrature": {}, "noise": {}}
    for section in parser.sections():
        if section in ("beam", "probe", "detuning", "medium"):
            for key, raw in parser.items(section):
                spec = _CONFIG_KEYS.get((section, key))
                if spec is None:
                    raise ValueError(f"unknown config key '{key}' in section '{section}'")
                kwarg, cast = spec
                out["config"][kwarg] = cast(raw)
        elif section == "quadrature":
            for key, raw in parser.items(section):
                if key not in _QUAD_KEYS:
                    raise ValueError(f"unknown config key '{key}' in section '{section}'")
                out["quadrature"][key] = _QUAD_KEYS[key](raw)
        elif section == "noise":
            for key, raw in parser.items(section):
                if key not in _NOISE_KEYS:
                    raise ValueError(f"unknown config key '{key}' in section '{section}'")
                out["noise"][key] = _NOISE_KEYS[key](raw)
        else:
            raise ValueError(f"unknown config section '{section}'")
    return out


def _build_config(args, file_data: dict, default_kappa: float | None = None) -> SystemConfig:
    kwargs = dict(file_data.get("config", {}))
    if getattr(args, "kappa", None) is not None:
        kwargs.pop("omega_p0_mhz", None)
        kwargs["kappa"] = args.kappa
    if getattr(args, "omega_p0_mhz", None) is not None:
        kwargs.pop("kappa", None)
        kwargs["omega_p0_mhz"] = args.omega_p0_mhz
    if default_kappa is not None and "kappa" not in kwargs and "omega_p0_mhz" not in kwargs:
        kwargs["kappa"] = default_kappa
    return make_config(**kwargs)


def _resolve_quad(args, file_data: dict, config: SystemConfig) -> QuadratureSpec | None:
    """A QuadratureSpec when the run pinned one down, else None (op default)."""
    quad_file = file_data.get("quadrature", {})
    spacing = args.grid_spacing if args.grid_spacing is not None else quad_file.get("spacing")
    extent = args.grid_extent if args.grid_extent is not None else quad_file.get("extent")
    if spacing is None and extent is None:
        return None
    return QuadratureSpec.scaled(
        config.beam.wavelength_c,
        spacing if spacing is not None else 0.01,
        extent if extent is not None else 100.0,
    )


def _echo_quad(params: dict, quad: QuadratureSpec | None) -> None:
    if quad is not None:
        params["quad_extent_r_um"] = quad.extent_r
        params["quad_extent_z_um"] = quad.extent_z
        params["quad_spacing_r_um"] = quad.spacing_r
        params["quad_spacing_z_um"] = quad.spacing_z


def _parse_threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from exc
    if not 1 <= value <= _MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {_MAX_THREADS}, got {value}")
    return value


def _parse_l_values(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError("l values must be a comma-separated integer list") from exc
    if not values:
        raise argparse.ArgumentTypeError("at least one winding number is required")
    return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI parameter file")
    common.add_argument("--out", metavar="FILE", help="result path (default vortex-<cmd>.<fmt>)")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="result file format")
    common.add_argument("--threads", type=_parse_threads, default=1, help="worker threads (results are identical)")
    common.add_argument("--seed", type=int, default=None, help="master seed for stochastic runs")
    common.add_argument("--kappa", type=float, default=None, help="control/probe amplitude ratio")
    common.add_argument("--omega-p0-mhz", type=float, default=None, help="probe Rabi amplitude (MHz)")
    common.add_argument(
        "--grid-spacing", type=float, default=None, help="quadrature spacing, wavelength multiples"
    )
    common.add_argument(
        "--grid-extent", type=float, default=None, help="quadrature extent, wavelength multiples"
    )
    common.add_argument("--mask", choices=(MASK_LOCAL, MASK_ATOM), default=MASK_LOCAL)
    common.add_argument("--tail-tol", type=float, default=0.01, help="allowed truncation tail fraction")

    parser = argparse.ArgumentParser(
        prog="vortex-localize",
        description="Steady-state Rydberg excitation around a vortex control beam.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", parents=[common], help="steady state at one point")
    p.add_argument("--r-um", type=float, default=None, help="radius (default: envelope peak)")
    p.add_argument("--phi-rad", type=float, default=0.0)
    p.add_argument("--z-um", type=float, default=None, help="height (default: 3/4 wavelength)")
    p.add_argument("--s-mhz", type=float, default=0.0, help="interaction shift to include (MHz)")

    p = sub.add_parser("scan-r", parents=[common], help="transverse profile and width")
    p.add_argument(
        "--mode",
        choices=(localization.MODE_NONE, localization.MODE_PARTIAL, localization.MODE_PERFECT),
        default=localization.MODE_NONE,
    )
    p.add_argument("--r-max-um", type=float, default=None)
    p.add_argument("--samples", type=int, default=201)

    p = sub.add_parser("scan-z", parents=[common], help="longitudinal profile and width")
    p.add_argument("--z-min-um", type=float, default=None)
    p.add_argument("--z-max-um", type=float, default=None)
    p.add_argument("--samples", type=int, default=401)
    p.add_argument("--s0-mhz", type=float, default=None, help="core shift override (MHz)")
    p.add_argument("--delta-offset-mhz", type=float, default=None, help="detuning offset override (MHz)")

    p = sub.add_parser("scan-l", parents=[common], help="width growth with winding number")
    p.add_argument("--l-values", type=_parse_l_values, default=(1, 2, 3, 4, 5))
    p.add_argument("--r-max-um", type=float, default=None)
    p.add_argument("--samples", type=int, default=201)

    p = sub.add_parser("map3d", parents=[common], help="3D excitation map")
    p.add_argument(
        "--mode",
        choices=(localization.OFFSET_CALIBRATED, localization.OFFSET_DETUNED),
        default=localization.OFFSET_CALIBRATED,
    )
    p.add_argument("--xy-half-um", type=float, default=None, help="half extent in x and y")
    p.add_argument("--samples-per-axis", type=int, default=101)
    p.add_argument("--s0-mhz", type=float, default=None)
    p.add_argument("--per-voxel-exact", action="store_true")

    p = sub.add_parser("shift", parents=[common], help="interaction shift profile")
    p.add_argument("--axis", choices=("radial", "longitudinal"), default="radial")
    p.add_argument("--max-um", type=float, default=None, help="radial extent (radial axis only)")
    p.add_argument("--samples", type=int, default=21)

    p = sub.add_parser("calibrate-delta", parents=[common], help="self-consistent detuning offset")
    p.add_argument("--max-iter", type=int, default=8)

    p = sub.add_parser("blockade", parents=[common], help="blockade boundary around an atom")
    p.add_argument("--r-um", type=float, default=0.0)
    p.add_argument("--z-um", type=float, default=None)
    p.add_argument("--resolution", type=int, default=256)

    p = sub.add_parser("steady-time", parents=[common], help="time to enter the steady band")
    p.add_argument("--rel-tol", type=float, default=0.01)
    p.add_argument("--budget-us", type=float, default=200.0)
    p.add_argument(
        "--intensity-ratio",
        type=float,
        default=2.0 / 3.0,
        help="control/probe intensity ratio at the sampled radius",
    )
    p.add_argument("--dt-us", type=float, default=None)

    p = sub.add_parser("noise", parents=[common], help="noise-averaged transverse profile")
    p.add_argument("--kind", choices=(noise.KIND_INTENSITY, noise.KIND_FREQUENCY), default=None)
    p.add_argument(
        "--std",
        type=float,
        default=None,
        help="noise level: fraction of the peak amplitude (intensity) or MHz (frequency)",
    )
    p.add_argument("--trajectories", type=int, default=None)
    p.add_argument("--x-max-um", type=float, default=None)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--s0-mhz", type=float, default=None)
    p.add_argument("--delta-offset-mhz", type=float, default=None)

    return parser


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_steady(args, config, quad, file_data):
    beam = config.beam
    r = args.r_um if args.r_um is not None else beam.waist_w0 * math.sqrt(abs(beam.winding_l) / 2.0)
    z = args.z_um if args.z_um is not None else 0.75 * beam.wavelength_c
    pos = Position(r=r, phi=args.phi_rad, z=z)
    drive = bloch.LocalDrive.from_config(config, pos, s_shift=angular_from_mhz(args.s_mhz))
    sigma = bloch.steady_sigma_rr(drive)
    eta = eta_of_radius(r, config)
    w = bloch.linewidth_w(drive)
    params = {"r_um": r, "phi_rad": args.phi_rad, "z_um": z, "s_mhz": args.s_mhz}
    columns = {
        "r_um": [r],
        "z_um": [z],
        "eta": [eta],
        "sigma_rr": [sigma],
        "linewidth_w_mhz": [mhz_from_angular(w)],
    }
    summary = {"sigma_rr": sigma, "eta": eta, "linewidth_w_mhz": mhz_from_angular(w)}
    line = f"sigma_rr={output.fmt_number(sigma)} eta={output.fmt_number(eta)} w_mhz={output.fmt_number(mhz_from_angular(w))}"
    return params, columns, summary, line, None


def _cmd_scan_r(args, config, quad, file_data):
    profile = localization.transverse_scan(
        config,
        mode=args.mode,
        r_max=args.r_max_um,
        n_samples=args.samples,
        quad=quad,
        mask=args.mask,
        threads=args.threads,
        tail_tol=args.tail_tol,
    )
    lam = profile.lambda_c
    params = {"mode": args.mode, "r_max_um": profile.coords[-1], "samples": args.samples, "mask": args.mask}
    _echo_quad(params, quad)
    columns = {
        "r_um": profile.coords,
        "r_lambda": profile.coords / lam,
        "sigma_rr": profile.sigma,
    }
    summary = {
        "mode": args.mode,
        "fwhm_um": profile.fwhm,
        "fwhm_lambda": profile.fwhm / lam,
        "peak": profile.peak,
    }
    if profile.s0 is not None:
        summary["s0_mhz"] = mhz_from_angular(profile.s0)
    line = (
        f"mode={args.mode} fwhm_um={output.fmt_number(profile.fwhm)} "
        f"fwhm_lambda={output.fmt_number(profile.fwhm / lam)} peak={output.fmt_number(profile.peak)}"
    )
    return params, columns, summary, line, None


def _cmd_scan_z(args, config, quad, file_data):
    z_range = None
    if args.z_min_um is not None or args.z_max_um is not None:
        if args.z_min_um is None or args.z_max_um is None:
            raise ValueError("give both --z-min-um and --z-max-um or neither")
        z_range = (args.z_min_um, args.z_max_um)
    s0 = None if args.s0_mhz is None else angular_from_mhz(args.s0_mhz)
    delta_offset = None if args.delta_offset_mhz is None else angular_from_mhz(args.delta_offset_mhz)
    if s0 is None:
        _progress("calibrating the core shift (quadrature)...")
    profile = localization.longitudinal_scan(
        config,
        z_range=z_range,
        n_samples=args.samples,
        s0=s0,
        delta_offset=delta_offset,
        quad=quad,
        mask=args.mask,
        threads=args.threads,
        tail_tol=args.tail_tol,
    )
    lam = profile.lambda_c
    params = {"samples": args.samples, "mask": args.mask, "z_min_um": profile.coords[0], "z_max_um": profile.coords[-1]}
    _echo_quad(params, quad)
    columns = {
        "z_um": profile.coords,
        "z_lambda": profile.coords / lam,
        "sigma_rr": profile.sigma,
    }
    summary = {
        "mode": profile.mode,
        "fwhm_um": profile.fwhm,
        "fwhm_lambda": profile.fwhm / lam,
        "peak": profile.peak,
        "peak_z_um": profile.peak_coord,
        "s0_mhz": mhz_from_angular(profile.s0),
        "delta_offset_mhz": mhz_from_angular(profile.delta_offset),
        "delta_mhz": mhz_from_angular(config.detuning.delta_c0 + profile.delta_offset),
    }
    line = (
        f"mode={profile.mode} fwhm_um={output.fmt_number(profile.fwhm)} "
        f"fwhm_lambda={output.fmt_number(profile.fwhm / lam)} "
        f"s0_mhz={output.fmt_number(summary['s0_mhz'])}"
    )
    return params, columns, summary, line, None


def _cmd_scan_l(args, config, quad, file_data):
    results = localization.oam_broadening_scan(
        config, l_values=args.l_values, r_max=args.r_max_um, n_samples=args.samples
    )
    lam = config.beam.wavelength_c
    params = {"l_values": list(args.l_values), "samples": args.samples}
    columns = {
        "winding_l": [l for l, _ in results],
        "fwhm_um": [f for _, f in results],
        "fwhm_lambda": [f / lam for _, f in results],
    }
    summary = {f"fwhm_um_l{l}": f for l, f in results}
    line = "scan-l " + " ".join(f"l={l}:fwhm_um={output.fmt_number(f)}" for l, f in results)
    return params, columns, summary, line, None


def _cmd_map3d(args, config, quad, file_data):
    n = args.samples_per_axis
    if n < 2:
        raise ValueError("need at least 2 samples per axis")
    half, z_half = localization.default_map_extents(config)
    if args.xy_half_um is not None:
        half = args.xy_half_um
    z_node = 0.75 * config.beam.wavelength_c
    extents = ((-half, half), (-half, half), (z_node - z_half, z_node + z_half))
    # spacing derives from the extents so each axis lands exactly on n samples
    spacing = tuple((hi - lo) / (n - 1) for lo, hi in extents)
    s0 = None if args.s0_mhz is None else angular_from_mhz(args.s0_mhz)
    if s0 is None:
        _progress("calibrating the core shift (quadrature)...")
    _progress(f"computing {n}^3 voxels...")
    vol = localization.map3d(
        config,
        extents=extents,
        spacing=spacing,
        delta_offset_mode=args.mode,
        s0=s0,
        quad=quad,
        mask=args.mask,
        threads=args.threads,
        tail_tol=args.tail_tol,
        per_voxel_exact=args.per_voxel_exact,
    )

    ext = localization.iso_extents(vol)
    xg, yg, zg = np.meshgrid(vol.x, vol.y, vol.z, indexing="ij")
    columns = {
        "x_um": xg.ravel(),
        "y_um": yg.ravel(),
        "z_um": zg.ravel(),
        "sigma_rr": vol.field.ravel(),
    }
    params = {
        "mode": args.mode,
        "samples_per_axis": n,
        "x_min_um": extents[0][0],
        "x_max_um": extents[0][1],
        "y_min_um": extents[1][0],
        "y_max_um": extents[1][1],
        "z_min_um": extents[2][0],
        "z_max_um": extents[2][1],
        "mask": args.mask,
        "per_voxel_exact": args.per_voxel_exact,
    }
    _echo_quad(params, quad)
    summary = {
        "iso_level": vol.iso_level,
        "peak": float(vol.field.max()),
        "s0_mhz": mhz_from_angular(vol.s0),
        "delta_offset_mhz": mhz_from_angular(vol.delta_offset),
    }
    for name in ("x", "y", "z"):
        interval = ext[name]
        if interval is None:
            summary[f"iso_{name}_um"] = "absent"
            summary[f"iso_width_{name}_um"] = "absent"
        else:
            summary[f"iso_{name}_um"] = interval
            summary[f"iso_width_{name}_um"] = interval[1] - interval[0]
    widths = " ".join(
        f"{name}:{output.render_value(summary[f'iso_width_{name}_um'])}" for name in ("x", "y", "z")
    )
    line = f"mode={args.mode} peak={output.fmt_number(summary['peak'])} iso_widths_um {widths}"
    return params, columns, summary, line, None


def _cmd_shift(args, config, quad, file_data):
    lam = config.beam.wavelength_c
    if args.axis == "radial":
        max_um = args.max_um if args.max_um is not None else 0.5 * config.beam.waist_w0
        positions = np.linspace(0.0, max_um, args.samples)
    else:
        period = config.detuning.period
        lo = 0.75 * lam - 0.5 * period
        positions = np.linspace(lo, lo + period, args.samples)
    _progress(f"evaluating {positions.size} quadratures...")
    grid = meanfield.shift_profile(
        args.axis,
        positions,
        config,
        quad=quad,
        mask=args.mask,
        threads=args.threads,
        tail_tol=args.tail_tol,
    )
    params = {"axis": args.axis, "samples": args.samples, "mask": args.mask}
    _echo_quad(params, grid.quad)
    columns = {
        "position_um": grid.positions,
        "position_lambda": grid.positions / lam,
        "s_mhz": [mhz_from_angular(v) for v in grid.s_values],
    }
    summary = {
        "axis": args.axis,
        "s_min_mhz": mhz_from_angular(float(np.min(grid.s_values))),
        "s_max_mhz": mhz_from_angular(float(np.max(grid.s_values))),
    }
    if grid.near_core_flatness is not None:
        summary["near_core_flatness"] = grid.near_core_flatness
    line = (
        f"axis={args.axis} s_range_mhz=[{output.fmt_number(summary['s_min_mhz'])}, "
        f"{output.fmt_number(summary['s_max_mhz'])}]"
    )
    return params, columns, summary, line, None


def _cmd_calibrate(args, config, quad, file_data):
    _progress("iterating the calibration fixed point...")
    s0, delta = meanfield.calibrated_offset(
        config,
        quad=quad,
        mask=args.mask,
        threads=args.threads,
        tail_tol=args.tail_tol,
        max_iter=args.max_iter,
    )
    params = {"mask": args.mask, "max_iter": args.max_iter}
    _echo_quad(params, quad)
    values = {
        "kappa": config.kappa,
        "s0_mhz": mhz_from_angular(s0),
        "delta_mhz": mhz_from_angular(delta),
        "delta_c0_mhz": mhz_from_angular(config.detuning.delta_c0),
    }
    columns = {k: [v] for k, v in values.items()}
    line = (
        f"kappa={output.fmt_number(config.kappa)} delta_mhz={output.fmt_number(values['delta_mhz'])} "
        f"s0_mhz={output.fmt_number(values['s0_mhz'])}"
    )
    return params, columns, dict(values), line, None


def _cmd_blockade(args, config, quad, file_data):
    z = args.z_um if args.z_um is not None else 0.75 * config.beam.wavelength_c
    atom = Position(r=args.r_um, phi=0.0, z=z)
    boundary = meanfield.blockade_boundary(atom, config, resolution=args.resolution)
    ip = config.probe.omega_p0 ** 2
    env = control_envelope(abs(args.r_um), config.beam)
    w_atom = float(bloch.linewidth_from(ip, env * env, config.probe.delta_p, config.medium.gamma))
    rb_atom = meanfield.blockade_radius(w_atom, config.medium.c6)
    n_sa = meanfield.superatom_count(rb_atom, config.medium.density_rho)
    params = {"r_um": args.r_um, "z_um": z, "resolution": args.resolution}
    columns = {
        "angle_rad": boundary.angles,
        "distance_um": boundary.distances,
        "r_um": boundary.points[:, 0],
        "z_um": boundary.points[:, 1],
    }
    summary = {
        "r_b_atom_um": rb_atom,
        "n_superatom": n_sa,
        "distance_min_um": float(boundary.distances.min()),
        "distance_max_um": float(boundary.distances.max()),
    }
    line = (
        f"r_b_atom_um={output.fmt_number(rb_atom)} n_superatom={output.fmt_number(n_sa)} "
        f"distance_um=[{output.fmt_number(summary['distance_min_um'])}, "
        f"{output.fmt_number(summary['distance_max_um'])}]"
    )
    return params, columns, summary, line, None


def _cmd_steady_time(args, config, quad, file_data):
    beam = config.beam
    q = args.intensity_ratio
    if q <= 0:
        raise ValueError("intensity ratio must be positive")
    r_peak = beam.waist_w0 * math.sqrt(abs(beam.winding_l) / 2.0)
    if eta_of_radius(r_peak, config) < q:
        raise ValueError("requested intensity ratio exceeds the envelope maximum")

    def eta_gap(r: float) -> float:
        return eta_of_radius(r, config) - q

    lo, hi = 0.0, r_peak
    for _ in range(200):
        if hi - lo <= 1e-12 * beam.waist_w0:
            break
        mid = 0.5 * (lo + hi)
        if eta_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r_sample = 0.5 * (lo + hi)

    drive = bloch.LocalDrive(
        omega_p=config.probe.omega_p0,
        omega_c=complex(control_envelope(r_sample, beam)),
        delta_p=config.probe.delta_p,
        delta_c=0.0,
        s_shift=0.0,
        gamma=config.medium.gamma,
        gamma_e=config.medium.gamma_e,
        gamma_r=config.medium.gamma_r,
    )
    sigma_ss = bloch.steady_sigma_rr(drive)
    _progress(f"integrating the density matrix at r={r_sample:.4g} um...")
    t_steady = bloch.steady_time(drive, rel_tol=args.rel_tol, t_budget=args.budget_us, dt=args.dt_us)
    params = {
        "rel_tol": args.rel_tol,
        "budget_us": args.budget_us,
        "intensity_ratio": q,
        "r_sample_um": r_sample,
    }
    values = {
        "kappa": config.kappa,
        "r_sample_um": r_sample,
        "eta": eta_of_radius(r_sample, config),
        "sigma_ss": sigma_ss,
        "t_steady_us": t_steady,
    }
    columns = {k: [v] for k, v in values.items()}
    line = (
        f"kappa={output.fmt_number(config.kappa)} t_steady_us={output.fmt_number(t_steady)} "
        f"sigma_ss={output.fmt_number(sigma_ss)}"
    )
    return params, columns, dict(values), line, None


def _cmd_noise(args, config, quad, file_data):
    file_noise = file_data.get("noise", {})
    kind = args.kind if args.kind is not None else file_noise.get("kind", noise.KIND_INTENSITY)
    std = args.std if args.std is not None else file_noise.get("std", 0.0)
    trajectories = (
        args.trajectories if args.trajectories is not None else file_noise.get("trajectories", 10)
    )
    seed = args.seed if args.seed is not None else file_noise.get("seed", 0)
    std_internal = angular_from_mhz(std) if kind == noise.KIND_FREQUENCY else std
    spec = noise.NoiseSpec(
        kind=kind, std_dev=std_internal, trajectories=trajectories, seed=seed
    )
    s0 = None if args.s0_mhz is None else angular_from_mhz(args.s0_mhz)
    delta_offset = None if args.delta_offset_mhz is None else angular_from_mhz(args.delta_offset_mhz)
    if s0 is None:
        _progress("calibrating the core shift (quadrature)...")
    _progress(f"averaging {trajectories} noisy trajectories...")
    scan = noise.noisy_transverse_scan(
        config,
        spec,
        x_max=args.x_max_um,
        n_samples=args.samples,
        s0=s0,
        delta_offset=delta_offset,
        quad=quad,
        mask=args.mask,
        threads=args.threads,
        tail_tol=args.tail_tol,
    )
    profile = scan.profile
    lam = profile.lambda_c
    params = {
        "kind": kind,
        "std": std,
        "trajectories": trajectories,
        "samples": args.samples,
        "x_max_um": profile.coords[-1],
        "mask": args.mask,
    }
    _echo_quad(params, quad)
    columns = {
        "x_um": profile.coords,
        "x_lambda": profile.coords / lam,
        "sigma_rr": profile.sigma,
        "sigma_rr_std": scan.spread,
    }
    summary = {
        "kind": kind,
        "peak": profile.peak,
        "clamp_count": scan.clamp_count,
        "s0_mhz": mhz_from_angular(scan.s0),
        "delta_offset_mhz": mhz_from_angular(scan.delta_offset),
        "spread_core": noise.spread_at(scan, 0.0),
        "spread_waist": noise.spread_at(scan, config.beam.waist_w0),
    }
    if profile.fwhm is not None:
        summary["fwhm_um"] = profile.fwhm
        summary["fwhm_lambda"] = profile.fwhm / lam
    fwhm_text = "none" if profile.fwhm is None else output.fmt_number(profile.fwhm)
    line = (
        f"kind={kind} trajectories={trajectories} fwhm_um={fwhm_text} "
        f"peak={output.fmt_number(profile.peak)} clamped={scan.clamp_count}"
    )
    return params, columns, summary, line, seed


_HANDLERS = {
    "steady": _cmd_steady,
    "scan-r": _cmd_scan_r,
    "scan-z": _cmd_scan_z,
    "scan-l": _cmd_scan_l,
    "map3d": _cmd_map3d,
    "shift": _cmd_shift,
    "calibrate-delta": _cmd_calibrate,
    "blockade": _cmd_blockade,
    "steady-time": _cmd_steady_time,
    "noise": _cmd_noise,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    op = "parse_config"
    started = time.perf_counter()
    try:
        file_data = parse_config(args.config) if args.config else {}
        default_kappa = 180.0 if args.command == "noise" else None
        op = "make_config"
        config = _build_config(args, file_data, default_kappa=default_kappa)
        op = "QuadratureSpec.scaled"
        quad = _resolve_quad(args, file_data, config)
        op = _OP_NAMES[args.command]
        handler = _HANDLERS[args.command]
        result = handler(args, config, quad, file_data)
        params, columns, summary, line, extra = result
        seed = extra if args.command == "noise" else None
        manifest = output.RunManifest(
            subcommand=args.command, config=config, params=params, seed=seed
        )
        out_path = args.out if args.out else f"vortex-{args.command}.{args.format}"
        op = "write_table"
        output.write_table(out_path, manifest, columns, summary, file_format=args.format)
        if args.command == "map3d":
            op = "write_sidecar"
            output.write_sidecar(out_path + ".summary.json", manifest, summary)
    except (ValueError, RuntimeError, OSError) as exc:
        # Bad input, failed numerical guards and file I/O: one line naming the
        # failing operation. Any other exception is a bug and keeps its traceback.
        print(f"vortex-localize {args.command}: error in {op}: {exc}", file=sys.stderr)
        return 2
    duration = time.perf_counter() - started
    print(f"# wrote {out_path} in {duration:.3f} s", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
