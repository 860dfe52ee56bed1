"""Command-line front end.

Parameters resolve in precedence order: command-line flags, then the INI
config file, then built-in defaults. A successful run prints exactly one
summary line to stdout and the result path to stderr. Result files are
byte-reproducible for equal inputs (worker count and wall time never enter
file content).

Each subcommand is one `_Command` declaration. `main` does the rest once for
all of them: config file and defaults, the system config, the one
`ShiftQuadrature` a quadrature handler passes on (echoed into params), the
writers.

Importing this module caps numpy's OpenBLAS at one thread
(`OPENBLAS_NUM_THREADS=1`) unless `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS`
or `OMP_NUM_THREADS` is already set; `import vortexloc` by itself never
touches the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from typing import Callable

# Set before numpy loads: every product here is 9x9 or n x 3, and OpenBLAS
# would otherwise start a spinning worker thread per core.
if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import bloch, localization, meanfield, noise, output
from .config import PARAMETERS, Position, SystemConfig, angular_from_mhz, make_config, mhz_from_angular
from .fields import envelope_peak_radius, eta_of_radius, radius_at_eta
from .localization import MODE_NONE, MODE_PARTIAL, MODE_PERFECT, OFFSET_CALIBRATED, OFFSET_DETUNED
from .meanfield import MASK_ATOM, MASK_LOCAL, REFERENCE_SPACING, QuadratureSpec, ShiftQuadrature

# The config-file keys that stand in for a flag: (section, key) -> (flag dest,
# type). The physics keys, which go to make_config, are config.PARAMETERS.
_CONFIG_KEYS: dict[tuple[str, str], tuple[str, type]] = {
    ("quadrature", "spacing"): ("grid_spacing", float),
    ("quadrature", "extent"): ("grid_extent", float),
    ("noise", "kind"): ("kind", str),
    ("noise", "std"): ("std", float),
    ("noise", "trajectories"): ("trajectories", int),
    ("noise", "seed"): ("seed", int),
}

# Defaults of the flags a config file may also set; the flags themselves
# default to None so that a file value can tell "unset" from "set".
_FLAG_DEFAULTS = {"kind": noise.KIND_INTENSITY, "std": 0.0, "trajectories": 10, "seed": 0}

_MAX_THREADS = 64


def parse_config(path: str) -> tuple[dict, dict]:
    """Read an INI config file into (make_config kwargs, flag values by dest).

    Frequencies are MHz, lengths um; quadrature spacing and extent are
    multiples of the control wavelength. Unknown sections or keys are errors.
    """
    import configparser  # only a run with --config reads a file

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file '{path}' is malformed: {exc}") from exc
    if not read:
        raise ValueError(f"config file '{path}' not found or unreadable")
    keys = {(section, key): (keyword, cast) for section, key, keyword, cast in PARAMETERS} | _CONFIG_KEYS
    physics: dict = {}
    flags: dict = {}
    for section in parser.sections():
        if section not in {s for s, _ in keys}:
            raise ValueError(f"unknown config section '{section}'")
        for key, raw in parser.items(section):
            spec = keys.get((section, key))
            if spec is None:
                raise ValueError(f"unknown config key '{key}' in section '{section}'")
            dest, cast = spec
            (flags if (section, key) in _CONFIG_KEYS else physics)[dest] = cast(raw)
    return physics, flags


def _build_config(args, physics: dict, default_kappa: float | None) -> SystemConfig:
    kwargs = dict(physics)
    if args.kappa is not None:
        kwargs.pop("omega_p0_mhz", None)
        kwargs["kappa"] = args.kappa
    if args.omega_p0_mhz is not None:
        kwargs.pop("kappa", None)
        kwargs["omega_p0_mhz"] = args.omega_p0_mhz
    if default_kappa is not None and "kappa" not in kwargs and "omega_p0_mhz" not in kwargs:
        kwargs["kappa"] = default_kappa
    return make_config(**kwargs)


def _resolve_quad(args, config: SystemConfig, default_spacing: float | None) -> QuadratureSpec | None:
    """The lattice the run pins down, else the one of `default_spacing`, or None to let the op choose.

    An extent needs a spacing: the default spacing differs between subcommands.
    """
    if args.grid_spacing is None and args.grid_extent is not None:
        raise ValueError("--grid-extent ([quadrature] extent) needs --grid-spacing ([quadrature] spacing) too")
    spacing = default_spacing if args.grid_spacing is None else args.grid_spacing
    extent = 100.0 if args.grid_extent is None else args.grid_extent
    return None if spacing is None else QuadratureSpec.scaled(config.beam.wavelength_c, spacing, extent)


def _parse_threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from exc
    if not 1 <= value <= _MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {_MAX_THREADS}, got {value}")
    return value


def _finite_mhz(text: str) -> float:
    """A frequency in MHz that stays finite in rad/us."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'") from exc
    if not math.isfinite(angular_from_mhz(value)):
        raise argparse.ArgumentTypeError(f"must be a finite frequency, got '{text}'")
    return value


def _rad_per_us(text: str) -> float:
    """A finite frequency given in MHz, as the angular rad/us the library takes."""
    return angular_from_mhz(_finite_mhz(text))


def _parse_l_values(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError("l values must be a comma-separated integer list") from exc
    if not values:
        raise argparse.ArgumentTypeError("at least one winding number is required")
    return values


def _line(summary: dict, *keys: str) -> str:
    """The stdout line 'key=value ...' over `keys` (default: all); an absent key reads none."""
    return " ".join(f"{key}={output.render_value(summary.get(key))}" for key in keys or summary)


def _span(lo: float, hi: float) -> str:
    return f"[{output.fmt_number(lo)}, {output.fmt_number(hi)}]"


def _one_row(values: dict) -> dict:
    return {k: [v] for k, v in values.items()}


def _profile_table(profile: localization.ScanProfile, config: SystemConfig) -> tuple[dict, dict]:
    """Columns (coordinate in um and in lambda_c, sigma_rr) and the width summary of a 1-D profile."""
    lam = config.beam.wavelength_c
    columns = {
        f"{profile.axis}_um": profile.coords,
        f"{profile.axis}_lambda": profile.coords / lam,
        "sigma_rr": profile.sigma,
    }
    summary = {"peak": profile.peak}
    if profile.fwhm is not None:
        summary.update(fwhm_um=profile.fwhm, fwhm_lambda=profile.fwhm / lam)
    return columns, summary


def _cmd_steady(args, config):
    r = args.r_um if args.r_um is not None else envelope_peak_radius(config.beam)
    z = args.z_um if args.z_um is not None else meanfield.localized_point(config).z
    drive = bloch.LocalDrive.from_config(config, Position(r=r, z=z), s_shift=angular_from_mhz(args.s_mhz))
    sigma = bloch.steady_sigma_rr(drive)
    eta = eta_of_radius(r, config)
    w_mhz = mhz_from_angular(meanfield.local_linewidth(config, r))
    params = {"r_um": r, "z_um": z, "s_mhz": args.s_mhz}
    columns = _one_row({"r_um": r, "z_um": z, "eta": eta, "sigma_rr": sigma, "linewidth_w_mhz": w_mhz})
    summary = {"sigma_rr": sigma, "eta": eta, "linewidth_w_mhz": w_mhz}
    return params, columns, summary, _line({"sigma_rr": sigma, "eta": eta, "w_mhz": w_mhz})


def _cmd_scan_r(args, config, quadrature):
    profile = localization.transverse_scan(
        config, mode=args.mode, r_max=args.r_max_um, n_samples=args.samples, quadrature=quadrature
    )
    columns, summary = _profile_table(profile, config)
    summary["mode"] = args.mode
    if profile.s0 is not None:
        summary["s0_mhz"] = mhz_from_angular(profile.s0)
    params = {"mode": args.mode, "r_max_um": profile.coords[-1], "samples": args.samples}
    return params, columns, summary, _line(summary, "mode", "fwhm_um", "fwhm_lambda", "peak")


def _cmd_scan_z(args, config, quadrature):
    if (args.z_min_um is None) != (args.z_max_um is None):
        raise ValueError("give both --z-min-um and --z-max-um or neither")
    z_range = None if args.z_min_um is None else (args.z_min_um, args.z_max_um)
    profile = localization.longitudinal_scan(
        config, z_range=z_range, n_samples=args.samples, s0=args.s0, delta_offset=args.delta_offset,
        quadrature=quadrature,
    )
    params = {"samples": args.samples, "z_min_um": profile.coords[0], "z_max_um": profile.coords[-1]}
    columns, summary = _profile_table(profile, config)
    summary.update(
        mode=profile.mode,
        peak_z_um=profile.peak_coord,
        s0_mhz=mhz_from_angular(profile.s0),
        delta_offset_mhz=mhz_from_angular(profile.delta_offset),
        delta_mhz=mhz_from_angular(config.detuning.delta_c0 + profile.delta_offset),
    )
    return params, columns, summary, _line(summary, "mode", "fwhm_um", "fwhm_lambda", "s0_mhz")


def _cmd_scan_l(args, config):
    results = localization.oam_broadening_scan(
        config, l_values=args.l_values, r_max=args.r_max_um, n_samples=args.samples
    )
    lam = config.beam.wavelength_c
    params = {"l_values": list(args.l_values), "r_max_um": args.r_max_um, "samples": args.samples}
    columns = {
        "winding_l": [l for l, _ in results],
        "fwhm_um": [f for _, f in results],
        "fwhm_lambda": [f / lam for _, f in results],
    }
    summary = {f"fwhm_um_l{l}": f for l, f in results}
    line = "scan-l " + " ".join(f"l={l}:fwhm_um={output.fmt_number(f)}" for l, f in results)
    return params, columns, summary, line


def _cmd_map3d(args, config, quadrature):
    extents = localization.map_window(config, args.xy_half_um)
    vol = localization.map3d(
        config,
        extents=extents,
        samples_per_axis=args.samples_per_axis,
        delta_offset_mode=args.mode,
        s0=args.s0,
        quadrature=quadrature,
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
    params = {"mode": args.mode, "samples_per_axis": args.samples_per_axis, "per_voxel_exact": args.per_voxel_exact}
    for name, (lo, hi) in zip("xyz", extents):
        params[f"{name}_min_um"] = lo
        params[f"{name}_max_um"] = hi
    summary = {
        "iso_level": localization.HALF_MAX,
        "peak": float(vol.field.max()),
        "s0_mhz": mhz_from_angular(vol.s0),
        "delta_offset_mhz": mhz_from_angular(vol.delta_offset),
    }
    for name in "xyz":
        interval = ext[name]
        summary[f"iso_{name}_um"] = "absent" if interval is None else interval
        summary[f"iso_width_{name}_um"] = "absent" if interval is None else interval[1] - interval[0]
    widths = " ".join(f"{name}:{output.render_value(summary[f'iso_width_{name}_um'])}" for name in "xyz")
    line = _line({"mode": args.mode, "peak": summary["peak"]}) + f" iso_widths_um {widths}"
    return params, columns, summary, line


def _cmd_shift(args, config, quadrature):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > localization._MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {localization._MAX_SAMPLES}, got {args.samples}")
    lam = config.beam.wavelength_c
    if args.axis == "radial":
        max_um = args.max_um if args.max_um is not None else 0.5 * config.beam.waist_w0
        positions = np.linspace(0.0, max_um, args.samples)
    else:
        if args.max_um is not None:
            raise ValueError("--max-um sets the radial extent; the longitudinal axis spans one period")
        period = config.detuning.period
        lo = meanfield.localized_point(config).z - 0.5 * period
        positions = np.linspace(lo, lo + period, args.samples)
    grid = meanfield.shift_profile(args.axis, positions, config, quadrature)
    params = {"axis": args.axis, "samples": args.samples}
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
    line = _line({"axis": args.axis, "s_range_mhz": _span(summary["s_min_mhz"], summary["s_max_mhz"])})
    return params, columns, summary, line


def _cmd_calibrate(args, config, quadrature):
    s0, delta = meanfield.calibrated_offset(config, quadrature, max_iter=args.max_iter)
    values = {
        "kappa": config.kappa,
        "s0_mhz": mhz_from_angular(s0),
        "delta_mhz": mhz_from_angular(delta),
        "delta_c0_mhz": mhz_from_angular(config.detuning.delta_c0),
    }
    return {"max_iter": args.max_iter}, _one_row(values), values, _line(values, "kappa", "delta_mhz", "s0_mhz")


def _cmd_blockade(args, config):
    z = args.z_um if args.z_um is not None else meanfield.localized_point(config).z
    boundary = meanfield.blockade_boundary(Position(r=args.r_um, z=z), config, resolution=args.resolution)
    w_atom = float(meanfield.local_linewidth(config, args.r_um))
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
    distances = _span(summary["distance_min_um"], summary["distance_max_um"])
    line = _line({**summary, "distance_um": distances}, "r_b_atom_um", "n_superatom", "distance_um")
    return params, columns, summary, line


def _cmd_steady_time(args, config):
    q = args.intensity_ratio
    r_sample = radius_at_eta(q, config)
    # the configured drive at r_sample with a resonant control
    drive = dataclasses.replace(bloch.LocalDrive.from_config(config, Position(r=r_sample)), delta_c=0.0)
    sigma_ss = bloch.steady_sigma_rr(drive)
    t_steady = bloch.steady_time(drive, rel_tol=args.rel_tol, t_budget=args.budget_us, dt=args.dt_us)
    params = {
        "rel_tol": args.rel_tol,
        "budget_us": args.budget_us,
        "dt_us": args.dt_us,
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
    return params, _one_row(values), values, _line(values, "kappa", "t_steady_us", "sigma_ss")


def _cmd_noise(args, config, quadrature):
    std = angular_from_mhz(args.std) if args.kind == noise.KIND_FREQUENCY else args.std
    spec = noise.NoiseSpec(kind=args.kind, std_dev=std, trajectories=args.trajectories, seed=args.seed)
    scan = noise.noisy_transverse_scan(
        config,
        spec,
        x_max=args.x_max_um,
        n_samples=args.samples,
        s0=args.s0,
        delta_offset=args.delta_offset,
        quadrature=quadrature,
    )
    profile = scan.profile
    params = {
        "kind": args.kind,
        "std": args.std,
        "trajectories": args.trajectories,
        "samples": args.samples,
        "x_max_um": profile.coords[-1],
    }
    columns, summary = _profile_table(profile, config)
    columns["sigma_rr_std"] = scan.spread
    summary.update(
        kind=args.kind,
        clamp_count=scan.clamp_count,
        s0_mhz=mhz_from_angular(profile.s0),
        delta_offset_mhz=mhz_from_angular(profile.delta_offset),
        spread_core=noise.spread_at(scan, 0.0),
        spread_waist=noise.spread_at(scan, config.beam.waist_w0),
    )
    line = _line(
        {**summary, "trajectories": args.trajectories, "clamped": scan.clamp_count},
        "kind", "trajectories", "fwhm_um", "peak", "clamped",
    )
    return params, columns, summary, line


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand and everything `main` needs to run it."""

    help: str
    op: str  # the operation named when the handler raises ValueError/RuntimeError/OSError
    # handler(args, config[, quadrature=]) -> (params, columns, summary, stdout line)
    run: Callable
    arguments: tuple[tuple[str, dict], ...] = ()  # (flag, add_argument keywords)
    # takes --threads --grid-spacing --grid-extent --mask --tail-tol, and gets
    # them as one ShiftQuadrature
    quadrature: bool = False
    # lattice spacing (lambda_c multiples) passed, and echoed, when the run names none; None lets the op choose
    default_spacing: float | None = None
    default_kappa: float | None = None


_COMMANDS = {
    "steady": _Command("steady state at one point", "steady_sigma_rr", _cmd_steady, (
        ("--r-um", dict(type=float, help="radius (default: envelope peak)")),
        ("--z-um", dict(type=float, help="height (default: 3/4 of the modulation period)")),
        ("--s-mhz", dict(type=_finite_mhz, default=0.0, help="interaction shift to include (MHz)")),
    )),
    "scan-r": _Command("transverse profile and width", "transverse_scan", _cmd_scan_r, (
        ("--mode", dict(choices=(MODE_NONE, MODE_PARTIAL, MODE_PERFECT), default=MODE_NONE)),
        ("--r-max-um", dict(type=float)),
        ("--samples", dict(type=int, default=201)),
    ), quadrature=True),
    "scan-z": _Command("longitudinal profile and width", "longitudinal_scan", _cmd_scan_z, (
        ("--z-min-um", dict(type=float)),
        ("--z-max-um", dict(type=float)),
        ("--samples", dict(type=int, default=401)),
        ("--s0-mhz", dict(dest="s0", type=_rad_per_us, metavar="MHZ", help="core shift override")),
        ("--delta-offset-mhz", dict(dest="delta_offset", type=_rad_per_us, metavar="MHZ", help="detuning offset override")),
    ), quadrature=True),
    "scan-l": _Command("width growth with winding number", "oam_broadening_scan", _cmd_scan_l, (
        ("--l-values", dict(type=_parse_l_values, default=(1, 2, 3, 4, 5))),
        ("--r-max-um", dict(type=float)),
        ("--samples", dict(type=int, default=201)),
    )),
    "map3d": _Command("3D excitation map", "map3d", _cmd_map3d, (
        ("--mode", dict(choices=(OFFSET_CALIBRATED, OFFSET_DETUNED), default=OFFSET_CALIBRATED)),
        ("--xy-half-um", dict(type=float, help="half extent in x and y")),
        ("--samples-per-axis", dict(type=int, default=101)),
        ("--s0-mhz", dict(dest="s0", type=_rad_per_us, metavar="MHZ")),
        ("--per-voxel-exact", dict(action="store_true")),
    ), quadrature=True),
    "shift": _Command("interaction shift profile", "shift_profile", _cmd_shift, (
        ("--axis", dict(choices=("radial", "longitudinal"), default="radial")),
        ("--max-um", dict(type=float, help="radial extent (radial axis only)")),
        ("--samples", dict(type=int, default=21)),
    ), quadrature=True, default_spacing=REFERENCE_SPACING),
    "calibrate-delta": _Command("self-consistent detuning offset", "calibrate_delta", _cmd_calibrate, (
        ("--max-iter", dict(type=int, default=8)),
    ), quadrature=True),
    "blockade": _Command("blockade boundary around an atom", "blockade_boundary", _cmd_blockade, (
        ("--r-um", dict(type=float, default=0.0)),
        ("--z-um", dict(type=float)),
        ("--resolution", dict(type=int, default=256)),
    )),
    "steady-time": _Command("time to enter the steady band", "steady_time", _cmd_steady_time, (
        ("--rel-tol", dict(type=float, default=0.01)),
        ("--budget-us", dict(type=float, default=200.0)),
        ("--intensity-ratio", dict(type=float, default=2.0 / 3.0, help="intensity ratio I_c/I_p at the sampled radius")),
        ("--dt-us", dict(type=float)),
    )),
    "noise": _Command("noise-averaged transverse profile", "noisy_transverse_scan", _cmd_noise, (
        ("--kind", dict(choices=(noise.KIND_INTENSITY, noise.KIND_FREQUENCY))),
        ("--std", dict(type=float, help="noise level: fraction of the peak amplitude (intensity) or MHz (frequency)")),
        ("--trajectories", dict(type=int)),
        ("--seed", dict(type=int, help="master seed of the trajectories")),
        ("--x-max-um", dict(type=float)),
        ("--samples", dict(type=int, default=201)),
        ("--s0-mhz", dict(dest="s0", type=_rad_per_us, metavar="MHZ")),
        ("--delta-offset-mhz", dict(dest="delta_offset", type=_rad_per_us, metavar="MHZ")),
    ), quadrature=True, default_kappa=180.0),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI parameter file")
    common.add_argument("--out", metavar="FILE", help="result path (default vortex-<cmd>.<fmt>)")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="result file format")
    amplitude = common.add_mutually_exclusive_group()  # either one sets the probe amplitude
    amplitude.add_argument("--kappa", type=float, help="control/probe amplitude ratio")
    amplitude.add_argument("--omega-p0-mhz", type=float, help="probe Rabi amplitude (MHz)")

    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument(
        "--threads", type=_parse_threads, default=1, help="worker threads (results are identical)"
    )
    quadrature.add_argument("--grid-spacing", type=float, help="quadrature spacing, wavelength multiples")
    quadrature.add_argument("--grid-extent", type=float, help="quadrature extent, wavelength multiples")
    quadrature.add_argument("--mask", choices=(MASK_LOCAL, MASK_ATOM), default=MASK_LOCAL)
    quadrature.add_argument("--tail-tol", type=float, default=0.01, help="allowed truncation tail fraction")

    parser = argparse.ArgumentParser(
        prog="vortex-localize",
        description="Steady-state Rydberg excitation around a vortex control beam.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        parents = [common, quadrature] if cmd.quadrature else [common]
        p = sub.add_parser(name, parents=parents, help=cmd.help)
        for flag, spec in cmd.arguments:
            p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    op = "parse_config"
    started = time.perf_counter()
    try:
        physics, file_flags = parse_config(args.config) if args.config else ({}, {})
        # an unset flag takes the file's value, else its default; flags the
        # subcommand does not take are not attributes of args and stay unset
        for dest, value in {**_FLAG_DEFAULTS, **file_flags}.items():
            if getattr(args, dest, False) is None:
                setattr(args, dest, value)
        op = "make_config"
        config = _build_config(args, physics, cmd.default_kappa)
        echo, extra = {}, {}
        if cmd.quadrature:
            op = "QuadratureSpec.scaled"
            lattice = _resolve_quad(args, config, cmd.default_spacing)
            op = "ShiftQuadrature"
            extra["quadrature"] = ShiftQuadrature(lattice, args.mask, args.tail_tol, args.threads)
            echo["mask"] = args.mask
            if lattice is not None:
                for name in ("extent_r", "extent_z", "spacing_r", "spacing_z"):
                    echo[f"quad_{name}_um"] = getattr(lattice, name)
        op = cmd.op
        params, columns, summary, line = cmd.run(args, config, **extra)
        manifest = output.RunManifest(
            subcommand=args.command,
            config=config,
            params={**params, **echo},
            seed=getattr(args, "seed", None),
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
