"""Excitation-profile scans and width extraction.

The steady Rydberg population around the vortex core forms a sub-wavelength
peak. Scans sample it transversely (through the core at the standing-wave
node, 3/4 of the modulation period up), longitudinally (along the axis), or on a 3D
grid; widths come from half-maximum crossings refined by bisection.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bloch import steady_population
from .config import STANDING_WAVE, TWO_PI, Position, SystemConfig, with_winding
from .fields import _bisect, control_envelope
from .meanfield import (
    FAST_SPACING, QuadratureSpec, ShiftQuadrature, calibrated_offset, local_linewidth, localized_point, shift_at,
)

MODE_NONE = "none"  # s = 0, exact two-photon resonance everywhere
MODE_PARTIAL = "partial"  # fixed detuning compensates the core shift s(0) only
MODE_PERFECT = "perfect"  # detuning tracks s(r) pointwise
_MODES = (MODE_NONE, MODE_PARTIAL, MODE_PERFECT)

OFFSET_CALIBRATED = "calibrated"  # delta - Delta_c0 = s_0
OFFSET_DETUNED = "detuned"  # delta - Delta_c0 = 2 s_0

HALF_MAX = 0.5
_MIN_SAMPLES = 4  # samples a map needs across each half-maximum width
# The most samples per axis map3d takes: a 201^3 map peaks near 460 MB and
# writes a 450 MB CSV or a 900 MB JSON file.
_MAX_SAMPLES_PER_AXIS = 201
# The most samples a 1-D scan or a shift profile takes: a partial scan-r
# quadratures its radii as one batch, and a batch of 10^4 peaks at 220-310 MB.
_MAX_SAMPLES = 10_000

@dataclass(frozen=True)
class ScanProfile:
    """One 1D profile of the steady excitation with its extracted width."""

    axis: str  # "r", "x" or "z"
    mode: str
    coords: np.ndarray  # um
    sigma: np.ndarray
    fwhm: float | None  # um
    s0: float | None = None  # rad/us
    delta_offset: float | None = None  # delta - Delta_c0, rad/us

    @property
    def peak(self) -> float:
        return float(self.sigma.max())

    @property
    def peak_coord(self) -> float:  # um, at the first maximum
        return float(self.coords[int(np.argmax(self.sigma))])


@dataclass(frozen=True)
class Map3D:
    """Steady excitation on a regular 3D grid; its iso level is HALF_MAX."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    field: np.ndarray  # shape (nx, ny, nz)
    s0: float
    delta_offset: float


def _run_around(values: np.ndarray, i: int, level: float) -> tuple[int, int]:
    """First and last index of the run of samples at or above `level` that holds index i.

    Sample i counts as part of the run whatever its value; NaN counts as below.
    """
    outside = np.flatnonzero(~(values >= level))
    before, after = outside[outside < i], outside[outside > i]
    first = int(before[-1]) + 1 if before.size else 0
    last = int(after[0]) - 1 if after.size else values.size - 1
    return first, last


def _crossings(coords: np.ndarray, values: np.ndarray, i: int, fn, xtol: float) -> tuple[float | None, float | None]:
    """HALF_MAX crossings of fn, sampled as values, beside each end of the run holding sample i; None at an edge."""
    start, end = _run_around(values, i, HALF_MAX)
    # HALF_MAX - fn is positive only off the run, so a value on HALF_MAX sits in it at either end
    left = None if start == 0 else _bisect(lambda x: HALF_MAX - fn(x), coords[start - 1], coords[start], xtol)
    right = None if end == values.size - 1 else _bisect(lambda x: HALF_MAX - fn(x), coords[end], coords[end + 1], xtol)
    return left, right


def _axis_two_photon(config: SystemConfig, z, s0: float, delta_offset: float):
    """Two-photon detuning on the axis at height z, with the core shift frozen at s_0."""
    mod = config.detuning
    mismatch0 = delta_offset - s0  # exactly 0.0 at the calibrated point
    return config.probe.delta_p + mod.delta_c0 * (np.sin(TWO_PI * np.asarray(z) / mod.period) + 1.0) + mismatch0


def _check_samples(n_samples: int) -> None:
    """Refuse a 1-D sample count below 100 or above _MAX_SAMPLES, before any array is made."""
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    if n_samples > _MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {_MAX_SAMPLES}, got {n_samples}")


def _radius_grid(config: SystemConfig, bound: float | None, n_samples: int, name: str) -> np.ndarray:
    """n_samples radii from 0 to `bound` (default 1.5 W0); `name` is the caller's name for the bound."""
    _check_samples(n_samples)
    if bound is None:
        bound = 1.5 * config.beam.waist_w0
    if not math.isfinite(bound):
        raise ValueError(f"{name} must be finite, got {bound}")
    if bound <= 0:
        raise ValueError(f"{name} must be positive")
    return np.linspace(0.0, bound, n_samples)


def transverse_scan(
    config: SystemConfig,
    mode: str = MODE_NONE,
    r_max: float | None = None,
    n_samples: int = 201,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
) -> ScanProfile:
    """Radial profile sigma_rr(r) through the core at the standing-wave node.

    Modes: 'none' ignores the interaction shift; 'partial' holds the
    two-photon detuning at the core value s(0), from shifts on the
    quadrature's lattice (default: the fast one); 'perfect' tracks s(r)
    pointwise (which restores the mode-'none' profile). The width is twice
    the first half-maximum crossing, refined by bisection on the continuous
    profile to 1e-4 lambda_c. `n_samples` lies between 100 and 10^4.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown antiblockade mode '{mode}'")
    r = _radius_grid(config, r_max, n_samples, "r_max")

    beam = config.beam
    dp = config.probe.delta_p
    z_loc = localized_point(config).z

    s0 = None
    if mode == MODE_PARTIAL:
        quadrature = quadrature.or_lattice(QuadratureSpec.scaled(beam.wavelength_c, FAST_SPACING))
        # the grid is one batched quadrature; it seeds the shifts the
        # bisection reads back, and each new bisection radius adds one
        s_grid = shift_at([Position(r=float(rj), z=z_loc) for rj in r], config, quadrature)
        known = dict(zip(r.tolist(), s_grid.tolist()))
        s0 = float(s_grid[0])

    def sigma_of(radius):
        """sigma_rr at one radius, or at each radius of an array."""
        env = control_envelope(radius, beam)
        if mode != MODE_PARTIAL:
            # 'perfect' tracking cancels s exactly, so both remaining modes
            # reduce to the unshifted two-photon resonance profile.
            return steady_population(config, env * env, dp)
        radii = np.ravel(radius).tolist()
        for x in radii:
            if x not in known:
                known[x] = shift_at(Position(r=x, z=z_loc), config, quadrature)
        s = np.reshape([known[x] for x in radii], np.shape(radius))
        return steady_population(config, env * env, dp + (s0 - s))

    sigma = sigma_of(r)
    if sigma[0] < HALF_MAX:
        raise ValueError("profile starts below the half maximum; no crossing at the core")
    _, crossing = _crossings(r, sigma, 0, sigma_of, 1e-4 * beam.wavelength_c)
    if crossing is None:
        raise ValueError(
            f"no crossing of the half maximum within r_max={r[-1]:g} um; widen the scan"
        )

    return ScanProfile(
        axis="r",
        mode=mode,
        coords=r,
        sigma=np.asarray(sigma, dtype=float),
        fwhm=2.0 * crossing,
        s0=s0,
    )


def oam_broadening_scan(
    config: SystemConfig,
    l_values=(1, 2, 3, 4, 5),
    r_max: float | None = None,
    n_samples: int = 201,
) -> list[tuple[int, float]]:
    """Unshifted transverse FWHM for each orbital winding number."""
    results = []
    for l in l_values:
        if int(l) != l or l < 1:
            raise ValueError("winding numbers must be positive integers")
        profile = transverse_scan(
            with_winding(config, int(l)), mode=MODE_NONE, r_max=r_max, n_samples=n_samples
        )
        results.append((int(l), float(profile.fwhm)))
    return results


def analytic_a_r(kappa: float, w0: float = 1.0) -> float:
    """Transverse half-maximum width W0*sqrt(1 - sqrt(kappa^2 - 8)/kappa) for |l| = 1."""
    if w0 <= 0:
        raise ValueError("waist must be positive")
    if kappa < 2.0 * math.sqrt(2.0):
        raise ValueError("kappa must be at least 2*sqrt(2) for a half-maximum crossing to exist")
    return w0 * math.sqrt(1.0 - math.sqrt(kappa * kappa - 8.0) / kappa)


def analytic_a_z(w: float, delta_c0: float, lambda_c: float) -> float:
    """Longitudinal half-maximum width (1/2 - arcsin(1 - w/Delta_c0)/pi) * lambda_c."""
    if lambda_c <= 0:
        raise ValueError("wavelength must be positive")
    if delta_c0 <= 0:
        raise ValueError("modulation depth delta_c0 must be positive")
    if not 0.0 < w <= 2.0 * delta_c0:
        raise ValueError("linewidth w must lie in (0, 2*delta_c0] for a crossing to exist")
    return (0.5 - math.asin(1.0 - w / delta_c0) / math.pi) * lambda_c


def _resolve_offsets(
    config: SystemConfig,
    s0: float | None,
    delta_offset: float | None,
    quadrature: ShiftQuadrature,
) -> tuple[float, float, ShiftQuadrature]:
    """(s_0, delta offset, quadrature on its lattice), calibrating s_0 on the fast lattice when not given."""
    if config.detuning.mode != STANDING_WAVE:
        raise ValueError("standing-wave detuning mode required")
    quadrature = quadrature.or_lattice(QuadratureSpec.scaled(config.beam.wavelength_c, FAST_SPACING))
    if s0 is None:
        s0, _ = calibrated_offset(config, quadrature)
    if delta_offset is None:
        delta_offset = s0
    return float(s0), float(delta_offset), quadrature


def longitudinal_scan(
    config: SystemConfig,
    z_range: tuple[float, float] | None = None,
    n_samples: int = 401,
    s0: float | None = None,
    delta_offset: float | None = None,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
) -> ScanProfile:
    """Axial profile sigma_rr(z) at r = 0 with the core shift frozen at s_0.

    The detuning offset defaults to the calibrated value delta - Delta_c0 =
    s_0, which pins the peak to the standing-wave node; pass `delta_offset`
    to detune deliberately. `n_samples` lies between 100 and 10^4.
    """
    _check_samples(n_samples)
    s0, delta_offset, _ = _resolve_offsets(config, s0, delta_offset, quadrature)
    mod = config.detuning
    if z_range is None:
        z_node = localized_point(config).z
        z_range = (z_node - 0.5 * mod.period, z_node + 0.5 * mod.period)
    z0, z1 = z_range
    if not z1 > z0:
        raise ValueError("z_range must be increasing")

    def sigma_of(z):
        return steady_population(config, 0.0, _axis_two_photon(config, z, s0, delta_offset))

    z = np.linspace(z0, z1, n_samples)
    sigma = np.asarray(sigma_of(z), dtype=float)

    peak_i = int(np.argmax(sigma))
    if sigma[peak_i] < HALF_MAX:
        raise ValueError("profile never reaches the half maximum")
    left, right = _crossings(z, sigma, peak_i, sigma_of, 1e-4 * config.beam.wavelength_c)
    if left is None or right is None:
        raise ValueError("no crossing of the half maximum inside the window; widen z_range")

    return ScanProfile(
        axis="z",
        mode=OFFSET_CALIBRATED if delta_offset == s0 else OFFSET_DETUNED,
        coords=z,
        sigma=sigma,
        fwhm=right - left,
        s0=s0,
        delta_offset=delta_offset,
    )


def map_window(config: SystemConfig, xy_half: float | None = None) -> tuple[tuple[float, float], ...]:
    """(x, y, z) extents framing the peak: +-xy_half across, around the node along z.

    The defaults are three analytic widths on each side, which keep the
    half-maximum region well inside the window while a 101-per-axis grid
    still resolves it; the longitudinal window never exceeds one modulation
    period.
    """
    beam = config.beam
    if xy_half is None:
        try:
            xy_half = 3.0 * analytic_a_r(config.kappa, beam.waist_w0)
        except ValueError:
            xy_half = 1.5 * beam.waist_w0
    w_core = float(local_linewidth(config, 0.0))
    try:
        z_half = 3.0 * analytic_a_z(w_core, config.detuning.delta_c0, config.detuning.period)
    except ValueError:
        z_half = 0.5 * config.detuning.period
    z_half = min(z_half, 0.5 * config.detuning.period)
    z_node = localized_point(config).z
    return (-xy_half, xy_half), (-xy_half, xy_half), (z_node - z_half, z_node + z_half)


def map3d(
    config: SystemConfig,
    extents: tuple[tuple[float, float], tuple[float, float], tuple[float, float]] | None = None,
    samples_per_axis: int = 101,
    delta_offset_mode: str = OFFSET_CALIBRATED,
    s0: float | None = None,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
    per_voxel_exact: bool = False,
) -> Map3D:
    """Steady excitation on a 3D cartesian grid around the localized point.

    Each axis holds `samples_per_axis` evenly spaced samples across its
    extent (default: `map_window`). The calibrated mode sets delta -
    Delta_c0 = s_0 (peak pinned to the node); the detuned mode doubles the
    offset, which suppresses and widens the peak. By default the shift is
    frozen at s_0 over the whole grid; `per_voxel_exact` re-evaluates the
    quadrature per voxel and is only permitted on small grids.
    """
    n = operator.index(samples_per_axis)  # a float count is a TypeError
    if n < 2:
        raise ValueError("need at least 2 samples per axis")
    if n > _MAX_SAMPLES_PER_AXIS:
        raise ValueError(f"samples_per_axis must be at most {_MAX_SAMPLES_PER_AXIS}, got {n}")
    if delta_offset_mode not in (OFFSET_CALIBRATED, OFFSET_DETUNED):
        raise ValueError(f"unknown delta offset mode '{delta_offset_mode}'")

    if extents is None:
        extents = map_window(config)
    axes = []
    for name, (lo, hi) in zip("xyz", extents):
        step = (hi - lo) / (n - 1)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise ValueError(f"{name} extent [{lo:g}, {hi:g}] and spacing {step:g} must be finite")
        if not (hi > lo and step > 0):
            raise ValueError("extents must be increasing and spacing positive")
        axes.append(lo + step * np.arange(n))
    x, y, z = axes

    s0, _, quadrature = _resolve_offsets(config, s0, None, quadrature)
    offset = s0 if delta_offset_mode == OFFSET_CALIBRATED else 2.0 * s0

    r_xy = np.hypot(x[:, None], y[None, :])
    env = control_envelope(r_xy, config.beam)
    ic_xy = env * env
    tp_z = _axis_two_photon(config, z, s0, offset)

    if per_voxel_exact:
        n_vox = x.size * y.size * z.size
        if n_vox > 5000:
            raise ValueError(
                f"per-voxel shift evaluation on {n_vox} voxels is impractical; "
                "coarsen the grid or use the frozen-s0 mode"
            )
        field_grid = np.empty((x.size, y.size, z.size))
        # one batched quadrature per z plane, over that plane's distinct radii
        radii, where = np.unique(r_xy, return_inverse=True)
        for k, zk in enumerate(z):
            plane = [Position(r=float(rr), z=float(zk)) for rr in radii]
            s_here = shift_at(plane, config, quadrature)
            tp_base = tp_z[k] + s0  # undo the frozen shift, re-subtract per voxel
            field_grid[:, :, k] = steady_population(config, ic_xy, tp_base - s_here[where].reshape(r_xy.shape))
    else:
        field_grid = np.asarray(steady_population(config, ic_xy[:, :, None], tp_z[None, None, :]), dtype=float)

    _check_resolved(field_grid)

    return Map3D(
        x=x,
        y=y,
        z=z,
        field=field_grid,
        s0=s0,
        delta_offset=offset,
    )


def _check_resolved(field_grid) -> None:
    """Reject grids that cannot resolve the peak's half-maximum width."""
    peak = np.unravel_index(int(np.argmax(field_grid)), field_grid.shape)
    half = HALF_MAX * float(field_grid.max())
    names = ("x", "y", "z")
    for axis in range(3):
        index = list(peak)
        index[axis] = slice(None)
        first, last = _run_around(field_grid[tuple(index)], peak[axis], half)
        count = last - first + 1
        if count < _MIN_SAMPLES:
            raise RuntimeError(
                f"grid too coarse along {names[axis]}: {count} samples across the "
                f"half-maximum width (need at least {_MIN_SAMPLES}); refine the spacing"
            )


def iso_extents(volume: Map3D) -> dict[str, tuple[float, float] | None]:
    """Bounding interval of the iso-level region along each axis, or None if absent.

    Uses the maximum projection onto each axis, whose level crossings bound
    the iso surface; crossing positions are linearly interpolated between
    grid planes.
    """
    out: dict[str, tuple[float, float] | None] = {}
    for name, coords, axis_pair in (
        ("x", volume.x, (1, 2)),
        ("y", volume.y, (0, 2)),
        ("z", volume.z, (0, 1)),
    ):
        profile = volume.field.max(axis=axis_pair)
        out[name] = _level_interval(coords, profile, HALF_MAX)
    return out


def _level_interval(coords: np.ndarray, profile: np.ndarray, level: float):
    above = np.nonzero(profile >= level)[0]
    if above.size == 0:
        return None
    i0, i1 = int(above[0]), int(above[-1])
    if i0 == 0:
        lo = float(coords[0])
    else:
        lo = _interp_crossing(coords[i0 - 1], coords[i0], profile[i0 - 1], profile[i0], level)
    if i1 == profile.size - 1:
        hi = float(coords[-1])
    else:
        hi = _interp_crossing(coords[i1], coords[i1 + 1], profile[i1], profile[i1 + 1], level)
    return (lo, hi)


def _interp_crossing(x0: float, x1: float, v0: float, v1: float, level: float) -> float:
    return float(x0 + (level - v0) / (v1 - v0) * (x1 - x0))


def extract_fwhm(coords, values, lambda_c: float) -> float:
    """Full width at half maximum of one sampled peak, to 1e-4 lambda_c.

    The samples must hold a single contiguous region at or above 0.5 with
    both crossings interior to the window; the crossing positions are found
    by bisecting the piecewise-linear interpolant.
    """
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    if coords.ndim != 1 or coords.shape != values.shape or coords.size < 3:
        raise ValueError("coords and values must be equal-length 1D arrays of at least 3 samples")
    if not np.all(np.diff(coords) > 0):
        raise ValueError("coords must be strictly increasing")
    above = np.flatnonzero(values >= HALF_MAX)
    if not above.size:
        raise ValueError("profile maximum is below the half-maximum level")
    if above[-1] - above[0] + 1 > above.size:
        raise ValueError("multiple peaks above the half maximum; restrict the window to one period")
    left, right = _crossings(coords, values, int(above[0]), lambda xx: np.interp(xx, coords, values), 1e-4 * lambda_c)
    if left is None or right is None:
        raise ValueError("no crossing of the half maximum inside the window")
    return right - left

