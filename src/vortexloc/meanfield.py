"""Blockade bookkeeping and the mean-field interaction shift.

The shift s(r_j, z_j) felt by an atom is a van der Waals sum over the
steady excitation density outside the blockade region, reduced by azimuthal
symmetry to a 2D midpoint-lattice quadrature. The per-neighbor excitation
uses the superatom-saturated fraction, which collapses the integrand to
I_p / B, with B quadratic in the two-photon detuning t = Delta_p + Delta_c(z):

    B = P(r) + t (Q(r) + R(r) t)
    P = I_c(r) + N_sa(r) I_p
    Q = -2 Delta_p I_c(r) / (I_p + I_c(r))
    R = (gamma^2 + Delta_p^2 + 2 I_p) / (I_p + I_c(r))

(P, Q, R) come from `bloch.b_coefficients`, which also gives the steady
population I_p / B (N_sa = 1 there). A resonant probe has Q = 0. All
frequencies are rad/us, lengths um.

`masked_kernel_sum` sums the shift kernel over the lattice by the algorithm
in `kernel`, which loads with the first quadrature rather than with every
command. The mask is the exact cell compare d2 < R_b^2, a tie unblocked.
`masked_kernel_sum` and `shift_at` take one Position, giving a float, or a
sequence of Positions that share one z, giving a 1-D array: the atoms of a
batch share one lattice, and each entry is bit-identical to the
single-position call at any thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .bloch import b_coefficients, b_values, linewidth_from
from .config import STANDING_WAVE, TWO_PI, Position, SystemConfig, with_delta_shift
from .fields import _bisect, control_envelope, detuning_profile

# Blockade-mask variants: the radius can follow the local linewidth at each
# candidate neighbor's radius (anisotropic, the default: it is the variant
# that reproduces the calibrated-delta working points), or stay fixed at the
# value set by the linewidth at the localized atom itself.
MASK_LOCAL = "local"
MASK_ATOM = "atom"
_MASKS = (MASK_LOCAL, MASK_ATOM)

_CALIBRATION_REL_TOL = 1e-3  # fixed-point stop: |delta step| <= this times |s_0|
_REFINE_TOL = 1e-3  # blockade boundary crossings are bisected to this width, um
# Default lattice spacings, multiples of lambda_c: the reference lattice, and the
# fast one, which agrees with it to well under 1%.
REFERENCE_SPACING = 0.01
FAST_SPACING = 0.02
FOUR_THIRDS_PI = 4.0 * math.pi / 3.0
# The most directions blockade_boundary marches: each direction's 1023-point
# row and its temporaries take about 37 kB, so 4096 of them peak near 190 MB.
_MAX_DIRECTIONS = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint-lattice extents and spacings for the shift quadrature (um)."""

    extent_r: float
    extent_z: float
    spacing_r: float
    spacing_z: float

    def __post_init__(self) -> None:
        for name in ("extent_r", "extent_z", "spacing_r", "spacing_z"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite length")
        if self.spacing_r > self.extent_r or self.spacing_z > self.extent_z:
            raise ValueError("spacings must not exceed extents")

    @classmethod
    def scaled(cls, lambda_c: float, spacing_multiple: float, extent_multiple: float = 100.0) -> "QuadratureSpec":
        """The square lattice of the given spacing and extent, both multiples of lambda_c."""
        return cls(
            extent_multiple * lambda_c,
            extent_multiple * lambda_c,
            spacing_multiple * lambda_c,
            spacing_multiple * lambda_c,
        )


@dataclass(frozen=True)
class ShiftQuadrature:
    """How a shift is integrated: lattice, blockade mask, truncation-tail bound and worker count.

    `lattice=None` lets each entry point take its own default lattice (the
    reference one for `shift_at`, the fast one for the scans and their
    calibration). The truncation tail estimate must stay below `tail_tol` of
    every shift; `threads` never changes a result.
    """

    lattice: QuadratureSpec | None = None
    mask: str = MASK_LOCAL
    tail_tol: float = 0.01
    threads: int = 1

    def __post_init__(self) -> None:
        if self.mask not in _MASKS:
            raise ValueError(f"unknown blockade mask '{self.mask}'")
        tail_tol, threads = self.tail_tol, self.threads
        # numpy scalars count as numbers; bools do not
        if isinstance(tail_tol, bool) or not isinstance(tail_tol, numbers.Real) or not (
            math.isfinite(tail_tol) and tail_tol > 0
        ):
            raise ValueError(f"tail_tol must be a finite fraction above 0, got {tail_tol!r}")
        if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
            raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")

    def or_lattice(self, default: QuadratureSpec) -> "ShiftQuadrature":
        """This value, on `default` when it names no lattice."""
        return self if self.lattice is not None else replace(self, lattice=default)


@dataclass(frozen=True)
class ShiftGrid:
    """Sampled shift values along one axis."""

    positions: np.ndarray  # um
    s_values: np.ndarray  # rad/us
    near_core_flatness: float | None = None


@dataclass(frozen=True)
class BlockadeBoundary:
    """Star-shaped blockade boundary polyline around one atom in the (r, z) plane."""

    angles: np.ndarray
    distances: np.ndarray
    points: np.ndarray  # (n, 2) rows (r, z); r is signed across the axis


def blockade_radius(w, c6: float):
    """Blockade radius (C6/w)^(1/6) in um; elementwise over an array of linewidths."""
    if np.any(np.asarray(w) <= 0):
        raise ValueError("linewidth w must be positive; w=0 gives an unbounded blockade radius")
    if c6 < 0:
        raise ValueError("c6 must be nonnegative")
    r_b = (c6 / w) ** (1.0 / 6.0)
    return float(r_b) if np.ndim(r_b) == 0 else r_b


def superatom_count(r_b, rho: float):
    """Atoms (4 pi/3) R_b^3 rho inside one blockade sphere; elementwise over an array of radii."""
    if np.any(np.asarray(r_b) <= 0):
        raise ValueError("blockade radius must be positive")
    if rho < 0:
        raise ValueError("density must be nonnegative")
    return FOUR_THIRDS_PI * r_b**3 * rho


def local_linewidth(config: SystemConfig, r):
    """Linewidth w at radius r (scalar or array), from the local control intensity."""
    env = control_envelope(r, config.beam)
    return linewidth_from(config.probe.intensity, env * env, config.probe.delta_p, config.medium.gamma)


def _blockade_rows(config: SystemConfig, r: np.ndarray):
    """(R_b, (P, Q, R)) on a radius grid: the blockade radius and the coefficients of B with N_sa(R_b)."""
    ip, delta_p, gamma = config.probe.intensity, config.probe.delta_p, config.medium.gamma
    env = control_envelope(r, config.beam)
    ic = env * env
    rb = blockade_radius(linewidth_from(ip, ic, delta_p, gamma), config.medium.c6)
    return rb, b_coefficients(ip, ic, superatom_count(rb, config.medium.density_rho) * ip, delta_p, gamma)


def map_ordered(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """fn of each item, in input order; more than one thread maps them on a pool.

    Threads do not pay off for the shift kernel, whose blocks are mostly small
    numpy calls under the interpreter lock: `BENCH_6.json` measured 2 threads
    at 0.70 times the speed of one (`parallel.speedup_2t`). `concurrent.futures`
    is imported only when a pool starts, so a one-thread run loads neither it
    nor the `logging` it brings (about 1.1 MB).
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def pairwise_sum(values: Iterable):
    """Sum of scalars or equal-shape arrays by a fixed binary tree over their order.

    The tree's shape depends only on the number of terms, so terms computed
    by different workers always combine identically.
    """
    level = [v if isinstance(v, np.ndarray) else float(v) for v in values]
    if not level:
        return 0.0
    while len(level) > 1:
        pairs = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        level = pairs + level[-1:] if len(level) % 2 else pairs
    return level[0]


def masked_kernel_sum(
    atom_pos: Position | Sequence[Position],
    config: SystemConfig,
    quad: QuadratureSpec,
    mask: str = MASK_LOCAL,
    threads: int = 1,
) -> float | np.ndarray:
    """The bare lattice sum K = sum r / (D^6_planar * B) * dr * dz over unblocked cells.

    The physical shift is 2 pi C6 rho I_p K, so linearity of s in the C6 and
    rho prefactors is exact by construction once B is fixed. The r-weighted
    sums are formed per fixed 256-row block, and the blocks combine in a
    fixed pairwise tree, so the result is bit-identical for any `threads`.
    One Position gives a float; a sequence of Positions sharing one z gives
    a 1-D array, each entry bit-identical to its single-position call.
    `kernel` says how each block is summed: panels, far tiles, Taylor series
    and the exact blockade mask.
    """
    if mask not in _MASKS:
        raise ValueError(f"unknown blockade mask '{mask}'")
    atoms = [atom_pos] if isinstance(atom_pos, Position) else list(atom_pos)
    if not atoms or any(atom.z != atoms[0].z for atom in atoms):
        raise ValueError("atom positions must be one Position or a non-empty sequence sharing one z")
    from .kernel import kernel_plan  # loaded with the first quadrature, not by every command

    plan = kernel_plan(np.array([atom.r for atom in atoms]), atoms[0].z, config, quad, mask)
    results = map_ordered(plan.block, range(plan.n_blocks), threads=threads)
    total = pairwise_sum(plan.block_sums(results)) * quad.spacing_r * quad.spacing_z
    return float(total[0]) if isinstance(atom_pos, Position) else total


def _tail_fraction(config: SystemConfig, lattice: QuadratureSpec, s_values: np.ndarray) -> np.ndarray:
    """Estimated missing fraction of each shift from truncating the quadrature domain.

    Everything outside the lattice is bounded by a uniform far-field
    excitation density rho * I_p * <1/B>_z (phase-averaged over one detuning
    period at the far radial edge) integrated over the exterior of the
    inscribed sphere: tail <= C6 rho f 4 pi / (3 R^3).
    """
    _, coefficients = _blockade_rows(config, np.array([lattice.extent_r]))
    period = config.detuning.period
    z = (np.arange(1024) + 0.5) * (period / 1024.0)
    t = config.probe.delta_p + np.asarray(detuning_profile(z, config.detuning), dtype=float)
    f_cap = config.probe.intensity * float(np.mean(1.0 / b_values(*coefficients, t)))
    radius = min(lattice.extent_r, 0.5 * lattice.extent_z)
    tail = config.medium.c6 * config.medium.density_rho * f_cap * FOUR_THIRDS_PI / radius**3
    return tail / (np.abs(s_values) + tail)


def shift_at(
    atom_pos: Position | Sequence[Position],
    config: SystemConfig,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
) -> float | np.ndarray:
    """Mean-field shift s(r_j, z_j) in rad/us by blockade-masked midpoint quadrature.

    One Position gives a float; a sequence of Positions sharing one z gives
    a 1-D array from one batched `masked_kernel_sum`, each entry
    bit-identical to its single-position call. The lattice defaults to the
    reference one. The truncation tail estimate must stay below
    `quadrature.tail_tol` of every result.
    """
    single = isinstance(atom_pos, Position)
    atoms = [atom_pos] if single else atom_pos
    if config.medium.c6 == 0.0:
        return 0.0 if single else np.zeros(len(atoms))
    quad = quadrature.or_lattice(QuadratureSpec.scaled(config.beam.wavelength_c, REFERENCE_SPACING)).lattice
    ip = config.probe.intensity
    prefactor = TWO_PI * config.medium.c6 * config.medium.density_rho * ip
    s = prefactor * masked_kernel_sum(atoms, config, quad, mask=quadrature.mask, threads=quadrature.threads)
    fraction = float(_tail_fraction(config, quad, s).max())
    if fraction > quadrature.tail_tol:
        raise RuntimeError(
            f"quadrature domain too small: estimated truncation tail {fraction:.2%} "
            f"exceeds the allowed {quadrature.tail_tol:.2%}"
        )
    return float(s[0]) if single else s


def shift_profile(
    axis: str,
    positions,
    config: SystemConfig,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
) -> ShiftGrid:
    """Sample shift_at along the radial (z_j at the node) or longitudinal (r_j = 0) axis."""
    if axis not in ("radial", "longitudinal"):
        raise ValueError("axis must be 'radial' or 'longitudinal'")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 1 or positions.size == 0:
        raise ValueError(f"positions must be a non-empty 1-D sequence, got shape {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    z_loc = localized_point(config).z

    flatness = None
    if axis == "radial":
        # one batched quadrature at z_loc, with the r = 0 flatness reference
        # appended when the positions lack it
        near = positions <= 0.1 * config.beam.wavelength_c
        add_zero = near.any() and 0.0 not in positions[near]
        radii = np.append(positions, 0.0) if add_zero else positions
        batch = shift_at([Position(r=float(p), z=z_loc) for p in radii], config, quadrature)
        values = batch[: positions.size]
        if near.any():
            s0 = batch[-1] if add_zero else values[near][positions[near].argmin()]
            if s0 > 0:
                flatness = float(np.max(np.abs(values[near] - s0)) / s0)
    else:
        # each z_j centres its own lattice, so these stay one quadrature each
        values = np.array([shift_at(Position(r=0.0, z=float(p)), config, quadrature) for p in positions])

    return ShiftGrid(positions=positions, s_values=values, near_core_flatness=flatness)


def localized_point(config: SystemConfig) -> Position:
    """The working atom position: on axis, at the standing-wave node z = 3/4 of the modulation period."""
    return Position(r=0.0, z=0.75 * config.detuning.period)


def s0_integral(config: SystemConfig, quadrature: ShiftQuadrature = ShiftQuadrature()) -> float:
    """Shift s_0 at the localized point (r_j = 0, z_j = 3/4 of the period); standing-wave mode only."""
    if config.detuning.mode != STANDING_WAVE:
        raise ValueError("s0 requires the standing-wave detuning mode")
    return shift_at(localized_point(config), config, quadrature)


def calibrated_offset(
    config: SystemConfig,
    quadrature: ShiftQuadrature = ShiftQuadrature(),
    max_iter: int = 8,
) -> tuple[float, float]:
    """Self-consistent antiblockade offset: returns (s_0, delta) with delta = Delta_c0 + s_0.

    The offset delta feeds back into the detuning profile inside the
    quadrature, so the calibration is the fixed point of
    delta -> Delta_c0 + s_0(delta); it converges in a few iterations.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if config.detuning.mode != STANDING_WAVE:
        raise ValueError("calibration requires the standing-wave detuning mode")
    delta_c0 = config.detuning.delta_c0
    if config.medium.c6 == 0.0:
        return 0.0, delta_c0
    delta = config.detuning.delta_shift
    for _ in range(max_iter):
        s0 = s0_integral(with_delta_shift(config, delta), quadrature)
        new_delta = delta_c0 + s0
        if abs(new_delta - delta) <= max(1e-9, _CALIBRATION_REL_TOL * abs(s0)):
            return s0, new_delta
        delta = new_delta
    raise RuntimeError(f"delta calibration did not converge in {max_iter} iterations")


def blockade_boundary(
    atom_pos: Position,
    config: SystemConfig,
    resolution: int = 256,
) -> BlockadeBoundary:
    """First blockade-condition crossing along each direction from the atom.

    A neighbor at planar offset d blocks the atom while d < R_b(w(r_neighbor));
    the returned polyline is star-shaped around the atom by construction. Every
    direction marches over the same 1024-point grid in one array call, and
    the first crossings are then bisected together to 1e-3 um.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8 directions")
    if resolution > _MAX_DIRECTIONS:
        raise ValueError(f"resolution must be at most {_MAX_DIRECTIONS} directions, got {resolution}")
    c6 = config.medium.c6
    if c6 <= 0:
        raise ValueError("blockade boundary requires c6 > 0")

    angles = TWO_PI * np.arange(resolution) / resolution
    cos_t = np.cos(angles)

    def outside(d, cos):
        radius = np.abs(atom_pos.r + d * cos)
        return d >= blockade_radius(local_linewidth(config, radius), c6)

    # w is smallest (R_b largest) where the control vanishes; cap the march there.
    cap = 1.5 * float(np.max(blockade_radius(local_linewidth(config, np.abs([atom_pos.r, 0.0])), c6)))
    march = np.linspace(0.0, cap, 1024)
    crossed = outside(march[1:], cos_t[:, np.newaxis])
    if not crossed.any(axis=1).all():
        raise RuntimeError("no blockade crossing found within the march cap")
    first = crossed.argmax(axis=1)
    distances = _bisect(lambda d: outside(d, cos_t), march[first], march[first + 1], _REFINE_TOL)

    points = np.column_stack(
        (atom_pos.r + distances * cos_t, atom_pos.z + distances * np.sin(angles))
    )
    return BlockadeBoundary(angles=angles, distances=distances, points=points)

