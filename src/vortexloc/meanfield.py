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

A resonant probe has Q = 0. All frequencies are rad/us, lengths um.

`masked_kernel_sum` and `shift_at` take one Position, giving a float, or a
sequence of Positions that share one z, giving a 1-D array: the atoms of a
batch share one lattice and one B, and each entry is bit-identical to the
single-position call at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bloch import linewidth_from
from .config import STANDING_WAVE, TWO_PI, Position, SystemConfig, with_delta_shift
from .fields import control_envelope, detuning_profile
from .parallel import block_ranges, map_ordered, pairwise_sum

# Blockade-mask variants: the radius can follow the local linewidth at each
# candidate neighbor's radius (anisotropic, the default: it is the variant
# that reproduces the calibrated-delta working points), or stay fixed at the
# value set by the linewidth at the localized atom itself.
MASK_LOCAL = "local"
MASK_ATOM = "atom"
_MASKS = (MASK_LOCAL, MASK_ATOM)

_BLOCK_ROWS = 256  # fixed row partition; never depends on worker count
# Each block is walked in sub-blocks, its rows spread evenly over them, whose
# float buffers (B, d2 and, for a batch, one chain buffer) hold at most twice
# this many cells together, small enough to stay in L2. The buffers are
# allocated once per block and filled in place: fresh block-sized
# temporaries would each be mmapped and page-faulted anew.
_SUB_BLOCK_CELLS = 1 << 16
FOUR_THIRDS_PI = 4.0 * math.pi / 3.0


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
    def paper_default(cls, lambda_c: float) -> "QuadratureSpec":
        """Reference lattice: 100 lambda_c extents, 0.01 lambda_c spacing."""
        return cls(100.0 * lambda_c, 100.0 * lambda_c, 0.01 * lambda_c, 0.01 * lambda_c)

    @classmethod
    def fast(cls, lambda_c: float) -> "QuadratureSpec":
        """Coarser 0.02 lambda_c lattice; agrees with the full grid to well under 1%."""
        return cls(100.0 * lambda_c, 100.0 * lambda_c, 0.02 * lambda_c, 0.02 * lambda_c)

    @classmethod
    def scaled(cls, lambda_c: float, spacing_multiple: float, extent_multiple: float = 100.0) -> "QuadratureSpec":
        return cls(
            extent_multiple * lambda_c,
            extent_multiple * lambda_c,
            spacing_multiple * lambda_c,
            spacing_multiple * lambda_c,
        )

    def halved(self) -> "QuadratureSpec":
        return QuadratureSpec(self.extent_r, self.extent_z, 0.5 * self.spacing_r, 0.5 * self.spacing_z)


@dataclass(frozen=True)
class ShiftGrid:
    """Sampled shift values along one axis, with the spec that produced them."""

    axis: str
    positions: np.ndarray  # um
    s_values: np.ndarray  # rad/us
    quad: QuadratureSpec
    mask: str
    config_fingerprint: str
    near_core_flatness: float | None = None


@dataclass(frozen=True)
class BlockadeBoundary:
    """Star-shaped blockade boundary polyline around one atom in the (r, z) plane."""

    atom_r: float
    atom_z: float
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


def superatom_count(r_b: float, rho: float) -> float:
    """Number of atoms (4 pi/3) R_b^3 rho inside one blockade sphere."""
    if r_b <= 0:
        raise ValueError("blockade radius must be positive")
    if rho < 0:
        raise ValueError("density must be nonnegative")
    return FOUR_THIRDS_PI * r_b**3 * rho


def excitation_fraction(f0: float, n_sa: float) -> float:
    """Saturated per-atom excitation f0 / (1 + (N_sa - 1) f0) of a superatom."""
    if not 0.0 <= f0 <= 1.0:
        raise ValueError("f0 must lie in [0, 1]")
    if n_sa < 1.0:
        raise ValueError("superatom count must be at least 1")
    return f0 / (1.0 + (n_sa - 1.0) * f0)


def chi_mask(point: tuple[float, float], atom_pos: tuple[float, float], local_r_b: float) -> int:
    """Interaction mask: 0 strictly inside the blockade sphere, 1 on and outside it."""
    dr = point[0] - atom_pos[0]
    dz = point[1] - atom_pos[1]
    return 1 if dr * dr + dz * dz >= local_r_b * local_r_b else 0


def _radial_profiles(config: SystemConfig, r: np.ndarray):
    """(I_c, w, R_b) on a radius grid."""
    ip = config.probe.omega_p0 ** 2
    env = control_envelope(r, config.beam)
    ic = env * env
    w = linewidth_from(ip, ic, config.probe.delta_p, config.medium.gamma)
    rb = (config.medium.c6 / w) ** (1.0 / 6.0)
    return ic, w, rb


def _b_coefficients(config: SystemConfig, ip: float, ic, nsa_ip):
    """Per-radius (P, Q, R) of the quadratic B = P + t (Q + R t) in the two-photon detuning t."""
    gamma = config.medium.gamma
    dp = config.probe.delta_p
    total = ip + ic
    p = ic + nsa_ip
    q = -2.0 * dp * ic / total
    r = (gamma * gamma + dp * dp + 2.0 * ip) / total
    return p, q, r


def _b_values(b_p, b_q, b_r, t, out: np.ndarray) -> np.ndarray:
    """B = P + t (Q + R t) written into `out`; coefficients broadcast against t."""
    np.multiply(b_r, t, out=out)
    np.add(out, b_q, out=out)
    np.multiply(out, t, out=out)
    return np.add(out, b_p, out=out)


def masked_kernel_sum(
    atom_pos: Position | Sequence[Position],
    config: SystemConfig,
    quad: QuadratureSpec,
    mask: str = MASK_LOCAL,
    threads: int = 1,
) -> float | np.ndarray:
    """The bare lattice sum K = sum r / (D^6_planar * B) * dr * dz over unblocked cells.

    The physical shift is 2 pi C6 rho I_p K, so linearity of s in the C6 and
    rho prefactors is exact by construction once B is fixed. Each row is
    summed over z, the r-weighted rows are summed per fixed 256-row block,
    and the blocks combine in a fixed pairwise tree, so the result is
    bit-identical for any `threads`. One Position gives a float; a sequence
    of Positions sharing one z gives a 1-D array, each entry bit-identical
    to its single-position call: every sub-block fills B once, and each atom
    runs the single-position chain on it.
    """
    if mask not in _MASKS:
        raise ValueError(f"unknown blockade mask '{mask}'")
    atoms = [atom_pos] if isinstance(atom_pos, Position) else list(atom_pos)
    if not atoms or any(atom.z != atoms[0].z for atom in atoms):
        raise ValueError("atom positions must be one Position or a non-empty sequence sharing one z")
    n_atoms = len(atoms)
    ip = config.probe.omega_p0 ** 2
    rho = config.medium.density_rho
    z_j = atoms[0].z
    r_atoms = np.array([atom.r for atom in atoms])

    dr, dz = quad.spacing_r, quad.spacing_z
    n_r = int(round(quad.extent_r / dr))
    n_z = int(round(quad.extent_z / dz))
    r = (np.arange(n_r) + 0.5) * dr
    z = z_j - 0.5 * quad.extent_z + (np.arange(n_z) + 0.5) * dz

    ic, w, rb = _radial_profiles(config, r)
    b_p, b_q, b_r = _b_coefficients(config, ip, ic, FOUR_THIRDS_PI * rb**3 * rho * ip)
    t_col = config.probe.delta_p + np.asarray(detuning_profile(z, config.detuning), dtype=float)
    dz2_col = (z - z_j) ** 2

    if mask == MASK_ATOM:  # one radius per atom, shape (atoms, 1)
        rb_rows = np.array([_radial_profiles(config, np.array([abs(r_j)]))[2] for r_j in r_atoms])
    else:  # one radius per row, shape (1, rows)
        rb_rows = rb[None, :]
    rb_min = float(rb_rows.min())
    rb2 = np.broadcast_to(rb_rows**2, (n_atoms, n_r))  # per (atom, row); a view, no copy
    spacing = max(dr, dz)
    if rb_min < 2.0 * spacing:
        raise ValueError(
            f"blockade radius {rb_min:.3g} um is below twice the lattice spacing "
            f"{spacing:.3g} um; the masked kernel is not resolved"
        )
    n_buffers = min(n_atoms, 2) + 1
    fit = max(1, 2 * _SUB_BLOCK_CELLS // (n_buffers * n_z))
    sub_rows = math.ceil(_BLOCK_ROWS / math.ceil(_BLOCK_ROWS / fit))

    def one_block(bounds: tuple[int, int]) -> np.ndarray:
        i0, i1 = bounds
        rows = min(sub_rows, i1 - i0)
        b, d2, *term = np.empty((n_buffers, rows, n_z))
        blocked = np.empty((rows, n_z), dtype=bool)
        row_sums = np.empty((n_atoms, i1 - i0))
        for a in range(i0, i1, rows):
            e = min(a + rows, i1)
            n, lo, hi = e - a, a - i0, e - i0
            b_s, d2_s, blocked_s = b[:n], d2[:n], blocked[:n]
            _b_values(b_p[a:e, None], b_q[a:e, None], b_r[a:e, None], t_col, out=b_s)
            dr2 = (r[a:e] - r_atoms[:, None]) ** 2
            # d2 >= dr2, so only rows with dr2 < rb2 can hold blocked cells.
            # The mask is built and applied only where an atom has such a
            # row; all rows then take a plain sum, which is several times
            # cheaper than np.sum(..., where=mask).
            near_rows = dr2 < rb2[:, a:e]
            for k in range(n_atoms):
                term_s = b_s if k == n_atoms - 1 else term[0][:n]  # the last chain runs in place in B
                np.add(dr2[k, :, None], dz2_col, out=d2_s)
                np.multiply(b_s, d2_s, out=term_s)
                for _ in range(2):
                    np.multiply(term_s, d2_s, out=term_s)
                np.reciprocal(term_s, out=term_s)  # 1 / (d2^3 B)
                if near_rows[k].any():
                    np.less(d2_s, rb2[k, a:e, None], out=blocked_s)
                    np.copyto(term_s, 0.0, where=blocked_s)
                np.sum(term_s, axis=1, out=row_sums[k, lo:hi])
        np.multiply(row_sums, r[i0:i1], out=row_sums)
        return row_sums.sum(axis=1)

    block_sums = map_ordered(one_block, block_ranges(n_r, _BLOCK_ROWS), threads=threads)
    total = pairwise_sum(block_sums) * dr * dz
    return float(total[0]) if isinstance(atom_pos, Position) else total


def _tail_fraction(config: SystemConfig, quad: QuadratureSpec, s_values: np.ndarray) -> np.ndarray:
    """Estimated missing fraction of each shift from truncating the quadrature domain.

    Everything outside the lattice is bounded by a uniform far-field
    excitation density rho * I_p * <1/B>_z (phase-averaged over one detuning
    period at the far radial edge) integrated over the exterior of the
    inscribed sphere: tail <= C6 rho f 4 pi / (3 R^3).
    """
    ip = config.probe.omega_p0 ** 2
    r_far = np.array([quad.extent_r])
    ic_far, _, rb_far = _radial_profiles(config, r_far)
    nsa_ip_far = FOUR_THIRDS_PI * rb_far**3 * config.medium.density_rho * ip
    period = config.detuning.period
    z = (np.arange(1024) + 0.5) * (period / 1024.0)
    t = config.probe.delta_p + np.asarray(detuning_profile(z, config.detuning), dtype=float)
    b_far = _b_values(*_b_coefficients(config, ip, ic_far, nsa_ip_far), t, out=np.empty_like(t))
    f_cap = ip * float(np.mean(1.0 / b_far))
    radius = min(quad.extent_r, 0.5 * quad.extent_z)
    tail = config.medium.c6 * config.medium.density_rho * f_cap * FOUR_THIRDS_PI / radius**3
    return tail / (np.abs(s_values) + tail)


def shift_at(
    atom_pos: Position | Sequence[Position],
    config: SystemConfig,
    quad: QuadratureSpec | None = None,
    mask: str = MASK_LOCAL,
    threads: int = 1,
    tail_tol: float = 0.01,
    verify_convergence: bool = False,
) -> float | np.ndarray:
    """Mean-field shift s(r_j, z_j) in rad/us by blockade-masked midpoint quadrature.

    One Position gives a float; a sequence of Positions sharing one z gives
    a 1-D array from one batched `masked_kernel_sum`, each entry
    bit-identical to its single-position call. `verify_convergence`
    re-evaluates on a half-spacing lattice and rejects the spec if the two
    results disagree by more than 5%. The truncation tail estimate must stay
    below `tail_tol` of every result.
    """
    single = isinstance(atom_pos, Position)
    atoms = [atom_pos] if single else atom_pos
    if config.medium.c6 == 0.0:
        return 0.0 if single else np.zeros(len(atoms))
    if quad is None:
        quad = QuadratureSpec.paper_default(config.beam.wavelength_c)
    ip = config.probe.omega_p0 ** 2
    prefactor = TWO_PI * config.medium.c6 * config.medium.density_rho * ip
    s = prefactor * masked_kernel_sum(atoms, config, quad, mask=mask, threads=threads)
    fraction = float(_tail_fraction(config, quad, s).max())
    if fraction > tail_tol:
        raise RuntimeError(
            f"quadrature domain too small: estimated truncation tail {fraction:.2%} "
            f"exceeds the allowed {tail_tol:.2%}"
        )
    if verify_convergence:
        s_fine = prefactor * masked_kernel_sum(atoms, config, quad.halved(), mask=mask, threads=threads)
        off = np.abs(s - s_fine) > 0.05 * np.abs(s_fine)
        if off.any():
            k = int(off.argmax())
            raise RuntimeError(
                f"quadrature spacing too coarse: {s[k]:.6g} vs {s_fine[k]:.6g} rad/us "
                "on the half-spacing lattice (>5%)"
            )
    return float(s[0]) if single else s


def shift_profile(
    axis: str,
    positions,
    config: SystemConfig,
    quad: QuadratureSpec | None = None,
    mask: str = MASK_LOCAL,
    threads: int = 1,
    tail_tol: float = 0.01,
) -> ShiftGrid:
    """Sample shift_at along the radial (z_j = 3 lambda_c/4) or longitudinal (r_j = 0) axis."""
    if axis not in ("radial", "longitudinal"):
        raise ValueError("axis must be 'radial' or 'longitudinal'")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 1 or positions.size == 0:
        raise ValueError(f"positions must be a non-empty 1-D sequence, got shape {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    z_loc = 0.75 * config.beam.wavelength_c
    kwargs = dict(quad=quad, mask=mask, threads=threads, tail_tol=tail_tol)

    flatness = None
    if axis == "radial":
        # one batched quadrature at z_loc, with the r = 0 flatness reference
        # appended when the positions lack it
        near = positions <= 0.1 * config.beam.wavelength_c
        add_zero = near.any() and 0.0 not in positions[near]
        radii = np.append(positions, 0.0) if add_zero else positions
        batch = shift_at([Position(r=float(p), phi=0.0, z=z_loc) for p in radii], config, **kwargs)
        values = batch[: positions.size]
        if near.any():
            s0 = batch[-1] if add_zero else values[near][positions[near].argmin()]
            if s0 > 0:
                flatness = float(np.max(np.abs(values[near] - s0)) / s0)
    else:
        # each z_j centres its own lattice, so these stay one quadrature each
        values = np.array([shift_at(Position(r=0.0, phi=0.0, z=float(p)), config, **kwargs) for p in positions])

    return ShiftGrid(
        axis=axis,
        positions=positions,
        s_values=values,
        quad=quad if quad is not None else QuadratureSpec.paper_default(config.beam.wavelength_c),
        mask=mask,
        config_fingerprint=config.fingerprint(),
        near_core_flatness=flatness,
    )


def localized_point(config: SystemConfig) -> Position:
    """The working atom position: on axis, at the standing-wave node z = 3 lambda_c/4."""
    return Position(r=0.0, phi=0.0, z=0.75 * config.beam.wavelength_c)


def s0_integral(
    config: SystemConfig,
    quad: QuadratureSpec | None = None,
    mask: str = MASK_LOCAL,
    threads: int = 1,
    tail_tol: float = 0.01,
    verify_convergence: bool = False,
) -> float:
    """Shift s_0 at the localized point (r_j = 0, z_j = 3 lambda_c/4); standing-wave mode only."""
    if config.detuning.mode != STANDING_WAVE:
        raise ValueError("s0 requires the standing-wave detuning mode")
    return shift_at(
        localized_point(config),
        config,
        quad=quad,
        mask=mask,
        threads=threads,
        tail_tol=tail_tol,
        verify_convergence=verify_convergence,
    )


def calibrated_offset(
    config: SystemConfig,
    quad: QuadratureSpec | None = None,
    mask: str = MASK_LOCAL,
    threads: int = 1,
    tail_tol: float = 0.01,
    rel_tol: float = 1e-3,
    max_iter: int = 8,
) -> tuple[float, float]:
    """Self-consistent antiblockade offset: returns (s_0, delta) with delta = Delta_c0 + s_0.

    The offset delta feeds back into the detuning profile inside the
    quadrature, so the calibration is the fixed point of
    delta -> Delta_c0 + s_0(delta); it converges in a few iterations.
    """
    if config.detuning.mode != STANDING_WAVE:
        raise ValueError("calibration requires the standing-wave detuning mode")
    delta_c0 = config.detuning.delta_c0
    if config.medium.c6 == 0.0:
        return 0.0, delta_c0
    delta = config.detuning.delta_shift
    for _ in range(max_iter):
        s0 = s0_integral(
            with_delta_shift(config, delta), quad=quad, mask=mask, threads=threads, tail_tol=tail_tol
        )
        new_delta = delta_c0 + s0
        if abs(new_delta - delta) <= max(1e-9, rel_tol * abs(s0)):
            return s0, new_delta
        delta = new_delta
    raise RuntimeError(f"delta calibration did not converge in {max_iter} iterations")


def calibrate_delta(
    config: SystemConfig,
    quad: QuadratureSpec | None = None,
    mask: str = MASK_LOCAL,
    threads: int = 1,
    tail_tol: float = 0.01,
    rel_tol: float = 1e-3,
    max_iter: int = 8,
) -> float:
    """Partial-antiblockade offset delta = Delta_c0 + s_0, solved self-consistently."""
    _, delta = calibrated_offset(
        config, quad=quad, mask=mask, threads=threads, tail_tol=tail_tol, rel_tol=rel_tol, max_iter=max_iter
    )
    return delta


def blockade_boundary(
    atom_pos: Position,
    config: SystemConfig,
    resolution: int = 256,
    local_w_fn=None,
    refine_tol: float = 1e-3,
) -> BlockadeBoundary:
    """First blockade-condition crossing along each direction from the atom.

    A neighbor at planar offset d blocks the atom while d < R_b(w(r_neighbor));
    the returned polyline is star-shaped around the atom by construction. The
    linewidth model can be overridden through `local_w_fn(radii) -> w`, which
    takes an array of radii and returns an array of linewidths (or a scalar
    that broadcasts: a uniform control field then yields a sphere). Every
    direction marches over the same 1024-point grid in one array call, and
    the first crossings are then bisected together to `refine_tol`.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8 directions")
    c6 = config.medium.c6
    if c6 <= 0:
        raise ValueError("blockade boundary requires c6 > 0")

    if local_w_fn is None:
        ip = config.probe.omega_p0 ** 2

        def local_w_fn(radius):
            env = control_envelope(radius, config.beam)
            return linewidth_from(ip, env * env, config.probe.delta_p, config.medium.gamma)

    angles = TWO_PI * np.arange(resolution) / resolution
    cos_t = np.cos(angles)

    def outside(d, cos):
        radius = np.abs(atom_pos.r + d * cos)
        return d >= blockade_radius(np.broadcast_to(local_w_fn(radius), radius.shape), c6)

    # w is smallest (R_b largest) where the control vanishes; cap the march there.
    cap = 1.5 * float(np.max(blockade_radius(local_w_fn(np.abs([atom_pos.r, 0.0])), c6)))
    march = np.linspace(0.0, cap, 1024)
    crossed = outside(march[1:], cos_t[:, np.newaxis])
    if not crossed.any(axis=1).all():
        raise RuntimeError("no blockade crossing found within the march cap")
    first = crossed.argmax(axis=1)
    lo, hi = march[first], march[first + 1]
    active = hi - lo > refine_tol
    while active.any():
        mid = 0.5 * (lo + hi)
        out = outside(mid, cos_t)
        hi = np.where(active & out, mid, hi)
        lo = np.where(active & ~out, mid, lo)
        active = hi - lo > refine_tol
    distances = 0.5 * (lo + hi)

    points = np.column_stack(
        (atom_pos.r + distances * cos_t, atom_pos.z + distances * np.sin(angles))
    )
    return BlockadeBoundary(
        atom_r=atom_pos.r, atom_z=atom_pos.z, angles=angles, distances=distances, points=points
    )


__all__ = [
    "MASK_LOCAL",
    "MASK_ATOM",
    "QuadratureSpec",
    "ShiftGrid",
    "BlockadeBoundary",
    "blockade_radius",
    "superatom_count",
    "excitation_fraction",
    "chi_mask",
    "masked_kernel_sum",
    "shift_at",
    "shift_profile",
    "localized_point",
    "s0_integral",
    "calibrated_offset",
    "calibrate_delta",
    "blockade_boundary",
]
