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

`masked_kernel_sum` sums each lattice row by panels of whole detuning
periods: cut or near panels cell by cell, and far, wholly unblocked panels
from the moments of 1/B on one unit of periods per row, by a 20-term Taylor series
of D^-6 (a panel is at most 1/4 of its distance from the atom wide, which
bounds the truncation below 1.1e-13 of the panel's sum). The mask is the
exact cell compare d2 < R_b^2, a tie unblocked. `masked_kernel_sum` and
`shift_at` take one Position, giving a float, or a sequence of Positions
that share one z, giving a 1-D array: the atoms of a batch share one
lattice, and each entry is bit-identical to the single-position call at
any thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bloch import b_coefficients, b_values, linewidth_from
from .config import STANDING_WAVE, TWO_PI, Position, SystemConfig, with_delta_shift
from .fields import _bisect, control_envelope, detuning_profile
from .parallel import block_ranges, map_ordered, pairwise_sum

# Blockade-mask variants: the radius can follow the local linewidth at each
# candidate neighbor's radius (anisotropic, the default: it is the variant
# that reproduces the calibrated-delta working points), or stay fixed at the
# value set by the linewidth at the localized atom itself.
MASK_LOCAL = "local"
MASK_ATOM = "atom"
_MASKS = (MASK_LOCAL, MASK_ATOM)

_BLOCK_ROWS = 256  # fixed row partition; never depends on worker count
# Far panels are summed from moments: a panel is at most 1/_PANEL_RATIO of its
# distance from the atom wide, and its Taylor series keeps _TAYLOR_TERMS terms.
_PANEL_RATIO = 4.0
_TAYLOR_TERMS = 20
_MAX_FOLD_PERIODS = 8
# Float temporaries of one block stay within about this many elements (512 kB),
# small enough to stay in L2; atoms, moment columns and cut-panel rows are
# chunked to fit.
_BLOCK_FLOATS = 1 << 16
_CALIBRATION_REL_TOL = 1e-3  # fixed-point stop: |delta step| <= this times |s_0|
_REFINE_TOL = 1e-3  # blockade boundary crossings are bisected to this width, um
# Default lattice spacings, multiples of lambda_c: the reference lattice, and the
# fast one, which agrees with it to well under 1%.
REFERENCE_SPACING = 0.01
FAST_SPACING = 0.02
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


def _series_constants(n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Moment scales kappa_n and coefficients g_n of the rescaled Taylor recurrence.

    The Taylor coefficients p_n of (a^2 + (C + x)^2)^-3 about x = 0 obey
    (a^2 + C^2)(n + 1) p_{n+1} = -2C(n + 3) p_n - (n + 5) p_{n-1}. Writing
    p_n = kappa_n pt_n with kappa_{n+1} = -2 (n + 3)/(n + 1) kappa_n leaves
    pt_{n+1} = c pt_n + g_n e pt_{n-1}, where e = 1/(a^2 + C^2), c = C e,
    pt_0 = e^3 and pt_1 = c pt_0; the moments carry the kappa_n.
    """
    kappa = np.ones(n_terms + 2)
    for n in range(n_terms + 1):
        kappa[n + 1] = -2.0 * (n + 3) / (n + 1) * kappa[n]
    g = [0.0] + [-(n + 5) / (n + 1) * kappa[n - 1] / kappa[n + 1] for n in range(1, n_terms + 1)]
    return kappa[:n_terms], np.array(g)


_KAPPA, _G = _series_constants(_TAYLOR_TERMS)
# moments about a centre shifted by delta: M'_n = sum_j C(n, j) delta^(n - j) M_j
_BINOMIAL = np.array([[math.comb(n, j) for n in range(_TAYLOR_TERMS)] for j in range(_TAYLOR_TERMS)], dtype=float)
_ORDER_GAP = np.maximum(np.arange(_TAYLOR_TERMS) - np.arange(_TAYLOR_TERMS)[:, None], 0)  # n - j at [j, n]


def _powers(x: np.ndarray) -> np.ndarray:
    """x^n for n < _TAYLOR_TERMS, one row per offset."""
    return np.asarray(x, dtype=float)[:, None] ** np.arange(_TAYLOR_TERMS)


def _unit_cells(period: float, dz: float) -> tuple[int, bool]:
    """Cells per unit, and whether 1/B repeats unit by unit.

    A unit is the fewest whole cells that span a whole number of detuning
    periods (at most _MAX_FOLD_PERIODS), to 4 ulp; otherwise it is the cells
    of about one period, and 1/B does not repeat.
    """
    for m in range(1, _MAX_FOLD_PERIODS + 1):
        q = round(m * period / dz)
        if q >= 1 and abs(q * dz - m * period) <= 4.0 * np.spacing(m * period):
            return q, True
    return max(1, round(period / dz)), False


def _panel_layout(n_units: int, unit: float, extent_z: float, a2: float) -> list[tuple[int, int]]:
    """Panels [j0, j1) of 2^m whole units, walking out from the atom on both sides.

    Each panel is the widest power of two of units that is at most
    1/_PANEL_RATIO of its distance sqrt(a2 + C^2) from the atom, for rows at
    least sqrt(a2) from it; units too close for any width stay single.
    """

    def fits(j0: int, j1: int) -> bool:
        centre = -0.5 * extent_z + 0.5 * (j0 + j1) * unit
        return 0 <= j0 and j1 <= n_units and (_PANEL_RATIO * (j1 - j0) * unit) ** 2 <= a2 + centre * centre

    split = next((j for j in range(n_units) if -0.5 * extent_z + (j + 0.5) * unit >= 0.0), n_units)
    panels = []
    for sign, end in ((1, n_units), (-1, 0)):  # outward above the atom, then below it
        j = split
        while j != end:
            size = 1
            while fits(*sorted((j, j + 2 * sign * size))):
                size *= 2
            panels.append(tuple(sorted((j, j + sign * size))))
            j += sign * size
    return panels


@dataclass(frozen=True)
class _PanelGroup:
    """Panels of one width (cells): start cells, centres and nearest/farthest dz^2."""

    starts: np.ndarray
    width: int
    centre: np.ndarray  # z offset of each panel centre from the atom, um
    lo: np.ndarray  # smallest (z - z_j)^2 over each panel's cells
    hi: np.ndarray  # largest
    admit2: float  # (_PANEL_RATIO * width)^2: a Taylor panel needs a^2 + C^2 at least this
    basis: np.ndarray | None  # moments = 1/B times this (see masked_kernel_sum); None: cells only


def _panel_series(d: np.ndarray, taylor: np.ndarray, group: _PanelGroup, moments: np.ndarray) -> np.ndarray:
    """Sum over the panels marked in `taylor` of sum_n M_n p_n, per (atom, row).

    `d` holds a^2 = (r - r_j)^2 with shape (atoms, 1, rows) and `moments`
    the scaled moments, shape (N, panels or 1, rows). The series is summed
    backward (Clenshaw): b_n = M_n + c b_{n+1} + g_{n+1} e b_{n+2}, and the
    sum is e^3 b_0. Unmarked panels get e = 0, so they add exactly 0.
    """
    centre = group.centre[:, None]
    e = d + centre * centre
    np.copyto(e, np.inf, where=~taylor)
    np.reciprocal(e, out=e)
    c = e * centre
    b1 = np.zeros_like(e)
    b2 = np.zeros_like(e)
    tmp = np.empty_like(e)
    for n in range(_TAYLOR_TERMS - 1, -1, -1):
        np.multiply(b2, e, out=tmp)
        np.multiply(tmp, _G[n + 1], out=tmp)
        np.multiply(b1, c, out=b2)
        np.add(b2, tmp, out=b2)
        np.add(b2, moments[n], out=b2)
        b1, b2 = b2, b1
    np.multiply(e, e, out=tmp)
    np.multiply(tmp, e, out=tmp)
    np.multiply(b1, tmp, out=b1)
    return b1.sum(axis=1)


def masked_kernel_sum(
    atom_pos: Position | Sequence[Position],
    config: SystemConfig,
    quad: QuadratureSpec,
    mask: str = MASK_LOCAL,
    threads: int = 1,
) -> float | np.ndarray:
    """The bare lattice sum K = sum r / (D^6_planar * B) * dr * dz over unblocked cells.

    The physical shift is 2 pi C6 rho I_p K, so linearity of s in the C6 and
    rho prefactors is exact by construction once B is fixed. Each row's z
    sum is split into panels; the r-weighted rows are summed per fixed
    256-row block, and the blocks combine in a fixed pairwise tree, so the
    result is bit-identical for any `threads`. One Position gives a float;
    a sequence of Positions sharing one z gives a 1-D array, each entry
    bit-identical to its single-position call.

    Panels. The z column is cut into units: the fewest whole cells spanning
    whole detuning periods (100 cells on the 0.01/0.03 lambda_c lattices, 25
    on 0.04), else about one period of cells. Panels of 2^m whole units walk
    out from the atom, each at most 1/4 of its distance D = sqrt(a^2 + C^2)
    from the atom wide, where a = r - r_j and C is the panel centre's z
    offset; the cells past the last whole unit form one more panel. An atom
    uses, in each 256-row block, the layout built for a = unit * 2^k with the
    largest k its nearest row in the block allows (a = 0 within one unit),
    so the layout depends on that atom and block only.

    Exact mask. A cell is blocked when (r - r_j)^2 + (z - z_j)^2 < R_b^2,
    the float compare of the cell-by-cell sum; a tie counts as unblocked.
    The float sum is monotone, so a panel is wholly unblocked exactly when
    its nearest cell is, and wholly blocked exactly when its farthest cell
    is. Wholly blocked panels are skipped.

    Far panels. A wholly unblocked panel of width w with a^2 + C^2 >= (4 w)^2
    is summed as sum_{n<N} M_n p_n with N = 20: p_n are the Taylor
    coefficients of (a^2 + (C + x)^2)^-3 (`_series_constants`), M_n = sum
    (1/B) x^n the moments of the panel's cells about its centre. Where 1/B
    repeats unit by unit (whole periods to 4 ulp, or B the same on every
    unit, as in constant mode) 1/B is evaluated on one unit per row, and its
    moments are shifted binomially to each panel width; otherwise each
    panel's moments come from its own cells. Truncation bound: the poles
    sit at distance D, so |p_n| <= C(n+5, 5) D^(-6-n), and with |x| <= D/8
    the dropped terms are at most sum_{n>=20} C(n+5, 5) 8^-n < 6e-14 times
    D^-6 sum(1/B), below 1.1e-13 of the panel's own sum.

    Near panels, panels cut by the blockade edge and the last partial unit
    run the cell-by-cell chain 1 / (B d2 d2 d2) with the blocked cells
    removed.
    """
    if mask not in _MASKS:
        raise ValueError(f"unknown blockade mask '{mask}'")
    atoms = [atom_pos] if isinstance(atom_pos, Position) else list(atom_pos)
    if not atoms or any(atom.z != atoms[0].z for atom in atoms):
        raise ValueError("atom positions must be one Position or a non-empty sequence sharing one z")
    n_atoms = len(atoms)
    z_j = atoms[0].z
    r_atoms = np.array([atom.r for atom in atoms])

    dr, dz = quad.spacing_r, quad.spacing_z
    n_r = int(round(quad.extent_r / dr))
    n_z = int(round(quad.extent_z / dz))
    r = (np.arange(n_r) + 0.5) * dr
    z = z_j - 0.5 * quad.extent_z + (np.arange(n_z) + 0.5) * dz

    rb, (b_p, b_q, b_r) = _blockade_rows(config, r)
    t_col = config.probe.delta_p + np.asarray(detuning_profile(z, config.detuning), dtype=float)
    dz2_col = (z - z_j) ** 2

    if mask == MASK_ATOM:  # one radius per atom, shape (atoms, 1)
        rb_rows = _blockade_rows(config, r_atoms)[0][:, None]
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

    q, folded = _unit_cells(config.detuning.period, dz)
    folded = folded or np.array_equal(t_col[q:], t_col[:-q])
    n_units, unit = n_z // q, q * dz
    unit_powers = _powers((np.arange(q) - 0.5 * (q - 1)) * dz)

    def panel_groups(a2: float) -> list[_PanelGroup]:
        spans = sorted((j0 * q, j1 * q) for j0, j1 in _panel_layout(n_units, unit, quad.extent_z, a2))
        if n_units * q < n_z:
            spans.append((n_units * q, n_z))
        starts, stops = np.array(spans).T
        lo, hi = np.minimum.reduceat(dz2_col, starts), np.maximum.reduceat(dz2_col, starts)
        groups = []
        for width in sorted(set(stops - starts)):
            if width % q:  # the cells past the last whole unit: cell by cell only
                admit2, basis = np.inf, None
            elif folded:  # binomial shift of one unit's moments to the panel centre
                offsets = (np.arange(width // q) - 0.5 * (width // q - 1)) * unit
                shift = np.sum(_powers(offsets), axis=0)[_ORDER_GAP]
                admit2, basis = (_PANEL_RATIO * width * dz) ** 2, _BINOMIAL * shift * _KAPPA
            else:  # scaled powers of the panel's own cell offsets
                admit2 = (_PANEL_RATIO * width * dz) ** 2
                basis = _powers((np.arange(width) - 0.5 * (width - 1)) * dz) * _KAPPA
            sel = stops - starts == width
            centre = -0.5 * quad.extent_z + (starts[sel] + 0.5 * width) * dz
            groups.append(_PanelGroup(starts[sel], int(width), centre, lo[sel], hi[sel], admit2, basis))
        return groups

    # An atom whose nearest row in a block is at least unit * 2^level away
    # sums that block on the coarser layout of that level (-1: nearer).
    blocks = block_ranges(n_r, _BLOCK_ROWS)
    gaps = np.array([np.maximum(0.0, np.maximum(r[i0] - r_atoms, r_atoms - r[i1 - 1])) for i0, i1 in blocks])
    levels = np.floor(np.log2(np.maximum(gaps, 0.5 * unit) / unit)).astype(int)
    layouts = {level: panel_groups((unit * 2.0**level) ** 2 if level >= 0 else 0.0) for level in set(levels.flat)}
    widest = max(group.width for groups in layouts.values() for group in groups)

    def one_block(index: int) -> np.ndarray:
        i0, i1 = blocks[index]
        n = i1 - i0
        coeffs = (b_p[i0:i1, None], b_q[i0:i1, None], b_r[i0:i1, None])
        dr2 = (r[i0:i1] - r_atoms[:, None]) ** 2
        rb2_block = rb2[:, i0:i1]
        row_sums = np.zeros((n_atoms, n))
        # one scratch buffer per block, reused by every chunk below: fresh
        # temporaries this size would be mmapped or trimmed and page-faulted anew
        scratch = np.empty(max(_BLOCK_FLOATS, 2 * widest))

        def table(rows: int, cols: int) -> np.ndarray:
            return scratch[: rows * cols].reshape(rows, cols)

        def cell_moments(k0: int, basis: np.ndarray) -> np.ndarray:
            # sum over cells k0 + i of (1/B) basis[i], per row, in column chunks;
            # B = P + Q t + R t^2 is one matrix product per chunk, several times
            # faster than elementwise passes on tables this narrow
            out = np.zeros((n, basis.shape[1]))
            pqr = np.column_stack(coeffs)
            cols = max(1, _BLOCK_FLOATS // n)
            for c0 in range(0, len(basis), cols):
                c1 = min(c0 + cols, len(basis))
                t = t_col[k0 + c0 : k0 + c1]
                inv_b = np.matmul(pqr, np.stack((np.ones_like(t), t, t * t)), out=table(n, c1 - c0))
                out += np.reciprocal(inv_b, out=inv_b) @ basis[c0:c1]
            return out

        if folded and n_units:
            unit_moments = cell_moments(0, unit_powers)

        def moments_of(group: _PanelGroup) -> np.ndarray:
            # scaled moments about each panel centre, shape (N, panels or 1, rows)
            if folded:
                return np.ascontiguousarray((unit_moments @ group.basis).T)[:, None, :]
            return np.stack([cell_moments(k0, group.basis).T for k0 in group.starts], axis=1)

        def cell_sums(a_idx, r_idx, k0: int, width: int) -> np.ndarray:
            # the cell-by-cell chain on the given (atom, row) pairs of one panel
            sums = np.empty(len(a_idx))
            step = max(1, len(scratch) // (2 * width))
            cols = slice(k0, k0 + width)
            for s0 in range(0, len(a_idx), step):
                a_s, r_s = a_idx[s0 : s0 + step], r_idx[s0 : s0 + step]
                d2, term = table(2 * len(a_s), width).reshape(2, len(a_s), width)
                np.add(dr2[a_s, r_s][:, None], dz2_col[cols], out=d2)
                np.copyto(d2, np.inf, where=d2 < rb2_block[a_s, r_s][:, None])
                b_values(*(c[r_s] for c in coeffs), t_col[cols], out=term)
                for _ in range(3):
                    np.multiply(term, d2, out=term)
                np.reciprocal(term, out=term)  # 1 / (B d2^3), 0 on blocked cells
                np.sum(term, axis=1, out=sums[s0 : s0 + step])
            return sums

        for level in sorted(set(levels[index])):
            in_level = np.flatnonzero(levels[index] == level)
            for group in layouts[level]:
                moments = None
                chunk = max(1, _BLOCK_FLOATS // (8 * n * len(group.starts)))
                for c0 in range(0, len(in_level), chunk):
                    idx = in_level[c0 : c0 + chunk]
                    d = dr2[idx, None, :]
                    rb2_chunk = rb2_block[idx, None, :]
                    taylor = d + group.lo[:, None] >= rb2_chunk
                    taylor &= d + (group.centre * group.centre)[:, None] >= group.admit2
                    if taylor.any():
                        if moments is None:
                            moments = moments_of(group)
                        row_sums[idx] += _panel_series(d, taylor, group, moments)
                    cut = d + group.hi[:, None] >= rb2_chunk
                    cut &= ~taylor
                    for i in np.flatnonzero(cut.any(axis=(0, 2))):
                        a_idx, r_idx = np.nonzero(cut[:, i, :])
                        row_sums[idx[a_idx], r_idx] += cell_sums(idx[a_idx], r_idx, group.starts[i], group.width)
        np.multiply(row_sums, r[i0:i1], out=row_sums)
        return row_sums.sum(axis=1)

    block_sums = map_ordered(one_block, range(len(blocks)), threads=threads)
    total = pairwise_sum(block_sums) * dr * dz
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

