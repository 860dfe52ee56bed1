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

`masked_kernel_sum` splits each lattice row into panels of whole detuning
periods. Far, wholly unblocked (r, z) tiles of 2^k rows by one panel are
summed by a 2-D Taylor series of D^-6 from moments of r/B; far, wholly
unblocked panels of one row by a 1-D series from moments of 1/B; near
panels, and the unit of a panel that the blockade edge crosses, cell by
cell. A tile or panel is at most 1/4 of its distance from the atom across,
which bounds the truncation below 1.1e-13 of its own sum. The series and
the panel layout live in `farfield`, which loads with the first quadrature
rather than with every command. The mask is the
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
# Float temporaries of one block stay within about this many elements (512 kB),
# small enough to stay in L2; atoms, moment columns and cut-panel rows are
# chunked to fit.
_BLOCK_FLOATS = 1 << 16
_TILE_LEVELS = (4, 6, 8)  # far tiles are 2^k rows of a block tall, k increasing
_TILE_MARGIN = 1e-12  # a tile's rows clear the nearest-cell compare by this relative margin
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
    a 1-D array, each entry bit-identical to its single-position call: each
    choice below depends on that atom and block only, and each atom's terms
    are added in a fixed order.

    Panels. The z column is cut into units: the fewest whole cells spanning
    whole detuning periods (100 cells on the 0.01/0.03 lambda_c lattices, 25
    on 0.04), else about one period of cells. Panels of 2^m whole units walk
    out from the atom, each at most 1/4 of its distance D = sqrt(a^2 + C^2)
    from the atom wide, where a = r - r_j and C is the panel centre's z
    offset; the cells past the last whole unit form one more panel. An atom
    uses, in each 256-row block, the layout built for a = unit * 2^k with the
    largest k its nearest row in the block allows (a = 0 within one unit).

    Exact mask. A cell is blocked when (r - r_j)^2 + (z - z_j)^2 < R_b^2,
    the float compare of the cell-by-cell sum; a tie counts as unblocked.
    The float sum is monotone, so a panel is wholly unblocked exactly when
    its nearest cell is, and wholly blocked exactly when its farthest cell
    is. Wholly blocked panels are skipped.

    Far tiles. A tile is an aligned group of h = 2^k rows (k = 4, 6, 8) of a
    block by one panel of width w. An atom sums it as one term when it is
    far, sqrt(h^2 + w^2) <= D/4 with D the distance to its centre, and
    wholly unblocked: each row clears the nearest-cell compare by a relative
    1e-12, so the exact compare holds too (rows nearer the edge stay with
    the panels). Tiles are taken largest first, and the rows they take leave
    the panels. A tile is sum_{m+n<20} p_mn M_mn (`farfield._tile_constants`),
    the moments M_mn of r/B about its centre built from the rows' panel
    moments.
    Truncation bound: with rho^2 = (W + xi)(conj(W) + conj(xi)), W = A + iC
    and xi = x + iy, the degree-d part of rho^-6 is at most
    D^-6 C(d+5, 5) |xi/D|^d, as sum_{k+l=d} C(k+2, 2) C(l+2, 2) = C(d+5, 5);
    |xi| <= D/8 leaves the panels' bound, below 1.1e-13 of the tile's sum.
    A block with at least _TILE_PASS tile terms sums them in a pass of its
    own; the other blocks' tiles (a single position has a few per block)
    share one pass after the last block.

    Far panels. A wholly unblocked panel of width w with a^2 + C^2 >= (4 w)^2
    is summed as sum_{n<N} M_n p_n with N = 20: p_n are the Taylor
    coefficients of (a^2 + (C + x)^2)^-3 (`farfield._series_constants`),
    M_n = sum (1/B) x^n the moments of the panel's cells about its centre.
    Where 1/B repeats unit by unit (whole periods to 4 ulp, or B the same on
    every unit, as in constant mode) 1/B is evaluated on one unit per row,
    and its moments are shifted binomially to each panel width; otherwise
    each panel's moments come from its own cells. Truncation bound: the poles
    sit at distance D, so |p_n| <= C(n+5, 5) D^(-6-n), and with |x| <= D/8
    the dropped terms are at most sum_{n>=20} C(n+5, 5) 8^-n < 6e-14 times
    D^-6 sum(1/B), below 1.1e-13 of the panel's own sum.

    Cut far panels. Where 1/B repeats unit by unit, a far panel that the
    blockade edge cuts skips its wholly blocked units, sums the unit the
    edge crosses cell by cell, and sums the units beyond it as aligned
    pieces of 2^m units, one series each (`farfield._cut_pieces`).

    Near panels, the other cut panels and the last partial unit run the
    cell-by-cell chain 1 / (B d2 d2 d2) with the blocked cells removed.
    """
    if mask not in _MASKS:
        raise ValueError(f"unknown blockade mask '{mask}'")
    # loaded with the first quadrature, not by every command
    from .farfield import (
        _TAYLOR_TERMS, _TILE_PASS, _TILE_TRIANGLE, _cut_pieces, _layout, _panel_series, _piece, _powers, _tile_sums, _unit_cells,
    )

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
    unit_starts = np.arange(max(n_units, 1)) * q
    unit_lo, unit_hi = np.minimum.reduceat(dz2_col, unit_starts), np.maximum.reduceat(dz2_col, unit_starts)

    # An atom whose nearest row in a block is at least unit * 2^level away
    # sums that block on the coarser layout of that level (-1: nearer).
    blocks = block_ranges(n_r, _BLOCK_ROWS)
    gaps = np.array([np.maximum(0.0, np.maximum(r[i0] - r_atoms, r_atoms - r[i1 - 1])) for i0, i1 in blocks])
    levels = np.floor(np.log2(np.maximum(gaps, 0.5 * unit) / unit)).astype(int)
    layouts = {
        level: _layout((unit * 2.0**level) ** 2 if level >= 0 else 0.0, quad.extent_z, dz, q, dz2_col, folded)
        for level in set(levels.flat)
    }
    tile_powers = {k: _powers((np.arange(1 << k) - 0.5 * ((1 << k) - 1)) * dr).T for k in _TILE_LEVELS}

    def one_block(index: int):
        i0, i1 = blocks[index]
        n = i1 - i0
        r_block = r[i0:i1]
        coeffs = (b_p[i0:i1], b_q[i0:i1], b_r[i0:i1])
        dr2 = (r_block - r_atoms[:, None]) ** 2
        rb2_block = rb2[:, i0:i1]
        row_sums = np.zeros((n_atoms, n))
        buffer = np.empty(_BLOCK_FLOATS // 4)  # reused by cell_moments and at_least
        cached = {}

        def cell_moments(k0: int, basis: np.ndarray) -> np.ndarray:
            # sum over cells k0 + i of (1/B) basis[i], per row, in column chunks;
            # B = P + Q t + R t^2 is one matrix product per chunk, several times
            # faster than elementwise passes on tables this narrow
            out = np.zeros((n, basis.shape[1]))
            pqr = np.column_stack(coeffs)
            cols = max(1, len(buffer) // n)
            for c0 in range(0, len(basis), cols):
                c1 = min(c0 + cols, len(basis))
                t = t_col[k0 + c0 : k0 + c1]
                inv_b = np.matmul(pqr, np.stack((np.ones_like(t), t, t * t)), out=buffer[: n * (c1 - c0)].reshape(n, -1))
                out += np.reciprocal(inv_b, out=inv_b) @ basis[c0:c1]
            return out

        def unit_moments() -> np.ndarray:
            if "unit" not in cached:
                cached["unit"] = cell_moments(0, unit_powers)
            return cached["unit"]

        def piece_moments(count: int) -> np.ndarray:
            # scaled moments about their centre of pieces of 1, 2, 4, ... units, flat
            # at [n, m * rows + row] for pieces of 2^m units
            if len(cached.get("pieces", ())) < count * n:
                cached["pieces"] = np.concatenate([(unit_moments() @ _piece(1 << m, unit)).T for m in range(count)], axis=1)
            return cached["pieces"]

        def at_least(x: np.ndarray, y: np.ndarray, bound: np.ndarray) -> np.ndarray:
            # x + y >= bound as booleans, shape (atoms, panels, rows), the float sum
            # formed a few atoms at a time in `buffer`
            out = np.empty((len(x), len(y), n), dtype=bool)
            step = max(1, len(buffer) // (len(y) * n))
            for s0 in range(0, len(x), step):
                part = buffer[: len(x[s0 : s0 + step]) * len(y) * n].reshape(-1, len(y), n)
                np.add(x[s0 : s0 + step], y, out=part)
                np.greater_equal(part, bound[s0 : s0 + step], out=out[s0 : s0 + step])
            return out

        def cells(a_e, r_e, c0_e, width: int) -> np.ndarray:
            # the cell-by-cell chain 1 / (B d2 d2 d2) over `width` cells from c0 of
            # each (atom, row) entry, blocked cells dropped; one column per entry
            # while computing, one row per entry to sum
            out = np.empty(len(a_e))
            step = max(1, _BLOCK_FLOATS // (8 * width))
            for s0 in range(0, len(a_e), step):
                a_s, r_s = a_e[s0 : s0 + step], r_e[s0 : s0 + step]
                cols = c0_e[s0 : s0 + step] + np.arange(width)[:, None]
                d2 = dz2_col[cols] + dr2[a_s, r_s]
                np.copyto(d2, np.inf, where=d2 < rb2_block[a_s, r_s])
                term = b_values(*(c[r_s] for c in coeffs), t_col[cols], out=np.empty(d2.shape))
                for _ in range(3):
                    np.multiply(term, d2, out=term)
                np.reciprocal(term, out=term)  # 1 / (B d2^3), 0 on blocked cells
                np.sum(np.ascontiguousarray(term.T), axis=1, out=out[s0 : s0 + step])
            return out

        def series(d_e, centre_e, table, at) -> np.ndarray:
            # _panel_series a few thousand entries at a time
            out = np.empty(len(d_e))
            for s0 in range(0, len(d_e), _BLOCK_FLOATS // 16):
                part = slice(s0, s0 + _BLOCK_FLOATS // 16)
                out[part] = _panel_series(d_e[part], centre_e[part], table, at[part])
            return out

        # tiles fit in the whole 2^k-row groups of the block; `cover` marks, per atom
        # and panel, the g_min groups of 2^fine rows that a tile takes
        fine = _TILE_LEVELS[0]
        tile_levels, g_min = [k for k in _TILE_LEVELS if n >> k], n >> fine
        tile_atoms, tile_a, tile_c = [np.empty(0, dtype=int)], [np.empty(0)], [np.empty(0)]
        tile_ids, tile_moments = [np.empty(0, dtype=int)], [np.empty((0, len(_TILE_TRIANGLE)))]
        n_tiles = 0

        for level in sorted(set(levels[index])):
            in_level = np.flatnonzero(levels[index] == level)
            lay = layouts[level]
            n_panels = len(lay.starts)
            c2 = lay.centre * lay.centre
            moments = {}

            def series_moments() -> np.ndarray:
                # scaled moments of each row about each panel centre, flat at [n, row of
                # moments * rows + row]
                if "series" not in moments:
                    if folded:
                        rows = [unit_moments() @ basis for basis in lay.bases]
                    else:
                        rows = [np.zeros((n, _TAYLOR_TERMS)) if b is None else cell_moments(k0, b) for k0, b in zip(lay.starts, lay.bases)]
                    moments["series"] = np.concatenate([m.T for m in rows], axis=1)
                return moments["series"]

            # far tiles, largest first, for every atom of the level: a row clears the
            # nearest-cell compare of each panel whose lo is at least its threshold
            d = dr2 if len(in_level) == n_atoms else dr2[in_level]
            rb2_level = np.broadcast_to((rb_rows[in_level] if mask == MASK_ATOM else rb_rows[:, i0:i1]) ** 2, d.shape)
            cover = np.zeros((len(in_level), n_panels, g_min), dtype=bool)
            if tile_levels:
                thr = rb2_level * (1.0 + _TILE_MARGIN)
                thr -= d
                thr[d >= rb2_level] = -np.inf
                thr = thr[:, : g_min << fine].reshape(len(in_level), g_min, -1).max(axis=2)
            for k in reversed(tile_levels):
                size, g, per = 1 << k, n >> k, 1 << (k - fine)
                centres = 0.5 * (r_block[: g * size : size] + r_block[size - 1 : g * size : size])
                a_off = centres - r_atoms[in_level, None]
                far2 = np.where(np.isinf(lay.admit2), np.inf, 16.0 * (size * size * dr * dr + (lay.widths * dz) ** 2) - c2)
                ok = lay.lo[:, None] >= thr[:, : g * per].reshape(len(in_level), 1, g, per).max(axis=3)
                ok &= (a_off * a_off)[:, None, :] >= far2[:, None]
                ok &= ~cover[:, :, : g * per].reshape(len(in_level), n_panels, g, per).any(axis=3)
                if ok.any():
                    ai, pi, gi = np.nonzero(ok)
                    tile = lay.row[pi] * g + gi
                    marked = np.zeros(len(lay.bases) * g, dtype=bool)
                    marked[tile] = True
                    used, which = np.flatnonzero(marked), (np.cumsum(marked) - 1)[tile]
                    rows = (used % g)[:, None] * size + np.arange(size)
                    weighted = (series_moments()[:, (used // g)[:, None] * n + rows] * r_block[rows]).transpose(1, 2, 0)
                    tile_moments.append(np.matmul(tile_powers[k], weighted).reshape(len(used), -1)[:, _TILE_TRIANGLE])
                    del weighted
                    tile_atoms.append(in_level[ai])
                    tile_a.append(a_off[ai, gi])
                    tile_c.append(lay.centre[pi])
                    tile_ids.append(n_tiles + which)
                    n_tiles += len(used)
                    cover[:, :, : g * per] |= np.repeat(ok, per, axis=2)
            # the panels left to test row by row: not tiled throughout for every atom,
            # and not surely blocked on every row
            if g_min << fine == n:
                left = ~cover.all(axis=(0, 2))
            else:
                left = np.ones(n_panels, dtype=bool)
            left &= lay.hi >= -float((d - rb2_level).max()) - _TILE_MARGIN * float(rb2_level.max())
            sub = np.flatnonzero(left)
            if not len(sub):
                continue
            lo, hi, sub_c2, admit2 = lay.lo[sub, None], lay.hi[sub, None], c2[sub, None], lay.admit2[sub, None]
            chunk = max(1, min(_BLOCK_FLOATS // (len(sub) * n), _BLOCK_FLOATS // (32 * n)))
            for c0 in range(0, len(in_level), chunk):
                idx = in_level[c0 : c0 + chunk]
                a_n = len(idx)
                dd, rr = d[c0 : c0 + chunk, None, :], rb2_level[c0 : c0 + chunk, None, :]

                def add(ai, ri, sums):
                    row_sums[idx] += np.bincount(ai * n + ri, sums, minlength=a_n * n).reshape(a_n, n)

                far = at_least(dd, sub_c2, np.broadcast_to(admit2, (a_n, len(sub), 1)))
                taylor = at_least(dd, lo, rr)
                taylor &= far
                cut = at_least(dd, hi, rr)
                cut &= ~taylor
                if g_min:  # rows a tile sums are neither Taylor nor cut rows
                    for flags in (taylor, cut):
                        flags[:, :, : g_min << fine].reshape(a_n, len(sub), g_min, -1)[...] &= ~cover[c0 : c0 + chunk, sub, :, None]
                # each (atom, row) adds its panels' sums in this order: Taylor panels,
                # cut far panels (series, then edge cells), then the other cut panels
                ai, si, ri = np.nonzero(taylor)
                if len(ai):
                    p = sub[si]
                    add(ai, ri, series(d[c0 + ai, ri], lay.centre[p], series_moments(), lay.row[p] * n + ri))
                if folded:
                    # cut far panels: wholly blocked units are skipped, the unit that the
                    # blockade edge crosses is summed cell by cell, and the units beyond it
                    # by one series per aligned piece of 2^m units
                    ai, si, ri = np.nonzero(cut & far)
                    cut &= ~far
                    if len(ai):
                        p = sub[si]
                        d_e, units = d[c0 + ai, ri], lay.widths[p] // q
                        edge, crossed, on, centre, size = _cut_pieces(
                            d_e, rb2_level[c0 + ai, ri], units, lay.starts[p] // q, lay.centre[p], unit_lo, unit_hi, unit
                        )
                        add(ai[on], ri[on], series(d_e[on], centre, piece_moments(int(units.max()).bit_length()), size * n + ri[on]))
                        on = np.flatnonzero(crossed)
                        add(ai[on], ri[on], cells(idx[ai[on]], ri[on], edge[on] * q, q))
                # near cut panels (and, where 1/B does not repeat, every cut panel) cell by cell
                ai, si, ri = np.nonzero(cut)
                for width in sorted(set(lay.widths[sub[si]].tolist())):
                    on = np.flatnonzero(lay.widths[sub[si]] == width)
                    add(ai[on], ri[on], cells(idx[ai[on]], ri[on], lay.starts[sub[si[on]]], width))
        np.multiply(row_sums, r_block, out=row_sums)
        block = row_sums.sum(axis=1)
        tiles = [np.concatenate(x) for x in (tile_atoms, tile_a, tile_c, tile_ids, tile_moments)]
        del tile_atoms, tile_a, tile_c, tile_ids, tile_moments
        if len(tiles[0]) >= _TILE_PASS:
            # a full pass of its own, so that a batch's terms do not all wait in memory
            block += np.bincount(tiles[0], _tile_sums(*tiles[1:]), minlength=n_atoms)
            tiles = [x[:0] for x in tiles]
        # the other blocks' tile terms, by block-local tile id, are summed after the last block
        return (block, *tiles)

    results = map_ordered(one_block, range(len(blocks)), threads=threads)
    block_sums = np.array([result[0] for result in results])  # (blocks, atoms)
    # the remaining tile terms in one pass; each (block, atom) adds its own in order
    offsets = np.cumsum([0] + [len(result[5]) for result in results])
    keys, a_e, c_e, ids, moments = (
        np.concatenate(x)
        for x in zip(*[(i * n_atoms + ai, a, c, offsets[i] + ti, m) for i, (_, ai, a, c, ti, m) in enumerate(results)])
    )
    del results  # the blocks' own copies of the tile terms
    if len(keys):
        block_sums += np.bincount(keys, _tile_sums(a_e, c_e, ids, moments), minlength=block_sums.size).reshape(block_sums.shape)
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

