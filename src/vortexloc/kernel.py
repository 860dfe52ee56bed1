"""The shift kernel's lattice sum: panels, far tiles, Taylor series and the cell chain.

`meanfield.masked_kernel_sum` builds a `kernel_plan` for each call and sums
it block by block. It imports this module on its first call, so a command
that runs no shift quadrature does not load it. Every choice below depends
on one atom and one 256-row block only, and each atom's terms are added in
a fixed order, so a batch entry is bit-identical to its single call.

Panels. The z column is cut into units: the fewest whole cells spanning
whole detuning periods (100 cells on the 0.01/0.03 lambda_c lattices, 25
on 0.04), else about one period of cells. Panels of 2^m whole units walk
out from the atom, each at most 1/4 of its distance D = sqrt(a^2 + C^2)
from the atom wide, where a = r - r_j and C is the panel centre's z
offset; the cells past the last whole unit form one more panel. An atom
uses, in each block, the layout built for a = unit * 2^k with the largest
k its nearest row in the block allows (a = 0 within one unit).

Exact mask. A cell is blocked when (r - r_j)^2 + (z - z_j)^2 < R_b^2 in
floats; a tie counts as unblocked. The float sum is monotone, so a panel is
wholly unblocked (blocked) exactly when its nearest (farthest) cell is.
Wholly blocked panels are skipped.

Far tiles. A tile is an aligned group of h = 2^k rows (k = 4, 6, 8) of a
block by one panel of width w. An atom sums it as one term when it is far,
sqrt(h^2 + w^2) <= D/4 with D the distance to its centre, and wholly
unblocked: each row clears the nearest-cell compare by a relative 1e-12, so
the exact compare holds too (rows nearer the edge stay with the panels).
Tiles are taken largest first, and the rows they take leave the panels. A
tile is sum_{m+n<20} p_mn M_mn (`_tile_constants`), the moments M_mn of r/B
about its centre built from the rows' panel moments. Truncation bound: with
rho^2 = (W + xi)(conj(W) + conj(xi)), W = A + iC and xi = x + iy, the
degree-d part of rho^-6 is at most D^-6 C(d+5, 5) |xi/D|^d, as
sum_{k+l=d} C(k+2, 2) C(l+2, 2) = C(d+5, 5); |xi| <= D/8 leaves the panels'
bound, below 1.1e-13 of the tile's sum. A block with at least _TILE_PASS
tile terms sums them in a pass of its own; the other blocks' tiles share
one pass after the last block (`KernelPlan.block_sums`).

Far panels. A wholly unblocked panel of width w with a^2 + C^2 >= (4 w)^2
is summed as sum_{n<N} M_n p_n with N = 20: p_n are the Taylor coefficients
of (a^2 + (C + x)^2)^-3 (`_series_constants`), M_n = sum (1/B) x^n the
moments of the panel's cells about its centre. Where 1/B repeats unit by
unit (whole periods to 4 ulp, or B the same on every unit, as in constant
mode) 1/B is evaluated on one unit per row, and its moments are shifted
binomially to each panel width; otherwise each panel's moments come from
its own cells. Truncation bound: the poles sit at distance D, so
|p_n| <= C(n+5, 5) D^(-6-n), and with |x| <= D/8 the dropped terms are at
most sum_{n>=20} C(n+5, 5) 8^-n < 6e-14 times D^-6 sum(1/B), below 1.1e-13
of the panel's own sum.

Cut far panels. Where 1/B repeats unit by unit, a far panel that the
blockade edge cuts skips its wholly blocked units, sums the unit the edge
crosses cell by cell, and sums all the units beyond it as one piece, one
series about the piece's centre (`_cut_pieces`). The piece is the panel's
far side, no wider than the panel and at least as far from the atom, so
the far-panel bound holds for it too. Near panels, the other cut panels and
the last partial unit run the cell-by-cell chain 1 / (B d2 d2 d2) with the
blocked cells removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import meanfield
from .bloch import b_values
from .config import SystemConfig
from .fields import detuning_profile

_BLOCK_ROWS = 256  # fixed row partition; never depends on worker count
# Float temporaries of one block stay within about this many elements (512 kB),
# small enough to stay in L2; atoms, moment columns and cut-panel rows are
# chunked to fit.
_BLOCK_FLOATS = 1 << 16
_TILE_LEVELS = (4, 6, 8)  # far tiles are 2^k rows of a block tall, k increasing
_TILE_MARGIN = 1e-12  # a tile's rows clear the nearest-cell compare by this relative margin
_PANEL_RATIO = 4.0  # a far panel is at most 1/_PANEL_RATIO of its distance wide
_TAYLOR_TERMS = 20
_MAX_FOLD_PERIODS = 8
_TILE_PASS = 1 << 12  # tile sums are evaluated this many at a time


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


def _tile_constants(n_terms: int) -> tuple[np.ndarray, int, np.ndarray, list, np.ndarray]:
    """The 2-D tile series: its Horner ranks, and the map from a tile's moments to its coefficients.

    A tile sums sum_{m+n<N} p_mn M_mn, with p_mn the Taylor coefficients of
    ((A + x)^2 + (C + y)^2)^-3 about the tile centre and M_mn = sum w x^m y^n,
    w = r / B. With W = A + iC, xi = x + iy and q = -1/W, (W + xi)^-3 =
    W^-3 sum_k c_k q^k xi^k, c_k = C(k + 2, 2), so the same sum, degree by
    degree, is D^-6 Re sum_j conj(q)^j sum_k D^-2k H_kj over 2k + j < N, with
    H_kj = (2 - [j = 0]) c_k c_{k+j} sum w xi^k conj(xi)^(k+j): 110 complex
    coefficients for N = 20 in place of 210 p_mn.

    Returns the largest k of each j; the number of H columns, ordered by j,
    then k; the flat [m, n] indices of the scaled moments S_mn = kappa_n M_mn
    with m + n < N, ordered by degree; per degree d, the weights [n, column]
    by which S_{d-n,n} adds to the real parts (n even) or imaginary parts
    (n odd) of that degree's H columns; and the position of each H column
    among the columns ordered by degree.
    """
    binomial = _BINOMIAL.T  # C(k, m) at [k, m]
    # (x + iy)^k (x - iy)^l = sum_n i^n s[k, l, n] x^(k+l-n) y^n
    s = np.zeros((n_terms, n_terms, 2 * n_terms - 1))
    for b in range(n_terms):
        s[:, :, b : b + n_terms] += ((-1) ** b * binomial[:, b])[None, :, None] * binomial[:, None, :]
    ranks = (n_terms - 1 - np.arange(n_terms)) // 2
    j = np.repeat(np.arange(n_terms), ranks + 1)
    k = np.concatenate([np.arange(rank + 1) for rank in ranks])
    c = (np.arange(n_terms) + 1) * (np.arange(n_terms) + 2) / 2.0
    scale = np.where(j > 0, 2.0, 1.0) * c[k] * c[k + j]
    cols, weights = [np.flatnonzero(2 * k + j == d) for d in range(n_terms)], []
    for d, col in enumerate(cols):
        n = np.arange(d + 1)
        # i^n is 1, i, -1, -i: even n feed the real parts, odd n the imaginary ones
        weights.append((s[k[col], k[col] + j[col]][:, n] * scale[col, None] * np.array([1, 1, -1, -1])[n % 4] / _KAPPA[n]).T)
    triangle = np.concatenate([(d - np.arange(d + 1)) * n_terms + np.arange(d + 1) for d in range(n_terms)])
    order = np.empty(len(j), dtype=int)  # the inverse of the column order by degree
    order[np.concatenate(cols)] = np.arange(len(j))
    return ranks, len(j), triangle, weights, order


_TILE_RANKS, _TILE_COLUMNS, _TILE_TRIANGLE, _TILE_WEIGHTS, _TILE_ORDER = _tile_constants(_TAYLOR_TERMS)


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
class _Layout:
    """The panels of one level, by start cell, with what the kernel tests and sums them by.

    `lo` and `hi` are each panel's smallest and largest (z - z_j)^2. A panel
    is a Taylor panel when a^2 + C^2 >= `admit2`, (4 * width)^2 (inf for the
    cells past the last whole unit, which are summed cell by cell). Its
    scaled moments come from `bases[row]`: where 1/B repeats unit by unit,
    one row per width, the basis that moves one unit's moments to the panel
    centre; else one row per panel, the scaled powers of its cell offsets.
    """

    starts: np.ndarray
    widths: np.ndarray  # cells
    centre: np.ndarray  # z offset of each panel centre from the atom, um
    lo: np.ndarray
    hi: np.ndarray
    admit2: np.ndarray
    row: np.ndarray
    bases: list


def _piece(units: int, unit: float) -> np.ndarray:
    """The scaled basis that moves one unit's moments to the centre of `units` units of length `unit`."""
    offsets = (np.arange(units) - 0.5 * (units - 1)) * unit
    return _BINOMIAL * np.sum(_powers(offsets), axis=0)[_ORDER_GAP] * _KAPPA


def _layout(a2: float, extent_z: float, dz: float, q: int, dz2_col: np.ndarray, folded: bool) -> _Layout:
    """The panels for rows at least sqrt(a2) from the atom, on a z column of `len(dz2_col)` cells.

    `dz2_col` holds each cell's (z - z_j)^2 and `q` the cells per unit;
    `folded` says whether 1/B repeats unit by unit.
    """
    n_z = len(dz2_col)
    n_units, unit = n_z // q, q * dz
    spans = sorted((j0 * q, j1 * q) for j0, j1 in _panel_layout(n_units, unit, extent_z, a2))
    if n_units * q < n_z:
        spans.append((n_units * q, n_z))
    starts, stops = np.array(spans).T
    widths = stops - starts
    whole = widths % q == 0
    if folded:  # one moment row per width: one unit's moments moved to the panel centre
        kinds = sorted(set(widths[whole]))
        row, bases = np.searchsorted(kinds, widths), [_piece(w // q, unit) for w in kinds]
    else:  # one per panel: scaled powers of its own cell offsets
        shared = {w: _powers((np.arange(w) - 0.5 * (w - 1)) * dz) * _KAPPA for w in set(widths[whole])}
        row, bases = np.arange(len(starts)), [shared.get(w) for w in widths]
    centre = -0.5 * extent_z + (starts + 0.5 * widths) * dz
    lo, hi = np.minimum.reduceat(dz2_col, starts), np.maximum.reduceat(dz2_col, starts)
    return _Layout(starts, widths, centre, lo, hi, np.where(whole, (_PANEL_RATIO * widths * dz) ** 2, np.inf), row, bases)


def _cut_pieces(d, rb2, units, first, centre, unit_lo, unit_hi, unit: float):
    """How far panels that the blockade edge cuts are summed, where 1/B repeats unit by unit.

    Each entry is one row of one panel: `d` its (r - r_j)^2, `rb2` its R_b^2,
    `units` and `first` the panel's width and first unit, `centre` the z
    offset of its centre; `unit_lo` and `unit_hi` hold each unit's smallest
    and largest (z - z_j)^2. The panel's wholly blocked units, nearest the
    atom, are skipped. Returns the unit the blockade edge crosses and
    whether the edge crosses it (it is then summed cell by cell, else it is
    wholly unblocked), and the piece of unblocked units beyond the edge:
    its count of units (0: none) and the z offset of its centre.
    """
    upward = centre > 0
    blocked = np.zeros(len(d), dtype=int)
    for u in range(int(units.max())):
        blocked += (d + unit_hi[np.minimum(first + u, len(unit_hi) - 1)] < rb2) & (u < units)
    edge = np.where(upward, blocked, units - 1 - blocked)
    crossed = d + unit_lo[first + edge] < rb2
    # the units beyond the edge: [start, units) above the atom, [0, count) below
    start = np.where(upward, edge + crossed, 0)
    count = np.where(upward, units - start, edge + 1 - crossed)
    return first + edge, crossed, count, centre + (start + 0.5 * count - 0.5 * units) * unit


def _panel_series(d: np.ndarray, centre: np.ndarray, moments: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_n M_n p_n of each (atom, panel, row) entry.

    `d` holds each entry's a^2 = (r - r_j)^2, `centre` its panel centre's
    offset C, and `moments[n, at]` its scaled moments. The series is summed
    backward (Clenshaw): b_n = M_n + c b_{n+1} + g_{n+1} e b_{n+2}, with
    e = 1/(a^2 + C^2) and c = C e, and the sum is e^3 b_0.
    """
    e = np.reciprocal(d + centre * centre)
    c = e * centre
    b1 = b2 = np.zeros_like(e)
    for n in range(_TAYLOR_TERMS - 1, -1, -1):
        b1, b2 = b1 * c + b2 * e * _G[n + 1] + moments[n][at], b1
    return b1 * (e * e * e)


def _tile_sums(a: np.ndarray, c: np.ndarray, tile: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Each entry's tile sum D^-6 Re sum_j conj(q)^j sum_k D^-2k H_kj (`_tile_constants`).

    `a` and `c` are the tile centre's offsets r_c - r_j and z_c - z_j from
    the atom, and `tile` the entry's row of `moments`, which holds each
    tile's scaled moments S_mn by degree. Horner in conj(q) = -(a + ic)/D^2
    outside and in D^-2 inside, _TILE_PASS entries at a time. Complex values
    are carried as real and imaginary rows: numpy's complex multiply may
    round differently on short arrays. So every operation is an elementwise
    real one in a fixed order, and an entry's sum does not depend on the
    other entries or tiles of the pass.
    """
    # real and imaginary parts, columns ordered by degree: H column j lies at _TILE_ORDER[j]
    coefficients = np.zeros((_TILE_COLUMNS, 2, len(moments)))
    col = at = 0
    for weights in _TILE_WEIGHTS:
        for n, w in enumerate(weights):
            coefficients[col : col + len(w), n % 2] += w[:, None] * moments[:, at + n]
        col, at = col + weights.shape[1], at + len(weights)
    out = np.empty(len(a))
    for s0 in range(0, len(a), _TILE_PASS):
        part = slice(s0, s0 + _TILE_PASS)
        rho = 1.0 / (a[part] * a[part] + c[part] * c[part])
        q_bar = np.stack((-(a[part] * rho), -(c[part] * rho)))
        turned = np.stack((c[part] * rho, -(a[part] * rho)))  # i conj(q)
        acc, poly, term, tmp = (np.zeros_like(q_bar) for _ in range(4))
        col = _TILE_COLUMNS
        for rank in _TILE_RANKS[::-1]:
            # acc * conj(q) = Re(acc) conj(q) + Im(acc) i conj(q)
            np.multiply(q_bar, acc[0], out=tmp)
            np.multiply(turned, acc[1], out=term)
            np.add(tmp, term, out=acc)
            col -= rank + 1
            np.take(coefficients[_TILE_ORDER[col + rank]], tile[part], axis=1, out=poly)
            for k in range(rank - 1, -1, -1):
                np.multiply(poly, rho, out=poly)
                np.add(poly, np.take(coefficients[_TILE_ORDER[col + k]], tile[part], axis=1, out=term), out=poly)
            np.add(acc, poly, out=acc)
        out[part] = rho * rho * rho * acc[0]
    return out


@dataclass(frozen=True)
class KernelPlan:
    """One `masked_kernel_sum` call: `block(i)` sums the i-th 256-row block for every atom."""

    n_blocks: int
    n_atoms: int
    block: Callable[[int], tuple]

    def block_sums(self, results: list) -> np.ndarray:
        """The (block, atom) sums of `block`'s `results`, in block order, which it empties.

        The tile terms the blocks left run in one pass; each (block, atom)
        adds its own in order.
        """
        sums = np.array([result[0] for result in results])
        offsets = np.cumsum([0] + [len(result[5]) for result in results])
        keys, a_e, c_e, ids, moments = (
            np.concatenate(x)
            for x in zip(*[(i * self.n_atoms + ai, a, c, offsets[i] + ti, m) for i, (_, ai, a, c, ti, m) in enumerate(results)])
        )
        results.clear()  # the blocks' own copies of the tile terms
        if len(keys):
            sums += np.bincount(keys, _tile_sums(a_e, c_e, ids, moments), minlength=sums.size).reshape(sums.shape)
        return sums


def kernel_plan(r_atoms: np.ndarray, z_j: float, config: SystemConfig, quad: meanfield.QuadratureSpec, mask: str) -> KernelPlan:
    """The lattice, blockade rows and panel layouts of a sum for atoms at radii `r_atoms`, all at z_j.

    Refuses a lattice whose spacing does not resolve the smallest blockade
    radius.
    """
    n_atoms = len(r_atoms)
    dr, dz = quad.spacing_r, quad.spacing_z
    n_r, n_z = int(round(quad.extent_r / dr)), int(round(quad.extent_z / dz))
    r = (np.arange(n_r) + 0.5) * dr
    z = z_j - 0.5 * quad.extent_z + (np.arange(n_z) + 0.5) * dz

    rb, (b_p, b_q, b_r) = meanfield._blockade_rows(config, r)
    t_col = config.probe.delta_p + np.asarray(detuning_profile(z, config.detuning), dtype=float)
    dz2_col = (z - z_j) ** 2

    # one radius per atom, shape (atoms, 1), or one per row, shape (1, rows)
    per_atom = mask == meanfield.MASK_ATOM
    rb_rows = meanfield._blockade_rows(config, r_atoms)[0][:, None] if per_atom else rb[None, :]
    rb2 = np.broadcast_to(rb_rows**2, (n_atoms, n_r))  # per (atom, row); a view, no copy
    rb_min, spacing = float(rb_rows.min()), max(dr, dz)
    if rb_min < 2.0 * spacing:
        raise ValueError(
            f"blockade radius {rb_min:.3g} um is below twice the lattice spacing {spacing:.3g} um; the masked kernel is not resolved"
        )

    q, folded = _unit_cells(config.detuning.period, dz)
    # a column shorter than one unit has nothing to fold
    folded = n_z >= q and (folded or np.array_equal(t_col[q:], t_col[:-q]))
    n_units, unit = n_z // q, q * dz
    unit_powers = _powers((np.arange(q) - 0.5 * (q - 1)) * dz)
    unit_starts = np.arange(max(n_units, 1)) * q
    unit_lo, unit_hi = np.minimum.reduceat(dz2_col, unit_starts), np.maximum.reduceat(dz2_col, unit_starts)

    # An atom whose nearest row in a block is at least unit * 2^level away
    # sums that block on the coarser layout of that level (-1: nearer).
    blocks = [(i0, min(i0 + _BLOCK_ROWS, n_r)) for i0 in range(0, n_r, _BLOCK_ROWS)]
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

        def cell_moments(k0: int, basis: np.ndarray) -> np.ndarray:
            # sum over cells k0 + i of (1/B) basis[i], per row, in column chunks;
            # B = P + Q t + R t^2 is one matrix product per chunk, several times
            # faster than elementwise passes on tables this narrow
            out = np.zeros((n, basis.shape[1]))
            pqr = np.column_stack(coeffs)
            cols = max(1, _BLOCK_FLOATS // (4 * n))
            for c0 in range(0, len(basis), cols):
                c1 = min(c0 + cols, len(basis))
                t = t_col[k0 + c0 : k0 + c1]
                out += np.reciprocal(pqr @ np.stack((np.ones_like(t), t, t * t))) @ basis[c0:c1]
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

        unit_moments = cell_moments(0, unit_powers) if folded else None
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
            # scaled moments of each row about each panel centre, flat at [n, row of
            # moments * rows + row]
            if folded:
                per_basis = (unit_moments @ basis for basis in lay.bases)
            else:
                per_basis = (np.zeros((n, _TAYLOR_TERMS)) if b is None else cell_moments(k0, b) for k0, b in zip(lay.starts, lay.bases))
            series_moments = np.concatenate([m.T for m in per_basis], axis=1)

            # far tiles, largest first, for every atom of the level: a row clears the
            # nearest-cell compare of each panel whose lo is at least its threshold
            d = dr2 if len(in_level) == n_atoms else dr2[in_level]
            rb2_level = np.broadcast_to((rb_rows[in_level] if per_atom else rb_rows[:, i0:i1]) ** 2, d.shape)
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
                    weighted = (series_moments[:, (used // g)[:, None] * n + rows] * r_block[rows]).transpose(1, 2, 0)
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
            # at most _BLOCK_FLOATS (atom, panel, row) entries and 8 atoms of a full block
            # at a time: this bounds the masks and the series temporaries of a chunk
            chunk = max(1, min(_BLOCK_FLOATS // (len(sub) * n), _BLOCK_FLOATS // (32 * n)))
            for c0 in range(0, len(in_level), chunk):
                idx = in_level[c0 : c0 + chunk]
                a_n = len(idx)
                dd, rr = d[c0 : c0 + chunk, None, :], rb2_level[c0 : c0 + chunk, None, :]

                def add(ai, ri, sums):
                    row_sums[idx] += np.bincount(ai * n + ri, sums, minlength=a_n * n).reshape(a_n, n)

                far = dd + sub_c2 >= admit2
                taylor = dd + lo >= rr
                taylor &= far
                cut = dd + hi >= rr
                cut &= ~taylor
                if g_min:  # rows a tile sums are neither Taylor nor cut rows
                    for flags in (taylor, cut):
                        flags[:, :, : g_min << fine].reshape(a_n, len(sub), g_min, -1)[...] &= ~cover[c0 : c0 + chunk, sub, :, None]
                # each (atom, row) adds its panels' sums in this order: Taylor panels,
                # cut far panels (series, then edge cells), then the other cut panels
                ai, si, ri = np.nonzero(taylor)
                if len(ai):
                    p = sub[si]
                    add(ai, ri, _panel_series(d[c0 + ai, ri], lay.centre[p], series_moments, lay.row[p] * n + ri))
                if folded:
                    # cut far panels: wholly blocked units are skipped, the unit that the
                    # blockade edge crosses is summed cell by cell, and the units beyond it
                    # by one series
                    ai, si, ri = np.nonzero(cut & far)
                    cut &= ~far
                    if len(ai):
                        p = sub[si]
                        d_e = d[c0 + ai, ri]
                        edge, crossed, count, centre = _cut_pieces(
                            d_e, rb2_level[c0 + ai, ri], lay.widths[p] // q, lay.starts[p] // q, lay.centre[p], unit_lo, unit_hi, unit
                        )
                        on = np.flatnonzero(count)
                        if len(on):
                            # the pieces' scaled moments about their centres, flat at [n, kind * rows + row]
                            kinds = sorted(set(count[on].tolist()))
                            pieces = np.concatenate([(unit_moments @ _piece(k, unit)).T for k in kinds], axis=1)
                            at = np.searchsorted(kinds, count[on]) * n + ri[on]
                            add(ai[on], ri[on], _panel_series(d_e[on], centre[on], pieces, at))
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

    return KernelPlan(len(blocks), n_atoms, one_block)
