"""Far-field sums of the shift kernel: the panel layout and the Taylor series of D^-6.

`meanfield.masked_kernel_sum` sums a far, wholly unblocked panel of one
lattice row from the moments of 1/B about the panel centre (`_panel_series`),
and a far tile of rows by one panel from the moments of r/B about the tile
centre (`_tile_sums`); `_cut_pieces` splits a far panel that the blockade
edge cuts. The kernel imports this module on its first call, so a command
that runs no shift quadrature does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Far panels are summed from moments: a panel is at most 1/_PANEL_RATIO of its
# distance from the atom wide, and its Taylor series keeps _TAYLOR_TERMS terms.
_PANEL_RATIO = 4.0
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
    return _Layout(
        starts,
        widths,
        -0.5 * extent_z + (starts + 0.5 * widths) * dz,
        np.minimum.reduceat(dz2_col, starts),
        np.maximum.reduceat(dz2_col, starts),
        np.where(whole, (_PANEL_RATIO * widths * dz) ** 2, np.inf),
        row,
        bases,
    )


def _cut_pieces(d, rb2, units, first, centre, unit_lo, unit_hi, unit: float):
    """How far panels that the blockade edge cuts are summed, where 1/B repeats unit by unit.

    Each entry is one row of one panel: `d` its (r - r_j)^2, `rb2` its R_b^2,
    `units` and `first` the panel's width and first unit, `centre` the z
    offset of its centre; `unit_lo` and `unit_hi` hold each unit's smallest
    and largest (z - z_j)^2. The panel's wholly blocked units, nearest the
    atom, are skipped. Returns the unit the blockade edge crosses and
    whether the edge crosses it (it is then summed cell by cell, else it is
    wholly unblocked), and the aligned pieces of 2^m units the unblocked
    units beyond the edge make, one per set bit of their count: each piece's
    entry, centre offset and m. A piece is at most half the panel, so it is
    far too.
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
    parts = []
    for m in range(int(units.max()).bit_length()):
        on = np.flatnonzero((count >> m) & 1)
        begin = np.where(upward, start + (count & ((1 << m) - 1)), (count >> (m + 1)) << (m + 1))[on]
        parts.append((on, centre[on] + (begin + 0.5 * (1 << m) - 0.5 * units[on]) * unit, np.full(len(on), m)))
    on, offsets, sizes = (np.concatenate(x) for x in zip(*parts))
    return first + edge, crossed, on, offsets, sizes


def _panel_series(d: np.ndarray, centre: np.ndarray, moments: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_n M_n p_n of each (atom, panel, row) entry.

    `d` holds each entry's a^2 = (r - r_j)^2, `centre` its panel centre's
    offset C, and `moments[n, at]` its scaled moments. The series is summed
    backward (Clenshaw): b_n = M_n + c b_{n+1} + g_{n+1} e b_{n+2}, with
    e = 1/(a^2 + C^2) and c = C e, and the sum is e^3 b_0.
    """
    e = np.reciprocal(d + centre * centre)
    c = e * centre
    b1 = np.zeros_like(e)
    b2 = np.zeros_like(e)
    tmp = np.empty_like(e)
    term = np.empty_like(e)
    for n in range(_TAYLOR_TERMS - 1, -1, -1):
        np.multiply(b2, e, out=tmp)
        np.multiply(tmp, _G[n + 1], out=tmp)
        np.multiply(b1, c, out=b2)
        np.add(b2, tmp, out=b2)
        np.add(b2, np.take(moments[n], at, out=term), out=b2)
        b1, b2 = b2, b1
    np.multiply(e, e, out=tmp)
    np.multiply(tmp, e, out=tmp)
    return np.multiply(b1, tmp, out=b1)


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
