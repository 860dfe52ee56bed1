"""Blockade-masked mean-field shift: scalars, quadrature, calibration, boundary."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import halved
from vortexloc import kernel, make_config, meanfield
from vortexloc.bloch import b_coefficients, b_values, linewidth_from
from vortexloc.config import TWO_PI, Position, with_delta_shift
from vortexloc.fields import _bisect, control_envelope, detuning_profile
from vortexloc.meanfield import (
    MASK_ATOM,
    MASK_LOCAL,
    FAST_SPACING,
    REFERENCE_SPACING,
    QuadratureSpec,
    ShiftQuadrature,
    blockade_boundary,
    blockade_radius,
    calibrated_offset,
    local_linewidth,
    localized_point,
    masked_kernel_sum,
    s0_integral,
    shift_at,
    shift_profile,
    superatom_count,
)

CFG = make_config()
FAST = QuadratureSpec.scaled(CFG.beam.wavelength_c, FAST_SPACING)

# uncalibrated on-axis shifts on the fast lattice, frozen for regression
S0_FAST = {
    10.0: 49.915610,
    50.0: 19.431555,
    100.0: 7.197696,
    180.0: 2.619036,
    500.0: 0.389405,
}


# small lattices for the brute-force oracle: at most 1e6 cells
LAM = CFG.beam.wavelength_c
COARSE = QuadratureSpec.scaled(LAM, 0.1)  # 1000 x 1000
ODD = QuadratureSpec(100.0 * LAM, 60.0 * LAM, 0.09 * LAM, 0.11 * LAM)  # 1111 x 545


def _oracle_kernel(atom_pos, config, quad, mask):
    """The whole lattice as one array, with the per-cell two-branch B."""
    ip = config.probe.omega_p0**2
    gamma = config.medium.gamma
    dp = config.probe.delta_p
    dr, dz = quad.spacing_r, quad.spacing_z
    n_r = int(round(quad.extent_r / dr))
    n_z = int(round(quad.extent_z / dz))
    r = ((np.arange(n_r) + 0.5) * dr)[:, None]
    z = (atom_pos.z - 0.5 * quad.extent_z + (np.arange(n_z) + 0.5) * dz)[None, :]

    def profiles(radius):
        ic = control_envelope(radius, config.beam) ** 2
        w = linewidth_from(ip, ic, dp, gamma)
        return ic, (config.medium.c6 / w) ** (1.0 / 6.0)

    ic, rb = profiles(r)
    nsa_ip = 4.0 * math.pi / 3.0 * rb**3 * config.medium.density_rho * ip
    dc = np.asarray(detuning_profile(z, config.detuning), dtype=float)
    if dp == 0.0:
        b = ic + nsa_ip + (gamma * gamma + 2.0 * ip) * dc**2 / (ip + ic)
    else:
        two_photon = dp + dc
        total = ip + ic
        extra = (-2.0 * dp * two_photon * ic + (gamma * gamma + dp * dp + 2.0 * ip) * two_photon**2) / total
        b = total + extra + (nsa_ip - ip)
    rb2 = rb**2 if mask == MASK_LOCAL else float(profiles(abs(atom_pos.r))[1]) ** 2
    d2 = (r - atom_pos.r) ** 2 + (z - atom_pos.z) ** 2
    return np.where(d2 >= rb2, r / (d2**3 * b), 0.0).sum() * dr * dz


# (r_j, z_j) in lambda_c, kappa, mask, Delta_p/2pi MHz, delta_shift/2pi MHz, lattice
ORACLE_POINTS = [
    (0.0, 0.75, 10.0, MASK_LOCAL, 0.0, None, COARSE),
    (0.0, 0.75, 180.0, MASK_ATOM, 0.0, None, COARSE),
    (0.0, 0.75, 500.0, MASK_LOCAL, 0.0, 30.063, COARSE),
    (0.3, 0.75, 180.0, MASK_LOCAL, 2.5, None, COARSE),
    (0.3, 0.61, 10.0, MASK_ATOM, -4.0, 37.77, ODD),
    (1.2345, 0.75, 500.0, MASK_ATOM, 0.0, None, ODD),
    (0.5173, 1.093, 180.0, MASK_LOCAL, 0.0, 31.0, ODD),
    (2.0, 0.2, 500.0, MASK_LOCAL, 1.0, None, COARSE),
    (0.0, 0.4, 10.0, MASK_LOCAL, 0.0, None, ODD),
]


@pytest.mark.parametrize("r_j, z_j, kappa, mask, delta_p, delta_shift, quad", ORACLE_POINTS)
def test_kernel_matches_the_brute_force_oracle(r_j, z_j, kappa, mask, delta_p, delta_shift, quad):
    cfg = make_config(kappa=kappa, delta_p_mhz=delta_p, delta_shift_mhz=delta_shift)
    pos = Position(r=r_j * LAM, z=z_j * LAM)
    fast = masked_kernel_sum(pos, cfg, quad, mask=mask)
    assert fast > 0.0
    assert fast == pytest.approx(_oracle_kernel(pos, cfg, quad, mask), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_kernel_masks_the_atoms_own_cell(mask):
    # binary-exact spacings put the atom on a cell centre, so that cell has
    # d2 = 0 and an infinite integrand that the mask must drop
    quad = QuadratureSpec(24.0, 24.0625, 0.0625, 0.0625)  # 384 x 385
    pos = Position(r=10.5 * 0.0625, z=0.375)
    with np.errstate(divide="ignore"):
        fast = masked_kernel_sum(pos, CFG, quad, mask=mask)
        expected = _oracle_kernel(pos, CFG, quad, mask)
    assert math.isfinite(fast)
    assert fast == pytest.approx(expected, rel=1e-10, abs=0.0)


@settings(max_examples=6, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=10.0, max_value=500.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_kernel_matches_the_oracle_at_random_points(r_j, z_j, kappa, delta_p):
    quad = QuadratureSpec.scaled(LAM, 0.2)
    cfg = make_config(kappa=kappa, delta_p_mhz=delta_p)
    pos = Position(r=r_j * LAM, z=z_j * LAM)
    for mask in (MASK_LOCAL, MASK_ATOM):
        expected = _oracle_kernel(pos, cfg, quad, mask)
        assert masked_kernel_sum(pos, cfg, quad, mask=mask) == pytest.approx(expected, rel=1e-10, abs=0.0)


def _per_cell_kernel(atom_pos, config, quad, mask, tie_blocked=False):
    """Every cell through the chain 1 / (B d2 d2 d2), blocked cells (d2 < R_b^2) dropped."""
    ip = config.probe.omega_p0**2
    dp = config.probe.delta_p
    dr, dz = quad.spacing_r, quad.spacing_z
    n_r = int(round(quad.extent_r / dr))
    n_z = int(round(quad.extent_z / dz))
    r = (np.arange(n_r) + 0.5) * dr
    z = atom_pos.z - 0.5 * quad.extent_z + (np.arange(n_z) + 0.5) * dz
    rb, _ = meanfield._blockade_rows(config, r)
    nsa_ip = 4.0 * math.pi / 3.0 * rb**3 * config.medium.density_rho * ip
    b_p, b_q, b_r = b_coefficients(ip, control_envelope(r, config.beam) ** 2, nsa_ip, dp, config.medium.gamma)
    t = dp + np.asarray(detuning_profile(z, config.detuning), dtype=float)
    dz2 = (z - atom_pos.z) ** 2
    if mask == MASK_ATOM:
        rb, _ = meanfield._blockade_rows(config, np.array([atom_pos.r]))
    rb2 = np.broadcast_to(rb**2, r.shape)
    row_sums = np.empty(n_r)
    for a in range(0, n_r, 256):
        d2 = (r[a : a + 256, None] - atom_pos.r) ** 2 + dz2
        b = b_values(b_p[a : a + 256, None], b_q[a : a + 256, None], b_r[a : a + 256, None], t)
        with np.errstate(divide="ignore"):
            term = 1.0 / (b * d2 * d2 * d2)
        blocked = d2 <= rb2[a : a + 256, None] if tie_blocked else d2 < rb2[a : a + 256, None]
        row_sums[a : a + 256] = np.where(blocked, 0.0, term).sum(axis=1)
    return float(np.sum(row_sums * r) * dr * dz)


LAT05 = QuadratureSpec.scaled(LAM, 0.05)  # 2000 x 2000, 20 cells per detuning period
LAT03 = QuadratureSpec.scaled(LAM, 0.03)  # 3333 x 3333, 100 cells per three periods
SHORT = QuadratureSpec(100.0 * LAM, 0.5 * LAM, 0.05 * LAM, 0.05 * LAM)  # 2000 x 10, under one 20-cell unit


def _counted(monkeypatch, name: str, count) -> list:
    """count(arguments, result) of each call of `kernel.<name>` the kernel makes from now on."""
    seen = []
    real = getattr(kernel, name)

    def counting(*args):
        result = real(*args)
        seen.append(count(args, result))
        return result

    monkeypatch.setattr(kernel, name, counting)
    return seen


def _counted_pieces(monkeypatch) -> list:
    """The number of cut-panel pieces of each `_cut_pieces` split."""
    return _counted(monkeypatch, "_cut_pieces", lambda args, split: int(np.count_nonzero(split[2])))


@pytest.mark.parametrize("delta_p", [0.0, 2.5])
@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
@pytest.mark.parametrize("kappa", [10.0, 180.0, 500.0])
def test_panel_kernel_matches_the_per_cell_chain(monkeypatch, kappa, mask, delta_p):
    cfg = make_config(kappa=kappa, delta_p_mhz=delta_p)
    pieces = _counted_pieces(monkeypatch)
    # on a row centre, off the grid, and far out in r
    for r_j in (10.5 * LAT05.spacing_r, 0.123456 * LAM, 3.7 * LAM):
        pos = Position(r=r_j, z=0.75 * LAM)
        expected = _per_cell_kernel(pos, cfg, LAT05, mask)
        assert masked_kernel_sum(pos, cfg, LAT05, mask=mask) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert sum(pieces) > 0  # 1/B repeats every 20 cells, so cut far panels sum their far side as pieces


# lattices where 1/B repeats every 20 or every 100 cells, and where it does not
# repeat at all: 9.09 cells per period (ODD), an incommensurate period, and
# constant detuning, which repeats on any unit; a z column shorter than one
# unit is not folded
@pytest.mark.parametrize(
    "quad, kwargs",
    [
        (LAT03, {"kappa": 317.5}),
        (ODD, {"kappa": 180.0, "delta_p_mhz": 1.5}),
        (COARSE, {"kappa": 180.0, "period_um": 0.4567}),
        (LAT05, {"kappa": 180.0, "detuning_mode": "constant", "delta_c_const_mhz": 30.0}),
        (ODD, {"kappa": 10.0, "detuning_mode": "constant", "delta_c_const_mhz": 30.0}),
        (SHORT, {"kappa": 180.0}),
    ],
)
@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_panel_kernel_matches_the_per_cell_chain_on_any_lattice(monkeypatch, quad, kwargs, mask):
    cfg = make_config(**kwargs)
    pieces = _counted_pieces(monkeypatch)
    for r_j, z_j in ((0.0, 0.75), (0.41, 0.61), (2.5, 1.093)):
        pos = Position(r=r_j * LAM, z=z_j * LAM)
        expected = _per_cell_kernel(pos, cfg, quad, mask)
        assert masked_kernel_sum(pos, cfg, quad, mask=mask) == pytest.approx(expected, rel=1e-12, abs=0.0)
    # cut far panels are split into pieces exactly where 1/B repeats unit by unit
    folded = quad in (LAT03, LAT05) or kwargs.get("detuning_mode") == "constant"
    assert (sum(pieces) > 0) == folded


@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_panel_kernel_matches_the_per_cell_chain_with_the_atom_on_a_cell_centre(mask):
    quad = QuadratureSpec(24.0, 24.0625, 0.0625, 0.0625)
    pos = Position(r=10.5 * 0.0625, z=0.375)
    expected = _per_cell_kernel(pos, CFG, quad, mask)
    assert masked_kernel_sum(pos, CFG, quad, mask=mask) == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=8, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=10.0, max_value=500.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from([0.1, 0.11, 0.125, 0.2]),
)
def test_panel_kernel_matches_the_per_cell_chain_at_random_points(r_j, z_j, kappa, delta_p, spacing):
    quad = QuadratureSpec.scaled(LAM, spacing)
    cfg = make_config(kappa=kappa, delta_p_mhz=delta_p)
    pos = Position(r=r_j * LAM, z=z_j * LAM)
    for mask in (MASK_LOCAL, MASK_ATOM):
        expected = _per_cell_kernel(pos, cfg, quad, mask)
        assert masked_kernel_sum(pos, cfg, quad, mask=mask) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_a_cell_exactly_on_the_blockade_sphere_is_unblocked(monkeypatch, mask):
    # binary-exact spacings and R_b = 2.5 = 40/16 put cells exactly on the
    # sphere, d2 == R_b^2, at planar offsets (0, 2.5), (1.5, 2), (2, 1.5) and
    # (2.5, 0). On this lattice of 8-cell units the tie at (0, 2.5) is the
    # nearest cell of a Taylor panel, the tie at (1.5, -2) sits inside a panel
    # cut by the blockade edge, and the lone last cell is its own panel.
    def binary_exact_radius(config, r):
        # B's superatom count follows the same radius, as in the oracle
        rb = np.full_like(r, 2.5)
        ip = config.probe.intensity
        nsa_ip = superatom_count(rb, config.medium.density_rho) * ip
        ic = control_envelope(r, config.beam) ** 2
        return rb, b_coefficients(ip, ic, nsa_ip, config.probe.delta_p, config.medium.gamma)

    real_series = kernel._panel_series
    taylor_centres = []  # series of the atom's own row, row 10, where a^2 = 0

    def recording_series(d, centre, moments, at):
        taylor_centres.extend(centre[d == 0.0])
        return real_series(d, centre, moments, at)

    monkeypatch.setattr(meanfield, "_blockade_rows", binary_exact_radius)
    monkeypatch.setattr(kernel, "_panel_series", recording_series)
    quad = QuadratureSpec(24.0, 24.0625, 0.0625, 0.0625)  # 384 x 385
    pos = Position(r=10.5 * 0.0625, z=0.375)
    got = masked_kernel_sum(pos, CFG, quad, mask=mask)
    expected = _per_cell_kernel(pos, CFG, quad, mask)
    ties_blocked = _per_cell_kernel(pos, CFG, quad, mask, tie_blocked=True)
    assert abs(expected - ties_blocked) > 1e-6 * expected
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the unit [2.5, 2.9375] um above the atom starts with the tie and is summed as a series
    assert 2.71875 in taylor_centres


def _counted_tiles(monkeypatch) -> list:
    """The (terms, tiles) of each `_tile_sums` pass."""
    return _counted(monkeypatch, "_tile_sums", lambda args, sums: (len(args[0]), len(args[3])))


# folded lattices of 20 and of 100 cells per unit, a period that does not
# repeat on the lattice, and constant detuning; far tiles in every case
@pytest.mark.parametrize(
    "quad, kwargs, mask",
    [
        (LAT05, {"kappa": 180.0}, MASK_LOCAL),
        (LAT03, {"kappa": 317.5}, MASK_ATOM),
        (COARSE, {"kappa": 180.0, "period_um": 0.4567}, MASK_LOCAL),
        (LAT05, {"kappa": 500.0, "detuning_mode": "constant", "delta_c_const_mhz": 30.0}, MASK_ATOM),
    ],
)
def test_tiled_kernel_matches_the_per_cell_chain(monkeypatch, quad, kwargs, mask):
    cfg = make_config(**kwargs)
    passes = _counted_tiles(monkeypatch)
    for r_j, z_j in ((0.0, 0.75), (0.41, 0.61), (7.3, 1.093)):
        pos = Position(r=r_j * LAM, z=z_j * LAM)
        before = len(passes)
        got = masked_kernel_sum(pos, cfg, quad, mask=mask)
        assert len(passes) > before
        assert got == pytest.approx(_per_cell_kernel(pos, cfg, quad, mask), rel=1e-12, abs=0.0)


def _tile_moments(x, y, weights):
    """The scaled moments S_mn = sum w x^m kappa_n y^n of one tile, as `_tile_sums` takes them."""
    rows = weights @ (kernel._powers(y) * kernel._KAPPA)
    return (kernel._powers(x).T @ rows).reshape(1, -1)[:, kernel._TILE_TRIANGLE]


def test_a_one_row_tile_sums_as_its_panel_series():
    y = (np.arange(64) - 31.5) * 0.02
    inv_b = np.random.default_rng(7).uniform(0.5, 2.0, 64)
    row = inv_b @ (kernel._powers(y) * kernel._KAPPA)
    for a, c in ((0.0, 9.0), (5.0, -7.0), (8.0, 0.3), (-6.0, 6.5)):
        tile = kernel._tile_sums(np.array([a]), np.array([c]), np.array([0]), _tile_moments(np.zeros(1), y, 3.3 * inv_b[None, :]))
        panel = 3.3 * kernel._panel_series(np.array([a * a]), np.array([c]), row[:, None], np.array([0]))
        assert tile[0] == pytest.approx(panel[0], rel=1e-15, abs=0.0)


def test_a_tile_at_a_quarter_of_its_distance_is_within_the_truncation_bound():
    # 64 rows by 48 cells, its diagonal exactly a quarter of D, in eight directions
    x, y = (np.arange(64) - 31.5) * 0.02, (np.arange(48) - 23.5) * 0.025
    inv_b = np.random.default_rng(11).uniform(0.5, 2.0, (64, 48))
    r = 6.0 + x
    moments = _tile_moments(x, y, r[:, None] * inv_b)
    distance = 4.0 * math.hypot(64 * 0.02, 48 * 0.025)
    for angle in np.arange(8) * math.pi / 4 + 0.3:
        a, c = distance * math.cos(angle), distance * math.sin(angle)
        direct = np.sum(r[:, None] * inv_b / ((a + x[:, None]) ** 2 + (c + y) ** 2) ** 3)
        tile = kernel._tile_sums(np.array([a]), np.array([c]), np.array([0]), moments)[0]
        assert abs(tile - direct) <= 1.1e-13 * direct


@pytest.mark.parametrize("centre", [16.0, 10.0, 3.0, -16.0, -7.0])
def test_a_cut_panels_piece_is_within_the_truncation_bound(centre):
    # a panel of 8 units of 25 cells, 4 um wide at exactly a quarter of its
    # distance 16 um from the atom, its blockade edge in each unit in turn
    q, dz, units = 25, 0.02, 8
    unit = q * dz
    inv_b = np.random.default_rng(5).uniform(0.5, 2.0, q)
    z = centre + (np.arange(units * q) - 0.5 * (units * q - 1)) * dz
    unit_lo, unit_hi = (z * z).reshape(units, q).min(axis=1), (z * z).reshape(units, q).max(axis=1)
    d = 256.0 - centre * centre
    unit_moments = inv_b @ kernel._powers((np.arange(q) - 0.5 * (q - 1)) * dz)
    for k in range(units):
        rb2 = d + 0.5 * (unit_lo[k] + unit_hi[k])
        args = (np.array([d]), np.array([rb2]), np.array([units]), np.array([0]), np.array([centre]), unit_lo, unit_hi, unit)
        edge, crossed, count, offset = (x[0] for x in kernel._cut_pieces(*args))
        assert edge == k and crossed
        beyond = np.arange(k + 1, units) if centre > 0 else np.arange(k)
        assert count == len(beyond)
        if not count:
            continue
        cells = (beyond[:, None] * q + np.arange(q)).ravel()
        direct = np.sum(np.tile(inv_b, count) / (d + z[cells] ** 2) ** 3)
        moments = unit_moments @ kernel._piece(count, unit)
        piece = kernel._panel_series(np.array([d]), np.array([offset]), moments[:, None], np.array([0]))[0]
        assert abs(piece - direct) <= 1.1e-13 * direct


def test_a_tile_sum_does_not_depend_on_the_other_tiles_of_its_pass():
    # a pass of 40 tiles against each tile alone, where a matrix product or a
    # complex multiply could round differently on one row or a short array
    rng = np.random.default_rng(3)
    moments = rng.normal(size=(40, len(kernel._TILE_TRIANGLE))) * np.exp(-0.3 * np.arange(len(kernel._TILE_TRIANGLE)))
    a, c = rng.uniform(5.0, 10.0, 40), rng.uniform(-10.0, 10.0, 40)
    together = kernel._tile_sums(a, c, np.arange(40), moments)
    alone = [kernel._tile_sums(a[i : i + 1], c[i : i + 1], np.array([0]), moments[i : i + 1])[0] for i in range(40)]
    assert np.array_equal(together, alone)


# 48 atoms on a lattice where some blocks of the batch hold a full tile pass of
# their own; and a 100-row lattice on which some single positions sum exactly one tile
@pytest.mark.parametrize(
    "quad, radii, own_pass, one_tile",
    [
        (QuadratureSpec.scaled(LAM, 0.08), np.linspace(0.0, 3.0, 48), True, False),
        (QuadratureSpec.scaled(LAM, 0.2, 20.0), np.linspace(0.0, 18.0, 10), False, True),
    ],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_batched_tiles_equal_the_per_position_loop(monkeypatch, quad, radii, own_pass, one_tile, threads):
    atoms = _at_node(*radii)
    passes = _counted_tiles(monkeypatch)
    got = masked_kernel_sum(atoms, CFG, quad, threads=threads)
    assert (max(passes)[0] >= kernel._TILE_PASS) == own_pass
    del passes[:]
    oracle = np.array([masked_kernel_sum(p, CFG, quad) for p in atoms])
    assert len(passes) <= len(atoms) and max(passes)[0] < kernel._TILE_PASS  # at most one shared pass a call
    assert (min(tiles for _, tiles in passes) == 1) == one_tile
    assert np.array_equal(got, oracle)


def test_a_batch_keeps_its_temporaries_within_a_few_megabytes():
    # profile's batch: 101 radii across 1.5 w0 on the 0.04 lattice. The 8-atom cap on
    # the atom chunk, the explicit frees and the tile pass's chunks hold its traced
    # peak at 2.8 MB (numpy 2.4.6); without the cap it is 7.0 MB
    cfg = make_config(kappa=317.42)
    atoms = _at_node(*np.linspace(0.0, 1.5 * cfg.beam.waist_w0 / LAM, 101))
    tracemalloc.start()
    try:
        masked_kernel_sum(atoms, cfg, QuadratureSpec.scaled(LAM, 0.04))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_kernel_is_bit_identical_for_any_thread_count(mask):
    # 1111 rows end in a partial 256-row block, and at 545 columns the last
    # sub-block of every full block is partial too
    cfg = make_config(kappa=180.0, delta_p_mhz=1.5)
    pos = Position(r=0.41 * LAM, z=0.75 * LAM)
    sums = [masked_kernel_sum(pos, cfg, ODD, mask=mask, threads=t) for t in (1, 2, 3)]
    assert sums[0] == sums[1] == sums[2]


def _at_node(*radii_in_lam, z=0.75 * LAM):
    return [Position(r=x * LAM, z=z) for x in radii_in_lam]


# K = 1 and K = 2-7 atoms at one z: a repeated radius, off-grid radii, an atom
# beyond its blockade radius from the axis and one beyond the lattice's edge
BATCHES = [
    _at_node(0.41),
    _at_node(0.0, 0.0),
    _at_node(0.0, 0.123456, 0.41),
    _at_node(0.41, 0.0, 0.41, 2.5),
    _at_node(30.0, 0.123456, 0.0, 0.987654321, 45.0),
    _at_node(0.0, 0.05, 0.1, 0.41, 0.41, 25.0),
    _at_node(130.0, 7.7, 0.0, 0.3, 0.3, 0.6, 99.9),
]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_batched_kernel_equals_the_per_position_loop(mask, threads):
    # on the odd lattice the last 256-row block is partial, and so is its last sub-block
    cfg = make_config(kappa=180.0, delta_p_mhz=1.5)
    for atoms in BATCHES:
        oracle = np.array([masked_kernel_sum(p, cfg, ODD, mask=mask) for p in atoms])
        got = masked_kernel_sum(atoms, cfg, ODD, mask=mask, threads=threads)
        assert isinstance(got, np.ndarray) and got.shape == (len(atoms),)
        assert np.array_equal(got, oracle)


@pytest.mark.parametrize("mask", [MASK_LOCAL, MASK_ATOM])
def test_batched_panel_kernel_equals_the_per_position_loop_on_a_folded_lattice(mask):
    # 10 cells per detuning period, so 1/B is folded onto one period per row;
    # 257 rows leave a last block of one row
    quad = QuadratureSpec(257 * 0.1 * LAM, 100.0 * LAM, 0.1 * LAM, 0.1 * LAM)
    cfg = make_config(kappa=180.0, delta_p_mhz=1.5)
    for atoms in BATCHES:
        oracle = np.array([masked_kernel_sum(p, cfg, quad, mask=mask) for p in atoms])
        for threads in (1, 2):
            assert np.array_equal(masked_kernel_sum(atoms, cfg, quad, mask=mask, threads=threads), oracle)


def test_one_position_gives_a_float_and_a_batch_of_one_an_array():
    pos = _at_node(0.41)[0]
    single = masked_kernel_sum(pos, CFG, ODD)
    assert type(single) is float
    assert np.array_equal(masked_kernel_sum((pos,), CFG, ODD), [single])
    assert type(shift_at(pos, CFG, quadrature=ShiftQuadrature(ODD, tail_tol=1.0))) is float


@pytest.mark.parametrize(
    "fn, lattice", [(masked_kernel_sum, COARSE), (shift_at, ShiftQuadrature(COARSE))], ids=["masked_kernel_sum", "shift_at"]
)
def test_batches_need_one_shared_z_and_at_least_one_atom(fn, lattice):
    mixed = [Position(r=0.0, z=0.75 * LAM), Position(r=0.0, z=0.5 * LAM)]
    with pytest.raises(ValueError, match="non-empty sequence sharing one z"):
        fn(mixed, CFG, lattice)
    with pytest.raises(ValueError, match="non-empty"):
        fn([], CFG, lattice)


def test_batched_shift_equals_the_per_position_loop():
    cfg = make_config(kappa=180.0)
    atoms = _at_node(0.0, 0.4, 0.4, 5.0)
    oracle = [shift_at(p, cfg, quadrature=ShiftQuadrature(COARSE)) for p in atoms]
    got, change = _shift_and_halving_change(atoms, cfg, ShiftQuadrature(COARSE))
    assert np.array_equal(got, oracle)
    assert np.all(change <= 0.05)
    assert np.array_equal(shift_at(atoms, make_config(c6_mhz_um6=0.0), quadrature=ShiftQuadrature(COARSE)), np.zeros(4))


@pytest.mark.parametrize("tail_tol", [0.001, 0.01, 0.05])
def test_batched_tail_guard_fails_when_any_position_fails(tail_tol):
    # the far atom's truncation tail is about 3%, the core's about 0.3%
    cfg = make_config(kappa=180.0)
    atoms = _at_node(0.0, 30.0)

    def fails(arg):
        try:
            shift_at(arg, cfg, quadrature=ShiftQuadrature(COARSE, tail_tol=tail_tol))
        except RuntimeError as exc:
            assert "quadrature domain too small" in str(exc)
            return True
        return False

    assert fails(atoms) == any(fails(p) for p in atoms)
    if tail_tol == 0.01:
        assert [fails(p) for p in atoms] == [False, True]


def _shift_and_halving_change(atoms, config, quadrature):
    """shift_at, and the relative change of each shift when the lattice spacing is halved."""
    s = shift_at(atoms, config, quadrature)
    fine = shift_at(atoms, config, dataclasses.replace(quadrature, lattice=halved(quadrature.lattice)))
    return s, np.abs(s - fine) / np.abs(fine)


def test_batched_convergence_check_fails_when_any_position_fails():
    # on a 0.4 lambda_c lattice the core agrees with the half-spacing rerun
    # to about 1%, the far atom only to about 13%
    quadrature = ShiftQuadrature(QuadratureSpec.scaled(LAM, 0.4), tail_tol=1.0)
    core, far = _at_node(0.0, 30.0)
    assert _shift_and_halving_change(core, CFG, quadrature)[1] < 0.02
    for batch in ([core, far], [far, core]):
        change = _shift_and_halving_change(batch, CFG, quadrature)[1]
        assert 0.1 < change.max() < 0.2
        assert change[batch.index(far)] == change.max()


def _core_linewidth(config):
    ip = config.probe.omega_p0**2
    return linewidth_from(ip, 0.0, config.probe.delta_p, config.medium.gamma)


def test_blockade_radius_reference_value():
    w = _core_linewidth(CFG)
    assert blockade_radius(w, CFG.medium.c6) == pytest.approx(9.437, abs=0.005)


def test_blockade_radius_scaling_and_domain():
    rb = blockade_radius(3.0, 1000.0)
    assert blockade_radius(3.0, 64000.0) == pytest.approx(2.0 * rb, rel=1e-12)
    assert blockade_radius(192.0, 1000.0) == pytest.approx(0.5 * rb, rel=1e-12)
    with pytest.raises(ValueError, match="linewidth w"):
        blockade_radius(0.0, 1000.0)
    with pytest.raises(ValueError, match="c6"):
        blockade_radius(3.0, -1.0)


def test_superatom_count():
    assert superatom_count(9.437, 0.6) == pytest.approx(2112.47, abs=1.5)
    assert superatom_count(2.0, 0.6) == pytest.approx(8.0 * superatom_count(1.0, 0.6), rel=1e-12)
    assert superatom_count(5.0, 0.0) == 0.0
    radii = np.array([1.0, 2.0, 9.437])
    assert np.array_equal(superatom_count(radii, 0.6), [superatom_count(float(r), 0.6) for r in radii])
    with pytest.raises(ValueError, match="blockade radius"):
        superatom_count(0.0, 0.6)
    with pytest.raises(ValueError, match="blockade radius"):
        superatom_count(np.array([1.0, 0.0]), 0.6)
    with pytest.raises(ValueError, match="density"):
        superatom_count(1.0, -0.1)


def test_shift_is_the_prefactor_times_the_masked_kernel():
    cfg = make_config(kappa=10.0)
    pos = localized_point(cfg)
    kernel = masked_kernel_sum(pos, cfg, FAST)
    ip = cfg.probe.omega_p0 * cfg.probe.omega_p0
    expected = TWO_PI * cfg.medium.c6 * cfg.medium.density_rho * ip * kernel
    assert shift_at(pos, cfg, quadrature=ShiftQuadrature(FAST)) == expected
    assert kernel > 0.0


def test_full_blockade_zeroes_the_kernel():
    # absurdly strong interactions blockade every lattice cell
    cfg = make_config(c6_mhz_um6=1e30)
    assert masked_kernel_sum(localized_point(cfg), cfg, FAST) == 0.0


def test_unresolved_blockade_sphere_is_rejected():
    cfg = make_config(c6_mhz_um6=1e-10)
    with pytest.raises(ValueError, match="not resolved"):
        masked_kernel_sum(localized_point(cfg), cfg, FAST)


def test_zero_interaction_means_zero_shift():
    cfg = make_config(c6_mhz_um6=0.0)
    assert shift_at(localized_point(cfg), cfg, quadrature=ShiftQuadrature(FAST)) == 0.0


def test_unknown_mask_is_rejected():
    with pytest.raises(ValueError, match="unknown blockade mask"):
        masked_kernel_sum(localized_point(CFG), CFG, FAST, mask="global")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tail_tol": math.nan}, "tail_tol must be a finite fraction above 0, got nan"),
        ({"tail_tol": math.inf}, "tail_tol must be a finite fraction above 0, got inf"),
        ({"tail_tol": 0.0}, "tail_tol must be a finite fraction above 0, got 0.0"),
        ({"tail_tol": -1.0}, "tail_tol must be a finite fraction above 0, got -1.0"),
        ({"mask": "global"}, "unknown blockade mask 'global'"),
        ({"threads": 0}, "threads must be an integer of at least 1, got 0"),
        ({"threads": 2.0}, "threads must be an integer of at least 1, got 2.0"),
        ({"threads": True}, "threads must be an integer of at least 1, got True"),
        ({"tail_tol": True}, "tail_tol must be a finite fraction above 0, got True"),
        ({"tail_tol": "0.01"}, "tail_tol must be a finite fraction above 0, got '0.01'"),
    ],
)
def test_shift_quadrature_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ShiftQuadrature(FAST, **kwargs)


def test_shift_quadrature_takes_numpy_scalars():
    atoms = _at_node(0.2, 0.5)
    numpy_scalars = ShiftQuadrature(COARSE, tail_tol=np.float32(0.01), threads=np.int64(2))
    assert np.array_equal(shift_at(atoms, CFG, numpy_scalars), shift_at(atoms, CFG, ShiftQuadrature(COARSE)))


def test_shift_quadrature_fills_in_only_a_missing_lattice():
    chosen = ShiftQuadrature(COARSE, mask=MASK_ATOM, tail_tol=0.5, threads=2)
    assert chosen.or_lattice(FAST) is chosen
    assert ShiftQuadrature(mask=MASK_ATOM, tail_tol=0.5, threads=2).or_lattice(COARSE) == chosen


def test_atom_centered_mask_blockades_more_near_the_core():
    cfg = make_config(kappa=10.0)
    pos = localized_point(cfg)
    k_local = masked_kernel_sum(pos, cfg, FAST, mask=MASK_LOCAL)
    k_atom = masked_kernel_sum(pos, cfg, FAST, mask=MASK_ATOM)
    # the atom sits at the dark core where its own R_b is the largest in the
    # cloud, so the uniform atom-centered mask removes at least as much
    assert 0.0 < k_atom < k_local
    assert k_atom > 0.2 * k_local


def test_shift_at_reference_points():
    # antiblockade-calibrated working points; shifts quoted in MHz
    cfg10 = make_config(kappa=10.0, delta_shift_mhz=37.77)
    s10 = shift_at(localized_point(cfg10), cfg10, quadrature=ShiftQuadrature(FAST))
    assert s10 / TWO_PI == pytest.approx(7.77, rel=0.02)
    cfg500 = make_config(kappa=500.0, delta_shift_mhz=30.063)
    s500 = shift_at(localized_point(cfg500), cfg500, quadrature=ShiftQuadrature(FAST))
    assert s500 / TWO_PI == pytest.approx(0.063, rel=0.05)


def test_too_small_domain_raises():
    quad = QuadratureSpec.scaled(CFG.beam.wavelength_c, 0.02, extent_multiple=40.0)
    with pytest.raises(RuntimeError, match="quadrature domain too small"):
        shift_at(localized_point(CFG), CFG, quadrature=ShiftQuadrature(quad))


@pytest.mark.parametrize("period_um", [0.48, 0.4567])
@pytest.mark.parametrize("kappa", [10.0, 180.0, 500.0])
def test_tail_estimate_bounds_what_a_four_times_larger_domain_adds(kappa, period_um):
    # the far field the estimate stands for, summed: the 400 lambda_c lattice holds
    # the 100 lambda_c one cell for cell. Six cases of two masks on 2.5e5 and 4e6
    # cells, about 0.3 s in all on a 2-core Xeon; the estimate is 2.7 to 15 times
    # what is missed. Delta_p is left at 0: at Delta_p = -5 MHz, kappa 500 and
    # period 0.48 the estimate falls below what is missed (CHANGES.md, FOUND)
    cfg = make_config(kappa=kappa, period_um=period_um)
    domain = QuadratureSpec.scaled(LAM, 0.2)
    wide = QuadratureSpec.scaled(LAM, 0.2, extent_multiple=400.0)
    pos = localized_point(cfg)
    for mask in (MASK_LOCAL, MASK_ATOM):
        s = shift_at(pos, cfg, ShiftQuadrature(domain, mask=mask, tail_tol=1.0))
        s_wide = shift_at(pos, cfg, ShiftQuadrature(wide, mask=mask, tail_tol=1.0))
        missed = (s_wide - s) / s_wide
        assert 0.0 < missed <= meanfield._tail_fraction(cfg, domain, np.array([s]))[0], mask


def test_aliased_longitudinal_lattice_fails_the_convergence_check():
    # spacing_z equal to the detuning period samples the standing wave at a
    # single phase; the half-spacing rerun exposes it
    lam = CFG.beam.wavelength_c
    quad = QuadratureSpec(100.0 * lam, 2.0 * lam, 0.02 * lam, lam)
    assert _shift_and_halving_change(localized_point(CFG), CFG, ShiftQuadrature(quad, tail_tol=1.0))[1] > 0.05


def test_fast_lattice_passes_the_convergence_check():
    s, change = _shift_and_halving_change(localized_point(CFG), CFG, ShiftQuadrature(FAST))
    assert s == pytest.approx(S0_FAST[100.0], rel=1e-6)
    assert change <= 0.05


def test_s0_reference_values_and_saturation_trend():
    kappas = sorted(S0_FAST)
    values = [s0_integral(make_config(kappa=k), quadrature=ShiftQuadrature(FAST)) for k in kappas]
    for got, k in zip(values, kappas):
        assert got == pytest.approx(S0_FAST[k], rel=1e-6)
    assert all(a > b for a, b in zip(values, values[1:]))
    # beyond kappa ~ 100 the residual shift is small on the decay scale
    assert S0_FAST[180.0] < 0.1 * CFG.medium.gamma_e
    assert S0_FAST[500.0] < 0.1 * CFG.medium.gamma


def test_s0_requires_the_standing_wave_mode():
    cfg = make_config(detuning_mode="constant", delta_c_const_mhz=30.0)
    with pytest.raises(ValueError, match="standing-wave"):
        s0_integral(cfg, quadrature=ShiftQuadrature(FAST))
    with pytest.raises(ValueError, match="standing-wave"):
        calibrated_offset(cfg, quadrature=ShiftQuadrature(FAST))


def test_calibration_without_interactions_is_the_identity():
    cfg = make_config(c6_mhz_um6=0.0)
    s0, delta = calibrated_offset(cfg, quadrature=ShiftQuadrature(FAST))
    assert s0 == 0.0
    assert delta == cfg.detuning.delta_c0


def test_calibration_needs_at_least_one_iteration():
    # refused as input before the c6 = 0 shortcut and before any quadrature
    for cfg in (CFG, make_config(c6_mhz_um6=0.0)):
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
                calibrated_offset(cfg, quadrature=ShiftQuadrature(FAST), max_iter=max_iter)


def test_calibrated_offset_is_self_consistent(fast_calibration):
    s0, delta = fast_calibration(10.0)
    assert delta == CFG.detuning.delta_c0 + s0
    assert delta / TWO_PI == pytest.approx(37.77, rel=0.02)


@pytest.mark.parametrize("kappa", [10.0, 180.0, 500.0])
def test_calibration_stops_within_its_tolerance_of_the_fixed_point(kappa, fast_calibration):
    # the oracle iterates delta <- Delta_c0 + s0(delta) on, from the returned delta,
    # until a step is at most 1e-12 of s0; the returned delta lies 1.9e-5, 9.9e-8
    # and 2.5e-9 of s0 from it at kappa 10, 180 and 500
    s0, delta = fast_calibration(kappa)
    cfg = make_config(kappa=kappa)
    fixed, step = delta, math.inf
    for _ in range(20):
        s = s0_integral(with_delta_shift(cfg, fixed), quadrature=ShiftQuadrature(FAST))
        fixed, step = cfg.detuning.delta_c0 + s, cfg.detuning.delta_c0 + s - fixed
        if abs(step) <= 1e-12 * abs(s):
            break
    assert abs(step) <= 1e-12 * abs(s)
    assert abs(delta - fixed) <= meanfield._CALIBRATION_REL_TOL * abs(s0)


def test_calibrated_shift_shrinks_with_saturation(fast_calibration):
    s_by_kappa = [fast_calibration(k)[0] for k in (10.0, 100.0, 500.0)]
    assert all(a > b for a, b in zip(s_by_kappa, s_by_kappa[1:]))
    assert s_by_kappa[-1] > 0.0


def test_radial_profile_is_flat_across_the_core():
    lam = CFG.beam.wavelength_c
    grid = shift_profile("radial", np.array([0.0, 0.05 * lam, 0.1 * lam]), CFG, quadrature=ShiftQuadrature(FAST))
    assert grid.near_core_flatness is not None
    assert grid.near_core_flatness < 0.05
    assert np.all(grid.s_values > 0.0)


def test_radial_shift_drops_with_saturation_pointwise():
    quad = QuadratureSpec.scaled(CFG.beam.wavelength_c, 0.05)
    radii = np.array([0.0, 0.5, 1.0])
    rows = [
        shift_profile("radial", radii, make_config(kappa=k), quadrature=ShiftQuadrature(quad)).s_values
        for k in (10.0, 100.0, 500.0)
    ]
    assert np.all(rows[0] > rows[1])
    assert np.all(rows[1] > rows[2])


@pytest.mark.parametrize("radii", [[0.0, 0.03, 0.08, 0.5], [0.08, 0.03, 0.5], [0.5, 0.7]])
def test_radial_profile_equals_the_per_position_shifts(radii):
    # the second case lacks r = 0 among its near-core points, the third has
    # no near-core point at all
    positions = np.array(radii) * LAM
    grid = shift_profile("radial", positions, CFG, quadrature=ShiftQuadrature(COARSE))
    oracle = np.array([shift_at(p, CFG, quadrature=ShiftQuadrature(COARSE)) for p in _at_node(*radii)])
    assert np.array_equal(grid.s_values, oracle)
    near = positions <= 0.1 * LAM
    if not near.any():
        assert grid.near_core_flatness is None
        return
    s0 = shift_at(_at_node(0.0)[0], CFG, quadrature=ShiftQuadrature(COARSE))
    assert grid.near_core_flatness == float(np.max(np.abs(oracle[near] - s0)) / s0)


def test_longitudinal_profile_is_periodic_and_nearly_flat():
    lam = CFG.beam.wavelength_c
    z = np.array([0.25 * lam, 0.5 * lam, 0.75 * lam])
    grid = shift_profile("longitudinal", z, CFG, quadrature=ShiftQuadrature(FAST))
    grid_next = shift_profile("longitudinal", z + lam, CFG, quadrature=ShiftQuadrature(FAST))
    assert grid.s_values == pytest.approx(grid_next.s_values, rel=1e-6)
    # the on-axis shift barely feels the standing-wave phase
    swing = (grid.s_values.max() - grid.s_values.min()) / grid.s_values.mean()
    assert 0.0 < swing < 0.01


def test_shift_profile_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        shift_profile("azimuthal", np.array([0.0]), CFG, quadrature=ShiftQuadrature(FAST))


@pytest.mark.parametrize(
    "positions, message",
    [
        (np.array([]), "non-empty 1-D"),
        (np.zeros((2, 2)), "non-empty 1-D"),
        (0.0, "non-empty 1-D"),
        (np.array([0.0, np.nan]), "finite"),
        (np.array([np.inf]), "finite"),
    ],
)
def test_shift_profile_rejects_empty_or_non_finite_positions(positions, message):
    with pytest.raises(ValueError, match=message):
        shift_profile("radial", positions, CFG, quadrature=ShiftQuadrature(FAST))


def test_localized_point_sits_at_the_node():
    pos = localized_point(CFG)
    assert pos.r == 0.0
    assert pos.z == pytest.approx(0.75 * CFG.beam.wavelength_c)


def test_boundary_dips_where_the_control_field_peaks():
    lam = CFG.beam.wavelength_c
    pos = Position(r=0.0, z=0.75 * lam)
    for kappa in (10.0, 100.0, 500.0):
        boundary = blockade_boundary(pos, make_config(kappa=kappa), resolution=64)
        assert np.all(np.isfinite(boundary.distances))
        assert np.all(boundary.distances > 0.0)
        r_at_dip = boundary.points[int(boundary.distances.argmin()), 0]
        assert 1.2 * lam <= r_at_dip <= 1.8 * lam


def test_boundary_grows_with_saturation_along_the_axes():
    pos = Position(r=0.0, z=0.75 * CFG.beam.wavelength_c)
    along_r, along_z = [], []
    for kappa in (10.0, 100.0, 500.0):
        b = blockade_boundary(pos, make_config(kappa=kappa), resolution=16)
        along_r.append(b.distances[0])
        along_z.append(b.distances[4])
        w_core = _core_linewidth(make_config(kappa=kappa))
        assert b.distances[4] == pytest.approx(blockade_radius(w_core, CFG.medium.c6), abs=2e-3)
    assert along_r == sorted(along_r)
    assert along_z == sorted(along_z)


def _scalar_march_boundary(atom_pos, config, resolution, refine_tol=1e-3):
    """Oracle: one direction at a time, a scalar march to the first crossing, then bisection."""
    c6 = config.medium.c6
    ip = config.probe.omega_p0 * config.probe.omega_p0

    def rb_at(radius):
        env = control_envelope(abs(radius), config.beam)
        return blockade_radius(float(linewidth_from(ip, env * env, config.probe.delta_p, config.medium.gamma)), c6)

    cap = 1.5 * max(rb_at(atom_pos.r), rb_at(0.0))
    angles = TWO_PI * np.arange(resolution) / resolution
    march = np.linspace(0.0, cap, 1024)
    distances = np.empty(resolution)
    for k, theta in enumerate(angles):
        cos_t = math.cos(theta)

        def outside(d):
            return d >= rb_at(atom_pos.r + d * cos_t)

        lo, hi = next((a, b) for a, b in zip(march[:-1], march[1:]) if outside(b))
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if outside(mid):
                hi = mid
            else:
                lo = mid
        distances[k] = 0.5 * (lo + hi)
    return distances


@pytest.mark.parametrize(
    "kappa, r_um, resolution",
    [
        (10.0, 0.0, 16),
        (180.0, 0.0, 64),
        (500.0, 0.0, 256),
        (300.0, 0.0, 512),
        (150.0, 0.71, 64),
        (300.0, 1.37, 16),
        (500.0, 0.3, 16),
    ],
)
def test_boundary_equals_the_scalar_march_oracle(kappa, r_um, resolution):
    config = make_config(kappa=kappa)
    pos = Position(r=r_um, z=0.75 * config.beam.wavelength_c)
    got = blockade_boundary(pos, config, resolution=resolution)
    assert np.array_equal(got.distances, _scalar_march_boundary(pos, config, resolution))


def test_blockade_boundary_refuses_more_directions_than_its_cap_before_marching(monkeypatch):
    # with the cap lowered to 16 directions, 16 are marched, and one more is
    # refused before the march reads a linewidth
    pos = Position(r=0.0, z=localized_point(CFG).z)
    monkeypatch.setattr(meanfield, "_MAX_DIRECTIONS", 16)
    assert blockade_boundary(pos, CFG, resolution=16).distances.size == 16
    monkeypatch.setattr(meanfield, "local_linewidth", None)
    with pytest.raises(ValueError, match=r"^resolution must be at most 16 directions, got 17$"):
        blockade_boundary(pos, CFG, resolution=17)


@pytest.mark.parametrize("kappa, r_um", [(300.0, 0.0), (150.0, 0.71)])
def test_boundary_bisects_all_directions_as_each_alone(kappa, r_um):
    # the one array bisection gives each direction what a scalar bisection of
    # its own first march bracket gives, bit for bit
    config = make_config(kappa=kappa)
    pos = Position(r=r_um, z=localized_point(config).z)
    got = blockade_boundary(pos, config, resolution=128)
    c6 = config.medium.c6
    cap = 1.5 * float(np.max(blockade_radius(local_linewidth(config, np.abs([r_um, 0.0])), c6)))
    march = np.linspace(0.0, cap, 1024)
    for cos, distance in zip(np.cos(got.angles), got.distances):
        def outside(d, cos=cos):
            return d >= blockade_radius(local_linewidth(config, np.abs(r_um + d * cos)), c6)

        first = int(np.argmax(outside(march[1:])))
        assert _bisect(outside, march[first], march[first + 1], 1e-3) == distance


def test_boundary_input_validation():
    pos = localized_point(CFG)
    with pytest.raises(ValueError, match="resolution"):
        blockade_boundary(pos, CFG, resolution=4)
    with pytest.raises(ValueError, match="c6"):
        blockade_boundary(pos, make_config(c6_mhz_um6=0.0))


def test_quadrature_spec_validation():
    lam = CFG.beam.wavelength_c
    full = QuadratureSpec.scaled(lam, REFERENCE_SPACING)
    assert halved(FAST) == full
    assert full.extent_r == full.extent_z == 100.0 * lam
    with pytest.raises(ValueError, match="positive finite length"):
        QuadratureSpec(1.0, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="spacings must not exceed"):
        QuadratureSpec(1.0, 1.0, 2.0, 0.1)
