"""Tests for Hamiltonian assembly, parity blocks, sweeps, and crossings."""

import functools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabijudd.juddian as juddian
from rabijudd.bosons import support_rows
from rabijudd.juddian import Crossing, find_crossings, juddian_points
from rabijudd.numerics import (
    sym_eig,
    tridiag_eigvals_lowest,
)
from rabijudd.rabi import (
    ModelParams,
    _apply_rabi,
    _block_layout,
    build_rabi,
    parity_blocks,
    spectrum_sweep,
)
from reference import parity_matrix
from test_numerics import _full_lowest_batch


def test_model_params_derived_fields():
    p = ModelParams()
    assert p.omega == 1.0 and p.omega0 == 1.0 and p.g == 0.0
    assert p.omega_tilde == 0.5
    assert p.lam == 0.0
    q = ModelParams(omega=2.0, omega0=1.0, g=0.3)
    assert q.omega_tilde == 0.25
    assert q.lam == pytest.approx(0.3)
    assert replace(q, g=0.5).lam == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ModelParams(omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega=-1.0)
    # omega0 / (2 omega) and 2 g / omega overflow
    with pytest.raises(ValueError, match="omega_tilde must be finite"):
        ModelParams(omega0=1e308, omega=1e-308)
    with pytest.raises(ValueError, match="lam must be finite"):
        ModelParams(g=1e308, omega=1e-10)


def test_spectrum_sweep_rejects_overflowing_couplings():
    with pytest.raises(ValueError, match=re.escape("(2 g / omega)^2 n overflow")):
        spectrum_sweep(ModelParams(omega=1e-300), [0.05, 0.4, 0.8], cutoff=100)


def test_build_rabi_uncoupled_ladder():
    H = build_rabi(ModelParams(), cutoff=40)
    vals = sym_eig(H).values
    assert np.abs(vals[:3] - np.array([-0.5, 0.5, 0.5])).max() < 1e-12


def test_build_rabi_coupling_entry():
    p = ModelParams(g=0.17)
    H = build_rabi(p, cutoff=10)
    # basis index 0 is (n=0, spin up), index 3 is (n=1, spin down)
    assert H[0, 3] == pytest.approx(p.lam, abs=1e-15)
    assert H[3, 0] == H[0, 3]
    assert np.array_equal(H, H.T)


def test_build_rabi_degenerate_pair_at_first_crossing():
    p = ModelParams(g=0.2165063510)
    vals = sym_eig(build_rabi(p, cutoff=100)).values
    close = np.abs(vals - 0.8125) <= 1e-6
    assert close.sum() >= 2


def test_band_product_matches_dense_hamiltonian():
    rng = np.random.RandomState(5)
    for M in (0, 1, 12):
        p = ModelParams(omega=1.3, omega0=0.7, g=0.45)
        v = rng.standard_normal(2 * (M + 1))
        dense = build_rabi(p, cutoff=M) @ v
        assert np.abs(_apply_rabi(p, v) - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())


def test_parity_matrix_example_entry():
    pi = parity_matrix(10)
    # (n=2, spin up) sits at index 4 and has parity -cos(2*pi) = -1
    assert pi[4, 4] == -1.0
    # (n=1, spin up) at index 2: -(+1)*cos(pi) = +1
    assert pi[2, 2] == 1.0
    assert np.array_equal(np.abs(np.diag(pi)), np.ones(22))


def test_parity_commutes_with_hamiltonian():
    p = ModelParams(g=0.37)
    H = build_rabi(p, cutoff=60)
    pi = parity_matrix(60)
    assert np.abs(H @ pi - pi @ H).max() <= 1e-12


def test_parity_blocks_shapes_and_basis_map():
    plus, minus = parity_blocks(ModelParams(g=0.3), cutoff=100)
    assert plus.parity == 1 and minus.parity == -1
    assert plus.matrix.shape == (101, 101)
    assert minus.matrix.shape == (101, 101)
    for block in (plus, minus):
        assert len(block.basis_map) == 101
        for n, s in block.basis_map:
            assert -s * (-1.0) ** n == block.parity


@pytest.mark.parametrize("omega_tilde", [0.0, 0.5, 1.3, 3.7, -2.2, 1e-300, 1e17])
def test_block_arrays_match_the_spin_power_formula(omega_tilde):
    # the diagonal n + omega_tilde s, with spin s = -parity (-1)^n, bit for bit
    params = ModelParams(omega0=2.0 * omega_tilde, g=0.3)
    for M in (0, 1, 2, 100, 2500):
        n = np.arange(M + 1)
        diags, root = _block_layout(params, M)
        assert diags.shape == (2, M + 1)
        for parity, diag in zip((1, -1), diags):
            assert diag.tobytes() == (n + params.omega_tilde * (-parity * (-1.0) ** n)).tobytes()
        assert root.tobytes() == np.sqrt(np.arange(1.0, M + 1.0)).tobytes()


def test_block_spectra_union_matches_full():
    p = ModelParams(g=0.3)
    M = 60
    plus, minus = parity_blocks(p, cutoff=M)
    together = np.sort(np.concatenate([
        sym_eig(plus.matrix).values, sym_eig(minus.matrix).values,
    ]))
    full = sym_eig(build_rabi(p, cutoff=M)).values
    assert np.abs(together - full).max() <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    g=st.floats(min_value=-1.5, max_value=1.5),
    omega0=st.floats(min_value=0.1, max_value=4.0),
)
def test_block_completeness_random(g, omega0):
    p = ModelParams(omega0=omega0, g=g)
    M = 12
    plus, minus = parity_blocks(p, cutoff=M)
    together = np.sort(np.concatenate([
        sym_eig(plus.matrix).values, sym_eig(minus.matrix).values,
    ]))
    full = sym_eig(build_rabi(p, cutoff=M)).values
    scale = max(1.0, np.abs(full).max())
    assert np.abs(together - full).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_single_point_uncoupled():
    table = spectrum_sweep(ModelParams(), np.array([0.0]), cutoff=50,
                           levels_per_block=3)
    assert np.allclose(table.levels_plus[0], [-0.5, 1.5, 1.5], atol=1e-12)
    assert np.allclose(table.levels_minus[0], [0.5, 0.5, 2.5], atol=1e-12)


def _assert_sweep_is_full_length(params, grid, M, k):
    """spectrum_sweep's table is the full-length walk's, one parity at a time, bit for bit."""
    table = spectrum_sweep(params, grid, M, k)
    diags = _block_layout(params, M)[0]
    lams = 2.0 * grid / params.omega
    e2_cols = (np.sqrt(np.arange(1.0, M + 1.0))[:, None] * lams[None, :]) ** 2
    reference = _full_lowest_batch(diags, e2_cols, k)
    assert table.levels_plus.tobytes() == reference[0].tobytes()
    assert table.levels_minus.tobytes() == reference[1].tobytes()


# the cutoffs and level counts of the benchmark's sweep slots, on a shorter grid
@pytest.mark.parametrize("omega_tilde", [0.5, 2.0])
@pytest.mark.parametrize("M, k", [(60, 8), (60, 16), (100, 8), (100, 16), (300, 8), (300, 16)])
def test_sweep_is_bit_identical_to_full_length_per_parity(M, k, omega_tilde):
    _assert_sweep_is_full_length(ModelParams(omega=1.0, omega0=2.0 * omega_tilde), np.linspace(0.05, 0.8, 101), M, k)


def test_sweep_takes_its_coupling_bound_at_the_largest_abs_g():
    # the first grid value has the largest |g|: a row maximum read at the
    # largest g, the last, would be too small and move the start and stop
    _assert_sweep_is_full_length(ModelParams(), np.linspace(-0.8, 0.3, 201), 60, 8)


def test_sweep_peak_memory():
    # about 2.8 MB of it is the couplings (1.6 MB) and the (2, 8, 2001) lanes;
    # a (rows x lanes) buffer of per-row flags would add about 3.2 MB
    params, grid = ModelParams(omega=1.0, omega0=1.0), np.linspace(0.05, 0.8, 2001)
    tracemalloc.start()
    try:
        spectrum_sweep(params, grid, 100, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6


def test_sweep_peak_memory_does_not_grow_with_the_cutoff():
    # the walk stops near row 54 here, and squares only the coupling rows it
    # reaches: an (M, G) table of squared couplings alone would be 80 MB
    grid = np.linspace(0.05, 0.8, 2001)
    tracemalloc.start()
    try:
        spectrum_sweep(ModelParams(), grid, 5000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_sweep_validation():
    with pytest.raises(ValueError):
        spectrum_sweep(ModelParams(), np.array([]), cutoff=20)
    with pytest.raises(ValueError):
        spectrum_sweep(ModelParams(), np.array([0.2, 0.1]), cutoff=20)
    with pytest.raises(ValueError):
        spectrum_sweep(ModelParams(), np.array([0.1]), cutoff=20,
                       levels_per_block=50)


@pytest.mark.parametrize("cutoff, levels", [(20.9, 8), ("20", 8), (True, 1), (20, 2.5), (20, True)])
def test_sweep_refuses_a_non_integral_cutoff_or_level_count(cutoff, levels):
    # int() made a 21-row block of cutoff 20.9 and 2 levels of 2.5
    with pytest.raises(ValueError, match="must be an integer"):
        spectrum_sweep(ModelParams(), [0.1, 0.2], cutoff, levels)
    want = spectrum_sweep(ModelParams(), [0.1, 0.2], 20, 2)
    for whole in (20.0, np.int64(20)):
        got = spectrum_sweep(ModelParams(), [0.1, 0.2], whole, np.float64(2.0))
        assert got.levels_plus.tobytes() == want.levels_plus.tobytes()
        assert got.levels_minus.tobytes() == want.levels_minus.tobytes()


def test_sweep_sign_of_g_is_exact_symmetry():
    grid = np.linspace(0.05, 0.6, 12)
    fwd = spectrum_sweep(ModelParams(), grid, cutoff=60, levels_per_block=5)
    rev = spectrum_sweep(ModelParams(), -grid[::-1], cutoff=60,
                         levels_per_block=5)
    assert np.array_equal(fwd.levels_plus, rev.levels_plus[::-1])
    assert np.array_equal(fwd.levels_minus, rev.levels_minus[::-1])


def test_sweep_levels_ascend_and_cutoff_converged():
    grid = np.linspace(0.0, 0.8, 9)
    t100 = spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=8)
    t125 = spectrum_sweep(ModelParams(), grid, cutoff=125, levels_per_block=8)
    assert np.all(np.diff(t100.levels_plus, axis=1) >= -1e-13)
    assert np.all(np.diff(t100.levels_minus, axis=1) >= -1e-13)
    assert np.abs(t100.levels_plus - t125.levels_plus).max() <= 1e-8
    assert np.abs(t100.levels_minus - t125.levels_minus).max() <= 1e-8


# ---------------------------------------------------------------------------
# crossings

def test_levels_swap_order_across_first_crossing():
    grid = np.array([0.20, 0.23])
    t = spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=3)
    d_before = t.levels_plus[0, 1] - t.levels_minus[0, 1]
    d_after = t.levels_plus[1, 1] - t.levels_minus[1, 1]
    assert d_before * d_after < 0


def test_crossing_near_first_point():
    grid = np.linspace(0.2, 0.25, 6)
    t = spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=4)
    crossings = find_crossings(t)
    gs = [c.g_star for c in crossings]
    assert any(abs(g - 0.2165063510) < 1e-7 for g in gs)
    hit = min(crossings, key=lambda c: abs(c.g_star - 0.2165063510))
    assert abs(hit.E_star - 0.8125) < 1e-6


def test_crossing_in_second_window():
    grid = np.linspace(0.1, 0.2, 11)
    t = spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=8)
    crossings = find_crossings(t)
    assert any(abs(c.g_star - 0.1661640732) < 1e-7 for c in crossings)


def test_crossing_refinement_tolerance():
    grid = np.linspace(0.2, 0.25, 6)
    t = spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=4)
    for c in find_crossings(t):
        probe = spectrum_sweep(ModelParams(), np.array([c.g_star]), cutoff=100,
                               levels_per_block=max(c.level_plus, c.level_minus) + 1)
        ep = probe.levels_plus[0, c.level_plus]
        em = probe.levels_minus[0, c.level_minus]
        assert abs(ep - em) <= 1e-9
        assert abs(c.E_star - 0.5 * (ep + em)) <= 1e-9


def test_crossing_fields_are_python_scalars():
    # float g_star and E_star, int levels, never numpy scalars
    t = spectrum_sweep(ModelParams(omega0=1.0), np.linspace(0.05, 0.8, 201), 60, 8)
    crossings = find_crossings(t)
    assert len(crossings) == 24
    for c in crossings:
        assert (type(c.g_star), type(c.E_star)) == (float, float), c
        assert (type(c.level_plus), type(c.level_minus)) == (int, int), c


def test_no_crossings_on_quiet_segment():
    grid = np.linspace(0.01, 0.03, 5)
    t = spectrum_sweep(ModelParams(), grid, cutoff=80, levels_per_block=2)
    assert find_crossings(t) == []


def _sign_change_cells(table):
    """(i, j, m) for every grid cell [g_m, g_m+1] where E+_i - E-_j changes sign."""
    k = table.levels_plus.shape[1]
    cells = []
    for i in range(k):
        for j in range(k):
            diff = table.levels_plus[:, i] - table.levels_minus[:, j]
            cells += [(i, j, m) for m in range(diff.size - 1) if diff[m] * diff[m + 1] < 0.0]
    return cells


@pytest.mark.parametrize("omega_tilde", [0.5, 2.0])
def test_crossings_match_sign_changes_and_meet_within_tol(omega_tilde):
    # the benchmark's costliest table shape: G = 201, M = 60, k = 16
    p = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    t = spectrum_sweep(p, np.linspace(0.05, 0.8, 201), cutoff=60, levels_per_block=16)
    crossings = find_crossings(t)
    cells = _sign_change_cells(t)
    assert len(cells) >= 40
    # one crossing per sign change, inside its cell
    ordered = sorted(crossings, key=lambda c: (c.level_plus, c.level_minus, c.g_star))
    assert len(ordered) == len(cells)
    for c, (i, j, m) in zip(ordered, sorted(cells)):
        assert (c.level_plus, c.level_minus) == (i, j)
        assert t.g_values[m] <= c.g_star <= t.g_values[m + 1]
        diags, root = _block_layout(p, 60)
        levels = [tridiag_eigvals_lowest(diag, replace(p, g=c.g_star).lam * root, 16) for diag in diags]
        ep, em = levels[0][i], levels[1][j]
        assert abs(ep - em) <= 1e-9
        assert abs(c.E_star - 0.5 * (ep + em)) <= 1e-9


def test_crossing_count_budget_is_four_per_candidate(monkeypatch):
    # the criterion-8 table: each of its 26 candidate points (24 of them
    # crossings) is certified by two counts per block, through one counter
    # built for the table, and nothing else is counted. juddian's own names
    # are patched, since find_crossings looks them up there
    calls, deltas, built = [], [], []
    count, block_counter = juddian._sturm_count, juddian._block_counter

    def recording(*args):
        built.append(args[2])
        counter = block_counter(*args)
        return lambda lam, E, delta: deltas.append(delta) or counter(lam, E, delta)

    monkeypatch.setattr(juddian, "_sturm_count", lambda *a: calls.append(1) or count(*a))
    monkeypatch.setattr(juddian, "_block_counter", recording)
    t = spectrum_sweep(ModelParams(), np.linspace(0.05, 0.8, 201), cutoff=100, levels_per_block=8)
    crossings = find_crossings(t)
    assert len(crossings) == 24
    assert built == [1.6]  # lam_max = 2 * 0.8 / omega
    assert deltas == [5e-10] * 26
    assert len(calls) == 4 * len(deltas)


def _counted_candidates(monkeypatch, table):
    """find_crossings' result on table, and the (lam, E) of every candidate it counted."""
    seen, block_counter = [], juddian._block_counter

    def recording(*args):
        counter = block_counter(*args)
        return lambda lam, E, delta: seen.append((lam, E)) or counter(lam, E, delta)

    monkeypatch.setattr(juddian, "_block_counter", recording)
    return find_crossings(table), seen


def test_crossings_count_no_g_zero_candidate_off_integer_omega_tilde(monkeypatch):
    # omega_tilde = 1/2: at g = 0 the levels are n -/+ 1/2, none at an integer
    # E, so the grid across g = 0 counts only the points at g != 0
    t = spectrum_sweep(ModelParams(omega0=1.0), np.linspace(-0.4, 0.4, 201), cutoff=100, levels_per_block=8)
    crossings, seen = _counted_candidates(monkeypatch, t)
    assert len(crossings) == 26 and len(seen) == 28
    assert all(lam != 0.0 for lam, _ in seen)


@pytest.mark.parametrize("omega0, first", [(2.0, 1), (4.0, 2), (6.0, 3)])
def test_crossings_at_g_zero_reach_the_top_level_of_a_one_row_table(monkeypatch, omega0, first):
    # at integer omega_tilde the one row g = 0 holds crossings (0, N) for
    # N = first .. 7, levels (N, N); the top one, N = 7, may lie a few ulps
    # above the bisected top level (6.999999999999995 at omega0 = 2), so
    # E_cap alone would drop it. Orders above E_cap + _CROSSING_TOL are not
    # counted
    t = spectrum_sweep(ModelParams(omega0=omega0), np.array([0.0]), cutoff=60, levels_per_block=8)
    crossings, seen = _counted_candidates(monkeypatch, t)
    assert [(c.g_star, c.E_star, c.level_plus, c.level_minus) for c in crossings] == [
        (0.0, float(N), N, N) for N in range(first, 8)
    ]
    assert seen == [(0.0, float(N)) for N in range(1, 8)]


def _rewrite_counts(monkeypatch, change):
    """Patch find_crossings' counter so that change rewrites each candidate's counts."""
    block_counter = juddian._block_counter

    def patched(*args):
        counter = block_counter(*args)
        return lambda lam, E, delta: change(counter(lam, E, delta))

    monkeypatch.setattr(juddian, "_block_counter", patched)


def test_crossings_refuse_a_point_with_two_levels_in_one_block(monkeypatch):
    # the criterion-8 table holds no g = 0 row, so every candidate is a real
    # point: one whose certificate holds two + levels is not a crossing, and
    # find_crossings raises on the first such point instead of accepting it
    t = spectrum_sweep(ModelParams(), np.linspace(0.05, 0.8, 201), cutoff=100, levels_per_block=8)
    _rewrite_counts(monkeypatch, lambda counts: [(counts[0][0], counts[0][1] + 1), counts[1]])
    with pytest.raises(ValueError, match=r"is not one level of each block at cutoff 100: they hold 2 and 1 within"):
        find_crossings(t)


@pytest.mark.parametrize("block", [0, 1], ids=["plus", "minus"])
def test_crossings_skip_a_point_past_the_top_level_of_either_block(monkeypatch, block):
    # a candidate at or above level k of either block lies outside the table:
    # it is skipped, with no crossing and no error, whatever the other block holds
    t = spectrum_sweep(ModelParams(), np.linspace(0.05, 0.8, 201), cutoff=100, levels_per_block=8)
    seen = []

    def change(counts):
        seen.append(counts)
        counts = list(counts)
        counts[block] = (8, 9)
        return counts

    _rewrite_counts(monkeypatch, change)
    assert find_crossings(t) == []
    assert len(seen) == 26


def test_crossings_above_every_row_are_kept_by_the_rise():
    # the levels peak at g = 0, so on a grid across it with no row there the
    # order-2 crossings at g = -/+0.166 lie above the top level of both rows:
    # only the Hellmann-Feynman rise keeps them in the window
    t = spectrum_sweep(ModelParams(), np.array([-0.3, 0.3]), cutoff=100, levels_per_block=3)
    top = max(t.levels_plus.max(), t.levels_minus.max())
    point = next(p for p in juddian_points(2, ModelParams()) if p.g < 0.3)
    high = [c for c in find_crossings(t) if c.E_star > top]
    assert high == [Crossing(-point.g, point.E, 2, 2), Crossing(point.g, point.E, 2, 2)]


def test_crossings_of_a_deep_window_match_the_whole_table():
    # on g in [1, 1.5] the top level sits near 3.1, but the crossing there has
    # order 7: the rows' lam^2 in the order bound reaches it, and the window
    # returns what the whole table holds inside it
    grid = np.linspace(0.0, 3.0, 301)
    whole = find_crossings(spectrum_sweep(ModelParams(omega0=1.0), grid, cutoff=100, levels_per_block=8))
    part = find_crossings(spectrum_sweep(ModelParams(omega0=1.0), grid[100:151], cutoff=100, levels_per_block=8))
    assert part == [c for c in whole if 1.0 <= c.g_star <= 1.5]
    assert len(part) == 1


def test_crossings_on_a_negative_grid_mirror_the_positive_one():
    # the spectrum is even in g, so a grid of negative g alone holds the
    # mirror image of the positive grid's crossings; its counter must serve
    # couplings up to 2 |g_min| / omega, not 2 g_max / omega
    grid = np.linspace(0.05, 0.8, 201)
    pos = find_crossings(spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=8))
    neg = find_crossings(spectrum_sweep(ModelParams(), -grid[::-1], cutoff=100, levels_per_block=8))
    assert len(pos) == 24
    assert [(-c.g_star, c.E_star, c.level_plus, c.level_minus) for c in reversed(neg)] == [
        (c.g_star, c.E_star, c.level_plus, c.level_minus) for c in pos]


# the crossing at g = sqrt(3)/8 lies in cell 44 of the 201-row grid; each short
# grid is a run of that grid's rows that holds cell 44, at either end or inside
@pytest.mark.parametrize("rows, cell", [(2, 0), (3, 0), (3, 1), (5, 0), (5, 2), (5, 3)])
def test_crossing_on_short_grids_matches_long_grid(rows, cell):
    grid = np.linspace(0.05, 0.8, 201)
    long = find_crossings(spectrum_sweep(ModelParams(), grid, cutoff=100, levels_per_block=8))
    ref = min(long, key=lambda c: abs(c.g_star - np.sqrt(3.0) / 8.0))
    assert grid[44] < ref.g_star < grid[45]
    short = find_crossings(spectrum_sweep(ModelParams(), grid[44 - cell : 44 - cell + rows], cutoff=100, levels_per_block=8))
    got = [c for c in short if (c.level_plus, c.level_minus) == (ref.level_plus, ref.level_minus)]
    assert len(got) == 1
    assert abs(got[0].g_star - ref.g_star) <= 1e-9
    assert abs(got[0].E_star - ref.E_star) <= 1e-9


def test_crossings_ignore_the_levels_below_the_top():
    # the crossings are the exact points the table's window can hold, so only
    # its grid, model, cutoff, level count and top level enter: a table whose
    # level 0 was altered to change sign against -0 where the model's levels
    # never meet gives the same crossings as the true table
    t = spectrum_sweep(ModelParams(), np.linspace(0.2, 0.25, 6), cutoff=100, levels_per_block=4)
    fake = t.levels_plus.copy()
    fake[:, 0] = t.levels_minus[:, 0] + np.array([-2e-3, -1e-3, 1e-3, 2e-3, 3e-3, 4e-3])
    assert fake.max() == t.levels_plus.max()
    want = find_crossings(t)
    assert [(c.level_plus, c.level_minus) for c in want] == [(1, 1)]
    assert find_crossings(replace(t, levels_plus=fake)) == want


def _block(omega_tilde, lam, M, parity):
    """The dense parity block, built here apart from rabi."""
    n = np.arange(M + 1)
    off = lam * np.sqrt(n[1:])
    return np.diag(n - parity * omega_tilde * (-1.0) ** n) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("omega_tilde, count", [(0.5, 24), (1.3, 17), (3.7, 9)])
def test_crossings_are_exact_points(omega_tilde, count):
    # criterion 8 on every crossing of the G = 201, M = 100, k = 8 table: each
    # is a Juddian point bit for bit, and LAPACK puts both levels on it
    params = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    t = spectrum_sweep(params, np.linspace(0.05, 0.8, 201), cutoff=100, levels_per_block=8)
    crossings = find_crossings(t)
    assert len(crossings) == count
    exact = {(p.g, p.E) for N in range(1, 16) for p in juddian_points(N, params)}
    for c in crossings:
        assert (c.g_star, c.E_star) in exact, c
        for parity, level in ((1, c.level_plus), (-1, c.level_minus)):
            value = np.linalg.eigvalsh(_block(omega_tilde, 2.0 * c.g_star, 100, parity))[level]
            assert abs(value - c.E_star) <= 1e-9, (c, parity, value)


def test_degeneracies_at_zero_coupling_sit_at_g_zero():
    # at omega_tilde = 2 the uncoupled levels 2j - 2 (+) and 2l + 2 (-) meet at
    # integer E = N, and come back at g = 0 exactly, not at a g of rounding
    # noise; (+6, -6) differs by -1.8e-15 on the g = 0 row and keeps that sign
    # on the next, so no sign change shows it
    t = spectrum_sweep(ModelParams(omega0=4.0), np.linspace(0.0, 0.8, 201), cutoff=100, levels_per_block=8)
    at_zero = [c for c in find_crossings(t) if c.g_star < t.g_values[1]]
    assert [(c.level_plus, c.level_minus) for c in at_zero] == [(n, n) for n in range(2, 8)]
    for c in at_zero:
        N = np.sort(np.diag(_block(2.0, 0.0, 100, 1)))[c.level_plus]
        assert N == np.sort(np.diag(_block(2.0, 0.0, 100, -1)))[c.level_minus] == round(N)
        assert (c.g_star, c.E_star) == (0.0, N)


@pytest.mark.parametrize("omega_tilde", [0.5, 2.0])
def test_crossings_mirror_across_g_zero(omega_tilde):
    # the spectrum is even in g, so a grid symmetric about 0 holds each point
    # at -g as at +g, with the same energy and levels
    t = spectrum_sweep(ModelParams(omega0=2.0 * omega_tilde), np.linspace(-0.4, 0.4, 201), cutoff=100, levels_per_block=8)
    crossings = find_crossings(t)
    left = sorted((-c.g_star, c.E_star, c.level_plus, c.level_minus) for c in crossings if c.g_star < 0.0)
    right = sorted((c.g_star, c.E_star, c.level_plus, c.level_minus) for c in crossings if c.g_star > 0.0)
    assert len(left) >= 4
    assert left == right


@pytest.mark.parametrize("grid", [np.linspace(0.0, 0.8, 201), np.linspace(-0.4, 0.4, 201)], ids=["from-zero", "across-zero"])
@pytest.mark.parametrize("omega_tilde", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_crossings_at_g_zero_are_the_equal_uncoupled_levels(omega_tilde, grid):
    # at g = 0 the blocks are diagonal: an integer omega_tilde makes levels of
    # opposite parity equal integers, a half-integer one makes none equal
    t = spectrum_sweep(ModelParams(omega0=2.0 * omega_tilde), grid, cutoff=100, levels_per_block=8)
    plus, minus = (np.sort(np.diag(_block(omega_tilde, 0.0, 100, parity)))[:8] for parity in (1, -1))
    want = [(i, j, plus[i]) for i in range(8) for j in range(8) if plus[i] == minus[j]]
    got = [(c.level_plus, c.level_minus, c.E_star) for c in find_crossings(t) if c.g_star == 0.0]
    assert sorted(got) == want
    assert bool(want) == (omega_tilde == round(omega_tilde))


@pytest.mark.parametrize("grid, k, count", [
    (np.linspace(0.0, 3.0, 301), 1, 0),
    (np.linspace(0.0, 3.0, 301), 8, 28),
    # past g = 2 the resonant doublets differ by rounding alone, about 1e-13,
    # and change sign where no point lies
    (np.linspace(0.05, 3.0, 401), 8, 28),
], ids=["from-zero-k1", "from-zero-k8", "rounding"])
def test_deep_coupling_crossings_meet_by_eigvalsh(grid, k, count):
    params = ModelParams(omega0=1.0)
    crossings = find_crossings(spectrum_sweep(params, grid, cutoff=100, levels_per_block=k))
    assert len(crossings) == count
    for c in crossings:
        for parity, level in ((1, c.level_plus), (-1, c.level_minus)):
            value = np.linalg.eigvalsh(_block(0.5, 2.0 * c.g_star, 100, parity))[level]
            assert abs(value - c.E_star) <= 1e-9, (c, parity, value)


@pytest.mark.parametrize("omega_tilde", [0.5, 1.3, 3.7])
def test_crossings_are_complete_on_the_criterion_8_tables(omega_tilde):
    params = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    grid = np.linspace(0.05, 0.8, 201)
    t = spectrum_sweep(params, grid, cutoff=100, levels_per_block=8)
    crossings = find_crossings(t)
    # every exact point in the window whose LAPACK levels put both indices
    # below k is returned, with those indices
    for N in range(1, 16):
        for pt in juddian_points(N, params):
            if not grid[0] <= pt.g <= grid[-1]:
                continue
            below = []
            for parity in (1, -1):
                values = np.linalg.eigvalsh(_block(omega_tilde, pt.lam, 100, parity))
                assert np.sum(np.abs(values - pt.E) <= 5e-10) == 1, (pt, parity)
                below.append(int(np.sum(values < pt.E - 5e-10)))
            if max(below) < 8:
                assert Crossing(pt.g, pt.E, *below) in crossings, pt
    # every clear sign change holds an odd number of crossings of its pair
    for i, j, m in _sign_change_cells(t):
        diff = t.levels_plus[m : m + 2, i] - t.levels_minus[m : m + 2, j]
        if np.all(np.abs(diff) > 1e-9):
            inside = [c for c in crossings
                      if (c.level_plus, c.level_minus) == (i, j) and grid[m] <= c.g_star <= grid[m + 1]]
            assert len(inside) % 2 == 1, (i, j, m)


@functools.cache
def _deep_points():
    """(point, LAPACK levels below it, levels within 5e-10) per parity, for
    every point of orders 1..45 with g <= 3 at omega0 = 1 and cutoff 100."""
    found = []
    for N in range(1, 46):
        for pt in juddian_points(N, ModelParams(omega0=1.0)):
            if pt.g <= 3.0:
                values = [np.linalg.eigvalsh(_block(0.5, pt.lam, 100, parity)) for parity in (1, -1)]
                below = [int(np.sum(v < pt.E - 5e-10)) for v in values]
                found.append((pt, below, [int(np.sum(np.abs(v - pt.E) <= 5e-10)) for v in values]))
    return found


@pytest.mark.parametrize("k", [1, 8])
def test_crossings_are_complete_on_the_deep_coupling_tables(k):
    # the tables whose orders the table-wide bound walked up to 44: over
    # orders 1..45, the crossings are exactly the points in the window whose
    # LAPACK levels put both indices below k, one level of each block there
    grid = np.linspace(0.0, 3.0, 301)
    t = spectrum_sweep(ModelParams(omega0=1.0), grid, cutoff=100, levels_per_block=k)
    crossings = find_crossings(t)
    want = []
    for pt, below, held in _deep_points():
        if max(below) < k:
            assert held == [1, 1], pt
            want.append(Crossing(pt.g, pt.E, *below))
    assert sorted(want, key=lambda c: c.g_star) == crossings
    for i, j, m in _sign_change_cells(t):
        diff = t.levels_plus[m : m + 2, i] - t.levels_minus[m : m + 2, j]
        if np.all(np.abs(diff) > 1e-9):
            inside = [c for c in crossings
                      if (c.level_plus, c.level_minus) == (i, j) and grid[m] <= c.g_star <= grid[m + 1]]
            assert len(inside) % 2 == 1, (i, j, m)


def test_crossing_orders_stop_at_the_rows_bound(monkeypatch):
    # each row bounds the orders a crossing next to it can have, by its own top
    # level and coupling: on the deep k = 8 table the points of orders up to
    # 8 are computed, where one table-wide bound took them up to 44
    orders = []
    points = juddian.juddian_points
    monkeypatch.setattr(juddian, "juddian_points", lambda N, p: orders.append(N) or points(N, p))
    t = spectrum_sweep(ModelParams(omega0=1.0), np.linspace(0.0, 3.0, 301), cutoff=100, levels_per_block=8)
    assert len(find_crossings(t)) == 28
    assert orders == list(range(1, len(orders) + 1))
    assert 7 <= max(orders) <= 9


def test_crossings_refuse_omega0_zero():
    # the blocks are isospectral at every g: every level pair meets on every row
    t = spectrum_sweep(ModelParams(omega0=0.0), np.linspace(0.0, 0.8, 201), cutoff=100, levels_per_block=8)
    with pytest.raises(ValueError, match="omega0 must be nonzero"):
        find_crossings(t)


def test_truncated_cutoff_raises_naming_the_point():
    # a cutoff far too small: the truncated levels miss an exact point whose
    # levels the table tracks, and truncation crosses levels that never meet
    t = spectrum_sweep(ModelParams(), np.linspace(0.05, 1.5, 201), cutoff=12, levels_per_block=8)
    with pytest.raises(ValueError, match=r"Juddian point g=\S+, E=\S+ of order N=\d+ \(levels \+\d+, -\d+\) is not one level of each block at cutoff 12") as info:
        find_crossings(t)
    named = re.search(r"g=(\S+), E=(\S+) of order N=(\d+).*support_rows R = (\d+)$", str(info.value))
    assert named, info.value
    g, E, N = float(named[1]), float(named[2]), int(named[3])
    point = next(p for p in juddian_points(N, ModelParams()) if (p.g, p.E) == (g, E))
    assert int(named[4]) == support_rows(point.lam, N) > 13
