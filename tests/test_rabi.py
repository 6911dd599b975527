"""Tests for Hamiltonian assembly, parity blocks, sweeps, and crossings."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabijudd.numerics as numerics
from rabijudd.numerics import (
    _gershgorin,
    sym_eig,
    tridiag_eigval_near,
    tridiag_eigvals_lowest,
)
from rabijudd.rabi import (
    ModelParams,
    _apply_rabi,
    _block_arrays,
    build_rabi,
    find_crossings,
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
    assert q.with_g(0.5).lam == pytest.approx(0.5)
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


# the cutoffs and level counts of the benchmark's sweep slots, on a shorter grid
@pytest.mark.parametrize("omega_tilde", [0.5, 2.0])
@pytest.mark.parametrize("M, k", [(60, 8), (60, 16), (100, 8), (100, 16), (300, 8), (300, 16)])
def test_sweep_is_bit_identical_to_full_length_per_parity(M, k, omega_tilde):
    params = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    grid = np.linspace(0.05, 0.8, 101)
    table = spectrum_sweep(params, grid, M, k)
    diags = np.array([_block_arrays(params, M, parity)[0] for parity in (1, -1)])
    lams = 2.0 * grid / params.omega
    e2_cols = (np.sqrt(np.arange(1.0, M + 1.0))[:, None] * lams[None, :]) ** 2
    reference = _full_lowest_batch(diags, e2_cols, k)
    assert table.levels_plus.tobytes() == reference[0].tobytes()
    assert table.levels_minus.tobytes() == reference[1].tobytes()


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


def test_sweep_validation():
    with pytest.raises(ValueError):
        spectrum_sweep(ModelParams(), np.array([]), cutoff=20)
    with pytest.raises(ValueError):
        spectrum_sweep(ModelParams(), np.array([0.2, 0.1]), cutoff=20)
    with pytest.raises(ValueError):
        spectrum_sweep(ModelParams(), np.array([0.1]), cutoff=20,
                       levels_per_block=50)


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
    # refined and exact-hit crossings alike: float g_star and E_star, int levels,
    # never numpy scalars, whichever path produced the value
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
        levels = []
        for parity in (1, -1):
            diag, off = _block_arrays(p.with_g(c.g_star), 60, parity)
            levels.append(tridiag_eigvals_lowest(diag, off, 16))
        ep, em = levels[0][i], levels[1][j]
        assert abs(ep - em) <= 1e-9
        assert abs(c.E_star - 0.5 * (ep + em)) <= 1e-9


@pytest.mark.parametrize("index, guess, width", [
    (3, "level 6", 1e-12),   # a higher level: the lower side fails and widens
    (3, "level 0", 1e-12),   # a lower level: the upper side fails and widens
    (5, "level 5", 0.0),     # the right level, zero width: the floor applies
    (2, 1e6, 1e-3),          # outside the Gershgorin interval
    (2, float("nan"), 1e-3),
    (4, "level 4", float("inf")),
])
def test_warm_bracket_returns_confirmed_level(index, guess, width):
    diag, off = _block_arrays(ModelParams(omega0=1.3, g=0.37), 80, -1)
    lo, hi = _gershgorin(diag, off)
    ref = tridiag_eigvals_lowest(diag, off, 8)
    if isinstance(guess, str):
        guess = float(ref[int(guess.split()[1])]) + 3e-13
    value = tridiag_eigval_near(diag, off, index, guess, width)
    assert abs(value - ref[index]) <= 1e-12 * max(abs(lo), abs(hi))


def test_crossing_refinement_count_budget(monkeypatch):
    # the criterion-8 table: a refinement that falls back to bisecting from the
    # Gershgorin interval spends about 390 counts per crossing
    calls = []
    count = numerics._sturm_count
    monkeypatch.setattr(numerics, "_sturm_count", lambda *a, **kw: calls.append(1) or count(*a, **kw))
    t = spectrum_sweep(ModelParams(), np.linspace(0.05, 0.8, 201), cutoff=100, levels_per_block=8)
    crossings = find_crossings(t)
    assert len(crossings) == 24
    assert len(calls) / len(crossings) <= 150


def test_sign_change_the_model_lacks_does_not_resolve():
    # a table whose levels were altered so that E+_0 - E-_0 changes sign in a
    # cell where the model's levels never meet: the counts keep every trial on
    # the true levels, so the bracket collapses and the error names the cell
    t = spectrum_sweep(ModelParams(), np.linspace(0.01, 0.03, 5), cutoff=40, levels_per_block=2)
    fake = t.levels_plus.copy()
    fake[:, 0] = t.levels_minus[:, 0] + np.array([-2e-3, -1e-3, 1e-3, 2e-3, 3e-3])
    with pytest.raises(RuntimeError, match=r"levels \(\+0, -0\) in cell g = \[0.015, 0.02\] did not resolve"):
        find_crossings(replace(t, levels_plus=fake))
