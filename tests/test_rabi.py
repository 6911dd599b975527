"""Tests for Hamiltonian assembly, parity blocks, sweeps, and crossings."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabijudd.numerics import sym_eig
from rabijudd.rabi import (
    ModelParams,
    _apply_rabi,
    build_rabi,
    find_crossings,
    parity_blocks,
    parity_matrix,
    spectrum_sweep,
)


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


def test_no_crossings_on_quiet_segment():
    grid = np.linspace(0.01, 0.03, 5)
    t = spectrum_sweep(ModelParams(), grid, cutoff=80, levels_per_block=2)
    assert find_crossings(t) == []


def test_unscaled_table_refines_its_own_model():
    # refinement reads the model, cutoff and units from the table alone
    p = ModelParams(omega=2.0, omega0=1.3)
    grid = np.linspace(0.1, 1.6, 151)
    scaled = find_crossings(spectrum_sweep(p, grid, cutoff=80, levels_per_block=6))
    unscaled = find_crossings(
        spectrum_sweep(p, grid, cutoff=80, levels_per_block=6, scaled=False)
    )
    assert scaled
    assert [(c.level_plus, c.level_minus) for c in unscaled] == [
        (c.level_plus, c.level_minus) for c in scaled
    ]
    for u, s in zip(unscaled, scaled):
        assert abs(u.g_star - s.g_star) <= 1e-8
        assert abs(u.E_star - p.omega * s.E_star) <= 1e-8
