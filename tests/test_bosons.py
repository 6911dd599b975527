"""Tests for truncated boson operators and the shifted-oscillator models."""

import math

import numpy as np
import pytest

from rabijudd.bosons import (
    displaced_number_states,
    displaced_osc_hamiltonian,
    displacement_matrix,
    ladder_matrices,
    oscillator_levels,
    squeeze_params,
    squeezed_osc_hamiltonian,
    support_rows,
)
from rabijudd.numerics import sym_eig
from test_numerics import _inverse_iteration


def test_ladder_matrices_m1():
    create, annihilate, number = ladder_matrices(1)
    assert np.array_equal(create, [[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(annihilate, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(number, [[0.0, 0.0], [0.0, 1.0]])


def test_commutator_truncation_defect():
    M = 50
    create, annihilate, _ = ladder_matrices(M)
    comm = annihilate @ create - create @ annihilate
    expected = np.eye(M + 1)
    expected[M, M] = -M
    assert np.allclose(comm, expected, atol=1e-12)


def test_number_operator_identity():
    M = 60
    create, annihilate, number = ladder_matrices(M)
    prod = create @ annihilate
    # sqrt(n)^2 reproduces n only to a couple of ulps in binary64
    assert np.allclose(prod, number, rtol=1e-14, atol=0.0)
    assert np.abs(prod - number)[np.diag_indices(M + 1)].max() <= 2e-14 * M


def test_coherent_shift_cancels_in_commutator():
    M = 30
    create, annihilate, _ = ladder_matrices(M)
    z = 0.73
    a = annihilate - z * np.eye(M + 1)
    a_dag = create - z * np.eye(M + 1)
    # cancellation is exact at the operator level; the matmul rounds the
    # z^2 cross terms into the diagonal, so a couple of ulps survive
    shifted = a @ a_dag - a_dag @ a
    bare = annihilate @ create - create @ annihilate
    assert np.abs(shifted - bare).max() <= 5e-14 * M


# ---------------------------------------------------------------------------
# displacement operator

def test_displacement_zero_is_identity():
    assert np.array_equal(displacement_matrix(0.0, 20), np.eye(21))


def test_displacement_vacuum_overlap():
    D = displacement_matrix(1.0, 100)
    assert abs(D[0, 0] - math.exp(-0.5)) < 1e-12


def test_displacement_column_zero_is_coherent_state():
    z, M = 0.5, 100
    D = displacement_matrix(z, M)
    n = np.arange(M + 1)
    log_amp = -0.5 * z * z + n * math.log(z) - 0.5 * np.cumsum(
        np.concatenate(([0.0], np.log(np.arange(1.0, M + 1))))
    )
    expected = np.exp(log_amp)
    assert np.abs(D[:, 0] - expected).max() < 1e-12


@pytest.mark.parametrize("z", [0.5, 1.0, 1.5])
def test_displacement_near_orthogonality(z):
    M = 100
    D = displacement_matrix(z, M)
    gram = D.T @ D - np.eye(M + 1)
    keep = (M + 1) - 4 * math.ceil(z * z)
    assert np.abs(gram[:keep, :keep]).max() <= 1e-10


def test_displacement_cutoff_guard():
    with pytest.raises(ValueError):
        displacement_matrix(6.0, 100)  # 36 > 100/4


# ---------------------------------------------------------------------------
# displaced number states on their support

def _full_length_states(z, M, count):
    """D(z)|n>, n < count, built on all M + 1 rows: the coherent state from
    its peak by running products, then ladder steps each corrected by
    inverse iteration, the same arithmetic as the support-built states."""
    n = np.arange(M + 1.0)
    root = np.sqrt(n[1:])
    column = np.zeros(M + 1)
    a = abs(z)
    n0 = int(a * a)
    column[n0] = 1.0 if z == 0.0 else math.exp(n0 * math.log(a) - 0.5 * a * a - 0.5 * math.lgamma(n0 + 1.0))
    if z != 0.0:
        column[n0 + 1:] = column[n0] * np.cumprod(a / root[n0:])
        column[:n0] = column[n0] * np.cumprod(root[:n0][::-1] / a)[::-1]
        column[1::2] *= np.sign(z)
    states = [column]
    for k in range(1, count):
        raised = -z * column
        raised[1:] += root * column[:-1]
        column = _inverse_iteration(n + z * z, -z * root, float(k), raised / math.sqrt(k))
        states.append(column)
    return states


@pytest.mark.parametrize("M, N", [(100, 0), (100, 10), (300, 1), (300, 100), (2500, 4), (2500, 100)])
@pytest.mark.parametrize("share", [0.0, 0.3, 1.0 - 1e-12])
def test_support_states_match_full_length_build(M, N, share):
    # z^2 from 0 up to M/4, the bound displaced_number_states accepts
    for z in {math.sqrt(share * M / 4.0), -math.sqrt(share * M / 4.0)}:
        rows = min(M + 1, support_rows(z, N))
        got = list(displaced_number_states(z, M, N + 1))
        assert len(got) == N + 1
        for column, reference in zip(got, _full_length_states(z, M, N + 1)):
            assert column.shape == (M + 1,) and not column[rows:].any()
            assert np.abs(column - reference).max() <= 1e-15


def test_support_rows_bound():
    assert support_rows(0.0, 0) == 36
    assert support_rows(-2.0, 9) == 121
    # above both guards of the reconstruction: N, and 4 z^2 where z^2 <= M/4
    for z, N in [(0.0, 100), (5.0, 1), (12.0, 100)]:
        assert support_rows(z, N) > max(N, 4.0 * z * z)


# ---------------------------------------------------------------------------
# squeeze parameters

def test_squeeze_params_known_values():
    sp = squeeze_params(0.3)
    assert abs(sp.Omega - 0.8) < 1e-15
    assert abs(sp.sigma - 1.0 / 3.0) < 1e-15
    sp = squeeze_params(0.4)
    assert abs(sp.Omega - 0.6) < 1e-15
    assert abs(sp.sigma - 0.5) < 1e-15
    sp = squeeze_params(0.0)
    assert sp.Omega == 1.0 and sp.sigma == 0.0


def test_squeeze_params_defining_quadratic():
    for lam in np.linspace(-0.49, 0.49, 99):
        sp = squeeze_params(float(lam))
        assert abs(sp.sigma) < 1.0
        assert abs(-sp.sigma + lam + lam * sp.sigma ** 2) <= 1e-14


def test_squeeze_params_domain():
    for bad in (0.5, -0.5, 0.7):
        with pytest.raises(ValueError):
            squeeze_params(bad)


# ---------------------------------------------------------------------------
# shifted-oscillator Hamiltonians

def test_displaced_hamiltonian_structure():
    H = displaced_osc_hamiltonian(0.0, 30)
    assert np.array_equal(H, np.diag(np.arange(31) + 0.5))
    H = displaced_osc_hamiltonian(0.7, 30)
    assert H[0, 1] == pytest.approx(0.7, abs=1e-15)
    assert np.array_equal(H, H.T)


def test_displaced_spectrum_is_shift_invariant():
    M = 100
    base = np.arange(10) + 0.5
    for lam in (0.0, 0.5, 1.0, 1.5):
        vals = sym_eig(displaced_osc_hamiltonian(lam, M)).values[:10]
        assert np.abs(vals - base).max() <= 1e-8


def test_squeezed_hamiltonian_structure():
    H = squeezed_osc_hamiltonian(0.0, 30)
    assert np.array_equal(H, np.diag(np.arange(31) + 0.5))
    H = squeezed_osc_hamiltonian(0.3, 30)
    assert H[0, 2] == pytest.approx(math.sqrt(2.0) * 0.3, abs=1e-15)
    assert H[1, 3] == pytest.approx(math.sqrt(6.0) * 0.3, abs=1e-15)
    assert np.array_equal(H, H.T)


def test_squeezed_spectrum_matches_closed_form():
    M = 200
    vals = sym_eig(squeezed_osc_hamiltonian(0.3, M)).values[:10]
    expected = (np.arange(10) + 0.5) * 0.8
    assert np.abs(vals - expected).max() <= 1e-6


def test_squeezed_gaps_uniform():
    M = 200
    for lam in (0.1, 0.25, 0.35):
        omega_eff = math.sqrt(1.0 - 4.0 * lam * lam)
        vals = sym_eig(squeezed_osc_hamiltonian(lam, M)).values[:8]
        gaps = np.diff(vals)
        assert np.abs(gaps - omega_eff).max() <= 1e-6


def test_squeezed_domain():
    with pytest.raises(ValueError):
        squeezed_osc_hamiltonian(0.5, 50)


@pytest.mark.parametrize("M", [0, 1, 7, 60])
@pytest.mark.parametrize("kind, lam", [("displaced", 1.0), ("squeezed", 0.3), ("squeezed", -0.45)])
def test_oscillator_sector_levels_match_full_diagonalization(kind, lam, M):
    levels = min(10, M + 1)
    dense = {"displaced": displaced_osc_hamiltonian, "squeezed": squeezed_osc_hamiltonian}[kind]
    reference = np.linalg.eigvalsh(dense(lam, M))[:levels]
    assert np.abs(oscillator_levels(kind, lam, M, levels) - reference).max() <= 1e-10


@pytest.mark.parametrize("kind, levels, message", [
    ("other", 1, "kind must be 'displaced' or 'squeezed', got 'other'"),
    ("squeezed", 0, "levels=0 out of range for cutoff 5"),
    ("displaced", 7, "levels=7 out of range for cutoff 5"),
], ids=["unknown-kind", "no-levels", "more-levels-than-states"])
def test_oscillator_levels_refuses_unknown_kind_and_levels_out_of_range(kind, levels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        oscillator_levels(kind, 0.3, 5, levels)
