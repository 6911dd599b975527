"""Tests for truncated boson operators and the shifted-oscillator models."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import rabijudd.bosons as bosons_module
from rabijudd.bosons import displaced_number_states, oscillator_levels, squeeze_params, support_rows
from rabijudd.reference import (
    displaced_osc_hamiltonian,
    displacement_matrix,
    ladder_matrices,
    squeezed_osc_hamiltonian,
    sym_eig,
)


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

@pytest.mark.parametrize("M, N", [(100, 0), (100, 10), (300, 1), (300, 100), (2500, 4), (2500, 100)])
@pytest.mark.parametrize("share", [0.0, 0.3, 1.0 - 1e-12])
def test_support_states_match_full_length_build(M, N, share, monkeypatch):
    # z^2 from 0 up to M/4, the bound displaced_number_states accepts; each
    # diagonal of the recurrence runs on its own, so the rows below K are
    # those of the same build on all M + 1 rows, bit for bit
    for z in {math.sqrt(share * M / 4.0), -math.sqrt(share * M / 4.0)}:
        rows = min(M + 1, support_rows(z, N))
        got = displaced_number_states(z, M, N + 1)
        with monkeypatch.context() as patch:
            patch.setattr(bosons_module, "support_rows", lambda z, n: M + 1)
            full = displaced_number_states(z, M, N + 1)
        assert got.shape == (rows, N + 1) and full.shape == (M + 1, N + 1)
        assert got.tobytes() == full[:rows].tobytes()
        assert np.abs(full[rows:]).max(initial=0.0) <= 1e-20


def _decimal_states(z, rows, cols):
    """<m|D(z)|n> for m < rows and n in cols from the explicit sum
    sqrt(m! n!) exp(-z^2/2) sum_k (-1)^(n-k) z^(m+n-2k) / (k! (m-k)! (n-k)!).
    With z = u / w the sum times w^(m+n) m! n! is an integer, formed exactly
    from k = min(m, n) down; only the prefactors are rounded, to 40 digits."""
    u, w = Fraction(z).as_integer_ratio()
    out = np.zeros((rows, len(cols)))
    with localcontext() as ctx:
        ctx.prec = 40
        gauss = (Decimal(-u * u) / Decimal(2 * w * w)).exp()
        for j, n in enumerate(cols):
            for m in range(rows):
                k = min(m, n)
                term = (-1) ** (n - k) * u ** (m + n - 2 * k) * w ** (2 * k) * math.comb(m, k) * math.comb(n, k)
                term *= math.factorial(k)
                total = term
                for k in range(k, 0, -1):
                    term = -term * u * u * k // (w * w * (m - k + 1) * (n - k + 1))
                    total += term
                root = Decimal(math.factorial(m) * math.factorial(n)).sqrt()
                out[m, j] = float(gauss * Decimal(total) / Decimal(w ** (m + n)) / root)
    return out


@pytest.mark.parametrize("z, M, count, cols, bound", [
    (0.0, 100, 65, None, 0.0),
    (-1.5, 100, 21, None, 1.5e-15),
    (5.0, 100, 11, None, 1e-15),                      # z^2 = M/4, M + 1 < R
    (-6.0, 144, 33, (0, 1, 2, 16, 31, 32), 2e-15),    # z^2 = M/4, M + 1 < R
    (3.25, 2500, 101, (0, 1, 50, 99, 100), 4e-15),
    (-12.5, 625, 65, (0, 1, 32, 63, 64), 2e-15),      # z^2 = M/4
])
def test_states_match_decimal_reference(z, M, count, cols, bound):
    # the reference shares no code and no recurrence with the builder; the
    # bounds are about twice the measured errors
    got = displaced_number_states(z, M, count)
    cols = list(range(count)) if cols is None else list(cols)
    assert np.abs(got[:, cols] - _decimal_states(z, got.shape[0], cols)).max() <= bound


@pytest.mark.parametrize("M, count", [(100, 1), (256, 24), (300, 24)])
def test_states_match_dense_displacement(M, count):
    # count stops where the truncated exponential's columns still hold
    # D(z)|n> at z^2 = M/4: only the first at M = 100
    identity = np.eye(M + 1)[:support_rows(0.0, count - 1), :count]
    assert np.array_equal(displaced_number_states(0.0, M, count), identity)
    for z in (math.sqrt((1.0 - 1e-12) * M / 4.0), -math.sqrt((1.0 - 1e-12) * M / 4.0)):
        got = displaced_number_states(z, M, count)
        dense = displacement_matrix(z, M)[:, :count]
        assert np.abs(got - dense[:got.shape[0]]).max() <= 2e-14
        assert np.abs(dense[got.shape[0]:]).max(initial=0.0) <= 1e-19


@pytest.mark.parametrize("M, N", [(600, 30), (1000, 64), (2500, 100)])
@pytest.mark.parametrize("share", [0.3, 1.0 - 1e-12])
def test_support_states_are_orthonormal(M, N, share):
    # every state fits below R <= M + 1 here, so S^T S = I on the K rows
    for z in (math.sqrt(share * M / 4.0), -math.sqrt(share * M / 4.0)):
        got = displaced_number_states(z, M, N + 1)
        assert got.shape[0] == support_rows(z, N) <= M + 1
        gram = got.T @ got
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 2e-14
        # each column inherits the scale of the coherent column, whose one
        # exponential of a sum near z^2 log z^2 rounds by up to 1e-13 here
        assert np.abs(np.diag(gram) - 1.0).max() <= 4e-13


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


@pytest.mark.parametrize("M", [0, 1, 2, 3, 50, 300])
@pytest.mark.parametrize("kind, lam", [("displaced", 1.7), ("displaced", -0.6), ("squeezed", 0.3), ("squeezed", -0.45)])
def test_dense_oscillators_equal_their_bands_summed(kind, lam, M):
    # the one-array fill gives the bytes of three np.diag matrices summed,
    # the empty and one-entry bands of the smallest cutoffs included
    band, build = {
        "displaced": (bosons_module.displaced_osc_band, displaced_osc_hamiltonian),
        "squeezed": (bosons_module.squeezed_osc_band, squeezed_osc_hamiltonian),
    }[kind]
    d, c, s = band(lam, M)
    reference = np.diag(d)
    if c.size:  # np.diag of an empty band at offset s is s x s, not empty
        reference = reference + np.diag(c, s) + np.diag(c, -s)
    H = build(lam, M)
    assert H.shape == reference.shape == (M + 1, M + 1)
    assert H.tobytes() == reference.tobytes()


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
