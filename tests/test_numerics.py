"""Tests for the polynomial, eigenvalue and elimination kernels."""

import hashlib
import math
import re

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyfromroots
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rabijudd.numerics as numerics
import rabijudd.juddian as juddian
from rabijudd.numerics import (
    FullRankError,
    RootCountError,
    null_vector,
    poly_eval,
    poly_real_roots,
    sym_eig,
    _gershgorin,
    _inverse_step,
    tridiag_eigvals_lowest,
)
from rabijudd.bosons import (
    displaced_number_states,
    displaced_osc_band,
    displaced_osc_hamiltonian,
    displacement_matrix,
    ladder_matrices,
    oscillator_levels,
    squeezed_osc_band,
    squeezed_osc_hamiltonian,
    squeeze_params,
)
from rabijudd.juddian import build_full_system, compatibility_polynomial, juddian_points
from rabijudd.rabi import ModelParams, _block_layout, build_rabi, parity_blocks


# ---------------------------------------------------------------------------
# polynomials as coefficient tuples

def test_poly_eval_known_values():
    assert poly_eval((-1.0, 0.0, 1.0), 2.0) == 3.0
    # resonance condition for the lowest baseline: 4x + (1/4 - 1) at x = 3/16
    wt = 0.5
    p = (wt * wt - 1.0, 4.0)
    assert poly_eval(p, 3.0 / 16.0) == 0.0
    assert poly_eval((4.25,), 123.0) == 4.25


def test_poly_eval_vectorized():
    p = (-1.0, 0.0, 1.0)
    xs = np.array([0.0, 1.0, 2.0, -3.0])
    assert np.array_equal(poly_eval(p, xs), xs * xs - 1.0)


# ---------------------------------------------------------------------------
# root isolation

def test_roots_of_quadratic():
    roots = poly_real_roots((-1.0, 0.0, 1.0), (-2.0, 2.0))
    assert len(roots) == 2
    assert abs(roots[0] + 1.0) < 1e-12
    assert abs(roots[1] - 1.0) < 1e-12


def test_roots_quadratic_formula_oracle():
    # 32x^2 - 29x + 45/16 has roots (29 +- sqrt(481))/64
    p = (45.0 / 16.0, -29.0, 32.0)
    roots = poly_real_roots(p, (0.0, 2.0))
    s = math.sqrt(481.0)
    expected = [(29.0 - s) / 64.0, (29.0 + s) / 64.0]
    assert len(roots) == 2
    for r, e in zip(roots, expected):
        assert abs(r - e) < 1e-12


def test_roots_linear():
    roots = poly_real_roots((-0.75, 4.0), (0.0, 1.0))
    assert roots == pytest.approx([3.0 / 16.0], abs=1e-15)


def test_root_residual_scaling_invariant():
    # roots planted at awkward spots; residual must meet the scaled bound
    planted = [-1.75, -0.3, 0.42, 2.9]
    p = tuple(polyfromroots(planted))
    roots = poly_real_roots(p, (-3.0, 3.0))
    assert len(roots) == len(planted)
    cmax = max(abs(c) for c in p)
    for r, e in zip(roots, planted):
        assert abs(r - e) < 1e-10
        assert abs(poly_eval(p, r)) <= 1e-10 * cmax * max(1.0, abs(r)) ** (len(p) - 1)


def test_root_count_error_carries_findings():
    p = (1.0, 0.0, 1.0)  # x^2 + 1, no real roots
    with pytest.raises(RootCountError) as exc:
        poly_real_roots(p, (-2.0, 2.0), expected_count=2)
    assert exc.value.expected == 2
    assert exc.value.found == []


def test_root_bracket_validation():
    p = (-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        poly_real_roots(p, (2.0, -2.0))
    with pytest.raises(ValueError):
        poly_real_roots(p, (1.0, 2.0))  # endpoint is a root
    with pytest.raises(ValueError):
        poly_real_roots((3.0,), (0.0, 1.0))


# ---------------------------------------------------------------------------
# symmetric eigensolver: matrices made of chains

def _random_symmetric(n, seed):
    rng = np.random.RandomState(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def _random_chains(n, seed, chains=3, zero=0.0, graded=False):
    # each index joins one of the ascending chains at random, or with
    # probability zero is an all-zero row; a chain has a normal diagonal and
    # normal couplings between its consecutive members. A graded chain, like
    # an oscillator's, multiplies its diagonal by magnitudes from 1e-8 to 1e8
    # (log-uniform, sorted ascending or descending along the chain) and each
    # coupling by the geometric mean of its two rows' magnitudes; the whole
    # is then scaled by 2**-27, exactly, so the largest entries sit near 1,
    # where _check_sums compares squared sums against a tolerance linear in
    # the norm (sym_eig itself scales exactly: see
    # test_sym_eig_scales_exactly_by_powers_of_two)
    rng = np.random.RandomState(seed)
    label = rng.randint(chains, size=n)
    label[rng.random_sample(n) < zero] = -1
    A = np.zeros((n, n))
    for c in range(chains):
        idx = np.flatnonzero(label == c)
        A[idx, idx] = rng.standard_normal(idx.size)
        e = rng.standard_normal(max(idx.size - 1, 0))
        if graded:
            size = np.sort(10.0 ** rng.uniform(-8.0, 8.0, idx.size))[:: rng.choice([1, -1])]
            A[idx, idx] *= size
            e *= np.sqrt(size[:-1] * size[1:])
        A[idx[:-1], idx[1:]] = e
        A[idx[1:], idx[:-1]] = e
    return np.ldexp(A, -27) if graded else A


def _check_eig(A, res, tol=1e-10):
    # ascending, and within tol * ||A||_F of LAPACK's eigenvalues
    norm = np.sqrt((A * A).sum()) or 1.0
    vals = res.values
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vals - np.linalg.eigvalsh(A)).max() <= tol * norm


def _check_sums(A, res):
    norm = np.sqrt((A * A).sum()) or 1.0
    assert abs(res.values.sum() - np.trace(A)) <= 1e-9 * norm
    assert abs((res.values ** 2).sum() - (A * A).sum()) <= 1e-9 * norm


def test_sym_eig_2x2():
    res = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(res.values, [1.0, 3.0], atol=1e-14)
    _check_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), res)


def test_sym_eig_diagonal_input():
    d = np.array([3.0, -1.0, 2.0, 0.0])
    res = sym_eig(np.diag(d))
    assert np.array_equal(res.values, np.sort(d))
    _check_eig(np.diag(d), res)


def test_sym_eig_random_50():
    A = _random_chains(50, seed=7)
    _check_eig(A, sym_eig(A))


def test_sym_eig_dim_250_once():
    A = _random_chains(250, seed=11)
    res = sym_eig(A)
    _check_eig(A, res)
    _check_sums(A, res)


def test_sym_eig_deterministic():
    A = _random_chains(23, seed=3)
    r1, r2 = sym_eig(A), sym_eig(A)
    assert np.array_equal(r1.values, r2.values)


def test_sym_eig_tridiagonal_path_consistent():
    # a tridiagonal matrix, its reversal (still tridiagonal in index order)
    # and a symmetric permutation of it share a spectrum; sym_eig takes the
    # first two and LAPACK the third
    n = 30
    rng = np.random.RandomState(5)
    T = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
    T = T + np.triu(T, 1).T
    perm = rng.permutation(n)
    P = np.eye(n)[perm]
    B = P @ T @ P.T
    vt = sym_eig(T).values
    vr = sym_eig(T[::-1, ::-1]).values
    norm = np.sqrt((T * T).sum())
    assert np.abs(vt - vr).max() <= 1e-10 * norm
    assert np.abs(vt - np.linalg.eigvalsh(B)).max() <= 1e-10 * norm
    _check_eig(T, sym_eig(T))


@pytest.mark.parametrize("d, e", [
    # couplings whose product underflows, between zero diagonals; the first
    # is the case hypothesis found through test_early_count_equals_full_count
    ([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0],
     [-1.0, -1.0, -1.0, 1.91430586e-293, 2.2250738585072014e-308]),
    ([2.0, 0.0, 0.0, 0.0], [1.0, 1e-200, 1e-200]),
])
def test_sym_eig_splits_at_underflowing_couplings(d, e):
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    _check_eig(T, sym_eig(T))


def _tridiagonal_from(d, e):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("k", [-560, 0, 600])
@pytest.mark.parametrize("seed, graded", [(1, False), (2, False), (3, True), (4, True), (5, False)])
def test_sym_eig_scales_exactly_by_powers_of_two(k, seed, graded):
    # each component is solved at the power of two that brings its largest
    # |entry| into [1/2, 1), so 2**k A gives 2**k times the values bit for bit
    A = _random_chains(12 + seed, seed, chains=2, graded=graded)
    assert np.array_equal(sym_eig(np.ldexp(A, k)).values, np.ldexp(sym_eig(A).values, k))


@pytest.mark.parametrize("T", [
    # an absolute split at sqrt(float_info.min) dropped these couplings: 20 % off
    1e-160 * _tridiagonal_from([1.0, 2.0, 3.0], [1.0, 1.0]),
    _tridiagonal_from([1.0, 2.0, 3.0], [1e200, 1e200]),
    _tridiagonal_from([1e300, 2e300, -3e300], [1.0, 1.0]),
    1e300 * _tridiagonal_from([1.0, -2.0, 3.0, 0.5], [1.0, 1.0, 0.25]),
    1e-300 * _tridiagonal_from([0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 1.0, 3.0]),
])
def test_sym_eig_far_from_unit_scale_matches_lapack(T):
    # unscaled, the squared couplings or the split test's products d[j] d[j+1]
    # of these would overflow or underflow
    ref = np.linalg.eigvalsh(T)
    assert np.abs(sym_eig(T).values - ref).max() <= 1e-13 * np.abs(ref).max()


def _threshold_chain(m, seed, coupling=2.0 ** -52, n=12):
    # a chain whose coupling m sits between two diagonal entries 1.0 and all
    # else below 1 in magnitude: sym_eig scales it by 1/2, the halves on
    # either side of m too, so coupling 2**-52 squares to 2**-106, exactly
    # _ql_implicit's split threshold eps**2 |0.5 * 0.5| (+ float_info.min,
    # lost in rounding) when it is first tested
    rng = np.random.RandomState(seed)
    d, e = rng.uniform(-0.9, 0.9, n), rng.uniform(0.1, 0.6, n - 1)
    d[m] = d[m + 1] = 1.0
    e[m] = coupling
    return _tridiagonal_from(d, e)


@pytest.mark.parametrize("m, seed", [(0, 1), (5, 2)], ids=["first", "middle"])
def test_sym_eig_splits_at_the_threshold_exactly(m, seed):
    # a coupling at the threshold splits the chain, so the values are those
    # of its two halves solved apart, bit for bit; one ulp above it the
    # chain is solved whole, and its values are not
    A = _threshold_chain(m, seed)
    halves = np.concatenate([sym_eig(A[: m + 1, : m + 1]).values, sym_eig(A[m + 1 :, m + 1 :]).values])
    assert np.array_equal(sym_eig(A).values, np.sort(halves, kind="stable"))
    above = _threshold_chain(m, seed, coupling=np.nextafter(2.0 ** -52, 1.0))
    assert not np.array_equal(sym_eig(above).values, np.sort(halves, kind="stable"))
    _check_eig(above, sym_eig(above))


@pytest.mark.parametrize("m, seed", [(0, 1), (5, 2)], ids=["first", "middle"])
def test_sym_eig_coupling_far_above_the_floor_matches_lapack(m, seed):
    # 2**-30 is small beside the chain but far above eps**2 B**2: no split
    A = _threshold_chain(m, seed, coupling=2.0 ** -30)
    _check_eig(A, sym_eig(A))


# SHA-256 of sym_eig(A).values.tobytes(), recorded by hand from the solver
# that scanned every row for a split; skipping the scan must not move them
_GOLDEN_SYM_EIG = {
    ("displaced", 0.2, 200): "af93a030bf4f3cd6ae0b1de1050f37dfcedd45d96be33650104a68fe4050b026",
    ("displaced", 2.0, 200): "4c6b2858116709b3cac3ae1010dc173e5bd4819544cade69f8a32e168e836793",
    ("squeezed", 0.05, 300): "819015ce359b2c883dde51c1646e9e8e98b3d9e3d683d5112f61d478a45a1b00",
    ("squeezed", 0.4, 300): "ba82aa74c3322d253b2f3173af057e790200f04fd179cb367230ca9e4f2fb80a",
    ("threshold", 0, 1): "84c3d587e80b7764eae14d240e8cc89c9fbce3642bf6b206ca733393d5837fd0",
    ("threshold", 5, 2): "7249c806eb180c4de736701ceb9289cca836088ef15bd801b4eb8ced851f7628",
}


@pytest.mark.parametrize("case", list(_GOLDEN_SYM_EIG), ids=lambda c: "-".join(map(str, c)))
def test_sym_eig_values_keep_their_golden_bytes(case):
    # the benchmark's oscillator inputs at both ends of their lambda ranges,
    # and the two threshold chains
    kind, a, b = case
    builders = {"displaced": displaced_osc_hamiltonian, "squeezed": squeezed_osc_hamiltonian}
    A = _threshold_chain(a, b) if kind == "threshold" else builders[kind](a, b)
    assert hashlib.sha256(sym_eig(A).values.tobytes()).hexdigest() == _GOLDEN_SYM_EIG[case]


def test_sym_eig_input_validation():
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eig(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # one connected component that is not tridiagonal in index order
    rng = np.random.RandomState(5)
    perm = rng.permutation(30)
    with pytest.raises(ValueError, match="component at index 0 is not tridiagonal in index order"):
        sym_eig(_tridiagonal(rng, 30)[np.ix_(perm, perm)])
    with pytest.raises(ValueError, match="component at index 0 is not tridiagonal in index order"):
        sym_eig(_random_symmetric(4, seed=13))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sym_eig_properties_random(n, seed):
    A = _random_chains(n, seed)
    res = sym_eig(A)
    _check_eig(A, res)
    _check_sums(A, res)


def _tridiagonal(rng, n):
    e = rng.standard_normal(n - 1)
    return np.diag(rng.standard_normal(n)) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("n_even, n_odd", [(31, 30), (40, 40), (2, 1)])
def test_interleaved_chains_equal_their_spectra_joined(n_even, n_odd):
    # the squeezed layout: one chain on the even indices, one on the odd, each
    # tridiagonal in index order; the values of the whole are bit for bit
    # those of the chains solved apart, merged
    rng = np.random.RandomState(n_even + n_odd)
    even, odd = _tridiagonal(rng, n_even), _tridiagonal(rng, n_odd)
    A = np.zeros((n_even + n_odd,) * 2)
    A[0::2, 0::2], A[1::2, 1::2] = even, odd
    joined = np.concatenate([sym_eig(even).values, sym_eig(odd).values])
    assert np.array_equal(sym_eig(A).values, np.sort(joined, kind="stable"))
    _check_eig(A, sym_eig(A))


def test_components_of_the_oscillator_and_rabi_matrices():
    # the squeezed oscillator falls apart by the parity of n, build_rabi into
    # its two parity chains (rows 0, 3, 4, 7, 8, ... and 1, 2, 5, 6, ...)
    M = 100
    assert numerics._components(squeezed_osc_hamiltonian(0.3, M)) == [
        list(range(0, M + 1, 2)), list(range(1, M + 1, 2))
    ]
    rows = np.arange(2 * (M + 1))
    plus = rows[(rows // 2 + rows % 2) % 2 == 0].tolist()
    minus = rows[(rows // 2 + rows % 2) % 2 == 1].tolist()
    assert numerics._components(build_rabi(ModelParams(g=0.4), M)) == [plus, minus]
    assert numerics._components(np.diag([1.0, 0.0, 2.0])) == [[0], [1], [2]]


def test_sym_eig_squeezed_matches_lapack():
    A = squeezed_osc_hamiltonian(0.3, 300)
    res = sym_eig(A)
    _check_eig(A, res)
    # the chains land on the closed form (n + 1/2) Omega, Omega = 0.8
    assert np.abs(res.values[:10] - (np.arange(10) + 0.5) * 0.8).max() <= 1e-14


@pytest.mark.parametrize("kind, lam, M", [
    # the ends of the benchmark's oscillator slots
    ("displaced", 0.2, 200), ("displaced", 2.0, 200), ("squeezed", 0.05, 300), ("squeezed", 0.4, 300),
])
def test_sym_eig_oscillators_match_closed_form_and_lapack(kind, lam, M):
    build = displaced_osc_hamiltonian if kind == "displaced" else squeezed_osc_hamiltonian
    A = build(lam, M)
    res = sym_eig(A)
    _check_eig(A, res)
    # the lowest levels land on the closed form (n + 1/2) Omega, Omega = 1 when displaced
    omega = squeeze_params(lam).Omega if kind == "squeezed" else 1.0
    assert np.abs(res.values[:10] - (np.arange(10) + 0.5) * omega).max() <= 1e-12


@pytest.mark.parametrize("g", [0.2, 0.9])
def test_sym_eig_rabi_matches_lapack(g):
    A = build_rabi(ModelParams(omega=1.0, omega0=1.3, g=g), 100)
    _check_eig(A, sym_eig(A))


def test_sym_eig_dense_component_beside_zero_rows():
    # two all-zero rows (1x1 components of value 0) beside one dense
    # component: the error names the dense component's first index
    B = _random_symmetric(4, seed=13)
    for keep, zero, first in (([0, 2, 3, 5], [1, 4], 0), ([1, 2, 3, 5], [0, 4], 1)):
        A = np.zeros((6, 6))
        A[np.ix_(keep, keep)] = B
        assert numerics._components(A) == sorted([keep] + [[i] for i in zero])
        with pytest.raises(ValueError, match=f"component at index {first} is not tridiagonal"):
            sym_eig(A)
        # the same rows as a chain
        A[np.ix_(keep, keep)] = np.diag(np.diag(B)) + np.diag(np.diag(B, 1), 1) + np.diag(np.diag(B, 1), -1)
        res = sym_eig(A)
        _check_eig(A, res)
        assert np.count_nonzero(res.values == 0.0) == 2


@st.composite
def _chain_matrices(draw, min_size=1):
    n = draw(st.integers(min_value=min_size, max_value=12))
    chains = draw(st.integers(min_value=1, max_value=4))
    zero = draw(st.sampled_from([0.0, 0.2, 0.5]))
    graded = draw(st.booleans())
    return _random_chains(n, draw(st.integers(min_value=0, max_value=2 ** 31 - 1)), chains, zero, graded)


@settings(max_examples=60, deadline=None)
@given(A=_chain_matrices())
def test_sym_eig_sparse_patterns(A):
    # random ascending chains interleaved, with all-zero rows among them
    res = sym_eig(A)
    _check_eig(A, res)
    _check_sums(A, res)
    components = numerics._components(A)
    assert sorted(i for c in components for i in c) == list(range(A.shape[0]))
    assert all(c == sorted(c) for c in components)


@settings(max_examples=60, deadline=None)
@given(A=_chain_matrices(), data=st.data())
def test_sym_eig_is_even_in_the_coupling_signs(A, data):
    # only e**2 enters the solve, as in the Sturm counts: flipping the sign
    # of any couplings (both triangles) leaves the values bit-identical
    rows, cols = np.nonzero(np.triu(A, 1))
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=rows.size, max_size=rows.size)), dtype=bool)
    B = A.copy()
    B[rows[flip], cols[flip]] *= -1.0
    B[cols[flip], rows[flip]] *= -1.0
    assert np.array_equal(sym_eig(B).values, sym_eig(A).values)


@st.composite
def _non_chain_matrices(draw):
    # chains on some indices, and on k >= 3 others either a dense block or a
    # tridiagonal walked in an order that is neither ascending nor descending;
    # returns the matrix and the first index of that component
    A = draw(_chain_matrices(min_size=3))
    n = A.shape[0]
    k = draw(st.integers(min_value=3, max_value=n))
    rows = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    A[rows, :] = 0.0
    A[:, rows] = 0.0
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    if draw(st.booleans()):
        A[np.ix_(rows, rows)] = _random_symmetric(k, seed)
    else:
        order = draw(st.permutations(rows))
        assume(order != rows and order != rows[::-1])
        A[np.ix_(order, order)] = _tridiagonal(np.random.RandomState(seed), k)
    return A, rows[0]


@settings(max_examples=60, deadline=None)
@given(case=_non_chain_matrices())
def test_sym_eig_rejects_components_that_are_not_chains(case):
    A, first = case
    with pytest.raises(ValueError, match=f"component at index {first} is not tridiagonal in index order"):
        sym_eig(A)


def test_sturm_route_agrees_with_ql_route():
    # two independent eigenvalue routes must agree on tridiagonal input
    rng = np.random.RandomState(19)
    d = rng.standard_normal(40)
    e = rng.standard_normal(39)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    full = sym_eig(T).values
    lowest = tridiag_eigvals_lowest(d, e, 12)
    assert np.abs(full[:12] - lowest).max() <= 1e-10 * max(1.0, np.abs(full).max())


# ---------------------------------------------------------------------------
# early-ending Sturm counts, against full-length references kept here

def _full_count(d, e2, x, tiny):
    """Negative LDL^T pivots of T - x, walked over every row."""
    q = d[0] - x
    count = 1 if q < 0.0 else 0
    for i in range(1, len(d)):
        if -tiny < q < tiny:
            q = -tiny if q < 0.0 else tiny
        q = d[i] - x - e2[i - 1] / q
        if q < 0.0:
            count += 1
    return count


def _full_lowest_batch(diags, e2_cols, k):
    """_sturm_lowest_batch with full-length recurrences, each diagonal bisected alone.

    diags has shape (P, n) and e2_cols shape (n-1, G); returns (P, G, k).
    Each diagonal has its own tiny, Gershgorin interval (on the row-wise
    maximum coupling), span and width test, so the result is what one call
    per diagonal gives.
    """
    e2_rows = np.asarray(e2_cols, dtype=float).T
    G = e2_rows.shape[0]
    out = []
    for d in np.atleast_2d(diags):
        tiny = numerics._EPS * (np.max(np.abs(d)) + math.sqrt(np.max(e2_rows, initial=0.0)) + 1.0)
        lo, hi = _gershgorin(d, np.sqrt(np.max(e2_rows, axis=0, initial=0.0)))
        span = max(hi - lo, 1.0)
        los = np.full((G, k), lo)
        his = np.full((G, k), hi)
        targets = np.arange(1, k + 1)[None, :]
        e2col = e2_rows[:, :, None]
        for _ in range(90):
            mids = 0.5 * (los + his)
            q = d[0] - mids
            count = (q < 0.0).astype(np.int64)
            for i in range(1, d.size):
                q = np.where(np.abs(q) < tiny, np.where(q < 0, -tiny, tiny), q)
                q = d[i] - mids - e2col[:, i - 1] / q
                count += q < 0.0
            below = count >= targets
            his = np.where(below, mids, his)
            los = np.where(below, los, mids)
            if np.max(his - los) <= 4.0 * numerics._EPS * span:
                break
        out.append(0.5 * (los + his))
    return np.array(out)


# Grid values make zero couplings, repeated diagonal entries and shifts that
# land exactly on a slack d_j - |e_{j-1}| - |e_j| common; the ramp makes the
# later rows dominant, so the stop fires inside the matrix.
_GRID = st.sampled_from([-1.0, 0.0, 0.1, 0.25, 0.5, 1.0, 2.0])


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ramp = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    noise = draw(st.lists(_GRID | st.floats(-3.0, 3.0), min_size=n, max_size=n))
    e = draw(st.lists(_GRID | st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
    return np.array([ramp * j + v for j, v in enumerate(noise)]), np.array(e)


def _stop_shifts(d, e):
    """Shifts on every boundary of the stop rule, plus the eigenvalues."""
    b = np.zeros(d.size + 1)
    b[1:d.size] = np.abs(e)
    slack = d - b[:-1] - b[1:]
    eig = sym_eig(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).values
    base = np.concatenate([d, slack, d - b[1:], d - b[:-1], eig, [0.0, d.max() + 1.0]])
    return np.concatenate([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)])


@settings(max_examples=300, deadline=None)
@given(_tridiagonals())
@example((np.array([-1.0, -1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1e-60])))
@example((np.array([0.0, 2.0, -1.0]), np.array([0.5, 0.0])))
def test_early_count_equals_full_count(matrix):
    d, e = matrix
    stop = numerics._sturm_stop(d, np.abs(e))
    dl, e2l = d.tolist(), (e * e).tolist()
    lo, hi = _gershgorin(d, e)
    for tiny in (numerics._EPS * max(abs(lo), abs(hi), 1.0), 1e-3):
        for x in _stop_shifts(d, e).tolist():
            assert numerics._sturm_count(dl, e2l, x, tiny, stop) == _full_count(dl, e2l, x, tiny)


@settings(max_examples=40, deadline=None)
@given(_tridiagonals(), st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.7]), min_size=1, max_size=4))
def test_early_batch_equals_full_batch(matrix, scales):
    d, e = matrix
    e2_cols = (e[:, None] * np.array(scales)[None, :]) ** 2
    k = min(3, d.size)
    got = numerics._sturm_lowest_batch(d[None, :], e2_cols, k)
    assert got.tobytes() == _full_lowest_batch(d[None, :], e2_cols, k).tobytes()


@pytest.mark.parametrize("d, e, scales, k", [
    ([0.0, 0.0, 0.5], [0.5, 0.0], [1.0, 0.0], 1),
    ([0.0, 0.5, 0.0, 1.0], [0.0, 0.0, 0.5], [1.0], 3),
    ([0.0, 1.0, 2.0], [0.0, 0.0], [1.7, 1.0, 0.0], 2),
    ([-0.5, 0.5, 0.1, 1.5, 0.5], [0.25, 0.0, 0.0, 0.0], [0.0], 3),
    ([0.0, 1e-10], [0.0], [1.0], 1),
])
def test_batch_levels_on_their_cap_match_the_full_walk(d, e, scales, k):
    # with zero couplings a level can sit exactly on its cap, the top
    # Gershgorin end of the leading block, and a dyadic midpoint can land on
    # it; the count there says "above", so the start bound may only skip
    # midpoints past the cap's margin, or the values move by an ulp or more.
    # In the last case the interval is narrower than the width floor: the
    # bound may skip only halvings that leave the bracket wider than width
    d, e = np.array(d), np.array(e)
    e2_cols = (e[:, None] * np.array(scales)[None, :]) ** 2
    got = numerics._sturm_lowest_batch(d[None, :], e2_cols, k)
    assert got.tobytes() == _full_lowest_batch(d[None, :], e2_cols, k).tobytes()


@st.composite
def _diagonal_pairs(draw):
    """Two diagonals of one length, squared couplings (n-1, G) they share, and k."""
    n = draw(st.integers(min_value=1, max_value=10))
    diags = []
    for _ in range(2):
        ramp = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        noise = draw(st.lists(_GRID | st.floats(-3.0, 3.0), min_size=n, max_size=n))
        diags.append([ramp * j + v for j, v in enumerate(noise)])
    e = np.array(draw(st.lists(_GRID | st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1)))
    scales = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.7]), min_size=1, max_size=4)))
    k = draw(st.integers(min_value=1, max_value=n))
    return np.array(diags), (e[:, None] * scales[None, :]) ** 2, k


@settings(max_examples=60, deadline=None)
@given(_diagonal_pairs())
# n = 1: no couplings at all
@example((np.array([[0.5], [-2.0]]), np.zeros((0, 3)), 1))
# zero couplings, k = n: the first diagonal's interval is [0, 0], so its one
# midpoint makes q_0 = 0 and the clamp fires; the second bisects on
@example((np.array([[0.0, 0.0], [-1.0, 1.0]]), np.zeros((1, 2)), 2))
# G = 1 and k = n
@example((np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0]]), np.array([[1.0], [1e-17]]), 3))
def test_diagonal_pairs_are_bit_identical_to_each_alone(case):
    diags, e2_cols, k = case
    got = numerics._sturm_lowest_batch(diags, e2_cols, k)
    assert got.shape == (2, e2_cols.shape[1], k)
    assert got.tobytes() == _full_lowest_batch(diags, e2_cols, k).tobytes()


def _bisection_steps(d, e):
    """About how many halvings of d's Gershgorin interval its width test takes."""
    lo, hi = _gershgorin(d, e)
    return math.log2((hi - lo) / (4.0 * numerics._EPS * max(hi - lo, 1.0)))


def test_each_diagonal_stops_at_its_own_width():
    # The first diagonal's Gershgorin interval is 1.2e-3 wide, so the 1.0 floor
    # on its span ends its bisection about 9 steps before the second's; a walk
    # that kept bisecting it until the second finished would move its values.
    diags = np.array([[0.0, 1e-3], [0.0, 100.0]])
    e2_cols = (1e-4 * np.linspace(0.5, 1.0, 5))[None, :] ** 2
    e_max = np.sqrt(e2_cols.max(axis=1))
    assert _bisection_steps(diags[1], e_max) - _bisection_steps(diags[0], e_max) > 5
    got = numerics._sturm_lowest_batch(diags, e2_cols, 2)
    assert got.tobytes() == _full_lowest_batch(diags, e2_cols, 2).tobytes()
    for p in range(2):
        assert got[p].tobytes() == numerics._sturm_lowest_batch(diags[p:p + 1], e2_cols, 2)[0].tobytes()


class _ReadRecorder(list):
    """A list that records the highest index read through it."""

    def __init__(self, items):
        super().__init__(items)
        self.highest = -1

    def __getitem__(self, i):
        self.highest = max(self.highest, i)
        return super().__getitem__(i)


def test_block_counts_stop_early_and_stay_exact(monkeypatch):
    # the four counts verify makes at each point of order 4, at M = 10^4
    M = 10_000
    count = numerics._sturm_count
    rows = []

    def recording(d, e2, x, tiny, stop):
        d = _ReadRecorder(d)
        c = count(d, e2, x, tiny, stop)
        rows.append(d.highest + 1)
        return c

    for point in juddian_points(4, ModelParams(omega=1.0, omega0=1.0)):
        params = point.model_params()
        counter = juddian._block_counter(*_block_layout(params, M), params.lam)
        delta = 1e-10
        rows.clear()
        monkeypatch.setattr(juddian, "_sturm_count", recording)
        early = counter(params.lam, point.E, delta)
        assert len(rows) == 4 and sum(rows) < 0.1 * (M + 1)
        monkeypatch.setattr(juddian, "_sturm_count", lambda d, e2, x, tiny, stop: _full_count(d, e2, x, tiny))
        assert counter(params.lam, point.E, delta) == early
        assert all(above - below == 1 for below, above in early)


def test_stop_scale():
    # the stop scale is max|d| + 2 max b, the size of a pivot's terms, which
    # sets the clamp tiny = eps scale and the stop margin, and stays positive
    # on the zero matrix
    assert numerics._sturm_stop(np.array([0.5, -1.0, 0.25]), np.array([2.0, 0.5])).scale == 5.0
    assert numerics._sturm_stop(np.zeros(2), np.zeros(1)).scale == np.finfo(float).tiny


def _full_block_counts(diags, root, lam_max, lam, E, delta):
    """The block counter's counts by full-length walks, with its tiny: eps
    times each diagonal's stop scale on the bound |lam_max| root."""
    off = lam * root
    e2 = (off * off).tolist()
    tinies = [numerics._EPS * numerics._sturm_stop(d, abs(lam_max) * root).scale for d in diags]
    return [(_full_count(d.tolist(), e2, E - delta, tiny), _full_count(d.tolist(), e2, E + delta, tiny))
            for d, tiny in zip(diags, tinies)]


@settings(max_examples=200, deadline=None)
@given(_tridiagonals(), st.data())
def test_block_counts_equal_full_counts_at_stop_boundaries(matrix, data):
    # either shift of the certificate lands on a stop boundary, an eigenvalue
    # or a diagonal entry; the mirrored diagonal is a second block on the
    # same couplings
    d, e = matrix
    diags, root = [d, -d], np.abs(e)
    x = data.draw(st.sampled_from(_stop_shifts(d, e).tolist()))
    delta = data.draw(st.sampled_from([0.0, 1e-12, 0.25, 3.0]))
    E = x + data.draw(st.sampled_from([delta, -delta]))
    lam = data.draw(st.sampled_from([1.0, -1.0]))
    counter = juddian._block_counter(diags, root, 1.0)
    assert counter(lam, E, delta) == _full_block_counts(diags, root, 1.0, lam, E, delta)


@settings(max_examples=200, deadline=None)
@given(_tridiagonals(), st.data())
def test_block_counter_equals_full_counts_below_its_bound(matrix, data):
    # one counter serves every coupling lam root with |lam| <= |lam_max|: its
    # stop data and tiny come from the bound, and each count still equals the
    # full-length count with that tiny
    d, e = matrix
    diags, root = [d, -d], np.abs(e)
    lam_max = data.draw(st.sampled_from([0.5, 1.0, 3.0, -2.0]))
    lam = data.draw(st.sampled_from([0.0, -lam_max, lam_max]) | st.floats(-abs(lam_max), abs(lam_max)))
    x = data.draw(st.sampled_from(_stop_shifts(d, lam * root).tolist() + _stop_shifts(d, lam_max * root).tolist()))
    delta = data.draw(st.sampled_from([0.0, 1e-12, 0.25, 3.0]))
    E = x + data.draw(st.sampled_from([delta, -delta]))
    counter = juddian._block_counter(diags, root, lam_max)
    assert counter(lam, E, delta) == _full_block_counts(diags, root, lam_max, lam, E, delta)


def test_block_counts_match_lapack_on_random_tridiagonals():
    # shifts more than 1e-9 ||T|| from every eigenvalue count exactly the
    # eigenvalues below them
    rng = np.random.RandomState(43)
    checked = 0
    for trial in range(300):
        n = rng.randint(1, 30)
        e = rng.standard_normal(n - 1) * rng.choice([0.0, 1e-9, 1.0])
        diags = [rng.standard_normal(n) * rng.choice([1e-3, 1.0, 30.0]) for _ in range(2)]
        E = float(rng.choice(diags[0])) + rng.choice([0.0, 1e-4, 0.3]) * rng.standard_normal()
        delta = float(rng.choice([1e-6, 1e-3, 0.3, 5.0]))
        # root |e| and lam = +/-1 give the couplings +/-|e|: the spectrum is even in their signs
        counter = juddian._block_counter(diags, np.abs(e), 1.0)
        counts = counter((1.0, -1.0)[trial % 2], E, delta)
        for d, (below, above) in zip(diags, counts):
            eig = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            margin = 1e-9 * max(1.0, np.abs(eig).max())
            if np.abs(eig - (E - delta)).min() > margin and np.abs(eig - (E + delta)).min() > margin:
                assert (below, above) == (np.sum(eig < E - delta), np.sum(eig < E + delta))
                checked += 1
    assert checked >= 500


@pytest.mark.parametrize("d, e, E, delta, want", [
    # the level at 1.0 sits 0.4 from E, inside the certificate
    ([0.0, 1.0, 5.0], [0.0, 0.0], 1.4, 0.5, (1, 2)),
    ([0.0, 1.0, 5.0], [0.0, 0.0], 0.6, 0.5, (1, 2)),
    # and outside a narrower one: the block holds no level
    ([0.0, 1.0, 5.0], [0.0, 0.0], 1.4, 0.3, (2, 2)),
    # two levels in one certificate, one on each side of E
    ([1.0, 1.2, 4.0], [1e-3, 0.0], 1.1, 0.5, (0, 2)),
    # two levels 1e-12 apart on one side of E
    ([1.0, 1.0 + 1e-12, 3.0], [0.0, 0.0], 1.0 + 1e-13, 1e-3, (0, 2)),
    # levels exactly at E - delta and E + delta: the interval is half open
    ([1.0, 3.0], [0.0], 2.0, 1.0, (0, 1)),
    # zero diagonals, levels 0 and -/+ sqrt 2: at shift 0 the first and last
    # pivots are exactly 0 and clamped
    ([0.0, 0.0, 0.0], [1.0, 1.0], 0.0, 1e-3, (1, 2)),
    ([0.0, 0.0, 0.0], [1.0, 1.0], 1e-300, 2.0, (0, 3)),
    # a block of one row, as a cutoff of 0 gives
    ([2.0], [], 2.0, 1e-3, (0, 1)),
], ids=["right", "left", "narrow", "two-straddling", "two-close", "half-open", "zero-pivot", "whole", "one-row"])
def test_block_counts_on_chosen_cases(d, e, E, delta, want):
    d, e = np.array(d), np.array(e, dtype=float)
    counter = juddian._block_counter([d], e, 1.0)
    for lam in (1.0, -1.0):
        assert counter(lam, E, delta) == [want] == _full_block_counts([d], e, 1.0, lam, E, delta)


@pytest.mark.parametrize("omega0, N, M", [(1.0, 8, 100), (2.6, 6, 300), (0.5, 12, 100)])
def test_block_counts_certify_one_level_per_block_at_each_point(omega0, N, M):
    # each parity block holds exactly one level within 1e-10 of a Juddian
    # point, the one LAPACK puts there
    for point in juddian_points(N, ModelParams(omega=1.0, omega0=omega0)):
        params = point.model_params()
        diags, root = _block_layout(params, M)
        off = params.lam * root
        counts = juddian._block_counter(diags, root, params.lam)(params.lam, point.E, 1e-10)
        for d, (below, above) in zip(diags, counts):
            eig = np.linalg.eigvalsh(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
            assert above == below + 1
            assert abs(eig[below] - point.E) <= 1e-10
            assert np.sum(eig < point.E - 1e-10) == below


# G = 201 on both parities; the long-grid G = 2001 case on one parity keeps
# the full-length reference affordable
@pytest.mark.parametrize("omega_tilde, M, k, parity, G", [
    pytest.param(omega_tilde, M, k, parity, 201, id=f"{parity}-{omega_tilde}-{M}-{k}")
    for parity in (1, -1)
    for omega_tilde, M, k in [(0.5, 100, 8), (2.0, 60, 16), (0.4, 300, 8)]
] + [pytest.param(0.5, 60, 8, 1, 2001, id="1-0.5-60-8-G2001")])
def test_sweep_batch_is_bit_identical_to_full_length(omega_tilde, M, k, parity, G):
    params = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    diag = _block_layout(params, M)[0][0 if parity == 1 else 1]
    lams = 2.0 * np.linspace(0.05, 0.8, G)
    e2_cols = (np.sqrt(np.arange(1.0, M + 1.0))[:, None] * lams[None, :]) ** 2
    got = numerics._sturm_lowest_batch(diag[None, :], e2_cols, k)
    assert got.tobytes() == _full_lowest_batch(diag[None, :], e2_cols, k).tobytes()


def _assert_lowest_is_full_walk(d, e, k):
    """tridiag_eigvals_lowest on (d, e) is the full-length walk's values, bit for bit."""
    got = tridiag_eigvals_lowest(d, e, k)
    assert got.tobytes() == _full_lowest_batch(d[None, :], (e * e)[:, None], k)[0, 0].tobytes()


@pytest.mark.parametrize("kind, lam, M", [
    ("displaced", 1.0, 200),
    ("squeezed", 0.3, 300),
    ("squeezed", -0.45, 300),
])
def test_oscillator_sectors_are_bit_identical_to_full_length(kind, lam, M):
    # one tridiagonal per chain, the oscillator subcommand's path: each chain's
    # scalar bisection against the lockstep walk with full-length counts
    d, c, stride = (displaced_osc_band if kind == "displaced" else squeezed_osc_band)(lam, M)
    for f in range(stride):
        _assert_lowest_is_full_walk(d[f::stride], c[f::stride], 10)


@settings(max_examples=60, deadline=None)
@given(_tridiagonals(), st.integers(min_value=1, max_value=12))
# n = 1: no couplings at all
@example((np.array([0.5]), np.array([])), 1)
# zero and negative couplings, k = n
@example((np.array([0.0, 1.0, 1.0, 4.0]), np.array([-1.0, 0.0, -0.5])), 4)
# an interval 1e-10 wide, under the 4 eps floor of the width: the start bound
# may halve hi only while the halved bracket stays wider than width, since
# the walk takes a step before its first width test
@example((np.array([0.0, 1e-10]), np.array([0.0])), 1)
def test_lowest_is_bit_identical_to_the_full_walk(matrix, k):
    d, e = matrix
    _assert_lowest_is_full_walk(d, e, min(k, d.size))


@pytest.mark.parametrize("seed", range(4))
def test_lowest_on_random_graded_chains_is_the_full_walk(seed):
    # oscillator-like chains: a diagonal growing with the row, couplings
    # growing like sqrt(row) with random signs and some set to zero
    rng = np.random.RandomState(seed)
    n = rng.randint(2, 60)
    d = np.arange(n) * rng.choice([0.5, 1.0, 2.0]) + rng.standard_normal(n)
    e = rng.uniform(0.1, 1.5) * np.sqrt(np.arange(1.0, n)) * rng.choice([-1.0, 0.0, 1.0, 1.0], n - 1)
    for k in (1, min(7, n), n):
        _assert_lowest_is_full_walk(d, e, k)


def test_steps_above_the_interlacing_caps_walk_no_rows(monkeypatch):
    # the displaced oscillator at cutoff 5000: the Gershgorin interval reaches
    # past 5000, so the first bisection steps of the lowest 5 levels fall above
    # the top of their leading blocks; 51 steps walk rows without the start
    # bound. Each count calls first_row once: per level in the scalar
    # bisection, per step in the walk at P = G = 1
    steps = []
    first_row = numerics._SturmStop.first_row
    monkeypatch.setattr(numerics._SturmStop, "first_row", lambda self, x, r: steps.append(1) or first_row(self, x, r))
    d, c, _ = displaced_osc_band(1.0, 5000)
    tridiag_eigvals_lowest(d, c, 5)
    assert len(steps) <= 42 * 5
    steps.clear()
    numerics._sturm_lowest_batch(d[None, :], (c * c)[:, None], 5)
    assert len(steps) <= 42


def _lanes_with_small_pivots(d, e2_rows):
    """For each row of e2_rows: does a pivot at the first midpoint fall within tiny of 0?"""
    tiny = numerics._EPS * (np.max(np.abs(d)) + math.sqrt(np.max(e2_rows)) + 1.0)
    lo, hi = _gershgorin(d, np.sqrt(np.max(e2_rows, axis=0)))
    x = 0.5 * (lo + hi)
    hits = []
    for e2 in e2_rows.tolist():
        q, hit = d[0] - x, False
        for i in range(1, d.size):
            if -tiny < q < tiny:
                hit, q = True, (-tiny if q < 0.0 else tiny)
            q = d[i] - x - e2[i - 1] / q
        hits.append(hit)
    return hits


@pytest.mark.parametrize("d, e2_rows, clamped", [
    # the first midpoint is 0, so q_0 = 0 in every lane
    ([0.0, 0.0], [[1.0]], [True]),
    # at midpoint 0, q_0 = 1 and q_1 = -e2_0: exactly 0 in the first row,
    # -1e-17 (inside tiny) in the third, -1 in the second, which is unclamped
    ([1.0, 0.0, 0.0], [[0.0, 0.0], [1.0, 1.0], [1e-17, 1e-17]], [True, False, True]),
])
def test_clamped_pivots_batch_equals_full_batch(d, e2_rows, clamped):
    d, e2_rows = np.array(d), np.array(e2_rows)
    assert _lanes_with_small_pivots(d, e2_rows) == clamped
    got = numerics._sturm_lowest_batch(d[None, :], e2_rows.T, d.size)
    assert got.tobytes() == _full_lowest_batch(d[None, :], e2_rows.T, d.size).tobytes()


@pytest.mark.parametrize("call, name", [
    (lambda v: tridiag_eigvals_lowest([1.0, 2.0, 3.0], [0.5, 0.5], v), "k"),
    (lambda v: list(displaced_number_states(0.5, 20, v)), "count"),
    (lambda v: list(displaced_number_states(0.5, v, 2)), "cutoff"),
    (lambda v: displaced_osc_band(0.5, v), "cutoff"),
    (lambda v: squeezed_osc_band(0.3, v), "cutoff"),
    (ladder_matrices, "cutoff"),
    (lambda v: displacement_matrix(0.5, v), "cutoff"),
    (lambda v: build_rabi(ModelParams(g=0.2), v), "cutoff"),
    (lambda v: parity_blocks(ModelParams(g=0.2), v), "cutoff"),
    (lambda v: build_full_system(v, 0.5, 0.1), "N"),
    (lambda v: compatibility_polynomial(v, 0.5), "N"),
    (lambda v: oscillator_levels("squeezed", 0.3, v, 2), "cutoff"),
    (lambda v: oscillator_levels("squeezed", 0.3, 20, v), "levels"),
], ids=["lowest-k", "states-count", "states-cutoff", "displaced-band-cutoff", "squeezed-band-cutoff",
        "ladder-cutoff", "displacement-cutoff", "rabi-cutoff", "parity-blocks-cutoff", "full-system-N",
        "compatibility-N", "oscillator-cutoff", "oscillator-levels"])
def test_counts_refuse_what_int_would_change(call, name):
    # int() would cut 2.5 to 2, parse "3" and take True for 1; an integral
    # float or a numpy integer stays accepted
    for value in (2.5, "3", True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    for value in (3.0, np.int64(3)):
        call(value)


@pytest.mark.parametrize("d, e", [
    ([1.0, np.nan], [0.5]),
    ([1.0, 2.0], [np.inf]),
    ([1.0, 2.0], [1e200]),  # e**2 overflows
])
def test_lowest_rejects_non_finite_input(d, e):
    with pytest.raises(ValueError, match="needs finite d and e"):
        tridiag_eigvals_lowest(np.array(d), np.array(e), 1)


@pytest.mark.parametrize("d, e", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], [0.5]),          # e too short
    ([1.0, 2.0], [0.5, 0.5]),                    # e too long
    ([[1.0, 2.0], [3.0, 4.0]], [0.5]),           # a 2-D d
])
def test_lowest_rejects_mismatched_shapes(d, e):
    d, e = np.array(d), np.array(e)
    with pytest.raises(ValueError, match=re.escape(f"got shapes {d.shape} and {e.shape}")):
        tridiag_eigvals_lowest(d, e, 1)


@pytest.mark.parametrize("d, e", [
    ([-1.7e308, 1.7e308], [1.0]),  # hi - lo overflows
    ([1e308], []),                  # lo + hi overflows
    ([0.0, 9e307], [1.0]),          # lo + hi overflows once the top level is bracketed
])
def test_lowest_rejects_gershgorin_interval_past_half_the_float_range(d, e):
    # the bisection took hi - lo as its span and 0.5 (lo + hi) as its midpoint,
    # and returned half-bisected values such as +/-8.5e307 for the first case
    # and inf for the last
    with pytest.raises(ValueError, match="reaches past half the float range"):
        tridiag_eigvals_lowest(np.array(d), np.array(e), len(d))


def test_lowest_keeps_large_entries_inside_half_the_float_range():
    got = tridiag_eigvals_lowest(np.array([-8e307, 8e307]), np.array([1.0]), 2)
    assert np.all(np.abs(got - [-8e307, 8e307]) <= 4.0 * numerics._EPS * 8e307)


def _inverse_iteration(d, e, shift, start):
    """One inverse-iteration step on the symmetric tridiagonal (d - shift, e), from arrays."""
    d = d - shift
    return _inverse_step(d.tolist(), e.tolist(), _gershgorin(d, e), start)


def test_inverse_iteration_recovers_eigenvector():
    rng = np.random.RandomState(29)
    d = rng.standard_normal(60)
    e = rng.standard_normal(59)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    values = sym_eig(T).values
    # LAPACK's vectors carry an arbitrary sign; the start inherits it
    vectors = np.linalg.eigh(T)[1]
    for k in (0, 17, 59):
        v = vectors[:, k]
        start = v + 1e-3 * rng.standard_normal(60)
        x = _inverse_iteration(d, e, float(values[k]), start)
        assert abs(float(x @ x) - 1.0) <= 1e-14
        assert np.abs(x - v).max() <= 1e-12


# ---------------------------------------------------------------------------
# null vectors

def test_null_vector_simple_cases():
    v = null_vector(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(v, [0.0, 1.0], atol=1e-15)
    w = null_vector(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(w, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-14)


def test_null_vector_rank_deficient_random():
    rng = np.random.RandomState(2)
    B = rng.standard_normal((6, 5))
    A = B @ B.T  # rank 5 at most
    v = null_vector(A)
    norm = np.sqrt((A * A).sum())
    assert abs(np.sqrt((v * v).sum()) - 1.0) < 1e-12
    assert np.sqrt(((A @ v) ** 2).sum()) <= 1e-8 * norm
    nz = v[np.abs(v) > 1e-12]
    assert nz[0] > 0


def test_null_vector_full_rank_raises():
    with pytest.raises(FullRankError):
        null_vector(np.eye(4))

