"""Tests for the polynomial, eigenvalue and elimination kernels."""

import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyfromroots
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rabijudd.numerics as numerics
from rabijudd.numerics import (
    FullRankError,
    NearDoubleRootWarning,
    RootCountError,
    null_vector,
    poly_eval,
    poly_real_roots,
    sym_eig,
    _gershgorin,
    _inverse_step,
    tridiag_eigval_near,
    tridiag_eigval_within,
    tridiag_eigvals_lowest,
)
from rabijudd.bosons import displaced_osc_band, squeezed_osc_band, squeezed_osc_hamiltonian
from rabijudd.juddian import juddian_points, verify_point
from rabijudd.rabi import ModelParams, _block_arrays, build_rabi


# ---------------------------------------------------------------------------
# polynomials as coefficient tuples

def test_polynomial_derivative():
    assert numerics._deriv((5.0, -1.0, 3.0)) == (-1.0, 6.0)  # 5 - x + 3x^2
    assert numerics._deriv((7.0,)) == (0.0,)


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


def test_expected_count_triggers_grid_refinement():
    # two roots 4e-4 apart land in one cell of the default 1000-interval scan
    close = [0.4001, 0.4005, 0.9]
    p = tuple(polyfromroots(close))
    coarse = poly_real_roots(p, (0.0, 1.0))
    assert len(coarse) < 3  # sanity: the default grid really does miss them
    fine = poly_real_roots(p, (0.0, 1.0), expected_count=3)
    assert len(fine) == 3
    for r, e in zip(fine, close):
        assert abs(r - e) < 1e-9


def test_root_count_error_carries_findings():
    p = (1.0, 0.0, 1.0)  # x^2 + 1, no real roots
    with pytest.raises(RootCountError) as exc:
        poly_real_roots(p, (-2.0, 2.0), expected_count=2)
    assert exc.value.expected == 2
    assert exc.value.found == []


def test_near_double_root_detected():
    # (x-1)^2 (x+2): the squared factor never crosses zero
    p = tuple(polyfromroots([1.0, 1.0, -2.0]))
    with pytest.warns(NearDoubleRootWarning):
        roots = poly_real_roots(p, (-3.0, 3.0))
    assert len(roots) == 2
    assert abs(roots[0] + 2.0) < 1e-10
    assert abs(roots[1] - 1.0) < 1e-6


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


def _random_chains(n, seed, chains=3, zero=0.0):
    # each index joins one of the ascending chains at random, or with
    # probability zero is an all-zero row; a chain has a normal diagonal and
    # normal couplings between its consecutive members
    rng = np.random.RandomState(seed)
    label = rng.randint(chains, size=n)
    label[rng.random_sample(n) < zero] = -1
    A = np.zeros((n, n))
    for c in range(chains):
        idx = np.flatnonzero(label == c)
        A[idx, idx] = rng.standard_normal(idx.size)
        e = rng.standard_normal(max(idx.size - 1, 0))
        A[idx[:-1], idx[1:]] = e
        A[idx[1:], idx[:-1]] = e
    return A


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
    return _random_chains(n, draw(st.integers(min_value=0, max_value=2 ** 31 - 1)), chains, zero)


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


def test_sturm_nearest_matches_ql_argmin():
    rng = np.random.RandomState(23)
    d = rng.standard_normal(40)
    e = rng.standard_normal(39)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    full = sym_eig(T).values
    mids = 0.5 * (full[:-1] + full[1:])
    shifts = [full[0] - 3.0, full[-1] + 3.0, *full[::7], *(mids[::5] + 1e-3)]
    lo, hi = _gershgorin(d, e)
    radius = hi - lo + 3.0  # every eigenvalue is within reach of every shift
    for x in shifts:
        idx, value = tridiag_eigval_within(d, e, x, radius)
        assert idx == int(np.argmin(np.abs(full - x)))
        assert abs(value - full[idx]) <= 1e-10 * max(1.0, np.abs(full).max())


def test_sturm_within_window():
    d = np.array([1.0, 3.0, 10.0])
    e = np.zeros(2)
    assert tridiag_eigval_within(d, e, 6.0, 2.0) is None
    assert tridiag_eigval_within(d, e, 5.5, 3.0) == (1, pytest.approx(3.0, abs=1e-14))
    assert tridiag_eigval_within(d, e, 2.2, 1.5) == (1, pytest.approx(3.0, abs=1e-14))
    assert tridiag_eigval_within(d, e, 1.5, 0.6) == (0, pytest.approx(1.0, abs=1e-14))
    assert tridiag_eigval_within(d, e, 1.5, 0.4) is None


def test_sturm_within_takes_lower_index_on_tie(monkeypatch):
    # bisection lands just above each eigenvalue, so force an exact tie
    monkeypatch.setattr(numerics, "_sturm_level",
                        lambda d, e2, stop, i, lo, hi, guess, width: d[i])
    d = np.array([1.0, 3.0])
    assert tridiag_eigval_within(d, np.zeros(1), 2.0, 1.5) == (0, 1.0)


def _within_counting_every_midpoint(d, e, x, radius):
    """tridiag_eigval_within without a confirmed bracket: each level is
    bisected from its half window with a count at every midpoint."""
    lo, hi = _gershgorin(d, e)
    tiny = numerics._EPS * max(abs(lo), abs(hi), 1.0)
    stop = numerics._sturm_stop(d, np.abs(e))
    dl, e2l = d.tolist(), (e * e).tolist()
    left, right = x - radius, x + radius
    c_left, c, c_right = (numerics._sturm_count(dl, e2l, s, tiny, stop) for s in (left, x, right))

    def bisect(index, lo, hi):
        scale = max(abs(lo), abs(hi), 1.0)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if numerics._sturm_count(dl, e2l, mid, numerics._EPS * scale, stop) > index:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 4.0 * numerics._EPS * scale:
                break
        return 0.5 * (lo + hi)

    best = None
    if c > c_left:
        best = (c - 1, bisect(c - 1, left, x))
    if c_right > c:
        value = bisect(c, x, right)
        if best is None or abs(value - x) < abs(best[1] - x):
            best = (c, value)
    return best


def _assert_within_is_bit_identical(d, e, x, radius):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    got = tridiag_eigval_within(d, e, x, radius)
    want = _within_counting_every_midpoint(d, e, x, radius)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0] and np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    return got


def test_within_is_bit_identical_on_random_tridiagonals():
    rng = np.random.RandomState(41)
    for _ in range(300):
        n = rng.randint(1, 30)
        d = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 30.0])
        e = rng.standard_normal(n - 1) * rng.choice([0.0, 1e-9, 1.0])
        x = float(rng.choice(d)) + rng.choice([0.0, 1e-15, 1e-9, 1e-4]) * rng.standard_normal()
        _assert_within_is_bit_identical(d, e, x, float(rng.choice([1e-3, 0.3, 5.0])))


@pytest.mark.parametrize("d, e, x, radius", [
    # the level sits 0.4 from x: every confirming count rejects until the
    # bracket is the whole half window
    ([0.0, 1.0, 5.0], [0.0, 0.0], 1.4, 0.5),
    ([0.0, 1.0, 5.0], [0.0, 0.0], 0.6, 0.5),
    # two levels in one window, one on each side of x
    ([1.0, 1.2, 4.0], [1e-3, 0.0], 1.1, 0.5),
    # two levels 1e-12 apart on one side of x, inside the first bracket
    ([1.0, 1.0 + 1e-12, 3.0], [0.0, 0.0], 1.0 + 1e-13, 1e-3),
    # an exact tie: the lower index wins
    ([1.0, 3.0], [0.0], 2.0, 1.5),
    # zero diagonals, levels 0 and -/+ sqrt 2: at shift 0 the first and
    # last pivots are exactly 0 and clamped
    ([0.0, 0.0, 0.0], [1.0, 1.0], 0.0, 1e-3),
    ([0.0, 0.0, 0.0], [1.0, 1.0], 1e-300, 2.0),
])
def test_within_is_bit_identical_on_chosen_cases(d, e, x, radius):
    assert _assert_within_is_bit_identical(d, e, x, radius) is not None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_within_is_bit_identical_at_stop_boundaries(data):
    # the grid-valued matrices of the early-stop tests, shifted onto their
    # eigenvalues, slacks and diagonals, where pivots vanish and clamp
    d, e = data.draw(_tridiagonals())
    x = data.draw(st.sampled_from(_stop_shifts(d, e).tolist()))
    _assert_within_is_bit_identical(d, e, x, data.draw(st.sampled_from([1e-3, 0.25, 4.0])))


def test_within_is_bit_identical_on_verify_blocks():
    for omega0, N, M in [(1.0, 8, 100), (2.6, 6, 300), (0.5, 12, 100)]:
        for point in juddian_points(N, ModelParams(omega=1.0, omega0=omega0)):
            for parity in (1, -1):
                diag, off = _block_arrays(point.model_params(), M, parity)
                _assert_within_is_bit_identical(diag, off, point.E, 1e-3)


def test_verify_point_count_budget(monkeypatch):
    # a level next to E is bisected inside a bracket one count confirms, from
    # 16 eps wide: 84 to 86 counts per point when every midpoint of the half
    # window counted, 22 to 24 when the bracket started 256 eps wide
    count = numerics._sturm_count
    calls = []
    monkeypatch.setattr(numerics, "_sturm_count", lambda *a: calls.append(1) or count(*a))
    for point in juddian_points(4, ModelParams(omega=1.0, omega0=1.0)):
        calls.clear()
        verify_point(point, cutoff=100)
        assert len(calls) <= 18


def _near_counting_every_midpoint(d, e, index):
    """tridiag_eigval_near without a confirmed bracket: the level is bisected
    from the Gershgorin interval with a count at every midpoint."""
    lo, hi = _gershgorin(d, e)
    scale = max(abs(lo), abs(hi), 1.0)
    stop = numerics._sturm_stop(d, np.abs(e))
    dl, e2l = d.tolist(), (e * e).tolist()
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if numerics._sturm_count(dl, e2l, mid, numerics._EPS * scale, stop) > index:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * numerics._EPS * scale:
            break
    return 0.5 * (lo + hi)


@st.composite
def _near_cases(draw):
    """A tridiagonal, an index and a guess and width of every kind: at the
    level, at another level, between levels, outside the interval, NaN, inf."""
    d, e = draw(_tridiagonals())
    index = draw(st.integers(min_value=0, max_value=d.size - 1))
    eig = sym_eig(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).values
    lo, hi = _gershgorin(d, e)
    offset = draw(st.sampled_from([0.0, 3e-16, -1e-13, 1e-9, 0.3]))
    guess = draw(
        st.sampled_from([v + offset for v in eig.tolist()])
        | st.floats(lo - 1.0, hi + 1.0)
        | st.sampled_from([lo, hi, 1e6, -1e6, math.nan, math.inf, -math.inf])
    )
    width = draw(st.sampled_from([0.0, -1.0, 1e-300, 1e-12, 1e-3, 1.0, 1e6, math.inf, math.nan]))
    return d, e, index, guess, width


@settings(max_examples=300, deadline=None)
@given(_near_cases())
def test_near_is_the_canonical_bisection(case):
    # guess and width set the cost only: the value is that of bisecting the
    # whole Gershgorin interval with a count at every midpoint
    d, e, index, guess, width = case
    got = tridiag_eigval_near(d, e, index, guess, width)
    assert np.float64(got).tobytes() == np.float64(_near_counting_every_midpoint(d, e, index)).tobytes()


@pytest.mark.parametrize("index", [5, 3, -1])
def test_near_rejects_index_out_of_range(index):
    # the bisection returned an end of the Gershgorin interval, 3.1 for
    # index 5 and 0.9 for -1
    with pytest.raises(ValueError, match=f"index={index} out of range for dimension 3"):
        tridiag_eigval_near(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.1]), index, 2.0, 1e-3)


@pytest.mark.parametrize("call, d, match", [
    # near returned -/+inf and within (1, inf)
    (lambda d: tridiag_eigval_near(d, [1.0], 0, 0.0, 1e-3), [-1.7e308, 1.7e308], "reaches past half the float range"),
    (lambda d: tridiag_eigval_within(d, [1.0], 0.0, 1.0), [-1.7e308, 1.7e308], "reaches past half the float range"),
    # near returned nan and within raised ZeroDivisionError
    (lambda d: tridiag_eigval_near(d, [1.0], 0, 0.0, 1e-3), [1.0, np.nan], "tridiag_eigval_near needs finite d and e"),
    (lambda d: tridiag_eigval_within(d, [1.0], 1.0, 1.0), [1.0, np.nan], "tridiag_eigval_within needs finite d and e"),
    (lambda d: tridiag_eigval_within(d, [np.inf], 1.0, 1.0), [1.0, 2.0], "tridiag_eigval_within needs finite d and e"),
    # within returned (0, nan) for a NaN radius and (1, -inf) for an infinite one
    (lambda d: tridiag_eigval_within(d, [0.5], 1.0, math.nan), [1.0, 2.0], "needs a finite x and a finite radius >= 0"),
    (lambda d: tridiag_eigval_within(d, [0.5], 1.0, math.inf), [1.0, 2.0], "needs a finite x and a finite radius >= 0"),
    (lambda d: tridiag_eigval_within(d, [0.5], 1.0, -0.5), [1.0, 2.0], "needs a finite x and a finite radius >= 0"),
    (lambda d: tridiag_eigval_within(d, [0.5], math.nan, 1.0), [1.0, 2.0], "needs a finite x and a finite radius >= 0"),
    (lambda d: tridiag_eigval_within(d, [0.5], -math.inf, 1.0), [1.0, 2.0], "needs a finite x and a finite radius >= 0"),
], ids=["near-span", "within-span", "near-nan-d", "within-nan-d", "within-inf-e",
        "within-nan-radius", "within-inf-radius", "within-negative-radius", "within-nan-x", "within-inf-x"])
def test_near_and_within_check_input_like_lowest(call, d, match):
    with pytest.raises(ValueError, match=match):
        call(np.array(d))


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


def test_within_counts_stop_early_and_stay_exact(monkeypatch):
    M = 10_000
    count = numerics._sturm_count
    rows = []

    def recording(d, e2, x, tiny, stop=None):
        d = _ReadRecorder(d)
        c = count(d, e2, x, tiny, stop)
        rows.append(d.highest + 1)
        return c

    for point in juddian_points(4, ModelParams(omega=1.0, omega0=1.0)):
        for parity in (1, -1):
            diag, off = _block_arrays(point.model_params(), M, parity)
            rows.clear()
            monkeypatch.setattr(numerics, "_sturm_count", recording)
            early = tridiag_eigval_within(diag, off, point.E, 1e-3)
            assert early is not None and sum(rows) < 5 * (M + 1)
            monkeypatch.setattr(numerics, "_sturm_count", lambda d, e2, x, tiny, stop: _full_count(d, e2, x, tiny))
            assert tridiag_eigval_within(diag, off, point.E, 1e-3) == early


# G = 201 on both parities; the long-grid G = 2001 case on one parity keeps
# the full-length reference affordable
@pytest.mark.parametrize("omega_tilde, M, k, parity, G", [
    pytest.param(omega_tilde, M, k, parity, 201, id=f"{parity}-{omega_tilde}-{M}-{k}")
    for parity in (1, -1)
    for omega_tilde, M, k in [(0.5, 100, 8), (2.0, 60, 16), (0.4, 300, 8)]
] + [pytest.param(0.5, 60, 8, 1, 2001, id="1-0.5-60-8-G2001")])
def test_sweep_batch_is_bit_identical_to_full_length(omega_tilde, M, k, parity, G):
    params = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    diag, _ = _block_arrays(params, M, parity)
    lams = 2.0 * np.linspace(0.05, 0.8, G)
    e2_cols = (np.sqrt(np.arange(1.0, M + 1.0))[:, None] * lams[None, :]) ** 2
    got = numerics._sturm_lowest_batch(diag[None, :], e2_cols, k)
    assert got.tobytes() == _full_lowest_batch(diag[None, :], e2_cols, k).tobytes()


@pytest.mark.parametrize("band, lam, M", [
    (displaced_osc_band, 1.0, 200),
    (squeezed_osc_band, 0.3, 300),
    (squeezed_osc_band, -0.45, 300),
])
def test_oscillator_sectors_are_bit_identical_to_full_length(band, lam, M):
    # G = 1: one tridiagonal per call, the oscillator subcommand's path
    d, c, stride = band(lam, M)
    for f in range(stride):
        ds, cs = d[f::stride], c[f::stride]
        got = tridiag_eigvals_lowest(ds, cs, 10)
        assert got.tobytes() == _full_lowest_batch(ds[None, :], (cs * cs)[:, None], 10)[0, 0].tobytes()


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


@pytest.mark.parametrize("d, e", [
    ([1.0, np.nan], [0.5]),
    ([1.0, 2.0], [np.inf]),
    ([1.0, 2.0], [1e200]),  # e**2 overflows
])
def test_lowest_rejects_non_finite_input(d, e):
    with pytest.raises(ValueError, match="needs finite d and e"):
        tridiag_eigvals_lowest(np.array(d), np.array(e), 1)


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
    """One inverse-iteration step on the symmetric tridiagonal (d, e), from arrays."""
    return _inverse_step(d.tolist(), e.tolist(), _gershgorin(d, e), shift, start)


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

