"""Tests for the polynomial and dense linear-algebra kernels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabijudd.numerics as numerics
from rabijudd.numerics import (
    FullRankError,
    NearDoubleRootWarning,
    Polynomial,
    RootCountError,
    determinant,
    null_vector,
    poly_eval,
    poly_real_roots,
    sym_eig,
    tridiag_det_poly,
    _gershgorin,
    tridiag_eigval_within,
    tridiag_eigvals_lowest,
    tridiag_inverse_iteration,
)
from rabijudd.juddian import juddian_points
from rabijudd.rabi import ModelParams, _block_arrays


# ---------------------------------------------------------------------------
# Polynomial arithmetic

def test_polynomial_trims_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1
    assert Polynomial((0.0, 0.0)).coeffs == (0.0,)


def test_polynomial_arithmetic_matches_pointwise():
    p = Polynomial((1.0, -3.0, 2.0))
    q = Polynomial((0.5, 4.0))
    xs = np.linspace(-2.0, 2.0, 7)
    for x in xs:
        assert math.isclose(poly_eval(p + q, x), poly_eval(p, x) + poly_eval(q, x),
                            rel_tol=1e-14, abs_tol=1e-14)
        assert math.isclose(poly_eval(p * q, x), poly_eval(p, x) * poly_eval(q, x),
                            rel_tol=1e-13, abs_tol=1e-13)
        assert math.isclose(poly_eval(p - q, x), poly_eval(p, x) - poly_eval(q, x),
                            rel_tol=1e-14, abs_tol=1e-14)


def test_polynomial_derivative():
    p = Polynomial((5.0, -1.0, 3.0))  # 5 - x + 3x^2
    assert p.deriv().coeffs == (-1.0, 6.0)
    assert Polynomial((7.0,)).deriv().coeffs == (0.0,)


def test_poly_eval_known_values():
    assert poly_eval(Polynomial((-1.0, 0.0, 1.0)), 2.0) == 3.0
    # resonance condition for the lowest baseline: 4x + (1/4 - 1) at x = 3/16
    wt = 0.5
    p = Polynomial((wt * wt - 1.0, 4.0))
    assert poly_eval(p, 3.0 / 16.0) == 0.0
    assert poly_eval(Polynomial((4.25,)), 123.0) == 4.25


def test_poly_eval_vectorized():
    p = Polynomial((-1.0, 0.0, 1.0))
    xs = np.array([0.0, 1.0, 2.0, -3.0])
    assert np.array_equal(poly_eval(p, xs), xs * xs - 1.0)


# ---------------------------------------------------------------------------
# root isolation

def test_roots_of_quadratic():
    roots = poly_real_roots(Polynomial((-1.0, 0.0, 1.0)), (-2.0, 2.0))
    assert len(roots) == 2
    assert abs(roots[0] + 1.0) < 1e-12
    assert abs(roots[1] - 1.0) < 1e-12


def test_roots_quadratic_formula_oracle():
    # 32x^2 - 29x + 45/16 has roots (29 +- sqrt(481))/64
    p = Polynomial((45.0 / 16.0, -29.0, 32.0))
    roots = poly_real_roots(p, (0.0, 2.0))
    s = math.sqrt(481.0)
    expected = [(29.0 - s) / 64.0, (29.0 + s) / 64.0]
    assert len(roots) == 2
    for r, e in zip(roots, expected):
        assert abs(r - e) < 1e-12


def test_roots_linear():
    roots = poly_real_roots(Polynomial((-0.75, 4.0)), (0.0, 1.0))
    assert roots == pytest.approx([3.0 / 16.0], abs=1e-15)


def test_root_residual_scaling_invariant():
    # roots planted at awkward spots; residual must meet the scaled bound
    planted = [-1.75, -0.3, 0.42, 2.9]
    p = Polynomial((1.0,))
    for r in planted:
        p = p * Polynomial((-r, 1.0))
    roots = poly_real_roots(p, (-3.0, 3.0))
    assert len(roots) == len(planted)
    cmax = max(abs(c) for c in p.coeffs)
    for r, e in zip(roots, planted):
        assert abs(r - e) < 1e-10
        assert abs(poly_eval(p, r)) <= 1e-10 * cmax * max(1.0, abs(r)) ** p.degree


def test_expected_count_triggers_grid_refinement():
    # two roots 4e-4 apart land in one cell of the default 1000-interval scan
    close = [0.4001, 0.4005, 0.9]
    p = Polynomial((1.0,))
    for r in close:
        p = p * Polynomial((-r, 1.0))
    coarse = poly_real_roots(p, (0.0, 1.0))
    assert len(coarse) < 3  # sanity: the default grid really does miss them
    fine = poly_real_roots(p, (0.0, 1.0), expected_count=3)
    assert len(fine) == 3
    for r, e in zip(fine, close):
        assert abs(r - e) < 1e-9


def test_root_count_error_carries_findings():
    p = Polynomial((1.0, 0.0, 1.0))  # x^2 + 1, no real roots
    with pytest.raises(RootCountError) as exc:
        poly_real_roots(p, (-2.0, 2.0), expected_count=2)
    assert exc.value.expected == 2
    assert exc.value.found == []


def test_near_double_root_detected():
    # (x-1)^2 (x+2): the squared factor never crosses zero
    p = Polynomial((-1.0, 1.0)) * Polynomial((-1.0, 1.0)) * Polynomial((2.0, 1.0))
    with pytest.warns(NearDoubleRootWarning):
        roots = poly_real_roots(p, (-3.0, 3.0))
    assert len(roots) == 2
    assert abs(roots[0] + 2.0) < 1e-10
    assert abs(roots[1] - 1.0) < 1e-6


def test_root_bracket_validation():
    p = Polynomial((-1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        poly_real_roots(p, (2.0, -2.0))
    with pytest.raises(ValueError):
        poly_real_roots(p, (1.0, 2.0))  # endpoint is a root
    with pytest.raises(ValueError):
        poly_real_roots(Polynomial((3.0,)), (0.0, 1.0))


# ---------------------------------------------------------------------------
# symmetric eigensolver

def _random_symmetric(n, seed):
    rng = np.random.RandomState(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def _check_eig(A, res, tol=1e-10):
    norm = np.sqrt((A * A).sum()) or 1.0
    vals, vecs = res.values, res.vectors
    assert np.all(np.diff(vals) >= 0)
    resid = A @ vecs - vecs * vals
    assert np.sqrt((resid * resid).sum(axis=0)).max() <= tol * norm
    gram = vecs.T @ vecs - np.eye(A.shape[0])
    assert np.abs(gram).max() <= tol


def test_sym_eig_2x2():
    res = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(res.values, [1.0, 3.0], atol=1e-14)
    _check_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), res)


def test_sym_eig_diagonal_input():
    d = np.array([3.0, -1.0, 2.0, 0.0])
    res = sym_eig(np.diag(d))
    assert np.array_equal(res.values, np.sort(d))
    # vectors are signed unit vectors permuting the basis
    assert np.allclose(np.abs(res.vectors).sum(axis=0), 1.0)
    _check_eig(np.diag(d), res)


def test_sym_eig_random_50():
    A = _random_symmetric(50, seed=7)
    _check_eig(A, sym_eig(A))


def test_sym_eig_dim_250_once():
    A = _random_symmetric(250, seed=11)
    res = sym_eig(A)
    _check_eig(A, res)
    norm = np.sqrt((A * A).sum())
    assert abs(res.values.sum() - np.trace(A)) <= 1e-9 * norm
    assert abs((res.values ** 2).sum() - (A * A).sum()) <= 1e-9 * norm


def test_sym_eig_deterministic_and_sign_fixed():
    A = _random_symmetric(23, seed=3)
    r1, r2 = sym_eig(A), sym_eig(A)
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)
    for k in range(A.shape[0]):
        col = r1.vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eig_tridiagonal_path_consistent():
    # a tridiagonal matrix and a symmetric permutation of it share a spectrum;
    # the permuted version exercises the dense reduction path
    n = 30
    rng = np.random.RandomState(5)
    T = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
    T = T + np.triu(T, 1).T
    perm = rng.permutation(n)
    P = np.eye(n)[perm]
    B = P @ T @ P.T
    vt = sym_eig(T).values
    vb = sym_eig(B).values
    norm = np.sqrt((T * T).sum())
    assert np.abs(vt - vb).max() <= 1e-10 * norm
    _check_eig(T, sym_eig(T))


def test_sym_eig_input_validation():
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eig(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sym_eig_properties_random(n, seed):
    A = _random_symmetric(n, seed)
    res = sym_eig(A)
    _check_eig(A, res)
    norm = np.sqrt((A * A).sum()) or 1.0
    assert abs(res.values.sum() - np.trace(A)) <= 1e-9 * norm
    assert abs((res.values ** 2).sum() - (A * A).sum()) <= 1e-9 * norm


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
    monkeypatch.setattr(numerics, "_sturm_eigval_index", lambda d, e2, i, lo, hi, stop: d[i])
    d = np.array([1.0, 3.0])
    assert tridiag_eigval_within(d, np.zeros(1), 2.0, 1.5) == (0, 1.0)


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


def _full_lowest_batch(d, e2_rows, k):
    """The lockstep bisection of _sturm_lowest_batch with full-length recurrences."""
    e2_rows = np.atleast_2d(e2_rows)
    G = e2_rows.shape[0]
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
    return 0.5 * (los + his)


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


@settings(max_examples=100, deadline=None)
@given(_tridiagonals(), st.sampled_from([0.0, 1e-300, 0.3, 1.0, 7.5]))
def test_scaled_count_equals_count_on_scaled_list(matrix, scale):
    # scale * e2_j / q is (scale * e2_j) / q, so it matches the list
    # [scale * c for c in e2] bit for bit, count and last pivot alike
    d, e = matrix
    dl, e2l = d.tolist(), (e * e).tolist()
    scaled = [scale * c for c in e2l]
    tiny = numerics._EPS * max(float(np.max(np.abs(d))), 1.0)
    for x in _stop_shifts(d, e).tolist():
        got = numerics._sturm_count(dl, e2l, x, tiny, scale=scale, pivot=True)
        assert got == numerics._sturm_count(dl, scaled, x, tiny, pivot=True)
        assert got[0] == _full_count(dl, scaled, x, tiny)


@settings(max_examples=40, deadline=None)
@given(_tridiagonals(), st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.7]), min_size=1, max_size=4))
def test_early_batch_equals_full_batch(matrix, scales):
    d, e = matrix
    e2_rows = (np.array(scales)[:, None] * e[None, :]) ** 2
    k = min(3, d.size)
    got = numerics._sturm_lowest_batch(d, e2_rows, k)
    assert got.tobytes() == _full_lowest_batch(d, e2_rows, k).tobytes()


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


@pytest.mark.parametrize("omega_tilde, M, k", [(0.5, 100, 8), (2.0, 60, 16), (0.4, 300, 8)])
@pytest.mark.parametrize("parity", [1, -1])
def test_sweep_batch_is_bit_identical_to_full_length(omega_tilde, M, k, parity):
    params = ModelParams(omega=1.0, omega0=2.0 * omega_tilde)
    diag, _ = _block_arrays(params, M, parity)
    lams = 2.0 * np.linspace(0.05, 0.8, 201)
    e2_rows = (lams[:, None] * np.sqrt(np.arange(1.0, M + 1.0))[None, :]) ** 2
    got = numerics._sturm_lowest_batch(diag, e2_rows, k)
    assert got.tobytes() == _full_lowest_batch(diag, e2_rows, k).tobytes()


def test_inverse_iteration_recovers_eigenvector():
    rng = np.random.RandomState(29)
    d = rng.standard_normal(60)
    e = rng.standard_normal(59)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = sym_eig(T)
    for k in (0, 17, 59):
        v = ref.vectors[:, k]
        start = v + 1e-3 * rng.standard_normal(60)
        x = tridiag_inverse_iteration(d, e, float(ref.values[k]), start)
        assert abs(float(x @ x) - 1.0) <= 1e-14
        assert np.abs(x - v).max() <= 1e-12


# ---------------------------------------------------------------------------
# null vectors and determinants

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


def test_determinant_triangular_and_permutation():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert determinant(A) == pytest.approx(6.0, rel=1e-14)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert determinant(P) == pytest.approx(-1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# tridiagonal determinant polynomial

def _dense_poly_det(M):
    """Cofactor expansion over the polynomial ring; fine for dim <= 6."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = Polynomial((0.0,))
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * _dense_poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _as_poly(c):
    return c if isinstance(c, Polynomial) else Polynomial((float(c),))


def test_tridiag_det_poly_small_cases():
    p = Polynomial((-0.75, 4.0))
    assert tridiag_det_poly([p], []).coeffs == p.coeffs

    q = Polynomial((1.0, 1.0))
    out = tridiag_det_poly([p, q], [Polynomial((4.0,))])
    expected = p * q - Polynomial((4.0,))
    assert np.allclose(out.coeffs, expected.coeffs, rtol=1e-14)


def test_tridiag_det_poly_matches_dense_expansion():
    rng = np.random.RandomState(13)
    for n in range(2, 7):
        diag = [Polynomial(tuple(rng.randint(-4, 5, size=2).astype(float)))
                for _ in range(n)]
        off = [float(rng.randint(1, 4)) for _ in range(n - 1)]
        M = [[_as_poly(0.0)] * n for _ in range(n)]
        for i in range(n):
            M[i][i] = diag[i]
        for i in range(n - 1):
            M[i][i + 1] = _as_poly(off[i])
            M[i + 1][i] = _as_poly(off[i])
        got = tridiag_det_poly(diag, [Polynomial((b * b,)) for b in off])
        want = _dense_poly_det(M)
        scale = max(abs(c) for c in want.coeffs) or 1.0
        got_c = np.zeros(max(len(got.coeffs), len(want.coeffs)))
        want_c = got_c.copy()
        got_c[: len(got.coeffs)] = got.coeffs
        want_c[: len(want.coeffs)] = want.coeffs
        assert np.abs(got_c - want_c).max() <= 1e-12 * scale


def test_tridiag_det_poly_validation():
    p = Polynomial((1.0,))
    with pytest.raises(ValueError):
        tridiag_det_poly([], [])
    with pytest.raises(ValueError):
        tridiag_det_poly([p, p], [])
    with pytest.raises(ValueError):
        tridiag_det_poly([p, p], [p, p])
