"""Self-contained numerical kernel.

Package paths run on Sturm bisection for selected eigenvalues of symmetric
tridiagonal matrices and inverse iteration for their eigen- and null
vectors. Kept as references for tests and benchmark probes: sym_eig
(Householder + implicit-shift QL), polynomials with real-root isolation,
tridiagonal determinant polynomials, and Gaussian elimination for null
vectors and determinants. ndarrays serve storage and elementwise/matmul
arithmetic only; there are no calls into numpy.linalg or any external solver.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_EPS = np.finfo(float).eps


class NonConvergenceError(RuntimeError):
    """QL iteration exceeded the sweep cap for one eigenvalue."""

    def __init__(self, index: int):
        super().__init__(f"eigenvalue {index} failed to converge within 30 QL sweeps")
        self.index = index


class FullRankError(RuntimeError):
    """A system taken to be singular is numerically full-rank."""


class RootCountError(RuntimeError):
    """A root search that cannot account for the expected number of roots.

    poly_real_roots raises it when fewer roots than expected survive grid
    refinement and bracket doubling; the certified compatibility-root finder
    raises it when a Sturm pivot count fails one of its checks, with the
    failed check appended to the message.
    """

    def __init__(self, found: list[float], expected: int, reason: str = ""):
        super().__init__(f"found {len(found)} roots where {expected} were expected{reason}")
        self.found = found
        self.expected = expected


class NearDoubleRootWarning(UserWarning):
    """A sign-preserving minimum of |p| hit the near-zero threshold."""


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Dense real polynomial; coeffs[k] multiplies x**k.

    Trailing zero coefficients are stripped on construction, so degree is
    always len(coeffs) - 1 and the top coefficient of a nonzero polynomial
    is nonzero.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        if not c:
            c = (0.0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, v in enumerate(b):
            summed[k] += v
        return Polynomial(tuple(summed))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-v for v in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0.0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        return Polynomial(tuple(float(other) * v for v in self.coeffs))

    __rmul__ = __mul__

    def deriv(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * v for k, v in enumerate(self.coeffs) if k > 0))


def poly_eval(p: Polynomial, x):
    """Horner evaluation; x may be a scalar or an ndarray."""
    acc = 0.0 * x if isinstance(x, np.ndarray) else 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _root_scale(p: Polynomial, x: float) -> float:
    # residual scale for a candidate root: max-coefficient * max(1,|x|)^degree
    return max(abs(c) for c in p.coeffs) * max(1.0, abs(x)) ** p.degree


def _bisect_root(p: Polynomial, a: float, b: float) -> tuple[float, float]:
    fa = poly_eval(p, a)
    for _ in range(200):
        if b - a <= 1e-12:
            break
        m = 0.5 * (a + b)
        fm = poly_eval(p, m)
        if fm == 0.0:
            return m, m
        if (fa < 0) == (fm < 0):
            a, fa = m, fm
        else:
            b = m
    return a, b


def _newton_polish(p: Polynomial, x0: float, a: float, b: float) -> float:
    dp = p.deriv()
    x, best, best_f = x0, x0, abs(poly_eval(p, x0))
    for _ in range(50):
        fx = poly_eval(p, x)
        if abs(fx) < best_f:
            best, best_f = x, abs(fx)
        dfx = poly_eval(dp, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        nxt = x - step
        # keep Newton inside the bisected cell (plus slack) so a flat stretch
        # cannot drag the iterate onto a neighboring root
        if nxt < a - 1e-9 or nxt > b + 1e-9:
            break
        if abs(step) <= 4.0 * _EPS * max(1.0, abs(x)):
            x = nxt
            break
        x = nxt
    fx = abs(poly_eval(p, x))
    return x if fx <= best_f else best


def _scan_roots(p: Polynomial, lo: float, hi: float, intervals: int) -> list[float]:
    xs = np.linspace(lo, hi, intervals + 1)
    vals = poly_eval(p, xs)
    roots: list[float] = []

    # exact zeros at interior grid points count as found roots directly
    interior_zero = np.zeros(xs.size, dtype=bool)
    for i in range(1, xs.size - 1):
        if vals[i] == 0.0:
            interior_zero[i] = True
            roots.append(float(xs[i]))

    neg = vals < 0
    for i in range(xs.size - 1):
        if interior_zero[i] or interior_zero[i + 1]:
            continue
        if neg[i] != neg[i + 1] and vals[i] != 0.0 and vals[i + 1] != 0.0:
            a, b = _bisect_root(p, float(xs[i]), float(xs[i + 1]))
            r = _newton_polish(p, 0.5 * (a + b), a, b)
            if abs(poly_eval(p, r)) > 1e-12 * _root_scale(p, r):
                raise RuntimeError(
                    f"root polish stalled at x={r!r}: residual above 1e-12 scale"
                )
            roots.append(r)

    # sign-preserving minima of |p| are polished onto the nearest stationary
    # point; any that land within the near-zero threshold are flagged as
    # near-double roots and reported rather than dropped
    absvals = np.abs(vals)
    for i in range(1, xs.size - 1):
        if absvals[i] <= absvals[i - 1] and absvals[i] < absvals[i + 1]:
            if neg[i - 1] == neg[i] == neg[i + 1] and not interior_zero[i]:
                r = _polish_extremum(p, float(xs[i - 1]), float(xs[i + 1]))
                if abs(poly_eval(p, r)) <= 1e-10 * _root_scale(p, r) and not any(
                    abs(r - q) <= 1e-8 * max(1.0, abs(r)) for q in roots
                ):
                    warnings.warn(
                        f"near-double root at x ~ {r:.12g}", NearDoubleRootWarning
                    )
                    roots.append(r)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-10 * max(1.0, abs(r)):
            merged.append(r)
    return merged


def _polish_extremum(p: Polynomial, a: float, b: float) -> float:
    # locate the stationary point of p inside (a, b) by bisection on p'
    dp = p.deriv()
    fa = poly_eval(dp, a)
    fb = poly_eval(dp, b)
    if (fa < 0) == (fb < 0):
        return 0.5 * (a + b)
    for _ in range(200):
        if b - a <= 1e-13 * max(1.0, abs(a)):
            break
        m = 0.5 * (a + b)
        fm = poly_eval(dp, m)
        if fm == 0.0:
            return m
        if (fa < 0) == (fm < 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def poly_real_roots(
    p: Polynomial,
    bracket: tuple[float, float],
    expected_count: int | None = None,
) -> list[float]:
    """All real roots of p inside the open bracket, ascending.

    Roots are isolated by a uniform sign-change scan (1000 intervals),
    bisected to a 1e-12-wide cell and Newton-polished to a scaled residual
    of 1e-12. When expected_count is given and the scan comes up short, the
    grid is refined tenfold once and the upper bracket bound doubled once
    before RootCountError is raised (carrying whatever was found).

    Raises ValueError for a degree-0 input or when a bracket endpoint is
    itself a root (the caller must perturb the bracket).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if p.degree == 0:
        raise ValueError("cannot isolate roots of a degree-0 polynomial")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bracket ({lo}, {hi})")
    if poly_eval(p, lo) == 0.0 or poly_eval(p, hi) == 0.0:
        raise ValueError("bracket endpoint is a root; perturb the bracket")

    roots = _scan_roots(p, lo, hi, 1000)
    if expected_count is None or len(roots) >= expected_count:
        return roots

    roots = _scan_roots(p, lo, hi, 10000)
    if len(roots) >= expected_count:
        return roots

    hi2 = hi * 2.0 if hi > 0 else hi + (hi - lo)
    roots = _scan_roots(p, lo, hi2, 10000)
    if len(roots) >= expected_count:
        return roots
    raise RootCountError(roots, expected_count)


# ---------------------------------------------------------------------------
# symmetric eigensolver


@dataclass(frozen=True)
class EigResult:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _is_tridiagonal(A: np.ndarray) -> bool:
    n = A.shape[0]
    if n < 3:
        return True
    mask = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) >= 2
    return not np.any(A[mask])


def _householder(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce symmetric A to tridiagonal (d, e) with accumulated transform Z.

    Classic Householder similarity chain, one reflector per trailing row,
    applied to the shrinking leading block with rank-2 updates. Satisfies
    A = Z T Z^T with T = tridiag(e, d, e).
    """
    V = A.copy()
    n = V.shape[0]
    d = np.zeros(n)
    e = np.zeros(n)  # e[j] = T[j, j+1]; e[n-1] stays 0
    reflectors: list[tuple[int, np.ndarray, float]] = []

    for i in range(n - 1, 1, -1):
        x = V[i, :i].copy()
        scale = float(np.sum(np.abs(x)))
        if scale == 0.0:
            e[i - 1] = 0.0
            continue
        x /= scale
        h = float(x @ x)
        f = x[i - 1]
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        x[i - 1] = f - g
        # rank-2 update of the leading block: B <- B - u w^T - w u^T
        B = V[:i, :i]
        pv = (B @ x) / h
        K = float(x @ pv) / (2.0 * h)
        w = pv - K * x
        B -= np.outer(x, w) + np.outer(w, x)
        reflectors.append((i, x, h))
    if n >= 2:
        e[0] = V[1, 0]
    d[:] = np.diagonal(V)

    Z = np.eye(n)
    for i, u, h in reversed(reflectors):
        # apply P = I - u u^T / h to rows 0..i-1 of Z
        Z[:i, :] -= np.outer(u / h, u @ Z[:i, :])
    return d, e, Z


def _ql_implicit(d: np.ndarray, e: np.ndarray, Z: np.ndarray | None) -> None:
    """Implicit-shift QL on tridiagonal (d, e), in place; Z columns rotate along.

    d holds the diagonal, e[j] the subdiagonal T[j, j+1] with e[n-1] = 0.
    Raises NonConvergenceError after 30 sweeps on a single eigenvalue.
    """
    n = d.size
    for l in range(n):
        sweeps = 0
        while True:
            thr = _EPS * (np.abs(d[l : n - 1]) + np.abs(d[l + 1 : n]))
            small = np.nonzero(np.abs(e[l : n - 1]) <= thr)[0]
            m = l + int(small[0]) if small.size else n - 1
            if m == l:
                break
            sweeps += 1
            if sweeps > 30:
                raise NonConvergenceError(l)
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation annihilated early; drop the shift and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if Z is not None:
                    zcol = Z[:, i + 1].copy()
                    Z[:, i + 1] = s * Z[:, i] + c * zcol
                    Z[:, i] = c * Z[:, i] - s * zcol
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def sym_eig(A: np.ndarray) -> EigResult:
    """Full eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    A : (n, n) ndarray, exactly symmetric (builders here write both triangles).

    Returns
    -------
    EigResult with ascending values and orthonormal vector columns;
    vectors[:, k] pairs with values[k]. Deterministic: fixed sweep order and
    a fixed sign convention (largest-magnitude component positive).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("sym_eig needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("sym_eig needs finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("sym_eig needs an exactly symmetric matrix")

    n = A.shape[0]
    if _is_tridiagonal(A):
        d = np.diagonal(A).astype(float).copy()
        e = np.zeros(n)
        if n >= 2:
            e[: n - 1] = np.diagonal(A, 1)
        Z = np.eye(n)
    else:
        d, e, Z = _householder(A)

    _ql_implicit(d, e, Z)

    order = np.argsort(d, kind="stable")
    values = d[order].copy()
    vectors = Z[:, order].copy()
    for k in range(n):
        j = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[j, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return EigResult(values=values, vectors=vectors)


# ---------------------------------------------------------------------------
# selected tridiagonal eigenvalues (Sturm bisection)


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Interval (lo, hi) holding every eigenvalue of the symmetric tridiagonal (d, e)."""
    radius = np.zeros(d.size)
    if d.size > 1:
        radius[: d.size - 1] += np.abs(e)
        radius[1:] += np.abs(e)
    return float(np.min(d - radius)), float(np.max(d + radius))


def tridiag_eigvals_lowest(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the symmetric tridiagonal (d, e), ascending.

    Bisection with Sturm counts, bisecting all k target indices in lockstep.
    Only e**2 enters, so spectra are exactly even in the sign of e.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for dimension {n}")
    return _sturm_lowest_batch(d, (e * e)[None, :], k)[0]


def _sturm_lowest_batch(d: np.ndarray, e2_rows: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues for many tridiagonals sharing one diagonal.

    d has shape (n,); e2_rows has shape (G, n-1), one squared off-diagonal
    per instance (the sweep case: a fixed diagonal with a coupling that
    scales). Returns shape (G, k), ascending along the last axis. All G*k
    bisections advance in lockstep, so the whole sweep costs one Sturm
    recurrence per bisection step.

    The recurrence ends early by the rule of _sturm_stop, with one bound
    for every lane: the column-wise maximum |e|. A lane with couplings
    |e_j| below that maximum b_j keeps the induction, since q_{j-1} >= b_{j-1}
    gives e_{j-1}^2 / q_{j-1} <= b_{j-1}, so the slack of the maximal
    couplings and a shift no lower than every lane's (the largest midpoint)
    certify all lanes at once. Every 4 rows from the first row the slack
    allows, the loop ends once every lane's pivot is at least b_i.
    """
    d = np.asarray(d, dtype=float)
    e2_rows = np.atleast_2d(np.asarray(e2_rows, dtype=float))
    n = d.size
    G = e2_rows.shape[0]
    tiny = _EPS * (float(np.max(np.abs(d))) + math.sqrt(float(np.max(e2_rows, initial=0.0))) + 1.0)

    e_max = np.sqrt(np.max(e2_rows, axis=0, initial=0.0))
    lo, hi = _gershgorin(d, e_max)
    span = max(hi - lo, 1.0)
    stop = _sturm_stop(d, e_max)
    bound = stop.bound

    los = np.full((G, k), lo)
    his = np.full((G, k), hi)
    targets = np.arange(1, k + 1)[None, :]
    e2col = e2_rows[:, :, None]  # (G, n-1, 1) broadcasting against (G, k)
    for _ in range(90):
        mids = 0.5 * (los + his)
        first = stop.first_row(float(np.max(mids)), float(np.max(np.abs(mids))))
        q = d[0] - mids
        count = (q < 0.0).astype(np.int64)
        for i in range(1, n):
            q = np.where(np.abs(q) < tiny, np.where(q < 0, -tiny, tiny), q)
            q = d[i] - mids - e2col[:, i - 1] / q
            count += q < 0.0
            if i >= first and (i - first) % 4 == 0 and np.min(q) >= bound[i]:
                break
        below = count >= targets
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
        if np.max(his - los) <= 4.0 * _EPS * span:
            break
    return 0.5 * (los + his)


# Relative margin on the slack test of _sturm_stop, far above rounding.
_STOP_MARGIN = 1e-12


class _SturmStop(NamedTuple):
    """Data that lets a Sturm count end early; built once per matrix by _sturm_stop."""

    suffix: list[float]
    bound: list[float]
    scale: float

    def first_row(self, x: float, reach: float) -> int:
        """First row at which a count at shift x (|x| <= reach) may end."""
        return max(bisect_left(self.suffix, x + _STOP_MARGIN * (self.scale + reach)) - 1, 0)


def _sturm_stop(d: np.ndarray, bound: np.ndarray) -> _SturmStop:
    """Stop data for Sturm counts on the symmetric tridiagonal (d, e), |e| <= bound.

    The count of T - x walks the LDL^T pivots q_0 = d_0 - x,
    q_j = d_j - x - e_{j-1}^2 / q_{j-1}, and counts the negative ones. With
    b_j = bound[j] (b_{-1} = b_{n-1} = 0) let s_j = d_j - b_{j-1} - b_j be
    the slack of row j. If q_i >= b_i and s_j >= x for every j > i, the
    count is final at row i: by induction q_{j-1} >= b_{j-1} >= |e_{j-1}|
    gives e_{j-1}^2 / q_{j-1} <= b_{j-1}, so
    q_j >= d_j - x - b_{j-1} = b_j + (s_j - x) >= b_j >= 0, and no later
    pivot is negative. The pivot clamp keeps the induction: it only moves
    a pivot in [0, tiny) up to tiny, which keeps q >= b and can only shrink
    e^2 / q.

    suffix[j] is the minimum of s_j..s_{n-1} (suffix[n] = inf), computed
    once, O(n); it is nondecreasing, so first_row finds by bisection the
    first row r with suffix[r + 1] >= x. The floating-point pivots differ
    from the exact ones by a few eps (scale + |x|) per step, scale =
    max |d| + 2 max b, as do the computed slacks; first_row therefore asks
    for slack x + 1e-12 (scale + |x|), which makes the induction hold for
    the computed pivots too. A count that stops this way equals the
    full-length count exactly.
    """
    n = d.size
    b = np.zeros(n + 1)
    b[1:n] = bound
    slack = d - b[:n] - b[1:]
    suffix = np.minimum.accumulate(slack[::-1])[::-1]
    scale = float(np.max(np.abs(d))) + 2.0 * float(np.max(b))
    return _SturmStop(suffix.tolist() + [math.inf], b[1:].tolist(), scale)


def _sturm_count(
    d, e2, x: float, tiny: float, stop: _SturmStop | None = None, scale: float = 1.0, pivot=False
):
    """Number of eigenvalues below x: the negative LDL^T pivots of T - x.

    d and e2 are sequences (diagonal and squared off-diagonal, times scale);
    pivots smaller than tiny in magnitude are pushed out to +/- tiny. Scalar
    Python floats beat vectorized calls by an order of magnitude when only
    one shift is wanted per step. With stop data (_sturm_stop) the count
    ends at the first row i >= stop.first_row(x) with q_i >= b_i, where the
    rest of the sequence is certified to add nothing; without it every row
    is walked, and pivot=True returns (count, q) with q the last pivot,
    det(T - x) over the determinant of its leading minor.
    """
    n = len(d)
    first = n if stop is None else stop.first_row(x, abs(x))
    neg_tiny = -tiny  # hoisted: negating on every row costs as much as the scale product
    q = d[0] - x
    count = 1 if q < 0.0 else 0
    for i in range(1, first):
        if neg_tiny < q < tiny:
            q = neg_tiny if q < 0.0 else tiny
        q = d[i] - x - scale * e2[i - 1] / q
        if q < 0.0:
            count += 1
    if first < n:
        bound = stop.bound
        for i in range(max(first, 1), n):
            if neg_tiny < q < tiny:
                q = neg_tiny if q < 0.0 else tiny
            q = d[i] - x - scale * e2[i - 1] / q
            if q < 0.0:
                count += 1
            elif q >= bound[i]:
                break
    return (count, q) if pivot else count


def _sturm_eigval_index(d, e2, index: int, lo: float, hi: float, stop: _SturmStop) -> float:
    """Single eigenvalue by Sturm bisection, scalar arithmetic throughout.

    d and e2 are sequences (diagonal and squared off-diagonal) and stop
    their _sturm_stop data; index is the 0-based ascending eigenvalue index;
    (lo, hi) must bracket it. This is the crossing-refinement and
    verification inner loop.
    """
    scale = max(abs(lo), abs(hi), 1.0)
    tiny = _EPS * scale
    target = index + 1
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if _sturm_count(d, e2, mid, tiny, stop) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * _EPS * scale:
            break
    return 0.5 * (lo + hi)


def tridiag_eigval_within(
    d: np.ndarray, e: np.ndarray, x: float, radius: float
) -> tuple[int, float] | None:
    """Index and value of the eigenvalue of the symmetric tridiagonal (d, e) nearest x,
    or None when no eigenvalue lies within radius of x.

    Sturm counts at x - radius, x and x + radius give the numbers of
    eigenvalues below each shift, so the nearest is index c - 1 (the highest
    below x) or c (the lowest at or above it). Each is bisected only when
    the window holds it, and only on its half of the window. On a tie the
    lower index wins. Every count ends once its sign pattern is certified
    (_sturm_stop), so a count costs the rows up to the level's support,
    not O(n), and no eigenvectors are formed.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.size < 1:
        raise ValueError("empty tridiagonal matrix")
    lo, hi = _gershgorin(d, e)
    tiny = _EPS * max(abs(lo), abs(hi), 1.0)
    stop = _sturm_stop(d, np.abs(e))
    dl = d.tolist()
    e2l = (e * e).tolist()
    x = float(x)
    left, right = x - float(radius), x + float(radius)
    c_left, c, c_right = (_sturm_count(dl, e2l, s, tiny, stop) for s in (left, x, right))
    best: tuple[int, float] | None = None
    if c > c_left:
        best = (c - 1, _sturm_eigval_index(dl, e2l, c - 1, left, x, stop))
    if c_right > c:
        value = _sturm_eigval_index(dl, e2l, c, x, right, stop)
        if best is None or abs(value - x) < abs(best[1] - x):
            best = (c, value)
    return best


def tridiag_inverse_iteration(
    d: np.ndarray, e: np.ndarray, shift: float, start: np.ndarray
) -> np.ndarray:
    """One step of inverse iteration on the symmetric tridiagonal (d, e).

    Solves (T - shift) x = start through the LDL^T factorization, without
    pivoting, with pivots smaller than eps times the Gershgorin scale pushed
    out to that size, as in the Sturm count; returns x normalized, signed so
    that x . start > 0. With shift at an isolated eigenvalue and a start
    vector close to its eigenvector, x is that eigenvector to about eps
    times ||T|| over the gap. O(n), no eigenvalues formed.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    start = np.asarray(start, dtype=float)
    lo, hi = _gershgorin(d, e)
    tiny = _EPS * max(abs(lo - shift), abs(hi - shift), 1.0)
    pivots = (d - shift).tolist()
    el = e.tolist()
    x = start.tolist()
    n = len(pivots)
    for i in range(n):
        if i:
            ratio = el[i - 1] / pivots[i - 1]
            pivots[i] -= ratio * el[i - 1]
            x[i] -= ratio * x[i - 1]
        if -tiny < pivots[i] < tiny:
            pivots[i] = -tiny if pivots[i] < 0.0 else tiny
    x[-1] /= pivots[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - el[i] * x[i + 1]) / pivots[i]
    out = np.array(x)
    out /= math.sqrt(float(out @ out))
    return -out if float(out @ start) < 0.0 else out


# ---------------------------------------------------------------------------
# elimination-based helpers


def null_vector(A: np.ndarray) -> np.ndarray:
    """Unit-norm null vector of a numerically rank-deficient square matrix.

    Gaussian elimination with partial pivoting; a column whose best available
    pivot falls below 1e-10 * ||A||_F is taken as the free variable. The free
    variable is set to 1, pivot variables are back-substituted, and the result
    is normalized with its first nonzero component positive.

    Raises FullRankError when every column admits a pivot above the threshold
    (the input point is not on the locus the caller thinks it is).
    """
    M = np.asarray(A, dtype=float).copy()
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("null_vector needs a square matrix")
    n = M.shape[0]
    norm = float(np.sqrt(np.sum(M * M)))
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        return v
    threshold = 1e-10 * norm

    pivot_cols: list[tuple[int, int]] = []  # (row, col)
    free_cols: list[int] = []
    r = 0
    for c in range(n):
        if r >= n:
            free_cols.append(c)
            continue
        piv = r + int(np.argmax(np.abs(M[r:, c])))
        if abs(M[piv, c]) < threshold:
            free_cols.append(c)
            continue
        if piv != r:
            M[[r, piv], :] = M[[piv, r], :]
        below = M[r + 1 :, c] / M[r, c]
        M[r + 1 :, :] -= np.outer(below, M[r, :])
        M[r + 1 :, c] = 0.0
        pivot_cols.append((r, c))
        r += 1

    if not free_cols:
        raise FullRankError(
            f"matrix is numerically full-rank (no pivot below {threshold:.3e})"
        )

    v = np.zeros(n)
    v[free_cols[0]] = 1.0
    for row, col in reversed(pivot_cols):
        v[col] = -float(M[row, col + 1 :] @ v[col + 1 :]) / M[row, col]
    v /= math.sqrt(float(v @ v))
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                v = -v
            break
    return v


def determinant(A: np.ndarray) -> float:
    """Determinant via Gaussian elimination with partial pivoting."""
    M = np.asarray(A, dtype=float).copy()
    n = M.shape[0]
    sign = 1.0
    for c in range(n):
        piv = c + int(np.argmax(np.abs(M[c:, c])))
        if M[piv, c] == 0.0:
            return 0.0
        if piv != c:
            M[[c, piv], :] = M[[piv, c], :]
            sign = -sign
        below = M[c + 1 :, c] / M[c, c]
        M[c + 1 :, c:] -= np.outer(below, M[c, c:])
    return sign * float(np.prod(np.diagonal(M)))


def tridiag_det_poly(diag: list[Polynomial], offdiag_sq: list[Polynomial]) -> Polynomial:
    """Determinant of a symmetric tridiagonal matrix with polynomial entries.

    Three-term recurrence D_k = a_k D_{k-1} - b_{k-1}^2 D_{k-2}. Only the
    squares of the off-diagonal enter it, so offdiag_sq holds the squared
    entries b_k^2 as polynomials, len(diag) - 1 of them.
    """
    ndim = len(diag)
    if ndim == 0:
        raise ValueError("empty diagonal")
    if len(offdiag_sq) != ndim - 1:
        raise ValueError("off-diagonal length must be len(diag) - 1")

    prev = Polynomial((1.0,))
    cur = diag[0]
    for k in range(1, ndim):
        prev, cur = cur, diag[k] * cur - offdiag_sq[k - 1] * prev
    return cur
