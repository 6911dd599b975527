"""Self-contained numerical kernel.

Package paths run on Sturm bisection for selected eigenvalues of symmetric
tridiagonal matrices: the lowest k (tridiag_eigvals_lowest, or
_sturm_lowest_batch, one lockstep walk over several diagonals that share
many couplings, such as the two parity blocks over a coupling grid), the
one nearest a shift (tridiag_eigval_within) and a given index near a guess
(tridiag_eigval_near), each forming its own Gershgorin interval and stop
data. The last two bisect through _sturm_eigval_index, which counts only
inside a bracket that counts have confirmed (_confirm_bracket): the window
search confirms a narrow one next to its shift, so a level there costs a
few counts, and the outputs are bit-identical to counting every midpoint.
Inverse iteration gives eigen- and null vectors; _inverse_step is its
list-level step, for callers that solve many shifts on one matrix and form
its Gershgorin interval and lists once. Kept as references
for tests and benchmark probes: sym_eig (Householder + implicit-shift QL,
eigenvalues only), real-root isolation for polynomials held as coefficient
tuples, and Gaussian elimination for null vectors and determinants.
ndarrays serve storage and elementwise/matmul arithmetic only; there are no
calls into numpy.linalg or any external solver.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_EPS = np.finfo(float).eps
# QL splits at couplings this small whatever the diagonal: the rotation chase
# multiplies two of them, which underflows to 0 and stalls the sweep
_QL_SPLIT = math.sqrt(np.finfo(float).tiny)


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


def poly_eval(p: tuple[float, ...], x):
    """Horner evaluation of the coefficient tuple p, p[k] times x**k, at a scalar or ndarray x."""
    acc = 0.0 * x if isinstance(x, np.ndarray) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _deriv(p: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(k * c for k, c in enumerate(p) if k) or (0.0,)


def _root_scale(p: tuple[float, ...], x: float) -> float:
    # residual scale for a candidate root: max-coefficient * max(1,|x|)^degree
    return max(abs(c) for c in p) * max(1.0, abs(x)) ** (len(p) - 1)


def _bisect_root(p: tuple[float, ...], a: float, b: float) -> tuple[float, float]:
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


def _newton_polish(p: tuple[float, ...], x0: float, a: float, b: float) -> float:
    dp = _deriv(p)
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


def _scan_roots(p: tuple[float, ...], lo: float, hi: float, intervals: int) -> list[float]:
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


def _polish_extremum(p: tuple[float, ...], a: float, b: float) -> float:
    # locate the stationary point of p inside (a, b) by bisection on p'
    dp = _deriv(p)
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
    p: tuple[float, ...],
    bracket: tuple[float, float],
    expected_count: int | None = None,
) -> list[float]:
    """All real roots inside the open bracket of the polynomial whose
    coefficient tuple is p (p[k] multiplies x**k), ascending.

    Trailing zero coefficients are dropped first. Roots are isolated by a
    uniform sign-change scan (1000 intervals), bisected to a 1e-12-wide cell
    and Newton-polished to a scaled residual of 1e-12. When expected_count
    is given and the scan comes up short, the grid is refined tenfold once
    and the upper bracket bound doubled once before RootCountError is
    raised (carrying whatever was found).

    Raises ValueError for a degree-0 input or when a bracket endpoint is
    itself a root (the caller must perturb the bracket).
    """
    p = tuple(float(c) for c in p)
    while len(p) > 1 and p[-1] == 0.0:
        p = p[:-1]
    lo, hi = float(bracket[0]), float(bracket[1])
    if len(p) < 2:
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
    """Ascending eigenvalues of a symmetric matrix.

    A one-field record rather than a bare array because its callers,
    perfbench's workloads among them, read sym_eig(A).values.
    """

    values: np.ndarray


def _is_tridiagonal(A: np.ndarray) -> bool:
    n = A.shape[0]
    if n < 3:
        return True
    mask = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) >= 2
    return not np.any(A[mask])


def _householder(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce symmetric A to the tridiagonal (d, e) of a similar matrix.

    Classic Householder similarity chain, one reflector per trailing row,
    applied to the shrinking leading block with rank-2 updates.
    """
    V = A.copy()
    n = V.shape[0]
    d = np.zeros(n)
    e = np.zeros(n)  # e[j] = T[j, j+1]; e[n-1] stays 0

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
    if n >= 2:
        e[0] = V[1, 0]
    d[:] = np.diagonal(V)
    return d, e


def _ql_implicit(d: np.ndarray, e: np.ndarray) -> None:
    """Implicit-shift QL on tridiagonal (d, e), in place.

    d holds the diagonal, e[j] the subdiagonal T[j, j+1] with e[n-1] = 0;
    on return d holds the eigenvalues, unsorted. The matrix splits where
    |e[j]| <= eps (|d[j]| + |d[j+1]|) or |e[j]| <= sqrt(tiny) ~ 1.5e-154.
    Raises NonConvergenceError after 30 sweeps on a single eigenvalue.
    """
    n = d.size
    for l in range(n):
        sweeps = 0
        while True:
            thr = _EPS * (np.abs(d[l : n - 1]) + np.abs(d[l + 1 : n]))
            np.maximum(thr, _QL_SPLIT, out=thr)
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
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def sym_eig(A: np.ndarray) -> EigResult:
    """All eigenvalues of a real symmetric matrix; no eigenvectors are formed.

    Parameters
    ----------
    A : (n, n) ndarray, exactly symmetric (builders here write both triangles).

    Returns
    -------
    EigResult with the values in ascending order. Deterministic: fixed sweep
    order and a stable sort.
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
    else:
        d, e = _householder(A)

    _ql_implicit(d, e)
    return EigResult(values=np.sort(d, kind="stable"))


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
    Only e**2 enters, so spectra are exactly even in the sign of e. Raises
    ValueError when d, e or e**2 has a non-finite entry, or when the
    Gershgorin interval reaches past half the float range.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for dimension {n}")
    with np.errstate(over="ignore"):
        e2 = e * e
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e2))):
        raise ValueError("tridiag_eigvals_lowest needs finite d and e, with e**2 finite")
    return _sturm_lowest_batch(d[None, :], e2[:, None], k)[0, 0]


def _sturm_lowest_batch(diags: np.ndarray, e2_cols: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of every tridiagonal made of one of the diagonals
    and one of the coupling columns.

    diags has shape (P, n), one diagonal per row (the sweep case: the two
    parity blocks); e2_cols has shape (n-1, G), one squared off-diagonal
    per column (a coupling that scales over the grid). Returns shape
    (P, G, k), ascending along the last axis. All P*k*G bisections advance
    in one lockstep walk, so the whole sweep costs one Sturm recurrence per
    bisection step. Each diagonal is bisected exactly as it would be alone:
    its own tiny, Gershgorin interval, span and _sturm_stop data, and its own
    width test, after which its lanes are dropped from the walk. Raises
    ValueError when a diagonal's Gershgorin interval reaches past half the
    float range, where the midpoints and the stopping width would overflow.

    The lanes are laid out (P, k, G), so the row's e^2 (a contiguous (G,)
    row of e2_cols) broadcasts along the innermost axis. The pivots, the
    e^2 / q quotients, a mask and the int32 negative-pivot counts live in
    buffers of that shape; each row writes them by ufuncs with out=,
    rounding d_i - x - e^2 / q in the order of the full-length recurrence.

    The recurrence ends early by the rule of _sturm_stop, with one bound
    for every lane: the row-wise maximum |e|, which every diagonal shares.
    A lane with couplings |e_j| below that maximum b_j keeps the induction,
    since q_{j-1} >= b_{j-1} gives e_{j-1}^2 / q_{j-1} <= b_{j-1}, so the
    slack of the maximal couplings and a shift no lower than every lane's
    (the largest midpoint) certify all lanes of a diagonal at once. Every 4
    rows from the latest first row any diagonal's slack allows, the loop
    ends once every lane's pivot is at least b_i.

    The pivot clamp (a pivot with |q| < tiny becomes -tiny if q < 0, else
    tiny, with the diagonal's own tiny) is tested by one min of |q| against
    the largest tiny; only on a row where that fires is the exact
    per-diagonal mask formed and the clamp applied. No pivot is NaN, so the
    min is exact: the callers pass finite d and e^2, and the midpoints lie
    inside half the float range, so d_i - x is finite; a clamped q is
    nonzero, so e^2 / q is finite or infinite, never 0 / 0; and an infinite
    pivot gives a zero quotient on the next row. Outputs are bit-identical
    to clamping every row, and to bisecting each diagonal alone.
    """
    diags = np.asarray(diags, dtype=float)
    e2_cols = np.asarray(e2_cols, dtype=float)
    e_max = np.sqrt(np.max(e2_cols, axis=1, initial=0.0))
    e_top = math.sqrt(float(np.max(e2_cols, initial=0.0)))
    tiny, lo, hi, width, stops = [], [], [], [], []
    for d in diags:
        tiny.append(_EPS * (float(np.max(np.abs(d))) + e_top + 1.0))
        a, b = _gershgorin(d, e_max)
        if not math.isfinite(2.0 * max(abs(a), abs(b))):  # hi - lo and lo + hi would overflow
            raise ValueError(f"Gershgorin interval [{a:g}, {b:g}] reaches past half the float range")
        lo.append(a)
        hi.append(b)
        width.append(4.0 * _EPS * max(b - a, 1.0))
        stops.append(_sturm_stop(d, e_max))
    bound = stops[0].bound  # the same for every diagonal: it depends on e_max alone

    P, n = diags.shape
    shape = (P, k, e2_cols.shape[1])
    los = np.broadcast_to(np.array(lo)[:, None, None], shape).copy()
    his = np.broadcast_to(np.array(hi)[:, None, None], shape).copy()
    mids, q, t, out = (np.empty(shape) for _ in range(4))
    small = np.empty(shape, dtype=bool)
    count = np.empty(shape, dtype=np.int32)
    # per active diagonal: its index, its rows (d_rows[i] has shape (A, 1, 1)), tiny and stop width
    act = np.arange(P)
    d_rows = diags.T[:, :, None, None]
    tiny = np.array(tiny)[:, None, None]
    width = np.array(width)
    targets = np.arange(1, k + 1, dtype=np.int32)[:, None]
    for _ in range(90):
        tiny_top = float(np.max(tiny))
        np.multiply(np.add(los, his, out=mids), 0.5, out=mids)
        first = max(stops[p].first_row(float(m.max()), float(max(m.max(), -m.min()))) for p, m in zip(act, mids))
        np.subtract(d_rows[0], mids, out=q)
        np.less(q, 0.0, out=count)
        for i, e2, d_i in zip(range(1, n), e2_cols, d_rows[1:]):
            np.abs(q, out=t)
            if t.min() < tiny_top:
                np.less(t, tiny, out=small)
                np.copyto(q, np.where(q < 0.0, -tiny, tiny), where=small)
            # d_i - x - e2 / q, rounded in that order
            np.divide(e2, q, out=t)
            np.subtract(d_i, mids, out=q)
            np.subtract(q, t, out=q)
            np.add(count, np.less(q, 0.0, out=small), out=count)
            if i >= first and (i - first) % 4 == 0 and q.min() >= bound[i]:
                break
        np.less(count, targets, out=small)  # the target level lies above the midpoint
        np.copyto(los, mids, where=small)
        np.copyto(his, mids, where=np.logical_not(small, out=small))
        done = np.max(np.subtract(his, los, out=t), axis=(1, 2)) <= width
        if done.any():
            np.multiply(np.add(los, his, out=mids), 0.5, out=mids)
            out[act[done]] = mids[done]
            if done.all():
                return out.transpose(0, 2, 1)
            keep = ~done
            act, d_rows, tiny, width = act[keep], d_rows[:, keep], tiny[keep], width[keep]
            los, his, mids, q, t, small, count = (a[keep] for a in (los, his, mids, q, t, small, count))
    out[act] = 0.5 * (los + his)
    return out.transpose(0, 2, 1)


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


def _sturm_count(d, e2, x: float, tiny: float, stop: _SturmStop) -> int:
    """Number of eigenvalues below x: the negative LDL^T pivots of T - x.

    d and e2 are sequences (diagonal and squared off-diagonal) and stop
    their _sturm_stop data; pivots smaller than tiny in magnitude are pushed
    out to +/- tiny. Scalar Python floats beat vectorized calls by an order
    of magnitude when only one shift is wanted per step. The count ends at
    the first row i >= stop.first_row(x) with q_i >= b_i, where the rest of
    the sequence is certified to add nothing.
    """
    first = stop.first_row(x, abs(x))
    bound = stop.bound
    neg_tiny = -tiny
    q = d[0] - x
    count = 1 if q < 0.0 else 0
    for i in range(1, len(d)):
        if neg_tiny < q < tiny:
            q = neg_tiny if q < 0.0 else tiny
        q = d[i] - x - e2[i - 1] / q
        if q < 0.0:
            count += 1
        elif i >= first and q >= bound[i]:
            break
    return count


def _sturm_eigval_index(
    d, e2, index: int, lo: float, hi: float, stop: _SturmStop, scale: float, confirmed: tuple[float, float]
) -> float:
    """Single eigenvalue by Sturm bisection, scalar arithmetic throughout.

    d and e2 are sequences (diagonal and squared off-diagonal) and stop
    their _sturm_stop data; index is the 0-based ascending eigenvalue index;
    (lo, hi) must bracket it. Pivots below eps scale are clamped, and the
    bisection ends at width 4 eps scale.

    confirmed = (a, b), inside [lo, hi], is a bracket of the level whose
    ends, where they lie strictly inside (lo, hi), the caller has counted
    with the same tiny = eps scale: fewer than index + 1 levels below a, at
    least index + 1 below b. The midpoints are those of bisecting (lo, hi),
    but only a midpoint strictly inside (a, b) is counted; one at or below
    a moves lo, one at or above b moves hi. The floating-point Sturm count
    is monotone in the shift (Demmel, Dhillon & Ren 1995), so an uncounted
    midpoint falls on the side its count would have given, and the result
    is bit-identical to counting every midpoint. Where monotonicity failed,
    the returned bracket [lo, hi] still holds [max(lo, a), min(hi, b)],
    whose ends carry real counts below and at or above index + 1, so it is
    certified by real counts either way.
    """
    tiny = _EPS * scale
    target = index + 1
    a, b = confirmed
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b or _sturm_count(d, e2, mid, tiny, stop) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * _EPS * scale:
            break
    return 0.5 * (lo + hi)


def _confirm_bracket(d, e2, index: int, guess: float, step: float, lo: float, hi: float, sides, tiny, stop):
    """Bracket of eigenvalue index around guess, inside (lo, hi), confirmed by counts.

    On each side in sides (-1.0 below guess, +1.0 above), the end
    guess + side step is checked by one count and moved out 16-fold while it
    fails, until it leaves (lo, hi); a failed end bounds the level from the
    other side. Returns the narrowed (lo, hi).
    """
    for sign in sides:
        w = step
        while lo < guess + sign * w < hi:
            x = guess + sign * w
            above = _sturm_count(d, e2, x, tiny, stop) > index  # the level lies below x
            lo, hi = (lo, x) if above else (x, hi)
            if above == (sign > 0.0):
                break
            w *= 16.0
    return lo, hi


def tridiag_eigval_near(d: np.ndarray, e: np.ndarray, index: int, guess: float, width: float) -> float:
    """Eigenvalue index (0-based, ascending) of the symmetric tridiagonal (d, e),
    bisected from a bracket around guess that Sturm counts confirm.

    Each end of guess -/+ width (at least 16 eps scale, scale the largest
    magnitude of the Gershgorin interval or 1) is checked by one count and
    moved out 16-fold while it fails, up to the Gershgorin interval; a
    failed end bounds the level from the other side, so a wrong guess costs
    counts only. The bisection ends at width 4 eps scale.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    lo, hi = _gershgorin(d, e)
    scale = max(abs(lo), abs(hi), 1.0)
    tiny = _EPS * scale
    stop = _sturm_stop(d, np.abs(e))
    dl = d.tolist()
    e2l = (e * e).tolist()
    if not lo < guess < hi:
        guess = 0.5 * (lo + hi)
    step = max(width, 16.0 * _EPS * scale)
    lo, hi = _confirm_bracket(dl, e2l, index, guess, step, lo, hi, (-1.0, 1.0), tiny, stop)
    return _sturm_eigval_index(dl, e2l, index, lo, hi, stop, scale, (lo, hi))


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

    Before its bisection, each level is confirmed in a narrow bracket at the
    end of its half window nearest x, [x - w, x] or [x, x + w], by one count
    with the bisection's own tiny; w starts at 256 eps scale, 64 times the
    bisection's stop width, and is widened 16-fold while a count rejects it,
    up to the half window (_confirm_bracket). The bisection then runs over
    the whole half window with the same midpoints as without the bracket,
    counting only inside it (_sturm_eigval_index): the value is bit-identical
    to bisecting the half window with a count at every midpoint, and a level
    next to x, as at an exact point in verify, costs about 8 counts instead
    of about 40.
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

    def bisect(index: int, lo: float, hi: float, side: float) -> float:
        scale = max(abs(lo), abs(hi), 1.0)
        step = 256.0 * _EPS * scale
        confirmed = _confirm_bracket(dl, e2l, index, x, step, lo, hi, (side,), _EPS * scale, stop)
        return _sturm_eigval_index(dl, e2l, index, lo, hi, stop, scale, confirmed)

    best: tuple[int, float] | None = None
    if c > c_left:
        best = (c - 1, bisect(c - 1, left, x, -1.0))
    if c_right > c:
        value = bisect(c, x, right, 1.0)
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
    times ||T|| over the gap. O(n), no eigenvalues formed. A wrapper over
    _inverse_step, which callers solving many shifts on one matrix call with
    the Gershgorin interval and lists formed once.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    return _inverse_step(d.tolist(), e.tolist(), _gershgorin(d, e), shift, np.asarray(start, dtype=float))


def _inverse_step(
    dl: list, el: list, interval: tuple[float, float], shift: float, start: np.ndarray
) -> np.ndarray:
    """tridiag_inverse_iteration on the diagonal and coupling as lists, given
    their Gershgorin interval; start is an ndarray of the same length."""
    lo, hi = interval
    tiny = _EPS * max(abs(lo - shift), abs(hi - shift), 1.0)
    neg_tiny = -tiny
    rhs = start.tolist()
    # forward elimination: pivots q_i = d_i - shift - (e_{i-1} / q_{i-1}) e_{i-1}
    q = dl[0] - shift
    if neg_tiny < q < tiny:
        q = neg_tiny if q < 0.0 else tiny
    y = rhs[0]
    pivots, ys = [q], [y]
    for d, e, b in zip(dl[1:], el, rhs[1:]):
        ratio = e / q
        q = d - shift - ratio * e
        if neg_tiny < q < tiny:
            q = neg_tiny if q < 0.0 else tiny
        y = b - ratio * y
        pivots.append(q)
        ys.append(y)
    v = y / q
    x = [v]
    for q, e, y in zip(pivots[-2::-1], el[::-1], ys[-2::-1]):
        v = (y - e * v) / q
        x.append(v)
    out = np.array(x[::-1])
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
