"""Self-contained numerical kernel.

Package paths run on Sturm bisection for selected eigenvalues of symmetric
tridiagonal matrices: the lowest k (tridiag_eigvals_lowest, or
_sturm_lowest_batch, one lockstep walk over several diagonals that share
many couplings, such as the two parity blocks over a coupling grid), the
one nearest a shift (tridiag_eigval_within) and a given index
(tridiag_eigval_near). The public entry points check their input in one
place (_sturm_input, _gershgorin). The last two find each level by
_sturm_level, which bisects a fixed interval but counts only inside a
bracket around a guess that counts have confirmed: a level next to its
guess costs a few counts, and the value is bit-identical to counting every
midpoint. Inverse iteration (_inverse_step) gives eigen- and null vectors
from lists and a Gershgorin interval that its callers form once.
Kept for tests and benchmark tasks:
sym_eig (eigenvalues only, by implicit-shift QL on Python floats, for a
matrix whose connected components are each tridiagonal in index order; it
rejects any other), real-root isolation for polynomials held as coefficient
tuples, and Gaussian elimination for null vectors. Dense matrices and
determinants are left to the tests, which check against LAPACK.
ndarrays serve storage and elementwise/matmul arithmetic only; there are no
calls into numpy.linalg or any external solver. numpy is the package's lazy
handle (rabijudd._numpy), loaded by the first function here that reads it;
the scalar Sturm counts and the QL sweep run on Python floats, and eps and
the QL split come from sys.float_info, so juddian_points loads no numpy and
its scalars stay Python floats.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from ._numpy import np

_EPS = sys.float_info.epsilon
# QL splits at couplings this small whatever the diagonal: the rotation chase
# multiplies two of them, which underflows to 0 and stalls the sweep
_QL_SPLIT = math.sqrt(sys.float_info.min)


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
    """Ascending eigenvalues of a symmetric matrix made of chains (sym_eig).

    A one-field record rather than a bare array because its callers,
    perfbench's oscillator tasks and probes among them, read sym_eig(A).values.
    """

    values: np.ndarray


def _components(A: np.ndarray) -> list[list[int]]:
    """Connected components of symmetric A's nonzero pattern by iterative depth-first
    search: each an ascending index list, the lists by their smallest index."""
    rows, cols = np.nonzero(A)
    starts = np.searchsorted(rows, np.arange(A.shape[0] + 1)).tolist()
    cols = cols.tolist()
    seen = [False] * A.shape[0]
    components = []
    for root in range(A.shape[0]):
        stack, members = [root], []
        while stack:
            i = stack.pop()
            if not seen[i]:
                seen[i] = True
                members.append(i)
                stack.extend(cols[starts[i] : starts[i + 1]])
        if members:
            components.append(sorted(members))
    return components


def _ql_implicit(d: list, e: list) -> None:
    """Implicit-shift QL on tridiagonal (d, e), in place, on Python floats.

    d and e are lists: the diagonal, and e[j] = T[j, j+1] with e[n-1] = 0;
    on return d holds the eigenvalues, unsorted. The matrix splits at the
    first j >= l with |e[j]| <= max(eps (|d[j]| + |d[j+1]|), sqrt(tiny)).
    Raises NonConvergenceError after 30 sweeps on a single eigenvalue.
    """
    n = len(d)
    eps, hypot, copysign = _EPS, math.hypot, math.copysign
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > _QL_SPLIT and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > 30:
                raise NonConvergenceError(l)
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
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
    """All eigenvalues of a real symmetric matrix made of chains; no eigenvectors are formed.

    Parameters
    ----------
    A : (n, n) ndarray, exactly symmetric (builders here write both triangles),
        each connected component of its nonzero pattern tridiagonal in
        ascending index order: the parity blocks, the oscillators (the
        squeezed one as its even-n and odd-n chains) and build_rabi's two
        parity chains all are.

    Returns
    -------
    EigResult with the values in ascending order: the stable sort of the
    joined QL spectra of the components. QL splits at a zero coupling
    anyway, so a tridiagonal matrix gets values bit-identical to one solve.
    Raises ValueError naming the first index of any other component.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("sym_eig needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("sym_eig needs finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("sym_eig needs an exactly symmetric matrix")

    values: list[float] = []
    for idx in _components(A):
        B = A if len(idx) == A.shape[0] else A[np.ix_(idx, idx)]
        if np.count_nonzero(B) != np.count_nonzero(np.diagonal(B)) + 2 * np.count_nonzero(np.diagonal(B, 1)):
            raise ValueError(f"sym_eig needs chains: the component at index {idx[0]} is not tridiagonal in index order")
        d, e = np.diagonal(B).tolist(), np.diagonal(B, 1).tolist() + [0.0]
        _ql_implicit(d, e)
        values += d
    return EigResult(values=np.sort(np.array(values), kind="stable"))


# ---------------------------------------------------------------------------
# selected tridiagonal eigenvalues (Sturm bisection)


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Interval (lo, hi) holding every eigenvalue of the symmetric tridiagonal (d, e).

    Raises ValueError when it reaches past half the float range, where a
    bisection's midpoints and stopping width would overflow.
    """
    radius = np.zeros(d.size)
    if d.size > 1:
        radius[: d.size - 1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    if not math.isfinite(2.0 * max(abs(lo), abs(hi))):  # hi - lo and lo + hi would overflow
        raise ValueError(f"Gershgorin interval [{lo:g}, {hi:g}] reaches past half the float range")
    return lo, hi


def _sturm_input(d, e, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d, e and e**2 as float arrays, checked for the Sturm entry point that name names.

    Raises ValueError for an empty d, and when d, e or e**2 has a non-finite
    entry; only e**2 enters a count, so spectra are exactly even in the
    sign of e. The Gershgorin interval is checked where it is formed.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.size < 1:
        raise ValueError("empty tridiagonal matrix")
    with np.errstate(over="ignore"):
        e2 = e * e
    if not (np.isfinite(d).all() and np.isfinite(e2).all()):
        raise ValueError(f"{name} needs finite d and e, with e**2 finite")
    return d, e, e2


def tridiag_eigvals_lowest(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the symmetric tridiagonal (d, e), ascending.

    Bisection with Sturm counts, bisecting all k target indices in lockstep.
    Raises ValueError for k outside 1..n, for input that _sturm_input
    rejects, and when the Gershgorin interval reaches past half the float
    range.
    """
    d, e, e2 = _sturm_input(d, e, "tridiag_eigvals_lowest")
    if not 1 <= k <= d.size:
        raise ValueError(f"k={k} out of range for dimension {d.size}")
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


def _sturm_level(d, e2, stop: _SturmStop, index: int, lo: float, hi: float, guess: float, width: float) -> float:
    """Eigenvalue index (0-based, ascending) by Sturm bisection of [lo, hi], which must hold it.

    d and e2 are sequences (diagonal and squared off-diagonal) and stop
    their _sturm_stop data. With scale = max(|lo|, |hi|, 1), pivots below
    eps scale are clamped and the bisection ends at width 4 eps scale.

    First a bracket (a, b) of the level is confirmed around guess: on each
    side, the end guess -/+ w, w from max(width, 16 eps scale), is checked
    by one count and moved out 16-fold while the level lies beyond it; an
    end that falls outside (lo, hi) is not counted, so a guess at lo or hi
    confirms one side only, and a guess outside [lo, hi] (or NaN) none.
    The bisection then takes the midpoints of [lo, hi] but counts only
    those strictly inside (a, b): one at or below a moves lo, one at or
    above b moves hi. The floating-point Sturm count is monotone in the
    shift (Demmel, Dhillon & Ren 1995), so an uncounted midpoint falls on
    the side its count would have given, and the value is bit-identical to
    counting every midpoint: guess and width set the cost only. Were the
    count not monotone, the final [lo, hi] would still hold
    [max(lo, a), min(hi, b)], whose ends carry real counts on either side
    of index + 1.
    """
    scale = max(abs(lo), abs(hi), 1.0)
    tiny = _EPS * scale
    target = index + 1
    a, b = lo, hi
    for sign in (-1.0, 1.0):
        w = max(width, 16.0 * tiny)
        while a < guess + sign * w < b:
            x = guess + sign * w
            above = _sturm_count(d, e2, x, tiny, stop) >= target  # the level lies below x
            a, b = (a, x) if above else (x, b)
            if above == (sign > 0.0):
                break
            w *= 16.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b or _sturm_count(d, e2, mid, tiny, stop) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * tiny:
            break
    return 0.5 * (lo + hi)


def tridiag_eigval_near(d: np.ndarray, e: np.ndarray, index: int, guess: float, width: float) -> float:
    """Eigenvalue index (0-based, ascending) of the symmetric tridiagonal (d, e).

    The value is the Sturm bisection of the Gershgorin interval to width
    4 eps scale (scale its largest magnitude or 1), whatever guess and width
    are: they only set the cost. A bracket guess -/+ width that counts
    confirm (_sturm_level) lets the bisection skip every count outside it,
    so a good guess costs a few counts and a wrong one a few more. Raises
    ValueError for an index outside 0..n-1 and for input that
    _sturm_input rejects.
    """
    d, e, e2 = _sturm_input(d, e, "tridiag_eigval_near")
    if not 0 <= index < d.size:
        raise ValueError(f"index={index} out of range for dimension {d.size}")
    lo, hi = _gershgorin(d, e)
    return _sturm_level(d.tolist(), e2.tolist(), _sturm_stop(d, np.abs(e)), index, lo, hi, guess, width)


def tridiag_eigval_within(
    d: np.ndarray, e: np.ndarray, x: float, radius: float
) -> tuple[int, float] | None:
    """Index and value of the eigenvalue of the symmetric tridiagonal (d, e) nearest x,
    or None when no eigenvalue lies within radius of x.

    Sturm counts at x - radius, x and x + radius give the numbers of
    eigenvalues below each shift, so the nearest is index c - 1 (the highest
    below x) or c (the lowest at or above it). Each is bisected only when
    the window holds it, and only on its half of the window,
    [x - radius, x] or [x, x + radius], with x, the end the halves share, as
    the guess (_sturm_level): a bracket next to x is confirmed inside the
    half window, so a level next to x, as at an exact point in verify, costs
    a few counts, and the value is bit-identical to bisecting the half
    window with a count at every midpoint. On a tie the lower index wins.
    Every count ends once its sign pattern is certified (_sturm_stop), so a
    count costs the rows up to the level's support, not O(n), and no
    eigenvectors are formed. Raises ValueError for a non-finite x, a radius
    that is not finite and non-negative, and input that _sturm_input
    rejects.
    """
    d, e, e2 = _sturm_input(d, e, "tridiag_eigval_within")
    x, radius = float(x), float(radius)
    if not (math.isfinite(x) and 0.0 <= radius < math.inf):
        raise ValueError(f"tridiag_eigval_within needs a finite x and a finite radius >= 0, got x={x}, radius={radius}")
    lo, hi = _gershgorin(d, e)
    tiny = _EPS * max(abs(lo), abs(hi), 1.0)
    stop = _sturm_stop(d, np.abs(e))
    dl, e2l = d.tolist(), e2.tolist()
    left, right = x - radius, x + radius
    c_left, c, c_right = (_sturm_count(dl, e2l, s, tiny, stop) for s in (left, x, right))

    best: tuple[int, float] | None = None
    if c > c_left:
        best = (c - 1, _sturm_level(dl, e2l, stop, c - 1, left, x, x, 0.0))
    if c_right > c:
        value = _sturm_level(dl, e2l, stop, c, x, right, x, 0.0)
        if best is None or abs(value - x) < abs(best[1] - x):
            best = (c, value)
    return best


def _inverse_step(
    dl: list, el: list, interval: tuple[float, float], shift: float, start: np.ndarray
) -> np.ndarray:
    """One step of inverse iteration on the symmetric tridiagonal (d, e).

    dl and el are d and e as lists, interval their Gershgorin interval
    (formed once by a caller that solves many shifts on one matrix), and
    start an ndarray of the same length. Solves (T - shift) x = start
    through the LDL^T factorization, without pivoting, with pivots smaller
    than eps times the Gershgorin scale pushed out to that size, as in the
    Sturm count; returns x normalized, signed so that x . start > 0. With
    shift at an isolated eigenvalue and a start vector close to its
    eigenvector, x is that eigenvector to about eps times ||T|| over the
    gap. O(n), no eigenvalues formed.
    """
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

