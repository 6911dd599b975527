"""Self-contained numerical kernel.

Package paths run on Sturm counts of symmetric tridiagonal matrices. The
lowest k eigenvalues come from bisection, set up per matrix by
_bisection_start (which refuses a Gershgorin interval past half the float
range): tridiag_eigvals_lowest checks one matrix and bisects it level by
level with the scalar _sturm_count, and _sturm_lowest_batch walks the
sweep's two parity blocks over a coupling grid in lockstep, with the same
bits, on couplings root_j lam_g whose rows it squares when it first reaches
them. A count at one shift (_sturm_count, which ends early by _sturm_stop)
certifies the levels next to a point without bisecting them: verify and the
crossing detector count both parity blocks at E -/+ delta, through stop data
built once on the largest coupling they serve (juddian._block_counter), and
the difference is the number of levels in between. _integral refuses a count
argument that int() would change. Inverse iteration at shift 0
(_inverse_step) gives the null vector of T(x) for juddian.reconstruct_state,
from lists and a Gershgorin interval formed once.
Every eigenvalue path reads the couplings only as e**2, so its values are
exactly even in their signs.
ndarrays serve storage and elementwise/matmul arithmetic only; there are no
calls into numpy.linalg or any external solver. numpy is the package's lazy
handle (rabijudd._numpy), loaded by the first function here that reads it;
the scalar Sturm counts run on Python floats and eps comes from
sys.float_info, so juddian_points loads no numpy and its scalars stay
Python floats.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from typing import NamedTuple

from ._numpy import np

_EPS = sys.float_info.epsilon


class FullRankError(RuntimeError):
    """A system taken to be singular is numerically full-rank."""


class RootCountError(RuntimeError):
    """A root search that cannot account for the expected number of roots.

    poly_real_roots raises it when its scan finds fewer roots than expected;
    the certified compatibility-root finder raises it when a Sturm pivot
    count fails one of its checks, with the failed check appended to the
    message.
    """

    def __init__(self, found: list[float], expected: int, reason: str = ""):
        super().__init__(f"found {len(found)} roots where {expected} were expected{reason}")
        self.found = found
        self.expected = expected


def _integral(value, name: str) -> int:
    # int() would cut 2.5 down to 2, parse "3" and take True for 1; each is refused
    whole = int(value)
    if isinstance(value, bool) or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


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


def _bisection_start(d: np.ndarray, e_max: np.ndarray, k: int) -> tuple:
    """Pivot clamp, Gershgorin interval, stop width and _sturm_stop data of (d, e), |e| <= e_max.

    Levels 1..k lie below the leading k x k block's top Gershgorin end (Cauchy
    interlacing), so a count at or above it plus the stop margin is at least k:
    hi halves while the midpoint is there and the halved bracket exceeds width.
    """
    tiny = _EPS * (float(np.max(np.abs(d))) + float(np.max(e_max, initial=0.0)) + 1.0)
    lo, hi = _gershgorin(d, e_max)
    width = 4.0 * _EPS * max(hi - lo, 1.0)
    stop = _sturm_stop(d, e_max)
    left, right = np.append(0.0, e_max), np.append(e_max, 0.0)  # in the block, row k - 1 has no right coupling
    top = max(float(d[k - 1] + left[k - 1]), float(np.max((d + left + right)[: k - 1], initial=-math.inf)))
    cap = top + _STOP_MARGIN * (stop.scale + abs(top))
    while (mid := 0.5 * (lo + hi)) >= cap and mid - lo > width:
        hi = mid
    return tiny, lo, hi, width, stop


def tridiag_eigvals_lowest(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the symmetric tridiagonal (d, e), ascending.

    Each level is bisected with _sturm_count on Python floats, one step each
    until the widest bracket is within width, as _sturm_lowest_batch walks,
    so the values are its values bit for bit. Raises ValueError for an empty
    or non-1-D d, an e not one shorter, a non-finite d, e or e**2 (only e**2
    enters a count, so spectra are exactly even in the sign of e), k outside
    1..n or not an integer (_integral), and a Gershgorin interval past half
    the float range.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if d.size < 1:
        raise ValueError("empty tridiagonal matrix")
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError(f"tridiag_eigvals_lowest needs 1-D d and e one shorter, got shapes {d.shape} and {e.shape}")
    with np.errstate(over="ignore"):
        e2 = e * e
    if not (np.isfinite(d).all() and np.isfinite(e2).all()):
        raise ValueError("tridiag_eigvals_lowest needs finite d and e, with e**2 finite")
    k = _integral(k, "k")
    if not 1 <= k <= d.size:
        raise ValueError(f"k={k} out of range for dimension {d.size}")
    tiny, lo, hi, width, stop = _bisection_start(d, np.sqrt(e2), k)
    dl, e2, los, his = d.tolist(), e2.tolist(), [lo] * k, [hi] * k
    for _ in range(90):
        for t in range(k):
            mid = 0.5 * (los[t] + his[t])  # level t (from 0) lies above mid when at most t lie below
            (los if _sturm_count(dl, e2, mid, tiny, stop) <= t else his)[t] = mid
        if max(b - a for a, b in zip(los, his)) <= width:
            break
    return np.array([0.5 * (a + b) for a, b in zip(los, his)])


def _sturm_lowest_batch(diags: np.ndarray, root: np.ndarray, lam: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of every tridiagonal made of one of the diagonals
    and the couplings root_j lam_g at one grid value lam_g.

    diags has shape (P, n), one diagonal per row (the sweep case: the two
    parity blocks); root has shape (n-1,) and lam shape (G,), and grid
    value g has the off-diagonal root * lam[g] (sqrt(j) 2 g / omega in the
    sweep). Returns shape (P, G, k), ascending along the last axis. All
    P*k*G bisections advance in one lockstep walk, so the whole sweep costs
    one Sturm recurrence per bisection step. Each diagonal is bisected
    exactly as it would be alone: its own _bisection_start on the row-wise
    maximum |e| and its own width test; a diagonal that passes it before
    the others sets its values aside, to be written back into the last
    midpoints, and is walked on with them. Raises ValueError when a
    diagonal's Gershgorin interval reaches past half the float range,
    where the midpoints and the stopping width would overflow.

    Row i's (G,) squared couplings (root[i-1] lam)^2 are formed when a
    count first reaches row i and kept, so rows past every early stop are
    never formed. The row-wise maximum is the square at the largest |lam|,
    since fl(fl(r lam)^2) never decreases as |lam| grows (rounding is
    monotone and even). The lanes are laid out (P, k, G), so a row's e^2
    broadcasts along the innermost axis. The pivots, the e^2 / q quotients,
    a mask and the int32 negative-pivot counts live in buffers of that
    shape; each row writes them by ufuncs with out=, rounding
    d_i - x - e^2 / q in the order of the full-length recurrence.

    The recurrence ends early by the rule of _sturm_stop, with one bound
    for every lane: the row-wise maximum |e|, which every diagonal shares.
    A lane with couplings |e_j| below that maximum b_j keeps the induction,
    since q_{j-1} >= b_{j-1} gives e_{j-1}^2 / q_{j-1} <= b_{j-1}, so the
    slack of the maximal couplings and a shift no lower than every lane's
    (the largest midpoint) certify all lanes of a diagonal at once. Every 4
    rows from the latest first row any diagonal's slack allows, the loop
    ends once every lane's pivot is at least b_i.

    The walk starts at _bisection_start's lowered hi: each halving is a step
    whose count, at or above level k's cap, would set hi = mid in every lane,
    so the brackets are the same and a wide interval's early steps walk no rows.

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
    root, lam = np.asarray(root, dtype=float), np.asarray(lam, dtype=float)
    e_max = np.sqrt(np.square(root * lam[np.argmax(np.abs(lam))]))
    tiny, lo, hi, width, stops = zip(*(_bisection_start(d, e_max, k) for d in diags))
    bound = stops[0].bound  # the same for every diagonal: it depends on e_max alone

    P, n = diags.shape
    shape = (P, k, lam.size)
    los = np.broadcast_to(np.array(lo)[:, None, None], shape).copy()
    his = np.broadcast_to(np.array(hi)[:, None, None], shape).copy()
    mids, q, t = (np.empty(shape) for _ in range(3))
    small = np.empty(shape, dtype=bool)
    count = np.empty(shape, dtype=np.int32)
    d_rows = diags.T[:, :, None, None]  # d_rows[i] has shape (P, 1, 1)
    tiny, width = np.array(tiny)[:, None, None], np.array(width)
    tiny_top = float(np.max(tiny))
    targets = np.arange(1, k + 1, dtype=np.int32)[:, None]
    e2, aside = [], {}  # e2[i - 1] is row i's squared couplings; aside[p] is diagonal p's values
    for _ in range(90):
        np.multiply(np.add(los, his, out=mids), 0.5, out=mids)
        first = max(stop.first_row(float(m.max()), float(max(m.max(), -m.min()))) for stop, m in zip(stops, mids))
        np.subtract(d_rows[0], mids, out=q)
        np.less(q, 0.0, out=count)
        for i in range(1, n):
            if i > len(e2):
                e2.append(np.square(root[i - 1] * lam))
            np.abs(q, out=t)
            if t.min() < tiny_top:
                np.less(t, tiny, out=small)
                np.copyto(q, np.where(q < 0.0, -tiny, tiny), where=small)
            # d_i - x - e2 / q, rounded in that order
            np.divide(e2[i - 1], q, out=t)
            np.subtract(d_rows[i], mids, out=q)
            np.subtract(q, t, out=q)
            np.add(count, np.less(q, 0.0, out=small), out=count)
            if i >= first and (i - first) % 4 == 0 and q.min() >= bound[i]:
                break
        np.less(count, targets, out=small)  # the target level lies above the midpoint
        np.copyto(los, mids, where=small)
        np.copyto(his, mids, where=np.logical_not(small, out=small))
        done = np.max(np.subtract(his, los, out=t), axis=(1, 2)) <= width
        if done.all():
            break
        for p in np.flatnonzero(done):
            if p not in aside:
                aside[p] = 0.5 * (los[p] + his[p])
    np.multiply(np.add(los, his, out=mids), 0.5, out=mids)
    for p, values in aside.items():
        mids[p] = values
    return mids.transpose(0, 2, 1)


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
    full-length count exactly. scale >= float_info.min keeps eps scale > 0.
    """
    n = d.size
    b = np.zeros(n + 1)
    b[1:n] = bound
    slack = d - b[:n] - b[1:]
    suffix = np.minimum.accumulate(slack[::-1])[::-1]
    scale = max(float(np.max(np.abs(d))) + 2.0 * float(np.max(b)), sys.float_info.min)
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


def _inverse_step(dl: list, el: list, interval: tuple[float, float], start: np.ndarray) -> np.ndarray:
    """One step of inverse iteration at shift 0 on the symmetric tridiagonal (d, e).

    dl and el are d and e as lists, interval their Gershgorin interval
    (formed once by the caller for all its steps on one matrix), and start
    an ndarray of the same length. Solves T x = start through the LDL^T
    factorization, without pivoting, with pivots smaller than eps times the
    Gershgorin scale pushed out to that size, as in the Sturm count;
    returns x normalized, signed so that x . start > 0. With an isolated
    eigenvalue at 0 and a start vector close to its eigenvector, x is that
    eigenvector to about eps ||T|| over the gap. O(n).
    """
    tiny = _EPS * max(abs(interval[0]), abs(interval[1]), 1.0)
    neg_tiny = -tiny
    rhs = start.tolist()
    # forward elimination: pivots q_i = d_i - (e_{i-1} / q_{i-1}) e_{i-1}, with
    # e_{-1} = 0, so row 0 takes q_0 = d_0 - 0.0 = d_0 and y_0 = b_0 exactly
    q, y = 1.0, 0.0
    pivots, ys = [], []
    for d, e, b in zip(dl, [0.0] + el, rhs):
        ratio = e / q
        q = d - ratio * e
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
