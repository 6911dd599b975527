"""Self-contained numerical kernel.

Package paths run on Sturm counts of symmetric tridiagonal matrices. The
lowest k eigenvalues come from bisection, set up per matrix by
_bisection_start (which refuses a Gershgorin interval past half the float
range): tridiag_eigvals_lowest checks one matrix and bisects it level by
level with the scalar _sturm_count, and _sturm_lowest_batch walks the
sweep's two parity blocks over a coupling grid in lockstep, with the same
bits. A count at one shift (_sturm_count, which ends early by _sturm_stop)
certifies the levels next to a point without bisecting them: verify and the
crossing detector count both parity blocks at E -/+ delta, through stop data
built once on the largest coupling they serve (juddian._block_counter), and
the difference is the number of levels in between. _integral refuses a count
argument that int() would change. Inverse iteration at shift 0
(_inverse_step) gives the null vector of T(x) for juddian.reconstruct_state,
from lists and a Gershgorin interval formed once.
Kept for tests and benchmark tasks:
sym_eig (eigenvalues only, for a matrix whose connected components are
each tridiagonal in index order; it rejects any other; each component is
scaled by a power of two and solved by root-free QL on its diagonal and
squared couplings, as LAPACK's dsterf, in Python floats; below the row
being converged, its Python scan for a split runs only when the smallest
coupling, found at C speed, lies below a floor that every split threshold
stays under, so the oscillators' sweeps scan nothing and the values are
the scan's bit for bit), poly_real_roots (a
sign-change scan, each sign change bisected, for polynomials held as
coefficient tuples) and Gaussian elimination for null vectors. Every
eigenvalue path reads the couplings only as e**2, so its values are
exactly even in their signs. Dense matrices and determinants are left to
the tests, which check against LAPACK.
ndarrays serve storage and elementwise/matmul arithmetic only; there are no
calls into numpy.linalg or any external solver. numpy is the package's lazy
handle (rabijudd._numpy), loaded by the first function here that reads it;
the scalar Sturm counts and the QL sweep run on Python floats, and eps and
the QL split's floor come from sys.float_info, so juddian_points loads no
numpy and its scalars stay Python floats.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from ._numpy import np

_EPS = sys.float_info.epsilon


class NonConvergenceError(RuntimeError):
    """QL iteration exceeded the sweep cap for one eigenvalue."""

    def __init__(self, index: int):
        super().__init__(f"eigenvalue {index} failed to converge within 30 QL sweeps")
        self.index = index


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
# polynomials


def poly_eval(p: tuple[float, ...], x):
    """Horner evaluation of the coefficient tuple p, p[k] times x**k, at a scalar or ndarray x."""
    acc = 0.0 * x if isinstance(x, np.ndarray) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _bisect_root(p: tuple[float, ...], a: float, b: float) -> float:
    """A root of p in the cell (a, b), at whose ends p has opposite signs: the
    cell is halved until no float lies between its ends, or p is 0 at its midpoint."""
    fa = poly_eval(p, a)
    m = 0.5 * (a + b)
    while a < m < b and (fm := poly_eval(p, m)) != 0.0:
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
        m = 0.5 * (a + b)
    return m


def poly_real_roots(
    p: tuple[float, ...],
    bracket: tuple[float, float],
    expected_count: int | None = None,
) -> list[float]:
    """The real roots of odd multiplicity inside the open bracket of the
    polynomial whose coefficient tuple is p (p[k] multiplies x**k), one per
    grid cell, ascending.

    Trailing zero coefficients are dropped first. A uniform scan of 1000
    intervals takes each interior grid point where p is exactly 0 as a root
    and bisects each cell whose ends p gives opposite signs (_bisect_root).
    A root of even multiplicity, or a second root in one cell, is not seen.
    When expected_count is given and fewer roots are found, RootCountError
    is raised, carrying the roots found.

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

    grid = np.linspace(lo, hi, 1001)
    xs, vals = grid.tolist(), poly_eval(p, grid).tolist()
    roots: list[float] = []
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:  # an interior grid point: p is nonzero at lo
            roots.append(a)
        elif fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect_root(p, a, b))
    if expected_count is not None and len(roots) < expected_count:
        raise RootCountError(roots, expected_count)
    return roots


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


def _ql_implicit(d: list, e2: list) -> None:
    """Root-free implicit-shift QL on tridiagonal (d, e**2), in place, on Python floats.

    d and e2 are lists: the diagonal, and e2[j] = T[j, j+1]**2 with
    e2[n-1] = 0; on return d holds the eigenvalues, unsorted. This is the
    Pal-Walker-Kahan form of Reinsch's root-free QL (tqlrat) that LAPACK's
    dsterf runs (Parlett, The Symmetric Eigenvalue Problem, section 8.15): the
    chase carries squared sines and cosines, so its rotations take no hypot
    and no square root; only the Wilkinson shift does, once per sweep, from
    sqrt(e2[l]). The matrix splits at the first j >= l with
    e2[j] <= eps**2 |d[j] d[j+1]| + float_info.min: dsterf's relative test,
    with the floor that keeps zero diagonals splitting at negligible
    couplings; the first step of the chase sets that coupling to 0. The
    caller scales the matrix (sym_eig) so that e**2 neither overflows nor
    underflows. Raises NonConvergenceError after 30 sweeps on a single
    eigenvalue.

    Row l, whose coupling the sweeps drive to zero, is tested first, on its
    own. The scan of the rows below it runs in Python, so it is skipped when
    none of them can split: every iterate is orthogonally similar to the
    input, so each of its diagonal entries is bounded by the input's norm,
    at most max|d| + 2 max|e| (Gershgorin); B, twice that, bounds every
    |d[j]| strictly, with room for rounding. When min(e2[l+1:n-1]), taken
    at C speed, exceeds the floor eps**2 B**2 + float_info.min, it exceeds
    every e2[j] <= eps**2 |d[j] d[j+1]| + float_info.min test as well, and
    the block runs to n - 1 as the scan would find. Otherwise the scan runs,
    so the exact relative test still decides every split and the values are
    those of the scan alone, bit for bit. Row l is left out of the minimum:
    its coupling falls through the gap between its own threshold and the
    floor as it converges, and on a graded chain's top rows, an
    oscillator's, that gap spans a factor of about 1e5, so a minimum over
    it would rescan the chain on many sweeps. The other couplings of an
    oscillator chain never come near the floor, so its sweeps take no scan.
    """
    n = len(d)
    eps2, tiny, sqrt, hypot, copysign = _EPS * _EPS, sys.float_info.min, math.sqrt, math.hypot, math.copysign
    bound = 2.0 * (max(map(abs, d)) + 2.0 * sqrt(max(e2)))
    floor = eps2 * bound * bound + tiny
    for l in range(n - 1):  # d[n-1] is final once every row above it has split off
        sweeps = 0
        while e2[l] > eps2 * abs(d[l] * d[l + 1]) + tiny:
            m = n - 1
            if min(e2[l + 1 : m], default=math.inf) <= floor:
                for m in range(l + 1, n - 1):
                    if e2[m] <= eps2 * abs(d[m] * d[m + 1]) + tiny:
                        break
                else:
                    m = n - 1
            sweeps += 1
            if sweeps > 30:
                raise NonConvergenceError(l)
            rte = sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            sigma = d[l] - rte / (sigma + copysign(hypot(sigma, 1.0), sigma))
            c, s = 1.0, 0.0
            gamma = d[m] - sigma
            p = gamma * gamma
            for i in range(m - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[i + 1] = s * r  # 0 on the first step (s = 0): e2[m] splits off
                oldc = c
                c = p / r
                s = bb / r
                oldgam = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e2[l] = s * p
            d[l] = sigma + gamma


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
    joined spectra of the components. Each component is multiplied by the
    power of two that brings its largest |entry| into [1/2, 1) (exact in
    binary, dsterf's scaling step), so its squared couplings neither
    overflow nor underflow; _ql_implicit solves it and the values are scaled
    back. The solve therefore sees the same numbers for A and 2**k A, whose
    values are 2**k times A's bit for bit while every entry and value stays
    a normal float. Raises ValueError naming the first index of any other
    component.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("sym_eig needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("sym_eig needs finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("sym_eig needs an exactly symmetric matrix")

    values: list[np.ndarray] = []
    for idx in _components(A):
        B = A if len(idx) == A.shape[0] else A[np.ix_(idx, idx)]
        if np.count_nonzero(B) != np.count_nonzero(np.diagonal(B)) + 2 * np.count_nonzero(np.diagonal(B, 1)):
            raise ValueError(f"sym_eig needs chains: the component at index {idx[0]} is not tridiagonal in index order")
        diag, off = np.diagonal(B), np.diagonal(B, 1)
        # a power of two brings the largest |entry| into [1/2, 1): exact, and e**2 stays in range
        _, exp = math.frexp(max(float(np.max(np.abs(diag))), float(np.max(np.abs(off), initial=0.0))))
        off = np.ldexp(off, -exp)
        d, e2 = np.ldexp(diag, -exp).tolist(), (off * off).tolist() + [0.0]
        _ql_implicit(d, e2)
        values.append(np.ldexp(d, exp))
    return EigResult(values=np.sort(np.concatenate(values), kind="stable"))


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


def _sturm_lowest_batch(diags: np.ndarray, e2_cols: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues of every tridiagonal made of one of the diagonals
    and one of the coupling columns.

    diags has shape (P, n), one diagonal per row (the sweep case: the two
    parity blocks); e2_cols has shape (n-1, G), one squared off-diagonal
    per column (a coupling that scales over the grid). Returns shape
    (P, G, k), ascending along the last axis. All P*k*G bisections advance
    in one lockstep walk, so the whole sweep costs one Sturm recurrence per
    bisection step. Each diagonal is bisected exactly as it would be alone:
    its own _bisection_start on the row-wise maximum |e| and its own width
    test, after which its lanes are dropped from the walk. Raises ValueError
    when a diagonal's Gershgorin interval reaches past half the float range,
    where the midpoints and the stopping width would overflow.

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
    e2_cols = np.asarray(e2_cols, dtype=float)
    e_max = np.sqrt(np.max(e2_cols, axis=1, initial=0.0))
    tiny, lo, hi, width, stops = zip(*(_bisection_start(d, e_max, k) for d in diags))
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
    tiny, width = np.array(tiny)[:, None, None], np.array(width)
    targets = np.arange(1, k + 1, dtype=np.int32)[:, None]
    for _ in range(90):
        np.multiply(np.add(los, his, out=mids), 0.5, out=mids)
        tiny_top = float(np.max(tiny))
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

