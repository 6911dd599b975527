"""Isolated exact eigenstates on the baselines E = N - lam^2.

The two-component eigenproblem is transformed to coherent bosons a = b -/+ lam,
where a finite Ansatz (N coefficients p alongside N+1 coefficients q) closes
the Schroedinger equation exactly provided a compatibility determinant in
x = lam^2 vanishes. This module finds its roots and the finite states from
the reduced tridiagonal T(x) alone; Sturm counts of the parity blocks,
through one counter per point or per table (_block_counter), certify a
point (verify_point) and a sweep's crossings, which are points
(find_crossings).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from ._numpy import np
from .bosons import DEFAULT_CUTOFF, displaced_number_states, support_rows
from .numerics import _EPS, FullRankError, RootCountError, _gershgorin, _integral, _inverse_step, _sturm_count, _sturm_stop
from .rabi import ModelParams, SpectrumTable, _apply_rabi, _block_layout

_SQRT_HALF = math.sqrt(0.5)
# every root x of order N lies below N * _ROOT_BOUND (Gershgorin on T(x))
_ROOT_BOUND = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
# the root search gives up after this many rounds of counts
_ROUNDS = 400
# verify_point widens its certificate at most this far from E
_MAX_DELTA = 1e-3
# find_crossings certifies both levels of a crossing within half this of E_star
_CROSSING_TOL = 1e-9


def _reduced_band(N: int, omega_tilde: float) -> tuple[list[float], list[float]]:
    # The N x N tridiagonal T(x) on p alone, from the full system by
    # eliminating q_n = wt p_n / (N - n) and q_N = -2 lam sqrt(N) p_{N-1} / wt:
    # diagonal d0_n + 4x and squared off-diagonal x e4_n, returned as (d0, e4).
    wt = float(omega_tilde)
    d0 = [n - N + wt * wt / (N - n) for n in range(N)]
    e4 = [4.0 * n for n in range(1, N)]
    return d0, e4


@dataclass
class JuddianPoint:
    """One isolated exact solution.

    E = N - lam*lam holds as a floating-point identity by construction.
    displacement_sign selects the coherent branch (a = b - lam for +1,
    a = b + lam for -1) used when the state is reconstructed. The
    verification diagnostics live on VerificationReport (verify_point).
    """

    N: int
    root_index: int
    lam: float
    g: float
    E: float
    omega_tilde: float
    displacement_sign: int = 1

    def model_params(self) -> ModelParams:
        """Physical parameters this point belongs to (omega from g / lam)."""
        omega = 2.0 * self.g / self.lam
        return ModelParams(omega=omega, omega0=2.0 * self.omega_tilde * omega, g=self.g)


def _expected_root_count(N: int, omega_tilde: float) -> int:
    """Number of positive compatibility roots of order N: #{k in 1..N : k > wt}.

    At x = 0 the reduced matrix is diagonal with pivots (wt^2 - k^2) / k,
    k = N - n, so this many of its eigenvalues are negative, and none is
    left at the Gershgorin bound. The roots are real (Kus 1985); that the
    count never rises in between, so each root drops it by one, is a tested
    property rather than a proved one.
    """
    return sum(1 for k in range(1, N + 1) if k > omega_tilde)


def _compatibility_count(N: int, omega_tilde: float) -> tuple[Callable[[float], tuple], float]:
    """The root-counting function of the compatibility determinant, and its bound.

    count(x) is (c, q): c the number of negative LDL^T pivots of the reduced
    matrix T(x), the Sturm count of T(x) below zero, and q its last pivot,
    det T(x) / det T_{N-1}(x), from the same pass. c falls by one across each
    root and is zero at x_max = N (3 + 2 sqrt 2) / 4, where Gershgorin makes
    T(x) positive definite. The pivots q_0 = d0_0 + 4x,
    q_n = d0_n + 4x - x e4_{n-1} / q_{n-1} walk all N rows, since the last
    one is wanted; one below tiny in magnitude is pushed out to +/- tiny.
    The row pairs (d0_n, e4_{n-1}) are zipped once per order, so each pass
    walks them without indexing.
    """
    d0, e4 = _reduced_band(N, omega_tilde)
    x_max = N * _ROOT_BOUND
    tiny = _EPS * (max(abs(v) for v in d0) + 4.0 * x_max)
    neg_tiny = -tiny
    first, rows = d0[0], list(zip(d0[1:], e4))

    def count(x: float) -> tuple[int, float]:
        x4 = 4.0 * x
        q = first + x4
        c = 1 if q < 0.0 else 0
        for d, e in rows:
            if neg_tiny < q < tiny:
                q = neg_tiny if q < 0.0 else tiny
            q = d + x4 - x * e / q
            if q < 0.0:
                c += 1
        return c, q

    return count, x_max


def _compatibility_roots(N: int, omega_tilde: float) -> list[float]:
    """Positive roots x of the compatibility determinant, ascending, certified.

    Root j sits where count(x) drops from R - j to R - j - 1. Each round
    counts once inside every bracket [lo, hi] and keeps the parts holding a
    drop. Several drops: the midpoint splits. One drop: regula falsi with
    the Illinois weighting (Dowell & Jarratt 1971) on the last pivot q of
    T(x) proposes a point at least 2 eps hi inside, and the count there
    decides the side; the midpoint stands in while q_lo, q_hi share a sign
    (q has poles where det T_{N-1} vanishes) and after three trials that did
    not halve the bracket. A bracket is final at width 4 eps hi and must
    then hold exactly one drop, certifying a sign change of det T(x). Raises
    RootCountError when the count at 0+ is not R or at the bound not 0, a
    trial count lies out of its bracket's, a final bracket holds more than
    one root, or brackets are left after _ROUNDS rounds.
    """
    count, x_max = _compatibility_count(N, omega_tilde)
    expected = _expected_root_count(N, omega_tilde)
    roots: list[float] = []

    def fail(reason: str) -> RootCountError:
        return RootCountError(roots, expected, f": {reason}")

    (at_zero, q_zero), (at_bound, q_bound) = count(sys.float_info.min), count(x_max)
    if at_zero != expected or at_bound != 0:
        raise fail(f"pivot count {at_zero} at x = 0+ and {at_bound} at x = {x_max:g}")
    # (lo, hi, counts, last pivots, width w at the last halving, k trials since, end replaced last)
    brackets = [(0.0, x_max, expected, 0, q_zero, q_bound, x_max, 0, 0)] if expected else []
    for _ in range(_ROUNDS):
        split = []
        for lo, hi, c_lo, c_hi, q_lo, q_hi, w, k, side in brackets:
            x = 0.5 * (lo + hi)
            width = hi - lo
            if width <= 4.0 * _EPS * hi or not lo < x < hi:
                if c_lo - c_hi != 1:
                    raise fail(f"{c_lo - c_hi} roots left in [{lo!r}, {hi!r}]")
                roots.append(x)
                continue
            if width <= 0.5 * w:
                w, k = width, 0
            if k < 3 and c_lo - c_hi == 1 and q_lo * q_hi <= 0.0 and q_lo != q_hi:
                margin = 2.0 * _EPS * hi
                x = lo - q_lo * width / (q_hi - q_lo)
                if x < lo + margin:
                    x = lo + margin
                if x > hi - margin:
                    x = hi - margin
            c, q = count(x)
            if not c_hi <= c <= c_lo:
                raise fail(f"pivot count {c} at x = {x!r} outside [{c_hi}, {c_lo}]")
            if c_lo > c:  # x replaces hi; the end kept twice in a row has its q halved
                split.append((lo, x, c_lo, c, q_lo * 0.5 if side < 0 else q_lo, q, w, k + 1, -1))
            if c > c_hi:
                split.append((x, hi, c, c_hi, q, q_hi * 0.5 if side > 0 else q_hi, w, k + 1, 1))
        brackets = split
        if not brackets:
            return sorted(roots)
    raise fail(f"{len(brackets)} brackets left after {_ROUNDS} rounds")


def juddian_points(N: int, params: ModelParams) -> list[JuddianPoint]:
    """All Juddian points of order N for the given model, ascending in g.

    The roots x = lam^2 of the compatibility determinant are found by Sturm
    counting in x: the number of negative pivots of the reduced tridiagonal
    T(x) is #{k in 1..N : k > omega_tilde} at x = 0+ (N at resonance) and
    falls by one across each root. The count splits the Gershgorin bound
    N (3 + 2 sqrt 2) / 4 into brackets of one root, which count-sided regula
    falsi narrows to 4 eps relative, certified by the count drop of one (see
    _compatibility_roots). At an integer omega_tilde the root at x = 0 is
    excluded. The roots map to lam = sqrt(x), g = lam omega / 2, E = N - lam^2.

    Raises RootCountError when the count cannot be certified. omega_tilde
    = 0 is rejected: that limit solves every coupling exactly and has no
    isolated points. A negative omega_tilde is rejected too: sigma_x maps
    H(-omega0) onto H(|omega0|) with the same g and E and the parities
    swapped, so its points are those of |omega0|. An N that int() would
    change (2.5, "3") raises ValueError.
    """
    N = _integral(N, "N")
    if N < 1:
        raise ValueError("N must be a positive integer")
    wt = params.omega_tilde
    if wt < 0.0:
        raise ValueError(
            "omega0 must be positive: H(-omega0) is sigma_x-equivalent to "
            "H(|omega0|), with the same g and E and the parities swapped; "
            "pass |omega0|"
        )
    if wt == 0.0:
        raise ValueError(
            "omega_tilde must be positive: the omega0 = 0 limit is exactly "
            "solvable at every coupling and has no isolated points"
        )
    points = []
    for idx, x in enumerate(_compatibility_roots(N, wt)):
        lam = math.sqrt(x)
        points.append(
            JuddianPoint(
                N=N,
                root_index=idx,
                lam=lam,
                g=0.5 * lam * params.omega,
                E=N - lam * lam,
                omega_tilde=wt,
            )
        )
    return points


@dataclass
class JuddianState:
    """Finite coherent-basis coefficients and their Fock-basis image.

    p (length N) weights the coupled spinor component, q (length N+1) the
    diagonal one; for displacement_sign = +1 these are the first and second
    components, for -1 the roles are interchanged. fock_vector is the unit
    state on the assembly basis (index 2n for spin up, 2n+1 for down).
    """

    p: np.ndarray
    q: np.ndarray
    displacement_sign: int
    fock_vector: np.ndarray


def reconstruct_state(point: JuddianPoint, cutoff: int = DEFAULT_CUTOFF) -> JuddianState:
    """The point's finite state, assembled in the original Fock basis.

    p is the null vector of T(x) on the point's branch (off-diagonal
    2 sign lam sqrt(n)), from two inverse-iteration steps at shift 0 started
    from ones; q follows from p by the eliminations. (p, q) is normalized
    with its first component above 1e-12 positive, null_vector's sign. The
    displaced number states D(z)|n>, z = sign * lam, n <= N, are the columns
    of bosons.displaced_number_states, built from the Laguerre closed form of
    their matrix elements on their support, the K = min(M + 1, R) rows below
    R = (lam + sqrt(N) + 6)^2 (bosons.support_rows); the two sums are the
    products S[:, :N] @ p and S @ q, O(N K), and the state is zero above
    them, so nothing here grows with M but the zero padding. The two spinor
    components are then rotated from the coupling-diagonal representation to
    the assembly basis (the Hadamard map up = (c1 + c2)/sqrt(2), down =
    (c1 - c2)/sqrt(2)) and normalized.

    Raises ValueError when the cutoff is not an integer (int() would change
    it), cutoff < N or z^2 > cutoff/4, and FullRankError off the locus,
    when ||T(x) p|| > 1e-10 (max|d0| + 4x + 2 max|e|).
    """
    M = _integral(cutoff, "cutoff")
    N = point.N
    if M < N:
        raise ValueError(f"cutoff {M} too small for Ansatz order {N}")
    sign, lam, wt = point.displacement_sign, point.lam, point.omega_tilde
    x = lam * lam
    d0, e4 = _reduced_band(N, wt)
    d = np.array(d0) + 4.0 * x
    e = sign * lam * np.sqrt(e4)
    p = np.ones(N)
    dl, el, interval = d.tolist(), e.tolist(), _gershgorin(d, e)
    for _ in range(2):
        p = _inverse_step(dl, el, interval, p)
    residual = d * p
    residual[:-1] += e * p[1:]
    residual[1:] += e * p[:-1]
    norm = math.sqrt(float(residual @ residual))
    # max|d0| + 4x + 2 max|e|, the scale before cancellation: ||T(x)|| vanishes at N = 1
    scale = max(map(abs, d0)) + 4.0 * x + 4.0 * lam * math.sqrt(N - 1)
    if norm > 1e-10 * scale:
        raise FullRankError(f"||T(x) p|| = {norm:.3e} at scale {scale:.3e}: off the locus")
    # q_N = c / wt overflows as wt -> 0, so v is formed over 2^k, exactly
    c = -2.0 * sign * lam * math.sqrt(N) * p[-1]
    k = max(math.frexp(c)[1] - math.frexp(wt)[1], 0)
    v = np.ldexp(np.concatenate((p, wt * p / (N - np.arange(N)), [0.0])), -k)
    v[-1] = c / math.ldexp(wt, k)
    norm = math.sqrt(float(v @ v))
    v /= math.copysign(norm, v[np.argmax(np.abs(v) > 1e-12 * norm)])
    p, q = v[:N], v[N:]

    states = displaced_number_states(sign * lam, M, N + 1)
    coupled, diagonal = states[:, :N] @ p, states @ q
    if sign == 1:
        comp1, comp2 = coupled, diagonal
    else:
        comp1, comp2 = diagonal, coupled

    fock = np.zeros(2 * (M + 1))
    support = fock[:2 * states.shape[0]]  # a view: the rest stays zero
    support[0::2] = _SQRT_HALF * (comp1 + comp2)
    support[1::2] = _SQRT_HALF * (comp1 - comp2)
    support /= math.sqrt(float(support @ support))
    return JuddianState(p=p, q=q, displacement_sign=sign, fock_vector=fock)


@dataclass(frozen=True)
class VerificationReport:
    """Independent diagnostics for one point at a given cutoff.

    Each parity block holds exactly one level within delta of E, certified
    by Sturm counts (verify_point): level_plus and level_minus are their
    indices, energy_plus = energy_minus = E, and degeneracy_gap = 2 delta
    bounds |E+ - E-|.

    tail_weight is the weight of the unit reconstructed state on the top
    ceil(M/10) Fock levels, both spins: a cutoff-health figure that stays
    far below the verification tolerances while the cutoff is adequate.
    The state is built on its support rows and is zero above them, so
    tail_weight reads exactly 0 when support_rows <= M + 1 - ceil(M/10);
    a cutoff short of the support still shows as weight in the tail.

    support_rows is ceil(R), R = (lam + sqrt(N) + 6)^2, the rows that hold
    the point's displaced number states (bosons.support_rows). A cutoff
    M >= R keeps the whole state; R is sufficient, not necessary, so a
    point with M < R may still pass.
    """

    point: JuddianPoint
    cutoff: int
    energy_plus: float
    energy_minus: float
    level_plus: int
    level_minus: int
    degeneracy_gap: float
    eigen_residual: float
    tail_weight: float
    support_rows: int


def _block_counter(diags, root: np.ndarray, lam_max: float) -> Callable:
    """Sturm counts of the blocks (diags[p], lam root) at any |lam| <= |lam_max|.

    count(lam, E, delta) gives (below, above) per diagonal, its levels below
    E -/+ delta: the block holds above - below levels in [E - delta,
    E + delta), the lowest of index below. Each diagonal's list, _sturm_stop
    data on the bound |lam_max| root and tiny = eps stop.scale are built
    once. The stop needs only |e_j| <= b_j, so each count equals the
    full-length count with that tiny, exact for a matrix within a few
    eps ||T|| of the block (Kahan 1966; Demmel, Dhillon & Ren 1995).
    """
    blocks = []
    for d in diags:
        stop = _sturm_stop(d, abs(lam_max) * root)
        blocks.append((d.tolist(), _EPS * stop.scale, stop))

    def count(lam: float, E: float, delta: float) -> list[tuple[int, int]]:
        e2 = np.square(lam * root).tolist()
        return [(_sturm_count(dl, e2, E - delta, tiny, stop), _sturm_count(dl, e2, E + delta, tiny, stop))
                for dl, tiny, stop in blocks]

    return count


def verify_point(point: JuddianPoint, cutoff: int = DEFAULT_CUTOFF) -> VerificationReport:
    """Cross-check one point against the truncated-basis spectrum.

    Two Sturm counts per parity block at g = point.g, at E -/+ delta,
    certify how many of its levels lie in [E - delta, E + delta); nothing
    is bisected. One _block_counter at the point's lam serves every delta:
    delta starts at 64 eps max(|lo|, |hi|, 1) over both blocks' Gershgorin
    intervals and grows 16-fold, up to 1e-3, while a block shows no level.
    The report gives the levels' indices (the counts at E - delta),
    energy_plus = energy_minus = E and degeneracy_gap = 2 delta, a certified
    bound on |E+ - E-|; the point is left unchanged. It adds the reconstructed state's eigen-residual
    ||(H - E) psi|| on the same cutoff, with H applied through its band on
    the min(M + 1, R + 1) rows where it can be nonzero, its tail weight and
    its support rows R. No matrix is formed and each count stops early, so
    the cost is O(N R) plus the block diagonals' linear pass over the cutoff.

    Raises RuntimeError when a block has no level within 1e-3 of E (an
    under-sized cutoff or an invalid point) or more than one within delta,
    and ValueError for a cutoff that is negative or not an integer (int()
    would change it).
    """
    M = _integral(cutoff, "cutoff")
    if M < 0:
        raise ValueError(f"cutoff must be non-negative, got {M}")
    params = point.model_params()
    E = point.E
    diags, root = _block_layout(params, M)
    count = _block_counter(diags, root, params.lam)
    delta = 64.0 * _EPS * max(abs(end) for d in diags for end in (*_gershgorin(d, params.lam * root), 1.0))
    while True:
        counts = count(params.lam, E, delta)
        held = [above - below for below, above in counts]
        for parity, n in zip((1, -1), held):
            if n > 1:
                raise RuntimeError(
                    f"{n} eigenvalues within {delta:.3g} of E={E:.6f} in the "
                    f"parity {parity:+d} block at cutoff {M}; the level is not isolated"
                )
        if 0 not in held:
            break
        if delta >= _MAX_DELTA:
            raise RuntimeError(
                f"no eigenvalue within 1e-3 of E={E:.6f} in the "
                f"parity {(1, -1)[held.index(0)]:+d} block at cutoff {M}; increase the cutoff"
            )
        delta = min(16.0 * delta, _MAX_DELTA)

    fock = reconstruct_state(point, M).fock_vector
    support = support_rows(point.lam, point.N)
    # the state is zero from row R on, so (H - E) psi is zero from row R + 1 on
    psi = fock[:2 * min(M + 1, support + 1)]
    resid = _apply_rabi(params, psi) - E * psi
    eigen_residual = math.sqrt(float(resid @ resid))
    tail = fock[2 * (M + 1 - math.ceil(M / 10)):]

    return VerificationReport(
        point=point,
        cutoff=M,
        energy_plus=E,
        energy_minus=E,
        level_plus=counts[0][0],
        level_minus=counts[1][0],
        degeneracy_gap=2.0 * delta,
        eigen_residual=eigen_residual,
        tail_weight=float(tail @ tail),
        support_rows=support,
    )


@dataclass(frozen=True)
class Crossing:
    """A degeneracy between level i of the + block and level j of the - block."""

    g_star: float
    E_star: float
    level_plus: int
    level_minus: int


def find_crossings(table: SpectrumTable) -> list[Crossing]:
    """Opposite-parity degeneracies on the table, each an exact (Juddian) point.

    Such levels meet only on the baselines E = N - lam^2 (Kus 1985; Braak
    2011), so the points are enumerated, not searched for. With h the
    largest step, a crossing at g* >= 0 has a row g_m in [g*, g* + h], and
    one at g* < 0 a row in [g* - h, g*], so |g_m| >= |g*|; its levels lie
    at most rise = 4 sqrt(M) h / omega above that row's top level
    (Hellmann-Feynman), so E* <= cap_m = top_m + rise and its order
    N = E* + lam*^2 <= cap_m + (2 g_m / omega)^2. The orders run
    1 .. floor(n_cap) + 1, n_cap the largest such bound over the rows; the
    candidates are their points (juddian_points for |omega0|) at +g and -g
    in the grid with E <= E_cap, the table's top level + rise, and (0, N)
    when the grid spans g = 0, omega_tilde lies within _CROSSING_TOL of an
    integer and N <= E_cap + _CROSSING_TOL: at g = 0 the blocks' levels are
    n -/+ omega_tilde, so otherwise none lies within 0.5 _CROSSING_TOL of
    the integer N, and a level there below level k lies at most its
    bisection width (far below 0.5 _CROSSING_TOL) above the top level of
    the g = 0 row, itself at most E_cap. One _block_counter, built for the table at
    lam_max = 2 max|g| / omega, counts each candidate at its own lam at
    E* -/+ 5e-10: i (+) and j (-) levels lie below it, and it is a crossing
    when each block holds one level there and i, j < k. g_star and E_star
    are the point's bit for bit; results ascend in g_star.

    Raises ValueError at omega0 = 0, where the blocks are isospectral at
    every g, and when a point with i, j < k is not a level of both blocks;
    the message names the point, its order, the cutoff and the rows it needs.
    """
    p, g, M = table.params, table.g_values, table.cutoff
    if p.omega0 == 0.0:
        raise ValueError("omega0 must be nonzero: at omega0 = 0 the parity blocks are isospectral at every g")
    k, lo, hi = table.levels_plus.shape[1], float(g[0]), float(g[-1])
    step = float(np.max(np.diff(g))) if g.size > 1 else 0.0
    rise = 4.0 * math.sqrt(M) * step / p.omega
    caps = np.maximum(table.levels_plus.max(axis=1), table.levels_minus.max(axis=1)) + rise
    e_cap, n_cap = float(caps.max()), float(np.max(caps + (2.0 * np.abs(g) / p.omega) ** 2))
    abs_params = ModelParams(p.omega, abs(p.omega0))
    count = _block_counter(*_block_layout(p, M), 2.0 * max(abs(lo), abs(hi)) / p.omega)

    g_zero = lo <= 0.0 <= hi and abs(p.omega_tilde - round(p.omega_tilde)) <= _CROSSING_TOL
    crossings = []
    for N in range(1, int(n_cap) + 2):
        candidates = [(0.0, float(N), None)] if g_zero and N <= e_cap + _CROSSING_TOL else []
        candidates += [(s * pt.g, pt.E, pt) for pt in juddian_points(N, abs_params) for s in (1.0, -1.0)
                       if lo <= s * pt.g <= hi and pt.E <= e_cap]
        for gs, E, pt in candidates:
            (i, i_top), (j, j_top) = count(2.0 * gs / p.omega, E, 0.5 * _CROSSING_TOL)
            if i >= k or j >= k:
                continue
            if i_top - i == j_top - j == 1:
                crossings.append(Crossing(gs, E, i, j))
            elif pt is not None:
                raise ValueError(
                    f"Juddian point g={gs!r}, E={E!r} of order N={N} (levels +{i}, -{j}) is not one level "
                    f"of each block at cutoff {M}: they hold {i_top - i} and {j_top - j} within "
                    f"{0.5 * _CROSSING_TOL:g} of it; its states need support_rows R = {support_rows(pt.lam, N)}"
                )
    crossings.sort(key=lambda c: (c.g_star, c.level_plus, c.level_minus))
    return crossings
