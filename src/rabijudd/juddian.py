"""Isolated exact eigenstates on the baselines E = N - lam^2.

The two-component eigenproblem is transformed to coherent bosons a = b -/+ lam,
where a finite Ansatz (N coefficients p alongside N+1 coefficients q) closes
the Schroedinger equation exactly provided a compatibility determinant in
x = lam^2 vanishes. This module finds its roots and the finite states from
the reduced tridiagonal T(x) alone, and verifies each point against an
independent truncated-basis spectrum. The full system and the coefficients
of det T(x) are references for the tests and the benchmark's probes; the
tests take the determinants themselves from LAPACK.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

from ._numpy import np
from .bosons import DEFAULT_CUTOFF, displaced_number_states, support_rows
from .numerics import FullRankError, RootCountError, _gershgorin, _integral, _inverse_step
from .rabi import ModelParams, _apply_rabi, _block_arrays, _block_counts

_SQRT_HALF = math.sqrt(0.5)
_EPS = sys.float_info.epsilon
# every root x of order N lies below N * _ROOT_BOUND (Gershgorin on T(x))
_ROOT_BOUND = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
# the root search gives up after this many rounds of counts
_ROUNDS = 400
# verify_point widens its certificate at most this far from E
_MAX_DELTA = 1e-3


def build_full_system(N: int, omega_tilde: float, x: float, lam_sign: int = 1) -> np.ndarray:
    """The (2N+1)-dimensional linear system on (p_0..p_{N-1}, q_0..q_N).

    Rows are the coefficient equations of the two spinor components after the
    coherent transform, with E = N - x substituted and lam = sqrt(x):

        A_n: wt q_n + (n - N + 4x) p_n + 2 lam sqrt(n) p_{n-1}
                                       + 2 lam sqrt(n+1) p_{n+1}   (n = 0..N-1)
        A_N: wt q_N + 2 lam sqrt(N) p_{N-1}
        B_n: wt p_n + (n - N) q_n                                   (n = 0..N-1)

    lam_sign = -1 builds the mirrored branch a = b + lam (lam -> -lam), whose
    determinant is identical since the sign flip is a similarity by
    diag((-1)^n).
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    x = float(x)
    if x < 0.0:
        raise ValueError("x = lam^2 cannot be negative")
    if lam_sign not in (1, -1):
        raise ValueError("lam_sign must be +1 or -1")
    wt = float(omega_tilde)
    lam = lam_sign * math.sqrt(x)

    dim = 2 * N + 1
    A = np.zeros((dim, dim))
    for m in range(N + 1):
        A[m, N + m] = wt
        if m <= N - 1:
            A[m, m] = m - N + 4.0 * x
        if m >= 1:
            A[m, m - 1] += 2.0 * lam * math.sqrt(m)
        if m + 1 <= N - 1:
            A[m, m + 1] += 2.0 * lam * math.sqrt(m + 1.0)
    for m in range(N):
        A[N + 1 + m, m] = wt
        A[N + 1 + m, N + m] = m - N
    return A


def _reduced_band(N: int, omega_tilde: float) -> tuple[list[float], list[float]]:
    # The N x N tridiagonal T(x) on p alone, from the full system by
    # eliminating q_n = wt p_n / (N - n) and q_N = -2 lam sqrt(N) p_{N-1} / wt:
    # diagonal d0_n + 4x and squared off-diagonal x e4_n, returned as (d0, e4).
    wt = float(omega_tilde)
    d0 = [n - N + wt * wt / (N - n) for n in range(N)]
    e4 = [4.0 * n for n in range(1, N)]
    return d0, e4


def compatibility_polynomial(N: int, omega_tilde: float) -> tuple[float, ...]:
    """Coefficients of the degree-N polynomial in x = lam^2 whose positive
    roots locate the points; entry k multiplies x**k.

    det T(x): its diagonal d0_n + 4x and squared off-diagonal x e4_{n-1} are
    linear in x, so the three-term recurrence D_n = (d0_n + 4x) D_{n-1}
    - x e4_{n-1} D_{n-2} over the leading minors assembles the coefficients
    directly. Leading coefficient is 4^N > 0.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    d0, e4 = _reduced_band(N, omega_tilde)
    prev, cur = [1.0], [d0[0], 4.0]
    for a, b in zip(d0[1:], e4):
        # 0.0 + turns a -0.0 product into +0.0: no coefficient is ever -0.0
        nxt = [0.0 + a * c for c in cur] + [0.0]
        for k, c in enumerate(cur):
            nxt[k + 1] += 4.0 * c
        for k, c in enumerate(prev):
            nxt[k + 1] -= b * c
        prev, cur = cur, nxt
    return tuple(cur)


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
    displaced number states D(z)|n>, z = sign * lam, n <= N, start from the
    closed-form coherent state D(z)|0> and follow the ladder recurrence
    D|n+1> = (b+ - z) D|n> / sqrt(n+1) on the truncated basis, each step
    corrected by one inverse iteration (bosons.displaced_number_states).
    The states are built on their support, the rows below
    R = (lam + sqrt(N) + 6)^2 (bosons.support_rows), and are zero above
    it, so the Python-level work is O(N R), not O(N M); the sums over p and
    q, one O(M) array operation per state, are accumulated as they go, and
    no matrix is formed. The two spinor components are then rotated from
    the coupling-diagonal representation to the assembly basis (the
    Hadamard map up = (c1 + c2)/sqrt(2), down = (c1 - c2)/sqrt(2)) and
    normalized.

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
        p = _inverse_step(dl, el, interval, 0.0, p)
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

    coupled = np.zeros(M + 1)
    diagonal = np.zeros(M + 1)
    states = displaced_number_states(sign * lam, M, N + 1)
    for n, column in enumerate(states):
        if n < N:
            coupled += p[n] * column
        diagonal += q[n] * column
    if sign == 1:
        comp1, comp2 = coupled, diagonal
    else:
        comp1, comp2 = diagonal, coupled

    fock = np.empty(2 * (M + 1))
    fock[0::2] = _SQRT_HALF * (comp1 + comp2)
    fock[1::2] = _SQRT_HALF * (comp1 - comp2)
    fock /= math.sqrt(float(fock @ fock))
    return JuddianState(p=p, q=q, displacement_sign=sign, fock_vector=fock)


def alternate_branch(point: JuddianPoint) -> JuddianPoint:
    """The same point on the mirrored coherent branch (a = b + lam for -1)."""
    return replace(point, displacement_sign=-point.displacement_sign)


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


def verify_point(point: JuddianPoint, cutoff: int = DEFAULT_CUTOFF) -> VerificationReport:
    """Cross-check one point against the truncated-basis spectrum.

    Two Sturm counts per parity block at g = point.g, at E -/+ delta,
    certify how many of its levels lie in [E - delta, E + delta)
    (rabi._block_counts); nothing is bisected. delta starts at 64 eps
    max(|lo|, |hi|, 1) over both blocks' Gershgorin intervals and grows
    16-fold, up to 1e-3, while a block shows no level. The report gives the
    levels' indices (the counts at E - delta), energy_plus = energy_minus = E
    and degeneracy_gap = 2 delta, a certified bound on |E+ - E-|; the point
    is left unchanged. It adds the reconstructed state's eigen-residual
    ||(H - E) psi|| on the same cutoff, with H applied through its band, its
    tail weight and its support rows. No matrix is formed and each count
    stops early, so the cost is O(N R) plus a linear pass over the cutoff.

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

    (d_plus, off), (d_minus, _) = (_block_arrays(params, M, parity) for parity in (1, -1))
    blocks = [(d, d.tolist()) for d in (d_plus, d_minus)]
    delta = 64.0 * _EPS * max(abs(end) for d in (d_plus, d_minus) for end in (*_gershgorin(d, off), 1.0))
    while True:
        counts = _block_counts(blocks, off, E, delta)
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

    state = reconstruct_state(point, M)
    psi = state.fock_vector
    resid = _apply_rabi(params, psi) - E * psi
    eigen_residual = math.sqrt(float(resid @ resid))
    tail = psi[2 * (M + 1 - math.ceil(M / 10)):]

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
        support_rows=support_rows(point.lam, point.N),
    )
