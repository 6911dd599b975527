"""Isolated exact eigenstates on the baselines E = N - lam^2.

The two-component eigenproblem is transformed to coherent bosons a = b -/+ lam,
where a finite Ansatz (N coefficients p alongside N+1 coefficients q) closes
the Schroedinger equation exactly provided a compatibility determinant in
x = lam^2 vanishes. This module builds that system, extracts its roots,
reconstructs the finite states in the original Fock basis, and verifies each
point against an independent truncated-basis diagonalization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bosons import DEFAULT_CUTOFF, displaced_number_states
from .numerics import (
    Polynomial,
    RootCountError,
    _sturm_count,
    null_vector,
    poly_eval,
    tridiag_det_poly,
    tridiag_eigval_within,
)
from .rabi import ModelParams, _apply_rabi, _block_arrays

_SQRT_HALF = math.sqrt(0.5)
_EPS = sys.float_info.epsilon
# every root x of order N lies below N * _ROOT_BOUND (Gershgorin on T(x))
_ROOT_BOUND = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
# verify_point accepts a block level only this close to E
_LEVEL_WINDOW = 1e-3


def baseline_energy(N: int, lam: float) -> float:
    """Energy of the N-th baseline, E = N - lam^2 (scaled units)."""
    if int(N) < 1:
        raise ValueError("N must be a positive integer")
    lam = float(lam)
    return N - lam * lam


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


def _reduced_matrix(N: int, omega_tilde: float, x: float) -> np.ndarray:
    # The N x N tridiagonal system on p alone, from the full system by
    # eliminating q_n = wt p_n / (N - n) and q_N = -2 lam sqrt(N) p_{N-1} / wt.
    # The reduced form is certified only by the root-set checks against the
    # full form.
    wt = float(omega_tilde)
    n = np.arange(N, dtype=float)
    diag = n - N + 4.0 * x + wt * wt / (N - n)
    A = np.diag(diag)
    if N > 1:
        off = 2.0 * math.sqrt(x) * np.sqrt(n[1:])
        A += np.diag(off, 1) + np.diag(off, -1)
    return A


def compatibility_polynomial(N: int, omega_tilde: float) -> Polynomial:
    """Degree-N polynomial in x = lam^2 whose positive roots locate the points.

    Determinant of the reduced tridiagonal system: diagonal entries
    n - N + 4x + wt^2/(N - n) are linear in x and the squared off-diagonals
    4(n+1)x are as well, so the three-term recurrence assembles the
    coefficients directly. Leading coefficient is 4^N > 0.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    wt = float(omega_tilde)
    diag = [
        Polynomial((n - N + wt * wt / (N - n), 4.0)) for n in range(N)
    ]
    offdiag_sq = [Polynomial((0.0, 4.0 * (n + 1.0))) for n in range(N - 1)]
    return tridiag_det_poly(diag, offdiag_sq)


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
    det_residual: float
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


def _compatibility_count(N: int, omega_tilde: float) -> tuple[Callable[[float], int], float]:
    """The root-counting function of the compatibility determinant, and its bound.

    count(x) is the number of negative LDL^T pivots of the reduced matrix
    T(x) (diagonal n - N + 4x + wt^2/(N - n), squared off-diagonal 4xn), the
    Sturm count of T(x) below zero. It falls by one across each root and is
    zero at x_max = N (3 + 2 sqrt 2) / 4, where Gershgorin makes T(x)
    positive definite.
    """
    wt2 = float(omega_tilde) ** 2
    d0 = [n - N + wt2 / (N - n) for n in range(N)]
    e4 = [4.0 * n for n in range(1, N)]
    x_max = N * _ROOT_BOUND
    tiny = _EPS * (max(abs(v) for v in d0) + 4.0 * x_max)

    def count(x: float) -> int:
        return _sturm_count(d0, [x * c for c in e4], -4.0 * x, tiny)

    return count, x_max


def _uncertified(found: list[float], expected: int, reason: str) -> RootCountError:
    err = RootCountError(found, expected)
    err.args = (f"{err.args[0]}: {reason}",)
    return err


def _compatibility_roots(N: int, omega_tilde: float) -> list[float]:
    """Positive roots x of the compatibility determinant, ascending, certified.

    Root j sits where count(x) drops from R - j to R - j - 1. Bisection runs
    on a list of brackets [lo, hi] with their counts: one count at the
    midpoint serves every root the bracket still holds, and a half with no
    drop is discarded. A bracket is final at width 4 eps hi and must then
    hold exactly one drop, which certifies a sign change of det T(x).
    Raises RootCountError when the count at 0+ is not R, the count at the
    bound is not 0, a midpoint count lies outside its bracket's counts, or a
    final bracket holds more than one root.
    """
    count, x_max = _compatibility_count(N, omega_tilde)
    expected = _expected_root_count(N, omega_tilde)
    at_zero, at_bound = count(sys.float_info.min), count(x_max)
    if at_zero != expected or at_bound != 0:
        raise _uncertified(
            [], expected,
            f"pivot count {at_zero} at x = 0+ and {at_bound} at x = {x_max:g}",
        )

    roots: list[float] = []
    brackets = [(0.0, x_max, expected, 0)] if expected else []
    while brackets:
        split = []
        for lo, hi, c_lo, c_hi in brackets:
            mid = 0.5 * (lo + hi)
            if hi - lo <= 4.0 * _EPS * hi or not lo < mid < hi:
                if c_lo - c_hi != 1:
                    raise _uncertified(
                        roots, expected,
                        f"{c_lo - c_hi} roots left in [{lo!r}, {hi!r}]",
                    )
                roots.append(mid)
                continue
            c_mid = count(mid)
            if not c_hi <= c_mid <= c_lo:
                raise _uncertified(
                    roots, expected,
                    f"pivot count {c_mid} at x = {mid!r} outside [{c_hi}, {c_lo}]",
                )
            if c_lo > c_mid:
                split.append((lo, mid, c_lo, c_mid))
            if c_mid > c_hi:
                split.append((mid, hi, c_mid, c_hi))
        brackets = split
    roots.sort()
    return roots


def juddian_points(N: int, params: ModelParams) -> list[JuddianPoint]:
    """All Juddian points of order N for the given model, ascending in g.

    The roots x = lam^2 of the compatibility determinant are found by Sturm
    counting in x: the number of negative pivots of the reduced tridiagonal
    T(x) is #{k in 1..N : k > omega_tilde} at x = 0+ (N at resonance) and
    falls by one across each root, so every root is bisected to 4 eps
    relative inside the Gershgorin bound N (3 + 2 sqrt 2) / 4 and certified
    by its bracket's count drop of one (see _compatibility_roots). At an
    integer omega_tilde the root at x = 0 is excluded. The roots map to
    lam = sqrt(x), g = lam omega / 2, E = N - lam^2; det_residual is the
    scaled compatibility polynomial at each root.

    Raises RootCountError when the count cannot be certified. omega_tilde
    = 0 is rejected: that limit solves every coupling exactly and has no
    isolated points. A negative omega_tilde is rejected too: sigma_x maps
    H(-omega0) onto H(|omega0|) with the same g and E and the parities
    swapped, so its points are those of |omega0|.
    """
    N = int(N)
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
    roots = _compatibility_roots(N, wt)

    poly = compatibility_polynomial(N, wt)
    scale = max(abs(c) for c in poly.coeffs)
    points = []
    for idx, x in enumerate(roots):
        lam = math.sqrt(x)
        xx = lam * lam  # evaluate residual at the representable square
        residual = abs(poly_eval(poly, xx)) / (scale * max(1.0, xx) ** poly.degree)
        points.append(
            JuddianPoint(
                N=N,
                root_index=idx,
                lam=lam,
                g=0.5 * lam * params.omega,
                E=N - lam * lam,
                det_residual=residual,
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
    """Null vector of the full system, assembled in the original Fock basis.

    The (p, q) split solves the full (2N+1) system on the point's coherent
    branch; its sign is null_vector's (first component above 1e-12
    positive), so p leads with a positive entry. The displaced number
    states D(z)|n>, z = sign * lam, n <= N, start from the closed-form
    coherent state D(z)|0> and follow the ladder recurrence
    D|n+1> = (b+ - z) D|n> / sqrt(n+1) on the truncated basis, each step
    corrected by one inverse iteration (bosons.displaced_number_states), at
    O(N M) cost; the sums over p and q are accumulated as they go, and no
    matrix is formed. The two spinor components are then rotated from the
    coupling-diagonal representation to the assembly basis (the Hadamard
    map up = (c1 + c2)/sqrt(2), down = (c1 - c2)/sqrt(2)) and normalized.

    Raises ValueError when cutoff < N or z^2 > cutoff/4.
    """
    M = int(cutoff)
    N = point.N
    if M < N:
        raise ValueError(f"cutoff {M} too small for Ansatz order {N}")
    sign = point.displacement_sign
    x = point.lam * point.lam

    system = build_full_system(N, point.omega_tilde, x, lam_sign=sign)
    v = null_vector(system)
    p = v[:N].copy()
    q = v[N:].copy()
    if abs(q[N]) <= 1e-12:
        raise RuntimeError("degenerate null vector: q_N vanished")

    coupled = np.zeros(M + 1)
    diagonal = np.zeros(M + 1)
    states = displaced_number_states(sign * point.lam, M, N + 1)
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

    tail_weight is the weight of the unit reconstructed state on the top
    ceil(M/10) Fock levels, both spins: a cutoff-health figure that stays
    far below the verification tolerances while the cutoff is adequate.
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


def verify_point(point: JuddianPoint, cutoff: int = DEFAULT_CUTOFF) -> VerificationReport:
    """Cross-check one point against the truncated-basis spectrum.

    In each parity block at g = point.g, Sturm counts at E - 1e-3, E and
    E + 1e-3 locate the block's eigenvalues in that window; of the highest
    below E and the lowest at or above it, each is bisected only if the
    window holds it, and the nearer to E is kept (the lower index on a tie).
    The opposite-parity gap |E+ - E-| is recorded on the report; the point
    itself is left unchanged. The reconstructed state's eigen-residual
    ||(H - E) psi|| on the same cutoff is included, with H applied through
    its band, and so is the state's tail weight. No matrix is formed, so
    the cost is linear in the cutoff.

    Raises RuntimeError when either block has no eigenvalue within 1e-3 of
    E - the signature of an under-sized cutoff or an invalid point.
    """
    M = int(cutoff)
    params = point.model_params()

    nearest = []
    for parity in (1, -1):
        diag, off = _block_arrays(params, M, parity)
        found = tridiag_eigval_within(diag, off, point.E, _LEVEL_WINDOW)
        if found is None:
            raise RuntimeError(
                f"no eigenvalue within 1e-3 of E={point.E:.6f} in the "
                f"parity {parity:+d} block at cutoff {M}; increase the cutoff"
            )
        nearest.append(found)
    (idx_p, e_p), (idx_m, e_m) = nearest
    gap = abs(e_p - e_m)

    state = reconstruct_state(point, M)
    psi = state.fock_vector
    resid = _apply_rabi(params, psi) - point.E * psi
    eigen_residual = math.sqrt(float(resid @ resid))
    tail = psi[2 * (M + 1 - math.ceil(M / 10)):]

    return VerificationReport(
        point=point,
        cutoff=M,
        energy_plus=e_p,
        energy_minus=e_m,
        level_plus=idx_p,
        level_minus=idx_m,
        degeneracy_gap=gap,
        eigen_residual=eigen_residual,
        tail_weight=float(tail @ tail),
    )
