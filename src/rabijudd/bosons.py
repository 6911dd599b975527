"""Truncated Fock-space boson algebra.

Ladder operators on the lowest M+1 number states, the displaced number
states D(z)|n> from the Laguerre closed form of their matrix elements on the
rows that hold them (support_rows), squeeze parameters on the physical
branch, and the displaced / squeezed oscillators, each written once as its
band (diagonal, coupling, stride): oscillator_levels bisects each chain's
levels with the scalar Sturm count for the validation suite's spectra. The
dense band matrices and the dense displacement matrix (scaling and squaring
of the truncated generator) are references for tests and probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .numerics import _integral, tridiag_eigvals_lowest

#: Highest retained occupation number (basis size 101) used throughout
#: validation; large enough that coherent-state tails at the couplings of
#: interest fall below the verification tolerances.
DEFAULT_CUTOFF = 100


def ladder_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Create, annihilate, and number matrices on the (M+1)-state basis.

    <n+1|b+|n> = sqrt(n+1), annihilate is the exact transpose, and the
    number operator is diagonal {0..M}; M must be an integer >= 0.
    """
    M = _integral(cutoff, "cutoff")
    if M < 0:
        raise ValueError("cutoff must be non-negative")
    root = np.sqrt(np.arange(1.0, M + 1.0))
    create = np.diag(root, -1)
    annihilate = create.T.copy()
    number = np.diag(np.arange(M + 1.0))
    return create, annihilate, number


def _check_displacement(z: float, M: int) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("displacement amplitude must be finite")
    if z * z > M / 4.0:
        raise ValueError(
            f"displacement z={z} too large for cutoff {M}: need z^2 <= M/4"
        )
    return z


def support_rows(z: float, n: int) -> int:
    """ceil(R), R = (|z| + sqrt(n) + 6)^2: the rows that carry D(z)|m> for every m <= n.

    D(z)|m> lives in Fock space around the classical turning points
    (|z| -/+ sqrt(m))^2 and decays faster than a Gaussian beyond them;
    six more units of sqrt(row) leave less than 1e-45 of its weight above
    R (see displaced_number_states for the tested margin). R exceeds both
    guards of the state reconstruction: n, and 4 z^2 when z^2 <= M/4.
    """
    return math.ceil((abs(z) + math.sqrt(n) + 6.0) ** 2)


def displaced_number_states(z: float, cutoff: int, count: int) -> np.ndarray:
    """D(z)|n> for n = 0..count-1 as the columns of a (K, count) array S.

    S holds the K = min(M + 1, support_rows(z, count - 1)) rows that can be
    nonzero (the same build on all M + 1 rows holds at most 3e-25 past them,
    at z^2 <= M/4 and count <= 101), and its entries are those of the
    untruncated D(z) (Cahill & Glauber 1969): S[n + a, n] = f_n(a) and, as
    D(z)^T = D(-z), S[m, n] = (-1)^(n-m) f_m(n - m) for m < n, where

        f_n(a) = <n + a|D(z)|n> = sqrt(n! / (n + a)!) z^a exp(-z^2/2) L_n^(a)(z^2).

    f_0 is the coherent state, formed by one exponential at its peak
    m0 = floor(z^2) and running products of the ratios z / sqrt(m) outward,
    so nothing over- or underflows. The normalized Laguerre recurrence
    f_{n+1}(a) = [(2n + 1 + a - z^2) f_n(a) - sqrt(n (n + a)) f_{n-1}(a)]
    / sqrt((n + 1)(n + 1 + a)) gives each further column as one array
    expression over every diagonal a: O(count K), no Python loop over rows.
    The diagonals run apart, so S is bit-identical to the first K rows of
    the build on all M + 1. Against 40-digit references every entry is
    within 4e-15 for |z| <= 7.5 and n <= 100; beyond, the coherent state's
    exponential rounds to a relative 1e-13 (2e-14 in an entry near z^2 = 600).

    Raises ValueError when z^2 > M/4, like displacement_matrix, and when the
    cutoff or count is not an integer (int() would change it).
    """
    M = _integral(cutoff, "cutoff")
    count = _integral(count, "count")
    z = _check_displacement(z, M)
    rows = min(M + 1, support_rows(z, max(count - 1, 0)))
    width = max(rows, count)  # the diagonals a < count also fill S above its diagonal
    if count < 1:
        return np.zeros((rows, 0))
    states = np.zeros((count, width))  # states[n, m] = S[m, n]
    if z == 0.0:
        states[0, 0] = 1.0
    else:
        a, column = abs(z), states[0]
        m0 = int(a * a)
        root = np.sqrt(np.arange(1.0, float(width)))
        column[m0] = math.exp(m0 * math.log(a) - 0.5 * a * a - 0.5 * math.lgamma(m0 + 1.0))
        column[m0 + 1:] = column[m0] * np.cumprod(a / root[m0:])
        column[:m0] = column[m0] * np.cumprod(root[:m0][::-1] / a)[::-1]
        if z < 0.0:
            column[1::2] = -column[1::2]
    n, alpha = np.arange(count - 1.0)[:, None], np.arange(float(width))
    grow = 2.0 * n + 1.0 - z * z + alpha
    fall = np.sqrt(n * (n + alpha))
    scale = np.sqrt((n + 1.0) * (n + 1.0 + alpha))
    for k in range(count - 1):
        span = width - k - 1
        step = grow[k, :span] * states[k, k:width - 1]
        if k:
            step -= fall[k, :span] * states[k - 1, k - 1:width - 2]
        states[k + 1, k + 1:] = step / scale[k, :span]
    lead = states[:, :count]  # S[m, n] = (-1)^(n-m) S[n, m] for m < n
    mirror = lead.T.copy()
    mirror[1::2, 0::2] *= -1.0
    mirror[0::2, 1::2] *= -1.0
    np.copyto(lead, mirror, where=np.tri(count, k=-1, dtype=bool))
    return states[:, :rows].T


def displacement_matrix(z: float, cutoff: int) -> np.ndarray:
    """Matrix of exp(z (b+ - b)) on the truncated basis.

    Scaling-and-squaring of the truncated antisymmetric generator: the scaled
    one-norm is brought below 1/2, the exponential is summed by Taylor series,
    and the result squared back up. Antisymmetry of the generator makes the
    output orthogonal up to truncation, and column 0 carries the coherent-state
    amplitudes exp(-z^2/2) z^n / sqrt(n!).

    Raises ValueError when z^2 > M/4: beyond that the displaced vacuum has
    non-negligible weight above the cutoff and the represented columns would
    be silently corrupted.

    O(M^3 log) and no longer on any package path: it is the dense reference
    the tests compare the recurrence-built displaced number states against.
    """
    M = _integral(cutoff, "cutoff")
    z = _check_displacement(z, M)
    create, annihilate, _ = ladder_matrices(M)
    G = z * (create - annihilate)

    one_norm = float(np.max(np.sum(np.abs(G), axis=0))) if M > 0 else 0.0
    squarings = 0
    while one_norm > 0.5:
        one_norm *= 0.5
        squarings += 1
    X = G / float(2**squarings)

    D = np.eye(M + 1)
    term = np.eye(M + 1)
    for k in range(1, 40):
        term = term @ X / k
        D += term
        if float(np.max(np.abs(term))) < 1e-17:
            break
    else:
        raise RuntimeError("displacement Taylor series failed to converge")
    for _ in range(squarings):
        D = D @ D
    return D


@dataclass(frozen=True)
class SqueezeParams:
    """Physical-branch squeeze parameters for coupling strength lam.

    Omega = sqrt(1 - 4 lam^2) is the squeezed-oscillator frequency and sigma
    the Bogoliubov amplitude, |sigma| < 1.
    """

    lam: float
    sigma: float
    Omega: float


def squeeze_params(lam: float) -> SqueezeParams:
    """Squeeze parameters on the physical branch; requires |lam| < 1/2."""
    lam = float(lam)
    if not abs(lam) < 0.5:
        raise ValueError(f"|lam| must be below 1/2, got {lam}")
    Omega = math.sqrt(1.0 - 4.0 * lam * lam)
    sigma = 0.0 if lam == 0.0 else (1.0 - Omega) / (2.0 * lam)
    return SqueezeParams(lam=lam, sigma=sigma, Omega=Omega)


def displaced_osc_band(lam: float, cutoff: int) -> tuple[np.ndarray, np.ndarray, int]:
    """b+b + lam (b+ + b) + 1/2 + lam^2 as (diagonal, coupling, stride 1).

    The c-number completes the square, so the exact spectrum is n + 1/2
    independent of lam. Raises ValueError when lam^2 or lam sqrt(M)
    overflows (or lam is not finite), and for a cutoff that int() would change.
    """
    lam = float(lam)
    M = _integral(cutoff, "cutoff")
    if not (math.isfinite(lam * lam) and math.isfinite(lam * math.sqrt(max(M, 0)))):
        raise ValueError(f"lam^2 and lam sqrt(M) must be finite, got lam = {lam}, M = {M}")
    return np.arange(M + 1.0) + 0.5 + lam * lam, lam * np.sqrt(np.arange(1.0, M + 1.0)), 1


def squeezed_osc_band(lam: float, cutoff: int) -> tuple[np.ndarray, np.ndarray, int]:
    """b+b + 1/2 + lam (b+^2 + b^2) as (diagonal, coupling, stride 2); needs |lam| < 1/2.

    coupling[j] joins n = j and j + 2, so the even-n and odd-n sectors
    (d[f::2], coupling[f::2]) for f = 0, 1 are tridiagonal and never mix.
    Raises ValueError for a cutoff that int() would change.
    """
    lam = float(lam)
    if not abs(lam) < 0.5:
        raise ValueError(f"|lam| must be below 1/2, got {lam}")
    M = _integral(cutoff, "cutoff")
    return np.arange(M + 1.0) + 0.5, lam * np.sqrt(np.arange(1.0, M) * np.arange(2.0, M + 1.0)), 2


def oscillator_levels(kind: str, lam: float, cutoff: int, levels: int) -> np.ndarray:
    """Lowest levels of the "displaced" or "squeezed" oscillator band, ascending.

    A band of stride s holds s chains (d[f::s], coupling[f::s]) that never
    mix; each is bisected level by level with scalar Sturm counts
    (tridiag_eigvals_lowest), no dense matrix formed, and the levels merged.
    Raises ValueError for another kind, levels outside 1..M+1 or not
    integral, and input the band or bisection refuses.
    """
    bands = {"displaced": displaced_osc_band, "squeezed": squeezed_osc_band}
    if kind not in bands:
        raise ValueError(f"kind must be 'displaced' or 'squeezed', got {kind!r}")
    d, c, stride = bands[kind](lam, cutoff)
    levels = _integral(levels, "levels")
    if not 1 <= levels <= d.size:
        raise ValueError(f"levels={levels} out of range for cutoff {d.size - 1}")
    chains = ((d[f::stride], c[f::stride]) for f in range(stride))
    parts = [tridiag_eigvals_lowest(df, cf, min(levels, df.size)) for df, cf in chains if df.size]
    return np.sort(np.concatenate(parts))[:levels]


def _band_matrix(d: np.ndarray, c: np.ndarray, stride: int) -> np.ndarray:
    """Dense symmetric matrix with diagonal d and coupling c at offsets +/- stride, filled in one array."""
    n, k = d.size, c.size
    H = np.zeros((n, n))
    H.flat[:: n + 1] = d
    # H[j, j + stride] and H[j + stride, j], j < k, lie n + 1 apart in the flat array;
    # each slice has an explicit stop, since H.flat[a::b][:k] would write into a copy
    H.flat[stride : stride + k * (n + 1) : n + 1] = c
    H.flat[stride * n : stride * n + k * (n + 1) : n + 1] = c
    return H


def displaced_osc_hamiltonian(lam: float, cutoff: int) -> np.ndarray:
    """Dense matrix of displaced_osc_band, a reference for the tests and probes."""
    return _band_matrix(*displaced_osc_band(lam, cutoff))


def squeezed_osc_hamiltonian(lam: float, cutoff: int) -> np.ndarray:
    """Dense matrix of squeezed_osc_band, a reference for the tests and probes."""
    return _band_matrix(*squeezed_osc_band(lam, cutoff))
