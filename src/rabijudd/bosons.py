"""Truncated Fock-space boson algebra.

Ladder operators on the lowest M+1 number states, the displaced number
states D(z)|n> built from the closed-form coherent state by their ladder
recurrence, squeeze parameters on the physical branch, and the
displaced / squeezed oscillator Hamiltonians whose exact spectra anchor the
validation suite. The dense displacement matrix (scaling-and-squaring of the
truncated generator) is kept as a reference for the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import tridiag_inverse_iteration

#: Highest retained occupation number (basis size 101) used throughout
#: validation; large enough that coherent-state tails at the couplings of
#: interest fall below the verification tolerances.
DEFAULT_CUTOFF = 100


def ladder_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Create, annihilate, and number matrices on the (M+1)-state basis.

    <n+1|b+|n> = sqrt(n+1), annihilate is the exact transpose, and the
    number operator is diagonal {0..M}.
    """
    M = int(cutoff)
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


def displaced_number_states(z: float, cutoff: int, count: int):
    """Yield D(z)|n> on the (M+1)-state basis for n = 0..count-1, one at a time.

    D(z)|0> is the coherent state exp(-z^2/2) z^n / sqrt(n!), formed by one
    exponential at its peak n0 = floor(z^2) and running products of the
    ratios z / sqrt(n) outward, so nothing over- or underflows. Each further
    state is the ladder step D|n> = (b+ - z) D|n-1> / sqrt(n), O(M), followed
    by one step of inverse iteration (O(M)) on the displaced number operator
    (b+ - z)(b - z), whose eigenvalue n it is. The bare ladder recurrence
    amplifies its rounding by about 2 per step (a state error near 1e-7 at
    n = 20, z^2 = 17); the correction keeps every state within a few eps.

    Raises ValueError when z^2 > M/4, like displacement_matrix.
    """
    M = int(cutoff)
    z = _check_displacement(z, M)
    column = np.zeros(M + 1)
    root = np.sqrt(np.arange(1.0, M + 1.0))
    if z == 0.0:
        column[0] = 1.0
    else:
        a = abs(z)
        n0 = int(a * a)
        column[n0] = math.exp(n0 * math.log(a) - 0.5 * a * a - 0.5 * math.lgamma(n0 + 1.0))
        column[n0 + 1:] = column[n0] * np.cumprod(a / root[n0:])
        column[:n0] = column[n0] * np.cumprod(root[:n0][::-1] / a)[::-1]
        if z < 0.0:
            column[1::2] = -column[1::2]
    diag = np.arange(M + 1.0) + z * z
    off = -z * root
    for n in range(count):
        if n:
            raised = -z * column
            raised[1:] += root * column[:-1]
            column = tridiag_inverse_iteration(diag, off, float(n), raised / math.sqrt(n))
        yield column


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
    M = int(cutoff)
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
    the Bogoliubov amplitude, |sigma| < 1. The polar fields follow
    sigma = -exp(-i theta) tanh(rho / 2) with real beta = 0; they document the
    operator form and are never read by any computation here.
    """

    lam: float
    sigma: float
    Omega: float
    rho: float
    theta: float
    beta: float


def squeeze_params(lam: float) -> SqueezeParams:
    """Squeeze parameters on the physical branch; requires |lam| < 1/2."""
    lam = float(lam)
    if not abs(lam) < 0.5:
        raise ValueError(f"|lam| must be below 1/2, got {lam}")
    Omega = math.sqrt(1.0 - 4.0 * lam * lam)
    sigma = 0.0 if lam == 0.0 else (1.0 - Omega) / (2.0 * lam)
    rho = 2.0 * math.atanh(abs(sigma))
    theta = math.pi if sigma > 0.0 else 0.0
    return SqueezeParams(lam=lam, sigma=sigma, Omega=Omega, rho=rho, theta=theta, beta=0.0)


def displaced_osc_hamiltonian(lam: float, cutoff: int) -> np.ndarray:
    """b+b + lam (b+ + b) + 1/2 + lam^2 on the truncated basis.

    The c-number completes the square, so the exact spectrum is n + 1/2
    independent of lam.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    M = int(cutoff)
    n = np.arange(M + 1.0)
    H = np.diag(n + 0.5 + lam * lam)
    if M > 0:
        off = lam * np.sqrt(np.arange(1.0, M + 1.0))
        H += np.diag(off, 1) + np.diag(off, -1)
    return H


def squeezed_osc_hamiltonian(lam: float, cutoff: int) -> np.ndarray:
    """b+b + 1/2 + lam (b+^2 + b^2) on the truncated basis; needs |lam| < 1/2."""
    lam = float(lam)
    if not abs(lam) < 0.5:
        raise ValueError(f"|lam| must be below 1/2, got {lam}")
    M = int(cutoff)
    n = np.arange(M + 1.0)
    H = np.diag(n + 0.5)
    if M > 1:
        pair = lam * np.sqrt(np.arange(1.0, M) * np.arange(2.0, M + 1.0))
        H += np.diag(pair, 2) + np.diag(pair, -2)
    return H
