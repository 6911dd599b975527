"""Truncated Fock-space boson algebra.

Ladder operators on the lowest M+1 number states, the displaced number
states D(z)|n> built from the closed-form coherent state by their ladder
recurrence on the rows that hold them (support_rows), squeeze parameters on the physical branch, and the
displaced / squeezed oscillator Hamiltonians whose exact spectra anchor the
validation suite, each written once as its band (diagonal, coupling,
stride), from which the dense reference matrices are formed. The dense
displacement matrix (scaling-and-squaring of the truncated generator) is
kept as a reference for the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .numerics import _gershgorin, _integral, _inverse_step

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


def support_rows(z: float, n: int) -> int:
    """ceil(R), R = (|z| + sqrt(n) + 6)^2: the rows that carry D(z)|m> for every m <= n.

    D(z)|m> lives in Fock space around the classical turning points
    (|z| -/+ sqrt(m))^2 and decays faster than a Gaussian beyond them;
    six more units of sqrt(row) leave less than 1e-45 of its weight above
    R (see displaced_number_states for the tested margin). R exceeds both
    guards of the state reconstruction: n, and 4 z^2 when z^2 <= M/4.
    """
    return math.ceil((abs(z) + math.sqrt(n) + 6.0) ** 2)


def displaced_number_states(z: float, cutoff: int, count: int):
    """Yield D(z)|n> on the (M+1)-state basis for n = 0..count-1, one at a time.

    The states are built on the rows below K = min(M + 1, support_rows(z,
    count - 1)) and padded with zeros. Tested at z^2 up to M/4 and n up to
    100 against states built on all M + 1 rows: every row below K is
    bit-identical, and the rows above held at most 1.3e-23 (n = 1, z = 25,
    M = 2500), far below the 1e-15 the tests require.

    D(z)|0> is the coherent state exp(-z^2/2) z^n / sqrt(n!), formed by one
    exponential at its peak n0 = floor(z^2) and running products of the
    ratios z / sqrt(n) outward, so nothing over- or underflows. Each further
    state is the ladder step D|n> = (b+ - z) D|n-1> / sqrt(n), O(K), followed
    by one step of inverse iteration (O(K)) on the displaced number operator
    (b+ - z)(b - z), whose eigenvalue n it is; its Gershgorin interval (on
    all M + 1 rows, which sizes the pivot clamp) and list copies are formed
    once per call. The bare ladder recurrence
    amplifies its rounding by about 2 per step (a state error near 1e-7 at
    n = 20, z^2 = 17); the correction keeps every state within a few eps.

    Raises ValueError when z^2 > M/4, like displacement_matrix, and when the
    cutoff or count is not an integer (int() would change it).
    """
    M = _integral(cutoff, "cutoff")
    count = _integral(count, "count")
    z = _check_displacement(z, M)
    diag = np.arange(M + 1.0) + z * z
    off = -z * np.sqrt(np.arange(1.0, M + 1.0))
    # the pivot clamp is sized by the operator on all M + 1 rows, so a state
    # differs from its full-length build only by what lies beyond K
    interval = _gershgorin(diag, off)
    rows = min(M + 1, support_rows(z, max(count - 1, 0)))
    dl, el = diag[:rows].tolist(), off[:rows - 1].tolist()
    column = np.zeros(rows)
    root = np.sqrt(np.arange(1.0, float(rows)))
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
    for n in range(count):
        if n:
            raised = -z * column
            raised[1:] += root * column[:-1]
            column = _inverse_step(dl, el, interval, float(n), raised / math.sqrt(n))
        padded = np.zeros(M + 1)
        padded[:rows] = column
        yield padded


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


def _band_matrix(d: np.ndarray, c: np.ndarray, stride: int) -> np.ndarray:
    H = np.diag(d)
    if c.size:
        H += np.diag(c, stride) + np.diag(c, -stride)
    return H


def displaced_osc_hamiltonian(lam: float, cutoff: int) -> np.ndarray:
    """Dense matrix of displaced_osc_band, a reference for the tests and probes."""
    return _band_matrix(*displaced_osc_band(lam, cutoff))


def squeezed_osc_hamiltonian(lam: float, cutoff: int) -> np.ndarray:
    """Dense matrix of squeezed_osc_band, a reference for the tests and probes."""
    return _band_matrix(*squeezed_osc_band(lam, cutoff))
