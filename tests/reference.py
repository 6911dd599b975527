"""Dense builders that only the tests use, checked against LAPACK there."""

import numpy as np

from rabijudd.juddian import _reduced_band


def reduced_matrix(N: int, omega_tilde: float, x: float) -> np.ndarray:
    """The N x N tridiagonal T(x) of the compatibility condition, as a dense matrix."""
    d0, e4 = _reduced_band(N, omega_tilde)
    off = np.sqrt(float(x) * np.array(e4))
    return np.diag(np.array(d0) + 4.0 * x) + np.diag(off, 1) + np.diag(off, -1)


def parity_matrix(cutoff: int) -> np.ndarray:
    """Diagonal parity operator -sigma_z cos(pi b+b) on the assembly basis."""
    M = int(cutoff)
    diag = np.empty(2 * (M + 1))
    signs = (-1.0) ** np.arange(M + 1)
    diag[0::2] = -signs  # spin up: -(+1) cos(pi n)
    diag[1::2] = signs
    return np.diag(diag)
