"""Rabi Hamiltonian on the truncated basis: its band product, the parity
blocks' layout and spectrum sweeps. The crossings a sweep holds are the
exact points, so find_crossings lives with them in juddian.

Basis ordering is (n, spin) lexicographic with the spin-up (sigma_z = +1)
state first, so index(n, up) = 2n and index(n, down) = 2n + 1; output files
built on this ordering are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .bosons import DEFAULT_CUTOFF
from .numerics import _integral, _sturm_lowest_batch


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings (omega, omega0, g) with the rescaled derived pair.

    omega_tilde = omega0 / (2 omega) and lam = 2 g / omega are properties, so
    they can never go stale; all five must be finite, and omega positive.
    Energies of the scaled Hamiltonian are in units of omega.
    """

    omega: float = 1.0
    omega0: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        for name in ("omega", "omega0", "g", "omega_tilde", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def omega_tilde(self) -> float:
        return self.omega0 / (2.0 * self.omega)

    @property
    def lam(self) -> float:
        return 2.0 * self.g / self.omega


def _apply_rabi(params: ModelParams, vector: np.ndarray) -> np.ndarray:
    """Scaled Hamiltonian times a vector on the assembly basis, through its band.

    The same product as reference.build_rabi(params, M) @ vector in O(M):
    diagonal n + omega_tilde (spin up) and n - omega_tilde (spin down), and
    coupling lam sqrt(n+1) between (n, s) and (n+1, -s).
    """
    up, down = vector[0::2], vector[1::2]
    n = np.arange(up.size, dtype=float)
    coupling = params.lam * np.sqrt(n[1:])
    h_up = (n + params.omega_tilde) * up
    h_down = (n - params.omega_tilde) * down
    h_up[:-1] += coupling * down[1:]
    h_up[1:] += coupling * down[:-1]
    h_down[:-1] += coupling * up[1:]
    h_down[1:] += coupling * up[:-1]
    out = np.empty_like(vector)
    out[0::2] = h_up
    out[1::2] = h_down
    return out


def _block_layout(params: ModelParams, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The (+1, -1) blocks' diagonals as a (2, M+1) stack, and sqrt(n) for n = 1..M, their couplings over lam."""
    # level n of the +1 block carries spin s = -(-1)^n, of the -1 block -s: diagonal n + s omega_tilde
    n = np.arange(M + 1.0)
    spin = np.empty(M + 1)
    spin[0::2], spin[1::2] = -params.omega_tilde, params.omega_tilde
    return np.array([n + spin, n - spin]), np.sqrt(n[1:])


@dataclass(frozen=True)
class SpectrumTable:
    """Lowest-k energies per parity over a strictly increasing g grid.

    levels_plus[m] / levels_minus[m] are ascending within each row, each an
    eigenvalue of the scaled Hamiltonian.
    """

    g_values: np.ndarray
    levels_plus: np.ndarray
    levels_minus: np.ndarray
    params: ModelParams
    cutoff: int


def spectrum_sweep(
    params: ModelParams,
    g_grid,
    cutoff: int = DEFAULT_CUTOFF,
    levels_per_block: int = 8,
) -> SpectrumTable:
    """Lowest levels_per_block energies of each parity at every grid point.

    Both parity blocks at every grid point are bisected in one lockstep
    Sturm walk (numerics._sturm_lowest_batch) on the couplings
    sqrt(n) 2 g / omega, each row squared when the walk first reaches it.
    The rows share one table-wide Gershgorin start and stop width, set by
    the largest coupling, so a row's last bits depend on the rest of the
    grid (by up to 6.8e-14 at M = 100). Each block keeps its own bisection,
    so the table is bit-identical to sweeping one parity at a time.
    """
    g_values = np.asarray(g_grid, dtype=float)
    if g_values.ndim != 1 or g_values.size == 0:
        raise ValueError("g grid must be a nonempty 1-D sequence")
    if g_values.size > 1 and not np.all(np.diff(g_values) > 0):
        raise ValueError("g grid must be strictly increasing")
    M = _integral(cutoff, "cutoff")
    k = _integral(levels_per_block, "levels_per_block")
    if not 1 <= k <= M + 1:
        raise ValueError(f"levels_per_block={k} out of range for cutoff {M}")

    lam_max = 2.0 * float(np.max(np.abs(g_values))) / params.omega
    if not math.isfinite(lam_max * lam_max * M):
        raise ValueError("squared couplings (2 g / omega)^2 n overflow: g / omega too large")
    diags, root = _block_layout(params, M)
    plus, minus = _sturm_lowest_batch(diags, root, 2.0 * g_values / params.omega, k)
    return SpectrumTable(g_values=g_values, levels_plus=plus, levels_minus=minus, params=params, cutoff=M)
