"""Rabi Hamiltonian on the truncated basis: assembly, parity decomposition,
spectrum sweeps, and opposite-parity level-crossing detection.

Basis ordering is (n, spin) lexicographic with the spin-up (sigma_z = +1)
state first, so index(n, up) = 2n and index(n, down) = 2n + 1; output files
built on this ordering are reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from ._numpy import np
from .bosons import DEFAULT_CUTOFF, ladder_matrices
from .numerics import _EPS, _integral, _sturm_count, _sturm_lowest_batch, _sturm_stop

# find_crossings certifies both levels of a crossing within half this of E_star
_CROSSING_TOL = 1e-9


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

    def with_g(self, g: float) -> "ModelParams":
        return replace(self, g=float(g))


@dataclass(frozen=True)
class ParityBlock:
    """One parity sector: the states it contains and its tridiagonal matrix.

    basis_map[k] = (n, s) is the Fock level and sigma_z eigenvalue of the
    k-th block basis state; every entry satisfies -s cos(pi n) = parity.
    """

    parity: int
    basis_map: list[tuple[int, int]]
    matrix: np.ndarray


def build_rabi(params: ModelParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Scaled Rabi Hamiltonian as a dense symmetric 2(M+1) matrix.

    omega_tilde sigma_z + b+b + lam (b+ + b) sigma_x, in units of omega; the
    dense reference for the band and Sturm code; the cutoff must be an integer.
    """
    M = _integral(cutoff, "cutoff")
    create, annihilate, number = ladder_matrices(M)
    eye_f = np.eye(M + 1)
    eye_s = np.eye(2)
    H = (
        params.omega_tilde * np.kron(eye_f, np.array([[1.0, 0.0], [0.0, -1.0]]))
        + np.kron(number, eye_s)
        + params.lam * np.kron(create + annihilate, np.array([[0.0, 1.0], [1.0, 0.0]]))
    )
    return H


def _apply_rabi(params: ModelParams, vector: np.ndarray) -> np.ndarray:
    """Scaled Hamiltonian times a vector on the assembly basis, through its band.

    The same product as build_rabi(params, M) @ vector in O(M): diagonal
    n + omega_tilde (spin up) and n - omega_tilde (spin down), and coupling
    lam sqrt(n+1) between (n, s) and (n+1, -s).
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


def _block_arrays(params: ModelParams, cutoff: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    M = int(cutoff)
    n = np.arange(M + 1)
    spins = -parity * (-1.0) ** n
    diag = n + params.omega_tilde * spins
    off = params.lam * np.sqrt(np.arange(1.0, M + 1.0))
    return diag, off


def _block_counts(blocks, off: np.ndarray, E: float, delta: float) -> list[tuple[int, int]]:
    """Sturm counts (below, above) of each block: its levels below E - delta and below E + delta.

    blocks holds (diagonal, the same as a list) per parity block, and off
    the coupling lam sqrt(n) they share. Each block's stop data are built
    once per call, with tiny = eps stop.scale. A block holds above - below
    levels in [E - delta, E + delta), the lowest of index below; a count is
    exact for a matrix within a few eps ||T|| of the block (Kahan 1966;
    Demmel, Dhillon & Ren 1995).
    """
    e2 = (off * off).tolist()
    bound = np.abs(off)
    counts = []
    for d, dl in blocks:
        stop = _sturm_stop(d, bound)
        tiny = _EPS * stop.scale
        counts.append((_sturm_count(dl, e2, E - delta, tiny, stop), _sturm_count(dl, e2, E + delta, tiny, stop)))
    return counts


def parity_blocks(params: ModelParams, cutoff: int = DEFAULT_CUTOFF) -> tuple[ParityBlock, ParityBlock]:
    """The two exact parity sectors, (+1 block, -1 block), each of dim M+1.

    Within the sector of parity pi, Fock level n carries spin
    s = -pi (-1)^n; the coupling changes n by one and flips the spin, so it
    stays inside the sector even after truncation; cutoff must be an integer.
    """
    M = _integral(cutoff, "cutoff")
    blocks = []
    for parity in (1, -1):
        diag, off = _block_arrays(params, M, parity)
        matrix = np.diag(diag)
        if diag.size > 1:
            matrix += np.diag(off, 1) + np.diag(off, -1)
        basis_map = [(n, -parity * (-1) ** n) for n in range(M + 1)]
        blocks.append(ParityBlock(parity=parity, basis_map=basis_map, matrix=matrix))
    return blocks[0], blocks[1]


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


@dataclass(frozen=True)
class Crossing:
    """A degeneracy between level i of the + block and level j of the - block."""

    g_star: float
    E_star: float
    level_plus: int
    level_minus: int


def spectrum_sweep(
    params: ModelParams,
    g_grid,
    cutoff: int = DEFAULT_CUTOFF,
    levels_per_block: int = 8,
) -> SpectrumTable:
    """Lowest levels_per_block energies of each parity at every grid point.

    Grid points are independent of one another; purely as an optimization,
    both parity blocks at every grid point are bisected in one lockstep
    Sturm walk (numerics._sturm_lowest_batch), with the squared couplings
    (2 g / omega)^2 n built once in (M, G) layout. Each block keeps its own
    bisection, so the table is bit-identical to sweeping one parity at a
    time.
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
    lams = 2.0 * g_values / params.omega
    e2_cols = np.multiply.outer(np.sqrt(np.arange(1.0, M + 1.0)), lams)
    np.square(e2_cols, out=e2_cols)
    diags = np.array([_block_arrays(params, M, parity)[0] for parity in (1, -1)])
    levels_plus, levels_minus = _sturm_lowest_batch(diags, e2_cols, k)
    return SpectrumTable(
        g_values=g_values,
        levels_plus=levels_plus,
        levels_minus=levels_minus,
        params=params,
        cutoff=M,
    )


def find_crossings(table: SpectrumTable) -> list[Crossing]:
    """Opposite-parity degeneracies on the table, each placed at its Juddian point.

    Every (i, j) pair of tracked levels is scanned for sign changes of
    E+_i - E-_j between adjacent grid rows; a row where the two are equal is
    a crossing as it stands. Levels of opposite parity meet only at the
    Juddian points, on the baselines E = N - lam^2, so a sign change in the
    cell [g_m, g_m+1] is placed at a point rather than refined. The
    candidates are the points (juddian_points for |omega0|, once per order)
    of the orders N = round(E+_i + lam^2) at either end of the cell and
    N +/- 1 whose +g or -g lies in the cell, and (0, N) when the cell holds
    g = 0, the root x = 0 that juddian_points leaves out at an integer
    omega_tilde. Four Sturm counts on the table's blocks at g* certify a
    candidate (g*, E*): at E* -/+ 5e-10 they read i, i + 1 in the + block
    and j, j + 1 in the - block (_block_counts). The one candidate that
    passes gives g_star and E_star bit for bit. On a row at g = 0 every pair
    within 1e-9 is a candidate (0, round(E+_i)) of its own, kept if it
    passes, whatever the signs next to it. Results ascend in g_star.

    Raises RuntimeError, naming the cell and the level pair, when no
    candidate or more than one passes: the cutoff may be too small for the
    levels, or they differ by rounding alone.
    """
    # juddian imports this module, so the import waits for the first call
    from .juddian import juddian_points

    k = table.levels_plus.shape[1]
    g = table.g_values
    p = table.params
    abs_params = ModelParams(p.omega, abs(p.omega0))
    root_n = np.sqrt(np.arange(1.0, table.cutoff + 1.0))
    blocks = [(d, d.tolist()) for d in (_block_arrays(p, table.cutoff, parity)[0] for parity in (1, -1))]
    zero_rows = np.nonzero(g == 0.0)[0]

    @functools.cache
    def points(N: int) -> list:
        return juddian_points(N, abs_params) if N >= 1 and p.omega0 != 0.0 else []

    def certified(gs: float, E: float, i: int, j: int) -> bool:
        counts = _block_counts(blocks, 2.0 * gs / p.omega * root_n, E, 0.5 * _CROSSING_TOL)
        return counts == [(i, i + 1), (j, j + 1)]

    crossings: list[Crossing] = []
    for i in range(k):
        for j in range(k):
            diff = table.levels_plus[:, i] - table.levels_minus[:, j]
            exact = diff == 0.0
            for m in np.nonzero(exact)[0]:
                if g[m] != 0.0:  # a row at g = 0 is certified below
                    crossings.append(Crossing(float(g[m]), float(table.levels_plus[m, i]), i, j))
            for m in zero_rows:
                N = float(np.rint(table.levels_plus[m, i]))
                if abs(diff[m]) <= _CROSSING_TOL and certified(0.0, N, i, j):
                    crossings.append(Crossing(0.0, N, i, j))
            neg = diff < 0.0
            for m in np.nonzero((neg[:-1] != neg[1:]) & ~exact[:-1] & ~exact[1:])[0]:
                ga, gb = float(g[m]), float(g[m + 1])
                ends = np.rint(table.levels_plus[m : m + 2, i] + (2.0 * g[m : m + 2] / p.omega) ** 2)
                orders = sorted({int(N) + s for N in ends for s in (-1, 0, 1)})
                candidates = [(0.0, float(N)) for N in orders if ga <= 0.0 <= gb]
                candidates += [(s * pt.g, pt.E) for N in orders for pt in points(N) for s in (1.0, -1.0)
                               if ga <= s * pt.g <= gb]
                found = [c for c in candidates if certified(*c, i, j)]
                if len(found) != 1:
                    raise RuntimeError(
                        f"crossing of levels (+{i}, -{j}) in cell g = [{ga:.6g}, {gb:.6g}] did not resolve: "
                        f"{len(found)} Juddian points there hold both levels within {_CROSSING_TOL:g}, not one; "
                        "the cutoff may be too small or the levels unresolved"
                    )
                crossings.append(Crossing(*found[0], i, j))

    crossings.sort(key=lambda c: (c.g_star, c.level_plus, c.level_minus))
    deduped: list[Crossing] = []
    for c in crossings:
        if deduped and (
            c.level_plus == deduped[-1].level_plus
            and c.level_minus == deduped[-1].level_minus
            and abs(c.g_star - deduped[-1].g_star) <= 1e-12 * max(1.0, abs(c.g_star))
        ):
            continue
        deduped.append(c)
    return deduped
