"""Rabi Hamiltonian on the truncated basis: assembly, parity decomposition,
spectrum sweeps, and opposite-parity level-crossing detection.

Basis ordering is (n, spin) lexicographic with the spin-up (sigma_z = +1)
state first, so index(n, up) = 2n and index(n, down) = 2n + 1; output files
built on this ordering are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._numpy import np
from .bosons import DEFAULT_CUTOFF, ladder_matrices
from .numerics import _sturm_lowest_batch, tridiag_eigval_near

# find_crossings refines each crossing until |E+ - E-| is at most this
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
    dense reference for the band and Sturm code.
    """
    M = int(cutoff)
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


def parity_blocks(params: ModelParams, cutoff: int = DEFAULT_CUTOFF) -> tuple[ParityBlock, ParityBlock]:
    """The two exact parity sectors, (+1 block, -1 block), each of dim M+1.

    Within the sector of parity pi, Fock level n carries spin
    s = -pi (-1)^n; the coupling changes n by one and flips the spin, so it
    stays inside the sector even after truncation.
    """
    blocks = []
    for parity in (1, -1):
        diag, off = _block_arrays(params, cutoff, parity)
        matrix = np.diag(diag)
        if diag.size > 1:
            matrix += np.diag(off, 1) + np.diag(off, -1)
        basis_map = [(int(n), int(-parity * (-1) ** n)) for n in range(int(cutoff) + 1)]
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
    M = int(cutoff)
    k = int(levels_per_block)
    if not 1 <= k <= M + 1:
        raise ValueError(f"levels_per_block={k} out of range for cutoff {M}")

    lam_max = 2.0 * float(np.max(np.abs(g_values))) / params.omega
    if not math.isfinite(lam_max * lam_max * M):
        raise ValueError("squared couplings (2 g / omega)^2 n overflow: g / omega too large")
    lams = 2.0 * g_values / params.omega
    e2_cols = np.multiply.outer(np.sqrt(np.arange(1.0, M + 1.0)), lams)
    np.square(e2_cols, out=e2_cols)
    diags = np.array([_block_arrays(params, cutoff, parity)[0] for parity in (1, -1)])
    levels_plus, levels_minus = _sturm_lowest_batch(diags, e2_cols, k)
    return SpectrumTable(
        g_values=g_values,
        levels_plus=levels_plus,
        levels_minus=levels_minus,
        params=params,
        cutoff=M,
    )


def find_crossings(table: SpectrumTable) -> list[Crossing]:
    """Opposite-parity degeneracies found on the table and refined in g.

    Every (i, j) pair among the tracked levels is scanned for sign changes of
    E+_i - E-_j between adjacent grid points; each sign change is refined on
    the table's own model and cutoff until |E+ - E-| <= 1e-9.
    The first trial g is the root in the cell of the cubic through the
    table's E+_i - E-_j at rows m-1..m+2, then regula falsi with the Illinois
    weighting follows, sided by the sign of E+ - E-. At a trial each level is
    interpolated from its four nearest known values (table rows, earlier
    trials), and a bracket of 4 times the last Newton term around that,
    which Sturm counts confirm or widen up to the Gershgorin interval, saves
    the counts outside it. The value is the Sturm bisection of the
    Gershgorin interval to the width 4 eps times its scale, whatever the
    prediction, so counts certify it as level i (j) of its block. Results
    ascend in g_star.

    Raises RuntimeError, naming the grid cell and level pair, if a bracket
    collapses without reaching 1e-9 - the symptom of a non-isolated crossing
    relative to the grid resolution.
    """
    k = table.levels_plus.shape[1]
    g = table.g_values
    refiner = _CrossingRefiner(table)
    crossings: list[Crossing] = []

    for i in range(k):
        for j in range(k):
            diff = table.levels_plus[:, i] - table.levels_minus[:, j]
            exact = diff == 0.0
            for m in np.nonzero(exact)[0]:
                crossings.append(
                    Crossing(
                        g_star=float(g[m]),
                        E_star=float(table.levels_plus[m, i]),
                        level_plus=i,
                        level_minus=j,
                    )
                )
            neg = diff < 0.0
            changes = (neg[:-1] != neg[1:]) & ~exact[:-1] & ~exact[1:]
            for m in np.nonzero(changes)[0]:
                crossings.append(refiner.crossing(i, j, int(m), diff))

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


class _CrossingRefiner:
    """Refines the crossings of one table; holds what does not depend on g."""

    def __init__(self, table: SpectrumTable):
        self.table = table
        self.root_n = np.sqrt(np.arange(1.0, table.cutoff + 1.0))
        self.diags = [_block_arrays(table.params, table.cutoff, parity)[0] for parity in (1, -1)]

    def crossing(self, i: int, j: int, m: int, diff: np.ndarray) -> Crossing:
        """The crossing of levels (+i, -j) where diff = E+_i - E-_j changes sign in cell m."""
        t = self.table
        ga, gb = float(t.g_values[m]), float(t.g_values[m + 1])
        fa, fb = float(diff[m]), float(diff[m + 1])
        first = max(min(m - 1, diff.size - 4), 0)  # rows m-1..m+2, shifted inside short grids
        rows = slice(first, first + 4)
        grid = t.g_values[rows].tolist()
        known = (list(zip(grid, t.levels_plus[rows, i].tolist())),
                 list(zip(grid, t.levels_minus[rows, j].tolist())))
        diffs = list(zip(grid, diff[rows].tolist()))

        def gap(x: float) -> float:
            off = 2.0 * x / t.params.omega * self.root_n
            for d, index, pairs in zip(self.diags, (i, j), known):
                guess, term = _interpolate(sorted(pairs, key=lambda p: abs(p[0] - x))[:4], x)
                pairs.append((x, tridiag_eigval_near(d, off, index, guess, 4.0 * abs(term))))
            return known[0][-1][1] - known[1][-1][1]

        # the cubic's root is resolved below the tolerance: its own error decides
        seed = _illinois(lambda x: _interpolate(diffs, x)[0], ga, gb, fa, fb, _CROSSING_TOL / 16)
        gs = _illinois(gap, ga, gb, fa, fb, _CROSSING_TOL, seed)
        if gs is None:
            raise RuntimeError(
                f"crossing of levels (+{i}, -{j}) in cell g = [{ga:.6g}, {gb:.6g}] did not resolve "
                f"to |dE| <= {_CROSSING_TOL:g}; grid too coarse or crossing not isolated"
            )
        return Crossing(g_star=gs, E_star=0.5 * (known[0][-1][1] + known[1][-1][1]),
                        level_plus=i, level_minus=j)


def _interpolate(pairs: list[tuple[float, float]], x: float) -> tuple[float, float]:
    """Value at x of the polynomial through the (g, E) pairs, and its last Newton term."""
    xs, c = [p[0] for p in pairs], [p[1] for p in pairs]
    for k in range(1, len(c)):
        for r in range(len(c) - 1, k - 1, -1):
            c[r] = (c[r] - c[r - 1]) / (xs[r] - xs[r - k])
    value, w = c[0], 1.0
    for k in range(1, len(c)):
        w *= x - xs[k - 1]
        value += c[k] * w
    return value, c[-1] * w


def _illinois(f, ga: float, gb: float, fa: float, fb: float, tol: float, gs: float | None = None):
    """Regula falsi with the Illinois weighting on a sign change of f over (ga, gb).

    The sign of f at each trial picks the side; each trial, the first one gs
    if given, is kept inside the shrinking bracket. Returns the first trial
    with |f| <= tol, or None once the bracket collapses or 120 trials pass.
    """
    side = 0
    for _ in range(120):
        if gs is None or not ga < gs < gb:
            gs = (ga * fb - gb * fa) / (fb - fa) if fb != fa else 0.5 * (ga + gb)
            if not ga < gs < gb:
                gs = 0.5 * (ga + gb)
        fm = f(gs)
        if abs(fm) <= tol:
            return gs
        if (fm < 0.0) == (fa < 0.0):
            ga, fa = gs, fm
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            gb, fb = gs, fm
            if side == 1:
                fa *= 0.5
            side = 1
        if gb - ga <= 1e-15 * max(1.0, abs(gb)):
            return None
        gs = None
    return None
