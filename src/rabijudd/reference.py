"""Dense and elimination references, kept outside the package's paths.

The benchmark under perfbench/ calls these names as rj.<name>, so rabijudd
binds them on the package, outside __all__; the tests check the Sturm paths
against them and them against LAPACK. No package module imports this one,
so nothing the CLI or the point API runs reaches it. ROADMAP item 2 deletes
the module once the benchmark's step 1b points its tasks and probes at the
package paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._numpy import np
from .bosons import DEFAULT_CUTOFF, _check_displacement, displaced_osc_band, squeezed_osc_band
from .juddian import _reduced_band
from .numerics import _EPS, FullRankError, RootCountError, _integral
from .rabi import ModelParams, _block_layout


# ---------------------------------------------------------------------------
# polynomials as coefficient tuples


def poly_eval(p: tuple[float, ...], x):
    """Horner evaluation of the coefficient tuple p, p[k] times x**k, at a scalar or ndarray x."""
    acc = 0.0 * x if isinstance(x, np.ndarray) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _bisect_root(p: tuple[float, ...], a: float, b: float) -> float:
    """A root of p in the cell (a, b), at whose ends p has opposite signs: the
    cell is halved until no float lies between its ends, or p is 0 at its midpoint."""
    fa = poly_eval(p, a)
    m = 0.5 * (a + b)
    while a < m < b and (fm := poly_eval(p, m)) != 0.0:
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
        m = 0.5 * (a + b)
    return m


def poly_real_roots(
    p: tuple[float, ...],
    bracket: tuple[float, float],
    expected_count: int | None = None,
) -> list[float]:
    """The real roots of odd multiplicity inside the open bracket of the
    polynomial whose coefficient tuple is p (p[k] multiplies x**k), one per
    grid cell, ascending.

    Trailing zero coefficients are dropped first. A uniform scan of 1000
    intervals takes each interior grid point where p is exactly 0 as a root
    and bisects each cell whose ends p gives opposite signs (_bisect_root).
    A root of even multiplicity, or a second root in one cell, is not seen.
    When expected_count is given and fewer roots are found, RootCountError
    is raised, carrying the roots found.

    Raises ValueError for a degree-0 input or when a bracket endpoint is
    itself a root (the caller must perturb the bracket).
    """
    p = tuple(float(c) for c in p)
    while len(p) > 1 and p[-1] == 0.0:
        p = p[:-1]
    lo, hi = float(bracket[0]), float(bracket[1])
    if len(p) < 2:
        raise ValueError("cannot isolate roots of a degree-0 polynomial")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bracket ({lo}, {hi})")
    if poly_eval(p, lo) == 0.0 or poly_eval(p, hi) == 0.0:
        raise ValueError("bracket endpoint is a root; perturb the bracket")

    grid = np.linspace(lo, hi, 1001)
    xs, vals = grid.tolist(), poly_eval(p, grid).tolist()
    roots: list[float] = []
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:  # an interior grid point: p is nonzero at lo
            roots.append(a)
        elif fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect_root(p, a, b))
    if expected_count is not None and len(roots) < expected_count:
        raise RootCountError(roots, expected_count)
    return roots


# ---------------------------------------------------------------------------
# eigenvalues by root-free QL


class NonConvergenceError(RuntimeError):
    """QL iteration exceeded the sweep cap for one eigenvalue."""

    def __init__(self, index: int):
        super().__init__(f"eigenvalue {index} failed to converge within 30 QL sweeps")
        self.index = index


@dataclass(frozen=True)
class EigResult:
    """Ascending eigenvalues of a symmetric matrix made of chains (sym_eig).

    A one-field record rather than a bare array because its callers,
    perfbench's oscillator tasks and probes among them, read sym_eig(A).values.
    """

    values: np.ndarray


def _components(A: np.ndarray) -> list[list[int]]:
    """Connected components of symmetric A's nonzero pattern by iterative depth-first
    search: each an ascending index list, the lists by their smallest index."""
    rows, cols = np.nonzero(A)
    starts = np.searchsorted(rows, np.arange(A.shape[0] + 1)).tolist()
    cols = cols.tolist()
    seen = [False] * A.shape[0]
    components = []
    for root in range(A.shape[0]):
        stack, members = [root], []
        while stack:
            i = stack.pop()
            if not seen[i]:
                seen[i] = True
                members.append(i)
                stack.extend(cols[starts[i] : starts[i + 1]])
        if members:
            components.append(sorted(members))
    return components


def _ql_implicit(d: list, e2: list) -> None:
    """Root-free implicit-shift QL on tridiagonal (d, e**2), in place, on Python floats.

    d and e2 are lists: the diagonal, and e2[j] = T[j, j+1]**2 with
    e2[n-1] = 0; on return d holds the eigenvalues, unsorted. This is the
    Pal-Walker-Kahan form of Reinsch's root-free QL (tqlrat) that LAPACK's
    dsterf runs (Parlett, The Symmetric Eigenvalue Problem, section 8.15): the
    chase carries squared sines and cosines, so its rotations take no hypot
    and no square root; only the Wilkinson shift does, once per sweep, from
    sqrt(e2[l]). The matrix splits at the first j >= l with
    e2[j] <= eps**2 |d[j] d[j+1]| + float_info.min: dsterf's relative test,
    with the floor that keeps zero diagonals splitting at negligible
    couplings; the first step of the chase sets that coupling to 0. The
    caller scales the matrix (sym_eig) so that e**2 neither overflows nor
    underflows. Raises NonConvergenceError after 30 sweeps on a single
    eigenvalue.

    Row l, whose coupling the sweeps drive to zero, is tested first, on its
    own. The scan of the rows below it runs in Python, so it is skipped when
    none of them can split: every iterate is orthogonally similar to the
    input, so each of its diagonal entries is bounded by the input's norm,
    at most max|d| + 2 max|e| (Gershgorin); B, twice that, bounds every
    |d[j]| strictly, with room for rounding. When min(e2[l+1:n-1]), taken
    at C speed, exceeds the floor eps**2 B**2 + float_info.min, it exceeds
    every e2[j] <= eps**2 |d[j] d[j+1]| + float_info.min test as well, and
    the block runs to n - 1 as the scan would find. Otherwise the scan runs,
    so the exact relative test still decides every split and the values are
    those of the scan alone, bit for bit. Row l is left out of the minimum:
    its coupling falls through the gap between its own threshold and the
    floor as it converges, and on a graded chain's top rows, an
    oscillator's, that gap spans a factor of about 1e5, so a minimum over
    it would rescan the chain on many sweeps. The other couplings of an
    oscillator chain never come near the floor, so its sweeps take no scan.
    """
    n = len(d)
    eps2, tiny, sqrt, hypot, copysign = _EPS * _EPS, sys.float_info.min, math.sqrt, math.hypot, math.copysign
    bound = 2.0 * (max(map(abs, d)) + 2.0 * sqrt(max(e2)))
    floor = eps2 * bound * bound + tiny
    for l in range(n - 1):  # d[n-1] is final once every row above it has split off
        sweeps = 0
        while e2[l] > eps2 * abs(d[l] * d[l + 1]) + tiny:
            m = n - 1
            if min(e2[l + 1 : m], default=math.inf) <= floor:
                for m in range(l + 1, n - 1):
                    if e2[m] <= eps2 * abs(d[m] * d[m + 1]) + tiny:
                        break
                else:
                    m = n - 1
            sweeps += 1
            if sweeps > 30:
                raise NonConvergenceError(l)
            rte = sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            sigma = d[l] - rte / (sigma + copysign(hypot(sigma, 1.0), sigma))
            c, s = 1.0, 0.0
            gamma = d[m] - sigma
            p = gamma * gamma
            for i in range(m - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[i + 1] = s * r  # 0 on the first step (s = 0): e2[m] splits off
                oldc = c
                c = p / r
                s = bb / r
                oldgam = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e2[l] = s * p
            d[l] = sigma + gamma


def sym_eig(A: np.ndarray) -> EigResult:
    """All eigenvalues of a real symmetric matrix made of chains; no eigenvectors are formed.

    Parameters
    ----------
    A : (n, n) ndarray, exactly symmetric (builders here write both triangles),
        each connected component of its nonzero pattern tridiagonal in
        ascending index order: the parity blocks, the oscillators (the
        squeezed one as its even-n and odd-n chains) and build_rabi's two
        parity chains all are.

    Returns
    -------
    EigResult with the values in ascending order: the stable sort of the
    joined spectra of the components. Each component is multiplied by the
    power of two that brings its largest |entry| into [1/2, 1) (exact in
    binary, dsterf's scaling step), so its squared couplings neither
    overflow nor underflow; _ql_implicit solves it and the values are scaled
    back. The solve therefore sees the same numbers for A and 2**k A, whose
    values are 2**k times A's bit for bit while every entry and value stays
    a normal float. Raises ValueError naming the first index of any other
    component.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("sym_eig needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("sym_eig needs finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("sym_eig needs an exactly symmetric matrix")

    values: list[np.ndarray] = []
    for idx in _components(A):
        B = A if len(idx) == A.shape[0] else A[np.ix_(idx, idx)]
        if np.count_nonzero(B) != np.count_nonzero(np.diagonal(B)) + 2 * np.count_nonzero(np.diagonal(B, 1)):
            raise ValueError(f"sym_eig needs chains: the component at index {idx[0]} is not tridiagonal in index order")
        diag, off = np.diagonal(B), np.diagonal(B, 1)
        # a power of two brings the largest |entry| into [1/2, 1): exact, and e**2 stays in range
        _, exp = math.frexp(max(float(np.max(np.abs(diag))), float(np.max(np.abs(off), initial=0.0))))
        off = np.ldexp(off, -exp)
        d, e2 = np.ldexp(diag, -exp).tolist(), (off * off).tolist() + [0.0]
        _ql_implicit(d, e2)
        values.append(np.ldexp(d, exp))
    return EigResult(values=np.sort(np.concatenate(values), kind="stable"))


# ---------------------------------------------------------------------------
# null vectors by Gaussian elimination


def null_vector(A: np.ndarray) -> np.ndarray:
    """Unit-norm null vector of a numerically rank-deficient square matrix.

    Gaussian elimination with partial pivoting; a column whose best available
    pivot falls below 1e-10 * ||A||_F is taken as the free variable. The free
    variable is set to 1, pivot variables are back-substituted, and the result
    is normalized with its first nonzero component positive.

    Raises FullRankError when every column admits a pivot above the threshold
    (the input point is not on the locus the caller thinks it is).
    """
    M = np.asarray(A, dtype=float).copy()
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("null_vector needs a square matrix")
    n = M.shape[0]
    norm = float(np.sqrt(np.sum(M * M)))
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        return v
    threshold = 1e-10 * norm

    pivot_cols: list[tuple[int, int]] = []  # (row, col)
    free_cols: list[int] = []
    r = 0
    for c in range(n):
        if r >= n:
            free_cols.append(c)
            continue
        piv = r + int(np.argmax(np.abs(M[r:, c])))
        if abs(M[piv, c]) < threshold:
            free_cols.append(c)
            continue
        if piv != r:
            M[[r, piv], :] = M[[piv, r], :]
        below = M[r + 1 :, c] / M[r, c]
        M[r + 1 :, :] -= np.outer(below, M[r, :])
        M[r + 1 :, c] = 0.0
        pivot_cols.append((r, c))
        r += 1

    if not free_cols:
        raise FullRankError(
            f"matrix is numerically full-rank (no pivot below {threshold:.3e})"
        )

    v = np.zeros(n)
    v[free_cols[0]] = 1.0
    for row, col in reversed(pivot_cols):
        v[col] = -float(M[row, col + 1 :] @ v[col + 1 :]) / M[row, col]
    v /= math.sqrt(float(v @ v))
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                v = -v
            break
    return v


# ---------------------------------------------------------------------------
# dense boson matrices


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


# ---------------------------------------------------------------------------
# the dense Rabi matrix and its parity blocks


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
    return (
        params.omega_tilde * np.kron(eye_f, np.array([[1.0, 0.0], [0.0, -1.0]]))
        + np.kron(number, eye_s)
        + params.lam * np.kron(create + annihilate, np.array([[0.0, 1.0], [1.0, 0.0]]))
    )


def parity_blocks(params: ModelParams, cutoff: int = DEFAULT_CUTOFF) -> tuple[ParityBlock, ParityBlock]:
    """The two exact parity sectors, (+1 block, -1 block), each of dim M+1.

    Within the sector of parity pi, Fock level n carries spin
    s = -pi (-1)^n; the coupling changes n by one and flips the spin, so it
    stays inside the sector even after truncation; cutoff must be an integer.
    """
    M = _integral(cutoff, "cutoff")
    diags, root = _block_layout(params, M)
    off = params.lam * root
    plus, minus = (
        ParityBlock(parity, [(n, -parity * (-1) ** n) for n in range(M + 1)],
                    np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
        for parity, d in zip((1, -1), diags)
    )
    return plus, minus


# ---------------------------------------------------------------------------
# the full compatibility system and det T(x)


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
    diag((-1)^n). Raises ValueError for an N that int() would change.
    """
    N = _integral(N, "N")
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


def compatibility_polynomial(N: int, omega_tilde: float) -> tuple[float, ...]:
    """Coefficients of the degree-N polynomial in x = lam^2 whose positive
    roots locate the points; entry k multiplies x**k.

    det T(x): its diagonal d0_n + 4x and squared off-diagonal x e4_{n-1} are
    linear in x, so the three-term recurrence D_n = (d0_n + 4x) D_{n-1}
    - x e4_{n-1} D_{n-2} over the leading minors assembles the coefficients
    directly. Leading coefficient 4^N > 0; N must be an integer >= 1.
    """
    N = _integral(N, "N")
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
