"""Independent correctness checks for the benchmark's outputs.

Nothing here imports rabijudd. Every check starts again from the model's
definition: the scaled Rabi Hamiltonian

    H = omega_tilde sigma_z + b'b + lambda (b' + b) sigma_x

splits into two parity blocks; in the block of parity p, Fock level n carries
spin s = -p (-1)^n, so the block is tridiagonal with diagonal n + omega_tilde s
and off-diagonal lambda sqrt(n). The blocks are solved with
numpy.linalg.eigvalsh (LAPACK), a solver the package never calls. Oscillator
levels are compared with their closed forms.

Each check returns a reason string when the output is wrong and None when it
is right, plus the accuracy figures the quality record keeps.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

#: Tolerance on a gap or on the distance from E to a block eigenvalue, in
#: units of omega. It is the one `rabijudd verify` applies to gap and residual.
TOL = 1e-6
#: Tolerance between a level the package reports and the LAPACK eigenvalue
#: of the same truncated block.
LEVEL_TOL = 1e-8
#: Levels compared with the oscillator closed forms.
OSC_LEVELS = 10


def expected_point_count(N: int, omega_tilde: float) -> int:
    """#{k in 1..N : k > omega_tilde}: N at resonance, fewer above omega_tilde = 1."""
    return sum(1 for k in range(1, N + 1) if k > omega_tilde)


def adequate_cutoff(N: int, lam: float) -> int:
    """A cutoff at which the blocks resolve a point of order N at coupling lam.

    The state is built from displaced number states |n, +-lam>, n <= N, whose
    photon numbers lie below (lam + sqrt N)^2 plus a few widths; raising the
    cutoff by 200 beyond this changes no checked eigenvalue (tested up to
    N = 40).
    """
    r = lam + math.sqrt(N)
    return int(math.ceil(r * r + 4.0 * r + 20.0))


def block_spectra(omega_tilde: float, lam: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the (+1, -1) parity blocks at this cutoff."""
    n = np.arange(cutoff + 1.0)
    off = lam * np.sqrt(n[1:])
    spectra = []
    for parity in (1.0, -1.0):
        spin = -parity * (-1.0) ** n
        h = np.diag(n + omega_tilde * spin) + np.diag(off, 1) + np.diag(off, -1)
        spectra.append(np.linalg.eigvalsh(h))
    return spectra[0], spectra[1]


def point_distances(N: int, omega_tilde: float, lam: float, E: float):
    """(distance to the nearest + level, to the nearest - level, gap between them)."""
    plus, minus = block_spectra(omega_tilde, lam, adequate_cutoff(N, lam))
    e_p = plus[np.argmin(np.abs(plus - E))]
    e_m = minus[np.argmin(np.abs(minus - E))]
    return abs(e_p - E), abs(e_m - E), abs(e_p - e_m)


def check_points(N: int, omega_tilde: float, points, sample: int | None = None):
    """Check a point list [(lam, E), ...] returned for order N.

    The count must be expected_point_count; the points must be distinct,
    ascending and on the baseline E = N - lam^2; each E must be an eigenvalue
    of both parity blocks within TOL. With a wrong count the task has already
    failed: `sample` points (evenly spaced) are then still checked so that the
    share of valid points can be reported, or none when sample is None.
    Otherwise every point is checked, stopping at the first bad one unless
    `sample` is given.

    Returns (reason, stats) with stats keys returned, checked, valid,
    max_gap and max_dist (None when nothing was checked).
    """
    expected = expected_point_count(N, omega_tilde)
    stats = {"returned": len(points), "checked": 0, "valid": 0, "max_gap": None, "max_dist": None}
    reason = None
    if len(points) != expected:
        reason = f"returned {len(points)} points, expected {expected}"
        if not sample:
            return reason, stats
        step = max(1, len(points) // sample)
        todo = points[::step][:sample]
    else:
        todo = points
        lams = [lam for lam, _ in points]
        if any(b <= a * (1.0 + 1e-9) for a, b in zip(lams, lams[1:])):
            return "points not distinct and ascending in lambda", stats
        for lam, E in points:
            if abs(E - (N - lam * lam)) > 1e-12 * N:
                return f"E={E!r} is off the baseline N - lambda^2", stats

    for lam, E in todo:
        d_p, d_m, gap = point_distances(N, omega_tilde, lam, E)
        dist = max(d_p, d_m)
        stats["checked"] += 1
        if dist <= TOL:
            stats["valid"] += 1
            stats["max_gap"] = max(gap, stats["max_gap"] or 0.0)
            stats["max_dist"] = max(dist, stats["max_dist"] or 0.0)
        elif reason is None:
            reason = f"point lambda={lam:.12g}: no eigenvalue within {TOL:g} of E={E:.12g} (off by {dist:.2e})"
            if sample is None:
                break
    return reason, stats


def check_verification(omega_tilde: float, lam: float, E: float, cutoff: int, report) -> str | None:
    """Check one verify_point report against the blocks at the same cutoff.

    report carries energy_plus/minus, level_plus/minus, degeneracy_gap and
    eigen_residual. The reported levels must be the LAPACK levels of the same
    index, both within TOL of E; the gap and the package's own residual must
    be within TOL, as `rabijudd verify` requires.
    """
    plus, minus = block_spectra(omega_tilde, lam, cutoff)
    for name, spectrum, level, energy in (
        ("+", plus, report.level_plus, report.energy_plus),
        ("-", minus, report.level_minus, report.energy_minus),
    ):
        if abs(spectrum[level] - energy) > LEVEL_TOL * max(1.0, abs(energy)):
            return f"{name} block level {level} is {energy!r}, LAPACK gives {spectrum[level]!r}"
        if abs(energy - E) > TOL:
            return f"{name} block level {level} is {abs(energy - E):.2e} from E"
    if report.degeneracy_gap > TOL:
        return f"degeneracy gap {report.degeneracy_gap:.2e} above {TOL:g}"
    if not report.eigen_residual <= TOL:
        return f"eigen residual {report.eigen_residual:.2e} above {TOL:g}"
    return None


def oscillator_levels(kind: str, lam: float, count: int = OSC_LEVELS) -> np.ndarray:
    """Closed-form lowest levels: n + 1/2 displaced, (n + 1/2) sqrt(1 - 4 lam^2) squeezed."""
    n = np.arange(count) + 0.5
    return n if kind == "displaced" else n * math.sqrt(1.0 - 4.0 * lam * lam)


def check_oscillator(kind: str, lam: float, values) -> tuple[str | None, float]:
    """Compare the lowest OSC_LEVELS computed levels with the closed form."""
    exact = oscillator_levels(kind, lam)
    dev = float(np.max(np.abs(np.asarray(values[: exact.size]) - exact)))
    if not dev <= TOL:
        return f"{kind} oscillator at lambda={lam:.6g}: levels off the closed form by {dev:.2e}", dev
    return None, dev


def check_sweep(omega_tilde: float, cutoff: int, g_values, levels_plus, levels_minus,
                spot_rows, crossings, svg: str):
    """Check one spectrum sweep at omega = 1 (lambda = 2 g), its crossings and its figure.

    The levels must pass check_levels at the grid rows in spot_rows, the
    crossings check_crossing_count and check_crossings, and the figure
    check_figure.

    Returns (reason, max_gap) with max_gap the largest crossing gap seen.
    """
    reason = check_levels(omega_tilde, cutoff, g_values, levels_plus, levels_minus, spot_rows)
    if reason is None:
        reason = check_crossing_count(g_values, levels_plus, levels_minus, crossings)
    if reason is not None:
        return reason, None
    reason, max_gap = check_crossings(omega_tilde, cutoff, crossings)
    if reason is None:
        reason = check_figure(svg, 2 * levels_plus.shape[1], len(g_values))
    return reason, max_gap


def check_levels(omega_tilde, cutoff, g_values, levels_plus, levels_minus, rows) -> str | None:
    """At each grid row in rows the k lowest levels of each block equal LAPACK's within LEVEL_TOL."""
    k = levels_plus.shape[1]
    for m in rows:
        plus, minus = block_spectra(omega_tilde, 2.0 * g_values[m], cutoff)
        dev = max(np.max(np.abs(plus[:k] - levels_plus[m])), np.max(np.abs(minus[:k] - levels_minus[m])))
        if dev > LEVEL_TOL * max(1.0, float(np.max(np.abs(plus[:k])))):
            return f"levels at g={g_values[m]:.12g} off LAPACK by {dev:.2e}"
    return None


def sign_change_cells(g_values, levels_plus, levels_minus) -> dict:
    """Where E+_i - E-_j changes sign on the grid, for every level pair (i, j).

    Returns {(i, j): [(g_lo, g_hi), ...]} ascending in g: (g_m, g_m+1) for a
    sign change between adjacent grid points that are both nonzero, and
    (g_m, g_m) for a grid point where the difference is exactly zero.
    """
    g = np.asarray(g_values, dtype=float)
    k = levels_plus.shape[1]
    cells = {}
    for i in range(k):
        for j in range(k):
            diff = levels_plus[:, i] - levels_minus[:, j]
            zero = diff == 0.0
            pos = diff > 0.0
            change = ~zero[:-1] & ~zero[1:] & (pos[:-1] != pos[1:])
            found = [(g[m], g[m]) for m in np.nonzero(zero)[0]]
            found += [(g[m], g[m + 1]) for m in np.nonzero(change)[0]]
            if found:
                cells[(i, j)] = sorted(found)
    return cells


def check_crossing_count(g_values, levels_plus, levels_minus, crossings) -> str | None:
    """One crossing per sign change of E+_i - E-_j on the grid, each inside its cell.

    The levels themselves are spot-checked against LAPACK by check_levels.
    """
    expected = sign_change_cells(g_values, levels_plus, levels_minus)
    found: dict = {}
    for c in crossings:
        found.setdefault((c.level_plus, c.level_minus), []).append(c.g_star)
    for pair in sorted(set(expected) | set(found)):
        cells, stars = expected.get(pair, []), sorted(found.get(pair, []))
        if len(stars) != len(cells):
            return (f"levels (+{pair[0]}, -{pair[1]}): {len(stars)} crossings returned, "
                    f"their difference changes sign {len(cells)} times on the grid")
        for g_star, (lo, hi) in zip(stars, cells):
            slack = 1e-12 * max(1.0, abs(hi))
            if not lo - slack <= g_star <= hi + slack:
                return (f"crossing (+{pair[0]}, -{pair[1]}) at g={g_star:.12g} lies outside "
                        f"its sign change [{lo:.12g}, {hi:.12g}]")
    return None


def check_crossings(omega_tilde, cutoff, crossings) -> tuple[str | None, float]:
    """At every crossing the two named levels meet within TOL at g_star, E_star between them.

    Returns (reason, max_gap) with max_gap the largest LAPACK gap seen.
    """
    max_gap = 0.0
    for c in crossings:
        plus, minus = block_spectra(omega_tilde, 2.0 * c.g_star, cutoff)
        e_p, e_m = plus[c.level_plus], minus[c.level_minus]
        gap = abs(e_p - e_m)
        max_gap = max(max_gap, gap)
        if gap > TOL or abs(c.E_star - 0.5 * (e_p + e_m)) > TOL:
            return (f"crossing (+{c.level_plus}, -{c.level_minus}) at g={c.g_star:.12g}: "
                    f"LAPACK gap {gap:.2e}, E_star off by {abs(c.E_star - 0.5 * (e_p + e_m)):.2e}"), max_gap
    return None, max_gap


def check_figure(svg: str, n_lines: int, n_vertices: int) -> str | None:
    """The SVG parses and holds n_lines level polylines of n_vertices vertices each."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"figure is not well-formed SVG: {exc}"
    lines = [el for el in root.iter("{http://www.w3.org/2000/svg}polyline")
             if el.get("class") in ("level-plus", "level-minus")]
    if len(lines) != n_lines or any(len(el.get("points").split()) != n_vertices for el in lines):
        return f"figure has {len(lines)} level polylines, expected {n_lines} of {n_vertices} vertices"
    return None
