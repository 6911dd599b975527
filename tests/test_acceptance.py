"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each criterion is a single test function, so the verbose pytest report
shows one pass/fail line per criterion. Reference values are frozen here;
the N = 4, index 0 energy is 3.9390671116 (the value implied by its own
coupling through E = N - lambda^2, and confirmed by independent truncated
diagonalization; see the decisions ledger outside the package).
"""

import functools
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from rabijudd.bosons import oscillator_levels, squeeze_params
from rabijudd.juddian import find_crossings, juddian_points, reconstruct_state, verify_point
from rabijudd.numerics import tridiag_eigvals_lowest
from rabijudd.rabi import ModelParams, _block_layout, spectrum_sweep
from rabijudd.reference import (
    build_full_system,
    build_rabi,
    compatibility_polynomial,
    displaced_osc_hamiltonian,
    displacement_matrix,
    parity_blocks,
    poly_real_roots,
    squeezed_osc_hamiltonian,
    sym_eig,
)
from reference import parity_matrix

# frozen reference: (N, index) -> (g, E)
REFERENCE_POINTS = {
    (1, 0): (0.2165063510, 0.8125000000),
    (2, 0): (0.1661640732, 1.8895580031),
    (2, 1): (0.4460403578, 1.2041919969),
    (3, 0): (0.1400889590, 2.9215003343),
    (3, 1): (0.3664714887, 2.4627945920),
    (3, 2): (0.6163829153, 1.4802884071),
    (4, 0): (0.1234229399, 3.9390671116),
    (4, 1): (0.3199075781, 3.5906365658),
    (4, 2): (0.5243395120, 2.9002723045),
    (4, 3): (0.7582492415, 1.7002323511),
}

RESONANCE = ModelParams()


def _all_reference_points():
    pts = []
    for n in (1, 2, 3, 4):
        pts.extend(juddian_points(n, RESONANCE))
    return pts


def test_criterion_1_table_reproduction():
    """CLI point list matches all ten reference (g, E, N) to 1e-9, fast."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rabijudd", "juddian", "--max-n", "4"],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().split("\n")[1:]
    assert len(rows) == 10
    for row in rows:
        fields = row.split(",")
        n, idx = int(fields[0]), int(fields[1])
        lam, g, energy = (float(fields[i]) for i in (2, 3, 4))
        g_ref, e_ref = REFERENCE_POINTS[(n, idx)]
        assert abs(g - g_ref) <= 1e-9
        assert abs(energy - e_ref) <= 1e-9
        assert abs(lam - 2.0 * g_ref) <= 2e-9
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("criterion 1 (reference-table reproduction): PASS")


def test_criterion_2_closed_form_polynomials():
    """N = 1 and N = 2 determinant polynomials match the closed forms."""
    for wt in (0.25, 0.5, 0.75, 1.0):
        w2 = wt * wt
        targets = {
            1: (w2 - 1.0, 4.0),
            2: (w2 * w2 - 5.0 * w2 + 4.0, 12.0 * w2 - 32.0, 32.0),
        }
        for n, target in targets.items():
            p = compatibility_polynomial(n, wt)
            assert len(p) - 1 == n
            scale = p[-1] / target[-1]
            cmax = max(abs(c) for c in p)
            for got, want in zip(p, target):
                assert abs(got - scale * want) <= 1e-12 * cmax
    print("criterion 2 (closed-form conditions): PASS")


def test_criterion_3_crossing_degeneracy():
    """Both parity blocks hold an eigenvalue within 1e-6 of E at M = 100."""
    for point in _all_reference_points():
        report = verify_point(point, cutoff=100)
        plus, minus = parity_blocks(point.model_params(), 100)
        for block, level in ((plus, report.level_plus), (minus, report.level_minus)):
            values = sym_eig(block.matrix).values
            assert np.abs(values - point.E).min() <= 1e-6
            # the level that verify's Sturm counts certify next to E
            assert abs(values[level] - point.E) <= 1e-6
    print("criterion 3 (block degeneracy at all ten points): PASS")


def test_criterion_4_exact_state_residual():
    """Reconstructed states satisfy the eigenvalue equation to 1e-6."""
    for point in _all_reference_points():
        state = reconstruct_state(point, cutoff=100)
        H = build_rabi(point.model_params(), cutoff=100)
        r = H @ state.fock_vector - point.E * state.fock_vector
        assert math.sqrt(float(r @ r)) <= 1e-6
    print("criterion 4 (exact-state residuals): PASS")


def test_criterion_5_displaced_oscillator():
    """Displaced-oscillator levels are n + 1/2 to 1e-8, independent of lam."""
    expected = np.arange(10) + 0.5
    for lam in (0.5, 1.0, 1.5):
        vals = sym_eig(displaced_osc_hamiltonian(lam, 100)).values[:10]
        assert np.abs(vals - expected).max() <= 1e-8
        # the band levels the oscillator subcommand prints
        assert np.abs(oscillator_levels("displaced", lam, 100, 10) - expected).max() <= 1e-8
    print("criterion 5 (displaced oscillator): PASS")


def test_criterion_6_squeezed_oscillator():
    """Squeezed levels are (n + 1/2) * Omega to 1e-6; sigma solves its quadratic."""
    for lam in (0.1, 0.3, 0.4):
        sp = squeeze_params(lam)
        vals = sym_eig(squeezed_osc_hamiltonian(lam, 200)).values[:10]
        expected = (np.arange(10) + 0.5) * sp.Omega
        assert np.abs(vals - expected).max() <= 1e-6
        # the band levels the oscillator subcommand prints
        assert np.abs(oscillator_levels("squeezed", lam, 200, 10) - expected).max() <= 1e-6
        assert abs(-sp.sigma + lam + lam * sp.sigma ** 2) <= 1e-14
    print("criterion 6 (squeezed oscillator): PASS")


@functools.cache
def _full_system_roots(n, wt, lo, hi, samples=1500):
    """Sign-change roots of the (2N+1)-determinant, bisected to 1e-12.

    Cached: two tests scan the same (n, wt) pairs.
    """
    xs = np.linspace(lo, hi, samples)
    dets = np.array([np.linalg.det(build_full_system(n, wt, float(x))) for x in xs])
    roots = []
    for i in np.nonzero(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0)[0]:
        a, b = float(xs[i]), float(xs[i + 1])
        fa = dets[i]
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fm = np.linalg.det(build_full_system(n, wt, m))
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0) == (fm < 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return tuple(roots)


def test_criterion_7_full_reduced_equivalence():
    """Reduced and full compatibility determinants share root sets to 1e-10."""
    for n in range(1, 9):
        for wt in (0.25, 0.5, 0.75):
            poly = compatibility_polynomial(n, wt)
            reduced = poly_real_roots(poly, (1e-12, 2.0 * n))
            full = _full_system_roots(n, wt, 1e-12, 2.0 * n)
            assert len(full) == len(reduced), (n, wt, reduced, full)
            for a, b in zip(reduced, full):
                assert abs(a - b) <= 1e-10, (n, wt, a, b)
    print("criterion 7 (full/reduced oracle equivalence): PASS")


def test_juddian_points_match_full_system_oracle():
    """Points from Sturm counting in x sit on the full-determinant roots to 1e-10."""
    for n in range(1, 9):
        for wt in (0.25, 0.5, 0.75, 1.3):
            points = juddian_points(n, ModelParams(omega=1.0, omega0=2.0 * wt))
            full = _full_system_roots(n, wt, 1e-12, 2.0 * n)
            assert len(full) == len(points), (n, wt, [p.lam for p in points], full)
            for p, b in zip(points, full):
                assert abs(p.lam * p.lam - b) <= 1e-10, (n, wt, p.lam, b)


def test_criterion_8_crossing_detector_consistency():
    """The sweep detector recovers every reference point and nothing spurious."""
    grid = np.linspace(0.05, 0.8, 201)
    table = spectrum_sweep(RESONANCE, grid, cutoff=100, levels_per_block=8)
    crossings = find_crossings(table)

    for (n, idx), (g_ref, _) in REFERENCE_POINTS.items():
        hits = [c for c in crossings if abs(c.g_star - g_ref) <= 1e-7]
        assert hits, f"missing crossing for N={n} index={idx} at g={g_ref}"

    known = {n: [p.g for p in juddian_points(n, RESONANCE)] for n in (1, 2, 3, 4)}
    for c in crossings:
        lam = 2.0 * c.g_star
        for n in (1, 2, 3, 4):
            if abs(c.E_star - (n - lam * lam)) <= 1e-6:
                assert any(abs(c.g_star - g) <= 1e-7 for g in known[n]), (
                    f"spurious crossing on baseline N={n}: "
                    f"g={c.g_star:.12f}, E={c.E_star:.12f}"
                )
    print("criterion 8 (crossing-detector consistency): PASS")


def test_criterion_9_property_suite():
    """Module invariants: commutation, completeness, symmetry, orthogonality, branches."""
    # parity commutation at the assembly level
    H = build_rabi(ModelParams(g=0.4460403578), cutoff=100)
    pi = parity_matrix(100)
    assert np.abs(H @ pi - pi @ H).max() <= 1e-12

    # block-spectrum completeness, against LAPACK on the full matrix, for the
    # blocks by QL and by the Sturm bisection the sweep runs
    for g, omega0, M in ((0.3, 1.0, 60), (0.7, 0.6, 40), (1.1, 2.4, 40)):
        p = ModelParams(omega0=omega0, g=g)
        full = np.linalg.eigvalsh(build_rabi(p, M))
        bound = 1e-10 * max(1.0, np.abs(full).max())
        plus, minus = parity_blocks(p, M)
        diags, root = _block_layout(p, M)
        for parts in (
            [sym_eig(block.matrix).values for block in (plus, minus)],
            [tridiag_eigvals_lowest(diag, p.lam * root, M + 1) for diag in diags],
        ):
            union = np.sort(np.concatenate(parts))
            assert np.abs(union - full).max() <= bound

    # exact +-g spectrum symmetry
    grid = np.linspace(0.1, 0.7, 7)
    fwd = spectrum_sweep(RESONANCE, grid, cutoff=80, levels_per_block=6)
    rev = spectrum_sweep(RESONANCE, -grid[::-1], cutoff=80, levels_per_block=6)
    assert np.array_equal(fwd.levels_plus, rev.levels_plus[::-1])
    assert np.array_equal(fwd.levels_minus, rev.levels_minus[::-1])

    # displacement near-orthogonality on the retained rows
    for z in (0.5, 1.0, 1.5):
        D = displacement_matrix(z, 100)
        keep = 101 - 4 * math.ceil(z * z)
        gram = D.T @ D - np.eye(101)
        assert np.abs(gram[:keep, :keep]).max() <= 1e-10

    # branch-swap invariance: both branches give valid states at the same point
    point = juddian_points(4, RESONANCE)[3]
    flipped = replace(point, displacement_sign=-point.displacement_sign)
    assert (flipped.lam, flipped.g, flipped.E) == (point.lam, point.g, point.E)
    assert replace(flipped, displacement_sign=-flipped.displacement_sign) == point
    H = build_rabi(point.model_params(), cutoff=100)
    for pt in (point, flipped):
        state = reconstruct_state(pt, cutoff=100)
        r = H @ state.fock_vector - pt.E * state.fock_vector
        assert math.sqrt(float(r @ r)) <= 1e-6
    print("criterion 9 (property suite): PASS")
