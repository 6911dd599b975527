"""Tests for the isolated-exact-point solver and state reconstruction."""

import dataclasses
import hashlib
import math
import random
import re
import warnings

import numpy as np
import pytest

import rabijudd
import rabijudd.bosons as bosons_module
import rabijudd.cli as cli_module
import rabijudd.juddian as juddian_module
import rabijudd.numerics as numerics_module
import rabijudd.rabi as rabi_module
import rabijudd.reference as reference_module
import rabijudd.svgplot as svgplot_module
from rabijudd.bosons import oscillator_levels, support_rows
from rabijudd.juddian import (
    _compatibility_count,
    _reduced_band,
    find_crossings,
    juddian_points,
    reconstruct_state,
    verify_point,
)
from rabijudd.numerics import (
    FullRankError,
    RootCountError,
    _EPS,
    _gershgorin,
)
from rabijudd.rabi import ModelParams, _block_layout, spectrum_sweep
from rabijudd.reference import (
    build_full_system,
    build_rabi,
    compatibility_polynomial,
    displacement_matrix,
    null_vector,
    parity_blocks,
    poly_eval,
    poly_real_roots,
    sym_eig,
)
from rabijudd.svgplot import render_figure
from reference import parity_matrix, reduced_matrix

RESONANCE = ModelParams()  # omega = omega0 = 1, so omega_tilde = 1/2


def test_baseline_energy_values():
    # each point lies on its baseline E = N - lam^2, bit for bit
    assert abs(juddian_points(1, RESONANCE)[0].E - 0.8125000000) < 1e-9
    last = juddian_points(4, RESONANCE)[-1]
    assert abs(last.lam - 1.5164984830) < 1e-9
    assert abs(last.E - 1.7002323511) < 1e-9
    for n in range(1, 6):
        for p in juddian_points(n, RESONANCE):
            assert p.E == n - p.lam * p.lam
    with pytest.raises(ValueError):
        juddian_points(0, RESONANCE)


# ---------------------------------------------------------------------------
# compatibility systems

def test_full_system_n1_determinant_locus():
    # the 3x3 system is singular exactly on 4x + wt^2 - 1 = 0
    for wt in (0.25, 0.5, 0.75):
        x_root = (1.0 - wt * wt) / 4.0
        on = np.linalg.det(build_full_system(1, wt, x_root))
        off = np.linalg.det(build_full_system(1, wt, x_root + 0.05))
        assert abs(on) < 1e-13
        assert abs(off) > 1e-3


def test_full_system_n2_sign_changes_bracket_roots():
    s = math.sqrt(481.0)
    expected = [(29.0 - s) / 64.0, (29.0 + s) / 64.0]
    xs = np.linspace(1e-6, 1.0, 400)
    dets = np.array([np.linalg.det(build_full_system(2, 0.5, float(x))) for x in xs])
    flips = np.nonzero(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0)[0]
    assert len(flips) == 2
    for i, root in zip(flips, expected):
        assert xs[i] < root < xs[i + 1]


def test_full_system_nonroot_is_full_rank():
    with pytest.raises(FullRankError):
        null_vector(build_full_system(2, 0.5, 0.3))


def test_polynomial_leading_coefficient_positive():
    for n in range(1, 9):
        assert compatibility_polynomial(n, 0.5)[-1] > 0


def test_polynomial_matches_reduced_determinant():
    # the coefficient recurrence against elimination on T(x) itself
    for n in range(1, 11):
        for wt in (0.3, 0.5, 1.7, 4.2):
            p = compatibility_polynomial(n, wt)
            for x in np.linspace(0.0, 1.46 * n, 9):
                got = poly_eval(p, x)
                want = np.linalg.det(reduced_matrix(n, wt, x))
                floor = 1e-12 * sum(abs(c) * x**k for k, c in enumerate(p))
                assert abs(got - want) <= max(1e-10 * max(abs(got), abs(want)), floor), (n, wt, x)


def test_polynomial_n3_resonance_couplings():
    p = compatibility_polynomial(3, 0.5)
    roots = poly_real_roots(p, (1e-12, 3.0), expected_count=3)
    gs = [0.5 * math.sqrt(x) for x in roots]
    for got, want in zip(gs, (0.1400889590, 0.3664714887, 0.6163829153)):
        assert abs(got - want) < 1e-9


def _points_strata_draws(seed):
    """(N, omega_tilde) as perfbench's points workload draws them: N = 1..20,
    each at resonance and once in each of the ten strata of (0, 6), kept 0.05
    from resonance and 0.02 from integers."""
    rng = random.Random(seed)
    for N in range(1, 21):
        yield N, 0.5
        for lo in (0.6 * k for k in range(10)):
            wt = 0.5
            while abs(wt - 0.5) <= 0.05 or abs(wt - round(wt)) <= 0.02:
                wt = lo + 0.6 * rng.random()
            yield N, wt


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_poly_real_roots_on_the_points_probe_call(seed):
    # the benchmark's traced points probe makes this call and catches only
    # RootCountError: any other error would stop a traced run
    for N, wt in _points_strata_draws(seed):
        try:
            roots = poly_real_roots(compatibility_polynomial(N, wt), (1e-12, float(N)), N)
        except RootCountError as exc:
            assert exc.expected == N and len(exc.found) < N, (N, wt)
        else:
            assert len(roots) == N, (N, wt)


def test_full_and_reduced_roots_agree_small_orders():
    for n in range(1, 5):
        for wt in (0.25, 0.5, 0.75):
            poly = compatibility_polynomial(n, wt)
            red_roots = poly_real_roots(poly, (1e-12, 2.0 * n))
            xs = np.linspace(1e-9, 2.0 * n, 2000)
            dets = np.array(
                [np.linalg.det(build_full_system(n, wt, float(x))) for x in xs]
            )
            flips = np.nonzero(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0)[0]
            assert len(flips) == len(red_roots)
            for i, r in zip(flips, red_roots):
                assert xs[i] < r < xs[i + 1]


# ---------------------------------------------------------------------------
# point extraction

def test_points_n1_resonance():
    pts = juddian_points(1, RESONANCE)
    assert len(pts) == 1
    p = pts[0]
    assert abs(p.g - 0.2165063510) < 1e-9
    assert abs(p.E - 0.8125) < 1e-12
    assert p.E == p.N - p.lam * p.lam  # constructed identity, exact
    assert p.displacement_sign == 1


def test_points_n4_resonance():
    pts = juddian_points(4, RESONANCE)
    expected = (0.1234229399, 0.3199075781, 0.5243395120, 0.7582492415)
    assert len(pts) == 4
    for p, g_ref in zip(pts, expected):
        assert abs(p.g - g_ref) < 1e-9
        assert p.E == p.N - p.lam * p.lam
    assert [p.root_index for p in pts] == [0, 1, 2, 3]
    gs = [p.g for p in pts]
    assert gs == sorted(gs)


def test_points_model_params_roundtrip():
    for p in juddian_points(2, ModelParams(omega=2.0, omega0=1.0)):
        mp = p.model_params()
        assert mp.omega == pytest.approx(2.0, rel=1e-12)
        assert mp.omega_tilde == pytest.approx(0.25, rel=1e-12)
        assert mp.g == p.g


def test_points_boundary_root_filtered_off_resonance():
    # at omega_tilde = 1 the lone N=1 root sits at x = 0 and is excluded
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = juddian_points(1, ModelParams(omega=1.0, omega0=2.0))
    assert pts == []


def _expected_count(N, wt):
    return sum(1 for k in range(1, N + 1) if k > wt)


def _params(wt):
    return ModelParams(omega=1.0, omega0=2.0 * wt)


def _opposite_parity_gap(point):
    # nearest level to E in each parity block, by LAPACK, at a cutoff that
    # resolves the displaced number states |n, +-lam>, n <= N
    r = point.lam + math.sqrt(point.N)
    cutoff = math.ceil(r * r + 4.0 * r + 20.0)
    levels = []
    for block in parity_blocks(point.model_params(), cutoff):
        values = np.linalg.eigvalsh(block.matrix)
        levels.append(values[np.argmin(np.abs(values - point.E))])
    return abs(levels[0] - levels[1])


@pytest.mark.parametrize("N, wt", [(32, 0.5), (40, 0.5), (64, 0.5), (28, 2.3)])
def test_high_order_points_certified(N, wt):
    pts = juddian_points(N, _params(wt))
    assert len(pts) == _expected_count(N, wt)
    lams = [p.lam for p in pts]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    for p in pts[:: len(pts) // 4] + pts[-1:]:
        assert _opposite_parity_gap(p) <= 1e-9, (p.root_index, p.lam)


@pytest.mark.parametrize("N", [145, 200])
def test_orders_past_the_monomial_overflow(N):
    # scaling a residual of the monomial determinant by max(1, x) ** N
    # overflowed from N = 145 on; the Sturm-certified roots need no polynomial
    pts = juddian_points(N, RESONANCE)
    assert len(pts) == N
    gs = [p.g for p in pts]
    assert all(a < b for a, b in zip(gs, gs[1:]))


@pytest.mark.parametrize("wt", [0.25, 0.5, 0.75, 1.3, 2.3, 5.3])
def test_pivot_count_non_increasing_in_x(wt):
    # count(0+) = #{k > wt}, count(x_max) = 0, and no rise in between
    for N in range(1, 41):
        count, x_max = _compatibility_count(N, wt)
        xs = np.linspace(0.0, x_max, 401)
        xs[0] = 1e-300
        counts = [count(float(x))[0] for x in xs]
        assert counts[0] == _expected_count(N, wt)
        assert counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:])), N


def test_pivot_count_matches_dense_spectrum():
    for N in (1, 2, 3, 5, 8):
        for wt in (0.25, 0.5, 1.3, 2.3):
            count, x_max = _compatibility_count(N, wt)
            for x in np.linspace(0.01, x_max, 13):
                values = sym_eig(reduced_matrix(N, wt, float(x))).values
                assert count(float(x))[0] == int(np.sum(values < 0.0)), (N, wt, x)


def test_count_returns_the_last_pivot():
    # the last LDL^T pivot of T(x) is det T(x) / det T_{N-1}(x)
    for N in (1, 2, 5, 8):
        for wt in (0.5, 2.3):
            count, x_max = _compatibility_count(N, wt)
            for x in np.linspace(0.01, x_max, 7):
                T = reduced_matrix(N, wt, float(x))
                minor = np.linalg.det(T[:-1, :-1]) if N > 1 else 1.0
                want = np.linalg.det(T) / minor
                assert abs(count(float(x))[1] - want) <= 1e-10 * max(1.0, abs(want)), (N, wt, x)


def test_off_resonance_points_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in range(1, 5):
            assert len(juddian_points(N, _params(1.3))) == N - 1


def _fake_count(counts):
    # stand-in for _compatibility_count: the pivot count of T(x), with a last pivot of 1
    return lambda N, wt: (lambda x: (counts(x), 1.0), N * juddian_module._ROOT_BOUND)


@pytest.mark.parametrize(
    "counts, fragment",
    [
        (lambda x: 3, "at x = 0+"),  # N = 2 at resonance holds 2 roots
        (lambda x: 2 if x < 2.5 else 1, "at x = 2.91"),  # bound not cleared
        (lambda x: 2 if x < 1.0 else (3 if x < 2.0 else 0), "outside [0, 2]"),
        (lambda x: 2 if x < 0.5 else 0, "2 roots left"),  # a double root
    ],
)
def test_uncertified_count_raises(monkeypatch, counts, fragment):
    monkeypatch.setattr(juddian_module, "_compatibility_count", _fake_count(counts))
    with pytest.raises(RootCountError, match=re.escape(fragment)):
        juddian_points(2, RESONANCE)


def _full_walk(d, e2, x, tiny):
    """Negative LDL^T pivots of T - x over every row, and the last pivot."""
    q = d[0] - x
    count = 1 if q < 0.0 else 0
    for i in range(1, len(d)):
        if -tiny < q < tiny:
            q = -tiny if q < 0.0 else tiny
        q = d[i] - x - e2[i - 1] / q
        if q < 0.0:
            count += 1
    return count, q


def _reference_count(N, wt):
    # T(x) as diagonal d0 at shift -4x with squared couplings x e4, walked by
    # _full_walk, and the compatibility tiny
    d0, e4 = _reduced_band(N, wt)
    x_max = N * juddian_module._ROOT_BOUND
    tiny = np.finfo(float).eps * (max(abs(v) for v in d0) + 4.0 * x_max)
    return lambda x: _full_walk(d0, [x * c for c in e4], -4.0 * x, tiny)


@pytest.mark.parametrize("wt", [0.5, 1.0, 1.3, 5.3])
def test_compatibility_count_is_the_full_walk(wt):
    # d0_n + 4x - x e4 / q is d0_n - (-4x) - (x e4) / q bit for bit, so count
    # and last pivot equal the reference exactly; at x = -d0_0 / 4 the first
    # pivot is exactly 0 and the clamp sets the rest
    for N in [*range(1, 41), 64, 100]:
        count, x_max = _compatibility_count(N, wt)
        reference = _reference_count(N, wt)
        d0, _ = _reduced_band(N, wt)
        xs = [1e-300, *np.linspace(0.0, x_max, 17)[1:].tolist(),
              *juddian_module._compatibility_roots(N, wt)]
        if N > 1 and d0[0] < 0.0:
            clamped = -0.25 * d0[0]
            assert d0[0] + 4.0 * clamped == 0.0
            xs.append(clamped)
            assert math.isfinite(count(clamped)[1])
        for x in xs:
            assert count(x) == reference(x), (N, x)


def _bisection_roots(N, wt):
    # reference: pure count bisection, each bracket halved until it is
    # 4 eps hi wide and holds one count drop
    eps = np.finfo(float).eps
    x_max = N * juddian_module._ROOT_BOUND
    walk = _reference_count(N, wt)

    def count(x):
        return walk(x)[0]

    roots = []
    brackets = [(0.0, x_max, _expected_count(N, wt), 0)]
    while brackets:
        split = []
        for lo, hi, c_lo, c_hi in brackets:
            mid = 0.5 * (lo + hi)
            if hi - lo <= 4.0 * eps * hi or not lo < mid < hi:
                assert c_lo - c_hi == 1
                roots.append(mid)
                continue
            c_mid = count(mid)
            if c_lo > c_mid:
                split.append((lo, mid, c_lo, c_mid))
            if c_mid > c_hi:
                split.append((mid, hi, c_mid, c_hi))
        brackets = split
    return sorted(roots)


@pytest.mark.parametrize("wt", [0.25, 0.5, 0.75, 1.3, 2.3, 5.3])
def test_roots_match_bisection_reference(wt):
    for N in [*range(1, 41), 64, 100]:
        got = juddian_module._compatibility_roots(N, wt)
        want = _bisection_roots(N, wt)
        assert len(got) == len(want) == _expected_count(N, wt)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-15 * b, (N, a, b)


def _lying_pivot(lie):
    # the true count of T(x) with a false last pivot, so that only the
    # count can keep the finish on the root's side
    real = juddian_module._compatibility_count
    rng = random.Random(7)

    def lying(N, wt):
        count, x_max = real(N, wt)

        def lying_count(x):
            c, q = count(x)
            return c, lie(q, x, rng)

        return lying_count, x_max

    return lying


@pytest.mark.parametrize(
    "lie",
    [
        lambda q, x, rng: 1.0,
        lambda q, x, rng: -q,
        lambda q, x, rng: rng.choice((-1.0, 1.0)) * q,
        lambda q, x, rng: x - 0.7,
    ],
    ids=["constant", "negated", "random-sign", "wrong-zero"],
)
def test_finish_ignores_a_lying_pivot(monkeypatch, lie):
    eps = np.finfo(float).eps
    references = {(N, wt): _bisection_roots(N, wt) for N in range(1, 13) for wt in (0.5, 2.3)}
    monkeypatch.setattr(juddian_module, "_compatibility_count", _lying_pivot(lie))
    for (N, wt), want in references.items():
        got = juddian_module._compatibility_roots(N, wt)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 4.0 * eps * b, (N, wt, a, b)


def test_finish_past_its_round_cap_raises(monkeypatch):
    # with a pivot that never brackets a zero the finish bisects, which
    # needs about 50 rounds of counts
    monkeypatch.setattr(juddian_module, "_compatibility_count", _lying_pivot(lambda q, x, rng: 1.0))
    monkeypatch.setattr(juddian_module, "_ROUNDS", 20)
    with pytest.raises(RootCountError, match=re.escape("3 brackets left after 20 rounds")):
        juddian_points(3, RESONANCE)


def test_roots_are_bit_for_bit_the_recorded_ones():
    # float.hex of every root, hashed; the literal was recorded before the
    # count walked prebuilt row pairs, so a rewrite of the search that moves
    # one root by one ulp fails here
    digest = hashlib.sha256()
    for wt in (0.5, 1.3, 3.7):
        for N in [*range(1, 41), 64, 100]:
            for x in juddian_module._compatibility_roots(N, wt):
                digest.update(x.hex().encode() + b"\n")
    assert digest.hexdigest() == "bea3bbbf4f8d11d53fb5b53a7fc8d103776af3b8fa619679e58c8ba85659fd13"


def test_roots_take_about_twelve_counts_each(monkeypatch):
    # the Illinois finish, the two end counts included; 11.8 to 13.8 per root
    # when this was written, mean 12.5
    real = juddian_module._compatibility_count
    calls = []

    def counted(N, wt):
        count, x_max = real(N, wt)

        def counting(x):
            calls.append(x)
            return count(x)

        return counting, x_max

    monkeypatch.setattr(juddian_module, "_compatibility_count", counted)
    per_root = []
    for N in (20, 64, 100):
        for wt in (0.5, 1.3, 3.7):
            calls.clear()
            roots = juddian_module._compatibility_roots(N, wt)
            per_root.append(len(calls) / len(roots))
            assert per_root[-1] <= 15.0, (N, wt, per_root[-1])
    assert sum(per_root) / len(per_root) <= 13.0


def test_points_reject_a_non_integral_order():
    # int() would cut these to 2, 3, 1 and 1; an N it leaves equal stays accepted
    for N in (2.5, "3", 1.0000001, True):
        with pytest.raises(ValueError, match="N must be an integer"):
            juddian_points(N, RESONANCE)
    for N in (2.0, np.int64(2), np.float64(2.0)):
        assert juddian_points(N, RESONANCE) == juddian_points(2, RESONANCE)


def test_state_and_verify_reject_a_non_integral_cutoff():
    point = juddian_points(2, RESONANCE)[0]
    for cutoff in (20.9, "20", 20.5):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            reconstruct_state(point, cutoff)
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            verify_point(point, cutoff)
    want = verify_point(point, 20)
    for cutoff in (20.0, np.int64(20)):
        assert verify_point(point, cutoff) == want


def test_points_reject_nonpositive_splitting():
    with pytest.raises(ValueError, match="the omega0 = 0 limit is exactly solvable"):
        juddian_points(1, ModelParams(omega=1.0, omega0=0.0))
    with pytest.raises(ValueError, match=re.escape("sigma_x-equivalent to H(|omega0|)")):
        juddian_points(1, ModelParams(omega=1.0, omega0=-2.0))


# ---------------------------------------------------------------------------
# state reconstruction

def test_reconstruct_n1_coefficient_relations():
    point = juddian_points(1, RESONANCE)[0]
    state = reconstruct_state(point, cutoff=100)
    assert state.p.shape == (1,)
    assert state.q.shape == (2,)
    # row family B at n = 0: wt*p0 + (0 - N)*q0 = 0
    assert abs(state.q[0] - 0.5 * state.p[0] / 1.0) < 1e-12
    assert abs(state.q[-1]) > 1e-12
    assert abs(np.sqrt(state.fock_vector @ state.fock_vector) - 1.0) < 1e-10
    assert state.p[0] > 0


@pytest.mark.parametrize("wt", [0.25, 0.5, 1.3, 2.3])
def test_reconstruct_matches_dense_null_vector(wt):
    # p and q from T(x) against the null vector of the (2N+1)-row system,
    # with null_vector's sign (first component above 1e-12 positive)
    for N in [*range(1, 9), 20, 32, 40]:
        for point in juddian_points(N, _params(wt)):
            for pt in (point, dataclasses.replace(point, displacement_sign=-point.displacement_sign)):
                x = pt.lam * pt.lam
                state = reconstruct_state(pt, cutoff=max(N, math.ceil(4.0 * x)))
                ref = null_vector(build_full_system(N, wt, x, pt.displacement_sign))
                assert np.abs(state.p - ref[:N]).max() <= 1e-13, (N, pt.root_index)
                assert np.abs(state.q - ref[N:]).max() <= 1e-13, (N, pt.root_index)


def test_reconstruct_eigen_residual_single_point():
    point = juddian_points(2, RESONANCE)[1]
    state = reconstruct_state(point, cutoff=100)
    H = build_rabi(point.model_params(), cutoff=100)
    r = H @ state.fock_vector - point.E * state.fock_vector
    assert math.sqrt(r @ r) <= 1e-6


def test_reconstructed_state_mixes_parity():
    point = juddian_points(1, RESONANCE)[0]
    state = reconstruct_state(point, cutoff=100)
    signs = np.diag(parity_matrix(100))
    v = state.fock_vector
    plus_norm = math.sqrt(float(v[signs > 0] @ v[signs > 0]))
    minus_norm = math.sqrt(float(v[signs < 0] @ v[signs < 0]))
    assert plus_norm >= 1e-3
    assert minus_norm >= 1e-3


@pytest.mark.parametrize("omega0", [1e-160, 1e-320])
def test_reconstruct_at_tiny_splitting(omega0):
    # q_N = -2 lam sqrt(N) p_{N-1} / wt: its square overflowed at omega0 =
    # 1e-160 (nan residuals, with RuntimeWarnings that fail this suite) and
    # q_N itself at 1e-320; the state tends to q_N alone as wt -> 0
    for point in juddian_points(3, ModelParams(omega=1.0, omega0=omega0)):
        state = reconstruct_state(point, cutoff=100)
        v = np.concatenate((state.p, state.q))
        assert np.all(np.isfinite(v)) and abs(v @ v - 1.0) <= 1e-15
        assert abs(abs(state.q[-1]) - 1.0) <= 1e-15
        report = verify_point(point, cutoff=100)
        assert report.degeneracy_gap <= 1e-6 and report.eigen_residual <= 1e-14


def test_reconstruct_cutoff_guard():
    point = juddian_points(4, RESONANCE)[3]
    with pytest.raises(ValueError):
        reconstruct_state(point, cutoff=3)


def _dense_fock_vector(point, state, cutoff):
    # the same state from the columns of the dense displacement matrix
    D = displacement_matrix(point.displacement_sign * point.lam, cutoff)
    coupled = D[:, : point.N] @ state.p
    diagonal = D[:, : point.N + 1] @ state.q
    if point.displacement_sign == 1:
        comp1, comp2 = coupled, diagonal
    else:
        comp1, comp2 = diagonal, coupled
    fock = np.empty(2 * (cutoff + 1))
    fock[0::2] = comp1 + comp2
    fock[1::2] = comp1 - comp2
    return fock / math.sqrt(float(fock @ fock))


@pytest.mark.parametrize("cutoff", [100, 300])
def test_recurrence_states_match_dense_displacement(cutoff):
    for N in range(1, 9):
        for point in juddian_points(N, RESONANCE):
            for pt in (point, dataclasses.replace(point, displacement_sign=-point.displacement_sign)):
                state = reconstruct_state(pt, cutoff)
                dense = _dense_fock_vector(pt, state, cutoff)
                assert np.abs(state.fock_vector - dense).max() <= 1e-12, (N, pt.root_index)


def test_reconstruct_z_guard_message():
    point = juddian_points(8, RESONANCE)[-1]  # lam^2 = 5.68 > 20/4
    with pytest.raises(ValueError, match=re.escape("too large for cutoff 20: need z^2 <= M/4")):
        reconstruct_state(point, cutoff=20)


def test_high_order_state_stays_accurate():
    # the bare ladder recurrence loses about a factor 2 per order; at
    # N = 20 it left an eigen-residual near 3e-5
    point = juddian_points(20, RESONANCE)[-1]
    for pt in (point, dataclasses.replace(point, displacement_sign=-point.displacement_sign)):
        report = verify_point(pt, cutoff=300)
        assert report.eigen_residual <= 1e-12


# ---------------------------------------------------------------------------
# branch swap

def test_alternate_branch_swaps_and_restores():
    point = juddian_points(3, RESONANCE)[1]
    other = dataclasses.replace(point, displacement_sign=-point.displacement_sign)
    assert other.displacement_sign == -1
    assert (other.N, other.lam, other.g, other.E) == (
        point.N, point.lam, point.g, point.E
    )
    again = dataclasses.replace(other, displacement_sign=-other.displacement_sign)
    assert again == point


def test_alternate_branch_state_solves_same_eigenproblem():
    point = juddian_points(3, RESONANCE)[2]
    H = build_rabi(point.model_params(), cutoff=100)
    for pt in (point, dataclasses.replace(point, displacement_sign=-point.displacement_sign)):
        state = reconstruct_state(pt, cutoff=100)
        r = H @ state.fock_vector - pt.E * state.fock_vector
        assert math.sqrt(r @ r) <= 1e-6


def test_branch_set_invariance():
    pts = juddian_points(4, RESONANCE)
    swapped = [dataclasses.replace(p, displacement_sign=-p.displacement_sign) for p in pts]
    for a, b in zip(pts, swapped):
        assert abs(a.lam - b.lam) <= 1e-12
        assert abs(a.g - b.g) <= 1e-12
        assert abs(a.E - b.E) <= 1e-12


# ---------------------------------------------------------------------------
# verification

def test_verify_leaves_point_unchanged():
    for point in juddian_points(3, ModelParams(omega=1.0, omega0=2.6)):
        before = dataclasses.asdict(point)
        report = verify_point(point, cutoff=100)
        assert dataclasses.asdict(point) == before
        assert report.point is point


def test_verify_first_and_last_reference_points():
    p1 = juddian_points(1, RESONANCE)[0]
    rep = verify_point(p1, cutoff=100)
    assert rep.degeneracy_gap <= 1e-6
    assert rep.eigen_residual <= 1e-6

    p10 = juddian_points(4, RESONANCE)[3]
    rep = verify_point(p10, cutoff=100)
    assert abs(rep.energy_plus - 1.7002323511) <= 1e-6
    assert abs(rep.energy_minus - 1.7002323511) <= 1e-6


def test_perturbed_coupling_breaks_degeneracy():
    point = juddian_points(1, RESONANCE)[0]
    dg = 2e-4
    fake = dataclasses.replace(point, g=point.g + dg, lam=point.lam + 2.0 * dg)

    # the degeneracy gap opens linearly, far beyond the 1e-6 verification bar
    plus, minus = parity_blocks(fake.model_params(), 100)
    gap = abs(
        sym_eig(plus.matrix).values - fake.E
    ).min() + abs(sym_eig(minus.matrix).values - fake.E).min()
    assert gap > 1e-4

    # and the full pipeline refuses the off-locus point outright
    with pytest.raises(RuntimeError):
        verify_point(fake, cutoff=100)
    with pytest.raises(FullRankError):
        reconstruct_state(fake, cutoff=100)


@pytest.mark.parametrize("N, index", [(1, 0), (4, 3), (6, 2)])
def test_reconstruct_refuses_a_point_a_relative_1e9_off_the_locus(N, index):
    # moving lam by a relative eps leaves ||T(x) p|| at about 0.4 to 1 eps of
    # its scale: 1e-9 is refused, 1e-13 (rounding) is not
    point = juddian_points(N, RESONANCE)[index]
    for eps, refused in ((1e-9, True), (1e-13, False)):
        lam = point.lam * (1.0 + eps)
        moved = dataclasses.replace(point, lam=lam, g=0.5 * lam)
        if refused:
            with pytest.raises(FullRankError, match="off the locus"):
                reconstruct_state(moved, cutoff=100)
        else:
            reconstruct_state(moved, cutoff=100)


def test_verify_residual_reaches_the_row_past_the_state(monkeypatch):
    # the state is zero from row R on, so (H - E) psi can be nonzero up to
    # row R: a state whose one entry is on row R - 1 couples to row R, and
    # the residual holds that coupling as the dense H gives it
    point, M = juddian_points(1, RESONANCE)[0], 100
    R = support_rows(point.lam, point.N)
    assert R < M
    fock = np.zeros(2 * (M + 1))
    fock[2 * (R - 1)] = 1.0
    state = juddian_module.JuddianState(p=None, q=None, displacement_sign=1, fock_vector=fock)
    monkeypatch.setattr(juddian_module, "reconstruct_state", lambda p, cutoff: state)
    report = verify_point(point, M)
    dense = build_rabi(point.model_params(), M) @ fock - point.E * fock
    assert np.flatnonzero(dense).max() // 2 == R
    assert report.eigen_residual == pytest.approx(np.linalg.norm(dense), rel=1e-14)


def test_verify_undersized_cutoff_raises():
    point = juddian_points(1, RESONANCE)[0]
    with pytest.raises(RuntimeError):
        verify_point(point, cutoff=3)
    with pytest.raises(ValueError, match="^cutoff must be non-negative, got -1$"):
        verify_point(point, cutoff=-1)


def test_verify_certifies_each_point_with_four_counts(monkeypatch):
    # two Sturm counts per parity block at E -/+ delta, delta = 64 eps times
    # the larger Gershgorin end of the two blocks: each level lies within it
    calls = []
    count = juddian_module._sturm_count
    monkeypatch.setattr(juddian_module, "_sturm_count", lambda *a: calls.append(1) or count(*a))
    for point in juddian_points(4, RESONANCE):
        calls.clear()
        report = verify_point(point, cutoff=100)
        assert len(calls) == 4
        params = point.model_params()
        diags, root = _block_layout(params, 100)
        scale = max(max(abs(v) for v in _gershgorin(diag, params.lam * root)) for diag in diags)
        assert report.degeneracy_gap == 2.0 * 64.0 * _EPS * scale
        assert report.energy_plus == report.energy_minus == point.E


def test_verify_solves_twice_per_point(monkeypatch):
    # the two inverse-iteration steps give T(x)'s null vector p; the N + 1
    # displaced number states take none, however large N is
    assert not hasattr(bosons_module, "_inverse_step")
    calls = []
    step = juddian_module._inverse_step
    counted = lambda *a: calls.append(1) or step(*a)  # noqa: E731
    monkeypatch.setattr(juddian_module, "_inverse_step", counted)
    monkeypatch.setattr(numerics_module, "_inverse_step", counted)
    for N, cutoff in ((1, 100), (4, 100), (30, 300)):
        for point in juddian_points(N, RESONANCE):
            calls.clear()
            verify_point(point, cutoff)
            assert len(calls) == 2, (N, point.root_index)


def test_verify_gap_bounds_a_shifted_energy():
    # the levels sit 1e-9 from a shifted E, and the gap bounds their distance
    # from E, so it must reach past 1e-9 while the verdict still holds
    for point in juddian_points(4, RESONANCE):
        shifted = dataclasses.replace(point, E=point.E + 1e-9)
        report = verify_point(shifted, cutoff=100)
        assert 1e-9 <= report.degeneracy_gap <= 1e-6
        want = verify_point(point, cutoff=100)
        assert (report.level_plus, report.level_minus) == (want.level_plus, want.level_minus)


@pytest.mark.parametrize("shift", [-1e-9, 1e-7, -1e-5, 3e-4])
def test_verify_gap_grows_with_the_distance_to_the_levels(shift):
    # delta grows 16-fold from its base until it reaches the levels, so the
    # gap 2 delta is at least twice their distance and at most 32 times it
    point = juddian_points(3, RESONANCE)[1]
    want = verify_point(point, cutoff=100)
    report = verify_point(dataclasses.replace(point, E=point.E + shift), cutoff=100)
    assert 2.0 * abs(shift) - 1e-10 <= report.degeneracy_gap <= 32.0 * abs(shift) + 1e-10
    assert (report.level_plus, report.level_minus) == (want.level_plus, want.level_minus)
    assert report.energy_plus == report.energy_minus == point.E + shift


@pytest.mark.parametrize("shift", [2e-3, -2e-3])
def test_verify_refuses_levels_past_the_widest_certificate(shift):
    point = juddian_points(3, RESONANCE)[1]
    shifted = dataclasses.replace(point, E=point.E + shift)
    message = f"no eigenvalue within 1e-3 of E={shifted.E:.6f} in the parity +1 block at cutoff 100; increase the cutoff"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        verify_point(shifted, cutoff=100)


def test_verify_refuses_two_levels_in_one_block(monkeypatch):
    # two levels inside the certificate of one block: the point is not isolated
    monkeypatch.setattr(juddian_module, "_block_counter",
                        lambda diags, root, lam_max: lambda lam, E, delta: [(3, 4), (3, 5)])
    point = juddian_points(2, RESONANCE)[0]
    message = (
        rf"^2 eigenvalues within \S+ of E={point.E:.6f} in the parity -1 block at cutoff 100; "
        "the level is not isolated$"
    )
    with pytest.raises(RuntimeError, match=message):
        verify_point(point, cutoff=100)


def test_verify_climbs_its_delta_ladder_on_one_counter(monkeypatch):
    # the counter is built once, at the point's coupling, and every rung of
    # the delta ladder counts through it
    built, deltas = [], []
    block_counter = juddian_module._block_counter

    def recording(*args):
        built.append(args[2])
        counter = block_counter(*args)
        return lambda lam, E, delta: deltas.append((lam, delta)) or counter(lam, E, delta)

    monkeypatch.setattr(juddian_module, "_block_counter", recording)
    point = juddian_points(3, RESONANCE)[1]
    verify_point(dataclasses.replace(point, E=point.E + 1e-5), cutoff=100)
    lam = point.model_params().lam
    assert built == [lam]
    assert len(deltas) >= 3
    assert all(b == (lam, 16.0 * a[1]) for a, b in zip(deltas, deltas[1:]))


def test_verify_starts_its_ladder_at_64_eps_or_above(monkeypatch):
    # delta starts at 64 eps max(|lo|, |hi|, 1) over the blocks' Gershgorin
    # intervals: at cutoff 0 the blocks are the 1 x 1 [-/+ 1/2], inside
    # [-1, 1], so the floor sets it; a zero block would otherwise start, and
    # stay, at delta = 0
    deltas = []
    block_counter = juddian_module._block_counter

    def recording(*args):
        counter = block_counter(*args)
        return lambda lam, E, delta: deltas.append(delta) or counter(lam, E, delta)

    monkeypatch.setattr(juddian_module, "_block_counter", recording)
    with pytest.raises(RuntimeError, match="^no eigenvalue within 1e-3 of E="):
        verify_point(juddian_points(1, RESONANCE)[0], cutoff=0)
    assert deltas[0] == 64.0 * _EPS


def test_verify_climbs_until_both_blocks_hold_their_level():
    # at cutoff 8 truncation moves this point's two levels by different
    # amounts, about 1.5e-6 (+) and 7.9e-6 (-), more than one rung of the
    # ladder apart: it climbs until both lie within delta, so the gap bounds both
    point = juddian_points(4, RESONANCE)[0]
    report = verify_point(point, cutoff=8)
    params = point.model_params()
    diags, root = _block_layout(params, 8)
    off = params.lam * root
    distances = []
    for diag, level in zip(diags, (report.level_plus, report.level_minus)):
        distances.append(abs(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[level] - point.E))
    assert max(distances) <= 0.5 * report.degeneracy_gap
    assert min(distances) <= 0.5 * report.degeneracy_gap / 16.0


def test_verify_undersized_cutoff_message():
    point = juddian_points(8, RESONANCE)[-1]
    message = (
        f"no eigenvalue within 1e-3 of E={point.E:.6f} in the parity +1 "
        "block at cutoff 30; increase the cutoff"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        verify_point(point, cutoff=30)


def test_no_package_path_calls_a_reference(monkeypatch):
    # rabijudd.reference is kept for the benchmark and the tests alone: with
    # each of its functions and classes a stub that raises, on the module and
    # on the package, every package path runs, and no other package module
    # holds one of them under its name
    names = [name for name, value in vars(reference_module).items()
             if getattr(value, "__module__", None) == reference_module.__name__]
    assert len(names) == 19, names

    def refuse(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"rabijudd.reference.{name} called")
        return stub

    for name in names:
        monkeypatch.setattr(reference_module, name, refuse(name))
        if hasattr(rabijudd, name):
            monkeypatch.setattr(rabijudd, name, refuse(name))
    modules = (numerics_module, bosons_module, rabi_module, juddian_module, svgplot_module, cli_module)
    assert [(m.__name__, name) for m in modules for name in names if hasattr(m, name)] == []

    for params in (RESONANCE, _params(2.3)):
        for N in range(1, 7):
            for point in juddian_points(N, params):
                assert reconstruct_state(point, cutoff=100).fock_vector.shape == (202,)
                report = verify_point(point, cutoff=100)
                assert report.degeneracy_gap <= 1e-6
                assert report.eigen_residual <= 1e-6
    table = spectrum_sweep(RESONANCE, np.linspace(0.05, 0.8, 201), cutoff=100, levels_per_block=8)
    assert find_crossings(table)
    for kind in ("displaced", "squeezed"):
        assert oscillator_levels(kind, 0.3, 100, 10).shape == (10,)
    rows = [(g, parity, level, float(e)) for parity, levels in ((1, table.levels_plus), (-1, table.levels_minus))
            for g, row in zip(table.g_values.tolist(), levels) for level, e in enumerate(row)]
    points = [{"N": p.N, "lambda": p.lam, "g": p.g, "E": p.E} for p in juddian_points(3, RESONANCE)]
    assert render_figure(rows, points).count('<path class="juddian-point"') == len(points)


def test_verify_large_cutoff_agrees_with_small():
    for point in juddian_points(4, RESONANCE):
        small = verify_point(point, cutoff=300)
        large = verify_point(point, cutoff=3000)
        assert (large.level_plus, large.level_minus) == (small.level_plus, small.level_minus)
        assert abs(large.energy_plus - small.energy_plus) <= 1e-10
        assert abs(large.energy_minus - small.energy_minus) <= 1e-10
        assert large.degeneracy_gap <= 1e-10
        assert large.eigen_residual <= 1e-10


def test_tail_weight_separates_adequate_from_short_cutoff():
    assert verify_point(juddian_points(4, RESONANCE)[-1], cutoff=100).tail_weight <= 1e-30
    # N = 7 at M = 30: the last point still passes the 1e-3 level window
    short = verify_point(juddian_points(7, RESONANCE)[-1], cutoff=30)
    assert short.tail_weight >= 1e-4
    assert short.eigen_residual > 1e-6


def test_tail_weight_is_zero_below_the_top_tenth():
    # the state is built on its support rows and zero above them
    for point in juddian_points(4, RESONANCE):
        report = verify_point(point, cutoff=300)
        assert report.support_rows == support_rows(point.lam, 4) <= 301 - 30
        assert report.tail_weight == 0.0


def _assert_verify_matches_dense(point, cutoff):
    # reference: full QL diagonalization of each block, nearest level by argmin
    report = verify_point(point, cutoff=cutoff)
    reference = []
    for block in parity_blocks(point.model_params(), cutoff):
        values = sym_eig(block.matrix).values
        idx = int(np.argmin(np.abs(values - point.E)))
        reference.append((idx, float(values[idx])))
    (lp, ep), (lm, em) = reference
    assert (report.level_plus, report.level_minus) == (lp, lm)
    assert abs(report.energy_plus - ep) <= 1e-10
    assert abs(report.energy_minus - em) <= 1e-10


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_verify_levels_match_dense_reference(N):
    for point in juddian_points(N, RESONANCE):
        _assert_verify_matches_dense(point, 100)


def test_verify_levels_match_dense_reference_cutoff_300():
    _assert_verify_matches_dense(juddian_points(4, RESONANCE)[3], 300)


def test_verify_levels_match_dense_reference_off_resonance():
    for point in juddian_points(3, ModelParams(omega=1.0, omega0=0.5)):
        _assert_verify_matches_dense(point, 100)
