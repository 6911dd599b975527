"""Self-tests of the benchmark. Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The order-1 point in closed form: the 1x1 compatibility condition
# -1 + 4x + omega_tilde^2 = 0 gives x = lambda^2 = (1 - omega_tilde^2) / 4.
WT = 0.5
LAM = math.sqrt((1.0 - WT * WT) / 4.0)
E = 1.0 - LAM * LAM


def _inputs(workload, seed, n_rounds=3):
    gen = workloads.rounds(workload, seed)
    return [[(t.kind, t.inputs) for t in next(gen)] for _ in range(n_rounds)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_sizes(workload):
    first, second = _inputs(workload, 1, 2)
    assert workloads.round_sizes([workloads.Task(k, x) for k, x in first]) == \
        workloads.round_sizes([workloads.Task(k, x) for k, x in second])


def test_metric_names_match_the_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


def test_oracle_accepts_the_exact_point():
    reason, stats = oracle.check_points(1, WT, [(LAM, E)])
    assert reason is None
    assert stats["valid"] == 1 and stats["max_gap"] < 1e-12


def test_oracle_flags_a_shifted_energy():
    reason, _ = oracle.check_points(1, WT, [(LAM, E + 1e-3)])
    assert reason is not None


def test_oracle_flags_a_wrong_point_on_the_baseline():
    lam = math.sqrt(LAM * LAM - 1e-3)  # E = N - lam^2 moves up by 1e-3
    reason, stats = oracle.check_points(1, WT, [(lam, 1.0 - lam * lam)])
    assert "no eigenvalue" in reason
    assert stats["valid"] == 0


def test_oracle_flags_a_wrong_count():
    assert "expected 1" in oracle.check_points(1, WT, [])[0]
    assert "expected 1" in oracle.check_points(1, WT, [(LAM, E), (LAM, E)])[0]
    assert oracle.expected_point_count(8, 3.5) == 5


def test_oracle_sample_counts_valid_points_of_a_wrong_list():
    lam = math.sqrt(LAM * LAM - 1e-3)
    reason, stats = oracle.check_points(1, WT, [(LAM, E), (lam, 1.0 - lam * lam)], sample=8)
    assert "expected 1" in reason
    assert (stats["checked"], stats["valid"]) == (2, 1)


def test_oracle_flags_a_shifted_verification():
    plus, minus = oracle.block_spectra(WT, LAM, 40)
    i, j = int(abs(plus - E).argmin()), int(abs(minus - E).argmin())
    good = SimpleNamespace(energy_plus=plus[i], energy_minus=minus[j], level_plus=i,
                           level_minus=j, degeneracy_gap=abs(plus[i] - minus[j]),
                           eigen_residual=1e-15)
    assert oracle.check_verification(WT, LAM, E, 40, good) is None
    shifted = SimpleNamespace(**{**vars(good), "energy_plus": plus[i] + 1e-3})
    assert oracle.check_verification(WT, LAM, E, 40, shifted) is not None


def test_oracle_flags_shifted_oscillator_levels():
    exact = oracle.oscillator_levels("squeezed", 0.3)
    assert oracle.check_oscillator("squeezed", 0.3, exact)[0] is None
    assert oracle.check_oscillator("squeezed", 0.3, exact + 1e-3)[0] is not None


def test_tail_is_the_eleventh_largest():
    value, pct = workloads.percentile_beyond([float(i) for i in range(100)], 100)
    assert (value, pct) == (89.0, 90.0)


def test_tail_rank_follows_the_planned_count():
    # A run cut to half its planned samples keeps the planned percentile.
    value, pct = workloads.percentile_beyond([float(i) for i in range(50)], 100)
    assert (value, pct) == (44.0, 90.0)


def _lapack_crossing(i, j, lo, hi, wt, cutoff):
    """The crossing of + level i and - level j in [lo, hi], by bisection on LAPACK levels."""
    def diff(g):
        plus, minus = oracle.block_spectra(wt, 2.0 * g, cutoff)
        return plus[i] - minus[j], 0.5 * (plus[i] + minus[j])

    neg_lo = diff(lo)[0] < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (diff(mid)[0] < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return SimpleNamespace(g_star=mid, E_star=diff(mid)[1], level_plus=i, level_minus=j)


def test_oracle_flags_a_dropped_crossing():
    wt, cutoff, k = 0.5, 30, 4
    g = np.linspace(0.05, 0.8, 41)
    levels = [oracle.block_spectra(wt, 2.0 * x, cutoff) for x in g]
    plus = np.array([p[:k] for p, _ in levels])
    minus = np.array([m[:k] for _, m in levels])
    cells = oracle.sign_change_cells(g, plus, minus)
    crossings = [_lapack_crossing(i, j, lo, hi, wt, cutoff)
                 for (i, j), found in cells.items() for lo, hi in found]
    assert len(crossings) >= 2
    assert oracle.check_crossing_count(g, plus, minus, crossings) is None
    assert oracle.check_crossings(wt, cutoff, crossings)[0] is None
    assert "crossings returned" in oracle.check_crossing_count(g, plus, minus, crossings[1:])
    assert "crossings returned" in oracle.check_crossing_count(g, plus, minus, [])
    moved = SimpleNamespace(**{**vars(crossings[0]), "g_star": crossings[0].g_star + 0.02})
    assert "outside" in oracle.check_crossing_count(g, plus, minus, [moved, *crossings[1:]])
