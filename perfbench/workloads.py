"""The three workloads: seeded inputs, the task each input drives, its check.

A workload is a list of slots. One round draws every slot once from the seeded
generator and shuffles the round. Slots, and for points the round's index,
fix what sets a task's cost (order N, cutoff M, grid size G, levels k, and the
integer part or stratum of omega_tilde, which fixes how many points an order
has); the seed draws the continuous parameters and the order. So each round
costs about the same for every seed, while no input repeats, and a cache keyed
on inputs gains nothing.

A run makes a fixed number of rounds, planned_rounds(workload, seconds), set
by the requested seconds and not by the speed of the code. Every commit is
then timed on the same tasks, and the tail rank falls in the same slots.

Why these workloads:

- points: juddian_points alone, N = 1..20, half the orders at resonance.
  compatibility_polynomial and poly_real_roots carry the time; rabi and
  bosons do nothing. Off-resonance orders take the slow rescan path, so a gain
  on one regime that costs the other shows. The orders stop at 20 because a
  workload must be one on which no operation fails: from N = 23 on, the root
  finder the benchmark was defined on returns points that miss the oracle's
  tolerance (see POINTS_MAX_N).
- verify: what `rabijudd verify` does, juddian_points then verify_point on
  every point at M = 100, 200, 300, plus two oscillator checks in nine. Two
  sym_eig calls are nearly all of it; M varies so an O(M^3) -> O(M) change
  shows by size. The squeezed oscillator is the only user of sym_eig's
  Householder path.
- sweep: spectrum_sweep, find_crossings and render_figure. The batched Sturm
  bisection and the scalar Sturm refinement carry the time; sym_eig and
  juddian are untouched. k = 16 triples the crossings, so batching the
  refinement shows apart from batching the sweep.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

import oracle

WORKLOADS = ("points", "verify", "sweep")


@dataclass(frozen=True)
class Task:
    kind: str
    inputs: dict


def _omega_tilde(rng: random.Random, lo: float, hi: float) -> float:
    """A draw from [lo, hi) kept 0.05 from resonance and 0.02 from integers.

    At an integer omega_tilde = k the k-th root sits on x = 0 and the order
    loses a point; near 1/2 the draw would be resonant in all but name.
    """
    while True:
        wt = lo + (hi - lo) * rng.random()
        if abs(wt - 0.5) > 0.05 and abs(wt - round(wt)) > 0.02:
            return wt


# ---------------------------------------------------------------------------
# slots


# The highest order the points workload runs. The root finder the benchmark
# was defined on returns points that miss the oracle's tolerance from N = 23
# on (one omega_tilde in 61 at N = 23, a third at N = 24, nearly all from
# N = 26; wrong counts at resonance from N = 32), while N = 17..22 passed for
# 501 omega_tilde each, resonance and every stratum below. A workload must be
# one on which no operation fails, so the orders stop two below the first
# failure. Raise it once the root finder is certified.
POINTS_MAX_N = 20
_POINTS_PAIRS = POINTS_MAX_N // 2


def _points_round(rng: random.Random, r: int) -> list[Task]:
    # Every order 1..POINTS_MAX_N once. Of each pair (2p+1, 2p+2) one is
    # resonant, the other takes omega_tilde from one of as many strata of
    # (0, 6) as there are pairs, each stratum once a round. Which member and
    # which stratum follow from the round index r alone: over the rounds every
    # order is resonant every other time and meets every stratum, and a run's
    # mix of costs, on which the tail rests, does not depend on the seed.
    width = 6.0 / _POINTS_PAIRS
    tasks = []
    for pair in range(_POINTS_PAIRS):
        for j in range(2):
            N = 2 * pair + 1 + j
            if j == (pair + r) % 2:
                wt = 0.5
            else:
                lo = width * ((pair + r) % _POINTS_PAIRS)
                wt = _omega_tilde(rng, lo, lo + width)
            tasks.append(Task("points", {"N": N, "omega_tilde": wt}))
    return tasks


# (N, omega_tilde range or None for resonance, M); points per task in the
# comment. With the two oscillator slots a round has nine tasks. The M = 300
# point costs about 2 s and the M = 200 point about 0.9 s; the three slots
# marked "plateau" and the squeezed oscillator cost about 0.7 s each, and the
# rest less. With four rounds the tail (the 11th-largest of 36) and the median
# both fall inside that plateau, so neither jumps between slots of different
# cost from run to run.
_VERIFY_SLOTS = (
    (1, None, 300),          # 1 point
    (2, (1.0, 2.0), 200),    # 1
    (4, None, 100),          # 4, plateau
    (8, (5.0, 5.5), 100),    # 3, plateau
    (7, (4.0, 5.0), 100),    # 3, plateau
    (3, None, 100),          # 3
    (5, (3.0, 4.0), 100),    # 2
)
# (kind, lambda range, M)
_OSC_SLOTS = (
    ("displaced", (0.2, 2.0), 200),
    ("squeezed", (0.05, 0.4), 300),
)


def _verify_round(rng: random.Random, r: int) -> list[Task]:
    tasks = []
    for N, band, M in _VERIFY_SLOTS:
        wt = 0.5 if band is None else _omega_tilde(rng, *band)
        tasks.append(Task("juddian", {"N": N, "omega_tilde": wt, "M": M}))
    for kind, (lo, hi), M in _OSC_SLOTS:
        tasks.append(Task(kind, {"lam": rng.uniform(lo, hi), "M": M}))
    return tasks


# (G, M, k, omega_tilde range). The four costliest slots take about 1 to 2 s,
# the two at G = 201, M = 60, k = 16 about 0.5 to 0.9 s, the rest less. With
# four rounds the tail (the 11th-largest of 36) falls inside the first group
# and the median (of 36) inside the pair, so neither jumps between slots of
# different cost from run to run.
_SWEEP_SLOTS = (
    (201, 60, 8, (1.8, 2.2)),
    (201, 60, 8, (0.4, 0.6)),
    (201, 60, 16, (1.8, 2.2)),
    (201, 100, 8, (0.4, 0.6)),
    (201, 60, 16, (0.4, 0.6)),
    (201, 100, 16, (0.4, 0.6)),
    (2001, 60, 8, (0.4, 0.6)),
    (201, 300, 8, (0.4, 0.6)),
    (2001, 100, 8, (0.4, 0.6)),
)


def _sweep_round(rng: random.Random, r: int) -> list[Task]:
    return [
        Task("sweep", {
            "G": G, "M": M, "k": k,
            "omega_tilde": _omega_tilde(rng, *band),
            "g_lo": rng.uniform(0.04, 0.06),
            "g_hi": rng.uniform(0.78, 0.82),
        })
        for G, M, k, band in _SWEEP_SLOTS
    ]


_ROUNDS = {"points": _points_round, "verify": _verify_round, "sweep": _sweep_round}

# Seconds of task time a round counts for when a run is planned: about the
# time of one round of the code this benchmark was defined on, on a 2-core
# x86-64 machine with BLAS on one thread (for points more, so that a run with
# its oracle checks stays under about 45 s). Fixed constants, so the number of
# rounds does not follow the speed of the code under test.
ROUND_SECONDS = {"points": 0.6, "verify": 7.0, "sweep": 8.0}


def planned_rounds(workload: str, seconds: float) -> int:
    """Rounds one run makes: about `seconds` of task time at ROUND_SECONDS."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def rounds(workload: str, seed: int):
    """Endless rounds of tasks; the same seed gives the same sequence."""
    rng = random.Random(f"{workload}:{seed}")
    for r in itertools.count():
        tasks = _ROUNDS[workload](rng, r)
        rng.shuffle(tasks)
        yield tasks


def cheapest_of_each_kind(tasks: list[Task]) -> list[Task]:
    """The smallest task of each kind, by a rough size N M^2 G k."""
    def size(task):
        x = task.inputs
        return x.get("N", 1) * x.get("M", 1) ** 2 * x.get("G", 1) * x.get("k", 1)

    chosen: dict[str, Task] = {}
    for task in sorted(tasks, key=size):
        chosen.setdefault(task.kind, task)
    return list(chosen.values())


def round_sizes(tasks: list[Task]) -> dict:
    """The sizes a round covers, for the environment record."""
    sizes: dict = {}
    for t in tasks:
        key = t.kind + "".join(f" {k}={t.inputs[k]}" for k in ("N", "M", "G", "k") if k in t.inputs)
        sizes[key] = sizes.get(key, 0) + 1
    return dict(sorted(sizes.items()))


# ---------------------------------------------------------------------------
# task bodies


class NoTrace:
    """Stands in for tracing.Tracer when the run is not traced."""

    def call(self, layer, fn, *args):
        return fn(*args)

    def probe(self, fn, *args):
        pass


def run_task(task: Task, rj, tr=NoTrace()):
    """Run one task through rabijudd's public functions (module rj).

    tr.call wraps each public call the task makes. tr.probe(fn, ...) runs
    fn(tr, ...) after a composite call to time its public pieces on the same
    inputs; the pieces are attributed to that call but kept out of the task's
    time.
    Returns the output the check needs.
    """
    x = task.inputs
    if task.kind in ("points", "juddian"):
        params = rj.ModelParams(omega=1.0, omega0=2.0 * x["omega_tilde"])
        points = tr.call("juddian", rj.juddian_points, x["N"], params)
        tr.probe(_juddian_pieces, rj, x["N"], x["omega_tilde"])
        if task.kind == "points":
            return points
        reports = []
        for p in points:
            reports.append(tr.call("juddian", rj.verify_point, p, x["M"]))
            tr.probe(_verify_pieces, rj, p, x["M"])
        return points, reports
    if task.kind in ("displaced", "squeezed"):
        build = rj.displaced_osc_hamiltonian if task.kind == "displaced" else rj.squeezed_osc_hamiltonian
        h = tr.call("bosons", build, x["lam"], x["M"])
        return tr.call("numerics", rj.sym_eig, h).values
    params = rj.ModelParams(omega=1.0, omega0=2.0 * x["omega_tilde"])
    grid = np.linspace(x["g_lo"], x["g_hi"], x["G"])
    table = tr.call("rabi", rj.spectrum_sweep, params, grid, x["M"], x["k"])
    crossings = tr.call("rabi", rj.find_crossings, table)
    rows = [
        (float(g), parity, level, float(block[i, level]))
        for i, g in enumerate(table.g_values)
        for parity, block in ((1, table.levels_plus), (-1, table.levels_minus))
        for level in range(x["k"])
    ]
    svg = tr.call("svgplot", rj.svgplot.render_figure, rows, [])
    return table, crossings, svg


def _juddian_pieces(tr, rj, N, omega_tilde):
    poly = tr.call("juddian", rj.compatibility_polynomial, N, omega_tilde)
    try:
        tr.call("numerics", rj.poly_real_roots, poly, (1e-12, float(N)), N)
    except rj.RootCountError:
        pass


def _verify_pieces(tr, rj, point, M):
    params = point.model_params()
    for block in tr.call("rabi", rj.parity_blocks, params, M):
        tr.call("numerics", rj.sym_eig, block.matrix)
    tr.call("juddian", rj.reconstruct_state, point, M)
    tr.probe(_reconstruct_pieces, rj, point, M)
    tr.call("rabi", rj.build_rabi, params, M)
    tr.count("bosons.displacement_bytes", 8 * (M + 1) ** 2)
    tr.count("rabi.build_rabi_bytes", 8 * (2 * (M + 1)) ** 2)


def _reconstruct_pieces(tr, rj, point, M):
    x = point.lam * point.lam
    system = tr.call("juddian", rj.build_full_system, point.N, point.omega_tilde, x, point.displacement_sign)
    tr.call("numerics", rj.null_vector, system)
    tr.call("bosons", rj.displacement_matrix, point.displacement_sign * point.lam, M)


# ---------------------------------------------------------------------------
# checks


def check_task(task: Task, output, detailed: bool = False):
    """Check one task's output with the oracle.

    Returns (reason or None, quality) where quality holds the accuracy
    figures of an accepted output. detailed asks for the share of valid
    points even when a point list already failed its count.
    """
    x = task.inputs
    if task.kind == "points":
        pts = [(p.lam, p.E) for p in output]
        reason, stats = oracle.check_points(x["N"], x["omega_tilde"], pts, sample=8 if detailed else None)
        return reason, stats
    if task.kind == "juddian":
        points, reports = output
        pts = [(p.lam, p.E) for p in points]
        reason, stats = oracle.check_points(x["N"], x["omega_tilde"], pts)
        if reason is not None:
            return reason, stats
        stats["max_residual"] = 0.0
        for p, rep in zip(points, reports):
            reason = oracle.check_verification(x["omega_tilde"], p.lam, p.E, x["M"], rep)
            if reason is not None:
                return f"verify_point at M={x['M']}: {reason}", stats
            stats["max_gap"] = max(stats["max_gap"] or 0.0, rep.degeneracy_gap)
            stats["max_residual"] = max(stats["max_residual"], rep.eigen_residual)
        return None, stats
    if task.kind in ("displaced", "squeezed"):
        reason, dev = oracle.check_oscillator(task.kind, x["lam"], output)
        return reason, {"max_osc_dev": dev}
    table, crossings, svg = output
    G = x["G"]
    reason, max_gap = oracle.check_sweep(
        x["omega_tilde"], x["M"], table.g_values, table.levels_plus,
        table.levels_minus, (0, G // 2, G - 1), crossings, svg)
    return reason, {"crossings": len(crossings), "max_gap": max_gap}


def describe(task: Task) -> str:
    """The task's inputs in one line, for failure records."""
    return task.kind + " " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in task.inputs.items())


def execute(task: Task, rj, tr=NoTrace()):
    """run_task with warnings recorded instead of printed and errors caught.

    Returns (output, error string or None, warning count).
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run_task(task, rj, tr)
        except Exception as exc:  # a raising task is a failed task, not a crash
            return None, f"{type(exc).__name__}: {exc}", len(caught)
    return out, None, len(caught)


def expected_points(task: Task) -> int:
    return oracle.expected_point_count(task.inputs["N"], task.inputs["omega_tilde"])


def task_eigvals(task: Task) -> int:
    """Eigenvalues one sweep computes: 2 parities x G grid points x k levels."""
    return 2 * task.inputs["G"] * task.inputs["k"]


def percentile_beyond(samples: list[float], planned: int, beyond: int = 10):
    """The highest percentile with `beyond` of `planned` samples above it.

    The rank comes from the planned sample count, not from the number
    collected: with all planned samples it is the (beyond+1)-th largest; a
    run cut short takes the sample at the same percentile. With no more than
    `beyond` planned samples the largest is returned with percentile 100.
    Returns (sample, percentile).
    """
    s = sorted(samples, reverse=True)
    if planned <= beyond:
        return s[0], 100.0
    return s[min(len(s) - 1, round(beyond * len(s) / planned))], 100.0 * (1.0 - beyond / planned)


def median(values):
    return float(np.median(values)) if len(values) else math.nan
