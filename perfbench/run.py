"""Benchmark of rabijudd: one client, closed loop, seeded workloads.

    python3 perfbench/run.py --workload points|verify|sweep|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from src/. The
run makes its inputs from the seed (see workloads.py), passes only those to
rabijudd's public functions, and checks every output with oracle.py, which
shares no code with the package. One task runs at a time, over a fixed
number of rounds of tasks that S sets (workloads.planned_rounds): about S
seconds of task time for the code the benchmark was defined on. The count
does not depend on the speed of the code, so every commit is timed on the
same tasks; the run stops early only past three times S, so that much slower
code still ends in time.

With --trace 0 it reports the end-to-end metrics:

  tasks_per_s   tasks completed per second of task time
  task_p50_ms   median task latency
  task_tail_ms  the highest percentile with ten of the planned samples
                beyond it, i.e. the 11th-largest latency of a whole run; its
                percentile and the sample counts are printed with it
  setup_s       median over ten fresh interpreters, five before the timed
                phase and five after, of importing rabijudd and completing
                a first, cold call
  peak_rss_mb   peak resident memory of this process

The times are scaled to a fixed reference speed of the machine. On a shared
machine the speed of a core drifts by a quarter and more within minutes,
which is wider than the benchmark's bounds. So between tasks, at most every
REF_EVERY seconds, the run times a fixed pure-Python loop (reference_loop,
benchmark code that no change to rabijudd alters; the package's hot paths are
Python-level loops too, so both slow down together). Each task's time is
multiplied by REF_SECONDS over the median of the four loop times nearest it,
two before and two after; setup_s by REF_SECONDS over the median loop time of
the run. The unscaled figures are printed and kept in the results file.

A task fails when it raises or the oracle rejects its output. Failures count
in "failed" against "attempted", failed_frac is printed, and each failure is
listed with its inputs; "correct" is true only when no task failed.

With --trace 1 it records spans around every call into rabijudd (see
tracing.py), runs tasks for S seconds, each once untraced and once traced to
measure the tracing overhead, times the CLI subcommands in fresh processes,
and reports per-layer metrics, unscaled. A per-layer metric that the
workload's own tasks do not produce is taken from a layer probe, one small
task of every kind run before the workload, and labelled so in the results
file.

The report is printed; the last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. The full record, with the
environment, the quality figures, every failure and, when traced, every span,
is written to perfbench/results/.

BLAS is pinned to one thread, before numpy loads: the hot paths are
Python-level loops, and multithreaded OpenBLAS made cold calls of
displacement_matrix vary a hundredfold.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# setup_s is measured this many times before the timed phase and as many
# after it, so that its median spans the run rather than one moment of a
# shared machine.
SETUP_REPEATS = 5
# The timed phase of an untraced run stops early past this many times --seconds.
CAP_FACTOR = 3
# The reference loop: its iterations, its time at the reference speed (about
# the median on the 2-core x86-64 machine the benchmark was defined on), and
# the least time between two of its runs.
REF_ITERATIONS = 250_000
REF_SECONDS = 0.02
REF_EVERY = 0.5
# rabijudd's modules; bench is the task's own glue between calls.
LAYERS = ("bench", "juddian", "numerics", "bosons", "rabi", "svgplot")
# The first, cold call each workload's setup_s times in a fresh interpreter.
COLD_CALL = {
    "points": "rj.juddian_points(1, rj.ModelParams())",
    "verify": "rj.verify_point(rj.juddian_points(1, rj.ModelParams())[0], 20)",
    "sweep": "rj.find_crossings(rj.spectrum_sweep(rj.ModelParams(), [0.1, 0.2, 0.3], 20, 2))",
}
END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metric -> the spans whose median time it reports: their name, and
# True for probe spans only, False for no probe spans, None for all.
SPAN_METRICS = {
    "juddian.juddian_points_ms": ("juddian_points", None),
    "juddian.compatibility_polynomial_ms": ("compatibility_polynomial", None),
    "numerics.poly_real_roots_ms": ("poly_real_roots", None),
    "juddian.verify_point_ms": ("verify_point", None),
    "rabi.parity_blocks_ms": ("parity_blocks", None),
    # sym_eig per parity block, from the probes of verify_point, and apart
    # from it the oscillator tasks' own sym_eig calls.
    "numerics.sym_eig_ms": ("sym_eig", True),
    "numerics.osc_sym_eig_ms": ("sym_eig", False),
    "juddian.reconstruct_state_ms": ("reconstruct_state", None),
    "numerics.null_vector_ms": ("null_vector", None),
    "bosons.displacement_matrix_ms": ("displacement_matrix", None),
    "rabi.build_rabi_ms": ("build_rabi", None),
    "rabi.spectrum_sweep_ms": ("spectrum_sweep", None),
    "rabi.find_crossings_ms": ("find_crossings", None),
    "svgplot.render_figure_ms": ("render_figure", None),
}
PER_LAYER = {
    **{name: "ms" for name in SPAN_METRICS},
    "juddian.verify_point_unattributed_ms": "ms",
    "juddian.points_returned": "count",  # per task
    "juddian.points_valid": "count",  # per task, among checked points
    "juddian.useful_ratio": "ratio",
    "bosons.osc_hamiltonian_ms": "ms",
    "bosons.displacement_bytes": "B",
    "rabi.build_rabi_bytes": "B",
    "rabi.eigvals_per_s": "1/s",
    "rabi.crossings_found": "count",
    "cli.import_s": "s",
    "cli.juddian_s": "s",
    "cli.spectrum_s": "s",
    "cli.verify_s": "s",
    "cli.oscillator_s": "s",
    "cli.plot_s": "s",
}
# The README's invocations, one fresh process each; later ones read the files
# earlier ones write. A None name is run for its file and not reported.
CLI_ROWS = (
    ("cli.juddian_s", ["juddian", "--max-n", "4"]),
    ("cli.spectrum_s", ["spectrum", "--g-min", "0.05", "--g-max", "0.8", "--g-steps", "201",
                        "--out", "sweep.csv"]),
    (None, ["juddian", "--max-n", "4", "--format", "json", "--out", "points.json"]),
    ("cli.plot_s", ["plot", "--spectrum", "sweep.csv", "--points", "points.json",
                    "--out", "figure.svg"]),
    ("cli.verify_s", ["verify", "--n", "4", "--cutoff", "100"]),
    ("cli.oscillator_s", ["oscillator", "--type", "displaced", "--lambda", "1.0"]),
)


# ---------------------------------------------------------------------------
# fresh processes


def _timed_process(args, cwd=ROOT) -> float:
    """Wall time of one fresh interpreter run; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return elapsed


def measure_setup(workload: str) -> list[float]:
    code = f"import rabijudd as rj; {COLD_CALL[workload]}"
    return [_timed_process(["-c", code]) for _ in range(SETUP_REPEATS)]


def measure_cli() -> dict[str, float]:
    rows = {"cli.import_s": workloads.median([_timed_process(["-c", "import rabijudd.cli"])
                                              for _ in range(3)])}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-cli-") as tmp:
        for name, argv in CLI_ROWS:
            elapsed = _timed_process(["-m", "rabijudd", *argv], cwd=tmp)
            if name:
                rows[name] = elapsed
    return rows


# ---------------------------------------------------------------------------
# environment


def environment(workload: str, seed: int, first_round) -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
        "round": workloads.round_sizes(first_round),
    }


def _commit() -> str:
    """HEAD of the source tree, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# running


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return time.perf_counter() - t0


class Run:
    """Attempts, failures, latencies, quality figures and machine speed of one run."""

    def __init__(self):
        self.reference: list[float] = []
        self._last_reference = -math.inf
        self.latencies: list[float] = []
        self.reference_before: list[int] = []  # per task, the last loop run before it
        self.tasks: list[str] = []
        self.failures: list[dict] = []
        self.warnings = 0
        self.quality = {"max_gap": 0.0, "max_residual": 0.0, "max_osc_dev": 0.0,
                        "crossings": 0, "eigvals": 0, "point_tasks": 0, "returned": 0,
                        "checked": 0, "valid": 0, "points": []}

    def time_reference(self, now: bool = False) -> None:
        """Run reference_loop when REF_EVERY seconds have passed since the last time, or now."""
        if now or time.perf_counter() - self._last_reference >= REF_EVERY:
            self.reference.append(reference_loop())
            self._last_reference = time.perf_counter()

    def add(self, task, seconds, output, error, n_warnings, detailed=False):
        """Record one task; the oracle check runs here, outside the task's time."""
        self.warnings += n_warnings
        self.latencies.append(seconds)
        self.reference_before.append(len(self.reference) - 1)
        self.tasks.append(workloads.describe(task))
        stats = {}
        if error is None:
            error, stats = workloads.check_task(task, output, detailed)
        if error is not None:
            self.failures.append({"task": self.tasks[-1], "inputs": task.inputs, "reason": error})
        q = self.quality
        if task.kind in ("points", "juddian"):
            q["point_tasks"] += 1
            q["points"].append([task.inputs["N"], task.inputs["omega_tilde"],
                                stats.get("returned"), workloads.expected_points(task)])
        for key in ("returned", "checked", "valid"):
            q[key] += stats.get(key, 0)
        if task.kind == "sweep":
            q["eigvals"] += workloads.task_eigvals(task)
        if error is None:
            for key in ("max_gap", "max_residual", "max_osc_dev"):
                if stats.get(key) is not None:
                    q[key] = max(q[key], stats[key])
            q["crossings"] += stats.get("crossings", 0)


def run_tasks(tasks, rj, run, tracer=None, pairs=None, deadline=None):
    """Run tasks in order and record them in run.

    Traced, each task also runs untraced, first on every other task so that
    warm caches favour neither side, and (untraced, traced) seconds go to
    pairs. Returns False when the deadline, if given, has passed.
    """
    for task in tasks:
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        if tracer is None:
            run.time_reference()
            t0 = time.perf_counter()
            output, error, n_warn = workloads.execute(task, rj)
            run.add(task, time.perf_counter() - t0, output, error, n_warn)
            continue
        untraced = _untraced_seconds(task, rj) if len(pairs) % 2 == 0 else None
        tracer.begin_task()
        output, error, n_warn = workloads.execute(task, rj, tracer)
        traced = tracer.end_task()
        if untraced is None:
            untraced = _untraced_seconds(task, rj)
        pairs.append((untraced, traced))
        run.add(task, traced, output, error, n_warn, detailed=True)
    return True


def _untraced_seconds(task, rj) -> float:
    t0 = time.perf_counter()
    workloads.execute(task, rj)
    return time.perf_counter() - t0


def warm_up(workload, seed, rj):
    """One small task of each kind, so lazy set-up is done before timing."""
    for task in workloads.cheapest_of_each_kind(next(workloads.rounds(workload, -1 - seed))):
        workloads.execute(task, rj)


def layer_probe(rj, seed):
    """The cheapest task of every kind in every workload, traced and checked."""
    tracer, run = tracing.Tracer(), Run()
    tasks = [t for w in workloads.WORKLOADS for t in next(workloads.rounds(w, seed))]
    run_tasks(workloads.cheapest_of_each_kind(tasks), rj, run, tracer, [])
    return run, tracer


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run, setup: list[float], planned: int) -> tuple[dict, dict]:
    """The end-to-end metrics; planned is the number of tasks the run was to make.

    Times are scaled to the reference speed; the unscaled ones go to the notes.
    """
    def summary(lat_ms, setup_s):
        tail, pct = workloads.percentile_beyond(lat_ms, planned)
        return {
            "tasks_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "task_p50_ms": workloads.median(lat_ms),
            "task_tail_ms": tail,
            "setup_s": workloads.median(setup_s),
        }, pct

    ref = run.reference
    task_scale = [REF_SECONDS / workloads.median(ref[max(0, k - 1):k + 3])
                  for k in run.reference_before]
    scale = REF_SECONDS / workloads.median(ref)
    raw, pct = summary([1e3 * s for s in run.latencies], setup)
    metrics, _ = summary([1e3 * s * f for s, f in zip(run.latencies, task_scale)],
                         [s * scale for s in setup])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = {"task_tail_percentile": pct, "samples": len(run.latencies), "planned_samples": planned,
             "setup_samples_s": setup, "speed_scale": scale, "reference_loop_s": ref,
             "task_scale": task_scale, "unscaled": raw}
    return metrics, notes


def layer_metrics(run: Run, tracer: tracing.Tracer) -> dict:
    """Per-layer metrics one run's spans give; None where the run has no data."""
    m = {name: tracer.median_ms(span, probe) for name, (span, probe) in SPAN_METRICS.items()}
    osc = tracer.call_ms("displaced_osc_hamiltonian") + tracer.call_ms("squeezed_osc_hamiltonian")
    m["bosons.osc_hamiltonian_ms"] = workloads.median(osc) if osc else None
    calls = tracer.call_ms("verify_point")
    m["juddian.verify_point_unattributed_ms"] = (
        tracer.unattributed_ms("verify_point")[1] / len(calls) if calls else None)
    for name in ("bosons.displacement_bytes", "rabi.build_rabi_bytes"):
        m[name] = workloads.median(tracer.counts[name]) if name in tracer.counts else None
    q = run.quality
    has_points = bool(q["checked"])
    m["juddian.points_returned"] = q["returned"] / q["point_tasks"] if has_points else None
    m["juddian.points_valid"] = q["valid"] / q["point_tasks"] if has_points else None
    m["juddian.useful_ratio"] = q["valid"] / q["checked"] if has_points else None
    sweeps = tracer.call_ms("spectrum_sweep")
    m["rabi.eigvals_per_s"] = q["eigvals"] / (sum(sweeps) / 1e3) if sweeps else None
    finds = tracer.call_ms("find_crossings")
    m["rabi.crossings_found"] = q["crossings"] / len(finds) if finds else None
    return m


def per_layer(run, tracer, probe_run, probe_tracer, pairs, cli) -> tuple[dict, dict]:
    own = layer_metrics(run, tracer)
    fallback = layer_metrics(probe_run, probe_tracer)
    metrics, source = {}, {}
    for name in PER_LAYER:
        if name in cli:
            metrics[name], source[name] = cli[name], "fresh process, README invocation"
        elif own.get(name) is not None:
            metrics[name], source[name] = own[name], "tasks"
        else:
            metrics[name], source[name] = fallback[name], "layer probe"
    for name in ("bosons.displacement_bytes", "rabi.build_rabi_bytes"):
        source[name] += ", computed from array sizes"
    base = run.quality if own["juddian.useful_ratio"] is not None else probe_run.quality
    source["juddian.useful_ratio"] += f", valid / checked: {base['valid']} of {base['checked']}"
    untraced = sum(a for a, _ in pairs)
    traced = sum(b for _, b in pairs)
    total, unattributed = tracer.unattributed_ms("verify_point")
    table = tracer.layer_table()
    layers = {layer: table.get(layer, {"self_ms": 0.0, "share": 0.0}) for layer in LAYERS}
    layers["cli"] = {"wall_s": sum(cli.values()), "share": None}
    notes = {
        "source": source,
        "layers": layers,
        "tracing_overhead_ms": 1e3 * (traced - untraced),
        "tracing_overhead_share": (traced - untraced) / untraced if untraced else None,
        "traced_tasks": len(pairs),
        "verify_point_ms_total": total,
        "verify_point_probes_ms_total": total - unattributed,
        "verify_point_unattributed_ms_total": unattributed,
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# report


def report(args, env, run, metrics, units, notes) -> dict:
    attempted = len(run.latencies)
    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']['name']} "
          f"{env['blas']['version']}  blas threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}  "
          f"nproc {env['nproc']}  commit {env['commit']}")
    kinds: dict[str, int] = {}
    for size, count in env["round"].items():
        kinds[size.split()[0]] = kinds.get(size.split()[0], 0) + count
    print("round: " + ", ".join(f"{kind} x{count}" for kind, count in kinds.items())
          + " (sizes in the results file)")
    for name, value in metrics.items():
        extra = ""
        if name == "task_tail_ms":
            extra = (f"  (p{notes['task_tail_percentile']:.2f} of {notes['samples']} samples, "
                     f"{notes['planned_samples']} planned)")
        elif notes.get("source", {}).get(name, "tasks") != "tasks":
            extra = f"  ({notes['source'][name]})"
        if name in notes.get("unscaled", {}):
            extra += f"  (unscaled {notes['unscaled'][name]:.6g})"
        print(f"  {name:40s} {value:14.6g} {units[name]}{extra}")
    if "speed_scale" in notes:
        print(f"times scaled to the reference speed, task by task; setup_s by "
              f"{notes['speed_scale']:.4f}: reference loop median "
              f"{1e3 * REF_SECONDS / notes['speed_scale']:.3f} ms over "
              f"{len(notes['reference_loop_s'])} runs, {1e3 * REF_SECONDS:g} ms at the reference speed")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} tasks)")
    if "layers" in notes:
        print(f"layers (self time over {notes['traced_tasks']} traced tasks, share of task time):")
        for layer, row in notes["layers"].items():
            if layer == "cli":
                print(f"  {layer:10s} {1e3 * row['wall_s']:12.3f} ms  in fresh processes, not task time")
            else:
                print(f"  {layer:10s} {row['self_ms']:12.3f} ms  {100 * row['share']:6.2f} %")
        print(f"tracing overhead: {notes['tracing_overhead_ms']:.3f} ms in total")
        if notes["verify_point_ms_total"]:
            print(f"verify_point: {notes['verify_point_ms_total']:.1f} ms, probes account for "
                  f"{notes['verify_point_probes_ms_total']:.1f} ms, unattributed "
                  f"{notes['verify_point_unattributed_ms_total']:.1f} ms")
    q = run.quality
    print(f"quality: max opposite-parity gap {q['max_gap']:.3e}, max eigen residual "
          f"{q['max_residual']:.3e}, max oscillator deviation {q['max_osc_dev']:.3e}, "
          f"crossings found {q['crossings']}, warnings {run.warnings}")
    if run.failures:
        by_regime: dict[str, set] = {}
        for f in run.failures:
            if "N" in f["inputs"]:
                regime = "resonance" if f["inputs"]["omega_tilde"] == 0.5 else "off resonance"
                by_regime.setdefault(regime, set()).add(f["inputs"]["N"])
        for regime, orders in sorted(by_regime.items()):
            print(f"failing orders N at {regime}: {' '.join(map(str, sorted(orders)))}")
        for f in run.failures[:20]:
            print(f"  FAIL {f['task']}: {f['reason']}")
        if failed > 20:
            print(f"  ... {failed - 20} more in the results file")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics}}


def run_one(args) -> int:
    if not (SRC / "rabijudd" / "__init__.py").is_file():
        print(f"error: no rabijudd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rabijudd as rj
    import rabijudd.svgplot  # noqa: F401  (rj.svgplot for the sweep tasks)

    traced = bool(args.trace)
    if traced:
        cli = measure_cli()
        probe_run, probe_tracer = layer_probe(rj, args.seed)
    else:
        setup = measure_setup(args.workload)
    warm_up(args.workload, args.seed, rj)

    run = Run()
    tracer = tracing.Tracer() if traced else None
    pairs: list = []
    gen = workloads.rounds(args.workload, args.seed)
    first = next(gen)
    planned = workloads.planned_rounds(args.workload, args.seconds)
    # Untraced runs make the planned rounds; traced runs, which report
    # medians, stop at the deadline.
    deadline = time.perf_counter() + (1 if traced else CAP_FACTOR) * args.seconds
    tasks, made = first, 0
    while run_tasks(tasks, rj, run, tracer, pairs, deadline):
        made += 1
        if (made == planned and not traced) or time.perf_counter() >= deadline:
            break
        tasks = next(gen)
    run.time_reference(now=True)

    if traced:
        metrics, notes = per_layer(run, tracer, probe_run, probe_tracer, pairs, cli)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(run, setup + measure_setup(args.workload), planned * len(first))
        units = END_TO_END
    env = environment(args.workload, args.seed, first)
    result = report(args, env, run, metrics, units, notes)

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"environment": env, "result": result, "notes": notes, "quality": run.quality,
              "failures": run.failures, "tasks": [[t, 1e3 * s] for t, s in zip(run.tasks, run.latencies)]}
    if traced:
        record["spans"] = tracer.dump()
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prefixes metric names with the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
