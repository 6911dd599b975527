"""Hand-run mutation check of the certifying code.

Each mutant replaces one exact piece of a module's source text, which must
occur exactly once, in a temporary copy of src/, tests/ and perfbench/, and
runs the module tests on that copy with pytest -x and hypothesis's seed
fixed at 0, so that a verdict repeats from run to run. A mutant that
fails a test is killed; one that passes every test survives, and
needs a test that kills it or an argument that it is equivalent. pytest
does not collect this file, and it needs only the standard library.

Run it from the root of the repository; it runs two mutants at a time,
each with a limit of 900 s:

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # mutants run at once
TIMEOUT = 900.0  # seconds per mutant

# the module test files, run in this order on every mutant
TESTS = [
    "tests/test_numerics.py",
    "tests/test_juddian.py",
    "tests/test_rabi.py",
    "tests/test_acceptance.py",
    "tests/test_bosons.py",
    "tests/test_svgplot.py",
    "tests/test_package_rules.py",
]
# the guard that every mutant text occurs once fails on any mutated copy by design
GUARD = "tests/test_package_rules.py::test_every_mutant_text_occurs_once_in_its_module"

# (name, module under src/rabijudd, exact source text, replacement)
MUTANTS = [
    # juddian._block_counter
    ("counter-bound-unscaled", "juddian.py",
     "stop = _sturm_stop(d, abs(lam_max) * root)", "stop = _sturm_stop(d, root)"),
    ("counter-tiny-zero", "juddian.py",
     "blocks.append((d.tolist(), _EPS * stop.scale, stop))", "blocks.append((d.tolist(), 0.0, stop))"),
    ("counter-counts-at-the-bound", "juddian.py",
     "e2 = np.square(lam * root).tolist()", "e2 = np.square(lam_max * root).tolist()"),
    ("counter-one-shift", "juddian.py",
     "_sturm_count(dl, e2, E + delta, tiny, stop)", "_sturm_count(dl, e2, E - delta, tiny, stop)"),
    # numerics._sturm_stop
    ("stop-slack-one-side", "numerics.py",
     "slack = d - b[:n] - b[1:]", "slack = d - b[1:]"),
    ("stop-scale-without-bound", "numerics.py",
     "scale = max(float(np.max(np.abs(d))) + 2.0 * float(np.max(b)), sys.float_info.min)",
     "scale = max(float(np.max(np.abs(d))), sys.float_info.min)"),
    ("stop-margin-zero", "numerics.py",
     "_STOP_MARGIN = 1e-12", "_STOP_MARGIN = 0.0"),
    # numerics._sturm_count
    ("count-stop-ignores-bound", "numerics.py",
     "elif i >= first and q >= bound[i]:", "elif i >= first:"),
    ("count-stop-ignores-first-row", "numerics.py",
     "elif i >= first and q >= bound[i]:", "elif q >= bound[i]:"),
    ("count-no-clamp", "numerics.py",
     "            q = neg_tiny if q < 0.0 else tiny\n        q = d[i] - x - e2[i - 1] / q",
     "            pass\n        q = d[i] - x - e2[i - 1] / q"),
    # verify_point's delta ladder
    ("ladder-base", "juddian.py",
     "delta = 64.0 * _EPS * max(", "delta = 16.0 * _EPS * max("),
    ("ladder-base-no-floor", "juddian.py",
     "for end in (*_gershgorin(d, params.lam * root), 1.0))", "for end in _gershgorin(d, params.lam * root))"),
    ("ladder-factor", "juddian.py",
     "delta = min(16.0 * delta, _MAX_DELTA)", "delta = min(4.0 * delta, _MAX_DELTA)"),
    ("ladder-cap", "juddian.py",
     "_MAX_DELTA = 1e-3", "_MAX_DELTA = 1e-2"),
    ("ladder-stops-on-one-block", "juddian.py",
     "if 0 not in held:", "if any(held):"),
    ("ladder-two-levels-pass", "juddian.py",
     "if n > 1:", "if n > 2:"),
    # find_crossings: its window
    ("crossings-no-rise", "juddian.py",
     "rise = 4.0 * math.sqrt(M) * step / p.omega", "rise = 0.0"),
    ("crossings-orders-without-lam", "juddian.py",
     "n_cap = float(caps.max()), float(np.max(caps + (2.0 * np.abs(g) / p.omega) ** 2))",
     "n_cap = float(caps.max()), float(np.max(caps))"),
    ("crossings-no-energy-cap", "juddian.py",
     "if lo <= s * pt.g <= hi and pt.E <= e_cap]", "if lo <= s * pt.g <= hi]"),
    ("crossings-plus-g-only", "juddian.py",
     "for s in (1.0, -1.0)", "for s in (1.0,)"),
    ("crossings-bound-from-top-g", "juddian.py",
     "2.0 * max(abs(lo), abs(hi)) / p.omega)", "2.0 * hi / p.omega)"),
    # find_crossings: its acceptance rule
    ("crossings-at-least-one-level", "juddian.py",
     "if i_top - i == j_top - j == 1:", "if i_top - i >= 1 and j_top - j >= 1:"),
    ("crossings-both-past-the-top", "juddian.py",
     "if i >= k or j >= k:", "if i >= k and j >= k:"),
    ("crossings-g-zero-any-omega-tilde", "juddian.py",
     "g_zero = lo <= 0.0 <= hi and abs(p.omega_tilde - round(p.omega_tilde)) <= _CROSSING_TOL",
     "g_zero = lo <= 0.0 <= hi"),
    ("crossings-g-zero-below-e-cap", "juddian.py",
     "if g_zero and N <= e_cap + _CROSSING_TOL else []", "if g_zero and N <= e_cap else []"),
    # rabi._block_layout
    ("layout-minus-block-spin", "rabi.py",
     "return np.array([n + spin, n - spin])", "return np.array([n + spin, n + spin])"),
    # reference._ql_implicit: the split scan's prefilter
    ("ql-floor-tiny", "reference.py",
     "floor = eps2 * bound * bound + tiny", "floor = tiny"),
    ("ql-min-skips-row-l-plus-1", "reference.py",
     "if min(e2[l + 1 : m], default=math.inf) <= floor:", "if min(e2[l + 2 : m], default=math.inf) <= floor:"),
    ("ql-row-l-splits-only-below-threshold", "reference.py",
     "while e2[l] > eps2 * abs(d[l] * d[l + 1]) + tiny:", "while e2[l] >= eps2 * abs(d[l] * d[l + 1]) + tiny:"),
    # equivalent: sym_eig's scaling makes B >= 1, and every split threshold
    # stays below a quarter of the floor, so a minimum equal to it splits nothing
    ("ql-scan-only-below-the-floor", "reference.py",
     "if min(e2[l + 1 : m], default=math.inf) <= floor:", "if min(e2[l + 1 : m], default=math.inf) < floor:"),
    # reference._band_matrix
    ("band-upper-offset-plus-one", "reference.py",
     "H.flat[stride : stride + k * (n + 1) : n + 1] = c",
     "H.flat[stride + 1 : stride + 1 + k * (n + 1) : n + 1] = c"),
    ("band-lower-offset-minus-one", "reference.py",
     "H.flat[stride * n : stride * n + k * (n + 1) : n + 1] = c",
     "H.flat[(stride - 1) * n : (stride - 1) * n + k * (n + 1) : n + 1] = c"),
    ("band-lower-left-out", "reference.py",
     "H.flat[stride * n : stride * n + k * (n + 1) : n + 1] = c", "pass"),
    # numerics._bisection_start, the setup of both bisections
    ("start-cap-no-margin", "numerics.py",
     "cap = top + _STOP_MARGIN * (stop.scale + abs(top))", "cap = top"),
    ("start-cap-of-level-1", "numerics.py",
     "top = max(float(d[k - 1] + left[k - 1]), float(np.max((d + left + right)[: k - 1], initial=-math.inf)))",
     "top = float(d[0])"),
    ("start-halves-to-width", "numerics.py",
     "while (mid := 0.5 * (lo + hi)) >= cap and mid - lo > width:",
     "while (mid := 0.5 * (lo + hi)) >= cap and hi - lo > width:"),
    ("start-width", "numerics.py",
     "width = 4.0 * _EPS * max(hi - lo, 1.0)", "width = 64.0 * _EPS * max(hi - lo, 1.0)"),
    # numerics.tridiag_eigvals_lowest's scalar bisection
    ("lowest-count-strict", "numerics.py",
     "_sturm_count(dl, e2, mid, tiny, stop) <= t", "_sturm_count(dl, e2, mid, tiny, stop) < t"),
    # numerics._sturm_lowest_batch
    ("batch-no-clamp", "numerics.py",
     "if t.min() < tiny_top:", "if False:"),
    ("batch-stop-before-first-row", "numerics.py",
     "if i >= first and (i - first) % 4 == 0 and q.min() >= bound[i]:",
     "if (i - first) % 4 == 0 and q.min() >= bound[i]:"),
    # equivalent: the stop is valid at every row from first on, so the stride
    # only picks which rows test it; testing every row costs 11 % at M = 300, k = 16
    ("batch-stop-stride-offset", "numerics.py",
     "if i >= first and (i - first) % 4 == 0 and q.min() >= bound[i]:",
     "if i >= first and (i - first) % 4 == 1 and q.min() >= bound[i]:"),
    ("sweep-row-off-by-one", "numerics.py",
     "e2.append(np.square(root[i - 1] * lam))", "e2.append(np.square(root[i] * lam))"),
    ("sweep-top-by-max", "numerics.py",
     "lam[np.argmax(np.abs(lam))]", "lam[np.argmax(lam)]"),
    ("sweep-set-aside-dropped", "numerics.py",
     "for p, values in aside.items():\n        mids[p] = values", "for p, values in aside.items():\n        pass"),
    # juddian._compatibility_count and _compatibility_roots
    ("compat-no-clamp", "juddian.py",
     "                q = neg_tiny if q < 0.0 else tiny\n            q = d + x4 - x * e / q",
     "                pass\n            q = d + x4 - x * e / q"),
    ("roots-no-trial-margin", "juddian.py",
     "margin = 2.0 * _EPS * hi", "margin = 0.0"),
    ("roots-final-width", "juddian.py",
     "if width <= 4.0 * _EPS * hi or not lo < x < hi:", "if width <= 64.0 * _EPS * hi or not lo < x < hi:"),
    # verify_point's residual rows, reconstruct_state's locus check
    ("verify-residual-one-row-short", "juddian.py",
     "psi = fock[:2 * min(M + 1, support + 1)]", "psi = fock[:2 * min(M + 1, support)]"),
    ("reconstruct-locus-loose", "juddian.py",
     "if norm > 1e-10 * scale:", "if norm > 1e-8 * scale:"),
    # bosons.displaced_number_states' support K
    ("states-one-row-short", "bosons.py",
     "rows = min(M + 1, support_rows(z, max(count - 1, 0)))", "rows = min(M + 1, support_rows(z, max(count - 1, 0)) - 1)"),
]


def _mutated(module: str, old: str, new: str) -> str:
    text = (ROOT / "src" / "rabijudd" / module).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{module}: {old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def run(mutant) -> tuple[str, str, float]:
    """(verdict, first failing test or reason, seconds) for one mutant."""
    name, module, old, new = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        for part in ("src", "tests", "perfbench"):  # the package rules read perfbench's calls
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / "src" / "rabijudd" / module).write_text(_mutated(module, old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), OPENBLAS_NUM_THREADS="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 "--deselect", GUARD, *TESTS],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "timeout", f"no verdict in {TIMEOUT:g} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", "", seconds
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else f"pytest exit {done.returncode}", seconds


def main(names: list[str]) -> int:
    known = {m[0]: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in names] if names else MUTANTS
    for _, module, old, new in chosen:  # every text must match once before anything runs
        _mutated(module, old, new)
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = pool.map(run, chosen)
        for (name, *_), (verdict, detail, seconds) in zip(chosen, results):
            print(f"{verdict:8s} {name:32s} {seconds:6.1f} s  {detail}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
