"""End-to-end tests of the command line interface via subprocess."""

import json
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rabijudd.bosons import support_rows
import rabijudd.juddian as juddian_module
from rabijudd.cli import main
from rabijudd.juddian import juddian_points
from rabijudd.rabi import ModelParams, spectrum_sweep
from rabijudd.svgplot import render_figure

REFERENCE_G = {
    (1, 0): 0.2165063510,
    (2, 0): 0.1661640732,
    (2, 1): 0.4460403578,
    (3, 0): 0.1400889590,
    (3, 1): 0.3664714887,
    (3, 2): 0.6163829153,
    (4, 0): 0.1234229399,
    (4, 1): 0.3199075781,
    (4, 2): 0.5243395120,
    (4, 3): 0.7582492415,
}


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, check=True):
    # -W error: a warning fails the command, as the suite's filterwarnings does in-process
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rabijudd", *args],
        capture_output=True, text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


# ---------------------------------------------------------------------------
# juddian

def test_juddian_csv_output():
    out = run_cli("juddian", "--max-n", "4").stdout
    lines = out.strip().split("\n")
    assert lines[0] == "N,index,lambda,g,E"
    assert len(lines) == 11
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        n, idx = int(fields[0]), int(fields[1])
        g = float(fields[3])
        assert abs(g - REFERENCE_G[(n, idx)]) <= 1e-9
        # 10 decimal places on the fixed-point columns
        for f in fields[2:5]:
            assert len(f.split(".")[1]) == 10
    keys = [(int(l.split(",")[0]), float(l.split(",")[3])) for l in lines[1:]]
    assert keys == sorted(keys)


def test_juddian_json_output():
    out = run_cli("juddian", "--max-n", "2", "--format", "json").stdout
    rows = json.loads(out)
    assert len(rows) == 3
    for row in rows:
        assert list(row.keys()) == ["N", "index", "lambda", "g", "E"]
    assert abs(rows[0]["g"] - 0.2165063510) <= 1e-9
    assert abs(rows[2]["lambda"] - 0.8920807156) <= 1e-9


def test_juddian_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("juddian", "--max-n", "3", "--out", str(a))
    run_cli("juddian", "--max-n", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_juddian_boundary_filtered_run():
    proc = run_cli("juddian", "--max-n", "1", "--omega0", "2", "--omega", "1",
                   check=False)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "N,index,lambda,g,E"


def test_juddian_max_n_100_lists_every_point():
    lines = run_cli("juddian", "--max-n", "100").stdout.strip().split("\n")
    assert len(lines) == 1 + 100 * 101 // 2


def test_juddian_rejects_bad_max_n():
    proc = run_cli("juddian", "--max-n", "0", check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("juddian", "--max-n", "2", "--omega0", "0"),
    ("verify", "--n", "1", "--omega0", "-1"),
    ("verify", "--n", "1", "--cutoff", "-5"),
    ("spectrum", "--omega", "1e-300", "--g-steps", "3"),
    ("juddian", "--max-n", "3", "--omega0", "1e308", "--omega", "1e-308"),
])
def test_bad_model_input_is_an_error(args):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("verify", "--n", "1", "--cutoff", "-5"), "--cutoff must be at least 0"),
    (("spectrum", "--cutoff", "-5"), "--cutoff must be at least 0"),
    (("oscillator", "--type", "displaced", "--lambda", "1", "--cutoff", "-5"),
     "--cutoff must be at least 0"),
    (("spectrum", "--levels", "0"), "--levels must be at least 1"),
    (("spectrum", "--levels", "7", "--cutoff", "5"), "--levels cannot exceed --cutoff + 1"),
    (("oscillator", "--type", "squeezed", "--lambda", "0.1", "--levels", "7", "--cutoff", "5"),
     "--levels cannot exceed --cutoff + 1"),
    (("juddian", "--max-n", "2", "--omega0", "0"), "the omega0 = 0 limit is exactly solvable"),
    (("verify", "--n", "1", "--omega0", "-1"),
     "H(-omega0) is sigma_x-equivalent to H(|omega0|), with the same g and E "
     "and the parities swapped; pass |omega0|"),
    # (2 g / omega)^2 n and omega0 / (2 omega) overflow: no nan levels, no inf splitting
    (("spectrum", "--omega", "1e-300", "--g-steps", "3"),
     "squared couplings (2 g / omega)^2 n overflow"),
    (("juddian", "--max-n", "3", "--omega0", "1e308", "--omega", "1e-308"),
     "omega_tilde must be finite"),
])
def test_bad_input_message_names_the_flag(args, message):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert message in proc.stderr


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_csv_shape_and_order():
    out = run_cli("spectrum", "--g-min", "0.1", "--g-max", "0.3",
                  "--g-steps", "3", "--cutoff", "40", "--levels", "2").stdout
    lines = out.strip().split("\n")
    assert lines[0] == "g,parity,level,energy"
    assert len(lines) == 1 + 3 * 2 * 2
    parsed = [line.split(",") for line in lines[1:]]
    gs = [float(r[0]) for r in parsed]
    assert gs == sorted(gs)
    # within one g: all parity +1 rows first, then -1, level ascending
    first_point = parsed[:4]
    assert [r[1] for r in first_point] == ["1", "1", "-1", "-1"]
    assert [r[2] for r in first_point] == ["0", "1", "0", "1"]


def test_spectrum_single_point_special_case():
    out = run_cli("spectrum", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
                  "--cutoff", "40", "--levels", "3").stdout
    lines = out.strip().split("\n")[1:]
    energies = [float(l.split(",")[3]) for l in lines]
    assert energies == pytest.approx([-0.5, 1.5, 1.5, 0.5, 0.5, 2.5], abs=1e-12)


def test_spectrum_rejects_degenerate_range():
    proc = run_cli("spectrum", "--g-min", "0.2", "--g-max", "0.2",
                   "--g-steps", "5", check=False)
    assert proc.returncode == 2
    proc = run_cli("spectrum", "--g-min", "0.3", "--g-max", "0.1",
                   "--g-steps", "5", check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("g_range, message", [
    (("--g-min=-inf", "--g-max=inf", "--g-steps=5"), "--g-min must be finite"),
    (("--g-min=-1e308", "--g-max=1e308", "--g-steps=3"), "--g-max - --g-min overflows"),
    (("--g-min", "nan", "--g-max", "nan", "--g-steps", "1"), "--g-min must be finite"),
])
def test_spectrum_rejects_non_finite_or_overflowing_range(g_range, message):
    proc = run_cli("spectrum", *g_range, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Warning" not in proc.stderr and proc.stderr.count("\n") == 1


def test_spectrum_unscaled_carries_the_omega_factor():
    args = ("--omega", "2", "--omega0", "1.3")
    table = spectrum_sweep(ModelParams(omega=2.0, omega0=1.3), np.linspace(0.05, 0.8, 201))
    levels = [E for p, m in zip(table.levels_plus, table.levels_minus) for E in (*p, *m)]
    for flags, unit in (((), 1.0), (("--unscaled",), 2.0)):
        lines = run_cli("spectrum", *flags, *args).stdout.strip().split("\n")[1:]
        assert [line.split(",")[3] for line in lines] == [f"{unit * E:.12g}" for E in levels]


@pytest.mark.parametrize("args", [
    ("spectrum", "--omega", "0.5", "--omega0", "1.7e308", "--g-steps", "2",
     "--levels", "2", "--cutoff", "3"),
])
def test_gershgorin_interval_past_half_the_float_range_is_an_error(args):
    # the bisection overflowed: -8.5e+307 for every level, or inf, with exit 0
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "reaches past half the float range" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_spectrum_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["spectrum", "--g-min", "0.05", "--g-max", "0.4", "--g-steps", "4",
            "--cutoff", "30", "--levels", "3"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_to_an_unwritable_path_names_it(tmp_path):
    out = tmp_path / "missing" / "a.csv"
    proc = run_cli("spectrum", "--g-steps", "2", "--cutoff", "5", "--levels", "2", "--out", str(out), check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"


def test_spectrum_csv_adds_little_to_the_sweep_peak(tmp_path):
    # the CSV goes out one grid row at a time; built whole, its 32,016 lines
    # and the tolist copies of both level arrays raised the traced peak of
    # this command 1.25 x the file's size over the sweep's own
    out = tmp_path / "s.csv"
    args = ["spectrum", "--out", str(out), "--g-steps"]
    assert main(args + ["3"]) == 0  # first-call allocations outside the window
    tracemalloc.start()
    try:
        spectrum_sweep(ModelParams(), np.linspace(0.05, 0.8, 2001), 100, 8)
        sweep = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(args + ["2001"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak - sweep < 0.2 * size, (peak, sweep, size)


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_at_default_cutoff():
    proc = run_cli("verify", "--n", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3  # header, one point, summary
    assert "ok" in lines[1]


def test_verify_four_rows():
    proc = run_cli("verify", "--n", "4", "--cutoff", "100")
    data_lines = [l for l in proc.stdout.strip().split("\n")[1:-1]]
    assert len(data_lines) == 4
    assert all("ok" in l for l in data_lines)


def test_verify_off_resonance_flags():
    # omega_tilde = 1.3: order 3 holds the two roots with k = 2, 3 > 1.3
    proc = run_cli("verify", "--n", "3", "--omega0", "2.6")
    lines = proc.stdout.strip().split("\n")
    expected = juddian_points(3, ModelParams(omega=1.0, omega0=2.6))
    assert len(expected) == 2
    assert len(lines) == 4  # header, two points, summary
    for line, point in zip(lines[1:3], expected):
        fields = line.split()
        assert abs(float(fields[1]) - point.g) < 1e-9
        assert fields[-1] == "ok"
    assert lines[-1] == "all 2 points verified at cutoff 100"


@pytest.mark.parametrize("command", [("juddian", "--max-n", "2"), ("verify", "--n", "2")])
def test_uncertified_root_count_is_reported(monkeypatch, capsys, command):
    # a pivot count that never clears the bound fails the certification
    monkeypatch.setattr(juddian_module, "_compatibility_count",
                        lambda N, wt: (lambda x: (1, 1.0), N * juddian_module._ROOT_BOUND))
    assert main(list(command)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pivot count" in err


@pytest.mark.parametrize("omega0", ["1e-160", "1e-320"])
def test_verify_at_tiny_splitting(omega0):
    # the state's q_N ~ 1 / omega_tilde overflowed: nan residuals, RuntimeWarnings
    # and a FAIL blamed on the cutoff
    proc = run_cli("verify", "--n", "3", "--omega0", omega0)
    assert proc.stdout.strip().split("\n")[-1] == "all 3 points verified at cutoff 100"
    assert proc.stderr == ""


def test_verify_fails_with_cutoff_diagnostic():
    proc = run_cli("verify", "--n", "1", "--cutoff", "5", check=False)
    assert proc.returncode == 1
    assert "cutoff" in (proc.stdout + proc.stderr)


def test_verify_failure_reports_tail_weight(capsys):
    # order 7 at cutoff 30: every point gets a report, the last ones fail
    assert main(["verify", "--n", "7", "--cutoff", "30"]) == 1
    out, err = capsys.readouterr()
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 7 and rows[-1].endswith("FAIL (cutoff 30 is below the support R = 118 "
                                                "of order 7 at lambda = 2.1925225004; use --cutoff >= 118)")
    assert "tail" not in out
    weight = float(err.rsplit("largest tail weight ", 1)[1])
    assert 1e-4 <= weight <= 1e-2


def test_verify_failures_name_the_support_bound(capsys):
    # order 30 at the default cutoff 100: points 20-24 fail the tolerance,
    # 25-29 the 1e-3 window; each failure names the support R > 100. The
    # states are D(z)|n> itself on the M + 1 rows, not eigenvectors of the
    # truncated operator, so a cutoff short of R shows in the residual
    assert main(["verify", "--n", "30"]) == 1
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    points = juddian_points(30, ModelParams())
    assert len(rows) == len(points) == 30
    for row, point in zip(rows, points):
        R = support_rows(point.lam, 30)
        note = (f"cutoff 100 is below the support R = {R} of order 30 "
                f"at lambda = {point.lam:.10f}; use --cutoff >= {R})")
        if point.root_index < 20:
            assert row.endswith("  ok") and "support" not in row
        else:
            assert R > 100 and " FAIL (" in row and row.endswith(note)
    # the cutoff each of the newly failing points names is enough for it
    for index, R in zip((20, 21, 22), (214, 219, 224)):
        assert support_rows(points[index].lam, 30) == R
        main(["verify", "--n", "30", "--cutoff", str(R)])
        row = capsys.readouterr().out.split("\n")[1 + index]
        assert row.split()[0] == str(index) and row.endswith("  ok")
        assert float(row.split()[4]) <= 1e-12


def _readme_sample(command):
    # the sample output printed under "$ rabijudd <command>", without "..."
    block = README.read_text().split(f"$ rabijudd {command}\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines() if line != "..."]


def test_readme_juddian_sample_matches_output():
    sample = _readme_sample("juddian --max-n 4")
    out = run_cli("juddian", "--max-n", "4").stdout.splitlines()
    assert len(sample) >= 2
    assert sample == out[: len(sample)]


def test_readme_verify_sample_matches_output():
    sample = _readme_sample("verify --n 4 --cutoff 100")
    out = run_cli("verify", "--n", "4", "--cutoff", "100").stdout.splitlines()
    assert sample[0] == out[0]
    rows = {line.split()[0]: line.split() for line in out[1:-1]}
    checked = 0
    for line in sample[1:]:
        fields = line.split()
        if not fields[0].isdigit():
            assert line == out[-1]
            continue
        # index, g, E and status; the e-notation gap and residual are rounding
        assert fields[:3] + fields[-1:] == rows[fields[0]][:3] + rows[fields[0]][-1:]
        checked += 1
    assert checked >= 1


def test_readme_library_example_runs(capsys):
    code = README.read_text().split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # three points of order 3, then the 24 crossings of the criterion-8 table
    assert [int(line.split()[0]) for line in lines[:3]] == [3, 3, 3]
    crossings = [line.split() for line in lines[3:]]
    assert len(crossings) == 24
    assert all(len(c) == 4 and 0.05 <= float(c[0]) <= 0.8 for c in crossings)


# ---------------------------------------------------------------------------
# oscillator

def test_oscillator_displaced_report():
    proc = run_cli("oscillator", "--type", "displaced", "--lambda", "1.0")
    lines = proc.stdout.strip().split("\n")
    assert lines[-1].startswith("max deviation = ")
    assert float(lines[-1].split("=")[1]) <= 1e-8
    assert len(lines) == 12  # header + 10 levels + footer


@pytest.mark.parametrize("lam, need", [("1e10", "4e+20"), ("7", "196"), ("6", "144")])
def test_displaced_oscillator_past_its_cutoff_bound_is_an_error(lam, need):
    # lambda = 1e10 printed levels near 1e20 and max deviation 1e20 with exit 0
    proc = run_cli("oscillator", "--type", "displaced", "--lambda", lam, check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"need lambda^2 <= M/4, a cutoff >= 4 lambda^2 = {need}" in proc.stderr
    # the bound is inclusive: lambda^2 = M/4 still runs
    edge = run_cli("oscillator", "--type", "displaced", "--lambda", "5", "--levels", "3")
    assert float(edge.stdout.strip().split("\n")[-1].split("=")[1]) <= 1e-8


def test_oscillator_squeezed_report():
    proc = run_cli("oscillator", "--type", "squeezed", "--lambda", "0.3",
                   "--cutoff", "200")
    assert float(proc.stdout.strip().split("\n")[-1].split("=")[1]) <= 1e-6


def test_oscillator_forms_no_dense_matrix(capsys):
    # the dense (M+1)^2 matrix alone would take 32 MB at M = 2000
    args = ["oscillator", "--type", "squeezed", "--lambda", "0.3", "--cutoff", "2000"]
    assert main(args[:-1] + ["10"]) == 0  # first-call allocations outside the window
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("lam, cutoff, message", [
    # lam^2 = inf on the diagonal: the band is refused
    ("1e200", "5", "lam^2 and lam sqrt(M) must be finite"),
    # lam^2 is finite and above M/4: named before the bisection, which would
    # overflow on lam^2 M, a squared coupling
    ("1e153", "10000", "--lambda 1e+153 is too large for cutoff 10000: the displaced levels need "
                       "lambda^2 <= M/4, a cutoff >= 4 lambda^2 = 4e+306"),
    # lam^2 is finite and 4 lam^2 is not: no cutoff is enough, and the band's
    # Gershgorin interval, past half the float range, is never formed
    ("1e154", "1", "--lambda 1e+154 is too large for cutoff 1: the displaced levels need "
                   "lambda^2 <= M/4, a cutoff >= 4 lambda^2 = inf"),
])
def test_oscillator_rejects_overflowing_lambda(lam, cutoff, message):
    proc = run_cli("oscillator", "--type", "displaced", "--lambda", lam,
                   "--cutoff", cutoff, "--levels", "2", check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Warning" not in proc.stderr and proc.stderr.count("\n") == 1


def test_oscillator_squeezed_domain_error():
    proc = run_cli("oscillator", "--type", "squeezed", "--lambda", "0.5",
                   check=False)
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


# ---------------------------------------------------------------------------
# plot

@pytest.fixture()
def sweep_files(tmp_path):
    csv = tmp_path / "sweep.csv"
    pts = tmp_path / "points.json"
    run_cli("spectrum", "--g-min", "0.05", "--g-max", "0.8", "--g-steps", "16",
            "--cutoff", "60", "--levels", "4", "--out", str(csv))
    run_cli("juddian", "--max-n", "2", "--format", "json", "--out", str(pts))
    return csv, pts


def test_plot_full_figure(sweep_files, tmp_path):
    csv, pts = sweep_files
    svg_path = tmp_path / "fig.svg"
    run_cli("plot", "--spectrum", str(csv), "--points", str(pts),
            "--out", str(svg_path))
    text = svg_path.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg")
    assert text.count('class="level-plus"') == 4
    assert text.count('class="level-minus"') == 4
    assert text.count('class="juddian-point"') == 3
    assert 'class="baseline"' in text


def test_plot_baselines_off(sweep_files, tmp_path):
    csv, pts = sweep_files
    svg_path = tmp_path / "fig.svg"
    run_cli("plot", "--spectrum", str(csv), "--points", str(pts),
            "--baselines", "off", "--out", str(svg_path))
    assert 'class="baseline"' not in svg_path.read_text()


def test_plot_without_points(sweep_files, tmp_path):
    csv, _ = sweep_files
    svg_path = tmp_path / "fig.svg"
    run_cli("plot", "--spectrum", str(csv), "--out", str(svg_path))
    text = svg_path.read_text()
    assert 'class="juddian-point"' not in text
    assert 'class="level-plus"' in text


def test_plot_deterministic(sweep_files, tmp_path):
    csv, pts = sweep_files
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli("plot", "--spectrum", str(csv), "--points", str(pts), "--out", str(a))
    run_cli("plot", "--spectrum", str(csv), "--points", str(pts), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_plot_reports_malformed_row_with_line_number(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("g,parity,level,energy\n0.1,1,0,1.25\n0.2,7,0,oops\n")
    proc = run_cli("plot", "--spectrum", str(bad),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_plot_reports_bad_points_entry(tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text("g,parity,level,energy\n0.1,1,0,1.25\n0.2,1,0,1.3\n")
    pts = tmp_path / "p.json"
    pts.write_text('[{"N": 1, "lambda": 0.4, "g": 0.2}]')  # E missing
    proc = run_cli("plot", "--spectrum", str(csv), "--points", str(pts),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
    assert "entry 0" in proc.stderr and "'E'" in proc.stderr


@pytest.mark.parametrize("entry, message", [
    ('{"N": 1, "lambda": 0, "g": 0.2, "E": 0.8}', "key 'lambda' must be positive"),
    ('{"N": 1, "lambda": 0.4, "g": 0, "E": 0.8}', "key 'g' must be positive"),
    ('{"N": 1, "lambda": 0.4, "g": 0.2, "E": NaN}', "key 'E' must be finite"),
    ('{"N": Infinity, "lambda": 0.4, "g": 0.2, "E": 0.8}', "key 'N' must be finite"),
    ('{"N": 1, "lambda": 1e300, "g": 1e-300, "E": 0.8}', "2 g / lambda must be positive"),
    ('{"N": 2.7, "lambda": 0.4, "g": 0.2, "E": 0.8}', "key 'N' must be a positive integer"),
    ('{"N": -3, "lambda": 0.4, "g": 0.2, "E": 0.8}', "key 'N' must be a positive integer"),
    ('{"N": 0, "lambda": 0.4, "g": 0.2, "E": 0.8}', "key 'N' must be a positive integer"),
])
def test_plot_rejects_unplottable_point(tmp_path, entry, message):
    csv = tmp_path / "s.csv"
    csv.write_text("g,parity,level,energy\n0.1,1,0,1.25\n0.2,1,0,1.3\n")
    pts = tmp_path / "p.json"
    pts.write_text(f'[{{"N": 1, "lambda": 0.4, "g": 0.2, "E": 0.84}}, {entry}]')
    proc = run_cli("plot", "--spectrum", str(csv), "--points", str(pts),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {pts}, entry 1: {message}")


@pytest.mark.parametrize("row, message", [
    ("0.2,1,0,nan", "energy must be finite"),
    ("inf,-1,0,1.3", "g must be finite"),
])
def test_plot_rejects_non_finite_spectrum_row(tmp_path, row, message):
    csv = tmp_path / "s.csv"
    csv.write_text(f"g,parity,level,energy\n0.1,1,0,1.25\n{row}\n")
    proc = run_cli("plot", "--spectrum", str(csv),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {csv}, line 3: {message}")


@pytest.mark.parametrize("rows, message", [
    (("0.1,1,0,1e308", "0.2,1,0,-1e308"), "the energy window [-inf, inf]"),
    (("0.1,1,0,1.79e308", "0.2,1,0,0"), "the energy window [-7.16e+306, inf]"),  # the padding
    (("1e308,1,0,1", "-1e308,1,0,2"), "the g window [-1e+308, 1e+308]"),  # the span
])
def test_plot_rejects_overflowing_window(tmp_path, rows, message):
    csv = tmp_path / "s.csv"
    csv.write_text("g,parity,level,energy\n" + "\n".join(rows) + "\n")
    proc = run_cli("plot", "--spectrum", str(csv),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {message} overflows the float range")


def test_plot_huge_order_renders_quickly(tmp_path):
    # only orders that can reach the energy window are walked, not all 10^9
    csv = tmp_path / "s.csv"
    csv.write_text("g,parity,level,energy\n0.1,1,0,0.5\n0.8,1,0,3.5\n")
    svgs = []
    for n in ("1e9", "40"):
        pts = tmp_path / f"p{n}.json"
        pts.write_text(f'[{{"N": {n}, "lambda": 0.4, "g": 0.2, "E": 2.0}}]')
        svg = tmp_path / f"x{n}.svg"
        start = time.perf_counter()
        assert main(["plot", "--spectrum", str(csv), "--points", str(pts),
                     "--out", str(svg)]) == 0
        assert time.perf_counter() - start < 1.0
        svgs.append(svg.read_text())
    # the same figure as a small order (1e9 parses as an integral float, which
    # is accepted): baselines N = 1..6 cross the window
    assert svgs[0] == svgs[1]
    assert svgs[0].count('<polyline class="baseline"') == 6


def test_baseline_drawn_on_both_sides_of_g_zero():
    # E = 3 - 4 g^2 rises to g = 0 and falls after it: above the window
    # [-1.136, 2.536] for |g| < 0.34, so N = 3 is two runs, mirror images
    rows = [(-0.5, 1, 0, -1.0), (0.5, 1, 0, 2.4)]
    svg = render_figure(rows, [{"N": 3, "lambda": 1.0, "g": 0.5, "E": 2.0}])
    runs = [points.split() for points in re.findall(r'<polyline class="baseline" points="([^"]*)"', svg)]
    assert [len(r) for r in runs] == [241, 241, 39, 39]  # N = 1 and 2 stay in the window
    left, right = runs[2], runs[3]
    assert (left[0], left[-1]) == ("64.00,92.11", "187.18,20.40")
    assert (right[0], right[-1]) == ("718.82,20.40", "842.00,92.11")
    assert [p.split(",")[1] for p in right] == [p.split(",")[1] for p in reversed(left)]


def test_tick_values_return_for_a_window_narrow_for_its_magnitude():
    # the tick step 0.25 lies below the float spacing at 1e16; a subprocess,
    # so that a hang fails after 10 s instead of holding the run
    code = (
        "from rabijudd.svgplot import _tick_values\n"
        "ticks = _tick_values(1e16, 1e16 + 2, 9)\n"
        "assert 1 <= len(ticks) <= 11 and all(1e16 <= t <= 1e16 + 2 for t in ticks), ticks\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("g", ["1e-300", "1e-100"])
def test_plot_renders_quickly_when_lambda_squared_is_huge(tmp_path, g):
    # omega = 2 g / lambda is tiny, so lambda^2 over the g window overflows
    # (1e-300) or is finite but far beyond the window (1e-100): no baseline
    # holds two adjacent samples, and none of the 1e300 orders is walked
    csv = tmp_path / "s.csv"
    csv.write_text("g,parity,level,energy\n0.1,1,0,1.25\n0.2,1,0,1.3\n")
    pts = tmp_path / "p.json"
    pts.write_text(f'[{{"N": 1e300, "lambda": 1, "g": {g}, "E": 1}}]')
    svg = tmp_path / "x.svg"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rabijudd", "plot", "--spectrum", str(csv),
         "--points", str(pts), "--out", str(svg)],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert 'class="baseline"' not in svg.read_text()


def test_plot_missing_file(tmp_path):
    proc = run_cli("plot", "--spectrum", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
