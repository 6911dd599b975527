"""End-to-end tests of the command line interface via subprocess."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rabijudd.bosons import displaced_osc_hamiltonian, squeezed_osc_hamiltonian
import rabijudd.juddian as juddian_module
from rabijudd.cli import _lowest_levels, main
from rabijudd.juddian import juddian_points
from rabijudd.numerics import sym_eig
from rabijudd.rabi import ModelParams

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
    proc = subprocess.run(
        [sys.executable, "-m", "rabijudd", *args],
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


def test_spectrum_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["spectrum", "--g-min", "0.05", "--g-max", "0.4", "--g-steps", "4",
            "--cutoff", "30", "--levels", "3"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


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
    monkeypatch.setattr(juddian_module, "_sturm_count", lambda d, e2, x, tiny, **kwargs: (1, 1.0))
    assert main(list(command)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pivot count" in err


def test_verify_fails_with_cutoff_diagnostic():
    proc = run_cli("verify", "--n", "1", "--cutoff", "5", check=False)
    assert proc.returncode == 1
    assert "cutoff" in (proc.stdout + proc.stderr)


def test_verify_failure_reports_tail_weight(capsys):
    # order 7 at cutoff 30: every point gets a report, the last ones fail
    assert main(["verify", "--n", "7", "--cutoff", "30"]) == 1
    out, err = capsys.readouterr()
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 7 and rows[-1].endswith("FAIL") and "tail" not in out
    weight = float(err.rsplit("largest tail weight ", 1)[1])
    assert 1e-4 <= weight <= 1e-2


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


# ---------------------------------------------------------------------------
# oscillator

def test_oscillator_displaced_report():
    proc = run_cli("oscillator", "--type", "displaced", "--lambda", "1.0")
    lines = proc.stdout.strip().split("\n")
    assert lines[-1].startswith("max deviation = ")
    assert float(lines[-1].split("=")[1]) <= 1e-8
    assert len(lines) == 12  # header + 10 levels + footer


def test_oscillator_squeezed_report():
    proc = run_cli("oscillator", "--type", "squeezed", "--lambda", "0.3",
                   "--cutoff", "200")
    assert float(proc.stdout.strip().split("\n")[-1].split("=")[1]) <= 1e-6


@pytest.mark.parametrize("M", [0, 1, 7, 60])
@pytest.mark.parametrize(
    "build, lam, stride",
    [(displaced_osc_hamiltonian, 1.0, 1), (squeezed_osc_hamiltonian, 0.3, 2),
     (squeezed_osc_hamiltonian, -0.45, 2)],
)
def test_oscillator_sector_levels_match_full_diagonalization(build, lam, stride, M):
    ham = build(lam, M)
    levels = min(10, M + 1)
    reference = sym_eig(ham).values[:levels]
    assert np.abs(_lowest_levels(ham, levels, stride) - reference).max() <= 1e-10


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


def test_plot_missing_file(tmp_path):
    proc = run_cli("plot", "--spectrum", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x.svg"), check=False)
    assert proc.returncode == 2
