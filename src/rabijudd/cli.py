"""Command line front end.

Subcommands:

  juddian     isolated exact points up to a maximal baseline index
  spectrum    low-lying parity-resolved levels over a coupling grid
  verify      cross-check exact points against a truncated diagonalization
  oscillator  displaced / squeezed levels (bosons.oscillator_levels) vs closed forms
  plot        render a spectrum CSV (plus optional points) to SVG

All tabular output is plain text with fixed formatting, so repeated runs on
the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from ._numpy import np
from .bosons import DEFAULT_CUTOFF, oscillator_levels, squeeze_params, support_rows
from .juddian import juddian_points, verify_point
from .numerics import RootCountError
from .rabi import ModelParams, spectrum_sweep
from .svgplot import render_figure

_JUDDIAN_HEADER = "N,index,lambda,g,E"
_SPECTRUM_HEADER = "g,parity,level,energy"


class CLIError(Exception):
    """Bad input or a failed run that should abort with exit status 2."""


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CLIError(f"cannot write {out}: {exc}") from exc


def _model_params(args) -> ModelParams:
    try:
        return ModelParams(omega=args.omega, omega0=args.omega0)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _points(n: int, params: ModelParams):
    try:
        return juddian_points(n, params)
    except RootCountError as exc:
        raise CLIError(f"root search failed for N = {n}: {exc}") from exc
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _check_cutoff_and_levels(args) -> None:
    if args.cutoff < 0:
        raise CLIError("--cutoff must be at least 0")
    if args.levels < 1:
        raise CLIError("--levels must be at least 1")
    if args.levels > args.cutoff + 1:
        raise CLIError("--levels cannot exceed --cutoff + 1")


# ---------------------------------------------------------------------------
# juddian

def cmd_juddian(args) -> int:
    if args.max_n < 1:
        raise CLIError("--max-n must be at least 1")
    params = _model_params(args)
    points = []
    for n in range(1, args.max_n + 1):
        points.extend(_points(n, params))

    if args.format == "json":
        rows = [
            {
                "N": p.N,
                "index": p.root_index,
                "lambda": round(p.lam, 10),
                "g": round(p.g, 10),
                "E": round(p.E, 10),
            }
            for p in points
        ]
        # json.dumps joins these chunks; the closing newline joins with them
        text = "".join([*json.JSONEncoder(indent=2).iterencode(rows), "\n"])
    else:
        lines = [_JUDDIAN_HEADER]
        for p in points:
            lines.append(f"{p.N},{p.root_index},{p.lam:.10f},{p.g:.10f},{p.E:.10f}")
        lines.append("")  # the closing newline, so the text is joined once
        text = "\n".join(lines)
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# spectrum

def cmd_spectrum(args) -> int:
    for flag, value in (("--g-min", args.g_min), ("--g-max", args.g_max)):
        if not math.isfinite(value):
            raise CLIError(f"{flag} must be finite, got {value}")
    if not math.isfinite(args.g_max - args.g_min):
        raise CLIError("--g-max - --g-min overflows: the g range is too wide")
    if args.g_steps == 1:
        if args.g_min != args.g_max:
            raise CLIError("--g-steps 1 requires --g-min equal to --g-max")
    elif args.g_steps < 2:
        raise CLIError("--g-steps must be 1 (single point) or at least 2")
    elif not args.g_min < args.g_max:
        raise CLIError("--g-min must be strictly below --g-max")
    _check_cutoff_and_levels(args)
    params = _model_params(args)
    grid = np.linspace(args.g_min, args.g_max, args.g_steps)  # [g_min] for one step
    try:
        table = spectrum_sweep(
            params,
            grid,
            cutoff=args.cutoff,
            levels_per_block=args.levels,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    unit = params.omega if args.unscaled else 1.0
    lines = [_SPECTRUM_HEADER]
    for g, plus, minus in zip(table.g_values.tolist(), table.levels_plus.tolist(), table.levels_minus.tolist()):
        head = f"{g:.12g},"
        lines += [f"{head}1,{level},{unit * E:.12g}" for level, E in enumerate(plus)]
        lines += [f"{head}-1,{level},{unit * E:.12g}" for level, E in enumerate(minus)]
    lines.append("")  # the closing newline, so the text is joined once
    _write_text(args.out, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify

def _support_note(point, cutoff: int) -> str:
    """Why a failing point may have failed: a cutoff below its support rows."""
    R = support_rows(point.lam, point.N)
    if cutoff >= R:
        return ""
    return (
        f"cutoff {cutoff} is below the support R = {R} of order {point.N} "
        f"at lambda = {point.lam:.10f}; use --cutoff >= {R}"
    )


def cmd_verify(args) -> int:
    if args.n < 1:
        raise CLIError("--n must be at least 1")
    if args.cutoff < 0:
        raise CLIError("--cutoff must be at least 0")
    params = _model_params(args)
    points = _points(args.n, params)

    gap_tol = 1e-6
    res_tol = 1e-6
    print(f"{'index':>5}  {'g':>14}  {'E':>14}  {'gap':>11}  {'eig_resid':>11}  status")
    all_ok = True
    tails = []
    for p in points:
        try:
            report = verify_point(p, cutoff=args.cutoff)
        except (RuntimeError, ValueError) as exc:
            note = _support_note(p, args.cutoff)
            reason = f"{exc}; {note}" if note else str(exc)
            print(
                f"{p.root_index:>5}  {p.g:>14.10f}  {p.E:>14.10f}  "
                f"{'-':>11}  {'-':>11}  FAIL ({reason})"
            )
            all_ok = False
            continue
        tails.append(report.tail_weight)
        ok = report.degeneracy_gap <= gap_tol and report.eigen_residual <= res_tol
        all_ok = all_ok and ok
        note = "" if ok else _support_note(p, args.cutoff)
        status = f"FAIL ({note})" if note else "ok" if ok else "FAIL"
        print(
            f"{p.root_index:>5}  {p.g:>14.10f}  {p.E:>14.10f}  "
            f"{report.degeneracy_gap:>11.3e}  {report.eigen_residual:>11.3e}  "
            f"{status}"
        )
    if all_ok:
        print(f"all {len(points)} points verified at cutoff {args.cutoff}")
        return 0
    tail = f"; largest tail weight {max(tails):.3e}" if tails else ""
    print(
        f"verification FAILED at cutoff {args.cutoff}; "
        f"a larger --cutoff may be needed{tail}",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# oscillator

def cmd_oscillator(args) -> int:
    _check_cutoff_and_levels(args)
    # the displaced levels belong to D(-lambda)|n>, which needs lambda^2 <= M/4; checked
    # before the bisection, which a huge lambda overflows (an inf lambda^2 is the band's)
    lam2 = args.lam * args.lam
    if args.osc_type == "displaced" and math.isfinite(lam2) and lam2 > args.cutoff / 4.0:
        raise CLIError(
            f"--lambda {args.lam:g} is too large for cutoff {args.cutoff}: the displaced "
            f"levels need lambda^2 <= M/4, a cutoff >= 4 lambda^2 = {4.0 * lam2:.12g}"
        )
    try:
        numeric = oscillator_levels(args.osc_type, args.lam, args.cutoff, args.levels)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    omega = squeeze_params(args.lam).Omega if args.osc_type == "squeezed" else 1.0
    exact = (np.arange(args.levels) + 0.5) * omega
    dev = np.abs(numeric - exact)
    print(f"{'n':>4}  {'numeric':>18}  {'closed form':>18}  {'deviation':>11}")
    for n in range(args.levels):
        print(f"{n:>4}  {numeric[n]:>18.12f}  {exact[n]:>18.12f}  {dev[n]:>11.3e}")
    print(f"max deviation = {dev.max():.3e}")
    return 0


# ---------------------------------------------------------------------------
# plot

def _load_spectrum_csv(path: str) -> list[tuple[float, int, int, float]]:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    lines = raw.splitlines()
    if not lines or lines[0].strip() != _SPECTRUM_HEADER:
        raise CLIError(
            f"{path}, line 1: expected header '{_SPECTRUM_HEADER}'"
        )
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise CLIError(f"{path}, line {i}: expected 4 comma-separated fields")
        try:
            g = float(fields[0])
            parity = int(fields[1])
            level = int(fields[2])
            energy = float(fields[3])
        except ValueError as exc:
            raise CLIError(f"{path}, line {i}: {exc}") from exc
        if parity not in (1, -1):
            raise CLIError(f"{path}, line {i}: parity must be 1 or -1")
        for name, value in (("g", g), ("energy", energy)):
            if not math.isfinite(value):
                raise CLIError(f"{path}, line {i}: {name} must be finite, got {value}")
        rows.append((g, parity, level, energy))
    if not rows:
        raise CLIError(f"{path}: no data rows")
    return rows


def _load_points_json(path: str) -> list[dict]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, list):
        raise CLIError(f"{path}: expected a JSON array of point objects")
    for k, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise CLIError(f"{path}, entry {k}: expected an object")
        for key in ("N", "lambda", "g", "E"):
            if key not in entry:
                raise CLIError(f"{path}, entry {k}: missing key '{key}'")
            if not isinstance(entry[key], (int, float)) or isinstance(
                entry[key], bool
            ):
                raise CLIError(f"{path}, entry {k}: key '{key}' must be a number")
            if not math.isfinite(entry[key]):
                raise CLIError(f"{path}, entry {k}: key '{key}' must be finite")
        if not (entry["N"] >= 1 and float(entry["N"]).is_integer()):
            raise CLIError(f"{path}, entry {k}: key 'N' must be a positive integer")
        for key in ("lambda", "g"):
            if not entry[key] > 0:
                raise CLIError(f"{path}, entry {k}: key '{key}' must be positive")
        # the baselines map g to lambda through omega = 2 g / lambda
        if not 0.0 < 2.0 * entry["g"] / entry["lambda"] < math.inf:
            raise CLIError(f"{path}, entry {k}: 2 g / lambda must be positive and finite")
    return data


def cmd_plot(args) -> int:
    rows = _load_spectrum_csv(args.spectrum)
    points = _load_points_json(args.points) if args.points else []
    try:
        svg = render_figure(rows, points, baselines=args.baselines == "on")
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    _write_text(args.out, svg)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabijudd",
        description="Isolated exact points and numerical spectra of the Rabi model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("juddian", help="compute isolated exact points")
    p.add_argument("--max-n", type=int, required=True, metavar="N",
                   help="largest baseline index to search")
    p.add_argument("--omega", type=float, default=1.0, help="field frequency")
    p.add_argument("--omega0", type=float, default=1.0,
                   help="level splitting frequency")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_juddian)

    p = sub.add_parser("spectrum", help="sweep the low-lying spectrum over g")
    p.add_argument("--g-min", type=float, default=0.05)
    p.add_argument("--g-max", type=float, default=0.8)
    p.add_argument("--g-steps", type=int, default=201)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF, metavar="M",
                   help="boson basis cutoff")
    p.add_argument("--levels", type=int, default=8,
                   help="levels kept per parity block")
    p.add_argument("--omega", type=float, default=1.0, help="field frequency")
    p.add_argument("--omega0", type=float, default=1.0,
                   help="level splitting frequency")
    p.add_argument("--unscaled", action="store_true",
                   help="report energies of the unscaled Hamiltonian")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="cross-check exact points numerically")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="baseline index whose points are checked")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF, metavar="M")
    p.add_argument("--omega", type=float, default=1.0, help="field frequency")
    p.add_argument("--omega0", type=float, default=1.0,
                   help="level splitting frequency")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oscillator", help="shifted-oscillator spectra")
    p.add_argument("--type", dest="osc_type", required=True,
                   choices=("displaced", "squeezed"))
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="coupling strength")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF, metavar="M")
    p.add_argument("--levels", type=int, default=10)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("plot", help="render a spectrum CSV to SVG")
    p.add_argument("--spectrum", required=True, metavar="CSV")
    p.add_argument("--points", default=None, metavar="JSON")
    p.add_argument("--baselines", choices=("on", "off"), default="on")
    p.add_argument("--out", required=True, metavar="SVG")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
