"""Static SVG 1.1 figure assembly for spectrum sweeps.

Hand-built markup, no rendering dependency: energy levels become polylines
keyed by (parity, level), isolated exact points become diamond markers, and
the baselines E = N - lam(g)^2 are drawn as light curves underneath. All
coordinates are emitted with fixed formatting so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import math
from operator import itemgetter

_WIDTH = 860.0
_HEIGHT = 560.0
_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 20.0
_MARGIN_B = 46.0

_STYLE = """\
    text { font-family: sans-serif; font-size: 13px; fill: #333; }
    .axis { stroke: #333; stroke-width: 1; fill: none; }
    .tick { stroke: #333; stroke-width: 1; }
    .gridline { stroke: #ddd; stroke-width: 0.5; }
    .level-plus { stroke: #1f4e9c; stroke-width: 1.3; fill: none; }
    .level-minus { stroke: #b03a2e; stroke-width: 1.3; fill: none; }
    .baseline { stroke: #999; stroke-width: 0.7; fill: none; }
    .juddian-point { fill: #e67e22; stroke: #7e3f0e; stroke-width: 0.8; }
"""


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_values(lo: float, hi: float, target: int) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    # bounded by span / step <= target, also where step is below the float spacing
    for k in range(target + 2):
        t = first + k * step
        if t > hi + 1e-12 * span:
            break
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
    return ticks


def render_figure(
    spectrum_rows: list[tuple[float, int, int, float]],
    points: list[dict],
    baselines: bool = True,
) -> str:
    """SVG text for the sweep, markers, and (optionally) baseline curves.

    spectrum_rows holds (g, parity, level, energy) records; points holds
    mappings with keys N, lambda, g, E. Baselines are drawn for the
    N in 1..max(point N) whose curve can reach the plotted energy window,
    one polyline per run of samples inside it (a window across g = 0 can
    hold two). They need at least one point row to fix the g -> lam
    mapping, so they are skipped when points is empty. Raises ValueError
    when the padded g or energy window, or its span, is not finite, and,
    with baselines, when the first point's 2 g / lambda is not positive and
    finite.

    Each (parity, level) series keeps one reference per row, not a copy of
    its (g, energy), and is dropped once its polyline is emitted; the x text
    of each distinct g is formatted once and shared by every series.
    """
    if not spectrum_rows:
        raise ValueError("no spectrum rows to plot")

    g_lo = min(map(itemgetter(0), spectrum_rows))
    g_hi = max(map(itemgetter(0), spectrum_rows))
    e_lo = min(map(itemgetter(3), spectrum_rows))
    e_hi = max(map(itemgetter(3), spectrum_rows))
    if g_hi == g_lo:
        g_lo, g_hi = g_lo - 0.5, g_hi + 0.5
    pad = 0.04 * (e_hi - e_lo) or 0.5
    e_lo, e_hi = e_lo - pad, e_hi + pad
    # a finite span implies finite ends: inf - x and inf - inf are not finite
    for name, lo, hi in (("g", g_lo, g_hi), ("energy", e_lo, e_hi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"the {name} window [{lo:g}, {hi:g}] overflows the float range")

    x_span = _WIDTH - _MARGIN_L - _MARGIN_R
    y_span = _HEIGHT - _MARGIN_T - _MARGIN_B
    g_span, e_span = g_hi - g_lo, e_hi - e_lo

    def sx(g: float) -> float:
        return _MARGIN_L + (g - g_lo) / (g_hi - g_lo) * x_span

    def sy(e: float) -> float:
        return _MARGIN_T + (e_hi - e) / (e_hi - e_lo) * y_span

    y_text = "{:.2f}".format
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f"  <style>\n{_STYLE}  </style>",
        f'  <rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
    ]

    x_ticks = _tick_values(g_lo, g_hi, 8)
    y_ticks = _tick_values(e_lo, e_hi, 9)
    for t in x_ticks:
        x = _fmt(sx(t))
        parts.append(
            f'  <line class="gridline" x1="{x}" y1="{_fmt(_MARGIN_T)}" '
            f'x2="{x}" y2="{_fmt(_HEIGHT - _MARGIN_B)}"/>'
        )
    for t in y_ticks:
        y = _fmt(sy(t))
        parts.append(
            f'  <line class="gridline" x1="{_fmt(_MARGIN_L)}" y1="{y}" '
            f'x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{y}"/>'
        )

    if baselines and points:
        n_max = max(int(p["N"]) for p in points)
        # the g -> lam mapping comes from any point row (lam = 2 g / omega)
        ref = points[0]
        omega = 2.0 * float(ref["g"]) / float(ref["lambda"]) if ref["lambda"] else 0.0
        if not 0.0 < omega < math.inf:
            raise ValueError("point 0: 2 g / lambda must be positive and finite")
        samples = [g_lo + (g_hi - g_lo) * s / 240.0 for s in range(241)]
        lam2 = [(2.0 * g / omega) * (2.0 * g / omega) for g in samples]
        # walk only orders with n - lam^2 in the window at two adjacent samples (as
        # drawn), widened by one against rounding; an overflowing lam^2 allows none
        pairs = [(a, b) for a, b in zip(lam2, lam2[1:]) if abs(b - a) <= e_hi - e_lo]
        n_bottom = max(1, math.ceil(e_lo + min(max(p) for p in pairs)) - 1) if pairs else 1
        n_top = min(n_max, math.floor(e_hi + max(min(p) for p in pairs)) + 1) if pairs else 0
        # each sample's x text is formatted once, and sy inlined as below
        x_texts = [f"{_fmt(sx(g))}," for g in samples]
        for n in range(n_bottom, n_top + 1):
            # a baseline rises with g up to g = 0 and falls after it, so it can
            # leave the window and come back: each in-window run is a polyline
            runs, coords = [], []
            for x, g, l2 in zip(x_texts, samples, lam2):
                e = n - l2
                if e_lo <= e <= e_hi:
                    coords.append(x + y_text(_MARGIN_T + (e_hi - e) / e_span * y_span))
                elif e < e_lo and g >= 0.0:
                    break  # below the window where it falls: it stays below
                elif coords:
                    runs.append(coords)
                    coords = []
            runs.append(coords)
            parts += [f'  <polyline class="baseline" points="{" ".join(c)}"/>'
                      for c in runs if len(c) >= 2]

    # each series holds the row tuples themselves; within one (parity, level)
    # they sort as (g, energy) would
    series: dict[tuple[int, int], list[tuple[float, int, int, float]]] = {}
    for row in spectrum_rows:
        series.setdefault((row[1], row[2]), []).append(row)
    # sx and sy inlined in their order of operations; each distinct g's x text
    # is formatted once for all series (g = -0.0 and 0.0 give the same text)
    x_text_of = {g: f"{_fmt(_MARGIN_L + (g - g_lo) / g_span * x_span)},"
                 for g in set(map(itemgetter(0), spectrum_rows))}
    for key in sorted(series, key=lambda s: (-s[0], s[1])):
        rows = sorted(series.pop(key))
        coords = " ".join([x_text_of[g] + y_text(_MARGIN_T + (e_hi - e) / e_span * y_span)
                           for g, _, _, e in rows])
        cls = "level-plus" if key[0] == 1 else "level-minus"
        parts.append(f'  <polyline class="{cls}" points="{coords}"/>')

    for p in sorted(points, key=lambda q: (float(q["g"]), int(q["N"]))):
        x, y = sx(float(p["g"])), sy(float(p["E"]))
        parts.append(
            f'  <path class="juddian-point" d="M {_fmt(x)} {_fmt(y - 5)} '
            f'L {_fmt(x + 5)} {_fmt(y)} L {_fmt(x)} {_fmt(y + 5)} '
            f'L {_fmt(x - 5)} {_fmt(y)} Z"/>'
        )

    ax_b = _fmt(_HEIGHT - _MARGIN_B)
    parts.append(
        f'  <line class="axis" x1="{_fmt(_MARGIN_L)}" y1="{ax_b}" '
        f'x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{ax_b}"/>'
    )
    parts.append(
        f'  <line class="axis" x1="{_fmt(_MARGIN_L)}" y1="{_fmt(_MARGIN_T)}" '
        f'x2="{_fmt(_MARGIN_L)}" y2="{ax_b}"/>'
    )
    for t in x_ticks:
        x = _fmt(sx(t))
        parts.append(
            f'  <line class="tick" x1="{x}" y1="{ax_b}" x2="{x}" '
            f'y2="{_fmt(_HEIGHT - _MARGIN_B + 5)}"/>'
        )
        parts.append(
            f'  <text x="{x}" y="{_fmt(_HEIGHT - _MARGIN_B + 19)}" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in y_ticks:
        y = _fmt(sy(t))
        parts.append(
            f'  <line class="tick" x1="{_fmt(_MARGIN_L - 5)}" y1="{y}" '
            f'x2="{_fmt(_MARGIN_L)}" y2="{y}"/>'
        )
        parts.append(
            f'  <text x="{_fmt(_MARGIN_L - 9)}" y="{_fmt(sy(t) + 4)}" '
            f'text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'  <text x="{_fmt(_MARGIN_L + x_span / 2)}" '
        f'y="{_fmt(_HEIGHT - 8)}" text-anchor="middle" font-style="italic">g</text>'
    )
    parts.append(
        f'  <text x="16" y="{_fmt(_MARGIN_T + y_span / 2)}" text-anchor="middle" '
        f'font-style="italic" transform="rotate(-90 16 {_fmt(_MARGIN_T + y_span / 2)})">E</text>'
    )
    parts.append("</svg>\n")
    return "\n".join(parts)
