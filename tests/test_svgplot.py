"""render_figure's level polylines against the per-sample formula, and its memory."""

from __future__ import annotations

import random
import re
import tracemalloc

import numpy as np
import pytest

from rabijudd.rabi import ModelParams, spectrum_sweep
from rabijudd.svgplot import render_figure

_POINTS = [{"N": 2, "lambda": 1.0, "g": 0.5, "E": 1.0}, {"N": 1, "lambda": 0.4, "g": 0.2, "E": 0.84}]


def _expected_levels(rows):
    """Each series' polyline, one "{:.2f},{:.2f}" format per (g, E) sample."""
    g_lo, g_hi = min(r[0] for r in rows), max(r[0] for r in rows)
    e_lo, e_hi = min(r[3] for r in rows), max(r[3] for r in rows)
    if g_hi == g_lo:
        g_lo, g_hi = g_lo - 0.5, g_hi + 0.5
    pad = 0.04 * (e_hi - e_lo) or 0.5
    e_lo, e_hi = e_lo - pad, e_hi + pad
    series = {}
    for g, parity, level, e in rows:
        series.setdefault((parity, level), []).append((g, e))
    lines = []
    for parity, level in sorted(series, key=lambda s: (-s[0], s[1])):
        coords = " ".join(
            "{:.2f},{:.2f}".format(64.0 + (g - g_lo) / (g_hi - g_lo) * 778.0,
                                   20.0 + (e_hi - e) / (e_hi - e_lo) * 494.0)
            for g, e in sorted(series[(parity, level)])
        )
        cls = "level-plus" if parity == 1 else "level-minus"
        lines.append(f'  <polyline class="{cls}" points="{coords}"/>')
    return lines


def _grid_rows(gs, levels=2):
    return [(g, parity, level, level + parity * 0.3 - g * g)
            for g in gs for parity in (1, -1) for level in range(levels)]


_SHUFFLED = _grid_rows([0.1, 0.35, 0.6, 0.85])
random.Random(5).shuffle(_SHUFFLED)

_CASES = {
    "shuffled": _SHUFFLED,
    # g = 0.5 twice in one series: the two samples sort by energy
    "repeated_g": [(0.0, 1, 0, 1.0), (0.5, 1, 0, 2.0), (0.5, 1, 0, 1.5), (1.0, 1, 0, 0.5),
                   (0.5, -1, 0, 0.25)],
    # the two parities on different grids share the window but no g
    "two_grids": [(g, 1, 0, 1.0 - g) for g in (0.0, 0.4, 0.8, 1.2)]
                 + [(g, -1, 1, 2.0 - g * g) for g in (0.1, 0.3, 0.7)],
    # -0.0 and 0.0 compare equal: they sort by energy and share one x text
    "signed_zero": [(-0.5, 1, 0, 0.0), (0.0, 1, 0, 1.0), (-0.0, 1, 0, 0.9), (0.5, 1, 0, 0.2),
                    (-0.0, -1, 0, 2.0), (0.5, -1, 0, 2.5), (-0.5, -1, 0, 1.5)],
    "one_row": [(0.3, -1, 2, 1.25)],
}


@pytest.mark.parametrize("points", [[], _POINTS], ids=["no_points", "points"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_level_polylines_follow_the_per_sample_formula(case, points):
    rows = _CASES[case]
    svg = render_figure(rows, points)
    levels = [line for line in svg.split("\n") if re.match(r'  <polyline class="level-', line)]
    assert levels == _expected_levels(rows)
    assert svg.count('<path class="juddian-point"') == len(points)
    assert svg.endswith("</svg>\n") and not svg.endswith("\n\n")
    # the rows' order is not part of the figure
    assert render_figure(sorted(rows, reverse=True), points) == svg


def test_render_peak_stays_near_the_figure_size():
    # a G = 2001, k = 8 sweep as the benchmark draws it (32,016 rows); one copy
    # of each row's (g, E) costs about 9 x len(svg) here, and the rows held by
    # reference about 2.5 x
    table = spectrum_sweep(ModelParams(omega=1.0, omega0=1.0), np.linspace(0.05, 0.8, 2001), 100, 8)
    rows = [
        (float(g), parity, level, float(block[i, level]))
        for i, g in enumerate(table.g_values)
        for parity, block in ((1, table.levels_plus), (-1, table.levels_minus))
        for level in range(8)
    ]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        svg = render_figure(rows, [])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert svg.count('<polyline class="level-') == 16
    assert peak < 4 * len(svg), (peak, len(svg))


@pytest.mark.parametrize("point", [
    {"N": 1, "lambda": 0.0, "g": 0.2, "E": 0.8},
    {"N": 1, "lambda": 0.4, "g": 0.0, "E": 0.8},
    # a negative lambda would mirror every baseline about g = 0
    {"N": 1, "lambda": -0.4, "g": 0.2, "E": 0.84},
], ids=["lambda-zero", "g-zero", "lambda-negative"])
def test_baselines_refuse_a_point_without_a_positive_finite_omega(point):
    # the baselines map g to lambda through omega = 2 g / lambda, so the first
    # point must give a positive, finite omega; the figure without baselines
    # does not use it
    rows = _grid_rows([0.1, 0.35, 0.6])
    with pytest.raises(ValueError, match="^point 0: 2 g / lambda must be positive and finite$"):
        render_figure(rows, [point])
    assert render_figure(rows, [point], baselines=False).count('<path class="juddian-point"') == 1
