"""Deterministic text and SVG pictures of paths, one routine per format.

The ASCII routine draws on the doubled grid of half-lattice paths; an RSOS
path is drawn as its doubled heights with top 2(p'-1).  An edge glyph sits
in row top - ceil((h + h')/2): the upper end of a half step, the midpoint
of a whole step.  The SVG routine draws the header and the polyline, and
each model adds what goes under and over it.  RSOS pictures shade dark
bands and mark the scoring vertices the path's read keeps (`o` up, `*` down,
`+` non-scoring), light tails too; half-lattice pictures can overlay the
particle baselines of paths that start and end at height 1.
"""

from __future__ import annotations

from . import rsos as rs
from .halfpath import HalfPath
from .particles import dissect
from .rsos import RsosPath


def _ascii(top: int, heights, marks: dict[int, str], fills) -> str:
    """Doubled heights on rows top..2; each fill (h2, x0, x1, glyph) is drawn
    first, in row h2 from position x0 to x1.
    """
    width = 2 * len(heights) - 1
    grid = [[" "] * width for _ in range(top - 1)]
    for h2, x0, x1, glyph in fills:
        for c in range(max(2 * x0, 0), min(2 * x1 + 1, width)):
            grid[top - h2][c] = glyph
    for x, h in enumerate(heights):
        grid[top - h][2 * x] = marks.get(x, "+")
    for x, (h, nh) in enumerate(zip(heights, heights[1:])):
        grid[top - (h + nh + 1) // 2][2 * x + 1] = "/" if nh > h else "\\"

    lines = []
    for r, row in enumerate(grid):
        h2 = top - r
        label = f"{h2 // 2:2d} " if h2 % 2 == 0 else "   "
        lines.append(label + "".join(row).rstrip())
    return "\n".join(lines)


def rsos_ascii(path: RsosPath) -> str:
    hs = path.heights
    marks = {x: "o" if hs[x - 1] < hs[x] else "*" for x in path._scan[1]}
    bands = [(2 * y + 1, 0, path.horizon, ".")
             for y in rs.dark_floors(path.p, path.p_prime)]
    return _ascii(2 * (path.p_prime - 1), [2 * h for h in hs], marks, bands)


def half_ascii(path: HalfPath, baselines: bool = False) -> str:
    particles = dissect(path).particles if baselines else ()
    spans = [(p.base_h, p.origin, p.origin + p.length, "=") for p in particles]
    return _ascii(path.t2, path.doubled, {}, spans)


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
)
_UNIT = 16


def _xy(top: int, x: int, h: int) -> tuple[int, int]:
    return ((x + 1) * _UNIT, (top - h + 1) * _UNIT)


def _svg(top: int, heights, under: list[str], over: list[str]) -> str:
    pts = " ".join("%d,%d" % _xy(top, x, h) for x, h in enumerate(heights))
    return "\n".join([
        _SVG_HEAD.format(w=(len(heights) + 1) * _UNIT, h=(top + 1) * _UNIT),
        *under,
        f'<polyline points="{pts}" fill="none" stroke="black"/>',
        *over,
        "</svg>",
    ])


def rsos_svg(path: RsosPath) -> str:
    top = path.p_prime - 1
    bands = []
    for y in sorted(rs.dark_floors(path.p, path.p_prime)):
        x0, y1 = _xy(top, 0, y + 1)
        bands.append(f'<rect x="{x0}" y="{y1}" width="{path.horizon * _UNIT}" '
                     f'height="{_UNIT}" fill="#d8d8d8"/>')
    hs = path.heights
    circles = []
    for x in path._scan[1]:
        cx, cy = _xy(top, x, hs[x])
        fill = "white" if hs[x - 1] < hs[x] else "black"
        circles.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{fill}" stroke="black"/>')
    return _svg(top, hs, bands, circles)


def half_svg(path: HalfPath, baselines: bool = False) -> str:
    lines = []
    for p in dissect(path).particles if baselines else ():
        x0, y = _xy(path.t2, p.origin, p.base_h)
        x1, _ = _xy(path.t2, p.origin + p.length, p.base_h)
        lines.append(f'<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" '
                     'stroke="gray" stroke-dasharray="3 2"/>')
    return _svg(path.t2, path.doubled, [], lines)
