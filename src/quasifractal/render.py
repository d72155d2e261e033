"""SVG and Wavefront OBJ emitters.

Rendered formats are for viewers, so coordinates are written as decimals
with 12 significant digits (exactness lives in the JSON documents, not
here). The SVG uses a small SVG 1.1 subset: path, rect, polyline, text.
The y axis is flipped at emission time so the output reads the usual
math way (y up) while staying plain SVG.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import numpy as np

from .cantor import Stage2
from .errors import CapacityError, UnsupportedGeometryError
from .geometry import BoxCells, LatticeTable, Loop, Point2, lattice_group, to_lattice
from .planar import CARPET, PieceSet, arrange, base_cell
from .spatial import Stage3
from .topology import HoleSet, index_vector

# birth-level color ramp for removed pieces
_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)
_KEPT_FILL = "#e8e8e8"
_STROKE = "#222222"


def fmt(value) -> str:
    """Decimal with 12 significant digits."""
    return f"{float(value):.12g}"


def _level_color(level: int) -> str:
    return _PALETTE[(level - 1) % len(_PALETTE)]


class _Canvas:
    """Collects drawing elements, then emits SVG with a flipped y axis.

    Each drawing method records the element's points, which set the
    bounds, and a formatter `(fy, scale) -> str` that writes the element
    once `emit` knows the y flip `fy` and the stroke scale. Callers pass
    point tuples: a generator would be consumed twice. Blocks on the
    integer lattice (`BoxCells` squares, `lattice_group` rings, the rows
    of stage segments, loop labels) record the corners of their integer
    bounding box and write one line per item, with one `fmt` per distinct
    value and per distinct flipped y.
    """

    def __init__(self):
        self._points: list[Point2] = []
        self._elements: list = []

    def _bound(self, lcm: int, xs, ys) -> None:
        """Record the corners of the bounding box of lattice ints xs and ys."""
        self._points += (Point2(Fraction(min(xs), lcm), Fraction(min(ys), lcm)),)
        self._points += (Point2(Fraction(max(xs), lcm), Fraction(max(ys), lcm)),)

    def _lattice(self, lcm: int, lines) -> None:
        """Write a lattice block: lines(x, y, scale) makes its lines, where x
        and y give the text of a lattice value and of a lattice y flipped."""

        def element(fy, scale):
            x = LatticeTable(lambda v: fmt(v / lcm))
            y = LatticeTable(lambda v: fmt(fy(Fraction(v, lcm))))
            return "\n".join(lines(x, y, scale))

        self._elements.append(element)

    def squares(self, cells: BoxCells, fill: str):
        """Square cells, each a rect from its corner and side."""
        if not len(cells):
            return
        template = '<rect x="%s" y="%s" width="%s" height="%s" fill="' + fill + '"/>'
        xs, ys, sides = cells.corners[:, 0], cells.corners[:, 1], cells.sides
        tops = ys + sides
        self._bound(cells.lcm, (int(xs.min()), int((xs + sides).max())), (int(ys.min()), int(tops.max())))

        def lines(x, y, scale):
            side = x.column(sides)
            return [template % row for row in zip(x.column(xs), y.column(tops), side, side)]

        self._lattice(cells.lcm, lines)

    def polygons(self, lcm: int, groups: dict, fills: list[str]):
        """Rings of lattice points, as groups in the `lattice_group` layout, with a fill per ring."""
        if not groups:
            return
        for _, xs, ys in groups.values():
            self._bound(lcm, (int(xs.min()), int(xs.max())), (int(ys.min()), int(ys.max())))

        def rows(members, xs, ys, x, y):
            template = '<path d="M ' + " L ".join(["%s %s"] * len(xs)) + ' Z" fill="%s"/>'
            columns = [text for row in zip(xs, ys) for text in (x.column(row[0]), y.column(row[1]))]
            return [template % row for row in zip(*columns, [fills[i] for i in members])]

        self._lattice(lcm, lambda x, y, scale: arrange(groups, lambda *group: rows(*group, x, y)))

    def segments(self, lcm: int, grid, stroke: str, width_frac: float):
        """Segments of lattice points, an (n, 2, 2) array of rows (p, q), one two-point polyline each."""
        if not len(grid):
            return
        xs, ys = grid[:, :, 0], grid[:, :, 1]
        self._bound(lcm, (int(xs.min()), int(xs.max())), (int(ys.min()), int(ys.max())))

        def lines(x, y, scale):
            template = (
                '<polyline points="%s,%s %s,%s" fill="none" stroke="' + stroke
                + '" stroke-width="' + fmt(width_frac * scale) + '" stroke-linecap="square"/>'
            )
            columns = x.column(xs[:, 0]), y.column(ys[:, 0]), x.column(xs[:, 1]), y.column(ys[:, 1])
            return [template % row for row in zip(*columns)]

        self._lattice(lcm, lines)

    def labels(self, points, texts, size_frac: float):
        """Texts centred at points, put on the lattice of their denominators."""
        if not points:
            return
        lcm, ints = to_lattice([c for p in points for c in p])
        xs, ys = ints[0::2], ints[1::2]
        self._bound(lcm, xs, ys)

        def lines(x, y, scale):
            template = (
                '<text x="%s" y="%s" font-size="' + fmt(size_frac * scale)
                + '" font-family="sans-serif" text-anchor="middle">%s</text>'
            )
            return [template % (x[u], y[v], text) for u, v, text in zip(xs, ys, texts)]

        self._lattice(lcm, lines)

    def polyline(self, points, stroke: str, width_frac: float = 0.004):
        self._points += points

        def element(fy, scale):
            pts = " ".join(f"{fmt(p.x)},{fmt(fy(p.y))}" for p in points)
            return (
                f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                f'stroke-width="{fmt(width_frac * scale)}" stroke-linecap="square"/>'
            )

        self._elements.append(element)

    def emit(self) -> str:
        if self._points:
            xs = [p.x for p in self._points]
            ys = [p.y for p in self._points]
            xmin, xmax = min(xs), max(xs)
            ymin, ymax = min(ys), max(ys)
        else:
            xmin = ymin = Fraction(0)
            xmax = ymax = Fraction(1)
        span = max(xmax - xmin, ymax - ymin, Fraction(1, 1000))
        margin = span * Fraction(5, 100)
        flip = ymin + ymax

        def fy(y):
            return flip - y

        width = xmax - xmin + 2 * margin
        height = ymax - ymin + 2 * margin
        view = f"{fmt(xmin - margin)} {fmt(ymin - margin)} {fmt(width)} {fmt(height)}"
        scale = float(span)
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" '
            f'width="640" height="640">',
            *(element(fy, scale) for element in self._elements),
            "</svg>",
        ]
        return "\n".join(out) + "\n"


def _draw_stage2(canvas: _Canvas, stage: Stage2) -> None:
    canvas.squares(stage.cells, fill=_KEPT_FILL)
    canvas.segments(stage.cells.lcm, stage.segments.grid, stroke=_STROKE, width_frac=0.002)


def _draw_pieces(canvas: _Canvas, ps: PieceSet) -> None:
    kept, removed = ps.kept, ps.removed
    if ps.kind == CARPET:
        canvas.squares(kept, fill=_KEPT_FILL)
    else:
        canvas.polygons(kept.lcm, lattice_group(kept.vertices), [_KEPT_FILL] * len(kept))
    canvas.polygons(removed.lcm, removed.groups, [_level_color(birth) for birth in removed.births])
    (outer,) = base_cell(ps.kind).faces()
    canvas.polyline(outer + (outer[0],), stroke=_STROKE, width_frac=0.002)


def render_svg(
    obj: Union[Stage2, PieceSet],
    loop: Loop | None = None,
    holes: HoleSet | None = None,
) -> str:
    """Render a planar stage or piece set, with an optional indexed loop overlay.

    When both `loop` and `holes` are given, each hole representative is
    labeled with the loop's winding entry there, so the overlay displays
    the full index vector in place.
    """
    canvas = _Canvas()
    if isinstance(obj, Stage2):
        _draw_stage2(canvas, obj)
    elif isinstance(obj, PieceSet):
        _draw_pieces(canvas, obj)
    elif isinstance(obj, Stage3):
        raise UnsupportedGeometryError("3D stages render to OBJ, not SVG")
    else:
        raise UnsupportedGeometryError(f"cannot render {type(obj).__name__} to SVG")
    if loop is not None:
        closed = loop.vertices + (loop.vertices[0],)
        canvas.polyline(closed, stroke="#d62728", width_frac=0.006)
        if holes is not None:
            entries = index_vector(loop, holes)
            canvas.labels(holes.representatives, list(map(str, entries)), size_frac=0.05)
    try:
        return canvas.emit()
    except OverflowError as exc:
        raise CapacityError(f"coordinate beyond the float range: {exc}") from exc


def export_obj(stage: Stage3) -> str:
    """Wavefront OBJ for a 3D stage: skeleton as `l` records, faces as `f`.

    Vertices are deduplicated by exact coordinates (first occurrence wins,
    iterating the sorted skeleton then the pieces), so output is stable.
    Faces are intentionally not deduplicated: overlapping faces from
    different birth levels are distinct pieces.
    """
    skeleton, rings = stage.skeleton.grid, stage.pieces.rings
    points = np.concatenate((skeleton.reshape(-1, 3), rings.reshape(-1, 3))).tolist()
    vertex_ids: dict = {}  # OBJ indices are 1-based
    ids = [vertex_ids.setdefault(point, len(vertex_ids) + 1) for point in map(tuple, points)]
    lines = list(zip(ids[0 : 2 * len(skeleton) : 2], ids[1 : 2 * len(skeleton) : 2]))
    k = rings.shape[1]
    faces = [ids[i : i + k] for i in range(2 * len(skeleton), len(ids), k)]
    out = [
        f"# quasifractal {stage.variant.kind} stage, level {stage.level}",
        f"# vertices: {len(vertex_ids)}",
        f"# lines: {len(lines)}",
        f"# faces: {len(faces)}",
    ]
    lcm = stage.skeleton.lcm
    value = LatticeTable(lambda v: fmt(v / lcm))
    try:
        out += ["v %s %s %s" % tuple(map(value.__getitem__, vertex)) for vertex in vertex_ids]
    except OverflowError as exc:
        raise CapacityError(f"coordinate beyond the float range: {exc}") from exc
    out += ["l %d %d" % (a, b) for a, b in lines]
    out += ["f " + " ".join(map(str, face)) for face in faces]
    return "\n".join(out) + "\n"
