"""Shared test helpers: independent oracles and random geometry generators."""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

import numpy as np

from quasifractal import toeplitz
from quasifractal.errors import (
    IndeterminateWindingError,
    MalformedLoopError,
    NotFredholmError,
    NumericalError,
    ParameterError,
    SamplingFailureError,
    UnsupportedGeometryError,
)
from quasifractal.geometry import BoxCells, Cell, Loop, Point2, Point3, Segment, Segments, Simplex, Simplices
from quasifractal.geometry import area_vector, ring_edges, signed_area, to_lattice
from quasifractal.geometry import distinct_segments, split_boxes, split_simplices
from quasifractal.planar import CARPET, AreaAccount, Piece, Pieces, PieceSet
from quasifractal.spatial import CUBE_WIREFRAME, Face3, Faces, Stage3
from quasifractal.topology import HoleSet, centroid

F = Fraction


def pt(x, y) -> Point2:
    return Point2(F(x), F(y))


def square_loop(x, y, side) -> Loop:
    x, y, side = F(x), F(y), F(side)
    return Loop((pt(x, y), pt(x + side, y), pt(x + side, y + side), pt(x, y + side)))


def cross2(o: Point2, a: Point2, b: Point2) -> Fraction:
    """Cross product of (a - o) and (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (b.x - o.x) * (a.y - o.y)


def crossing_oracle(loop: Loop, p: Point2) -> int:
    """Exact winding number of the loop about p, one Fraction edge at a time.

    Signed crossings of the horizontal ray from p toward +x, with the
    half-open vertex rule (an edge is counted only while it strictly
    straddles the ray line), so vertices on the ray need no perturbation.
    Raises IndeterminateWindingError, with `winding_numbers`' message, if
    p lies on the loop. Independent of the integer lattice.
    """
    px, py = p.x, p.y
    winding = 0
    for a, b in loop.edges():
        c = cross2(a, b, p)
        # p is on the edge iff it is collinear with it and inside its box
        if c == 0 and min(a.x, b.x) <= px <= max(a.x, b.x) and min(a.y, b.y) <= py <= max(a.y, b.y):
            raise IndeterminateWindingError(f"point {p} lies on the loop")
        if a.y <= py:
            if b.y > py and c > 0:
                winding += 1
        elif b.y <= py and c < 0:
            winding -= 1
    return winding


def winding_oracle(loop: Loop, p: Point2) -> int:
    """Floating-point angle summation, independent of the crossing counter."""
    total = 0.0
    rel = [(float(v.x - p.x), float(v.y - p.y)) for v in loop.vertices]
    n = len(rel)
    for i in range(n):
        x1, y1 = rel[i]
        x2, y2 = rel[(i + 1) % n]
        total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    assert abs(turns - nearest) < 1e-6, f"angle sum {turns} is not near an integer"
    return int(nearest)


def on_segment(p, a, b) -> bool:
    """Exact test for p lying on the closed segment from a to b."""
    d = tuple(bi - ai for ai, bi in zip(a, b))
    r = tuple(pi - ai for ai, pi in zip(a, p))
    # collinearity: r x d = 0 componentwise (2D reduces to one term)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if r[i] * d[j] - r[j] * d[i] != 0:
                return False
    dot = sum(ri * di for ri, di in zip(r, d))
    return 0 <= dot <= sum(di * di for di in d)


def lattice_ints(values, lcm: int) -> list:
    """Fractions (nested in lists or tuples) times D, as Python ints."""
    if isinstance(values, (list, tuple)):
        return [lattice_ints(v, lcm) for v in values]
    scaled = values * lcm
    assert scaled.denominator == 1
    return int(scaled)


def segments_on_lattice(segments, lcm: int) -> Segments:
    """Fraction segments times D = lcm (`lattice_ints`) as a `Segments`
    view, each segment once."""
    rows = lattice_ints([list(map(list, s)) for s in segments], lcm)
    return Segments(lcm, distinct_segments(np.array(rows, dtype=object).reshape(len(rows), 2, -1)))


def planar_views(squares, triangles, removed) -> tuple:
    """Hand-made squares, triangles and pieces as `BoxCells`, `Simplices`
    and `Pieces` on the lattice of all their denominators (`to_lattice`),
    their points times D as Python ints."""
    rings = [list(piece.boundary.vertices) for piece in removed]
    corners, sides = [list(cell.corner) for cell in squares], [cell.side for cell in squares]
    vertices = [list(cell.vertices) for cell in triangles]
    lcm, _ = to_lattice([c for ring in rings + vertices + [corners] for p in ring for c in p] + sides)
    pieces = Pieces.of(lcm, [(ring, p.birth_level, p.label) for ring, p in zip(lattice_ints(rings, lcm), removed)])
    cells = BoxCells(lcm, (), *(np.array(lattice_ints(v, lcm), dtype=object) for v in (corners, sides)))
    simplices = Simplices(lcm, (), np.array(lattice_ints(vertices, lcm), dtype=object))
    assert (list(cells), list(simplices), list(pieces)) == (squares, triangles, removed)
    return cells, simplices, pieces


def on_lattice_of(index, *points) -> list[tuple]:
    """Points as a `SegmentIndex` takes them: their coordinates times its D."""
    return [tuple(c * index.lcm for c in p) for p in points]


def union_length_oracle(segments) -> Fraction:
    """Brute-force union measure: per carrier, sweep elementary gaps.

    Groups axis-parallel segments by carrier, cuts the line at every
    endpoint, and adds up each elementary gap covered by at least one
    segment. Independent of the production interval-merge code.
    """
    carriers: dict = {}
    for seg in segments:
        a, b = seg
        axis = next(i for i in range(len(a)) if a[i] != b[i])
        key = (axis,) + tuple(c for i, c in enumerate(a) if i != axis)
        lo, hi = min(a[axis], b[axis]), max(a[axis], b[axis])
        carriers.setdefault(key, []).append((lo, hi))
    total = F(0)
    for intervals in carriers.values():
        cuts = sorted({c for pair in intervals for c in pair})
        for left, right in zip(cuts, cuts[1:]):
            if any(lo <= left and right <= hi for lo, hi in intervals):
                total += right - left
    return total


def area_accounting_oracle(ps: PieceSet) -> AreaAccount:
    """`planar.area_accounting` as one Fraction per cell and per piece.

    Independent of the integer lattice: each kept carpet cell adds side²,
    each kept gasket cell half its `cross2`, each removed piece its
    `signed_area`, and every addition normalises by a gcd.
    """
    if ps.kind == CARPET:
        kept_area = sum((cell.side * cell.side for cell in ps.kept), F(0))
    else:
        kept_area = sum((cross2(*cell.vertices) / 2 for cell in ps.kept), F(0))
    removed_area = sum((piece.area for piece in ps.removed), F(0))
    return AreaAccount(kept_area=kept_area, removed_area=removed_area)


def midpoint(p, q):
    """The exact midpoint of two points, a point of their type."""
    return type(p)(*[(a + b) / 2 for a, b in zip(p, q)])


# Child letter k of a box takes the near (0) or far (1) side of the parent in
# each coordinate: SW, SE, NE, NW in the plane, and in space bit i of k for
# coordinate i. Written out here, not read from `geometry`, so that a wrong
# table entry there shows against this one.
_CORNER_CHILDREN = {
    2: ((0, 0), (1, 0), (1, 1), (0, 1)),
    3: ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
}


def simplex_children(vertices) -> list[tuple]:
    """The half-scale corner copies of a triangle or tetrahedron: child i
    keeps vertex i in place i and puts the midpoint of the edge to vertex j
    in place j; each edge midpoint is computed once."""
    n = len(vertices)
    mids = {(i, j): midpoint(vertices[i], vertices[j]) for i, j in combinations(range(n), 2)}
    return [tuple(vertices[i] if i == j else mids[min(i, j), max(i, j)] for j in range(n)) for i in range(n)]


def cell_children(cell, a=None) -> tuple:
    """The corner children of a `Cell` for scale factor a, or of a
    `Simplex`, in letter order, one Fraction per coordinate: a box child has
    side a * s and its corner on the near or far side of the parent's,
    shifted by s - a * s; a simplex child is `simplex_children`'s."""
    if isinstance(cell, Simplex):
        return tuple(Simplex(cell.address + str(i), v) for i, v in enumerate(simplex_children(cell.vertices)))
    side = cell.side * a
    shift = cell.side - side
    ends = [(c, c + shift) for c in cell.corner]
    point = type(cell.corner)
    return tuple(
        Cell(cell.address + str(k), point(*[end[o] for end, o in zip(ends, offsets)]), side)
        for k, offsets in enumerate(_CORNER_CHILDREN[len(ends)])
    )


def split_cell(cell, a=None) -> list:
    """The children of one `Cell` or `Simplex` by the array step, `split_boxes`
    or `split_simplices`, on the lattice of the cell's denominators
    (`to_lattice`), as Python ints."""
    if isinstance(cell, Simplex):
        lcm, ints = to_lattice([c for v in cell.vertices for c in v])
        children = split_simplices(np.array(ints, dtype=object).reshape(1, len(cell.vertices), -1))
        return list(Simplices(2 * lcm, [cell.address + str(i) for i in range(len(children))], children))
    lcm, (*corner, side) = to_lattice([*cell.corner, cell.side])
    corners, sides = split_boxes(np.array([corner], dtype=object), np.array([side], dtype=object), a)
    addresses = [cell.address + str(k) for k in range(len(sides))]
    return list(BoxCells(lcm * a.denominator, addresses, corners, sides))


def _carpet_children(cell: Cell):
    third = cell.side / 3
    x0, y0 = cell.corner.x, cell.corner.y
    xs = (x0, x0 + third, x0 + third + third)
    ys = (y0, y0 + third, y0 + third + third)
    kept = [Cell("", Point2(x, y), third) for y in ys for x in xs]
    centre = kept.pop(4)
    return kept, [Loop(*centre.faces())]


def _gasket_children(cell: Simplex):
    corners = simplex_children(cell.vertices)
    # the middle triangle's vertices are the midpoints m01, m12, m02
    removed = [Loop((corners[0][1], corners[1][2], corners[0][2]))]
    return [Simplex("", verts) for verts in corners], removed


def base_cell_oracle(kind: str):
    """The level-0 cell: the unit square, or the triangle (0,0), (1,0), (1/2,1)."""
    if kind == CARPET:
        return Cell("", pt(0, 0), F(1))
    return Simplex("", (pt(0, 0), pt(1, 0), pt(F(1, 2), 1)))


def build_planar_oracle(kind: str, depth: int) -> tuple[list, list]:
    """`planar.build_planar` as one `Fraction` object per coordinate: the
    kept cells and removed pieces, subdivided cell by cell."""
    subdivide = _carpet_children if kind == CARPET else _gasket_children
    kept: list = [base_cell_oracle(kind)]
    removed: list[Piece] = []
    for level in range(1, depth + 1):
        parents, kept = kept, []
        new_loops: list[Loop] = []
        for cell in parents:
            children, loops = subdivide(cell)
            kept.extend(children)
            new_loops.extend(loops)
        removed.extend(Piece(loop, level, f"{level}:{i}") for i, loop in enumerate(new_loops))
    return kept, removed


def pieces_document_oracle(kind: str, level: int, kept, removed, measures=None) -> dict:
    """The piece document of cell and piece objects as plain JSON data."""

    def point(p):
        return [str(c) for c in p]

    if kind == CARPET:
        kept_json = [{"corner": point(c.corner), "side": str(c.side)} for c in kept]
    else:
        kept_json = [{"vertices": [point(v) for v in c.vertices]} for c in kept]
    doc = {
        "schema_version": 1,
        "kind": kind,
        "level": level,
        "kept": kept_json,
        "removed": [
            {
                "boundary": [point(v) for v in piece.boundary.vertices],
                "birth_level": piece.birth_level,
                "label": piece.label,
            }
            for piece in removed
        ],
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


def pieces_from_document_oracle(doc: dict) -> tuple[list, list]:
    """The kept cells and removed pieces of a piece document, one Fraction per coordinate."""

    def point(data) -> Point2:
        return Point2(*[F(c) for c in data])

    if doc["kind"] == CARPET:
        kept = [Cell("", point(c["corner"]), F(c["side"])) for c in doc["kept"]]
    else:
        kept = [Simplex("", tuple(map(point, c["vertices"]))) for c in doc["kept"]]
    removed = [
        Piece(Loop(tuple(map(point, r["boundary"]))), r["birth_level"], r["label"])
        for r in doc["removed"]
    ]
    return kept, removed


def svg_oracle(kind: str, kept, removed, loop=None, entries=(), reps=()) -> str:
    """`render.render_svg` of cell and piece objects, one `Fraction` per
    coordinate: bounds by Fraction min and max, each coordinate written
    through `float`, in the same element order and layout."""
    palette = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f")
    palette += ("#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")

    def fmt(value) -> str:
        return f"{float(value):.12g}"

    (outer,) = base_cell_oracle(kind).faces()
    closed = loop.vertices + loop.vertices[:1] if loop is not None else ()
    points = [*outer, *closed, *reps]
    for cell in kept:
        if kind == CARPET:
            points += [cell.corner, cell.corner + Point2(cell.side, cell.side)]
        else:
            points += cell.vertices
    for piece in removed:
        points += piece.boundary.vertices
    xmin, xmax = min(p.x for p in points), max(p.x for p in points)
    ymin, ymax = min(p.y for p in points), max(p.y for p in points)
    span = max(xmax - xmin, ymax - ymin, F(1, 1000))
    margin = span / 20
    flip = ymin + ymax
    scale = float(span)

    def path(vertices, fill):
        d = " L ".join(f"{fmt(v.x)} {fmt(flip - v.y)}" for v in vertices)
        return f'<path d="M {d} Z" fill="{fill}"/>'

    def polyline(vertices, stroke, width):
        pts = " ".join(f"{fmt(v.x)},{fmt(flip - v.y)}" for v in vertices)
        return (
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{fmt(width * scale)}" stroke-linecap="square"/>'
        )

    view = f"{fmt(xmin - margin)} {fmt(ymin - margin)} "
    view += f"{fmt(xmax - xmin + 2 * margin)} {fmt(ymax - ymin + 2 * margin)}"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" width="640" height="640">',
    ]
    for cell in kept:
        if kind == CARPET:
            x, y, s = cell.corner.x, cell.corner.y, cell.side
            out.append(
                f'<rect x="{fmt(x)}" y="{fmt(flip - y - s)}" width="{fmt(s)}" height="{fmt(s)}" fill="#e8e8e8"/>'
            )
        else:
            out.append(path(cell.vertices, "#e8e8e8"))
    for piece in removed:
        out.append(path(piece.boundary.vertices, palette[(piece.birth_level - 1) % len(palette)]))
    out.append(polyline(outer + outer[:1], "#222222", 0.002))
    if loop is not None:
        out.append(polyline(closed, "#d62728", 0.006))
    for rep, entry in zip(reps, entries):
        out.append(
            f'<text x="{fmt(rep.x)}" y="{fmt(flip - rep.y)}" font-size="{fmt(0.05 * scale)}" '
            f'font-family="sans-serif" text-anchor="middle">{entry}</text>'
        )
    return "\n".join(out + ["</svg>"]) + "\n"


def hole_set_oracle(pieces) -> HoleSet:
    """`topology.HoleSet.from_pieces` as one Fraction centroid, one
    `signed_area` and one `crossing_oracle` per piece.

    Independent of the integer lattice: a zero-area ring raises
    MalformedLoopError, and a centroid on the ring or outside it raises
    ParameterError, for the first bad piece in order.
    """
    reps: list[Point2] = []
    labels: list[str] = []
    for piece in pieces:
        rep = centroid(piece.boundary)
        if signed_area(piece.boundary) == 0:
            raise MalformedLoopError("degenerate loop has no interior")
        try:
            inside = crossing_oracle(piece.boundary, rep) != 0
        except IndeterminateWindingError:
            inside = False
        if not inside:
            raise ParameterError(f"centroid of piece {piece.label} is not interior")
        reps.append(rep)
        labels.append(piece.label)
    return HoleSet(tuple(reps), tuple(labels))


def pairwise_components(segments) -> int:
    """Brute-force segment_components: test every pair for endpoint-on-segment.

    Independent of the carrier-line index: O(n^2) exact `on_segment` tests,
    then a graph search over the adjacency they define.
    """
    segments = list(segments)
    n = len(segments)
    adjacency = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            s, t = segments[i], segments[j]
            if (
                on_segment(s.a, t.a, t.b)
                or on_segment(s.b, t.a, t.b)
                or on_segment(t.a, s.a, s.b)
                or on_segment(t.b, s.a, s.b)
            ):
                adjacency[i].add(j)
                adjacency[j].add(i)
    components = 0
    todo = set(range(n))
    while todo:
        components += 1
        stack = [todo.pop()]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor in todo:
                    todo.remove(neighbor)
                    stack.append(neighbor)
    return components


def convex_loop(rng, span: int = 12, points: int = 8) -> Loop:
    """Random CCW convex polygon with integer vertices (monotone chain)."""
    while True:
        raw = {(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(points)}
        hull = _hull(sorted(raw))
        if len(hull) >= 3:
            return Loop(tuple(pt(x, y) for x, y in hull))


def star_loop(rng, span: int = 12, points: int = 9) -> Loop:
    """Random simple CCW polygon with integer vertices, usually concave.

    The vertices are sorted by angle about the origin; a draw in which two
    of them share a direction, or two angular neighbours are pi or more
    apart, is redrawn. What is left is star-shaped about the origin and
    therefore simple.
    """
    while True:
        raw = {(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(points)}
        ring = sorted(raw - {(0, 0)}, key=lambda v: math.atan2(v[1], v[0]))
        turns = zip(ring, ring[1:] + ring[:1])
        if len(ring) >= 3 and all(ax * by - ay * bx > 0 for (ax, ay), (bx, by) in turns):
            return Loop(tuple(pt(x, y) for x, y in ring))


# Denominators prime to 6: carpet and gasket hole representatives have
# denominators 2 * 3^k and 3 * 2^k and lie inside the unit square, so no
# coordinate drawn over these equals one of theirs.
QUERY_DENOMINATORS = (5, 7, 11, 13, 25, 35, 49, 55, 77)


def query_loop(rng, rectangle: bool, reps=()) -> Loop:
    """A loop like the benchmark's query loops, in either orientation.

    Vertices have coordinates in [-1/5, 6/5] over `QUERY_DENOMINATORS`. A
    rectangle is axis-parallel, so it passes through no representative; a
    convex loop (the hull of 8 draws) through one of `reps` is redrawn.
    """
    def coordinate():
        q = rng.choice(QUERY_DENOMINATORS)
        return F(rng.randint(-q // 5, 6 * q // 5), q)

    while True:
        if rectangle:
            x0, x1 = sorted(coordinate() for _ in range(2))
            y0, y1 = sorted(coordinate() for _ in range(2))
            if x0 == x1 or y0 == y1:
                continue
            ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        else:
            ring = _hull(sorted({(coordinate(), coordinate()) for _ in range(8)}))
            if len(ring) < 3:
                continue
        if rng.random() < 0.5:
            ring.reverse()
        loop = Loop(tuple(Point2(x, y) for x, y in ring))
        if not any(on_segment(p, a, b) for p in reps for a, b in loop.edges()):
            return loop


def _hull(pts):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    if len(pts) < 3:
        return []
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def random_point_off_loop(rng, loop: Loop, span: int = 30) -> Point2:
    while True:
        p = pt(F(rng.randint(-4 * span, 4 * span), 4), F(rng.randint(-4 * span, 4 * span), 4))
        if not any(on_segment(p, a, b) for a, b in loop.edges()):
            return p


def segments_of_loop(loop: Loop):
    verts = loop.vertices
    n = len(verts)
    return [Segment(verts[i], verts[(i + 1) % n]) for i in range(n)]


# ------------------------------------------------- skeleton stage oracles


def stage3_on_lattice(stage: Stage3, lcm: int, skeleton=None, faces=()) -> Stage3:
    """`stage` on the finer lattice of D = lcm, its arrays scaled up, with
    `skeleton`, Fraction segments, in place of its own when given
    (`segments_on_lattice`), and `faces`, `Face3`s of Fraction points,
    after its pieces, their points times D (`lattice_ints`)."""
    k, rest = divmod(lcm, stage.cells.lcm)
    assert rest == 0
    cells, pieces = stage.cells, stage.pieces
    if isinstance(cells, BoxCells):
        cells = BoxCells(lcm, cells.addresses, cells.corners * k, cells.sides * k)
    else:
        cells = Simplices(lcm, cells.addresses, cells.vertices * k)
    skeleton = Segments(lcm, stage.skeleton.grid * k) if skeleton is None else segments_on_lattice(skeleton, lcm)
    rings = np.array(lattice_ints([list(f.boundary) for f in faces], lcm), dtype=object)
    rings = rings.reshape(-1, *pieces.rings.shape[1:])
    areas = [int(f.area_sq * 4 * lcm**4) for f in faces]
    return Stage3(
        stage.variant,
        stage.level,
        cells,
        skeleton,
        Faces(
            lcm,
            np.concatenate((pieces.rings.astype(object) * k, rings)),
            np.append(pieces.births, [f.birth_level for f in faces]).astype(np.int64),
            np.append(pieces.areas.astype(object) * k**4, areas),
        ),
    )


def face3_oracle(boundary, birth_level: int) -> Face3:
    """A face of Fraction points with its squared area from `area_vector`."""
    ax, ay, az = area_vector(boundary)
    return Face3(tuple(boundary), birth_level, ax * ax + ay * ay + az * az)


def build_stage2_oracle(a, depth: int) -> tuple[list, set]:
    """`cantor.build` as one `Fraction` object per coordinate: the level-depth
    cells and every level's edge segments, split cell by cell."""
    cells = [Cell("", pt(0, 0), F(1))]
    segments = set(cells[0].edge_segments())
    for _ in range(depth):
        cells = [child for cell in cells for child in cell_children(cell, a)]
        for cell in cells:
            segments.update(cell.edge_segments())
    return cells, segments


_TETRA = (Point3(F(0), F(0), F(0)), Point3(F(1), F(0), F(0)), Point3(F(0), F(1), F(0)), Point3(F(0), F(0), F(1)))


def build_spatial_oracle(variant, depth: int) -> tuple[list, set, list]:
    """`spatial.build_spatial` as one `Fraction` object per coordinate: the
    level-depth cells, the skeleton set and the faces of every level."""
    cube = variant.kind == CUBE_WIREFRAME
    cells: list = [Cell("", Point3(F(0), F(0), F(0)), F(1)) if cube else Simplex("", _TETRA)]
    skeleton = set(cells[0].edge_segments())
    faces = [face3_oracle(ring, 0) for ring in cells[0].faces()]
    for level in range(1, depth + 1):
        cells = [child for cell in cells for child in cell_children(cell, variant.a)]
        for cell in cells:
            skeleton.update(cell.edge_segments())
            faces += [face3_oracle(ring, level) for ring in cell.faces()]
    return cells, skeleton, faces


def line_key_oracle(p, q):
    """Canonical (direction, base-point) key for the line through p and q, in Fractions.

    The direction is scaled so its first nonzero component is 1, and the
    base point is the point on the line whose pivot coordinate is 0. Two
    segments are collinear iff their keys are equal; the pivot coordinate
    of a point then serves as its 1D parameter along the line.
    """
    d = tuple(qi - pi for pi, qi in zip(p, q))
    pivot = next(i for i, di in enumerate(d) if di)
    u = tuple(F(di) / d[pivot] for di in d)
    return line_through_oracle(p, u, pivot), pivot


def line_through_oracle(p, u: tuple, pivot: int):
    """Key of the line in direction u through p."""
    t = p[pivot]
    return (u, tuple(F(pi) - t * ui for pi, ui in zip(p, u)))


def carrier_lines_oracle(segments) -> dict:
    """Segments grouped by `line_key_oracle`: line key -> the sorted
    intervals of their pivot coordinates."""
    lines: dict = {}
    for s in segments:
        key, pivot = line_key_oracle(s.a, s.b)
        lines.setdefault(key, []).append((s.a[pivot], s.b[pivot]))
    for intervals in lines.values():
        intervals.sort()
    return lines


def covers_oracle(lines: dict, p, q) -> bool:
    """Whether segment pq lies in the union of the collinear segments of
    `carrier_lines_oracle`, by a sweep over the intervals of its line."""
    key, pivot = line_key_oracle(p, q)
    lo, hi = sorted((p[pivot], q[pivot]))
    reach = lo  # the sweep moves it past lo only through an interval that contains lo
    for start, end in lines.get(key, ()):
        if start <= reach:
            reach = max(reach, end)
    return reach >= hi


def incidence_oracle(skeleton, faces) -> int:
    """`spatial.boundary_incidence` over Fraction segments and faces."""
    lines = carrier_lines_oracle(skeleton)
    return sum(not covers_oracle(lines, p, q) for face in faces for p, q in ring_edges(face.boundary))


def stage_document_oracle(kind: str, params: dict, level: int, cells, segments, faces=None, measures=None) -> dict:
    """A cantor2d or spatial stage document of Fraction objects as plain JSON data."""

    def point(p):
        return [str(c) for c in p]

    if isinstance(cells[0], Cell):
        cells_json = [{"address": c.address, "corner": point(c.corner), "side": str(c.side)} for c in cells]
    else:
        cells_json = [{"address": c.address, "vertices": [point(v) for v in c.vertices]} for c in cells]
    doc = {"schema_version": 1, "kind": kind, "params": params, "level": level, "cells": cells_json}
    lines = [[point(s.a), point(s.b)] for s in sorted(segments)]
    if faces is None:
        doc["segments"] = lines
    else:
        doc["skeleton"] = lines
        doc["pieces"] = [
            {"boundary": [point(v) for v in f.boundary], "birth_level": f.birth_level, "area_sq": str(f.area_sq)}
            for f in faces
        ]
    if measures is not None:
        doc["measures"] = measures
    return doc


def stage2_svg_oracle(cells, segments) -> str:
    """`render.render_svg` of a Cantor stage's Fraction cells and segments:
    bounds by Fraction min and max, each coordinate written through `float`."""

    def fmt(value) -> str:
        return f"{float(value):.12g}"

    points = [p for c in cells for p in (c.corner, c.corner + Point2(c.side, c.side))]
    points += [p for s in segments for p in s]
    xmin, xmax = min(p.x for p in points), max(p.x for p in points)
    ymin, ymax = min(p.y for p in points), max(p.y for p in points)
    span = max(xmax - xmin, ymax - ymin, F(1, 1000))
    margin = span / 20
    flip = ymin + ymax
    view = f"{fmt(xmin - margin)} {fmt(ymin - margin)} "
    view += f"{fmt(xmax - xmin + 2 * margin)} {fmt(ymax - ymin + 2 * margin)}"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" width="640" height="640">',
    ]
    for c in cells:
        x, y, s = c.corner.x, c.corner.y, c.side
        out.append(f'<rect x="{fmt(x)}" y="{fmt(flip - y - s)}" width="{fmt(s)}" height="{fmt(s)}" fill="#e8e8e8"/>')
    for a, b in sorted(segments):
        out.append(
            f'<polyline points="{fmt(a.x)},{fmt(flip - a.y)} {fmt(b.x)},{fmt(flip - b.y)}" fill="none" '
            f'stroke="#222222" stroke-width="{fmt(0.002 * float(span))}" stroke-linecap="square"/>'
        )
    return "\n".join(out + ["</svg>"]) + "\n"


def obj_oracle(kind: str, level: int, skeleton, faces) -> str:
    """`render.export_obj` of Fraction segments and faces: vertices by first
    occurrence over the sorted skeleton, then the faces."""
    ids: dict = {}
    for p in [p for s in sorted(skeleton) for p in s] + [v for f in faces for v in f.boundary]:
        ids.setdefault(p, len(ids) + 1)
    out = [f"# quasifractal {kind} stage, level {level}", f"# vertices: {len(ids)}"]
    out += [f"# lines: {len(skeleton)}", f"# faces: {len(faces)}"]
    out += ["v " + " ".join(f"{float(c):.12g}" for c in p) for p in ids]
    out += [f"l {ids[s.a]} {ids[s.b]}" for s in sorted(skeleton)]
    out += ["f " + " ".join(str(ids[v]) for v in f.boundary) for f in faces]
    return "\n".join(out) + "\n"


def random_symbol_oracle(rng):
    """One `toeplitz.random_symbol` draw, a candidate at a time: redraw
    until the modulus at 512 circle points reaches RANDOM_MIN_MODULUS."""
    while True:
        m = rng.randint(0, toeplitz.RANDOM_MAX_DEGREE)
        p = rng.randint(0, toeplitz.RANDOM_MAX_DEGREE)
        coefficients = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-m, p + 1)}
        try:
            candidate = toeplitz.Symbol(coefficients)
        except ParameterError:
            continue
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        if float(np.abs(candidate(np.exp(1j * theta))).min()) >= toeplitz.RANDOM_MIN_MODULUS:
            return candidate


def sample_argument_oracle(s):
    """`toeplitz._sample_argument` for one symbol at the default sample
    count: (winding, min modulus), the circle values 8192 angles at a time."""
    samples = max(64, 8 * (s.m + s.p + 1))
    _, e = math.frexp(max(abs(c) for c in s.coefficients.values()))
    exponents = np.array(list(s.coefficients), dtype=np.int64)
    coeffs = np.array(
        [complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in s.coefficients.values()],
        dtype=np.complex128,
    )
    while samples <= 1 << 22:
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        values = np.concatenate(
            [
                (coeffs[None, :] * np.exp(1j * np.outer(theta[i : i + 8192], exponents))).sum(axis=1)
                for i in range(0, samples, 8192)
            ]
        )
        min_modulus = math.ldexp(float(np.abs(values).min()), e)
        if min_modulus <= toeplitz.MIN_CIRCLE_MODULUS:
            raise NotFredholmError(
                f"symbol modulus {min_modulus:.3e} on the circle is below "
                f"{toeplitz.MIN_CIRCLE_MODULUS:.0e}; the operator is not Fredholm"
            )
        steps = np.angle(np.roll(values, -1) / values)
        if np.max(np.abs(steps)) < np.pi / 2:
            winding = float(steps.sum()) / (2.0 * np.pi)
            nearest = round(winding)
            if abs(winding - nearest) >= 0.01:
                raise SamplingFailureError(f"argument sum residual {abs(winding - nearest):.3g} too large")
            return int(nearest), min_modulus
        samples *= 2
    raise SamplingFailureError("argument increments did not settle below pi/2")


def winding_by_roots_oracle(s) -> int:
    """Roots of z^m s(z) inside the disk, minus m, by `np.roots`."""
    m = s.m
    degree = m + s.p
    if degree == 0:
        return 0
    coeffs = [s.coefficients.get(k - m, 0) for k in range(degree, -1, -1)]
    try:
        roots = np.roots(np.array(coeffs, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"root finding failed: {exc}") from exc
    moduli = np.abs(roots)
    if np.any(np.abs(moduli - 1.0) < toeplitz.ROOT_CIRCLE_TOL):
        raise NotFredholmError(f"a symbol root lies on (or within {toeplitz.ROOT_CIRCLE_TOL:.0e} of) the unit circle")
    return int((moduli < 1.0).sum()) - m


def random_check_oracle(rng, count: int):
    """The `toeplitz --random-check` loop one draw at a time: returns the
    symbols, their (winding, min modulus) by argument and their windings by
    roots; raises the first error, the argument method's before the roots'."""
    symbols, by_argument, by_roots = [], [], []
    for _ in range(count):
        symbols.append(random_symbol_oracle(rng))
        by_argument.append(sample_argument_oracle(symbols[-1]))
        by_roots.append(winding_by_roots_oracle(symbols[-1]))
    return symbols, by_argument, by_roots


# The tuple kernel the array carrier-line kernel replaced, kept as its
# oracle: per segment, the integer Plücker key of its carrier line, then
# per line a sorted list of intervals merged into runs by a Python sweep.
_MOMENTS = {
    2: lambda p, w: (p[0] * w[1] - p[1] * w[0],),
    3: lambda p, w: (p[0] * w[1] - p[1] * w[0], p[0] * w[2] - p[2] * w[0], p[1] * w[2] - p[2] * w[1]),
}


def _carrier(p, q) -> tuple:
    """The key (w, p x w) of the line through lattice points p < q and their
    parameters x . w along it; Fractions (points off the lattice) are
    scaled to ints before the gcd."""
    d = [b - a for a, b in zip(p, q)]
    try:
        g = math.gcd(*d)
    except TypeError:  # Fractions
        scale = math.lcm(*(c.denominator for c in d))
        d = [int(c * scale) for c in d]
        g = math.gcd(*d)
    w = tuple([c // g for c in d])
    return (w, _MOMENTS[len(p)](p, w)), sum(map(mul, p, w)), sum(map(mul, q, w))


class _Line(NamedTuple):
    """The (lo, hi, row) entries of one carrier line, sorted, and their runs:
    run i covers [starts[i], ends[i]] and holds entries[firsts[i]:firsts[i + 1]]."""

    entries: list
    starts: list
    ends: list
    firsts: list

    @classmethod
    def of(cls, entries: list) -> "_Line":
        starts: list = []
        ends: list = []
        firsts: list = []
        for k, (lo, hi, _) in enumerate(entries):
            if ends and lo <= ends[-1]:
                if hi > ends[-1]:
                    ends[-1] = hi
            else:
                starts.append(lo)
                ends.append(hi)
                firsts.append(k)
        return cls(entries, starts, ends, firsts)

    def run_at(self, t) -> int:
        """Number of the run containing parameter t, or -1."""
        i = bisect_right(self.starts, t) - 1
        return i if i >= 0 and self.ends[i] >= t else -1


class TupleSegmentIndex:
    """`geometry.SegmentIndex` as a dict of `_Line`s, over the same rows in
    the same order: a `Segments` view's own rows, or any segments scaled
    onto the lattice of their denominators (`to_lattice`)."""

    def __init__(self, segments):
        if isinstance(segments, Segments):
            self.lcm, self.rows = segments.lcm, list(segments.rows)
        else:
            segments = list(segments)
            self.lcm, _ = to_lattice([c for segment in segments for point in segment for c in point])
            self.rows = [tuple(tuple(lattice_ints(list(p), self.lcm)) for p in s) for s in segments]
        self._members = set(self.rows)
        lines: dict = {}
        for idx, (p, q) in enumerate(self.rows):
            key, lo, hi = _carrier(p, q)
            lines.setdefault(key, []).append((lo, hi, idx))
        self._lines = {key: _Line.of(sorted(entries)) for key, entries in lines.items()}
        self.directions = dict.fromkeys(w for w, _ in self._lines)

    def ids_through(self, p) -> list[int]:
        """Rows of all segments whose closed support contains lattice point p."""
        found: list[int] = []
        for w in self.directions:
            line = self._lines.get((w, _MOMENTS[len(p)](p, w)))
            if line is None:
                continue
            t = sum(map(mul, p, w))
            i = line.run_at(t)
            if i < 0:
                continue
            entries = line.entries
            for k in range(line.firsts[i], len(entries)):
                lo, hi, idx = entries[k]
                if lo > t:
                    break
                if hi >= t:
                    found.append(idx)
        return found

    def covers(self, p, q) -> bool:
        """Whether the segment pq lies in the union of collinear indexed segments."""
        if (p, q) in self._members or (q, p) in self._members:
            return True
        key, ta, tb = _carrier(p, q) if p < q else _carrier(q, p)
        line = self._lines.get(key)
        if line is None:
            return False
        i = line.run_at(ta)
        return i >= 0 and line.ends[i] >= tb


def tuple_union_length(segments) -> Fraction:
    """`geometry.union_length` by `TupleSegmentIndex`, with the same error text."""
    index = TupleSegmentIndex(segments)
    total = 0
    for (w, _), line in index._lines.items():
        if sum(map(bool, w)) != 1:
            p, q = index.rows[line.entries[0][2]]
            shown = [[str(Fraction(v, index.lcm)) for v in point] for point in (p, q)]
            raise UnsupportedGeometryError(f"union_length requires axis-parallel segments, got {shown}")
        total += sum(line.ends) - sum(line.starts)
    return Fraction(total, index.lcm)


def tuple_segment_components(segments) -> int:
    """`geometry.segment_components` by `TupleSegmentIndex`: the segments of
    each run joined to its first, then at each endpoint one ending segment
    per direction, or everything `ids_through` finds where a direction is
    missing."""
    index = TupleSegmentIndex(segments)
    n = len(index.rows)
    if n == 0:
        return 0
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    ending: dict = {}
    for (w, _), line in index._lines.items():
        bounds = line.firsts + [len(line.entries)]
        for first, stop in zip(bounds, bounds[1:]):
            for _, _, idx in line.entries[first + 1 : stop]:
                union(line.entries[first][2], idx)
        for _, _, idx in line.entries:
            p, q = index.rows[idx]
            ending.setdefault(p, {})[w] = idx
            ending.setdefault(q, {})[w] = idx
    every = len(index.directions)
    for p, by_direction in ending.items():
        ids = list(by_direction.values()) if len(by_direction) == every else index.ids_through(p)
        for idx in ids[1:]:
            union(ids[0], idx)
    return len({find(i) for i in range(n)})
