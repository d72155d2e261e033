"""Exact rational primitives for planar and spatial subdivision geometry.

All coordinates are `fractions.Fraction`, so every predicate here is decided
by integer arithmetic: no epsilons, no floating point. The only floating
point surface in the whole package is logarithms (dimensions) and the
Toeplitz numerics. Points are coordinate tuples and segments sorted pairs
of points, so both hash, compare and sort as tuples; loops are immutable.

Batched predicates and area sums run on the integer lattice, built here
only: coordinates scaled by D, the lcm of their denominators, held in
int64 arrays while every product fits and in arrays of Python ints otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    IndeterminateWindingError,
    MalformedLoopError,
    ParameterError,
    UnsupportedGeometryError,
)
from .unionfind import UnionFind

# point_in_polygon classifications
INSIDE = "inside"
OUTSIDE = "outside"
BOUNDARY = "boundary"


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact Fraction.

    A float or a bool is refused: a JSON number such as 0.1 would read as
    its binary value, not as the decimal that was meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise ParameterError(f"not a rational number: {value!r} (write it as a \"p/q\" string)")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ParameterError(f"not a rational number: {value!r}") from exc


def to_lattice(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators, and value * D for each value, in order."""
    ratios = [v.as_integer_ratio() for v in values]
    denominators = {q for _, q in ratios}
    lcm = math.lcm(*denominators)
    scale = {q: lcm // q for q in denominators}
    return lcm, [n * scale[q] for n, q in ratios]


# Below this bound in absolute value, differences of lattice coordinates
# stay below 2^30 and every sum of two products in `lattice_windings` below 2^61.
_INT64_BOUND = 1 << 29


def lattice_dtype(magnitude: int):
    """int64 for lattice coordinates of at most `magnitude` in absolute value
    while `lattice_windings` cannot overflow it; otherwise object (Python ints)."""
    return np.int64 if magnitude < _INT64_BOUND else object


def lattice_rings(rings: Sequence[Sequence[Point2]]) -> tuple[int, dict]:
    """D for all the rings' coordinates and their `lattice_groups` layout."""
    lcm, ints = to_lattice([c for ring in rings for p in ring for c in p])
    return lcm, lattice_groups(ints, [len(ring) for ring in rings])


def lattice_groups(ints: list[int], counts: Sequence[int]) -> dict:
    """Lay out the lattice coordinates of consecutive rings, x then y for
    each vertex and counts[i] vertices in ring i, by vertex count k: the
    positions of the rings with k vertices and their coordinates as two
    (k, count) arrays, row i holding vertex i of every ring. The
    `lattice_dtype` of k times the largest value leaves room for the
    k-fold vertex sums of a centroid test."""
    laid_out = {}
    for k in dict.fromkeys(counts):
        members = range(len(counts))
        values = ints
        if counts.count(k) < len(counts):  # mixed vertex counts: gather this group's rings
            members = [i for i, count in enumerate(counts) if count == k]
            starts = list(accumulate((2 * count for count in counts), initial=0))
            values = [v for i in members for v in ints[starts[i] : starts[i + 1]]]
        grid = np.array(values, dtype=lattice_dtype(k * max(max(values), -min(values))))
        xs, ys = grid.reshape(len(members), k, 2).transpose(2, 1, 0)
        laid_out[k] = (members, xs, ys)
    return laid_out


class LatticeTable(dict):
    """f(v) for each distinct lattice int v, computed at its first lookup."""

    def __init__(self, f):
        super().__init__()
        self._f = f

    def __missing__(self, v):
        value = self[v] = self._f(v)
        return value

    def column(self, values) -> list:
        """f of every entry of a lattice array, in order."""
        return list(map(self.__getitem__, values.tolist()))


def _group(cells) -> dict:
    """(N, k, 2) lattice coordinates as `lattice_groups` lays out N rings of k vertices."""
    if not len(cells):
        return {}
    count, k, _ = cells.shape
    dtype = lattice_dtype(k * int(abs(cells).max()))
    xs, ys = cells.astype(dtype, copy=False).transpose(2, 1, 0)
    return {k: (range(count), xs, ys)}


# The carpet keeps the eight outer thirds of a square, row by row from its
# corner, and removes the centre, whose ring runs counterclockwise; both
# as multiples of the square's diagonal on the lattice refined threefold.
_THIRDS = np.array([(i, j) for j in range(3) for i in range(3) if (i, j) != (1, 1)])
_CENTRE = np.array([(1, 1), (2, 1), (2, 2), (1, 2)])


def split_squares(squares):
    """One carpet step: (N, 2, 2) squares, each its corner and diagonal, to
    the (8N, 2, 2) kept thirds, parent by parent, and the (N, 4, 2) rings
    of the removed centres, on the lattice refined threefold."""
    corners, diagonals = 3 * squares[:, :1], squares[:, 1:]
    thirds = corners + _THIRDS * diagonals
    kept = np.stack((thirds, np.broadcast_to(diagonals, thirds.shape)), axis=2)
    return kept.reshape(-1, 2, 2), corners + _CENTRE * diagonals


def split_triangles(triangles):
    """One gasket step: (N, 3, 2) triangles to the (3N, 3, 2) corner
    children, parent by parent, and the (N, 3, 2) removed middle triangles
    (m01, m12, m02), on the lattice refined twofold.

    Vertex j of child i is v_i + v_j: v_i doubled for j = i, and otherwise
    the doubled midpoint of edge ij, in `simplex_children`'s order.
    """
    sums = triangles[:, :, None] + triangles[:, None]
    return sums.reshape(-1, 3, 2), sums[:, (0, 1, 0), (1, 2, 2)]


def lattice_subdivision(base: list, split, scale: int, depth: int) -> tuple[dict, dict, list[int]]:
    """`depth` rounds of a lattice split (`split_squares`, `split_triangles`)
    from the level-0 cells `base`, nested lists of lattice ints; each round
    refines the lattice `scale`-fold. Returns the last level's cells and
    every removed ring, level by level, as `lattice_groups` lays them out on
    the last lattice, and the number of rings each level removed."""
    top = max(abs(v) for cell in base for p in cell for v in p) * scale**depth
    cells = np.array(base, dtype=lattice_dtype(top))
    removed = []
    for _ in range(depth):
        cells, rings = split(cells)
        removed.append(rings)
    counts = [len(rings) for rings in removed]
    removed = [rings * scale ** (depth - level) for level, rings in enumerate(removed, 1)]
    return _group(cells), _group(np.concatenate(removed)) if removed else {}, counts


def scale_factor(a: Union[int, str, Fraction], allow_half: bool) -> Fraction:
    """A corner scale factor: 0 < a < 1/2, or 0 < a <= 1/2 with allow_half."""
    a = rational(a)
    half = Fraction(1, 2)
    if a <= 0 or a > half or (a == half and not allow_half):
        bound = "1/2]" if allow_half else "1/2)"
        raise ParameterError(f"scale factor must lie in (0, {bound}, got {a}")
    return a


def check_depth(depth: int, cap: Union[int, None] = None, what: str = "depth") -> int:
    """A nonnegative integer count, at most `cap` when one is given.

    A negative or non-integer value is a ParameterError, a value above the
    cap a CapacityError.
    """
    if not isinstance(depth, int) or depth < 0:
        raise ParameterError(f"{what} must be a nonnegative integer, got {depth}")
    if cap is not None and depth > cap:
        raise CapacityError(f"{what} {depth} exceeds cap {cap}")
    return depth


def geometric_sum(r: Fraction, n: int) -> Fraction:
    """Exact sum of r^k for k = 0..n by the closed form (1 - r^(n+1)) / (1 - r)."""
    if r == 1:
        return Fraction(n + 1)
    return (1 - r ** (n + 1)) / (1 - r)


class Point2(NamedTuple):
    x: Fraction
    y: Fraction

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)


class Point3(NamedTuple):
    x: Fraction
    y: Fraction
    z: Fraction

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)


Point = Union[Point2, Point3]


def midpoint(p: Point, q: Point) -> Point:
    return type(p)(*[(a + b) / 2 for a, b in zip(p, q)])


class _Endpoints(NamedTuple):
    a: Point
    b: Point


class Segment(_Endpoints):
    """An unordered pair of distinct points, stored in canonical order.

    The constructor sorts the endpoints lexicographically, so structurally
    equal segments compare and hash equal regardless of the order they were
    built with. That canonical form is what stage skeletons deduplicate on,
    and `sorted` orders segments by first, then second endpoint.
    """

    __slots__ = ()

    def __new__(cls, a: Point, b: Point) -> "Segment":
        if a == b:
            raise ParameterError(f"degenerate segment at {a}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))


def ring_edges(vertices: Sequence[Point]) -> Iterator[tuple[Point, Point]]:
    """The consecutive vertex pairs of a closed ring, the last vertex joined to the first."""
    return zip(vertices, (*vertices[1:], *vertices[:1]))


def check_ring(vertices: Sequence) -> None:
    """Refuse a ring that cannot bound a loop: fewer than 3 vertices, or two
    consecutive vertices equal (MalformedLoopError)."""
    if len(vertices) < 3:
        raise MalformedLoopError("a loop needs at least 3 vertices")
    for i, (p, q) in enumerate(ring_edges(vertices)):
        if p == q:
            raise MalformedLoopError(f"consecutive duplicate vertex at position {i}")


def ring_segments(vertices: Sequence[Point]) -> tuple[Segment, ...]:
    """The segments of a closed vertex ring."""
    return tuple(Segment(p, q) for p, q in ring_edges(vertices))


def _picks(offset_rows) -> tuple:
    """For each row of per-axis offsets (0 near side, 1 far side), a getter
    of those coordinates from the flat list (x, x + s, y, y + s, ...)."""
    return tuple(itemgetter(*[2 * i + o for i, o in enumerate(row)]) for row in offset_rows)


# Vertex b of a cell is far in coordinate i iff bit i of b is set, and edges
# join the vertices whose indices differ in one bit. Child letter k takes the
# corner at the same offsets as vertex k in space, and runs SW, SE, NE, NW in
# the plane.
_VERTEX_PICKS = {d: _picks([[b >> i & 1 for i in range(d)] for b in range(1 << d)]) for d in (2, 3)}
_CHILD_PICKS = {2: _picks(((0, 0), (1, 0), (1, 1), (0, 1))), 3: _VERTEX_PICKS[3]}
_EDGES = {
    d: tuple((b, b | 1 << i) for b in range(1 << d) for i in range(d) if not b >> i & 1)
    for d in (2, 3)
}
# Face rings, counterclockwise seen from outside: the square's one face,
# and the cube's low and high face across x, then y, then z.
_FACES = {
    d: tuple(itemgetter(*ring) for ring in rings)
    for d, rings in (
        (2, ((0, 1, 3, 2),)),
        (3, ((0, 4, 6, 2), (1, 3, 7, 5), (0, 1, 5, 4), (2, 6, 7, 3), (0, 2, 3, 1), (4, 5, 7, 6))),
    )
}


@dataclass(frozen=True)
class Cell:
    """An addressed corner square (Point2 corner) or cube (Point3 corner).

    Letter k of the address selects the corner child taken at subdivision
    step k (see `_CHILD_PICKS`), so with scale factor a the corner
    coordinates are sums of terms (1-a) * a^k and the side is a^len(address).
    The carpet's 3 x 3 split is not a corner split, so its cells carry the
    empty address.
    """

    address: str
    corner: Point
    side: Fraction

    @property
    def level(self) -> int:
        return len(self.address)

    def _ends(self, length: Fraction) -> list[Fraction]:
        return [v for c in self.corner for v in (c, c + length)]

    def vertices(self) -> tuple[Point, ...]:
        """The 2^d corners in bit order: bit i of the index selects the far side in coordinate i."""
        ends = self._ends(self.side)
        point = type(self.corner)
        return tuple(point(*pick(ends)) for pick in _VERTEX_PICKS[len(ends) // 2])

    def edge_segments(self) -> tuple[Segment, ...]:
        verts = self.vertices()
        return tuple(Segment(verts[i], verts[j]) for i, j in _EDGES[len(self.corner)])

    def faces(self) -> tuple[tuple[Point, ...], ...]:
        """The vertex rings of the faces, each counterclockwise seen from outside."""
        verts = self.vertices()
        return tuple(pick(verts) for pick in _FACES[len(self.corner)])

    def children(self, a: Fraction) -> tuple["Cell", ...]:
        child_side = self.side * a
        ends = self._ends(self.side - child_side)
        point = type(self.corner)
        address = self.address
        return tuple(
            Cell(address + str(k), point(*pick(ends)), child_side)
            for k, pick in enumerate(_CHILD_PICKS[len(ends) // 2])
        )

    def contains(self, other: "Cell") -> bool:
        """Exact containment of another cell's closed square or cube in this one."""
        return all(
            c <= o and o + other.side <= c + self.side
            for c, o in zip(self.corner, other.corner)
        )


def _simplex_pattern(n: int):
    """The edges of an n-vertex simplex, and for each corner child a getter
    of its vertices from (*vertices, *edge midpoints)."""
    edges = tuple(combinations(range(n), 2))
    slot = {edge: n + k for k, edge in enumerate(edges)}
    picks = tuple(
        itemgetter(*[i if j == i else slot[min(i, j), max(i, j)] for j in range(n)]) for i in range(n)
    )
    return edges, picks


_SIMPLEX_PATTERNS = {n: _simplex_pattern(n) for n in (3, 4)}
# Face rings of a positively oriented simplex, counterclockwise seen from
# outside: the triangle's one face and the tetrahedron's four.
_SIMPLEX_FACES = {
    n: tuple(itemgetter(*ring) for ring in rings)
    for n, rings in ((3, ((0, 1, 2),)), (4, ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))))
}


def simplex_children(vertices: Sequence[Point]) -> list[tuple[Point, ...]]:
    """The half-scale corner copies of a triangle or tetrahedron.

    Child i keeps vertex i in place i and puts the midpoint of the edge to
    vertex j in place j; each edge midpoint is computed once.
    """
    edges, picks = _SIMPLEX_PATTERNS[len(vertices)]
    points = (*vertices, *[midpoint(vertices[i], vertices[j]) for i, j in edges])
    return [pick(points) for pick in picks]


@dataclass(frozen=True)
class Simplex:
    """An addressed triangle (Point2 vertices) or tetrahedron (Point3 vertices).

    Letter i of the address selects the corner child that keeps vertex i
    (see `simplex_children`), so every descendant keeps the vertex order
    and the orientation of its root.
    """

    address: str
    vertices: tuple[Point, ...]

    @property
    def level(self) -> int:
        return len(self.address)

    def edge_segments(self) -> tuple[Segment, ...]:
        verts = self.vertices
        edges, _ = _SIMPLEX_PATTERNS[len(verts)]
        return tuple(Segment(verts[i], verts[j]) for i, j in edges)

    def faces(self) -> tuple[tuple[Point, ...], ...]:
        """The vertex rings of the faces, each counterclockwise seen from outside."""
        verts = self.vertices
        return tuple(pick(verts) for pick in _SIMPLEX_FACES[len(verts)])

    def children(self) -> tuple["Simplex", ...]:
        address = self.address
        return tuple(
            Simplex(address + str(i), verts)
            for i, verts in enumerate(simplex_children(self.vertices))
        )


@dataclass(frozen=True)
class Loop:
    """A closed, oriented polygonal curve (last vertex connects to first)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        check_ring(verts)

    @property
    def orientation(self) -> int:
        """+1 for counterclockwise, -1 for clockwise, 0 if degenerate."""
        area = signed_area(self)
        return (area > 0) - (area < 0)

    def edges(self) -> Iterator[tuple[Point2, Point2]]:
        return ring_edges(self.vertices)


def signed_area(loop: Loop) -> Fraction:
    """Exact shoelace area; positive for counterclockwise loops."""
    total = Fraction(0)
    for p, q in loop.edges():
        total += p.x * q.y - q.x * p.y
    return total / 2


def area_vector(points: Sequence[Point3]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact area vector of a planar polygon in 3-space.

    Half the sum of the edge cross products: normal to the polygon, as long as its area.
    """
    ax = ay = az = Fraction(0)
    for p, q in ring_edges(points):
        ax += p[1] * q[2] - p[2] * q[1]
        ay += p[2] * q[0] - p[0] * q[2]
        az += p[0] * q[1] - p[1] * q[0]
    return (ax / 2, ay / 2, az / 2)


def lattice_windings(xs, ys, px, py):
    """Exact winding numbers of rings about points, on the lattice.

    xs and ys hold the k vertices of a ring in order: lists of ints for
    one ring, or the rows of a `lattice_rings` group for one ring per
    column. px and py broadcast against them. Returns the winding numbers
    as int64 and a mask of the points on their ring. Each edge a -> b
    counts the crossing of the rightward ray from p (+1 upward, -1
    downward) by the half-open vertex rule; a point collinear with the
    edge lies on it iff (p - a) . (p - b) <= 0.
    """
    winding = 0
    on_ring = False
    for a, b in ring_edges(range(len(xs))):
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        c = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        on_ring = on_ring | (c == 0) & ((px - ax) * (px - bx) + (py - ay) * (py - by) <= 0)
        a_below, b_below = ay <= py, by <= py
        winding = winding + (a_below & ~b_below & (c > 0)).astype(np.int64)
        winding = winding - (~a_below & b_below & (c < 0))
    return winding, on_ring


def twice_areas(xs, ys):
    """Twice the signed area of each ring of a `lattice_rings` group: the lattice shoelace."""
    return sum(xs[a] * ys[b] - xs[b] * ys[a] for a, b in ring_edges(range(len(xs))))


def winding_numbers(loop: Loop, points: Sequence[Point2]) -> tuple[int, ...]:
    """Exact winding number of the loop about every point, in order.

    The loop and the points are scaled by D, the lcm of all their
    denominators, and each loop edge is tested against every point at
    once. Raises IndeterminateWindingError, naming the first point on the
    loop, if any point lies on it.
    """
    if not points:
        return ()
    _, ints = to_lattice([c for p in (*loop.vertices, *points) for c in p])
    n = 2 * len(loop.vertices)
    grid = np.array(ints[n:], dtype=lattice_dtype(max(max(ints), -min(ints))))
    winding, on_loop = lattice_windings(ints[0:n:2], ints[1:n:2], grid[0::2], grid[1::2])
    if on_loop.any():
        raise IndeterminateWindingError(f"point {points[int(on_loop.argmax())]} lies on the loop")
    return tuple(winding.tolist())


def winding_number(loop: Loop, p: Point2) -> int:
    """`winding_numbers` of one point; raises IndeterminateWindingError if p lies on the loop."""
    return winding_numbers(loop, (p,))[0]


def point_in_polygon(loop: Loop, p: Point2) -> str:
    """Classify p against a simple loop: INSIDE, OUTSIDE, or BOUNDARY.

    BOUNDARY when p lies on the loop, else INSIDE iff the winding number
    about p is nonzero (on a simple loop, the same as odd crossing
    parity). Behavior on self-intersecting loops is unspecified;
    degenerate (zero-area) loops raise MalformedLoopError.
    """
    if signed_area(loop) == 0:
        raise MalformedLoopError("degenerate loop has no interior")
    try:
        return INSIDE if winding_number(loop, p) else OUTSIDE
    except IndeterminateWindingError:
        return BOUNDARY


def _line_key(p: Point, q: Point):
    """Canonical (direction, base-point) key for the line through p and q.

    The direction is scaled so its first nonzero component is 1, and the
    base point is the point on the line whose pivot coordinate is 0. Two
    segments are collinear iff their keys are equal; the pivot coordinate
    of a point then serves as its 1D parameter along the line.
    """
    # Components known to be 0 or 1 are plain ints: they skip Fraction
    # arithmetic and hash faster, and equal values hash equal either way.
    d = tuple(qi - pi if qi != pi else 0 for pi, qi in zip(p, q))
    pivot = next(i for i, di in enumerate(d) if di)
    dp = d[pivot]
    u = tuple(0 if not di else 1 if i == pivot else di / dp for i, di in enumerate(d))
    return _line_through(p, u, pivot), pivot


def _line_through(p: Point, u: tuple, pivot: int):
    """Key of the line in direction u through p."""
    t = p[pivot]
    base = tuple(
        0 if i == pivot else pi - t * ui if ui else pi for i, (pi, ui) in enumerate(zip(p, u))
    )
    return (u, base)


def _carrier_lines(segments: Sequence[Segment]) -> dict:
    """Group segments by carrier line: line key -> sorted [(lo, hi, index)].

    lo and hi are the endpoints' parameters along the line; lo < hi
    because a Segment stores its endpoints in lexicographic order.
    """
    lines: dict = {}
    for idx, seg in enumerate(segments):
        key, pivot = _line_key(seg.a, seg.b)
        lines.setdefault(key, []).append((seg.a[pivot], seg.b[pivot], idx))
    for entries in lines.values():
        entries.sort()
    return lines


class _Line(NamedTuple):
    """The segments on one carrier line and their merged runs.

    A run is a maximal chain of overlapping or touching intervals, so it
    covers [starts[i], ends[i]] without a gap. Its segments are
    entries[firsts[i]:firsts[i + 1]], and the first of them is the run's
    representative.
    """

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

    def run_at(self, t: Fraction) -> int:
        """Number of the run containing parameter t, or -1."""
        i = bisect_right(self.starts, t) - 1
        return i if i >= 0 and self.ends[i] >= t else -1


def union_length(segments: Iterable[Segment]) -> Fraction:
    """Exact 1-dimensional measure of a union of axis-parallel segments.

    Segments are grouped by carrier line, overlapping intervals are merged,
    and the merged lengths are summed; overlaps are therefore counted once.
    Raises UnsupportedGeometryError for any non-axis-parallel segment.
    """
    segments = list(segments)
    total = Fraction(0)
    for (u, _), entries in _carrier_lines(segments).items():
        if sum(1 for ui in u if ui) != 1:
            raise UnsupportedGeometryError(
                f"union_length requires axis-parallel segments, got {segments[entries[0][2]]}"
            )
        line = _Line.of(entries)
        for lo, hi in zip(line.starts, line.ends):
            total += hi - lo
    return total


class SegmentIndex:
    """Carrier-line index over a fixed set of segments.

    The segments are grouped by carrier line, sorted along it and merged
    into runs of overlapping or touching intervals (O(n log n)). Two exact
    queries share one bisect over a line's runs: `covers`, whether a query
    segment lies in the union of collinear indexed segments, and
    `ids_through`, which segments pass through a point.
    """

    def __init__(self, segments: Iterable[Segment]):
        self.segments: list[Segment] = list(segments)
        self._lines = {
            key: _Line.of(entries) for key, entries in _carrier_lines(self.segments).items()
        }
        # direction -> its pivot, the index of its first nonzero component (1)
        self.directions: dict = {}
        for u, _ in self._lines:
            self.directions.setdefault(u, next(i for i, ui in enumerate(u) if ui))

    def ids_through(self, p: Point) -> list[int]:
        """Indices of all segments whose closed support contains p.

        For each direction, the line through p is looked up and bisected
        for the run containing p; only that run's segments that start at
        or before p are scanned, so a query costs a bisect per direction
        plus that scan.
        """
        found: list[int] = []
        for u, pivot in self.directions.items():
            line = self._lines.get(_line_through(p, u, pivot))
            if line is None:
                continue
            t = p[pivot]
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

    def covers(self, p: Point, q: Point) -> bool:
        """True iff segment pq lies inside the union of collinear indexed segments."""
        key, pivot = _line_key(p, q)
        line = self._lines.get(key)
        if line is None:
            return False
        ta, tb = p[pivot], q[pivot]
        i = line.run_at(min(ta, tb))
        return i >= 0 and line.ends[i] >= max(ta, tb)


def segment_components(segments: Iterable[Segment]) -> int:
    """Number of connected components of a segment union.

    Two segments are joined when an endpoint of one lies on the other
    (exact test). For the subdivision skeletons built here, every contact
    between segments includes such an endpoint incidence, so this equals
    topological connectivity of the union.

    The kernel sorts and sweeps instead of testing pairs. The segments of
    each merged run of a carrier line are joined to the run's
    representative: collinear segments meet at an endpoint exactly when
    their closed intervals intersect. Then each distinct endpoint p is
    resolved. Where segments of every indexed direction end at p, each
    segment through p lies on the line of one of them and so already sits
    in its run: joining one ending segment per direction suffices. Any
    other endpoint (a T-junction, or a vertex in a single direction) joins
    everything `ids_through` finds through it. Grouping, sorting and the
    sweep cost O(n log n); the constructions' vertices mostly take the
    first branch, and an `ids_through` lookup is a bisect per direction
    plus a scan of the run it lands in.
    """
    index = SegmentIndex(segments)
    n = len(index.segments)
    if n == 0:
        return 0
    uf = UnionFind(n)
    ending: dict = {}  # endpoint -> {direction: a segment ending there}
    for (u, _), line in index._lines.items():
        bounds = line.firsts + [len(line.entries)]
        for first, stop in zip(bounds, bounds[1:]):
            rep = line.entries[first][2]
            for _, _, idx in line.entries[first + 1 : stop]:
                uf.union(rep, idx)
        for _, _, idx in line.entries:
            seg = index.segments[idx]
            ending.setdefault(seg.a, {})[u] = idx
            ending.setdefault(seg.b, {})[u] = idx
    every = len(index.directions)
    for p, by_direction in ending.items():
        ids = list(by_direction.values()) if len(by_direction) == every else index.ids_through(p)
        for idx in ids[1:]:
            uf.union(ids[0], idx)
    return uf.components
