"""Exact rational primitives for planar and spatial subdivision geometry.

Coordinates are exact, `fractions.Fraction`s or the ints of the lattice
below, so every predicate here is decided by integer arithmetic: no
epsilons, no floating point. The only floating point surface in the whole
package is logarithms (dimensions) and the Toeplitz numerics. Points are
coordinate tuples and segments sorted pairs of points, so both hash,
compare and sort as tuples; loops are immutable.

Batched predicates and area sums run on the integer lattice, built here
only: coordinates scaled by D, the lcm of their denominators, held in
int64 arrays while every product fits and in arrays of Python ints otherwise.
Every stage holds its cells, segments, faces and pieces on its level's
lattice in `OnLattice` views, squares and cubes as `BoxCells` and
triangles and tetrahedra as `Simplices`. Every construction is built
there by the one level loop `lattice_levels` over a split (`split_boxes`,
`split_simplices`, `split_squares`, `split_triangles`); `cell_outline`
gives each level's edges and faces, `on_last_lattice` scales the levels'
arrays onto the last lattice, and `distinct_segments` sorts segments into
the one segment order. `SegmentIndex` sorts a stage's segments into
a run table of the carrier lines, whose runs `union_length` sums and
`segment_components` joins.
"""

from __future__ import annotations

import math
from collections.abc import Sequence, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from typing import Iterable, Iterator, NamedTuple, Union

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


def int_dtype(bound: int):
    """int64 for ints known beforehand to stay within `bound` in absolute
    value, otherwise object (Python ints): int64 arithmetic wraps silently."""
    return np.int64 if bound < 1 << 63 else object


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


def lattice_group(cells) -> dict:
    """N rings of k vertices, (N, k, 2) lattice coordinates, laid out as a
    group: {k: (positions range(N), xs, ys)}, xs and ys two (k, N) arrays,
    row i holding vertex i of every ring. The `lattice_dtype` of k times
    the largest value leaves room for the k-fold vertex sums of a centroid
    test."""
    if not len(cells):
        return {}
    count, k, _ = cells.shape
    dtype = lattice_dtype(k * int(abs(cells).max()))
    xs, ys = cells.astype(dtype, copy=False).transpose(2, 1, 0)
    return {k: (range(count), xs, ys)}


# The carpet keeps the eight outer thirds of a square, row by row from its
# corner, and removes the centre, whose ring runs counterclockwise; both
# as multiples of the square's side on the lattice refined threefold.
_THIRDS = np.array([(i, j) for j in range(3) for i in range(3) if (i, j) != (1, 1)])
_CENTRE = np.array([(1, 1), (2, 1), (2, 2), (1, 2)])


def split_squares(corners, sides):
    """One carpet step: (N, 2) corners and (N,) sides of squares to the
    corners and sides of their 8N kept thirds, parent by parent, and the
    (N, 4, 2) rings of the removed centres, on the lattice refined threefold."""
    corners, steps = 3 * corners[:, None], sides[:, None, None]
    thirds = corners + _THIRDS * steps
    return thirds.reshape(-1, 2), np.repeat(sides, len(_THIRDS)), corners + _CENTRE * steps


def split_simplices(simplices):
    """One half-scale step: (N, n, d) simplices to their (nN, n, d) corner
    children, parent by parent, on the lattice refined twofold.

    Vertex j of child i is v_i + v_j: v_i doubled for j = i, and otherwise
    the doubled midpoint of edge ij, so child i keeps vertex i in place i.
    """
    return (simplices[:, :, None] + simplices[:, None]).reshape(-1, *simplices.shape[1:])


def split_triangles(triangles):
    """One gasket step: (N, 3, 2) triangles to the (3N, 3, 2) corner
    children (`split_simplices`) and the (N, 3, 2) removed middle
    triangles (m01, m12, m02)."""
    children = split_simplices(triangles)
    return children, children.reshape(-1, 3, 3, 2)[:, (0, 1, 0), (1, 2, 2)]


def split_boxes(corners, sides, a: Fraction):
    """One corner step for a = p/q: (N, d) corners and (N,) sides of boxes
    to their 2^d corner children, parent by parent in letter order, on the
    lattice refined q-fold. A child has side side * p and its corner at
    corner * q plus the offsets {0, side * (q - p)} of `_CHILD_OFFSETS`."""
    p, q = a.numerator, a.denominator
    _, offsets = _BOX_OFFSETS[corners.shape[1]]
    children = q * corners[:, None] + offsets * (sides * (q - p))[:, None, None]
    return children.reshape(-1, corners.shape[1]), np.repeat(sides * p, len(offsets))


def box_grid(corners, sides):
    """The (N, 2^d, d) vertices of boxes given by corners and sides, in bit order."""
    bits, _ = _BOX_OFFSETS[corners.shape[1]]
    return corners[:, None] + bits * sides[:, None, None]


def cell_outline(vertices, edges, rings) -> tuple:
    """The edges, (N E, 2, d), and face rings, (N F, k, d), of N cells given
    by their (N, V, d) vertices: `edges` and `rings` index the vertices of
    one cell (`BOX_OUTLINE`, `SIMPLEX_OUTLINE`); cell by cell, in table order."""
    d = vertices.shape[2]
    return vertices[:, edges].reshape(-1, 2, d), vertices[:, rings].reshape(-1, rings.shape[1], d)


def distinct_segments(pairs):
    """Segments as (m, 2, d) endpoint pairs in either order, to the (n, 2, d)
    array of the distinct ones, p < q, in the one segment order (by first,
    then second endpoint): one sort of their keys and a neighbour compare."""
    if not len(pairs):
        return pairs
    keys, swap = _segment_keys(pairs, *_span(pairs))
    order = np.argsort(keys)
    kept = order[_starts(keys[order])]
    grid, flip = pairs[kept], swap[kept]
    grid[flip] = grid[flip, ::-1]
    return grid


def lattice_levels(lcm: int, base: tuple, split, scale: int, depth: int) -> Iterator[tuple]:
    """The arrays of levels 0 to `depth`: level 0 is `base`, the level-0
    cells (corners and sides, or vertices) on the lattice of D = `lcm`, and
    level k + 1 is `split` of level k's cells, its first len(base) arrays,
    then any arrays the split adds (removed rings), on a `scale`-fold finer
    lattice. int64 while the last D fits and `base` is int64, else Python ints."""
    dtype = np.result_type(*base, int_dtype(lcm * scale**depth))
    level = tuple(array.astype(dtype, copy=False) for array in base)
    yield level
    for _ in range(depth):
        level = split(*level[: len(base)])
        yield level


def on_last_lattice(arrays: list, scale: int):
    """The arrays of consecutive levels of a `scale`-fold refinement, each
    scaled onto the lattice of the last, as one array."""
    return np.concatenate([array * scale ** (len(arrays) - i) for i, array in enumerate(arrays, 1)])


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


def ring_segments(vertices: Sequence[Point]) -> tuple[Segment, ...]:
    """The segments of a closed vertex ring."""
    return tuple(Segment(p, q) for p, q in ring_edges(vertices))


# One table per fact, read by `Cell` and, as arrays, by the array steps.
# Vertex b of a cell is far in coordinate i iff bit i of b is set, and edges
# join the vertices whose indices differ in one bit. Child letter k takes the
# corner at the same offsets as vertex k in space, and runs SW, SE, NE, NW in
# the plane.
_BITS = {d: tuple(tuple(b >> i & 1 for i in range(d)) for b in range(1 << d)) for d in (2, 3)}
_CHILD_OFFSETS = {2: ((0, 0), (1, 0), (1, 1), (0, 1)), 3: _BITS[3]}
# The vertex and child corner offsets of a box, for `box_grid` and `split_boxes`.
_BOX_OFFSETS = {d: (np.array(_BITS[d]), np.array(_CHILD_OFFSETS[d])) for d in (2, 3)}
_EDGES = {
    d: tuple((b, b | 1 << i) for b in range(1 << d) for i in range(d) if not b >> i & 1)
    for d in (2, 3)
}
# Face rings, counterclockwise seen from outside: the square's one face,
# and the cube's low and high face across x, then y, then z.
_FACE_RINGS = {
    2: ((0, 1, 3, 2),),
    3: ((0, 4, 6, 2), (1, 3, 7, 5), (0, 1, 5, 4), (2, 6, 7, 3), (0, 2, 3, 1), (4, 5, 7, 6)),
}
# The edge and face tables of a box of dimension d, for `cell_outline`.
BOX_OUTLINE = {d: (np.array(_EDGES[d]), np.array(_FACE_RINGS[d])) for d in (2, 3)}


@dataclass(frozen=True)
class Cell:
    """An addressed corner square (Point2 corner) or cube (Point3 corner).

    Letter k of the address selects the corner child taken at subdivision
    step k (see `_CHILD_OFFSETS`), so with scale factor a the corner
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

    def vertices(self) -> tuple[Point, ...]:
        """The 2^d corners in bit order: bit i of the index selects the far side in coordinate i."""
        ends = [(c, c + self.side) for c in self.corner]
        point = type(self.corner)
        return tuple(point(*[end[bit] for end, bit in zip(ends, bits)]) for bits in _BITS[len(ends)])

    def edge_segments(self) -> tuple[Segment, ...]:
        verts = self.vertices()
        return tuple(Segment(verts[i], verts[j]) for i, j in _EDGES[len(self.corner)])

    def faces(self) -> tuple[tuple[Point, ...], ...]:
        """The vertex rings of the faces, each counterclockwise seen from outside."""
        verts = self.vertices()
        return tuple(tuple(verts[i] for i in ring) for ring in _FACE_RINGS[len(self.corner)])

    def contains(self, other: "Cell") -> bool:
        """Exact containment of another cell's closed square or cube in this one."""
        return all(
            c <= o and o + other.side <= c + self.side
            for c, o in zip(self.corner, other.corner)
        )


# One table per fact for `Simplex` too: edges join every vertex pair, in
# lexicographic order.
_SIMPLEX_EDGES = {n: tuple(combinations(range(n), 2)) for n in (3, 4)}
# Face rings of a positively oriented simplex, counterclockwise seen from
# outside: the triangle's one face and the tetrahedron's four.
_SIMPLEX_FACE_RINGS = {3: ((0, 1, 2),), 4: ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))}
# The edge and face tables of an n-vertex simplex, for `cell_outline`.
SIMPLEX_OUTLINE = {n: (np.array(_SIMPLEX_EDGES[n]), np.array(_SIMPLEX_FACE_RINGS[n])) for n in (3, 4)}


@dataclass(frozen=True)
class Simplex:
    """An addressed triangle (Point2 vertices) or tetrahedron (Point3 vertices).

    Letter i of the address selects the corner child that keeps vertex i
    (see `split_simplices`), so every descendant keeps the vertex order
    and the orientation of its root.
    """

    address: str
    vertices: tuple[Point, ...]

    @property
    def level(self) -> int:
        return len(self.address)

    def edge_segments(self) -> tuple[Segment, ...]:
        verts = self.vertices
        return tuple(Segment(verts[i], verts[j]) for i, j in _SIMPLEX_EDGES[len(verts)])

    def faces(self) -> tuple[tuple[Point, ...], ...]:
        """The vertex rings of the faces, each counterclockwise seen from outside."""
        verts = self.vertices
        return tuple(tuple(verts[i] for i in ring) for ring in _SIMPLEX_FACE_RINGS[len(verts)])


@dataclass(frozen=True)
class Loop:
    """A closed, oriented polygonal curve (last vertex connects to first)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise MalformedLoopError("a loop needs at least 3 vertices")
        for i, (p, q) in enumerate(ring_edges(verts)):
            if p == q:
                raise MalformedLoopError(f"consecutive duplicate vertex at position {i}")

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
    return ax / 2, ay / 2, az / 2


def twice_area_squares(rings):
    """The squared length of twice the area vector of each (N, k, 3) lattice
    ring, |sum of p x q over its edges|^2, as int64 while k and the largest
    coordinate bound it there, otherwise as Python ints."""
    _, k, _ = rings.shape
    top = _magnitude(rings)
    rings = rings.astype(int_dtype(12 * (k * top * top) ** 2), copy=False)
    nxt = rings[:, [*range(1, k), 0]]  # each vertex's successor on its ring
    i, j = [1, 2, 0], [2, 0, 1]
    cross = (rings[..., i] * nxt[..., j] - rings[..., j] * nxt[..., i]).sum(axis=1)
    return (cross * cross).sum(axis=1)


def lattice_windings(xs, ys, px, py):
    """Exact winding numbers of rings about points, on the lattice.

    xs and ys hold the k vertices of a ring in order: lists of ints for
    one ring, or the rows of a `lattice_group` group for one ring per
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
    """Twice the signed area of each ring of a `lattice_group` group: the lattice shoelace."""
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


_POINTS = {2: Point2, 3: Point3}


class OnLattice:
    """Objects held as arrays of lattice ints on the lattice of D = `lcm`.

    A view is built from its arrays only. `len` reads them, and `rows`,
    each object as a row of Python ints, is read from them on first use.
    The objects are built from the rows on first use, each distinct point
    and value once; a subclass says how a row becomes its object
    (`_object`).
    """

    lcm: int
    rows: list

    def __iter__(self):
        return iter(self._objects)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lcm={self.lcm}, count={len(self)})"

    @cached_property
    def _objects(self) -> list:
        value = LatticeTable(lambda v: Fraction(v, self.lcm))
        point = LatticeTable(lambda p: _POINTS[len(p)](*map(value.__getitem__, p)))
        return [self._object(row, point, value) for row in self.rows]


class LatticeSequence(OnLattice, Sequence):
    """Objects in order; equal to any sequence of equal objects."""

    def __getitem__(self, i):
        return self._objects[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None


class Segments(OnLattice, Set):
    """A set of segments, held as one (n, 2, d) array `grid` of lattice
    points (p, q), p < q, each segment once, in the one segment order (by
    first, then second endpoint; see `distinct_segments`).

    Set operations with other sets return plain sets of `Segment`s.
    """

    def __init__(self, lcm: int, grid):
        self.lcm = lcm
        self.grid = grid

    def __len__(self) -> int:
        return len(self.grid)

    @cached_property
    def rows(self) -> list:
        return [(tuple(p), tuple(q)) for p, q in self.grid.tolist()]

    def _object(self, row, point, value) -> Segment:
        return Segment(point[row[0]], point[row[1]])

    def __contains__(self, segment) -> bool:
        return segment in self._members

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self._objects)

    @cached_property
    def index(self) -> "SegmentIndex":
        """The one `SegmentIndex` over these segments, built on first use; `SegmentIndex(self)` returns it."""
        return SegmentIndex._over(self.lcm, self.grid)

    @classmethod
    def _from_iterable(cls, segments) -> set:
        return set(segments)


class BoxCells(LatticeSequence):
    """Box cells, held as their addresses (`()`: all empty), (N, d) corners and (N,) sides."""

    def __init__(self, lcm: int, addresses: Sequence[str], corners, sides):
        self.lcm = lcm
        self.addresses = addresses
        self.corners = corners
        self.sides = sides

    def __len__(self) -> int:
        return len(self.sides)

    @cached_property
    def rows(self) -> list:
        return list(zip(self.addresses or repeat(""), map(tuple, self.corners.tolist()), self.sides.tolist()))

    def _object(self, row, point, value) -> Cell:
        address, corner, side = row
        return Cell(address, point[corner], value[side])


class Simplices(LatticeSequence):
    """Simplex cells, held as their addresses (`()`: all empty) and (N, n, d) vertices."""

    def __init__(self, lcm: int, addresses: Sequence[str], vertices):
        self.lcm = lcm
        self.addresses = addresses
        self.vertices = vertices

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def rows(self) -> list:
        return [(a, tuple(map(tuple, v))) for a, v in zip(self.addresses or repeat(""), self.vertices.tolist())]

    def _object(self, row, point, value) -> Simplex:
        address, vertices = row
        return Simplex(address, tuple(map(point.__getitem__, vertices)))


def common_lattice(*blocks) -> list:
    """The contents of (view type, content) blocks, once they are checked
    to be views of those types on one lattice; anything else is one
    ParameterError, whatever the input."""
    contents = [content for _, content in blocks]
    if any(type(content) is not kind for kind, content in blocks) or len({c.lcm for c in contents}) > 1:
        raise ParameterError("expected views of the documented types on one lattice")
    return contents


def _span(grid) -> tuple[int, int]:
    """The lowest value of an array of lattice ints, 0 or below, and the base
    that holds every value minus it as one digit."""
    low = int(grid.min(initial=0))
    return low, int(grid.max(initial=0)) - low + 1


def _point_keys(points, low: int, base: int, width: int):
    """Each lattice point, along the last axis of `points`, as one int, its
    digits the coordinates minus `low` in base `base`: for points whose
    coordinates lie in [low, low + base), distinct as the points are and
    ordered as they are, lexicographically. int64 while base^width
    (width >= d) fits it, else Python ints."""
    dtype = np.result_type(points, int_dtype(base**width))
    digits = np.array([base**i for i in reversed(range(points.shape[-1]))], dtype)
    return (points.astype(dtype, copy=False) - low) @ digits


def _segment_keys(pairs, low: int, base: int):
    """The key of each (m, 2, d) segment pq, the `_point_keys` of its lower
    end, then of its upper end, as one int; and whether q is the lower end."""
    ends = _point_keys(pairs, low, base, 2 * pairs.shape[2])
    swap = ends[:, 1] < ends[:, 0]
    ends.sort(axis=1)
    return ends[:, 0] * base ** pairs.shape[2] + ends[:, 1], swap


def _magnitude(grid: np.ndarray) -> int:
    """The largest absolute value in an array of lattice ints (0 if empty)."""
    return max(int(grid.max(initial=0)), -int(grid.min(initial=0)))


def _fitted(grid: np.ndarray) -> np.ndarray:
    """An array of lattice ints as the `lattice_dtype` of its largest magnitude."""
    return grid.astype(lattice_dtype(_magnitude(grid)), copy=False)


def _query_grid(points, d: int) -> np.ndarray:
    """One query point or an array (or sequence) of them as an (m, d)
    array: `_fitted`, or of objects when a Fraction (off the lattice) is among them."""
    grid = points if isinstance(points, np.ndarray) else np.array(points, dtype=object)
    grid = grid.reshape(-1, d)
    if grid.dtype == object and not all(type(v) is int for v in grid.flat):
        return grid
    return _fitted(grid)


# The moment p x w of points p along directions w: its components
# m_ij = p_i w_j - p_j w_i for the index pairs i < j.
_MOMENT_PAIRS = {d: [list(ij) for ij in zip(*combinations(range(d), 2))] for d in (2, 3)}


def _line_keys(points: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the lines through points along directions w, both (m, d)
    lattice arrays, and the points' parameters x . w along them. A key is
    integer Plücker coordinates: w (primitive, first nonzero entry
    positive), then the moment p x w that every point of the line shares."""
    i, j = _MOMENT_PAIRS[points.shape[1]]
    moments = points[:, i] * w[:, j] - points[:, j] * w[:, i]
    return np.concatenate((w, moments), axis=1), (points * w).sum(axis=1)


def _starts(rows: np.ndarray) -> np.ndarray:
    """Where each row of a sorted array differs from the one before it (always at 0)."""
    new = np.ones(len(rows), dtype=bool)
    rows = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    return new


class SegmentIndex:
    """Carrier-line run table over a fixed set of segments, on their lattice.

    The segments, a `Segments` view on the lattice of D = `lcm`, are one
    (n, 2, d) array, sorted once by (line key, lo, hi) and cut into runs:
    maximal chains of overlapping or touching segments of one line. A run
    starts where its lo exceeds the running maximum of the his before it
    on its line, compared as line * 2n + dense rank, which cannot
    overflow. A view keeps the one index built over it (`Segments.index`),
    which `SegmentIndex(view)` returns; anything but a `Segments` view is
    a ParameterError.

    In sorted order, `segments`, `lo`, `hi` and `run` hold each segment's
    endpoints, parameters and run, and `order` its row; run r is sorted
    segments run_first[r]:run_first[r + 1], of line `run_keys[r]`, covering
    [run_lo[r], run_hi[r]]. Queries take points times D; a Fraction there
    is a point off the lattice.
    """

    def __new__(cls, segments: Segments) -> "SegmentIndex":
        (segments,) = common_lattice((Segments, segments))
        return segments.index

    @classmethod
    def _over(cls, lcm: int, rows: np.ndarray) -> "SegmentIndex":
        """The index of `rows`, an (n, 2, d) array of distinct segments
        (p, q), p < q, in the one segment order, on the lattice of D = lcm."""
        self = super().__new__(cls)
        self.lcm, self.rows = lcm, rows
        n = len(rows)
        if not n:
            return self
        segments = _fitted(rows)
        p, q = segments[:, 0], segments[:, 1]
        step = q - p
        w = step // np.gcd.reduce(step, axis=1)[:, None]
        keys, lo = _line_keys(p, w)
        hi = (q * w).sum(axis=1)
        order = np.lexsort((hi, lo, *keys.T[::-1]))
        keys, lo, hi = keys[order], lo[order], hi[order]
        ends = np.concatenate((lo, hi))
        by_value = np.argsort(ends, kind="stable")
        rank = np.empty(2 * n, dtype=np.int64)
        rank[by_value] = np.cumsum(_starts(ends[by_value]))  # dense, from 1
        packed = np.cumsum(_starts(keys)) * (2 * n)  # line number times 2n
        reach = np.maximum.accumulate(packed + rank[n:])
        starts = np.ones(n, dtype=bool)
        np.greater((packed + rank[:n])[1:], reach[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        d = segments.shape[2]
        turns = _starts(keys[:, :d])
        self.order, self.segments, self.lo, self.hi = order, segments[order], lo, hi
        self.directions = keys[turns, :d]
        self.run, self.run_first = np.cumsum(starts) - 1, np.concatenate((first, [n]))
        self.run_keys, self.run_lo, self.run_hi = keys[first], lo[first], np.maximum.reduceat(hi, first)
        return self

    def _runs_at(self, keys: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The run holding each query, a line key and a parameter along that
        line, or -1: one lexsort of the queries among the run starts, where
        each query meets the last run starting at or before it."""
        count = len(self.run_lo)
        table = np.concatenate((self.run_keys, keys))
        at = np.concatenate((self.run_lo, t))
        order = np.lexsort((np.arange(len(at)) >= count, at, *table.T[::-1]))
        queries = order >= count
        last = np.maximum.accumulate(np.where(queries, -1, order))
        found = np.empty(len(t), dtype=np.int64)
        found[order[queries] - count] = last[queries]
        held = (found >= 0) & (self.run_keys[found] == keys).all(axis=1) & (self.run_hi[found] >= t)
        return np.where(held, found, -1)

    def ids_through(self, points):
        """The segments whose closed support contains each lattice point.

        `points` is one point or an (m, d) array (or sequence) of them. A
        batch gets an (h, 2) array of (point number, segment row) hits in
        point order; one point, a batch of one, the list of its rows. Each
        (point, direction) is one `_runs_at` query.
        """
        single = np.ndim(points) == 1
        if len(self.rows):
            k = len(self.directions)
            grid = _query_grid(points, self.directions.shape[1])
            keys, t = _line_keys(np.repeat(grid, k, axis=0), np.tile(self.directions, (len(grid), 1)))
            runs = self._runs_at(keys, t)
            query = np.flatnonzero(runs >= 0)
            first, stop = self.run_first[runs[query]], self.run_first[runs[query] + 1]
            sizes = stop - first
            which = np.repeat(query, sizes)
            at = np.arange(sizes.sum()) + np.repeat(first - np.cumsum(sizes) + sizes, sizes)
            t = t[which]
            inside = (self.lo[at] <= t) & (t <= self.hi[at])
            hits = np.stack((which[inside] // k, self.order[at[inside]]), axis=1)
        else:
            hits = np.empty((0, 2), dtype=np.int64)
        return hits[:, 1].tolist() if single else hits

    def covers(self, p, q):
        """Whether the segment between lattice points p and q lies inside
        the union of collinear indexed segments.

        `p` and `q` are two points, or two (m, d) arrays of them: a batch
        gets a list of bools, in order, and one pair a bool. All pairs
        that are indexed rows, (p, q) or (q, p), are found by one sorted
        membership test among the rows; any other segment, such as a part
        or a displaced copy of a row, by looking up the run holding its
        lower end on its line, which must reach its upper end."""
        single = np.ndim(p) == 1
        if not len(self.rows):
            return False if single else [False] * len(p)
        grid = _query_grid((p, q) if single else np.concatenate((p, q)), self.rows.shape[2])
        p, q = np.split(grid, 2)
        indexed = self._indexed(p, q)
        answers = indexed.tolist()
        for i in np.flatnonzero(~indexed).tolist():
            answers[i] = self._reaches(p[i].tolist(), q[i].tolist())
        return answers[0] if single else answers

    @cached_property
    def _keyed(self) -> tuple:
        """The keys of the rows (`_segment_keys` on their span), sorted as
        the rows are, and that span."""
        low, base = _span(self.rows)
        keys, _ = _segment_keys(self.rows, low, base)
        return keys, low, base

    def _indexed(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Whether each segment pq, either way round, is an indexed row: its
        key is searched among the rows' sorted keys, and the row found
        must hold its ends. A pair off the rows' span may meet a row of
        another key, which that check refuses."""
        keys, low, base = self._keyed
        pairs = np.stack((p, q), axis=1)
        found, _ = _segment_keys(pairs.astype(np.result_type(pairs, keys), copy=False), low, base)
        row = self.rows[np.minimum(np.searchsorted(keys, found), len(keys) - 1)]
        return (row == pairs).all(axis=(1, 2)) | (row == pairs[:, ::-1]).all(axis=(1, 2))

    def _reaches(self, p: list, q: list) -> bool:
        """Whether the run holding the lower end of pq on its line reaches its upper end."""
        if p == q:  # a point: covered when a segment passes through it
            return bool(self.ids_through(p))
        if q < p:
            p, q = q, p
        step = [b - a for a, b in zip(p, q)]
        scale = math.lcm(*(Fraction(c).denominator for c in step))  # off the lattice: scale to ints
        step = [int(c * scale) for c in step]
        g = math.gcd(*step)
        grid = _query_grid((p, q, [c // g for c in step]), len(p))
        keys, t = _line_keys(grid[:2], grid[[2, 2]])
        run = self._runs_at(keys[:1], t[:1])[0]
        return bool(run >= 0 and self.run_hi[run] >= t[1])


def union_length(segments: Segments) -> Fraction:
    """Exact 1-dimensional measure of a union of axis-parallel segments.

    The sum of the run extents of the `SegmentIndex` of a `Segments` view,
    divided by D once. Raises UnsupportedGeometryError for any other
    segment, showing the first segment along the line of the first such
    row, and ParameterError for anything but a `Segments` view.
    """
    index = SegmentIndex(segments)
    if not len(index.rows):
        return Fraction(0)
    if any(sum(map(bool, w)) != 1 for w in index.directions.tolist()):
        skew = np.flatnonzero((index.rows[:, 0] != index.rows[:, 1]).sum(axis=1) != 1)[0]
        run = index.run[np.flatnonzero(index.order == skew)[0]]
        line = np.flatnonzero((index.run_keys == index.run_keys[run]).all(axis=1))[0]
        p, q = index.rows[index.order[index.run_first[line]]].tolist()
        shown = [[str(Fraction(v, index.lcm)) for v in point] for point in (p, q)]
        raise UnsupportedGeometryError(f"union_length requires axis-parallel segments, got {shown}")
    return Fraction(int((index.run_hi - index.run_lo).sum()), index.lcm)


def _joins(at: np.ndarray, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run pairs chaining the distinct runs at each point: each run to the
    one before it, given runs grouped by point and then by run."""
    join = (at[1:] == at[:-1]) & (runs[1:] != runs[:-1])
    return runs[:-1][join], runs[1:][join]


def join_runs(a: np.ndarray, b: np.ndarray, runs: int) -> int:
    """The number of components of the graph on `runs` runs whose edges are
    the run pairs (a[i], b[i])."""
    uf = UnionFind(runs)
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    return uf.components


def segment_components(segments: Segments) -> int:
    """Number of connected components of the segment union of a `Segments`
    view (anything else is a ParameterError).

    Two segments are joined when an endpoint of one lies on the other
    (exact test). For the subdivision skeletons built here, every contact
    between segments includes such an endpoint incidence, so this equals
    topological connectivity of the union.

    `join_runs` joins the runs of their `SegmentIndex`, each connected:
    collinear segments meet at an endpoint exactly when their intervals
    intersect. The endpoints, sorted by (point, run), chain the runs ending
    at each point. Where segments of every direction end at p, every run
    through p is among them; the other endpoints (T-junctions, tetra
    vertices) chain the runs that one batched `ids_through` finds.
    """
    index = SegmentIndex(segments)
    n = len(index.rows)
    if n == 0:
        return 0
    ends = index.segments.reshape(2 * n, -1)  # p, q of each sorted segment in turn
    run = index.run.repeat(2)
    order = np.lexsort((run, *ends.T[::-1]))
    ends, run = ends[order], run[order]
    new_point = _starts(ends)
    firsts = np.flatnonzero(new_point)
    a, b = _joins(np.cumsum(new_point), run)
    short = np.add.reduceat(new_point | _starts(run), firsts) < len(index.directions)
    if short.any():
        hits = index.ids_through(ends[firsts[short]])
        run_of_row = np.empty(n, dtype=np.int64)
        run_of_row[index.order] = index.run
        more_a, more_b = _joins(hits[:, 0], run_of_row[hits[:, 1]])
        a, b = np.concatenate((a, more_a)), np.concatenate((b, more_b))
    return join_runs(a, b, len(index.run_lo))
