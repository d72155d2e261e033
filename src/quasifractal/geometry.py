"""Exact rational primitives for planar and spatial subdivision geometry.

All coordinates are `fractions.Fraction`, so every predicate here is decided
by integer arithmetic: no epsilons, no floating point. The only floating
point surface in the whole package is logarithms (dimensions) and the
Toeplitz numerics. Points, segments and loops are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    MalformedLoopError,
    ParameterError,
    UnsupportedGeometryError,
)
from .unionfind import UnionFind

Rational = Fraction

# point_in_polygon classifications
INSIDE = "inside"
OUTSIDE = "outside"
BOUNDARY = "boundary"


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"not a rational number: {value!r}") from exc


def geometric_sum(r: Fraction, n: int) -> Fraction:
    """Exact sum of r^k for k = 0..n by the closed form (1 - r^(n+1)) / (1 - r)."""
    if r == 1:
        return Fraction(n + 1)
    return (1 - r ** (n + 1)) / (1 - r)


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    @property
    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, k: Fraction) -> "Point2":
        return Point2(self.x * k, self.y * k)


@dataclass(frozen=True)
class Point3:
    x: Fraction
    y: Fraction
    z: Fraction

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, k: Fraction) -> "Point3":
        return Point3(self.x * k, self.y * k, self.z * k)


Point = Union[Point2, Point3]


def midpoint(p: Point, q: Point) -> Point:
    half = Fraction(1, 2)
    return (p + q).scaled(half)


@dataclass(frozen=True)
class Segment:
    """An unordered pair of distinct points, stored in canonical order.

    The constructor sorts the endpoints lexicographically, so structurally
    equal segments compare and hash equal regardless of the order they were
    built with. That canonical form is what stage skeletons deduplicate on.
    """

    a: Point
    b: Point

    def __post_init__(self):
        if self.a.coords == self.b.coords:
            raise ParameterError(f"degenerate segment at {self.a}")
        if self.b.coords < self.a.coords:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def sort_key(self):
        return (self.a.coords, self.b.coords)


def ring_segments(vertices: Sequence[Point]) -> tuple[Segment, ...]:
    """The segments of a closed vertex ring, the last vertex joined to the first."""
    n = len(vertices)
    return tuple(Segment(vertices[i], vertices[(i + 1) % n]) for i in range(n))


@dataclass(frozen=True)
class Loop:
    """A closed, oriented polygonal curve (last vertex connects to first)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise MalformedLoopError("a loop needs at least 3 vertices")
        n = len(verts)
        for i in range(n):
            if verts[i].coords == verts[(i + 1) % n].coords:
                raise MalformedLoopError(
                    f"consecutive duplicate vertex at position {i}"
                )

    @property
    def orientation(self) -> int:
        """+1 for counterclockwise, -1 for clockwise, 0 if degenerate."""
        area = signed_area(self)
        return (area > 0) - (area < 0)

    def edges(self) -> Iterable[tuple[Point2, Point2]]:
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            yield verts[i], verts[(i + 1) % n]


def signed_area(loop: Loop) -> Fraction:
    """Exact shoelace area; positive for counterclockwise loops."""
    verts = loop.vertices
    if len(verts) < 3:
        raise MalformedLoopError("a loop needs at least 3 vertices")
    total = Fraction(0)
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return total / 2


def area_vector(points: Sequence[Point3]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact area vector of a planar polygon in 3-space.

    Half the sum of the edge cross products: normal to the polygon, as long as its area.
    """
    ax = ay = az = Fraction(0)
    n = len(points)
    for i in range(n):
        p, q = points[i].coords, points[(i + 1) % n].coords
        ax += p[1] * q[2] - p[2] * q[1]
        ay += p[2] * q[0] - p[0] * q[2]
        az += p[0] * q[1] - p[1] * q[0]
    return (ax / 2, ay / 2, az / 2)


def cross2(o: Point2, a: Point2, b: Point2) -> Fraction:
    """Cross product of (a - o) and (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (b.x - o.x) * (a.y - o.y)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact test for p lying on the closed segment from a to b."""
    pc, ac, bc = p.coords, a.coords, b.coords
    d = tuple(bi - ai for ai, bi in zip(ac, bc))
    r = tuple(pi - ai for ai, pi in zip(ac, pc))
    # collinearity: r x d = 0 componentwise (2D reduces to one term)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if r[i] * d[j] - r[j] * d[i] != 0:
                return False
    dot = sum(ri * di for ri, di in zip(r, d))
    return 0 <= dot <= sum(di * di for di in d)


def point_in_polygon(loop: Loop, p: Point2) -> str:
    """Classify p against a simple loop: INSIDE, OUTSIDE, or BOUNDARY.

    Exact crossing parity with rational arithmetic. Behavior on
    self-intersecting loops is unspecified; degenerate (zero-area) loops
    raise MalformedLoopError.
    """
    if signed_area(loop) == 0:
        raise MalformedLoopError("degenerate loop has no interior")
    for a, b in loop.edges():
        if on_segment(p, a, b):
            return BOUNDARY
    inside = False
    for a, b in loop.edges():
        if (a.y > p.y) != (b.y > p.y):
            # x-coordinate where the edge crosses the horizontal line y = p.y
            x = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if x > p.x:
                inside = not inside
    return INSIDE if inside else OUTSIDE


def _line_key(p: Point, q: Point):
    """Canonical (direction, base-point) key for the line through p and q.

    The direction is scaled so its first nonzero component is 1, and the
    base point is the point on the line whose pivot coordinate is 0. Two
    segments are collinear iff their keys are equal; the pivot coordinate
    of a point then serves as its 1D parameter along the line.
    """
    pc, qc = p.coords, q.coords
    d = tuple(qi - pi for pi, qi in zip(pc, qc))
    pivot = next(i for i, di in enumerate(d) if di != 0)
    u = tuple(di / d[pivot] for di in d)
    t0 = pc[pivot]
    base = tuple(pi - t0 * ui for pi, ui in zip(pc, u))
    return (u, base), pivot


def merge_intervals(
    intervals: Iterable[tuple[Fraction, Fraction]],
) -> list[tuple[Fraction, Fraction]]:
    """Merge closed 1D intervals into maximal disjoint ones (touching merges)."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def union_length(segments: Iterable[Segment]) -> Fraction:
    """Exact 1-dimensional measure of a union of axis-parallel segments.

    Segments are grouped by carrier line, overlapping intervals are merged,
    and the merged lengths are summed; overlaps are therefore counted once.
    Raises UnsupportedGeometryError for any non-axis-parallel segment.
    """
    lines: dict = {}
    for seg in segments:
        d = tuple(bi - ai for ai, bi in zip(seg.a.coords, seg.b.coords))
        if sum(1 for di in d if di != 0) != 1:
            raise UnsupportedGeometryError(
                f"union_length requires axis-parallel segments, got {seg}"
            )
        key, pivot = _line_key(seg.a, seg.b)
        ta, tb = seg.a.coords[pivot], seg.b.coords[pivot]
        lines.setdefault(key, []).append((min(ta, tb), max(ta, tb)))
    total = Fraction(0)
    for intervals in lines.values():
        for lo, hi in merge_intervals(intervals):
            total += hi - lo
    return total


class SegmentIndex:
    """Carrier-line index over a fixed set of segments.

    Supports two exact queries used throughout the constructions: which
    segments pass through a point, and whether a query segment is covered
    by the union of collinear indexed segments.
    """

    def __init__(self, segments: Iterable[Segment]):
        self.segments: list[Segment] = list(segments)
        self._lines: dict = {}
        self.directions: set = set()
        for idx, seg in enumerate(self.segments):
            key, pivot = _line_key(seg.a, seg.b)
            ta, tb = seg.a.coords[pivot], seg.b.coords[pivot]
            self._lines.setdefault(key, []).append((min(ta, tb), max(ta, tb), idx))
            self.directions.add(key[0])
        self._merged: dict = {}
        for key, entries in self._lines.items():
            entries.sort()
            self._merged[key] = merge_intervals([(lo, hi) for lo, hi, _ in entries])

    def ids_through(self, p: Point) -> list[int]:
        """Indices of all segments whose closed support contains p."""
        pc = p.coords
        found: list[int] = []
        for u in self.directions:
            pivot = next(i for i, ui in enumerate(u) if ui != 0)
            t = pc[pivot]
            base = tuple(pi - t * ui for pi, ui in zip(pc, u))
            for lo, hi, idx in self._lines.get((u, base), ()):
                if lo <= t <= hi:
                    found.append(idx)
        return found

    def covers(self, p: Point, q: Point) -> bool:
        """True iff segment pq lies inside the union of collinear indexed segments."""
        key, pivot = _line_key(p, q)
        merged = self._merged.get(key)
        if not merged:
            return False
        ta, tb = p.coords[pivot], q.coords[pivot]
        lo, hi = min(ta, tb), max(ta, tb)
        i = self._locate(merged, lo)
        return i is not None and merged[i][1] >= hi

    @staticmethod
    def _locate(merged: Sequence[tuple[Fraction, Fraction]], t: Fraction):
        lo, hi = 0, len(merged) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if merged[mid][0] <= t:
                if merged[mid][1] >= t:
                    return mid
                lo = mid + 1
            else:
                hi = mid - 1
        return None


def segment_components(segments: Iterable[Segment]) -> int:
    """Number of connected components of a segment union.

    Two segments are joined when an endpoint of one lies on the other
    (exact test). For the subdivision skeletons built here, every contact
    between segments includes such an endpoint incidence, so this equals
    topological connectivity of the union.
    """
    index = SegmentIndex(segments)
    n = len(index.segments)
    if n == 0:
        return 0
    uf = UnionFind(n)
    for idx, seg in enumerate(index.segments):
        for endpoint in (seg.a, seg.b):
            for other in index.ids_through(endpoint):
                if other != idx:
                    uf.union(idx, other)
    return uf.components
