"""Corner-cube wireframe and tetrahedral gasket constructions in 3-space.

Both variants build a connected 1-dimensional skeleton in R^3 and attach
the 2-dimensional cell faces of every stage as pieces.

cube_wireframe: each cube of side s is replaced by its 8 corner cubes of
side a*s (0 < a < 1/2); the skeleton accumulates the 12 edges of every
cell at every level, and the pieces are the 6 square faces of every cell
at every level.

tetra_gasket: each tetrahedron keeps its 4 corner half-scale copies
(fixed contraction 1/2, the higher-dimensional Sierpinski gasket); the
skeleton accumulates all cell edges and the pieces are the 4 triangular
faces of every cell. The base tetrahedron (0,0,0),(1,0,0),(0,1,0),(0,0,1)
has rational vertices so all coordinates stay exact.

Every piece's boundary edges lie in the skeleton of its birth level: the
face boundaries are loops in the wireframe, which is the defining
incidence property `boundary_incidence` verifies. Triangle areas involve
square roots, so faces store their exact squared area and take the root
only at reporting time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Union

from .errors import ParameterError
from .geometry import Cell, Point3, Segment, SegmentIndex, Simplex, area_vector, check_depth
from .geometry import geometric_sum, ring_edges, scale_factor, segment_components

CUBE_WIREFRAME = "cube_wireframe"
TETRA_GASKET = "tetra_gasket"

CUBE_DEPTH_CAP = 4
TETRA_DEPTH_CAP = 6

_TETRA_BASE = (
    Point3(Fraction(0), Fraction(0), Fraction(0)),
    Point3(Fraction(1), Fraction(0), Fraction(0)),
    Point3(Fraction(0), Fraction(1), Fraction(0)),
    Point3(Fraction(0), Fraction(0), Fraction(1)),
)


@dataclass(frozen=True)
class SpatialVariant:
    """Construction selector; `a` is required for cube_wireframe only."""

    kind: str
    a: Union[Fraction, None] = None

    def __post_init__(self):
        if self.kind == CUBE_WIREFRAME:
            if self.a is None:
                raise ParameterError("cube_wireframe requires a scale factor a")
            object.__setattr__(self, "a", scale_factor(self.a, allow_half=False))
        elif self.kind == TETRA_GASKET:
            if self.a is not None:
                raise ParameterError("tetra_gasket has fixed contraction 1/2; do not pass a")
        else:
            raise ParameterError(
                f"unknown spatial variant {self.kind!r} "
                f"(expected {CUBE_WIREFRAME} or {TETRA_GASKET})"
            )


@dataclass(frozen=True)
class Face3:
    """A planar square or triangle piece, outward-oriented at birth."""

    boundary: tuple[Point3, ...]
    birth_level: int
    area_sq: Fraction

    @classmethod
    def of(cls, boundary: tuple[Point3, ...], birth_level: int) -> "Face3":
        ax, ay, az = area_vector(boundary)
        return cls(tuple(boundary), birth_level, ax * ax + ay * ay + az * az)

    @property
    def area(self) -> float:
        return sqrt(self.area_sq)

    def edges(self) -> tuple[tuple[Point3, Point3], ...]:
        return tuple(ring_edges(self.boundary))


Cell3 = Union[Cell, Simplex]


@dataclass
class Stage3:
    """Cells at `level`, plus skeleton edges and face pieces of levels 0..level."""

    variant: SpatialVariant
    level: int
    cells: list[Cell3]
    skeleton: set[Segment] = field(repr=False)
    pieces: list[Face3] = field(repr=False)


def build_spatial(variant: SpatialVariant, depth: int, workers: int = 1) -> Stage3:
    """Subdivide to the given depth with canonical (address-sorted) ordering.

    Children are emitted parent by parent in letter order, so the cells
    stay in address order. `workers` is accepted and ignored.
    """
    cube = variant.kind == CUBE_WIREFRAME
    check_depth(depth, CUBE_DEPTH_CAP if cube else TETRA_DEPTH_CAP, what=f"{variant.kind} depth")
    if cube:
        root: Cell3 = Cell("", Point3(Fraction(0), Fraction(0), Fraction(0)), Fraction(1))
    else:
        root = Simplex("", _TETRA_BASE)
    cells: list[Cell3] = [root]
    skeleton: set[Segment] = set(root.edge_segments())
    pieces: list[Face3] = [Face3.of(ring, 0) for ring in root.faces()]
    for level in range(1, depth + 1):
        parents, cells = cells, []
        for cell in parents:
            for child in cell.children(variant.a) if cube else cell.children():
                cells.append(child)
                skeleton.update(child.edge_segments())
                pieces.extend(Face3.of(ring, level) for ring in child.faces())
    return Stage3(
        variant=variant,
        level=depth,
        cells=cells,
        skeleton=skeleton,
        pieces=pieces,
    )


@dataclass(frozen=True)
class SeriesMeasures:
    """Per-stage totals of skeleton edge length and face area.

    For cube_wireframe the sums are exact rationals: stage k contributes
    8^k cells with 12 edges of length a^k and 6 faces of area a^(2k), so
    the edge series converges iff 8a < 1 and the face series iff
    8 a^2 < 1 (boundary cases diverge), with limits 12/(1-8a) and
    6/(1-8a^2).

    For tetra_gasket the contraction is locked at 1/2: per-cell edge
    length involves sqrt(2) and the diagonal face sqrt(3), so the sums
    are reported as floats, and both series are infinite by construction
    (the edge series grows like 2^k per stage, the face series adds a
    constant per stage).
    """

    edge_length_sum: Union[Fraction, float]
    face_area_sum: Union[Fraction, float]
    edge_limit: Union[Fraction, None]
    area_limit: Union[Fraction, None]
    edge_finite: bool
    area_finite: bool


def series_measures(variant: SpatialVariant, n: int) -> SeriesMeasures:
    check_depth(n, what="stage count")
    if variant.kind == CUBE_WIREFRAME:
        a = variant.a
        edge_ratio = 8 * a
        area_ratio = 8 * a * a
        edge_sum = 12 * geometric_sum(edge_ratio, n)
        area_sum = 6 * geometric_sum(area_ratio, n)
        edge_finite = edge_ratio < 1
        area_finite = area_ratio < 1
        return SeriesMeasures(
            edge_length_sum=edge_sum,
            face_area_sum=area_sum,
            edge_limit=12 / (1 - edge_ratio) if edge_finite else None,
            area_limit=6 / (1 - area_ratio) if area_finite else None,
            edge_finite=edge_finite,
            area_finite=area_finite,
        )
    # tetra: 4^k cells, edge total (3 + 3 sqrt 2)/2^k each, face total
    # (3/2 + sqrt(3)/2)/4^k each
    edge_base = 3.0 + 3.0 * sqrt(2.0)
    area_base = 1.5 + sqrt(3.0) / 2.0
    edge_sum = edge_base * sum(2.0**k for k in range(n + 1))
    area_sum = area_base * (n + 1)
    return SeriesMeasures(
        edge_length_sum=edge_sum,
        face_area_sum=area_sum,
        edge_limit=None,
        area_limit=None,
        edge_finite=False,
        area_finite=False,
    )


def boundary_incidence(stage: Stage3) -> int:
    """Count face boundary edges not covered by the skeleton (expected: 0).

    Each edge must lie inside the union of collinear skeleton segments;
    the test is exact, so a face displaced off the edge lattice is caught.
    The skeleton's SegmentIndex costs O(n log n) to build and each
    `covers` query one bisect.
    """
    index = SegmentIndex(stage.skeleton)
    violations = 0
    for face in stage.pieces:
        for p, q in face.edges():
            if not index.covers(p, q):
                violations += 1
    return violations


def connectivity3(stage: Stage3) -> int:
    """Connected components of the skeleton union (expected: 1)."""
    return segment_components(stage.skeleton)
