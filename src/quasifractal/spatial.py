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

A stage is built on the integer lattice of its level (`lattice_levels`),
D = q^depth for a = p/q and 2^depth for the tetrahedron: cells, skeleton
edges and faces are numpy arrays of lattice ints, int64 while D fits
int64 and Python ints (object dtype) above it, and a face's squared area is
|sum of p x q over its edges|^2 / (4 D^4), one Fraction per distinct
integer.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from math import sqrt
from typing import Union

import numpy as np

from .errors import ParameterError
from .geometry import BOX_OUTLINE, SIMPLEX_OUTLINE, BoxCells, Cell, LatticeSequence, LatticeTable, Point3
from .geometry import Segment, SegmentIndex, Segments, Simplex, Simplices, box_grid, cell_outline, check_depth
from .geometry import common_lattice, distinct_segments, geometric_sum, lattice_levels, on_last_lattice
from .geometry import ring_edges, scale_factor, segment_components, split_boxes, split_simplices, twice_area_squares

CUBE_WIREFRAME = "cube_wireframe"
TETRA_GASKET = "tetra_gasket"

CUBE_DEPTH_CAP = 4
TETRA_DEPTH_CAP = 6

_TETRA_BASE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


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

    @property
    def area(self) -> float:
        return sqrt(self.area_sq)

    def edges(self) -> tuple[tuple[Point3, Point3], ...]:
        return tuple(ring_edges(self.boundary))


class Faces(LatticeSequence):
    """Faces, held as their (N, k, d) boundary rings, (N,) birth levels and
    (N,) squared areas times 4 D^4 (for built faces, `twice_area_squares`)."""

    def __init__(self, lcm: int, rings, births, areas):
        self.lcm = lcm
        self.rings = rings
        self.births = births
        self.areas = areas

    def __len__(self) -> int:
        return len(self.births)

    @cached_property
    def rows(self) -> list:
        area_sq = LatticeTable(lambda n: Fraction(n, 4 * self.lcm**4))
        rings = [tuple(map(tuple, ring)) for ring in self.rings.tolist()]
        return list(zip(rings, self.births.tolist(), area_sq.column(self.areas)))

    def _object(self, row, point, value) -> Face3:
        ring, birth_level, area_sq = row
        return Face3(tuple(map(point.__getitem__, ring)), birth_level, area_sq)


Cell3 = Union[Cell, Simplex]


@dataclass
class Stage3:
    """Cells at `level`, plus skeleton edges and face pieces of levels 0..level.

    The three are views on one integer lattice (`BoxCells` or `Simplices`,
    `Segments` and `Faces`) and build their objects only when asked. The
    constructor takes only such views, built from arrays; anything else is
    a ParameterError.
    """

    variant: SpatialVariant
    level: int
    cells: Sequence[Cell3]
    skeleton: Set[Segment] = field(repr=False)
    pieces: Sequence[Face3] = field(repr=False)

    def __post_init__(self):
        cells = BoxCells if self.variant.kind == CUBE_WIREFRAME else Simplices
        self.cells, self.skeleton, self.pieces = common_lattice(
            (cells, self.cells), (Segments, self.skeleton), (Faces, self.pieces)
        )


def build_spatial(variant: SpatialVariant, depth: int, workers: int = 1) -> Stage3:
    """Subdivide to the given depth with canonical (address-sorted) ordering.

    Level k runs on its own lattice in `lattice_levels`, q^k for a = p/q
    (`split_boxes`) and 2^k for the tetrahedron (`split_simplices`), and
    its edges and faces are scaled to the last level's. Every array is
    int64 while that lattice's D fits int64 and holds Python ints above
    it. Children are emitted parent by parent in letter order, so the
    cells stay in address order. `workers` is accepted and ignored.
    """
    cube = variant.kind == CUBE_WIREFRAME
    check_depth(depth, CUBE_DEPTH_CAP if cube else TETRA_DEPTH_CAP, what=f"{variant.kind} depth")
    if cube:
        scale, split, outline = variant.a.denominator, partial(split_boxes, a=variant.a), BOX_OUTLINE[3]
        base = (np.zeros((1, 3), np.int64), np.ones(1, np.int64))
    else:
        scale, split, outline = 2, lambda simplices: (split_simplices(simplices),), SIMPLEX_OUTLINE[4]
        base = (np.array([_TETRA_BASE], np.int64),)
    edges, faces = [], []
    for cells in lattice_levels(1, base, split, scale, depth):
        level_edges, level_faces = cell_outline(box_grid(*cells) if cube else cells[0], *outline)
        edges.append(level_edges)
        faces.append(level_faces)
    rings = on_last_lattice(faces, scale)
    births = np.repeat(np.arange(depth + 1), [len(level_faces) for level_faces in faces])
    addresses = list(map("".join, product("01234567" if cube else "0123", repeat=depth)))
    lcm = scale**depth
    return Stage3(
        variant=variant,
        level=depth,
        cells=BoxCells(lcm, addresses, *cells) if cube else Simplices(lcm, addresses, *cells),
        skeleton=Segments(lcm, distinct_segments(on_last_lattice(edges, scale))),
        pieces=Faces(lcm, rings, births, twice_area_squares(rings)),
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
    the test is exact, on the stage's lattice, so a face displaced off the
    edge lattice is caught. The skeleton keeps one SegmentIndex, built in
    O(n log n) on first use and shared with `connectivity3`, and every
    face edge goes to one batched `covers` call. Every face edge of a built
    stage is itself a skeleton row, which `covers` finds by one sorted
    membership test for all of them; any other edge costs one run-table
    lookup.
    """
    rings = stage.pieces.rings
    _, k, d = rings.shape
    ends = rings.reshape(-1, d), rings[:, [*range(1, k), 0]].reshape(-1, d)  # each vertex and its successor
    return SegmentIndex(stage.skeleton).covers(*ends).count(False)


def connectivity3(stage: Stage3) -> int:
    """Connected components of the skeleton union (expected: 1)."""
    return segment_components(stage.skeleton)
