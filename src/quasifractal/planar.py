"""Sierpinski carpet and gasket subdivision with removed-piece bookkeeping.

Both constructions keep track of two populations per stage: the cells still
in the fractal approximation, and the open pieces removed so far (the
bounded complement components of the limit set). Kept cells and removed
pieces together partition the starting cell exactly, which is what makes
the completed object an ordinary 2-dimensional square or triangle; the
fractal approximation itself is the topological boundary of the removed
interiors plus the unbounded outside.

The gasket uses the base triangle (0,0), (1,0), (1/2,1): the statements
being tracked are affine-invariant, and rational vertices keep every
computation exact (an equilateral base would force irrational heights).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import ParameterError
from .geometry import Cell, LatticeTable, Loop, Point2, Segment, Simplex, check_depth, lattice_groups
from .geometry import lattice_subdivision, ring_segments, signed_area, split_squares, split_triangles
from .geometry import to_lattice, twice_areas

CARPET = "carpet"
GASKET = "gasket"

CARPET_DEPTH_CAP = 7
GASKET_DEPTH_CAP = 12

PlanarCell = Union[Cell, Simplex]


@dataclass(frozen=True)
class Piece:
    """A removed complement component: CCW boundary loop plus birth level."""

    boundary: Loop
    birth_level: int
    label: str

    @property
    def area(self) -> Fraction:
        return signed_area(self.boundary)


class _OnLattice(Sequence):
    """Cells or pieces held on the integer lattice of D = `lcm`.

    `groups` is the `lattice_groups` layout: for each vertex count k, the
    positions of the rings with k vertices and their coordinates times D as
    two (k, count) arrays. `len` reads the arrays; the objects are built
    from them on first use.
    """

    def __init__(self, lcm: int, groups: dict):
        self.lcm = lcm
        self.groups = groups

    def __len__(self) -> int:
        return sum(len(members) for members, _, _ in self.groups.values())

    def __getitem__(self, i):
        return self._objects[i]

    def __iter__(self):
        return iter(self._objects)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lcm={self.lcm}, count={len(self)})"

    def _key(self) -> tuple:
        groups = [(k, list(m), xs.tolist(), ys.tolist()) for k, (m, xs, ys) in self.groups.items()]
        return self.lcm, sorted(groups)

    def arrange(self, rows) -> list:
        """rows(members, xs, ys) makes one item per ring of a group; all items in ring order."""
        if len(self.groups) == 1:
            (group,) = self.groups.values()
            return rows(*group)
        ordered = [None] * len(self)
        for members, xs, ys in self.groups.values():
            for i, item in zip(members, rows(members, xs, ys)):
                ordered[i] = item
        return ordered

    def _rings(self) -> list:
        """Each ring as a tuple of points, in ring order."""
        value = LatticeTable(lambda v: Fraction(v, self.lcm))

        def points(members, xs, ys):
            slots = [map(Point2, value.column(x), value.column(y)) for x, y in zip(xs, ys)]
            return list(zip(*slots))

        return self.arrange(points)


class Cells(_OnLattice):
    """Kept cells on the lattice, each held by the points of `_lattice_ring`."""

    def __init__(self, kind: str, lcm: int, groups: dict):
        super().__init__(lcm, groups)
        self.kind = kind

    @cached_property
    def _objects(self) -> list[PlanarCell]:
        if self.kind == CARPET:
            return [Cell("", corner, diagonal.x) for corner, diagonal in self._rings()]
        return [Simplex("", ring) for ring in self._rings()]


class Pieces(_OnLattice):
    """Removed pieces on the lattice: boundary rings, birth levels and labels, in order."""

    def __init__(self, lcm: int, groups: dict, births: list[int], labels: list[str]):
        super().__init__(lcm, groups)
        self.births = births
        self.labels = labels

    def _key(self) -> tuple:
        return super()._key(), self.births, self.labels

    @cached_property
    def _objects(self) -> list[Piece]:
        rings = self._rings()
        return [Piece(Loop(r), b, label) for r, b, label in zip(rings, self.births, self.labels)]


@dataclass
class PieceSet:
    """Stage snapshot: kept cells at `level`, removed pieces of levels <= level.

    Both live on one integer lattice, as `Cells` and `Pieces`. Given lists
    of cell and piece objects instead, the constructor puts them on it.
    Equal piece sets have equal kind, level and lattice arrays.
    """

    kind: str
    level: int
    kept: Sequence[PlanarCell]
    removed: Sequence[Piece]

    def __post_init__(self):
        if isinstance(self.kept, Cells) and isinstance(self.removed, Pieces):
            return
        kept = [_lattice_ring(self.kind, cell) for cell in self.kept]
        removed = list(self.removed)
        rings = kept + [piece.boundary.vertices for piece in removed]
        lcm, ints = to_lattice([c for ring in rings for p in ring for c in p])
        births = [piece.birth_level for piece in removed]
        labels = [piece.label for piece in removed]
        counts = [len(ring) for ring in rings]
        self.kept, self.removed = on_lattice(self.kind, lcm, ints, counts, len(kept), births, labels)


def _lattice_ring(kind: str, cell: PlanarCell) -> tuple:
    """The points that hold a kept cell on the lattice: a square's corner and
    its diagonal (side, side), a triangle's vertices."""
    return (cell.corner, Point2(cell.side, cell.side)) if kind == CARPET else cell.vertices


def on_lattice(kind, lcm, ints, counts, kept_count, births, labels) -> tuple[Cells, Pieces]:
    """Kept cells and removed pieces from their coordinates times D = lcm,
    x then y, point after point: counts[i] points in ring i, the first
    `kept_count` rings the kept cells' (see `_lattice_ring`)."""
    cut = 2 * sum(counts[:kept_count])
    return (
        Cells(kind, lcm, lattice_groups(ints[:cut], counts[:kept_count])),
        Pieces(lcm, lattice_groups(ints[cut:], counts[kept_count:]), births, labels),
    )


def base_cell(kind: str) -> PlanarCell:
    """The level-0 cell. Documents store no cell address, so cells keep the empty one."""
    if kind == CARPET:
        return Cell("", Point2(Fraction(0), Fraction(0)), Fraction(1))
    if kind == GASKET:
        return Simplex(
            "",
            (
                Point2(Fraction(0), Fraction(0)),
                Point2(Fraction(1), Fraction(0)),
                Point2(Fraction(1, 2), Fraction(1)),
            ),
        )
    raise ParameterError(f"unknown planar variant {kind!r} (expected carpet or gasket)")


def build_planar(kind: str, depth: int, workers: int = 1) -> PieceSet:
    """Deterministic subdivision to the given depth.

    Carpet: each square splits 3x3 and the center square is removed.
    Gasket: each triangle splits at edge midpoints and the middle triangle
    is removed. Removed pieces keep their birth level and CCW boundary.
    The stage is built on the lattice of its level, D = 3^depth for the
    carpet and 2^(depth + 1) for the gasket, children parent by parent.
    `workers` is accepted and ignored: the construction is sequential.
    """
    base = base_cell(kind)
    cap = CARPET_DEPTH_CAP if kind == CARPET else GASKET_DEPTH_CAP
    check_depth(depth, cap, what=f"{kind} depth")
    lcm, ints = to_lattice([c for p in _lattice_ring(kind, base) for c in p])
    split, scale = (split_squares, 3) if kind == CARPET else (split_triangles, 2)
    cells = [list(zip(ints[0::2], ints[1::2]))]
    kept, removed, counts = lattice_subdivision(cells, split, scale, depth)
    births = [level for level, count in enumerate(counts, 1) for _ in range(count)]
    labels = [f"{level}:{i}" for level, count in enumerate(counts, 1) for i in range(count)]
    lcm *= scale**depth
    return PieceSet(kind, depth, Cells(kind, lcm, kept), Pieces(lcm, removed, births, labels))


@dataclass(frozen=True)
class AreaAccount:
    kept_area: Fraction
    removed_area: Fraction


def area_accounting(ps: PieceSet) -> AreaAccount:
    """Exact area split: kept + removed equals the level-0 cell area.

    Carpet kept area is (8/9)^level; gasket kept area is (3/4)^level * 1/2.
    Both sums run cell by cell, so criterion 5 checks those laws rather
    than assumes them. They read the lattice arrays of D, add integers and
    divide once: carpet cells give the sum of (side * D)^2 over D^2,
    triangles and removed rings the sum of their lattice shoelaces over
    2 * D^2.
    """

    def shoelace_sum(block) -> Fraction:
        twice = sum(sum(twice_areas(xs, ys).tolist()) for _, xs, ys in block.groups.values())
        return Fraction(twice, 2 * block.lcm**2)

    if ps.kind == CARPET:
        sides = [s for _, xs, _ in ps.kept.groups.values() for s in xs[1].tolist()]
        kept_area = Fraction(sum(s * s for s in sides), ps.kept.lcm**2)
    else:
        kept_area = shoelace_sum(ps.kept)
    return AreaAccount(kept_area=kept_area, removed_area=shoelace_sum(ps.removed))


def boundary_of_rest(ps: PieceSet) -> set[Segment]:
    """Boundary segments of the removed pieces plus the outer boundary.

    At stage n this is the stage-n approximation of the fractal as the
    topological boundary of the open complement (removed interiors plus
    the unbounded outside).
    """
    segments: set[Segment] = set(ring_segments(*base_cell(ps.kind).faces()))
    for piece in ps.removed:
        segments.update(ring_segments(piece.boundary.vertices))
    return segments


def similarity_dimension(kind: str) -> float:
    """Standard self-similarity dimension: log 8/log 3 (carpet), log 3/log 2 (gasket)."""
    if kind == CARPET:
        return math.log(8.0) / math.log(3.0)
    if kind == GASKET:
        return math.log(3.0) / math.log(2.0)
    raise ParameterError(f"unknown planar variant {kind!r} (expected carpet or gasket)")
