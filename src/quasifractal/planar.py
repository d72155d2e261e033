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
from .geometry import Cell, LatticeSequence, Loop, Point2, Segment, Simplex, check_depth, common_lattice
from .geometry import lattice_groups, lattice_rows, lattice_subdivision, ring_segments, signed_area
from .geometry import split_squares, split_triangles, twice_areas

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


class _Rings(LatticeSequence):
    """Objects held by rings of lattice points, in the `lattice_groups`
    arrays `groups` on the lattice of D = `lcm`. `len` reads the arrays;
    the rows are read from them on first use."""

    def __init__(self, lcm: int, groups: dict):
        self.lcm = lcm
        self.groups = groups

    def __len__(self) -> int:
        return sum(len(members) for members, _, _ in self.groups.values())

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

    @staticmethod
    def _groups(rings) -> dict:
        """The `lattice_groups` layout of rings of lattice points."""
        return lattice_groups([c for ring in rings for p in ring for c in p], [len(ring) for ring in rings])

    def _rings(self) -> list:
        """Each ring as a tuple of lattice points, in ring order."""

        def rings(members, xs, ys) -> list:
            return list(zip(*[zip(x.tolist(), y.tolist()) for x, y in zip(xs, ys)]))

        return self.arrange(rings)


class Cells(_Rings):
    """Kept cells, held as rings: a square by its corner and its diagonal
    (side, side), a triangle by its vertices."""

    @classmethod
    def of(cls, lcm: int, rows) -> "Cells":
        return cls(lcm, cls._groups(rows))

    @cached_property
    def rows(self) -> list:
        return self._rings()

    @staticmethod
    def row(cell: PlanarCell, f) -> tuple:
        if isinstance(cell, Cell):
            corner, side = tuple(map(f, cell.corner)), f(cell.side)
            return corner, (side, side)
        return tuple(tuple(map(f, v)) for v in cell.vertices)

    def _object(self, row, point, value) -> PlanarCell:
        if len(row) == 2:  # a square's corner and diagonal
            corner, (side, _) = row
            return Cell("", point[corner], value[side])
        return Simplex("", tuple(map(point.__getitem__, row)))


class Pieces(_Rings):
    """Removed pieces, held as rows (boundary ring, birth level, label);
    the rings live in `groups`, the birth levels and labels in their lists."""

    def __init__(self, lcm: int, groups: dict, births: list[int], labels: list[str]):
        super().__init__(lcm, groups)
        self.births = births
        self.labels = labels

    @classmethod
    def of(cls, lcm: int, rows) -> "Pieces":
        groups = cls._groups([ring for ring, _, _ in rows])
        return cls(lcm, groups, [b for _, b, _ in rows], [label for _, _, label in rows])

    @cached_property
    def rows(self) -> list:
        return list(zip(self._rings(), self.births, self.labels))

    @staticmethod
    def row(piece: Piece, f) -> tuple:
        return tuple(tuple(map(f, v)) for v in piece.boundary.vertices), piece.birth_level, piece.label

    def _object(self, row, point, value) -> Piece:
        ring, birth_level, label = row
        return Piece(Loop(tuple(map(point.__getitem__, ring))), birth_level, label)


@dataclass
class PieceSet:
    """Stage snapshot: kept cells at `level`, removed pieces of levels <= level.

    Both are views on one integer lattice, `Cells` and `Pieces`. Given
    lists of cell and piece objects instead, the constructor puts them on
    the lattice of their denominators.
    """

    kind: str
    level: int
    kept: Sequence[PlanarCell]
    removed: Sequence[Piece]

    def __post_init__(self):
        self.kept, self.removed = common_lattice((Cells, self.kept), (Pieces, self.removed))


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
    lcm, (cells,) = lattice_rows((Cells.row, [base]))
    split, scale = (split_squares, 3) if kind == CARPET else (split_triangles, 2)
    kept, removed, counts = lattice_subdivision(cells, split, scale, depth)
    births = [level for level, count in enumerate(counts, 1) for _ in range(count)]
    labels = [f"{level}:{i}" for level, count in enumerate(counts, 1) for i in range(count)]
    lcm *= scale**depth
    return PieceSet(kind, depth, Cells(lcm, kept), Pieces(lcm, removed, births, labels))


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
