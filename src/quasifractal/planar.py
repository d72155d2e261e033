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
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParameterError
from .geometry import Cell, Loop, Point2, Segment, Simplex, check_depth, lattice_rings, ring_segments
from .geometry import signed_area, simplex_children, to_lattice, twice_areas

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


@dataclass
class PieceSet:
    """Stage snapshot: kept cells at `level`, removed pieces of levels <= level."""

    kind: str
    level: int
    kept: list[PlanarCell]
    removed: list[Piece]


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
    `workers` is accepted and ignored: the construction is sequential.
    """
    base = base_cell(kind)
    cap = CARPET_DEPTH_CAP if kind == CARPET else GASKET_DEPTH_CAP
    check_depth(depth, cap, what=f"{kind} depth")
    subdivide = _carpet_children if kind == CARPET else _gasket_children
    kept: list[PlanarCell] = [base]
    removed: list[Piece] = []
    for level in range(1, depth + 1):
        parents, kept = kept, []
        new_loops: list[Loop] = []
        for cell in parents:
            children, loops = subdivide(cell)
            kept.extend(children)
            new_loops.extend(loops)
        removed.extend(Piece(loop, level, f"{level}:{i}") for i, loop in enumerate(new_loops))
    return PieceSet(kind=kind, level=depth, kept=kept, removed=removed)


@dataclass(frozen=True)
class AreaAccount:
    kept_area: Fraction
    removed_area: Fraction


def area_accounting(ps: PieceSet) -> AreaAccount:
    """Exact area split: kept + removed equals the level-0 cell area.

    Carpet kept area is (8/9)^level; gasket kept area is (3/4)^level * 1/2.
    Both sums run cell by cell, so criterion 5 checks those laws rather
    than assumes them. Each sum puts its sides or vertex rings on the
    integer lattice of D, the lcm of their denominators, adds integers
    and divides once: carpet cells give the sum of (side * D)^2 over D^2,
    triangles and removed rings the sum of their lattice shoelaces over
    2 * D^2.
    """

    def shoelace_sum(rings) -> Fraction:
        lcm, groups = lattice_rings(rings)
        twice = sum(sum(twice_areas(xs, ys).tolist()) for _, xs, ys in groups.values())
        return Fraction(twice, 2 * lcm * lcm)

    if ps.kind == CARPET:
        lcm, sides = to_lattice([cell.side for cell in ps.kept])
        kept_area = Fraction(sum(s * s for s in sides), lcm * lcm)
    else:
        kept_area = shoelace_sum([cell.vertices for cell in ps.kept])
    removed_area = shoelace_sum([piece.boundary.vertices for piece in ps.removed])
    return AreaAccount(kept_area=kept_area, removed_area=removed_area)


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
