"""Sierpinski carpet and gasket subdivision with removed-piece bookkeeping.

Both constructions keep track of two populations per stage: the cells still
in the fractal approximation, and the open pieces removed so far (the
bounded complement components of the limit set). Kept cells and removed
pieces together partition the starting cell exactly, which is what makes
the completed object an ordinary 2-dimensional square or triangle; the
fractal approximation itself is the topological boundary of the removed
interiors plus the unbounded outside. A stage holds its kept cells,
without addresses, as `BoxCells` (squares) or `Simplices` (triangles) and
its removed pieces as `Pieces`, built by the level loop `lattice_levels`
from the facts of its variant, stated once in `_VARIANTS`.

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

import numpy as np

from .errors import ParameterError
from .geometry import BoxCells, Cell, LatticeSequence, Loop, Segment, Simplex, Simplices, check_depth, common_lattice
from .geometry import lattice_group, lattice_levels, on_last_lattice, ring_segments, signed_area
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


def arrange(groups: dict, rows) -> list:
    """rows(members, xs, ys) makes one item per ring of a `lattice_group`
    group; all items of all groups in ring order."""
    if len(groups) == 1:
        (group,) = groups.values()
        return rows(*group)
    ordered = [None] * sum(len(members) for members, _, _ in groups.values())
    for members, xs, ys in groups.values():
        for i, item in zip(members, rows(members, xs, ys)):
            ordered[i] = item
    return ordered


class Pieces(LatticeSequence):
    """Removed pieces, held as rows (boundary ring, birth level, label): the
    rings on the lattice of D = `lcm` in `groups`, one `lattice_group` per
    vertex count whose positions are its rings' places in the rows, the
    birth levels and labels in their lists."""

    def __init__(self, lcm: int, groups: dict, births: list[int], labels: list[str]):
        self.lcm = lcm
        self.groups = groups
        self.births = births
        self.labels = labels

    @classmethod
    def of(cls, lcm: int, rows) -> "Pieces":
        """Pieces from rows (ring of lattice points, birth level, label) on
        the lattice of D = lcm, the rings laid out by vertex count."""
        rings = [ring for ring, _, _ in rows]
        groups = {}
        for k in dict.fromkeys(map(len, rings)):  # one `lattice_group` per vertex count
            members = [i for i, ring in enumerate(rings) if len(ring) == k]
            _, xs, ys = lattice_group(np.array([rings[i] for i in members], dtype=object))[k]
            groups[k] = members, xs, ys
        return cls(lcm, groups, [b for _, b, _ in rows], [label for _, _, label in rows])

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def rows(self) -> list:
        def rings(members, xs, ys) -> list:
            return list(zip(*[zip(x.tolist(), y.tolist()) for x, y in zip(xs, ys)]))

        return list(zip(arrange(self.groups, rings), self.births, self.labels))

    def _object(self, row, point, value) -> Piece:
        ring, birth_level, label = row
        return Piece(Loop(tuple(map(point.__getitem__, ring))), birth_level, label)


def _read_only(*rows) -> tuple:
    """Nested rows of ints as read-only int64 arrays: every depth-0 stage holds them."""
    arrays = tuple(np.array(row, np.int64) for row in rows)
    for array in arrays:
        array.flags.writeable = False
    return arrays


# kind -> (the view of its kept cells, its level-0 cell as that view's arrays
# and their D, the split of one step onto the scale-fold finer lattice, the
# scale, the children a cell keeps in it, the depth cap). The carpet starts
# from the unit square, the gasket from (0,0), (1,0), (1/2,1) on D = 2.
_VARIANTS = {
    CARPET: (BoxCells, _read_only([(0, 0)], [1]), 1, split_squares, 3, 8, CARPET_DEPTH_CAP),
    GASKET: (Simplices, _read_only([[(0, 0), (2, 0), (1, 2)]]), 2, split_triangles, 2, 3, GASKET_DEPTH_CAP),
}


def _variant(kind: str) -> tuple:
    try:
        return _VARIANTS[kind]
    except KeyError:
        raise ParameterError(f"unknown planar variant {kind!r} (expected carpet or gasket)") from None


@dataclass
class PieceSet:
    """Stage snapshot: kept cells at `level`, removed pieces of levels <= level.

    Both are views on one integer lattice: the kept cells `BoxCells` for the
    carpet and `Simplices` for the gasket, without addresses, the removed
    pieces `Pieces`. The constructor takes only such views, built from
    arrays; anything else is a ParameterError.
    """

    kind: str
    level: int
    kept: Sequence[PlanarCell]
    removed: Sequence[Piece]

    def __post_init__(self):
        self.kept, self.removed = common_lattice((_variant(self.kind)[0], self.kept), (Pieces, self.removed))


def base_cell(kind: str) -> PlanarCell:
    """The level-0 cell. Documents store no cell address, so cells keep the empty one."""
    view, base, lcm, *_ = _variant(kind)
    return view(lcm, (), *base)[0]


def build_planar(kind: str, depth: int, workers: int = 1) -> PieceSet:
    """Deterministic subdivision to the given depth.

    Carpet: each square splits 3x3 and the center square is removed.
    Gasket: each triangle splits at edge midpoints and the middle triangle
    is removed. Removed pieces keep their birth level and CCW boundary.
    The stage is built from the variant's level-0 arrays on the lattice of
    its level, D = 3^depth for the carpet and 2^(depth + 1) for the gasket,
    by `lattice_levels`. `workers` is accepted and ignored: the
    construction is sequential.
    """
    view, base, lcm, split, scale, _, cap = _variant(kind)
    check_depth(depth, cap, what=f"{kind} depth")
    rings = []
    for level in lattice_levels(lcm, base, split, scale, depth):
        kept = level[: len(base)]
        rings += level[len(base) :]
    births = [k for k, level_rings in enumerate(rings, 1) for _ in range(len(level_rings))]
    labels = [f"{k}:{i}" for k, level_rings in enumerate(rings, 1) for i in range(len(level_rings))]
    lcm *= scale**depth
    removed = lattice_group(on_last_lattice(rings, scale)) if rings else {}
    return PieceSet(kind, depth, view(lcm, (), *kept), Pieces(lcm, removed, births, labels))


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

    def shoelace_sum(lcm: int, groups: dict) -> Fraction:
        twice = sum(sum(twice_areas(xs, ys).tolist()) for _, xs, ys in groups.values())
        return Fraction(twice, 2 * lcm**2)

    kept = ps.kept
    if ps.kind == CARPET:
        kept_area = Fraction(sum(s * s for s in kept.sides.tolist()), kept.lcm**2)
    else:
        kept_area = shoelace_sum(kept.lcm, lattice_group(kept.vertices))
    return AreaAccount(kept_area=kept_area, removed_area=shoelace_sum(ps.removed.lcm, ps.removed.groups))


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
    """Standard self-similarity dimension, log children / log scale: log
    8/log 3 (carpet), log 3/log 2 (gasket)."""
    *_, scale, children, _ = _variant(kind)
    return math.log(children) / math.log(scale)
