"""Corner-squares Cantor construction with retained stage boundaries.

Starting from the unit square, every stage replaces each square of side s
with its four corner squares of side a*s, where 0 < a <= 1/2. The square
boundaries from every stage are kept, so a stage carries both the 4^n
level-n cells and the accumulated segment skeleton; the whole object
(cells shrinking toward the Cantor dust, plus the countable family of
kept boundary segments) is compact and connected.

For a < 1/2 the limit of the cells is a Cantor set of Hausdorff dimension
log 4 / (-log a); at a = 1/2 the cells tile the unit square and the limit
is the square itself. The per-stage perimeter total forms a geometric
series with ratio 4a, so the summed boundary length over all stages is
finite exactly when a < 1/4. Note the per-stage perimeter sum counts
every stage's full perimeters with multiplicity; because child edges
partially overlap parent edges, the 1D measure computed by
`geometry.union_length` is strictly smaller from level 1 on.

A stage is built on the integer lattice of its level, D = q^level for
a = p/q: its cells and segments are numpy arrays of lattice ints, int64
while D fits int64 and Python ints (object dtype) above it, and each
`refine` is a few array steps over the whole level.
"""

from __future__ import annotations

import math
from collections.abc import Sequence, Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Union

import numpy as np

from .errors import CapacityError
from .geometry import BOX_OUTLINE, BoxCells, Cell, Segment, Segments, box_grid, cell_outline, check_depth
from .geometry import common_lattice, distinct_segments, geometric_sum, lattice_levels, scale_factor
from .geometry import segment_components, split_boxes

DEPTH_CAP = 10


@dataclass(frozen=True)
class Params2:
    """Scale factor and target depth for the planar construction.

    a = 1/2 is accepted as the explicit limiting case in which the corner
    squares tile their parent.
    """

    a: Fraction
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "a", scale_factor(self.a, allow_half=True))
        check_depth(self.depth)


@dataclass
class Stage2:
    """Complete population at one level: cells plus all retained boundaries.

    `segments` holds the canonical boundary segments of every cell of
    levels 0..level, including the unit-square boundary; `cells` is in
    lexicographic address order. Both are views on one integer lattice
    (`BoxCells` and `Segments`), D = q^level for a = p/q, and build their
    `Cell` and `Segment` objects only when asked. The constructor takes
    only such views, built from arrays; anything else is a ParameterError.
    """

    params: Params2
    level: int
    cells: Sequence[Cell]
    segments: Set[Segment] = field(repr=False)

    def __post_init__(self):
        self.cells, self.segments = common_lattice((BoxCells, self.cells), (Segments, self.segments))


def level0(a: Union[Fraction, str, int]) -> Stage2:
    a = scale_factor(a, allow_half=True)
    corners, sides = np.zeros((1, 2), dtype=np.int64), np.ones(1, dtype=np.int64)
    edges = np.array([[(0, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 1), (1, 1)], [(1, 0), (1, 1)]])  # in segment order
    return Stage2(Params2(a, 0), 0, BoxCells(1, [""], corners, sides), Segments(1, edges))


def refine(stage: Stage2) -> Stage2:
    """One subdivision step: each cell is replaced by its 4 corner children.

    The stage moves from its lattice of D to that of D * q (`lattice_levels`),
    int64 while D * q fits int64 and the stage's arrays are, else Python ints.
    The children's boundaries join the retained segments, which stay
    distinct and in the one segment order (`distinct_segments`), and the
    input stage is left unchanged. Children are emitted parent by parent in
    letter order, so the cells stay in address order.
    """
    if stage.level >= DEPTH_CAP:
        raise CapacityError(f"depth cap {DEPTH_CAP} reached at level {stage.level}")
    a = stage.params.a
    q = a.denominator
    cells, segments = stage.cells, stage.segments.grid
    *_, (corners, sides) = lattice_levels(cells.lcm, (cells.corners, cells.sides), partial(split_boxes, a=a), q, 1)
    edges, _ = cell_outline(box_grid(corners, sides), *BOX_OUTLINE[2])
    segments = distinct_segments(np.concatenate((segments.astype(np.result_type(segments, corners)) * q, edges)))
    lcm, level = cells.lcm * q, stage.level + 1
    addresses = [address + letter for address in cells.addresses for letter in "0123"]
    return Stage2(Params2(a, level), level, BoxCells(lcm, addresses, corners, sides), Segments(lcm, segments))


def build(params: Params2, workers: int = 1) -> Stage2:
    """Iterate `refine` from the unit square down to params.depth; `workers` is ignored."""
    check_depth(params.depth, DEPTH_CAP)
    stage = level0(params.a)
    for _ in range(params.depth):
        stage = refine(stage)
    return stage


def hausdorff_dimension(a: Union[Fraction, str, int]) -> float:
    """Dimension log 4 / (-log a) of the limit set, as a float.

    This is the one deliberately floating-point output of the planar
    construction; everything else stays rational.
    """
    x = float(scale_factor(a, allow_half=True))
    if x == 0.0:
        raise CapacityError("scale factor too small for a floating-point dimension (underflows to 0)")
    return math.log(4.0) / (-math.log(x))


@dataclass(frozen=True)
class PerimeterSeries:
    """Partial sum and limit of the per-stage perimeter totals.

    Stage k contributes 4^k squares of perimeter 4 a^k, i.e. 4 (4a)^k, so
    the series is geometric with ratio 4a: it converges iff a < 1/4 (the
    boundary case a = 1/4 diverges), with limit 4 / (1 - 4a).
    """

    partial_sum: Fraction
    limit: Union[Fraction, None]
    finite: bool


def perimeter_series(a: Union[Fraction, str, int], n: int) -> PerimeterSeries:
    """Exact partial sum through stage n of the perimeter series.

    a = 1/2 is rejected here: the tiling case reproduces the square and is
    not treated as a boundary-length series.
    """
    a = scale_factor(a, allow_half=False)
    check_depth(n, what="stage count")
    ratio = 4 * a
    partial = 4 * geometric_sum(ratio, n)
    finite = a < Fraction(1, 4)
    limit = 4 / (1 - ratio) if finite else None
    return PerimeterSeries(partial_sum=partial, limit=limit, finite=finite)


def singular_cover(stage: Stage2) -> list[Cell]:
    """The level-n cells: an exact cover of the limit Cantor set.

    At stage n the 4^n squares of side a^n cover the limit set; they are
    the stage-n approximation of the singular part of the construction
    (the retained segments being the smooth rest).
    """
    return list(stage.cells)


def connectivity(stage: Stage2) -> int:
    """Connected components of the retained segment union (expected: 1)."""
    return segment_components(stage.segments)
