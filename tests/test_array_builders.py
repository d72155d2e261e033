"""The array builders of every stage against the Fraction builders.

A stage is built as numpy arrays on the lattice of its level, D = q^depth
(2^depth for the tetrahedron, 3^depth for the carpet, 2^(depth + 1) for
the gasket): int64 while D fits int64 and Python ints (object dtype)
above it. Each stage's arrays are compared, entry for entry, with the
construction done one `Fraction` object at a time
(`helpers.build_stage2_oracle`, `helpers.build_spatial_oracle`,
`helpers.build_planar_oracle`) and put on the same lattice: the cells in
address order, the segments (each once, p < q, in the one segment order)
and the faces with their birth levels and squared areas, the areas over
4 D^4.
"""

import random

import numpy as np
import pytest

from helpers import F, _carpet_children, build_planar_oracle, build_spatial_oracle, build_stage2_oracle, lattice_ints
from helpers import pt
from quasifractal.cantor import Params2, build
from quasifractal.geometry import BoxCells, Cell, Simplices, split_squares, to_lattice
from quasifractal.planar import CARPET, GASKET, build_planar
from quasifractal.spatial import CUBE_WIREFRAME, TETRA_GASKET, SpatialVariant, build_spatial

DECK_SCALES = ["1/5", "1/4", "1/3", "2/5", "3/7", "1/2"]
DECK_CUBE_SCALES = ["1/5", "1/4", "1/3"]
# a = 997/1999 puts the lattice past the kernel's int64 bound; 1/65537 at
# depth 4 puts D = 65537^4, about 1.8e19, past int64 itself.
CANTOR = [*[(a, depth) for a in DECK_SCALES for depth in range(5)], ("997/1999", 3), ("1/65537", 4)]
SPATIAL = [
    *[(CUBE_WIREFRAME, a, depth) for a in DECK_CUBE_SCALES for depth in range(3)],
    (CUBE_WIREFRAME, "997/1999", 3),
    *[(TETRA_GASKET, None, depth) for depth in range(5)],
]
PLANAR = [*[(CARPET, depth) for depth in range(5)], *[(GASKET, depth) for depth in range(8)]]


def _assert_lattice_dtype(lcm: int, *arrays):
    expected = np.int64 if lcm < 2**63 else object
    assert all(array.dtype == expected for array in arrays)


def _assert_segments(segments, oracle):
    grid = segments.grid
    expected = sorted(lattice_ints([list(s.a), list(s.b)], segments.lcm) for s in oracle)
    assert grid.shape == (len(oracle), 2, len(next(iter(oracle)).a))
    assert grid.tolist() == expected


@pytest.mark.parametrize("a, depth", CANTOR, ids=str)
def test_cantor_arrays_match_the_fraction_builder(a, depth):
    a = F(a)
    stage = build(Params2(a, depth))
    cells, segments = build_stage2_oracle(a, depth)
    lcm = a.denominator**depth
    assert stage.cells.lcm == stage.segments.lcm == lcm
    _assert_lattice_dtype(lcm, stage.cells.corners, stage.cells.sides, stage.segments.grid)
    assert stage.cells.addresses == [cell.address for cell in cells]
    assert stage.cells.corners.tolist() == lattice_ints([list(cell.corner) for cell in cells], lcm)
    assert stage.cells.sides.tolist() == lattice_ints([cell.side for cell in cells], lcm)
    _assert_segments(stage.segments, segments)


@pytest.mark.parametrize("kind, a, depth", SPATIAL, ids=str)
def test_spatial_arrays_match_the_fraction_builder(kind, a, depth):
    variant = SpatialVariant(kind, None if a is None else F(a))
    stage = build_spatial(variant, depth)
    cells, skeleton, faces = build_spatial_oracle(variant, depth)
    lcm = (2 if a is None else F(a).denominator) ** depth
    assert stage.cells.lcm == stage.skeleton.lcm == stage.pieces.lcm == lcm
    assert stage.cells.addresses == [cell.address for cell in cells]
    if kind == CUBE_WIREFRAME:
        _assert_lattice_dtype(lcm, stage.cells.corners, stage.cells.sides)
        assert stage.cells.corners.tolist() == lattice_ints([list(cell.corner) for cell in cells], lcm)
        assert stage.cells.sides.tolist() == lattice_ints([cell.side for cell in cells], lcm)
    else:
        _assert_lattice_dtype(lcm, stage.cells.vertices)
        assert stage.cells.vertices.tolist() == lattice_ints([[list(v) for v in cell.vertices] for cell in cells], lcm)
    _assert_lattice_dtype(lcm, stage.skeleton.grid, stage.pieces.rings)
    _assert_segments(stage.skeleton, skeleton)
    pieces = stage.pieces
    assert pieces.rings.tolist() == lattice_ints([[list(v) for v in face.boundary] for face in faces], lcm)
    assert pieces.births.tolist() == [face.birth_level for face in faces]
    assert pieces.areas.tolist() == lattice_ints([face.area_sq for face in faces], 4 * lcm**4)



@pytest.mark.parametrize("kind, depth", PLANAR, ids=str)
def test_planar_kept_arrays_match_the_fraction_builder(kind, depth):
    kept = build_planar(kind, depth).kept
    cells, _ = build_planar_oracle(kind, depth)
    lcm = 3**depth if kind == CARPET else 2 ** (depth + 1)
    assert kept.lcm == lcm and kept.addresses == ()
    assert list(kept) == cells
    if kind == CARPET:
        assert type(kept) is BoxCells
        _assert_lattice_dtype(lcm, kept.corners, kept.sides)
        assert kept.corners.tolist() == lattice_ints([list(cell.corner) for cell in cells], lcm)
        assert kept.sides.tolist() == lattice_ints([cell.side for cell in cells], lcm)
    else:
        assert type(kept) is Simplices
        _assert_lattice_dtype(lcm, kept.vertices)
        assert kept.vertices.tolist() == lattice_ints([[list(v) for v in cell.vertices] for cell in cells], lcm)


def _geometric(base: int, depth: int) -> int:
    return sum(base**k for k in range(depth + 1))


# Stages past the oracle decks, up to the caps, against closed forms:
# (kind, a, depth, cells, segments or skeleton edges, faces or removed
# pieces born at each level). No two cells of a cantor stage with a < 1/2,
# a cube or a tetra stage share an edge, so such a stage keeps every edge
# and face of every level: 87 380 cantor segments, 56 172 cube edges and
# 28 086 faces, 32 766 tetra edges and 21 844 faces; the carpet removes
# 37 449 pieces and the gasket 265 720.
CLOSED_FORMS = [
    *[("cantor", a, 7, 4**7, 4 * (4**8 - 1) // 3, None) for a in ("1/3", "2/5")],
    (CUBE_WIREFRAME, "1/3", 4, 8**4, 12 * _geometric(8, 4), [6 * 8**k for k in range(5)]),
    (TETRA_GASKET, None, 6, 4**6, 6 * _geometric(4, 6), [4 * 4**k for k in range(7)]),
    (CARPET, None, 6, 8**6, None, [0, *[8 ** (k - 1) for k in range(1, 7)]]),
    (GASKET, None, 12, 3**12, None, [0, *[3 ** (k - 1) for k in range(1, 13)]]),
]


@pytest.mark.parametrize(
    "kind, a, depth, cells, segments, born",
    CLOSED_FORMS,
    ids=[f"{kind}-{a}-{depth}" for kind, a, depth, *_ in CLOSED_FORMS],
)
def test_counts_match_the_closed_forms_past_the_oracle_decks(kind, a, depth, cells, segments, born):
    if kind == "cantor":
        stage = build(Params2(F(a), depth))
        counts = len(stage.cells), len(stage.segments), None
    elif kind in (CARPET, GASKET):
        ps = build_planar(kind, depth)
        counts = len(ps.kept), None, np.bincount(ps.removed.births).tolist()
    else:
        stage = build_spatial(SpatialVariant(kind, a and F(a)), depth)
        counts = len(stage.cells), len(stage.skeleton), np.bincount(stage.pieces.births).tolist()
    assert counts == (cells, segments, born)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_carpet_step_matches_the_fraction_children(dtype):
    """One `split_squares` step on seeded squares of mixed denominators,
    their lattice ints past int64 for object arrays, against `_carpet_children`."""
    rng = random.Random(23)
    shift = 0 if dtype is np.int64 else 2**70
    squares = [
        Cell("", pt(F(rng.randint(-50, 50) + shift, q), F(rng.randint(-50, 50), q)), F(rng.randint(1, 40), q))
        for q in (1, 2, 3, 5, 9, 14)
    ]
    lcm, ints = to_lattice([c for square in squares for c in (*square.corner, square.side)])
    rows = np.array(ints, dtype=object).reshape(-1, 3)  # corner x, corner y, side
    corners, sides, rings = split_squares(rows[:, :2].astype(dtype), rows[:, 2].astype(dtype))
    assert corners.dtype == sides.dtype == rings.dtype == dtype
    children = [_carpet_children(square) for square in squares]
    lcm *= 3
    assert list(BoxCells(lcm, [""] * len(sides), corners, sides)) == [cell for kept, _ in children for cell in kept]
    assert rings.tolist() == lattice_ints([[list(v) for v in loop.vertices] for _, (loop,) in children], lcm)
