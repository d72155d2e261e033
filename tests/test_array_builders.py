"""The array builders of cantor, cube and tetra stages against the Fraction builders.

A stage is built as numpy arrays on the lattice of its level, D = q^depth
(2^depth for the tetrahedron): int64 while D fits int64 and Python ints
(object dtype) above it. Each stage's arrays are compared, entry for
entry, with the construction done one `Fraction` object at a time
(`helpers.build_stage2_oracle`, `helpers.build_spatial_oracle`) and put on
the same lattice: the cells in address order, the segments (each once,
p < q, in the one segment order) and the faces with their birth levels and
squared areas, the areas over 4 D^4.
"""

import numpy as np
import pytest

from helpers import F, build_spatial_oracle, build_stage2_oracle
from quasifractal.cantor import Params2, build
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


def _on_lattice(values, lcm: int) -> list:
    """Fractions (nested in lists or tuples) times D, as Python ints."""
    if isinstance(values, (list, tuple)):
        return [_on_lattice(v, lcm) for v in values]
    scaled = values * lcm
    assert scaled.denominator == 1
    return int(scaled)


def _assert_lattice_dtype(lcm: int, *arrays):
    expected = np.int64 if lcm < 2**63 else object
    assert all(array.dtype == expected for array in arrays)


def _assert_segments(segments, oracle):
    grid = segments.grid
    expected = sorted(_on_lattice([list(s.a), list(s.b)], segments.lcm) for s in oracle)
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
    assert stage.cells.corners.tolist() == _on_lattice([list(cell.corner) for cell in cells], lcm)
    assert stage.cells.sides.tolist() == _on_lattice([cell.side for cell in cells], lcm)
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
        assert stage.cells.corners.tolist() == _on_lattice([list(cell.corner) for cell in cells], lcm)
        assert stage.cells.sides.tolist() == _on_lattice([cell.side for cell in cells], lcm)
    else:
        _assert_lattice_dtype(lcm, stage.cells.vertices)
        assert stage.cells.vertices.tolist() == _on_lattice([[list(v) for v in cell.vertices] for cell in cells], lcm)
    _assert_lattice_dtype(lcm, stage.skeleton.grid, stage.pieces.rings)
    _assert_segments(stage.skeleton, skeleton)
    pieces = stage.pieces
    assert pieces.rings.tolist() == _on_lattice([[list(v) for v in face.boundary] for face in faces], lcm)
    assert pieces.births.tolist() == [face.birth_level for face in faces]
    assert pieces.areas.tolist() == _on_lattice([face.area_sq for face in faces], 4 * lcm**4)

