"""The skeleton engine on the integer lattice against the Fraction object oracle.

Cantor, cube and tetra stages are built on the lattice of their level and
written from its rows. Each is compared with the same construction done
one `Fraction` object at a time (`helpers.build_stage2_oracle`,
`helpers.build_spatial_oracle`): cells, segments, faces and their squared
areas; union length, components and incidence; and the document, SVG and
OBJ bytes, written from the objects by the oracle writers. The deck's
stages are also measured by the tuple carrier-line kernel that the array
kernel replaced (`helpers.TupleSegmentIndex`).
"""

import json
from fractions import Fraction

import pytest

from helpers import (
    F,
    TupleSegmentIndex,
    build_spatial_oracle,
    build_stage2_oracle,
    face3_oracle,
    incidence_oracle,
    obj_oracle,
    pairwise_components,
    stage2_svg_oracle,
    stage3_on_lattice,
    stage_document_oracle,
    tuple_segment_components,
    tuple_union_length,
    union_length_oracle,
)
from quasifractal.cantor import Params2, build, connectivity
from quasifractal.cli import _stage2_measures, _stage3_measures
from quasifractal.document import (
    document_to_stage2,
    document_to_stage3,
    dumps_document,
    loads_document,
    stage2_to_document,
    stage3_to_document,
)
from quasifractal.errors import UnsupportedGeometryError
from quasifractal.geometry import Point3, ring_edges, union_length
from quasifractal.render import export_obj, render_svg
from quasifractal.spatial import (
    CUBE_WIREFRAME,
    TETRA_GASKET,
    SpatialVariant,
    boundary_incidence,
    build_spatial,
    connectivity3,
)

SCALES = [F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(3, 7), F(1, 2), F(2, 7)]
CUBE_SCALES = [F(1, 5), F(1, 4), F(1, 3), F(2, 7)]
# Past int64: D = 2^64 for gen2d; |sum of p x q|^2 near 2^130 for the cube.
LARGE = [F(1, 2**32), F(997, 1999)]
LARGE_CUBE = [(F(1, 2**16), 2), (F(997, 1999), 3)]


def _check_stage2(a, depth):
    stage = build(Params2(a, depth))
    cells, segments = build_stage2_oracle(a, depth)
    assert list(stage.cells) == cells
    assert stage.segments == segments and len(stage.segments) == len(segments)
    measures = _stage2_measures(stage)
    text = dumps_document(stage2_to_document(stage, measures))
    params = {"a": str(a), "depth": depth}
    expected = stage_document_oracle("cantor2d", params, depth, cells, segments, measures=measures)
    assert text == json.dumps(expected, indent=2) + "\n"
    assert document_to_stage2(loads_document(text), text) == stage
    assert render_svg(stage) == stage2_svg_oracle(cells, segments)
    return stage, segments


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("a", SCALES, ids=str)
def test_cantor_stages_match_the_object_oracle(a, depth):
    stage, segments = _check_stage2(a, depth)
    if depth <= 4:
        assert union_length(stage.segments) == union_length_oracle(segments)
    if depth <= 2:
        assert connectivity(stage) == pairwise_components(segments) == 1


@pytest.mark.parametrize("a", LARGE, ids=str)
def test_cantor_stages_with_large_denominators(a):
    depth = 2 if a.denominator > 2**30 else 3
    stage, segments = _check_stage2(a, depth)
    assert stage.cells.lcm == a.denominator**depth
    assert union_length(stage.segments) == union_length_oracle(segments)
    assert connectivity(stage) == 1


def _check_stage3(variant, depth):
    stage = build_spatial(variant, depth)
    cells, skeleton, faces = build_spatial_oracle(variant, depth)
    assert list(stage.cells) == cells
    assert stage.skeleton == skeleton and len(stage.skeleton) == len(skeleton)
    assert list(stage.pieces) == faces  # boundaries, birth levels and squared areas
    assert boundary_incidence(stage) == incidence_oracle(skeleton, faces) == 0
    measures = _stage3_measures(stage)
    text = dumps_document(stage3_to_document(stage, measures))
    params = {"kind": variant.kind, **({"a": str(variant.a)} if variant.a is not None else {})}
    expected = stage_document_oracle(variant.kind, params, depth, cells, skeleton, faces, measures)
    assert text == json.dumps(expected, indent=2) + "\n"
    assert document_to_stage3(loads_document(text), text) == stage
    assert export_obj(stage) == obj_oracle(variant.kind, depth, skeleton, faces)
    return stage, skeleton


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("a", CUBE_SCALES, ids=str)
def test_cube_stages_match_the_object_oracle(a, depth):
    stage, skeleton = _check_stage3(SpatialVariant(CUBE_WIREFRAME, a), depth)
    if depth <= 1:
        assert connectivity3(stage) == pairwise_components(skeleton) == 1


@pytest.mark.parametrize("depth", range(5))
def test_tetra_stages_match_the_object_oracle(depth):
    stage, skeleton = _check_stage3(SpatialVariant(TETRA_GASKET), depth)
    if depth <= 2:
        assert connectivity3(stage) == pairwise_components(skeleton) == 1


@pytest.mark.parametrize("a, depth", LARGE_CUBE, ids=str)
def test_cube_stages_with_large_denominators(a, depth):
    stage, _ = _check_stage3(SpatialVariant(CUBE_WIREFRAME, a), depth)
    assert stage.pieces.lcm == a.denominator**depth
    assert connectivity3(stage) == 1


@pytest.mark.parametrize("kind", [CUBE_WIREFRAME, TETRA_GASKET])
def test_incidence_matches_the_oracle_on_displaced_faces(kind):
    variant = SpatialVariant(kind, F(1, 3) if kind == CUBE_WIREFRAME else None)
    stage = build_spatial(variant, 2)
    _, skeleton, faces = build_spatial_oracle(variant, 2)
    shifts = [Point3(F(1, 7), F(0), F(0)), Point3(F(0), F(1, 9), F(0)), Point3(F(0), F(0), F(-1, 4))]
    moved = [face3_oracle(tuple(v + s for v in f.boundary), 2) for f, s in zip(faces[::37], shifts * 9)]
    broken = stage3_on_lattice(stage, 252, faces=moved)  # D = lcm(9 or 4, 7, 9, 4)
    assert broken.pieces.lcm % stage.pieces.lcm == 0 and list(broken.pieces)[len(faces) :] == moved
    assert boundary_incidence(broken) == incidence_oracle(skeleton, faces + moved) > 0


# The deck's scale factors at the depths the skeleton workload builds, and
# 997/1999 one level deeper, past the int64 bound of the lattice.
SWEEP = [
    *[("cantor", F(a), depth) for a in ("1/5", "1/4", "1/3", "2/5", "3/7", "1/2") for depth in range(5)],
    ("cantor", F(997, 1999), 3),
    *[(CUBE_WIREFRAME, F(a), depth) for a in ("1/5", "1/4", "1/3") for depth in range(3)],
    (CUBE_WIREFRAME, F(997, 1999), 3),
    *[(TETRA_GASKET, None, depth) for depth in range(5)],
]


@pytest.mark.parametrize("kind, a, depth", SWEEP, ids=str)
def test_stage_measures_match_the_tuple_kernel(kind, a, depth):
    if kind == "cantor":
        stage = build(Params2(a, depth))
        segments, components = stage.segments, connectivity(stage)
    else:
        stage = build_spatial(SpatialVariant(kind, a), depth)
        segments, components = stage.skeleton, connectivity3(stage)
        oracle = TupleSegmentIndex(segments)
        missing = sum(not oracle.covers(p, q) for ring, _, _ in stage.pieces.rows for p, q in ring_edges(ring))
        assert boundary_incidence(stage) == missing == 0
    assert components == tuple_segment_components(segments) == 1
    try:
        length = tuple_union_length(segments)
    except UnsupportedGeometryError as exc:  # the tetrahedron's diagonal edges
        with pytest.raises(UnsupportedGeometryError) as raised:
            union_length(segments)
        assert str(raised.value) == str(exc)
    else:
        assert union_length(segments) == length
