"""JSON round-trips plus SVG/OBJ well-formedness checks."""

import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import F, pt, square_loop
from quasifractal.cantor import Params2, build
from quasifractal.document import (
    document_to_pieces,
    document_to_stage2,
    document_to_stage3,
    dumps_document,
    format_rational,
    loads_document,
    pieces_to_document,
    stage2_to_document,
    stage3_to_document,
)
from quasifractal.errors import CapacityError, ParameterError, UnsupportedGeometryError
from quasifractal.geometry import rational
from quasifractal.planar import CARPET, GASKET, build_planar
from quasifractal.render import export_obj, render_svg
from quasifractal.spatial import (
    CUBE_WIREFRAME,
    SpatialVariant,
    TETRA_GASKET,
    build_spatial,
)
from quasifractal.topology import HoleSet


def test_rational_codec():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(6, 3)) == "2"
    assert rational("3/4") == F(3, 4)
    assert rational(format_rational(F(-7, 12))) == F(-7, 12)


def test_format_rational_beyond_digit_limit_is_a_capacity_error():
    with pytest.raises(CapacityError):
        format_rational(F(1, 10**5000))
    assert format_rational(F(1, 10**4000)) == "1/1" + "0" * 4000


def test_stage2_round_trip():
    stage = build(Params2(F(1, 5), 2))
    doc = loads_document(dumps_document(stage2_to_document(stage)))
    assert document_to_stage2(doc) == stage


def test_stage2_round_trip_with_measures_block():
    stage = build(Params2(F(1, 3), 1))
    doc = stage2_to_document(stage, measures={"cell_count": 4})
    assert document_to_stage2(loads_document(dumps_document(doc))) == stage


def test_pieces_round_trip():
    for kind in (CARPET, GASKET):
        ps = build_planar(kind, 2)
        doc = loads_document(dumps_document(pieces_to_document(ps)))
        assert document_to_pieces(doc) == ps


def test_stage3_round_trip():
    for variant in (SpatialVariant(CUBE_WIREFRAME, F(1, 3)), SpatialVariant(TETRA_GASKET)):
        stage = build_spatial(variant, 1)
        doc = loads_document(dumps_document(stage3_to_document(stage)))
        assert document_to_stage3(doc) == stage


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0])
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.text(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_dumps_document_matches_the_indenting_json_encoder(value):
    assert dumps_document(value) == json.dumps(value, indent=2) + "\n"


def test_dumps_document_refuses_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        dumps_document({"measures": {1: "one"}})


def test_documents_never_carry_float_coordinates():
    stage = build(Params2(F(1, 3), 2))
    doc = stage2_to_document(stage)

    def scan(node):
        if isinstance(node, dict):
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)
        else:
            assert not isinstance(node, float)

    scan({k: v for k, v in doc.items() if k != "measures"})


def test_loads_document_rejects_junk():
    with pytest.raises(ParameterError):
        loads_document("{not json")
    with pytest.raises(ParameterError):
        loads_document('{"kind": "mystery", "schema_version": 1}')
    stage = build(Params2(F(1, 3), 0))
    doc = stage2_to_document(stage)
    doc["schema_version"] = 99
    with pytest.raises(ParameterError):
        document_to_stage2(loads_document(dumps_document(doc)))
    with pytest.raises(ParameterError):
        document_to_pieces(stage2_to_document(stage))


def test_svg_cantor_stage_well_formed():
    stage = build(Params2(F(1, 4), 1))
    svg = render_svg(stage)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("rect") == 4  # the corner squares
    assert tags.count("polyline") == len(stage.segments)
    assert set(tags) <= {"rect", "polyline", "path", "text"}


def test_svg_carpet_pieces_well_formed():
    ps = build_planar(CARPET, 2)
    svg = render_svg(ps)
    root = ET.fromstring(svg)
    paths = [child for child in root if child.tag.split("}")[-1] == "path"]
    assert len(paths) == 9  # 1 + 8 removed pieces get filled


def test_svg_loop_overlay_labels():
    ps = build_planar(CARPET, 2)
    holes = HoleSet.from_pieces(ps.removed)
    loop = square_loop(F(1, 3), F(1, 3), F(1, 3))
    svg = render_svg(ps, loop=loop, holes=holes)
    root = ET.fromstring(svg)
    texts = [child for child in root if child.tag.split("}")[-1] == "text"]
    assert len(texts) == len(holes)
    assert sorted(t.text for t in texts) == sorted(["1"] + ["0"] * 8)


def test_svg_overlay_two_hole_index():
    # index vector [1, 0] renders exactly two labels
    ps = build_planar(CARPET, 1)
    holes = HoleSet((pt(F(1, 2), F(1, 2)), pt(F(1, 6), F(1, 6))), ("center", "offside"))
    loop = square_loop(F(1, 3), F(1, 3), F(1, 3))
    svg = render_svg(ps, loop=loop, holes=holes)
    root = ET.fromstring(svg)
    texts = [child for child in root if child.tag.split("}")[-1] == "text"]
    assert sorted(t.text for t in texts) == ["0", "1"]


def test_svg_empty_pieceset_is_valid():
    svg = render_svg(build_planar(GASKET, 0))
    ET.fromstring(svg)


def test_svg_rejects_3d_stage():
    stage = build_spatial(SpatialVariant(TETRA_GASKET), 0)
    with pytest.raises(UnsupportedGeometryError):
        render_svg(stage)


def _parse_obj(text: str):
    vertices, lines, faces = [], [], []
    for raw in text.splitlines():
        if not raw or raw.startswith("#"):
            continue
        record, *fields = raw.split()
        if record == "v":
            assert len(fields) == 3
            vertices.append(tuple(float(f) for f in fields))
        elif record == "l":
            lines.append(tuple(int(f) for f in fields))
        elif record == "f":
            faces.append(tuple(int(f) for f in fields))
        else:
            raise AssertionError(f"unexpected OBJ record {record!r}")
    return vertices, lines, faces


def test_obj_unit_cube():
    stage = build_spatial(SpatialVariant(CUBE_WIREFRAME, F(1, 3)), 0)
    vertices, lines, faces = _parse_obj(export_obj(stage))
    assert len(vertices) == 8
    assert len(lines) == 12
    assert len(faces) == 6
    for record in lines + faces:
        assert all(1 <= i <= len(vertices) for i in record)


def test_obj_tetra_depth1_counts():
    stage = build_spatial(SpatialVariant(TETRA_GASKET), 1)
    vertices, lines, faces = _parse_obj(export_obj(stage))
    # faces accumulate across levels and are not deduplicated:
    # 4 level-0 faces plus 4 cells x 4 faces
    assert len(faces) == 4 + 16
    assert len(vertices) == 10  # 4 corners + 6 edge midpoints
    assert len(lines) == len(stage.skeleton)


def test_obj_vertex_dedup_matches_exact_oracle():
    stage = build_spatial(SpatialVariant(CUBE_WIREFRAME, F(1, 3)), 1)
    vertices, lines, faces = _parse_obj(export_obj(stage))
    exact = set()
    for seg in stage.skeleton:
        exact.add(seg.a)
        exact.add(seg.b)
    for face in stage.pieces:
        exact.update(face.boundary)
    assert len(vertices) == len(exact) == 64


def test_obj_deterministic():
    stage = build_spatial(SpatialVariant(TETRA_GASKET), 2)
    assert export_obj(stage) == export_obj(stage)
