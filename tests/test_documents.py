"""JSON round-trips plus SVG/OBJ well-formedness checks."""

import contextlib
import json
import random
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F,
    build_planar_oracle,
    crossing_oracle,
    hole_set_oracle,
    pieces_document_oracle,
    pieces_from_document_oracle,
    planar_views,
    pt,
    query_loop,
    square_loop,
    svg_oracle,
)
from quasifractal import cantor, document, planar, spatial
from quasifractal.cantor import Params2, build
from quasifractal.cli import EXIT_VALIDATION, _pieces_measures, main
from quasifractal.document import (
    Encoded,
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
from quasifractal.geometry import lattice_group, rational
from quasifractal.planar import CARPET, GASKET, Piece, Pieces, PieceSet, build_planar
from quasifractal.render import export_obj, render_svg
from quasifractal.spatial import (
    CUBE_WIREFRAME,
    SpatialVariant,
    TETRA_GASKET,
    build_spatial,
)
from quasifractal.topology import HoleSet, index_vector


def test_rational_codec():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(6, 3)) == "2"
    assert rational("3/4") == F(3, 4)
    assert rational(format_rational(F(-7, 12))) == F(-7, 12)


def test_format_rational_beyond_digit_limit_is_a_capacity_error():
    with pytest.raises(CapacityError):
        format_rational(F(1, 10**5000))
    assert format_rational(F(1, 10**4000)) == "1/1" + "0" * 4000


def _read(reader, text: str):
    """Read a document's text as the CLI does: the reader takes the parsed
    document and the text it was parsed from."""
    return reader(loads_document(text), text)


def test_stage2_round_trip():
    stage = build(Params2(F(1, 5), 2))
    assert _read(document_to_stage2, dumps_document(stage2_to_document(stage))) == stage


def test_stage2_round_trip_with_measures_block():
    stage = build(Params2(F(1, 3), 1))
    doc = stage2_to_document(stage, measures={"cell_count": 4})
    assert _read(document_to_stage2, dumps_document(doc)) == stage


def test_pieces_round_trip():
    for kind in (CARPET, GASKET):
        ps = build_planar(kind, 2)
        assert _read(document_to_pieces, dumps_document(pieces_to_document(ps))) == ps


def test_stage3_round_trip():
    for variant in (SpatialVariant(CUBE_WIREFRAME, F(1, 3)), SpatialVariant(TETRA_GASKET)):
        stage = build_spatial(variant, 1)
        assert _read(document_to_stage3, dumps_document(stage3_to_document(stage))) == stage


@pytest.mark.parametrize(
    "kind, depth", [(CARPET, d) for d in range(6)] + [(GASKET, d) for d in range(9)]
)
def test_piece_documents_and_pictures_match_the_oracle(kind, depth):
    ps = build_planar(kind, depth)
    kept, removed = build_planar_oracle(kind, depth)
    measures = _pieces_measures(ps)
    text = dumps_document(pieces_to_document(ps, measures))
    expected = pieces_document_oracle(kind, depth, kept, removed, measures)
    assert text == json.dumps(expected, indent=2) + "\n"
    assert _read(document_to_pieces, text) == ps
    assert render_svg(ps) == svg_oracle(kind, kept, removed)
    reps = hole_set_oracle(removed).representatives
    loop = query_loop(random.Random(depth), rectangle=kind == CARPET, reps=reps)
    entries = [crossing_oracle(loop, rep) for rep in reps]
    holes = HoleSet.from_pieces(ps.removed)
    assert holes.representatives == reps
    svg = render_svg(ps, loop=loop, holes=holes)
    assert svg == svg_oracle(kind, kept, removed, loop, entries, reps)


def test_piece_documents_are_written_ahead():
    doc = pieces_to_document(build_planar(GASKET, 1))
    assert isinstance(doc["kept"], Encoded) and isinstance(doc["removed"], Encoded)
    with pytest.raises(TypeError):
        json.dumps(doc)
    text = '[\n    "one"\n  ]'
    assert dumps_document({"a": Encoded(text), "b": [Encoded("[]")]}) == (
        '{\n  "a": ' + text + ',\n  "b": [\n    []\n  ]\n}\n'
    )


def _far_document(kind: str, above: bool) -> dict:
    """A level-1 piece document whose lattice coordinates, times the
    vertex count k of their ring, reach just below 2^29 or at least 2^29."""

    def point(x, y, denominator):
        return [str(F(x, denominator)), str(F(y, denominator))]

    if kind == CARPET:  # D = 3; the square ring (k = 4) is what reaches the int64 bound
        m2, m4 = 2**28 - 1 + above, 2**27 - 1 + above
        kept = [{"corner": point(m2 - 3 * i, -i, 3), "side": "1/3"} for i in range(8)]
        ring = [point(0, 0, 3), point(m4, 0, 3), point(m4, m4, 3), point(0, m4, 3)]
    else:  # D = 2; triangles (k = 3)
        m3 = (2**29 - 1) // 3 + above
        kept = [{"vertices": [point(i, 0, 2), point(m3, i, 2), point(0, m3 - i, 2)]} for i in range(3)]
        ring = [point(m3, 0, 2), point(0, m3, 2), point(-m3, -m3, 2)]
    removed = [{"boundary": ring, "birth_level": 1, "label": "1:0"}]
    return {"schema_version": 1, "kind": kind, "level": 1, "kept": kept, "removed": removed}


@pytest.mark.parametrize("above", [False, True], ids=["below", "at"])
@pytest.mark.parametrize("kind", [CARPET, GASKET])
def test_piece_documents_on_both_sides_of_the_int64_bound(kind, above, tmp_path, capsys):
    # the document's points lie far outside the unit square, which the
    # reader refuses, so the kernels take a piece set built by hand
    doc = _far_document(kind, above)
    kept, removed = pieces_from_document_oracle(doc)
    squares, triangles, pieces = planar_views(*((kept, []) if kind == CARPET else ([], kept)), removed)
    ps = PieceSet(kind, 1, squares if kind == CARPET else triangles, pieces)
    assert ps.kept.lcm == (3 if kind == CARPET else 2)
    assert list(ps.kept) == kept and list(ps.removed) == removed
    # hand-built kept views hold Python ints; the gasket's kernels lay them out by `lattice_group`
    kept_arrays = (ps.kept.corners, ps.kept.sides) if kind == CARPET else (ps.kept.vertices,)
    assert all(array.dtype == object for array in kept_arrays)
    if kind == GASKET:
        assert all(xs.dtype == (object if above else np.int64) for _, xs, _ in lattice_group(*kept_arrays).values())
    assert all(xs.dtype == (object if above else np.int64) for _, xs, _ in ps.removed.groups.values())
    holes = hole_set_oracle(removed)
    assert HoleSet.from_pieces(ps.removed) == holes
    loop = square_loop(F(-1, 7), F(-2**27, 7), F(2**27, 1))
    entries = [crossing_oracle(loop, rep) for rep in holes.representatives]
    assert index_vector(loop, holes) == tuple(entries) == (1,)
    expected = svg_oracle(kind, kept, removed, loop, entries, holes.representatives)
    assert render_svg(ps, loop=loop, holes=holes) == expected
    # the CLI refuses the document's bytes
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    loop_arg = " ".join(f"{v.x},{v.y}" for v in loop.vertices)
    for argv in (["index", "--pieces", str(path)], ["render", "--input", str(path)]):
        assert main([*argv, "--loop", loop_arg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1, err


def _stage_documents(seed: int):
    rng = random.Random(seed)
    a = F(1, rng.choice([3, 4, 5, 7]))
    yield build(Params2(a, rng.randint(0, 3))), stage2_to_document, document_to_stage2
    cube = SpatialVariant(CUBE_WIREFRAME, F(rng.randint(1, 3), 7))
    yield build_spatial(cube, rng.randint(0, 2)), stage3_to_document, document_to_stage3
    tetra = SpatialVariant(TETRA_GASKET)
    yield build_spatial(tetra, rng.randint(0, 2)), stage3_to_document, document_to_stage3


@pytest.mark.parametrize("seed", range(4))
def test_stage_readers_build_each_point_once(seed):
    for stage, write, read in _stage_documents(seed):
        got = _read(read, dumps_document(write(stage)))
        assert got == stage
        segments = got.segments if write is stage2_to_document else got.skeleton
        points = [p for segment in segments for p in segment]
        assert len({id(p) for p in points}) == len(set(points))


def test_piece_views_build_each_point_once():
    # gasket triangles share their vertices; so do two removed squares
    # that share an edge
    built = build_planar(GASKET, 3)
    read = _read(document_to_pieces, dumps_document(pieces_to_document(built)))
    assert read == built
    removed = [Piece(square_loop(F(i, 4), F(1, 4), F(1, 4)), 1, f"1:{i}") for i in range(2)]
    pieces = Pieces.of(4, [([(i, 1), (i + 1, 1), (i + 1, 2), (i, 2)], 1, f"1:{i}") for i in range(2)])
    assert list(pieces) == removed
    for points in (
        [p for cell in built.kept for p in cell.vertices],
        [p for cell in read.kept for p in cell.vertices],
        [p for piece in pieces for p in piece.boundary.vertices],
    ):
        assert len({id(p) for p in points}) == len(set(points)) < len(points)


_STAGES = {
    "cantor2d": lambda level: build(Params2(F(1, 3), level)),
    CARPET: lambda level: build_planar(CARPET, level),
    GASKET: lambda level: build_planar(GASKET, level),
    CUBE_WIREFRAME: lambda level: build_spatial(SpatialVariant(CUBE_WIREFRAME, F(1, 3)), level),
    TETRA_GASKET: lambda level: build_spatial(SpatialVariant(TETRA_GASKET), level),
}


@pytest.mark.parametrize("kind", _STAGES)
def test_document_shapes_are_the_builders_counts_and_caps(kind):
    # the reader's cell count and level cap per kind are the builder's own
    key, split, cap = document._SHAPES[kind]
    for level in range(3):
        assert len(getattr(_STAGES[kind](level), key)) == split**level
    with pytest.raises(CapacityError):
        _STAGES[kind](cap + 1)
    assert set(_STAGES) == set(document._SHAPES)


@pytest.mark.parametrize("kind", ["cantor2d", CUBE_WIREFRAME, TETRA_GASKET])
def test_unhashable_coordinates_in_stage_documents_exit_2(kind, tmp_path, capsys):
    if kind == "cantor2d":
        doc = json.loads(dumps_document(stage2_to_document(build(Params2(F(1, 3), 1)))))
        doc["segments"][1][0][1] = ["1/3"]
    else:
        a = F(1, 3) if kind == CUBE_WIREFRAME else None
        doc = json.loads(dumps_document(stage3_to_document(build_spatial(SpatialVariant(kind, a), 1))))
        doc["skeleton"][1][0][1] = ["1/3"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError, match=r"differs from its level-1 stage at \w+\[1\]\[0\]\[1\]$"):
        _read(document_to_stage2 if kind == "cantor2d" else document_to_stage3, path.read_text())
    assert main(["render", "--input", str(path)]) == EXIT_VALIDATION
    assert len(capsys.readouterr().err.splitlines()) == 1


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
    doc = json.loads(dumps_document(stage2_to_document(stage)))

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
        _read(document_to_stage2, dumps_document(doc))
    doc["schema_version"] = 1
    with pytest.raises(ParameterError):
        _read(document_to_pieces, dumps_document(doc))


def _pieces_text(kind: str, level: int) -> str:
    """The piece document the CLI writes, `measures` block included."""
    ps = build_planar(kind, level)
    return dumps_document(pieces_to_document(ps, _pieces_measures(ps)))


def _closed(text: str, members: str) -> str:
    """`text` with `members` written before its closing brace."""
    return text[:-3] + members + "\n}\n"


def _json_refusal(text: str) -> str:
    """The refusal of a text that the JSON decoder does not take."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON document: {exc}"
    raise AssertionError("the decoder takes the text")


LOOP = "1/7,1/7 6/7,1/7 6/7,6/7 1/7,6/7"
CARPET1 = _pieces_text(CARPET, 1)
CUBE1 = dumps_document(stage3_to_document(build_spatial(SpatialVariant(CUBE_WIREFRAME, F(1, 3)), 1)))
MEASURES = ',\n  "measures": '
# A level-2 carpet document with one kept cell dropped and a `measures`
# block that keeps it long enough for 64 cells.
SHORT_OF_A_CELL = json.loads(_pieces_text(CARPET, 2))
SHORT_OF_A_CELL["kept"].pop()
SHORT_OF_A_CELL["measures"] = {"note": "x" * 2000}

# (name, text, argv after the document's path, exit code, refusal or None)
REFUSALS = [
    ("invalid JSON after the header", CARPET1[:600], ["render"], 2, _json_refusal(CARPET1[:600])),
    ("invalid JSON, 3D with a loop", CUBE1[:2000], ["render", "--loop", LOOP], 2, _json_refusal(CUBE1[:2000])),
    ("kind again", _closed(CARPET1, ',\n  "kind": "gasket"'), ["render"], 2, "a level-1 gasket document lists 3 kept"),
    # the whole document names another stage than its header: that stage is built too
    (
        "kind again at level 0",
        _closed(_pieces_text(CARPET, 0), ',\n  "kind": "gasket"'),
        ["render"],
        2,
        "gasket document differs from its level-0 stage at kept[0].vertices",
    ),
    (
        "level again",
        _closed(CARPET1, ',\n  "level": 2'),
        ["index", "--loop", LOOP],
        2,
        "a level-2 carpet document lists 64 kept",
    ),
    ("same level again", _closed(CARPET1, ',\n  "level": 1'), ["render"], 0, None),
    (
        "kind of another reader again",
        _closed(CARPET1, ',\n  "kind": "cube_wireframe"'),
        ["render"],
        2,
        "a level-1 cube_wireframe document lists 8 cells",
    ),
    (
        "kind of another reader again, index",
        _closed(CARPET1, ',\n  "kind": "cube_wireframe"'),
        ["index", "--loop", LOOP],
        2,
        "expected a carpet or gasket document, got kind 'cube_wireframe'",
    ),
    (
        "measures deeper than the decoder allows",
        _closed(CARPET1, MEASURES + "[" * 100_000 + "]" * 100_000),
        ["render"],
        2,
        _json_refusal("[" * 100_000 + "]" * 100_000),
    ),
    (
        "integer in measures beyond the digit limit",
        _closed(CARPET1, MEASURES + "1" + "0" * 5000),
        ["render"],
        2,
        _json_refusal("1" + "0" * 5000),
    ),
    (
        "wrong cell count in a long text",
        dumps_document(SHORT_OF_A_CELL),
        ["render"],
        2,
        "a level-2 carpet document lists 64 kept",
    ),
    ("compact re-dump", json.dumps(json.loads(CARPET1)), ["index", "--loop", LOOP], 0, None),
]


@pytest.mark.parametrize("name, text, argv, code, refusal", REFUSALS, ids=[case[0] for case in REFUSALS])
def test_documents_read_by_their_header_keep_every_refusal(name, text, argv, code, refusal, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    command, *rest = argv
    flag = "--input" if command == "render" else "--pieces"
    assert main([command, flag, str(path), *rest, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err == ("" if refusal is None else f"validation error: {refusal}\n")


def test_loads_document_parses_the_header_of_a_written_document():
    doc = loads_document(CARPET1)
    assert doc == {"schema_version": 1, "kind": CARPET, "level": 1}
    assert loads_document(json.dumps(json.loads(CARPET1))) == json.loads(CARPET1)


def _counting_builders(monkeypatch) -> list:
    """The builder calls the readers make from now on, by builder."""
    calls = []
    for module, name in ((cantor, "build"), (planar, "build_planar"), (spatial, "build_spatial")):
        builder = getattr(module, name)

        def counted(*args, builder=builder, **kwargs):
            calls.append(builder.__name__)
            return builder(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_document_is_built_at_most_once(monkeypatch):
    calls = _counting_builders(monkeypatch)
    accepted = [CARPET1, _closed(CARPET1, ',\n  "level": 1'), json.dumps(json.loads(CARPET1))]
    for name, text in [("accepted", text) for text in accepted] + [case[:2] for case in REFUSALS]:
        calls.clear()
        reader = document_to_stage3 if text.startswith(CUBE1[:80]) else document_to_pieces
        with contextlib.suppress(ParameterError):
            reader(loads_document(text), text)
        assert len(calls) <= (2 if name == "kind again at level 0" else 1), (name, calls)
    # a stage's text is accepted without parsing it whole
    calls.clear()
    monkeypatch.setattr(document, "_parsed", None)
    assert _read(document_to_pieces, CARPET1) == build_planar(CARPET, 1)
    assert calls == ["build_planar"]


@pytest.mark.parametrize("kind, level", [(CARPET, 5), (GASKET, 8)])
def test_reading_a_document_peaks_below_six_times_its_text(kind, level):
    text = _pieces_text(kind, level)
    tracemalloc.start()
    try:
        _read(document_to_pieces, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text), (peak, len(text))


@pytest.mark.parametrize("kind, level", [(CARPET, 5), (GASKET, 8)])
def test_writing_a_document_peaks_below_three_times_its_text(kind, level):
    ps = build_planar(kind, level)
    measures = _pieces_measures(ps)
    tracemalloc.start()
    try:
        text = dumps_document(pieces_to_document(ps, measures))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), (peak, len(text))


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
