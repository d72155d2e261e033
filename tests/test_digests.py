"""Byte identity of small CLI outputs across all five constructions.

Each case runs one generating command and pins the SHA-256 of the JSON
document and of its SVG or OBJ companion. The digests were recorded from
the code before the cell model was shared between the constructions, so
any change to coordinates, order or formatting shows up here.

The overlay cases render a piece document with a loop, which draws the
red overlay polyline and one `<text>` index label per hole. The carpet
loop runs clockwise inside the unit square (entries -1 and 0); the
gasket loop reaches outside it, so the loop sets the picture's bounds.
Their digests were recorded before the SVG canvas formatted each element
as it is drawn.

The carpet depth-4 and gasket depth-7 cases are the largest piece
documents the benchmark writes; their measures block carries the exact
area sums. They were recorded before the area sums moved onto the
integer lattice and before documents were written without the json
module's indenting encoder.

The index cases run `index` on those two documents with seeded rectangle
and convex loops (`helpers.query_loop`) and pin the `labels` and
`entries` of the reports, not their echo of the input path. Their
digests were recorded before hole checks and index vectors moved onto
the integer lattice.
"""

import hashlib
import json
import random

import pytest

from helpers import hole_set_oracle, query_loop
from quasifractal.cli import EXIT_OK, main
from quasifractal.document import document_to_pieces, loads_document

CASES = {
    "gen2d-1_2-d3": (["gen2d", "--a", "1/2", "--depth", "3"], "svg"),
    "gen2d-2_7-d2": (["gen2d", "--a", "2/7", "--depth", "2"], "svg"),
    "carpet-d2": (["carpet", "--depth", "2"], "svg"),
    "carpet-d4": (["carpet", "--depth", "4"], "svg"),
    "gasket-d4": (["gasket", "--depth", "4"], "svg"),
    "gasket-d7": (["gasket", "--depth", "7"], "svg"),
    "cube-1_3-d2": (["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "2"], "obj"),
    "cube-2_5-d1": (["gen3d", "--variant", "cube", "--a", "2/5", "--depth", "1"], "obj"),
    "tetra-d2": (["gen3d", "--variant", "tetra", "--depth", "2"], "obj"),
}

DIGESTS = {
    "carpet-d2": {
        "json": "6520398b7625e961e2f972851ec04d0b9f542224d943b079d032869546ef6c65",
        "svg": "051c5b2981963336f9bd45b6420e8cfc15add1da431e6cc4fb8c88501b0c153b",
    },
    "carpet-d4": {
        "json": "16ba7982a85344a99e128db05859aafc6f4785fab055874467a35d1e485fbc4e",
        "svg": "5b3d7885c695006036dfac72c04252d08665fc8943d0d00cea15f026547826bb",
    },
    "cube-1_3-d2": {
        "json": "2d780bc77233353b435a6c6503cabe828d7c86458b0ac80975e2a409fe833331",
        "obj": "be315880a6c25a3abc35e40448021457b9584e908123e677eb43516b6c5abc62",
    },
    "cube-2_5-d1": {
        "json": "b5a96408fb3650db8b34a09da4be0182e8a6ba9752e6b86492719c77dab689b1",
        "obj": "1ee53312881b684b6c38fb2690f824bc7b1d9b4ae52245842de006e8be37f4d3",
    },
    "gasket-d4": {
        "json": "44dcb19cff12c393d1014f27d0c3344a7c35a76abf1eacbbf6d1e8fedc000ace",
        "svg": "131fc1fadd2b00816505b83225e288e7526ffa1b63acde22b2080c82bb216d30",
    },
    "gasket-d7": {
        "json": "2c686527fd591e98974fe06e41f59a07ec55fc7289f53cc42a8f48b2e7d5d73c",
        "svg": "13733079db813f233a356b3d3b59ed602de167f38e1050b9a43f20ca9457c11e",
    },
    "gen2d-1_2-d3": {
        "json": "3fa95b7b07517e1b4ac78350e0fa918828dab55e8d33fa7440bad6b2d42c0afe",
        "svg": "4b2b62e0ceb5eab26626973402b3d972ac854d287782a205029f32ed09a83934",
    },
    "gen2d-2_7-d2": {
        "json": "a6f2df18fbdb5626ff92b678c53b680f4035bd3b3afa49dc810f7280c316e166",
        "svg": "2f0457db4ccb5ed410057118d3abf47039e0c1881d226703a247b14377474a97",
    },
    "tetra-d2": {
        "json": "1892f3eb32c7f943a350190467f8e0fe082b5fe354149332dfecbcefe0890b05",
        "obj": "690d03bf27d9761a68b7eff45f4c4cd02043308c034e055c3c19807cd777e3c2",
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_byte_identical(name, tmp_path):
    argv, companion = CASES[name]
    doc, side = tmp_path / "out.json", tmp_path / f"out.{companion}"
    assert main(argv + ["--out", str(doc), f"--{companion}", str(side)]) == EXIT_OK
    assert {"json": _sha256(doc), companion: _sha256(side)} == DIGESTS[name]


OVERLAYS = {
    "carpet-d2": (["carpet", "--depth", "2"], "1/7,6/7 6/7,7/8 7/9,1/8 1/8,1/9"),
    "gasket-d3": (["gasket", "--depth", "3"], "-1/5,-1/7 6/5,1/9 1/2,13/10"),
}

OVERLAY_DIGESTS = {
    "carpet-d2": "defa7f69852bb2f94291d70efd49930df6daba5c16c4173b8632de7bad308c31",
    "gasket-d3": "ca1e83a5765c08d96d41239785a5647d7cc612352f5e71c73a069f8ea17481d0",
}


@pytest.mark.parametrize("name", sorted(OVERLAYS))
def test_loop_overlays_are_byte_identical(name, tmp_path):
    argv, loop = OVERLAYS[name]
    doc, svg = tmp_path / "out.json", tmp_path / "out.svg"
    assert main(argv + ["--out", str(doc)]) == EXIT_OK
    assert main(["render", "--input", str(doc), "--loop", loop, "--out", str(svg)]) == EXIT_OK
    assert _sha256(svg) == OVERLAY_DIGESTS[name]


INDEX_DOCUMENTS = {"carpet-d4": ["carpet", "--depth", "4"], "gasket-d7": ["gasket", "--depth", "7"]}

# name -> (document, rectangle loops or convex ones, seed); three loops each
INDEX_CASES = {
    "carpet-d4-rectangles": ("carpet-d4", True, 4101),
    "carpet-d4-convex": ("carpet-d4", False, 4102),
    "gasket-d7-rectangles": ("gasket-d7", True, 7101),
    "gasket-d7-convex": ("gasket-d7", False, 7102),
}

INDEX_DIGESTS = {
    "carpet-d4-convex": "2c9d376504deba2ac1727227d508bde9186f66d0ece72f1387c8c6cbfa70bcd2",
    "carpet-d4-rectangles": "361f57c2d8ab52d92829cbc3dc854401e7cfb995c39342990d6e68ed8a05a07d",
    "gasket-d7-convex": "20990e2fd92d44c11ec66687ff41c5c02da43404a2e9251d29377a948cc3ef25",
    "gasket-d7-rectangles": "5c439f8d99f8b8dc1bc19ed43a47df2f4f8e815134fea8ef56403da6f25bd9f2",
}


@pytest.fixture(scope="module")
def index_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("index")
    paths = {}
    for name, argv in INDEX_DOCUMENTS.items():
        paths[name] = root / f"{name}.json"
        assert main(argv + ["--out", str(paths[name])]) == EXIT_OK
    return paths


@pytest.mark.parametrize("name", sorted(INDEX_CASES))
def test_index_reports_are_identical(name, index_documents, tmp_path):
    doc_name, rectangle, seed = INDEX_CASES[name]
    path = index_documents[doc_name]
    source = path.read_text()
    holes = hole_set_oracle(document_to_pieces(loads_document(source), source).removed)
    rng = random.Random(seed)
    reports = []
    for _ in range(3):
        loop = query_loop(rng, rectangle, holes.representatives)
        text = " ".join(f"{v.x},{v.y}" for v in loop.vertices)
        out = tmp_path / "index.json"
        assert main(["index", "--pieces", str(path), f"--loop={text}", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        reports.append([report["labels"], report["entries"]])
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == INDEX_DIGESTS[name]
