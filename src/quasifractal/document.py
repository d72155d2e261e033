"""Lossless JSON documents for stages and piece sets.

Every rational value is serialized as a "p/q" string (plain "p" when the
denominator is 1), never as a float, so parse(serialize(x)) reproduces x
with exact equality. Floating values appear only inside the informational
`measures` block, which is not used for reconstruction. Collections are
emitted in canonical order so documents are byte-deterministic.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import wraps

from .cantor import DEPTH_CAP, Params2, Stage2
from .errors import CapacityError, ParameterError, QuasifractalError
from .geometry import Cell, Loop, Point2, Point3, Segment, Simplex, check_depth, rational
from .planar import CARPET, CARPET_DEPTH_CAP, GASKET, GASKET_DEPTH_CAP, Piece, PieceSet
from .spatial import CUBE_DEPTH_CAP, CUBE_WIREFRAME, TETRA_DEPTH_CAP, TETRA_GASKET
from .spatial import Face3, SpatialVariant, Stage3

SCHEMA_VERSION = 1

_string = json.encoder.encode_basestring_ascii

_KINDS = ("cantor2d", CARPET, GASKET, CUBE_WIREFRAME, TETRA_GASKET)


def format_rational(x: Fraction | int) -> str:
    try:
        return str(x)
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise CapacityError(f"rational too large to write: {exc}") from exc


def _point_json(p) -> list[str]:
    return [format_rational(c) for c in p]


class _Rationals(dict):
    """One document's rationals by their text, each distinct string read once.

    Documents repeat few coordinates many times (257 distinct strings among
    19 680 in gasket 7). A value that is not a string goes through
    `rational` uncached, so a bool or a float never finds an equal int's
    entry; an unhashable one raises TypeError.
    """

    def __missing__(self, value):
        number = rational(value)
        if type(value) is str:
            self[value] = number
        return number


def _count(value, what: str, cap: int | None = None) -> int:
    """A count field: a JSON integer, not a bool, a float or a string."""
    if type(value) is not int:
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return check_depth(value, cap, what=what)


def _point(read: _Rationals, data, dim: int = 2):
    """Read a Point2 or Point3 from its list of dim "p/q" coordinates."""
    if len(data) != dim:
        raise ParameterError(f"expected {dim} coordinates, got {data!r}")
    return (Point2, Point3)[dim - 2](*[read[c] for c in data])


def _vertices(read: _Rationals, data, dim: int) -> tuple:
    """Read the dim + 1 vertices of a triangle (dim 2) or tetrahedron (dim 3)."""
    if len(data) != dim + 1:
        raise ParameterError(f"expected {dim + 1} vertices, got {len(data)}")
    return tuple(_point(read, v, dim) for v in data)


def _cells_json(cells) -> list:
    return [
        {"address": c.address, "corner": _point_json(c.corner), "side": format_rational(c.side)}
        for c in cells
    ]


def _cells(read: _Rationals, data, dim: int) -> list[Cell]:
    return [Cell(c["address"], _point(read, c["corner"], dim), read[c["side"]]) for c in data]


def _segments_json(segments) -> list:
    return [[_point_json(s.a), _point_json(s.b)] for s in sorted(segments)]


def _loop_json(loop: Loop) -> list:
    return [_point_json(v) for v in loop.vertices]


def _reads_shape(read):
    """Report a document whose shape does not fit its kind as ParameterError.

    A missing key, a wrong type, a wrong length or a JSON `Infinity`
    surfaces while the reader indexes, unpacks and converts the document;
    the CLI maps ParameterError to exit 2.
    """

    @wraps(read)
    def reader(doc: dict):
        try:
            return read(doc)
        except QuasifractalError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ParameterError(
                f"malformed {doc.get('kind')} document: {type(exc).__name__}: {exc}"
            ) from exc

    return reader


def stage2_to_document(stage: Stage2, measures: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cantor2d",
        "params": {"a": format_rational(stage.params.a), "depth": stage.params.depth},
        "level": stage.level,
        "cells": _cells_json(stage.cells),
        "segments": _segments_json(stage.segments),
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


@_reads_shape
def document_to_stage2(doc: dict) -> Stage2:
    _check(doc, "cantor2d")
    read = _Rationals()
    params = Params2(read[doc["params"]["a"]], _count(doc["params"]["depth"], "depth"))
    level = _count(doc["level"], "level", DEPTH_CAP)
    cells = _cells(read, doc["cells"], 2)
    side = params.a**level
    if (
        level != params.depth
        or len(cells) != 4**level
        or any(c.side != side or c.level != level for c in cells)
    ):
        raise ParameterError(f"cantor2d cells do not match level {level} and depth {params.depth}")
    segments = {Segment(_point(read, a), _point(read, b)) for a, b in doc["segments"]}
    return Stage2(params=params, level=level, cells=cells, segments=segments)


def pieces_to_document(ps: PieceSet, measures: dict | None = None) -> dict:
    if ps.kind == CARPET:
        kept = [
            {"corner": _point_json(cell.corner), "side": format_rational(cell.side)}
            for cell in ps.kept
        ]
    else:
        kept = [{"vertices": [_point_json(v) for v in c.vertices]} for c in ps.kept]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": ps.kind,
        "level": ps.level,
        "kept": kept,
        "removed": [
            {
                "boundary": _loop_json(piece.boundary),
                "birth_level": piece.birth_level,
                "label": piece.label,
            }
            for piece in ps.removed
        ],
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


@_reads_shape
def document_to_pieces(doc: dict) -> PieceSet:
    kind = doc.get("kind")
    _check(doc, kind)
    if kind not in (CARPET, GASKET):
        raise ParameterError(f"not a planar piece document: kind={kind!r}")
    cap, split = (CARPET_DEPTH_CAP, 8) if kind == CARPET else (GASKET_DEPTH_CAP, 3)
    level = _count(doc["level"], "level", cap)
    read = _Rationals()
    if kind == CARPET:
        kept = [Cell("", _point(read, c["corner"]), read[c["side"]]) for c in doc["kept"]]
    else:
        kept = [Simplex("", _vertices(read, c["vertices"], 2)) for c in doc["kept"]]
    removed = [
        Piece(
            Loop(tuple(_point(read, v) for v in r["boundary"])),
            _count(r["birth_level"], "birth_level"),
            r["label"],
        )
        for r in doc["removed"]
    ]
    births = Counter(piece.birth_level for piece in removed)
    thirds = 3**level  # a carpet cell's side is 1 / thirds
    if (
        len(kept) != split**level
        or births != Counter({b: split ** (b - 1) for b in range(1, level + 1)})
        or (
            kind == CARPET
            and any(c.side.numerator != 1 or c.side.denominator != thirds for c in kept)
        )
    ):
        raise ParameterError(f"{kind} pieces do not match level {level}")
    return PieceSet(kind=kind, level=level, kept=kept, removed=removed)


def stage3_to_document(stage: Stage3, measures: dict | None = None) -> dict:
    variant = stage.variant
    params: dict = {"kind": variant.kind}
    if variant.a is not None:
        params["a"] = format_rational(variant.a)
    if variant.kind == CUBE_WIREFRAME:
        cells = _cells_json(stage.cells)
    else:
        cells = [
            {"address": c.address, "vertices": [_point_json(v) for v in c.vertices]}
            for c in stage.cells
        ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": variant.kind,
        "params": params,
        "level": stage.level,
        "cells": cells,
        "skeleton": _segments_json(stage.skeleton),
        "pieces": [
            {
                "boundary": [_point_json(v) for v in face.boundary],
                "birth_level": face.birth_level,
                "area_sq": format_rational(face.area_sq),
            }
            for face in stage.pieces
        ],
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


@_reads_shape
def document_to_stage3(doc: dict) -> Stage3:
    kind = doc.get("kind")
    _check(doc, kind)
    if kind not in (CUBE_WIREFRAME, TETRA_GASKET):
        raise ParameterError(f"not a spatial stage document: kind={kind!r}")
    cube = kind == CUBE_WIREFRAME
    read = _Rationals()
    variant = SpatialVariant(kind, read[doc["params"]["a"]] if cube else None)
    cap, split, faces = (CUBE_DEPTH_CAP, 8, 6) if cube else (TETRA_DEPTH_CAP, 4, 4)
    level = _count(doc["level"], "level", cap)
    if cube:
        cells = _cells(read, doc["cells"], 3)
    else:
        cells = [Simplex(c["address"], _vertices(read, c["vertices"], 3)) for c in doc["cells"]]
    skeleton = {Segment(_point(read, a, 3), _point(read, b, 3)) for a, b in doc["skeleton"]}
    pieces = [
        Face3(
            tuple(_point(read, v, 3) for v in f["boundary"]),
            _count(f["birth_level"], "birth_level"),
            read[f["area_sq"]],
        )
        for f in doc["pieces"]
    ]
    births = Counter(face.birth_level for face in pieces)
    side = variant.a**level if cube else None
    if (
        len(cells) != split**level
        or any(c.level != level for c in cells)
        or (cube and any(c.side != side for c in cells))
        or births != Counter({b: faces * split**b for b in range(level + 1)})
    ):
        raise ParameterError(f"{kind} cells and faces do not match level {level}")
    return Stage3(variant=variant, level=level, cells=cells, skeleton=skeleton, pieces=pieces)


def _check(doc: dict, kind: str) -> None:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema_version {version!r}")
    if doc.get("kind") != kind:
        raise ParameterError(f"expected kind {kind!r}, got {doc.get('kind')!r}")


def dumps_document(doc: dict) -> str:
    """The bytes of `json.dumps(doc, indent=2)` plus a newline, written directly.

    On this layout the json module falls back to its pure-Python encoder,
    which is most of a document's write time.
    """
    return _emit(doc, "\n") + "\n"


def _emit(value, newline: str) -> str:
    """One JSON value; `newline` is a line break plus the indent of the line it starts on."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        # _string raises TypeError for a key that is not a str
        items = [_string(key) + ": " + _emit(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if all(isinstance(item, str) for item in value):
            items = map(_string, value)
        else:
            items = [_emit(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def loads_document(text: str) -> dict:
    """Parse a document of a known kind; its reader checks the schema_version."""
    # Besides JSONDecodeError (a ValueError), the decoder raises ValueError for
    # an integer literal beyond the int-to-str digit limit and RecursionError
    # for nesting beyond its depth.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"invalid JSON document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") not in _KINDS:
        raise ParameterError("not a quasifractal stage document")
    return doc
