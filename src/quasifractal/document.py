"""Lossless JSON documents for stages and piece sets.

Every rational value is serialized as a "p/q" string (plain "p" when the
denominator is 1), never as a float, so parse(serialize(x)) reproduces x
with exact equality. Floating values appear only inside the informational
`measures` block. Collections are emitted in canonical order so documents
are byte-deterministic.

A stage is fixed by its header (kind, `params`, `level`), so a reader
rebuilds that stage and accepts the input only if it is the stage's
document, key for key and JSON type for JSON type; `measures` is left
out, unchecked. The reader returns the rebuilt stage.

A document is accepted by its text: `loads_document` parses the header
alone when the text is laid out as the writer lays it out, and the reader
accepts the text if it is, byte for byte, the rebuilt stage's document
plus any `measures` block. Only a text it does not accept this way is
parsed whole, and then refused or accepted as before, with the same
message, on the stage already built.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from fractions import Fraction
from itertools import chain, zip_longest

from . import cantor, planar, spatial
from .cantor import DEPTH_CAP, Stage2
from .errors import CapacityError, ParameterError, QuasifractalError
from .geometry import BoxCells, LatticeTable, Segments, check_depth, rational
from .planar import CARPET, GASKET, PieceSet, arrange
from .spatial import CUBE_DEPTH_CAP, CUBE_WIREFRAME, TETRA_DEPTH_CAP, TETRA_GASKET, Stage3

SCHEMA_VERSION = 1

_string = json.encoder.encode_basestring_ascii

# kind -> (its list of cells, the cells a cell splits into, the level cap);
# the carpet's and gasket's read from their variant table.
_SHAPES = {
    "cantor2d": ("cells", 4, DEPTH_CAP),
    **{kind: ("kept", children, cap) for kind, (*_, children, cap) in planar._VARIANTS.items()},
    CUBE_WIREFRAME: ("cells", 8, CUBE_DEPTH_CAP),
    TETRA_GASKET: ("cells", 4, TETRA_DEPTH_CAP),
}
_KINDS = tuple(_SHAPES)


def format_rational(x: Fraction | int) -> str:
    try:
        return str(x)
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise CapacityError(f"rational too large to write: {exc}") from exc


def stage2_to_document(stage: Stage2, measures: dict | None = None) -> dict:
    """The cantor2d document of `stage`; its "cells" and "segments" are
    `Encoded` text, written from the lattice arrays with each distinct
    coordinate formatted once."""
    text = _lattice_text(stage.cells.lcm)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cantor2d",
        "params": {"a": format_rational(stage.params.a), "depth": stage.params.depth},
        "level": stage.level,
        "cells": _box_list(stage.cells, 2, text),
        "segments": _segment_list(stage.segments, 2, text),
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


class Encoded:
    """JSON text written ahead of `dumps_document`, which splices it verbatim.

    The text is laid out for the value of a top-level key of a document.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_SLOT = Encoded("%s")


def _template(item) -> str:
    """`item` laid out as a row of a top-level list, a %s for each `_SLOT`; its keys hold no %."""
    return _emit(item, "\n    ")


def _encoded_list(items: list[str]) -> Encoded:
    return Encoded("[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]")


def _lattice_text(lcm: int) -> LatticeTable:
    """The JSON text of each distinct lattice value v, the string of v / lcm."""
    return LatticeTable(lambda v: '"' + format_rational(Fraction(v, lcm)) + '"')


def _listed(template: str, count: int, texts) -> Encoded:
    """The top-level list of `count` rows of `template`, whose %s slots take
    `texts` in turn, row by row: all rows are filled by one % operation."""
    if not count:
        return Encoded("[]")
    return Encoded("[\n    " + ",\n    ".join([template] * count) % tuple(texts) + "\n  ]")


def _columns(grid, text: LatticeTable) -> list[list[str]]:
    """The texts of an (N, ...) array of lattice ints, one list per lattice value of a row."""
    texts = text.column(grid.ravel())
    width = math.prod(grid.shape[1:])
    return [texts[i::width] for i in range(width)]


def _box_list(cells: BoxCells, dim: int, text: LatticeTable) -> Encoded:
    rows = zip(map(_string, cells.addresses), *_columns(cells.corners, text), text.column(cells.sides))
    return _listed(_BOX_ROW[dim], len(cells), chain.from_iterable(rows))


def _segment_list(segments: Segments, dim: int, text: LatticeTable) -> Encoded:
    """The segments in the one segment order, by first then second endpoint,
    which their array holds: on one lattice it is the Fraction order."""
    return _listed(_SEGMENT_ROW[dim], len(segments), text.column(segments.grid.ravel()))


def pieces_to_document(ps: PieceSet, measures: dict | None = None) -> dict:
    """The piece document of `ps`. Its "kept" and "removed" lists are
    `Encoded` text, written from the lattice arrays with each distinct
    coordinate formatted once, so the document is ready for
    `dumps_document` but is not plain JSON data."""
    kept = ps.kept
    text = _lattice_text(kept.lcm)
    if ps.kind == CARPET:
        texts = chain.from_iterable(zip(*_columns(kept.corners, text), text.column(kept.sides)))
    else:
        texts = text.column(kept.vertices.ravel())
    births, labels = ps.removed.births, ps.removed.labels

    def removed_rows(members, xs, ys) -> list[str]:
        template = _template({"boundary": [[_SLOT, _SLOT]] * len(xs), "birth_level": _SLOT, "label": _SLOT})
        columns = [text.column(row) for pair in zip(xs, ys) for row in pair]
        columns += [[births[i] for i in members], [_string(labels[i]) for i in members]]
        return [template % row for row in zip(*columns)]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": ps.kind,
        "level": ps.level,
        "kept": _listed(_KEPT_ROW[ps.kind], len(kept), texts),
        "removed": _encoded_list(arrange(ps.removed.groups, removed_rows)),
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


def stage3_to_document(stage: Stage3, measures: dict | None = None) -> dict:
    """The spatial stage document of `stage`; its "cells", "skeleton" and
    "pieces" are `Encoded` text, written from the lattice arrays with each
    distinct coordinate formatted once."""
    variant = stage.variant
    params: dict = {"kind": variant.kind}
    if variant.a is not None:
        params["a"] = format_rational(variant.a)
    text = _lattice_text(stage.cells.lcm)
    if variant.kind == CUBE_WIREFRAME:
        cells = _box_list(stage.cells, 3, text)
    else:
        rows = zip(map(_string, stage.cells.addresses), *_columns(stage.cells.vertices, text))
        cells = _listed(_TETRA_ROW, len(stage.cells), chain.from_iterable(rows))
    faces = stage.pieces
    area = LatticeTable(lambda n: '"' + format_rational(Fraction(n, 4 * faces.lcm**4)) + '"')
    rows = zip(*_columns(faces.rings, text), faces.births.tolist(), area.column(faces.areas))
    pieces = _listed(_FACE_ROW[faces.rings.shape[1]], len(faces), chain.from_iterable(rows))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": variant.kind,
        "params": params,
        "level": stage.level,
        "cells": cells,
        "skeleton": _segment_list(stage.skeleton, 3, text),
        "pieces": pieces,
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


def document_to_stage2(doc: dict, text: str) -> Stage2:
    """The cantor2d stage whose document `text` is; `doc` is `loads_document(text)`."""
    return _rebuilt(doc, text, ("cantor2d",), _build_stage2, stage2_to_document)


def document_to_pieces(doc: dict, text: str) -> PieceSet:
    """The carpet or gasket piece set whose document `text` is; `doc` is `loads_document(text)`."""
    return _rebuilt(doc, text, (CARPET, GASKET), _build_pieces, pieces_to_document)


def document_to_stage3(doc: dict, text: str) -> Stage3:
    """The spatial stage whose document `text` is; `doc` is `loads_document(text)`."""
    return _rebuilt(doc, text, (CUBE_WIREFRAME, TETRA_GASKET), _build_stage3, stage3_to_document)


def _build_stage2(doc: dict, level: int) -> Stage2:
    return cantor.build(cantor.Params2(_scale(doc), level))


def _build_pieces(doc: dict, level: int) -> PieceSet:
    return planar.build_planar(doc["kind"], level)


def _build_stage3(doc: dict, level: int) -> Stage3:
    kind = doc["kind"]
    variant = spatial.SpatialVariant(kind, _scale(doc) if kind == CUBE_WIREFRAME else None)
    return spatial.build_spatial(variant, level)


class KindError(ParameterError):
    """A document of a kind its reader does not take. `doc` is the whole
    parsed document, for a caller that picks the reader by kind."""

    def __init__(self, message: str, doc: dict):
        super().__init__(message)
        self.doc = doc


# Every cell entry of every kind takes at least this many characters of
# JSON: the shortest is a carpet cell written as {"corner":["0","0"],"side":"1"}.
_CELL_TEXT = 31


def _level(doc: dict, text: str, kinds: tuple) -> int:
    """The level of `doc`, a document of one of `kinds` parsed from `text`,
    once its header is checked and its list of cells found to hold that
    level's count of them (unless `doc` is a `_Header`, which lacks the
    list), in a text long enough to write them."""
    kind, level = doc.get("kind"), doc.get("level")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if kind not in kinds:
        raise KindError(f"expected a {' or '.join(kinds)} document, got kind {kind!r}", doc)
    if type(level) is not int:
        raise ParameterError(f"level must be an integer, got {level!r}")
    key, split, cap = _SHAPES[kind]
    check_depth(level, cap, what=f"{kind} level")
    count = split**level
    if type(doc) is not _Header and (type(doc.get(key)) is not list or len(doc[key]) != count):
        raise ParameterError(f"a level-{level} {kind} document lists {count} {key}")
    if len(text) < _CELL_TEXT * count:
        raise ParameterError(f"a level-{level} {kind} document takes at least {_CELL_TEXT * count} characters")
    return level


def _scale(doc: dict) -> Fraction:
    """The scale factor `params.a`; the rebuilt document checks how it is written."""
    return rational(doc["params"].get("a") if type(doc.get("params")) is dict else None)


_MEASURES = ',\n  "measures": '
_DECODER = json.JSONDecoder()
_ABSENT = object()


def _rebuilt(doc: dict, text: str, kinds: tuple, build, write):
    """The stage `build(doc, level)` if `text` is its document `write(stage)`
    apart from `measures`; else a ParameterError naming the first difference.

    For a `_Header` the stage is built from the header and accepted if the
    text is its document, byte for byte, plus any `measures` block.
    Otherwise the whole text is parsed and checked as a parsed document is,
    in the same order; the stage already built, or the header's refusal,
    stands for the build unless the whole document names another stage (a
    header key set again after the cells).
    """
    header, built, refusal = doc, None, None
    if type(doc) is _Header:
        try:
            built = build(doc, _level(doc, text, kinds))
        except QuasifractalError as exc:
            refusal = exc
        else:
            canonical = dumps_document(write(built))
            if _accepted(text, canonical):
                return built
        doc = _parsed(text)
        if _stage_key(doc) != _stage_key(header):  # a header key set again after the cells
            built = refusal = None
    level = _level(doc, text, kinds)
    if refusal is not None:
        raise refusal
    if built is None:
        built = build(doc, level)
        canonical = dumps_document(write(built))
        if _accepted(text, canonical):
            return built
    expected, actual = json.loads(canonical), {k: v for k, v in doc.items() if k != "measures"}
    if json.dumps(expected, sort_keys=True) == json.dumps(actual, sort_keys=True):
        return built  # the same JSON, written another way
    path = _difference(expected, actual)
    if path is not None:
        raise ParameterError(f"{doc['kind']} document differs from its level-{built.level} stage at {path[1:]}")
    return built


def _stage_key(doc: dict) -> str:
    """The header values that fix the stage of `doc`, JSON type for JSON type."""
    return json.dumps([doc.get("kind"), doc.get("params"), doc.get("level")])


def _accepted(text: str, canonical: str) -> bool:
    """Whether `text` is `canonical` plus any `measures` block, which the
    writer puts last, before the closing "\n}\n"."""
    end = len(canonical) - 3
    if not text.startswith(canonical[:end]):
        return False
    if text.startswith(_MEASURES, end):
        # the decoder raises ValueError for an integer literal beyond the
        # int-to-str digit limit and RecursionError for nesting beyond its depth
        with suppress(ValueError, RecursionError):
            end = _DECODER.raw_decode(text, end + len(_MEASURES))[1]
    return text[end:] == canonical[-3:]


def _difference(expected, actual) -> str | None:
    """The path to the first entry where `actual` is not `expected`, key for
    key and JSON type for JSON type, such as ".kept[17].corner[0]"; else None."""
    if type(expected) is dict is type(actual):
        keys = [*expected, *(key for key in actual if key not in expected)]
        steps = ((f".{key}", expected.get(key, _ABSENT), actual.get(key, _ABSENT)) for key in keys)
    elif type(expected) is list is type(actual):
        pairs = zip_longest(expected, actual, fillvalue=_ABSENT)
        steps = ((f"[{i}]", *pair) for i, pair in enumerate(pairs))
    else:
        return None if type(expected) is type(actual) and expected == actual else ""
    for step, *pair in steps:
        inner = _difference(*pair)
        if inner is not None:
            return step + inner
    return None


def dumps_document(doc: dict) -> str:
    """The bytes of `json.dumps(doc, indent=2)` plus a newline, written directly.

    On this layout the json module falls back to its pure-Python encoder,
    which is most of a document's write time. An `Encoded` value is
    written as its text. A document's members are joined once, so the
    text is copied once.
    """
    if not isinstance(doc, dict) or not doc:
        return _emit(doc, "\n") + "\n"
    parts = []
    for key, value in doc.items():
        # _string raises TypeError for a key that is not a str
        parts += (",\n  ", _string(key), ": ", _emit(value, "\n  "))
    parts[0] = "{\n  "
    parts.append("\n}\n")
    return "".join(parts)


def _emit(value, newline: str) -> str:
    """One JSON value; `newline` is a line break plus the indent of the line it starts on."""
    if isinstance(value, str):
        return _string(value)
    if type(value) is int:  # not a bool, which json writes as true or false
        return int.__repr__(value)
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
        elif all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_emit(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, Encoded):
        return value.text
    return json.dumps(value)


# The row templates of the cells, segments and faces lists, by kind, dimension or ring size.
_KEPT_ROW = {
    CARPET: _template({"corner": [_SLOT] * 2, "side": _SLOT}),
    GASKET: _template({"vertices": [[_SLOT] * 2] * 3}),
}
_SEGMENT_ROW = {d: _template([[_SLOT] * d] * 2) for d in (2, 3)}
_BOX_ROW = {d: _template({"address": _SLOT, "corner": [_SLOT] * d, "side": _SLOT}) for d in (2, 3)}
_TETRA_ROW = _template({"address": _SLOT, "vertices": [[_SLOT] * 3] * 4})
_FACE_ROW = {k: _template({"boundary": [[_SLOT] * 3] * k, "birth_level": _SLOT, "area_sq": _SLOT}) for k in (3, 4)}


class _Header(dict):
    """The header of a document in the writer's layout: its keys before the list of cells."""


def loads_document(text: str) -> dict:
    """A document of a known kind; its reader checks the rest.

    A text laid out as the writer lays it out yields its header alone, a
    `_Header` parsed from the text before the list of cells; its reader
    parses the rest only if it refuses the text. Any other text is parsed
    whole.
    """
    doc = _header(text)
    return _parsed(text) if doc is None else doc


def whole_document(doc: dict, text: str) -> dict:
    """The whole parsed document `text`, of which `doc` is `loads_document(text)`."""
    return _parsed(text) if type(doc) is _Header else doc


_LEVEL = '\n  "level": '


def _header(text: str) -> _Header | None:
    """The header of `text`: the JSON object before the line of its level
    ends, if that line ends with a comma and the list of cells follows. A
    written header holds no list."""
    start = text.find(_LEVEL)
    end = text.find(",\n", start)
    if start < 0 or end < 0 or text.find("[", 0, end) >= 0:
        return None
    try:
        doc = json.loads(text[:end] + "\n}")
    except (ValueError, RecursionError):
        return None
    if type(doc) is not dict or doc.get("kind") not in _KINDS:
        return None
    if not text.startswith(f'\n  "{_SHAPES[doc["kind"]][0]}": ', end + 1):
        return None
    return _Header(doc)


def _parsed(text: str) -> dict:
    """The whole parsed document `text`, of a known kind."""
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
