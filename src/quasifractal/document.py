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
from .geometry import Cell, LatticeTable, Point2, Point3, Segment, Simplex, check_depth
from .geometry import check_ring, rational, to_lattice
from .planar import CARPET, CARPET_DEPTH_CAP, GASKET, GASKET_DEPTH_CAP, PieceSet, on_lattice
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


def _count(value, what: str, cap: int | None = None) -> int:
    """A count field: a JSON integer, not a bool, a float or a string."""
    if type(value) is not int:
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return check_depth(value, cap, what=what)


class _Points(dict):
    """One document's points by their coordinate entries, each distinct point built once.

    Only points of string coordinates are kept, so an entry that is a bool
    or a float is read, and refused, every time; an unhashable entry raises
    TypeError.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.read = _Numbers().read
        self.dim = dim

    def __missing__(self, key: tuple):
        point = (Point2, Point3)[self.dim - 2](*map(self.read, key))
        if all(type(c) is str for c in key):
            self[key] = point
        return point


def _point(points: _Points, data):
    """Read a Point2 or Point3 from its list of dim "p/q" coordinates."""
    if len(data) != points.dim:
        raise ParameterError(f"expected {points.dim} coordinates, got {data!r}")
    return points[tuple(data)]


def _vertices(points: _Points, data) -> tuple:
    """Read the dim + 1 vertices of a tetrahedron."""
    if len(data) != points.dim + 1:
        raise ParameterError(f"expected {points.dim + 1} vertices, got {len(data)}")
    return tuple(_point(points, v) for v in data)


def _cells_json(cells) -> list:
    return [
        {"address": c.address, "corner": _point_json(c.corner), "side": format_rational(c.side)}
        for c in cells
    ]


def _cells(points: _Points, data) -> list[Cell]:
    return [Cell(c["address"], _point(points, c["corner"]), points.read(c["side"])) for c in data]


def _segments_json(segments) -> list:
    return [[_point_json(s.a), _point_json(s.b)] for s in sorted(segments)]


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
    points = _Points(2)
    params = Params2(points.read(doc["params"]["a"]), _count(doc["params"]["depth"], "depth"))
    level = _count(doc["level"], "level", DEPTH_CAP)
    cells = _cells(points, doc["cells"])
    side = params.a**level
    if (
        level != params.depth
        or len(cells) != 4**level
        or any(c.side != side or c.level != level for c in cells)
    ):
        raise ParameterError(f"cantor2d cells do not match level {level} and depth {params.depth}")
    segments = {Segment(_point(points, a), _point(points, b)) for a, b in doc["segments"]}
    return Stage2(params=params, level=level, cells=cells, segments=segments)


class Encoded:
    """JSON text written ahead of `dumps_document`, which splices it verbatim.

    The text is laid out for the value of a top-level key of a document.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_SLOT = Encoded("%s")


def _template(item: dict) -> str:
    """`item` laid out as a row of a top-level list, a %s for each `_SLOT`; its keys hold no %."""
    return _emit(item, "\n    ")


def _encoded_list(items: list[str]) -> Encoded:
    return Encoded("[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]")


def pieces_to_document(ps: PieceSet, measures: dict | None = None) -> dict:
    """The piece document of `ps`. Its "kept" and "removed" lists are
    `Encoded` text, assembled row by row from the lattice arrays with each
    distinct coordinate formatted once, so the document is ready for
    `dumps_document` but is not plain JSON data."""
    lcm = ps.kept.lcm
    text = LatticeTable(lambda v: '"' + format_rational(Fraction(v, lcm)) + '"')

    def vertex_columns(xs, ys) -> list:
        return [text.column(row) for pair in zip(xs, ys) for row in pair]

    def kept_rows(members, xs, ys) -> list[str]:
        if ps.kind == CARPET:  # corner and diagonal (side, side)
            template = _template({"corner": [_SLOT, _SLOT], "side": _SLOT})
            columns = [text.column(xs[0]), text.column(ys[0]), text.column(xs[1])]
        else:
            template = _template({"vertices": [[_SLOT, _SLOT]] * 3})
            columns = vertex_columns(xs, ys)
        return [template % row for row in zip(*columns)]

    births, labels = ps.removed.births, ps.removed.labels

    def removed_rows(members, xs, ys) -> list[str]:
        template = _template({"boundary": [[_SLOT, _SLOT]] * len(xs), "birth_level": _SLOT, "label": _SLOT})
        columns = vertex_columns(xs, ys)
        columns += [[births[i] for i in members], [_string(labels[i]) for i in members]]
        return [template % row for row in zip(*columns)]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": ps.kind,
        "level": ps.level,
        "kept": _encoded_list(ps.kept.arrange(kept_rows)),
        "removed": _encoded_list(ps.removed.arrange(removed_rows)),
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


class _Numbers(dict):
    """One document's rationals numbered by value: each distinct entry is
    read once, and `values[n]` is the value numbered n.

    Documents repeat few coordinates many times (257 distinct strings among
    19 680 in gasket 7). Only string entries are kept, so a bool or a float
    never finds an equal int's entry; an unhashable entry raises TypeError.
    """

    def __init__(self):
        super().__init__()
        self.values: list[Fraction] = []
        self._by_value: dict = {}

    def __missing__(self, entry) -> int:
        value = rational(entry)
        number = self._by_value.setdefault(value, len(self.values))
        if number == len(self.values):
            self.values.append(value)
        if type(entry) is str:
            self[entry] = number
        return number

    def read(self, entry) -> Fraction:
        return self.values[self[entry]]


def _pair(numbers: _Numbers, data, entries: list) -> tuple[int, int]:
    """Check a point of two "p/q" coordinates, note their numbers in entries and return them."""
    if len(data) != 2:
        raise ParameterError(f"expected 2 coordinates, got {data!r}")
    x, y = data
    point = numbers[x], numbers[y]
    entries += point
    return point


@_reads_shape
def document_to_pieces(doc: dict) -> PieceSet:
    """Read a piece document onto the lattice of D, the lcm of its
    denominators: each distinct coordinate is read and scaled once, and no
    point object is built."""
    kind = doc.get("kind")
    _check(doc, kind)
    if kind not in (CARPET, GASKET):
        raise ParameterError(f"not a planar piece document: kind={kind!r}")
    cap, split = (CARPET_DEPTH_CAP, 8) if kind == CARPET else (GASKET_DEPTH_CAP, 3)
    level = _count(doc["level"], "level", cap)
    numbers = _Numbers()
    entries: list[int] = []  # the number of every coordinate, x then y, point after point
    counts: list[int] = []  # points per ring, kept cells first
    if kind == CARPET:
        for c in doc["kept"]:
            _pair(numbers, c["corner"], entries)
            side = numbers[c["side"]]
            entries += (side, side)  # the diagonal
        counts = [2] * (len(entries) // 4)
        sides = set(entries[2::4])
    else:
        for c in doc["kept"]:
            vertices = c["vertices"]
            if len(vertices) != 3:
                raise ParameterError(f"expected 3 vertices, got {len(vertices)}")
            for v in vertices:
                _pair(numbers, v, entries)
            counts.append(3)
        sides = set()
    kept_count = len(counts)
    births: list[int] = []
    labels: list = []
    for r in doc["removed"]:
        ring = [_pair(numbers, v, entries) for v in r["boundary"]]
        check_ring(ring)
        births.append(_count(r["birth_level"], "birth_level"))
        labels.append(r["label"])
        counts.append(len(ring))
    thirds = 3**level  # a carpet cell's side is 1 / thirds
    if (
        kept_count != split**level
        or Counter(births) != Counter({b: split ** (b - 1) for b in range(1, level + 1)})
        or any(numbers.values[side] != Fraction(1, thirds) for side in sides)
    ):
        raise ParameterError(f"{kind} pieces do not match level {level}")
    lcm, ints = to_lattice(numbers.values)
    ints = list(map(ints.__getitem__, entries))
    kept, removed = on_lattice(kind, lcm, ints, counts, kept_count, births, labels)
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
    points = _Points(3)
    read = points.read
    variant = SpatialVariant(kind, read(doc["params"]["a"]) if cube else None)
    cap, split, faces = (CUBE_DEPTH_CAP, 8, 6) if cube else (TETRA_DEPTH_CAP, 4, 4)
    level = _count(doc["level"], "level", cap)
    if cube:
        cells = _cells(points, doc["cells"])
    else:
        cells = [Simplex(c["address"], _vertices(points, c["vertices"])) for c in doc["cells"]]
    skeleton = {Segment(_point(points, a), _point(points, b)) for a, b in doc["skeleton"]}
    pieces = [
        Face3(
            tuple(_point(points, v) for v in f["boundary"]),
            _count(f["birth_level"], "birth_level"),
            read(f["area_sq"]),
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
    which is most of a document's write time. An `Encoded` value is
    written as its text.
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
    if isinstance(value, Encoded):
        return value.text
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
