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
from .geometry import BoxCells, LatticeTable, Segments, Simplices, check_depth, check_ring, lattice_groups
from .geometry import rational
from .planar import CARPET, CARPET_DEPTH_CAP, GASKET, GASKET_DEPTH_CAP, Cells, Pieces, PieceSet
from .spatial import CUBE_DEPTH_CAP, CUBE_WIREFRAME, TETRA_DEPTH_CAP, TETRA_GASKET
from .spatial import Faces, SpatialVariant, Stage3

SCHEMA_VERSION = 1

_string = json.encoder.encode_basestring_ascii

_KINDS = ("cantor2d", CARPET, GASKET, CUBE_WIREFRAME, TETRA_GASKET)


def format_rational(x: Fraction | int) -> str:
    try:
        return str(x)
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise CapacityError(f"rational too large to write: {exc}") from exc


def _count(value, what: str, cap: int | None = None) -> int:
    """A count field: a JSON integer, not a bool, a float or a string."""
    if type(value) is not int:
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return check_depth(value, cap, what=what)


class _Lattice(dict):
    """One document's coordinates on the lattice of D = `lcm`, by their entries.

    A coordinate must be a multiple of 1/D in [0, 1]. Each distinct entry
    is read (through `_Numbers`), checked and scaled once. Only string
    entries are kept, so an entry that is a bool or a float is read, and
    refused, every time; an unhashable entry raises TypeError.
    """

    def __init__(self, kind: str, dim: int, numbers: "_Numbers", lcm: int):
        super().__init__()
        self.kind = kind
        self.dim = dim
        self.numbers = numbers
        self.lcm = lcm

    def __missing__(self, entry) -> int:
        value = self.numbers.read(entry)
        n, q = value.as_integer_ratio()
        if self.lcm % q or not 0 <= n <= q:
            raise ParameterError(
                f"{self.kind} coordinate {value} is not a multiple of 1/{self.lcm} in [0, 1]"
            )
        scaled = n * (self.lcm // q)
        if type(entry) is str:
            self[entry] = scaled
        return scaled

    def point(self, data) -> tuple:
        """Read a point from its list of dim "p/q" coordinates."""
        if type(data) is not list or len(data) != self.dim:
            raise ParameterError(f"expected a list of {self.dim} coordinates, got {data!r}")
        if self.dim == 2:  # unpacked: a third of the time of a generic tuple(map(...))
            x, y = data
            return self[x], self[y]
        x, y, z = data
        return self[x], self[y], self[z]

    def vertices(self, data) -> tuple:
        """Read the dim + 1 vertices of a tetrahedron."""
        if len(data) != self.dim + 1:
            raise ParameterError(f"expected {self.dim + 1} vertices, got {len(data)}")
        return tuple(map(self.point, data))

    def segments(self, data) -> set:
        """Read a list of segments, each a pair of distinct points, into rows (p, q), p < q."""
        rows = set()
        for a, b in data:
            p, q = self.point(a), self.point(b)
            if p == q:
                raise ParameterError(f"degenerate segment at {a!r}")
            rows.add((p, q) if p < q else (q, p))
        return rows


def _box_cells(points: _Lattice, data, side: Fraction) -> tuple[BoxCells, bool]:
    """Read box cells onto the lattice, whose D is the denominator of
    `side`, and tell whether every cell has that side."""
    cells = [(c["address"], points.point(c["corner"]), points.numbers.read(c["side"])) for c in data]
    rows = [(address, corner, side.numerator) for address, corner, _ in cells]
    return BoxCells(points.lcm, rows), all(s == side for _, _, s in cells)


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
    """The cantor2d document of `stage`; its "cells" and "segments" are
    `Encoded` text, written from the lattice rows with each distinct
    coordinate formatted once."""
    text = _lattice_text(stage.cells.lcm)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cantor2d",
        "params": {"a": format_rational(stage.params.a), "depth": stage.params.depth},
        "level": stage.level,
        "cells": _encoded_list(_box_texts(stage.cells, 2, text)),
        "segments": _encoded_list(_segment_texts(stage.segments, 2, text)),
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


@_reads_shape
def document_to_stage2(doc: dict) -> Stage2:
    """Read a cantor2d document onto the lattice of its level, D = q^level for a = p/q."""
    _check(doc, "cantor2d")
    numbers = _Numbers()
    params = Params2(numbers.read(doc["params"]["a"]), _count(doc["params"]["depth"], "depth"))
    level = _count(doc["level"], "level", DEPTH_CAP)
    side = params.a**level
    points = _Lattice("cantor2d", 2, numbers, side.denominator)
    cells, sides_match = _box_cells(points, doc["cells"], side)
    if (
        level != params.depth
        or len(cells) != 4**level
        or not sides_match
        or any(len(address) != level for address, _, _ in cells.rows)
    ):
        raise ParameterError(f"cantor2d cells do not match level {level} and depth {params.depth}")
    return Stage2(params, level, cells, Segments(points.lcm, points.segments(doc["segments"])))


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


def _box_texts(cells: BoxCells, dim: int, text: LatticeTable) -> list[str]:
    template = _template({"address": _SLOT, "corner": [_SLOT] * dim, "side": _SLOT})
    value = text.__getitem__
    return [template % (_string(a), *map(value, corner), value(side)) for a, corner, side in cells.rows]


def _segment_texts(segments: Segments, dim: int, text: LatticeTable) -> list[str]:
    """The segments' rows in the one segment order, by first then second
    endpoint: plain `sorted` on the lattice rows is the Fraction order."""
    template = _template([[_SLOT] * dim] * 2)
    value = text.__getitem__
    return [template % (*map(value, p), *map(value, q)) for p, q in sorted(segments.rows)]


def pieces_to_document(ps: PieceSet, measures: dict | None = None) -> dict:
    """The piece document of `ps`. Its "kept" and "removed" lists are
    `Encoded` text, assembled row by row from the lattice arrays with each
    distinct coordinate formatted once, so the document is ready for
    `dumps_document` but is not plain JSON data."""
    text = _lattice_text(ps.kept.lcm)

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


@_reads_shape
def document_to_pieces(doc: dict) -> PieceSet:
    """Read a piece document onto the lattice of its level, D = 3^level for
    the carpet and 2^(level + 1) for the gasket, whose base triangle has a
    vertex at x = 1/2. Each distinct coordinate is read and scaled once,
    and no point object is built."""
    kind = doc.get("kind")
    _check(doc, kind)
    if kind not in (CARPET, GASKET):
        raise ParameterError(f"not a planar piece document: kind={kind!r}")
    carpet = kind == CARPET
    cap, split = (CARPET_DEPTH_CAP, 8) if carpet else (GASKET_DEPTH_CAP, 3)
    level = _count(doc["level"], "level", cap)
    points = _Lattice(kind, 2, _Numbers(), 3**level if carpet else 2 ** (level + 1))
    kept: list[int] = []  # lattice coordinates, x then y, point after point
    if carpet:  # a square as `Cells` holds it: its corner and its diagonal (side, side)
        for c in doc["kept"]:
            kept += points.point(c["corner"])
            kept += (points[c["side"]],) * 2
    else:
        for c in doc["kept"]:
            vertices = c["vertices"]
            if len(vertices) != 3:
                raise ParameterError(f"expected 3 vertices, got {len(vertices)}")
            for v in vertices:
                kept += points.point(v)
    counts = [2 if carpet else 3] * len(doc["kept"])  # the points that hold each cell
    removed: list[int] = []
    ring_counts: list[int] = []
    births: list[int] = []
    labels: list = []
    for r in doc["removed"]:
        ring = [points.point(v) for v in r["boundary"]]
        check_ring(ring)
        for v in ring:
            removed += v
        ring_counts.append(len(ring))
        births.append(_count(r["birth_level"], "birth_level"))
        labels.append(r["label"])
    if (
        len(counts) != split**level
        or Counter(births) != Counter({b: split ** (b - 1) for b in range(1, level + 1)})
        or (carpet and any(side != 1 for side in kept[2::4]))  # a side of 1 / 3^level
    ):
        raise ParameterError(f"{kind} pieces do not match level {level}")
    lcm = points.lcm
    cells = Cells(lcm, lattice_groups(kept, counts))
    return PieceSet(kind, level, cells, Pieces(lcm, lattice_groups(removed, ring_counts), births, labels))


def stage3_to_document(stage: Stage3, measures: dict | None = None) -> dict:
    """The spatial stage document of `stage`; its "cells", "skeleton" and
    "pieces" are `Encoded` text, written from the lattice rows."""
    variant = stage.variant
    params: dict = {"kind": variant.kind}
    if variant.a is not None:
        params["a"] = format_rational(variant.a)
    text = _lattice_text(stage.cells.lcm)
    value = text.__getitem__
    if variant.kind == CUBE_WIREFRAME:
        cells = _box_texts(stage.cells, 3, text)
    else:
        template = _template({"address": _SLOT, "vertices": [[_SLOT] * 3] * 4})
        cells = [
            template % (_string(address), *[value(c) for v in vertices for c in v])
            for address, vertices in stage.cells.rows
        ]
    area = LatticeTable(lambda area_sq: '"' + format_rational(area_sq) + '"')
    templates = LatticeTable(
        lambda k: _template({"boundary": [[_SLOT] * 3] * k, "birth_level": _SLOT, "area_sq": _SLOT})
    )
    pieces = [
        templates[len(ring)] % (*[value(c) for v in ring for c in v], birth_level, area[area_sq])
        for ring, birth_level, area_sq in stage.pieces.rows
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": variant.kind,
        "params": params,
        "level": stage.level,
        "cells": _encoded_list(cells),
        "skeleton": _encoded_list(_segment_texts(stage.skeleton, 3, text)),
        "pieces": _encoded_list(pieces),
    }
    if measures is not None:
        doc["measures"] = measures
    return doc


@_reads_shape
def document_to_stage3(doc: dict) -> Stage3:
    """Read a spatial stage document onto the lattice of its level, D =
    q^level for the cube's a = p/q and 2^level for the tetrahedron."""
    kind = doc.get("kind")
    _check(doc, kind)
    if kind not in (CUBE_WIREFRAME, TETRA_GASKET):
        raise ParameterError(f"not a spatial stage document: kind={kind!r}")
    cube = kind == CUBE_WIREFRAME
    numbers = _Numbers()
    variant = SpatialVariant(kind, numbers.read(doc["params"]["a"]) if cube else None)
    cap, split, faces = (CUBE_DEPTH_CAP, 8, 6) if cube else (TETRA_DEPTH_CAP, 4, 4)
    level = _count(doc["level"], "level", cap)
    points = _Lattice(kind, 3, numbers, variant.a.denominator**level if cube else 2**level)
    if cube:
        cells, sides_match = _box_cells(points, doc["cells"], variant.a**level)
    else:
        cells = Simplices(points.lcm, [(c["address"], points.vertices(c["vertices"])) for c in doc["cells"]])
        sides_match = True
    skeleton = points.segments(doc["skeleton"])
    pieces = [
        (
            tuple(map(points.point, f["boundary"])),
            _count(f["birth_level"], "birth_level"),
            numbers.read(f["area_sq"]),
        )
        for f in doc["pieces"]
    ]
    births = Counter(birth_level for _, birth_level, _ in pieces)
    if (
        len(cells) != split**level
        or any(len(address) != level for address, *_ in cells.rows)
        or not sides_match
        or births != Counter({b: faces * split**b for b in range(level + 1)})
    ):
        raise ParameterError(f"{kind} cells and faces do not match level {level}")
    skeleton, pieces = Segments(points.lcm, skeleton), Faces(points.lcm, pieces)
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
