"""Output checks that recompute every expected value independently.

Each check reads the files a request wrote and compares them with closed
forms (cell counts, areas, series sums), with geometry the benchmark
computes itself (hole representatives, winding by the rectangle rule or
by angle summation) or with facts fixed when the input was generated
(symbol windings known from their roots). A check returns a list of
problems; an empty list means the request's output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import Request

_TEXT = re.compile(r">(-?\d+)</text>")


def check(request: Request, docs=None) -> list[str]:
    """Problems found in the output of a request that exited 0."""
    checker = _CHECKS[request.kind]
    try:
        return checker(request, outputs(request.argv), docs)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]


def outputs(argv) -> dict[str, Path]:
    """Output flag -> path written by the request."""
    return {argv[i]: Path(argv[i + 1]) for i in range(len(argv) - 1) if argv[i] in ("--out", "--svg", "--obj")}


def _series(ratio: Fraction, n: int) -> Fraction:
    """sum_{k=0}^{n} ratio^k in closed form."""
    if ratio == 1:
        return Fraction(n + 1)
    return (1 - ratio ** (n + 1)) / (1 - ratio)


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _count(text: str, tag: str) -> int:
    return text.count(f"<{tag} ")


def _check_gen2d(request, out, _docs) -> list[str]:
    a, n = Fraction(request.expect["a"]), request.expect["depth"]
    doc = json.loads(out["--out"].read_text())
    m = doc["measures"]
    p: list[str] = []
    _expect(p, "cell_count", m["cell_count"], 4**n)
    _expect(p, "cells", len(doc["cells"]), 4**n)
    _expect(p, "cell_side", Fraction(m["cell_side"]), a**n)
    _expect(p, "segment_count", m["segment_count"], len(doc["segments"]))
    _expect(p, "components", m["components"], 1)
    if a == Fraction(1, 2):
        _expect(p, "perimeter", m["perimeter"], None)
    else:
        _expect(p, "perimeter", Fraction(m["perimeter"]["partial_sum"]), 4 * _series(4 * a, n))
    if "--svg" in out:
        svg = out["--svg"].read_text()
        _expect(p, "svg rects", _count(svg, "rect"), 4**n)
        _expect(p, "svg polylines", _count(svg, "polyline"), len(doc["segments"]))
        _expect(p, "svg end", svg.endswith("</svg>\n"), True)
    return p


def _check_planar(request, out, _docs) -> list[str]:
    kind, n = request.kind, request.expect["depth"]
    base, ratio, split = (Fraction(1), Fraction(8, 9), 8) if kind == "carpet" else (Fraction(1, 2), Fraction(3, 4), 3)
    doc = json.loads(out["--out"].read_text())
    m = doc["measures"]
    p: list[str] = []
    kept_area, removed_area = Fraction(m["kept_area"]), Fraction(m["removed_area"])
    _expect(p, "kept_area", kept_area, base * ratio**n)
    _expect(p, "kept + removed", kept_area + removed_area, base)
    _expect(p, "removed_by_level", m["removed_by_level"], {str(k): split ** (k - 1) for k in range(1, n + 1)})
    _expect(p, "kept_count", m["kept_count"], split**n)
    _expect(p, "kept", len(doc["kept"]), split**n)
    _expect(p, "removed", len(doc["removed"]), sum(split ** (k - 1) for k in range(1, n + 1)))
    if "--svg" in out:
        svg = out["--svg"].read_text()
        if kind == "carpet":
            _expect(p, "svg rects", _count(svg, "rect"), len(doc["kept"]))
            _expect(p, "svg paths", _count(svg, "path"), len(doc["removed"]))
        else:
            _expect(p, "svg paths", _count(svg, "path"), len(doc["kept"]) + len(doc["removed"]))
        _expect(p, "svg polylines", _count(svg, "polyline"), 1)
    return p


def _check_gen3d(request, out, _docs) -> list[str]:
    cube = request.kind == "cube"
    n = request.expect["depth"]
    split, faces = (8, 6) if cube else (4, 4)
    doc = json.loads(out["--out"].read_text())
    m = doc["measures"]
    p: list[str] = []
    _expect(p, "cell_count", m["cell_count"], split**n)
    _expect(p, "cells", len(doc["cells"]), split**n)
    _expect(p, "incidence_violations", m["incidence_violations"], 0)
    _expect(p, "components", m["components"], 1)
    _expect(p, "pieces", len(doc["pieces"]), faces * sum(split**k for k in range(n + 1)))
    _expect(p, "piece_count", m["piece_count"], len(doc["pieces"]))
    _expect(p, "skeleton_count", m["skeleton_count"], len(doc["skeleton"]))
    series = m["series"]
    if cube:
        a = Fraction(request.expect["a"])
        _expect(p, "edge_length_sum", Fraction(series["edge_length_sum"]), 12 * _series(8 * a, n))
        _expect(p, "face_area_sum", Fraction(series["face_area_sum"]), 6 * _series(8 * a * a, n))
    else:
        edge = (3 + 3 * math.sqrt(2)) * (2 ** (n + 1) - 1)
        area = (1.5 + math.sqrt(3) / 2) * (n + 1)
        _expect(p, "edge_length_sum", math.isclose(series["edge_length_sum"], edge, rel_tol=1e-12), True)
        _expect(p, "face_area_sum", math.isclose(series["face_area_sum"], area, rel_tol=1e-12), True)
    if "--obj" in out:
        p += _obj_problems(out["--obj"].read_text(), doc)
    return p


def _obj_problems(text: str, doc: dict) -> list[str]:
    lines = text.splitlines()
    header = dict(line[2:].split(": ") for line in lines[1:4])
    p: list[str] = []
    _expect(p, "obj lines", int(header["lines"]), len(doc["skeleton"]))
    _expect(p, "obj faces", int(header["faces"]), len(doc["pieces"]))
    for prefix, key in (("v ", "vertices"), ("l ", "lines"), ("f ", "faces")):
        _expect(p, f"obj {key} records", sum(1 for line in lines if line.startswith(prefix)), int(header[key]))
    return p


def _signed_area(vertices) -> Fraction:
    n = len(vertices)
    return sum(
        (vertices[i][0] * vertices[(i + 1) % n][1] - vertices[(i + 1) % n][0] * vertices[i][1] for i in range(n)),
        Fraction(0),
    ) / 2


def expected_entries(vertices, reps) -> list[int]:
    """Winding of the loop about every representative, computed here.

    Axis-parallel rectangles use the rectangle rule (+-1 strictly inside,
    by orientation, else 0); other convex loops use angle summation.
    """
    xs = {x for x, _ in vertices}
    ys = {y for _, y in vertices}
    if len(vertices) == 4 and len(xs) == 2 and len(ys) == 2:
        sign = 1 if _signed_area(vertices) > 0 else -1
        (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
        return [sign if x0 < x < x1 and y0 < y < y1 else 0 for x, y in reps]
    return [_angle_sum(vertices, rep) for rep in reps]


def _angle_sum(vertices, p) -> int:
    px, py = float(p[0]), float(p[1])
    rel = [(float(x) - px, float(y) - py) for x, y in vertices]
    total = 0.0
    for (x1, y1), (x2, y2) in zip(rel, rel[1:] + rel[:1]):
        total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return round(total / (2 * math.pi))


def _check_index(request, out, docs) -> list[str]:
    doc = docs[request.expect["doc"]]
    report = json.loads(out["--out"].read_text())
    p: list[str] = []
    _expect(p, "labels", report["labels"], [r["label"] for r in doc.data["removed"]])
    _expect(p, "entries", report["entries"], expected_entries(request.expect["loop"], doc.reps))
    return p


def _check_render(request, out, docs) -> list[str]:
    doc = docs[request.expect["doc"]]
    loop = request.expect["loop"]
    data = doc.data
    p: list[str] = []
    if doc.kind in ("cube_wireframe", "tetra_gasket"):
        return _obj_problems(out["--out"].read_text(), data)
    svg = out["--out"].read_text()
    _expect(p, "svg end", svg.endswith("</svg>\n"), True)
    overlay = 0 if loop is None else 1
    if doc.kind == "cantor2d":
        _expect(p, "svg rects", _count(svg, "rect"), len(data["cells"]))
        _expect(p, "svg polylines", _count(svg, "polyline"), len(data["segments"]) + overlay)
        return p
    if doc.kind == "carpet":
        _expect(p, "svg rects", _count(svg, "rect"), len(data["kept"]))
        _expect(p, "svg paths", _count(svg, "path"), len(data["removed"]))
    else:
        _expect(p, "svg paths", _count(svg, "path"), len(data["kept"]) + len(data["removed"]))
    _expect(p, "svg polylines", _count(svg, "polyline"), 1 + overlay)
    labels = [int(t) for t in _TEXT.findall(svg)]
    _expect(p, "overlay labels", labels, [] if loop is None else expected_entries(loop, doc.reps))
    return p


def _check_toeplitz(request, out, _docs) -> list[str]:
    e = request.expect
    report = json.loads(out["--out"].read_text())
    p: list[str] = []
    _expect(p, "methods_agree", report["methods_agree"], True)
    _expect(p, "winding_by_argument", report["winding_by_argument"], e["winding"])
    _expect(p, "winding_by_roots", report["winding_by_roots"], e["winding"])
    _expect(p, "fredholm_index", report["fredholm_index"], -e["winding"])
    _expect(p, "index = -roots winding", report["fredholm_index"], -report["winding_by_roots"])
    _expect(p, "truncation n", report["truncation"]["n"], e["truncate"])
    _expect(p, "random_check", report["random_check"]["agreements"], e["count"])
    if e["variant"] == "monomial":
        k = e["k"]
        _expect(p, "kernel_dim", report["kernel_dim"], max(0, -k))
        _expect(p, "cokernel_dim", report["cokernel_dim"], max(0, k))
        _expect(p, "numerical_rank", report["truncation"]["numerical_rank"], e["truncate"] - abs(k))
    return p


def _check_measure(request, out, _docs) -> list[str]:
    a, n = Fraction(request.expect["a"]), request.expect["depth"]
    report = json.loads(out["--out"].read_text())
    per = report["perimeter"]
    p: list[str] = []
    _expect(p, "partial_sum", Fraction(per["partial_sum"]), 4 * _series(4 * a, n))
    finite = a < Fraction(1, 4)
    _expect(p, "finite", per["finite"], finite)
    _expect(p, "limit", None if per["limit"] is None else Fraction(per["limit"]), 4 / (1 - 4 * a) if finite else None)
    dimension = math.log(4.0) / -math.log(float(a))
    _expect(p, "hausdorff_dimension", math.isclose(report["hausdorff_dimension"], dimension, rel_tol=1e-12), True)
    return p


_CHECKS = {
    "gen2d": _check_gen2d,
    "carpet": _check_planar,
    "gasket": _check_planar,
    "cube": _check_gen3d,
    "tetra": _check_gen3d,
    "index": _check_index,
    "render": _check_render,
    "toeplitz": _check_toeplitz,
    "measure": _check_measure,
}
