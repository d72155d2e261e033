"""Seeded request streams for the three benchmark workloads.

Every request is an argv for `quasifractal.cli.main` plus the facts its
output check needs. A stream is an endless sequence of decks. A deck
holds a fixed multiset of request classes, e.g. ("gen2d", depth 3), and
the seed draws everything else: scale factors, the order, the share of
--svg/--obj/--threads flags, loops and symbols. Classes are interleaved
so that every prefix of a deck holds each class in proportion to its
size; a run that stops mid-deck therefore still sees the stated mix,
which keeps latency percentiles and throughput steady across seeds.

Workloads (closed loop, one client):

* skeleton: gen2d, gen3d cube and gen3d tetra. Connectivity
  (`geometry.segment_components`, `SegmentIndex`, `UnionFind`) dominates.
* pieces: carpet and gasket, half of them with --threads 2. Build, area
  accounting, serialisation and SVG; connectivity is never called.
* query: index, render, toeplitz and measure against documents written
  during set-up. Parsing, topology, render and Toeplitz; no build.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("skeleton", "pieces", "query")

GEN2D_SCALES = ("1/5", "1/4", "1/3", "2/5", "3/7", "1/2")
CUBE_SCALES = ("1/5", "1/4", "1/3")
MEASURE_SCALES = ("1/7", "1/5", "2/9", "1/4", "3/10", "1/3", "2/5", "3/7")
# Loop vertex denominators are coprime to 6; hole representatives have
# denominators 2*3^k (carpet) or 3*2^k (gasket), so no rectangle edge can
# pass through one.
LOOP_DENOMINATORS = (5, 7, 11, 13, 25, 35, 49, 55, 77)

# Documents the query workload reads: name -> argv that writes it.
QUERY_DOCUMENTS = {
    "carpet3": ["carpet", "--depth", "3"],
    "carpet4": ["carpet", "--depth", "4"],
    "gasket6": ["gasket", "--depth", "6"],
    "gasket7": ["gasket", "--depth", "7"],
    "cantor": ["gen2d", "--a", "1/3", "--depth", "3"],
    "cube": ["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "2"],
}
PIECE_DOCUMENTS = ("carpet3", "carpet4", "gasket6", "gasket7")

# `toeplitz.random_symbol` rejects symbols by their modulus at 512 points
# and can miss a narrow dip; the winding sampler then doubles to about
# 590k points (about 240 MB). This --random-check seed draws such a
# symbol within its first 5 draws. Fresh seeds hit one in roughly one
# query run in five, so the query warm-up sends this seed once per run:
# peak RSS then shows the weakness on every run instead of by chance.
NEAR_SINGULAR_SEED = "968725673"


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv, its class and what its check needs."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Document:
    """Facts the benchmark reads from a query document with its own parser."""

    path: Path
    kind: str
    data: dict
    reps: list[tuple[Fraction, Fraction]] = field(default_factory=list)


def interleave(rng: random.Random, groups: list[list]) -> list:
    """Merge groups so that every prefix holds each group in proportion.

    Item i of a group of size n sits at position (i + phase) / n, with a
    seeded phase per group; the merged order sorts by position.
    """
    keyed = []
    for items in groups:
        items = list(items)
        rng.shuffle(items)
        phase = rng.random()
        keyed.extend(((i + phase) / len(items), rng.random(), item) for i, item in enumerate(items))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [item for _, _, item in keyed]


def flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly round(n * share) True values in seeded order."""
    k = round(n * share)
    out = [True] * k + [False] * (n - k)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- skeleton

# Per scale factor: depth -> requests per deck. The top depth is a
# 10-15 % tail of each family. A deck holds 120 requests. Its median falls
# among tetra depth 2 and gen2d depth 3, and p90 (rank 108.1) inside the
# seven tetra depth-3 requests (ranks 106-112, about four times the
# median): below them only gen2d 1/2 depth 4 of the tail, above them the
# other five gen2d depth-4 and the three cube depth-2 requests.
_GEN2D_DEPTHS = {2: 2, 3: 5, 4: 1}
_CUBE_DEPTHS = {0: 2, 1: 5, 2: 1}
_TETRA_DEPTHS = {1: 12, 2: 29, 3: 7}


def _skeleton_deck(rng: random.Random, out: Path) -> list[Request]:
    groups = []
    for depth, per_scale in _GEN2D_DEPTHS.items():
        items = [a for a in GEN2D_SCALES for _ in range(per_scale)]
        svg = flags(rng, len(items), 0.25)
        groups.append([_gen2d(a, depth, s, out) for a, s in zip(items, svg)])
    for depth, per_scale in _CUBE_DEPTHS.items():
        items = [a for a in CUBE_SCALES for _ in range(per_scale)]
        obj = flags(rng, len(items), 0.25)
        groups.append([_gen3d("cube", a, depth, o, out) for a, o in zip(items, obj)])
    for depth, count in _TETRA_DEPTHS.items():
        obj = flags(rng, count, 0.25)
        groups.append([_gen3d("tetra", None, depth, o, out) for o in obj])
    return interleave(rng, groups)


def _gen2d(a: str, depth: int, svg: bool, out: Path) -> Request:
    argv = ("gen2d", "--a", a, "--depth", str(depth), "--out", str(out / "out.json"))
    if svg:
        argv += ("--svg", str(out / "out.svg"))
    return Request("gen2d", argv, {"a": a, "depth": depth, "svg": svg})


def _gen3d(variant: str, a, depth: int, obj: bool, out: Path) -> Request:
    argv = ("gen3d", "--variant", variant)
    if a is not None:
        argv += ("--a", a)
    argv += ("--depth", str(depth), "--out", str(out / "out.json"))
    if obj:
        argv += ("--obj", str(out / "out.obj"))
    return Request(variant, argv, {"a": a, "depth": depth, "obj": obj})


# ------------------------------------------------------------------ pieces

# (kind, depth, svg) -> requests per deck; half of each class runs with
# --threads 2. Counts place the median inside the gasket depth-6 cluster
# and p90 inside the gasket depth-7 cluster, away from cluster edges.
_PIECE_CLASSES = {
    ("carpet", 2, False): 4,
    ("carpet", 3, False): 12,
    ("carpet", 3, True): 4,
    ("carpet", 4, False): 4,
    ("carpet", 4, True): 1,
    ("gasket", 5, False): 8,
    ("gasket", 5, True): 4,
    ("gasket", 6, False): 24,
    ("gasket", 6, True): 4,
    ("gasket", 7, False): 10,
    ("gasket", 7, True): 2,
}


def _pieces_deck(rng: random.Random, out: Path) -> list[Request]:
    groups = []
    for (kind, depth, svg), count in _PIECE_CLASSES.items():
        groups.append([_planar(kind, depth, svg, two, out) for two in flags(rng, count, 0.5)])
    return interleave(rng, groups)


def _planar(kind: str, depth: int, svg: bool, two_threads: bool, out: Path) -> Request:
    argv = (kind, "--depth", str(depth), "--out", str(out / "out.json"))
    if svg:
        argv += ("--svg", str(out / "out.svg"))
    argv += ("--threads", "2" if two_threads else "1")
    return Request(kind, argv, {"depth": depth, "svg": svg})


# ------------------------------------------------------------------- query

# Per deck. Toeplitz requests form the median cluster and take over a
# quarter of the stream's time; index requests on carpet4 form the p90
# cluster.
_INDEX = {"carpet3": 4, "carpet4": 8, "gasket6": 4, "gasket7": 4}
_RENDER_PER_DOCUMENT = 2
_TOEPLITZ = {"random": 32, "monomial": 16, "product": 16}
_MEASURE = 6


def load_documents(workdir: Path) -> dict[str, Document]:
    """Read the query documents back with the benchmark's own parser."""
    docs = {}
    for name in QUERY_DOCUMENTS:
        path = workdir / f"{name}.json"
        data = json.loads(path.read_text())
        doc = Document(path, data["kind"], data)
        if name in PIECE_DOCUMENTS:
            doc.reps = [_centroid(r["boundary"]) for r in data["removed"]]
        docs[name] = doc
    return docs


def _centroid(boundary) -> tuple[Fraction, Fraction]:
    xs = [Fraction(x) for x, _ in boundary]
    ys = [Fraction(y) for _, y in boundary]
    return sum(xs) / len(xs), sum(ys) / len(ys)


def _coordinate(rng: random.Random, lo: float, hi: float) -> Fraction:
    q = rng.choice(LOOP_DENOMINATORS)
    while True:
        p = rng.randint(math.floor(lo * q), math.ceil(hi * q))
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def rectangle_loop(rng: random.Random):
    """Axis-parallel rectangle with CCW or CW orientation."""
    while True:
        x0, x1 = sorted(_coordinate(rng, -0.2, 1.2) for _ in range(2))
        y0, y1 = sorted(_coordinate(rng, -0.2, 1.2) for _ in range(2))
        if x0 < x1 and y0 < y1:
            break
    vertices = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if rng.random() < 0.5:
        vertices.reverse()
    return vertices


def convex_loop(rng: random.Random, reps):
    """Random convex polygon (either orientation) through no representative."""
    while True:
        raw = {(_coordinate(rng, -0.2, 1.2), _coordinate(rng, -0.2, 1.2)) for _ in range(8)}
        hull = _hull(sorted(raw))
        if len(hull) >= 3 and not any(_on_loop(p, hull) for p in reps):
            if rng.random() < 0.5:
                hull.reverse()
            return hull


def _hull(points):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_loop(p, vertices) -> bool:
    n = len(vertices)
    for i in range(n):
        (ax, ay), (bx, by) = vertices[i], vertices[(i + 1) % n]
        if min(ax, bx) <= p[0] <= max(ax, bx) and min(ay, by) <= p[1] <= max(ay, by):
            if (bx - ax) * (p[1] - ay) == (by - ay) * (p[0] - ax):
                return True
    return False


def loop_text(vertices) -> str:
    return " ".join(f"{x},{y}" for x, y in vertices)


def _loop(rng: random.Random, doc: Document, rectangle: bool):
    return rectangle_loop(rng) if rectangle else convex_loop(rng, doc.reps)


def symbol_text(coefficients: dict[int, complex]) -> str:
    return ", ".join(f"{k}:{c.real:.17g}{c.imag:+.17g}j" for k, c in sorted(coefficients.items()))


def rooted_symbol(rng: random.Random, max_band: int) -> tuple[dict[int, complex], int]:
    """c * z^-m * prod(z - r_i) with known roots; returns (coefficients, winding).

    Roots lie at radius 0.2-0.6 or 1.6-3, well away from the unit circle,
    so the winding number (roots inside the disk minus m) is known by
    construction, without trusting either of the program's methods.
    """
    m = rng.randint(0, max_band)
    p = rng.randint(0, max_band)
    if m + p == 0:
        p = 1
    roots = []
    for _ in range(m + p):
        radius = rng.uniform(0.2, 0.6) if rng.random() < 0.5 else rng.uniform(1.6, 3.0)
        roots.append(cmath.rect(radius, rng.uniform(0, 2 * math.pi)))
    poly = np.poly(np.array(roots, dtype=np.complex128))  # highest degree first
    circle = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    scale = 1.0 / float(np.median(np.abs(np.polyval(poly, circle))))
    scale *= cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
    degree = m + p
    coefficients = {degree - i - m: complex(c * scale) for i, c in enumerate(poly)}
    winding = sum(1 for r in roots if abs(r) < 1) - m
    return coefficients, winding


def _multiply(s1: dict[int, complex], s2: dict[int, complex]) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for k1, c1 in s1.items():
        for k2, c2 in s2.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def _toeplitz(rng: random.Random, variant: str, out: Path) -> Request:
    if variant == "monomial":
        k = rng.randint(-8, 8)
        coefficients = {k: cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))}
        winding = k
    elif variant == "product":
        s1, w1 = rooted_symbol(rng, 4)
        s2, w2 = rooted_symbol(rng, 4)
        coefficients, winding = _multiply(s1, s2), w1 + w2
    else:
        coefficients, winding = rooted_symbol(rng, 8)
    band = max(0, -min(coefficients)) + max(0, max(coefficients)) + 1
    truncate = rng.randint(32, 256)
    count = rng.randint(20, 100)
    samples = rng.randint(8 * band, 16384)
    # No --seed: --random-check draws from the CLI's default seed, so each
    # request checks a prefix of one fixed symbol sequence (see
    # NEAR_SINGULAR_SEED for why the stream does not draw fresh seeds).
    argv = ("toeplitz", f"--symbol={symbol_text(coefficients)}", "--truncate", str(truncate))
    argv += ("--random-check", str(count), "--samples", str(samples), "--out", str(out / "out.json"))
    expect = {"variant": variant, "winding": winding, "truncate": truncate, "count": count}
    if variant == "monomial":
        expect["k"] = winding
    return Request("toeplitz", argv, expect)


def _query_deck(rng: random.Random, out: Path, docs: dict[str, Document]) -> list[Request]:
    groups = []
    for name, count in _INDEX.items():
        shapes = flags(rng, count, 0.5)
        groups.append([_index(name, docs, _loop(rng, docs[name], rectangle), out) for rectangle in shapes])
    for name in QUERY_DOCUMENTS:
        overlays = flags(rng, _RENDER_PER_DOCUMENT, 0.0 if name == "cube" else 0.5)
        loops = [_loop(rng, docs[name], rng.random() < 0.5) if overlay else None for overlay in overlays]
        groups.append([_render(name, docs, vertices, out) for vertices in loops])
    for variant, count in _TOEPLITZ.items():
        groups.append([_toeplitz(rng, variant, out) for _ in range(count)])
    groups.append([_measure(rng.choice(MEASURE_SCALES), rng.randint(0, 60), out) for _ in range(_MEASURE)])
    return interleave(rng, groups)


def _index(name: str, docs: dict[str, Document], vertices, out: Path) -> Request:
    argv = ("index", "--pieces", str(docs[name].path), f"--loop={loop_text(vertices)}", "--out", str(out / "out.json"))
    return Request("index", argv, {"doc": name, "loop": vertices})


def _render(name: str, docs: dict[str, Document], vertices, out: Path) -> Request:
    suffix = "obj" if name == "cube" else "svg"
    argv = ("render", "--input", str(docs[name].path), "--out", str(out / f"out.{suffix}"))
    if vertices is not None:
        argv += (f"--loop={loop_text(vertices)}",)
    return Request("render", argv, {"doc": name, "loop": vertices})


def _measure(a: str, depth: int, out: Path) -> Request:
    argv = ("measure", "--a", a, "--depth", str(depth), "--out", str(out / "out.json"))
    return Request("measure", argv, {"a": a, "depth": depth})


# ----------------------------------------------------------------- streams


def stream(workload: str, seed: int, out: Path, docs: dict[str, Document] | None = None):
    """Endless seeded request stream; `out` is the directory for --out files."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "skeleton":
            deck = _skeleton_deck(rng, out)
        elif workload == "pieces":
            deck = _pieces_deck(rng, out)
        elif workload == "query":
            deck = _query_deck(rng, out, docs)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        yield from deck


def warmup_requests(workload: str, out: Path, docs: dict[str, Document] | None = None):
    """One small request of every class the workload sends."""
    if workload == "skeleton":
        return [_gen2d("1/3", 1, True, out), _gen3d("cube", "1/3", 0, True, out), _gen3d("tetra", None, 0, False, out)]
    if workload == "pieces":
        return [_planar(kind, 1, True, True, out) for kind in ("carpet", "gasket")]
    rng = random.Random(0)
    return [
        _index("carpet3", docs, rectangle_loop(rng), out),
        _render("gasket6", docs, None, out),
        _render("cube", docs, None, out),
        _with_check_seed(_toeplitz(rng, "random", out), NEAR_SINGULAR_SEED),
        _measure("1/5", 3, out),
    ]


def _with_check_seed(request: Request, seed: str) -> Request:
    return Request(request.kind, request.argv + ("--seed", seed), request.expect)
