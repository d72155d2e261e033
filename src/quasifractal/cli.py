"""Command-line interface.

Subcommands generate stages (gen2d, carpet, gasket, gen3d), evaluate the
length/dimension series (measure), compute loop index vectors against a
piece document (index), verify Toeplitz indices (toeplitz), and render
documents to SVG or OBJ (render).

Exit codes: 0 success, 1 usage, 2 validation, 3 capacity, 4 numerical.
Capacity covers the depth caps, --truncate above TRUNCATE_CAP, --random-check
above RANDOM_CHECK_CAP, a symbol band wider than SYMBOL_BAND_CAP and more
circle samples than the sampler's ceiling.

Option values can also come from a flat key=value config file given with
--config; command-line flags win over the file, which wins over defaults.
All generation output is byte-deterministic. Construction is sequential:
--threads is still accepted and validated (>= 1) but has no effect.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import cantor, document, planar, render, spatial, toeplitz, topology
from .errors import (
    CapacityError,
    NumericalError,
    NotFredholmError,
    ParameterError,
    QuasifractalError,
)
from .geometry import Loop, Point2, check_depth, rational, union_length

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4

MEASURE_DEPTH_CAP = 1000
# An n x n section costs O(n^2) memory and O(n^3) SVD time. The SVD runs on one
# BLAS thread, for bits that do not depend on the thread count: at this cap that
# takes about 1.5 times as long as on two threads.
TRUNCATE_CAP = 1024
RANDOM_CHECK_CAP = 10_000
SYMBOL_BAND_CAP = 256  # root finding on the band polynomial costs O(band^3) time

_INT_KEYS = {"depth", "threads", "seed", "truncate", "random_check", "samples"}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """A validated command plus its merged option set."""

    command: str
    options: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise UsageError(message)


def load_config_file(path: str) -> dict:
    """Parse a flat `key = value` file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParameterError(f"{path}:{lineno}: expected key = value")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="quasifractal", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--threads", type=int, help="accepted (must be >= 1) but has no effect")

    p = sub.add_parser("gen2d", help="corner-squares Cantor stage -> JSON")
    common(p)
    p.add_argument("--a", help="scale factor as p/q, 0 < a <= 1/2")
    p.add_argument("--depth", type=int, help="subdivision depth")
    p.add_argument("--svg", help="also render the stage to this SVG file")

    for kind in (planar.CARPET, planar.GASKET):
        p = sub.add_parser(kind, help=f"Sierpinski {kind} stage -> JSON")
        common(p)
        p.add_argument("--depth", type=int, help="subdivision depth")
        p.add_argument("--svg", help="also render the stage to this SVG file")

    p = sub.add_parser("gen3d", help="3D wireframe stage -> JSON")
    common(p)
    p.add_argument("--variant", help="cube | tetra (or full variant names)")
    p.add_argument("--a", help="cube scale factor as p/q, 0 < a < 1/2")
    p.add_argument("--depth", type=int, help="subdivision depth")
    p.add_argument("--obj", help="also export the stage to this OBJ file")

    p = sub.add_parser("measure", help="dimension and perimeter series -> JSON")
    common(p)
    p.add_argument("--a", help="scale factor as p/q, 0 < a < 1/2")
    p.add_argument("--depth", type=int, help=f"last partial-sum stage (cap {MEASURE_DEPTH_CAP})")

    p = sub.add_parser("index", help="loop index vector against a piece document")
    common(p)
    p.add_argument("--pieces", help="carpet/gasket JSON document")
    p.add_argument("--loop", help='loop vertices, e.g. "0,0 1,0 1,1 0,1"')

    p = sub.add_parser("toeplitz", help="symbol winding and Fredholm index -> JSON")
    common(p)
    p.add_argument("--symbol", help='comma-separated k:c terms, e.g. "-1:1, 0:4, 1:1"')
    p.add_argument("--truncate", type=int, help=f"also report an NxN truncation (cap {TRUNCATE_CAP})")
    p.add_argument(
        "--random-check",
        dest="random_check",
        type=int,
        help=f"cross-validate both winding methods on N random symbols (cap {RANDOM_CHECK_CAP})",
    )
    p.add_argument("--samples", type=int, help="initial circle sample count")
    p.add_argument("--seed", type=int, help="seed for the --random-check draws (default 0)")

    p = sub.add_parser("render", help="render a stage document to SVG or OBJ")
    common(p)
    p.add_argument("--input", help="stage/piece JSON document")
    p.add_argument("--loop", help="optional loop overlay (2D documents)")

    return parser


_PARSER = build_parser()  # built once per process: parsing leaves it unchanged


def parse_args(argv) -> RunConfig:
    ns = _PARSER.parse_args(argv)
    if ns.command is None:
        raise UsageError("a subcommand is required (see --help)")
    options = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    if ns.config is not None:
        for key, raw in load_config_file(ns.config).items():
            if key not in options:
                raise ParameterError(f"unknown config key {key!r} for {ns.command}")
            if options[key] is None:
                try:
                    options[key] = int(raw) if key in _INT_KEYS else raw
                except ValueError as exc:
                    raise ParameterError(f"config key {key!r}: {exc}") from exc
    return RunConfig(command=ns.command, options=options)


def _require(options: dict, key: str):
    value = options.get(key)
    if value is None:
        raise ParameterError(f"missing required option --{key.replace('_', '-')}")
    return value


def _check_threads(options: dict) -> None:
    threads = options.get("threads")
    if threads is not None and threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {threads}")


def _check_outputs(options: dict) -> None:
    """Refuse an output path that cannot be written, or that names the same
    file as an earlier output option (after `os.path.realpath`), naming its
    option.

    Runs before any work, so a command refused on its second output path
    leaves no file behind and prints no document.
    """
    taken: dict = {}
    for key in ("out", "svg", "obj"):
        path = options.get(key)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not path:
            problem = "the path is empty"
        elif os.path.isdir(path):
            problem = "it is a directory"
        elif not os.path.isdir(folder):
            problem = f"no directory {folder!r}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            problem = "permission denied"
        elif taken.setdefault(os.path.realpath(path), key) != key:
            problem = f"--{taken[os.path.realpath(path)]} names the same file"
        else:
            continue
        raise ParameterError(f"cannot write --{key} {path!r}: {problem}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_document(path: str) -> tuple[dict, str]:
    """A document's header, or the whole document (see `document.loads_document`), and its text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read document {path}: {exc}") from exc
    return document.loads_document(text), text


def parse_loop(text: str) -> Loop:
    """Parse "x,y x,y ..." with rational coordinates into a Loop."""
    points = []
    for chunk in text.replace(";", " ").split():
        x_text, sep, y_text = chunk.partition(",")
        if not sep:
            raise ParameterError(f"expected x,y vertex, got {chunk!r}")
        points.append(Point2(rational(x_text), rational(y_text)))
    return Loop(tuple(points))


def _series_json(series: cantor.PerimeterSeries | spatial.SeriesMeasures) -> dict:
    """A `PerimeterSeries` or `SeriesMeasures` by field, each Fraction as a "p/q" string."""
    return {
        key: document.format_rational(value) if isinstance(value, Fraction) else value
        for key, value in asdict(series).items()
    }


def _stage2_measures(stage: cantor.Stage2) -> dict:
    a = stage.params.a
    measures = {
        "cell_count": len(stage.cells),
        "cell_side": document.format_rational(a**stage.level),
        "segment_count": len(stage.segments),
        "boundary_union_length": document.format_rational(union_length(stage.segments)),
        "components": cantor.connectivity(stage),
        "hausdorff_dimension": cantor.hausdorff_dimension(a),
    }
    if a < Fraction(1, 2):
        measures["perimeter"] = _series_json(cantor.perimeter_series(a, stage.level))
    else:
        measures["perimeter"] = None  # tiling case: not a boundary-length series
    return measures


def _pieces_measures(ps: planar.PieceSet) -> dict:
    account = planar.area_accounting(ps)
    return {
        "kept_count": len(ps.kept),
        "kept_area": document.format_rational(account.kept_area),
        "removed_area": document.format_rational(account.removed_area),
        "removed_by_level": dict(Counter(map(str, ps.removed.births))),
        "similarity_dimension": planar.similarity_dimension(ps.kind),
    }


def _stage3_measures(stage: spatial.Stage3) -> dict:
    measures = {
        "cell_count": len(stage.cells),
        "skeleton_count": len(stage.skeleton),
        "piece_count": len(stage.pieces),
        "incidence_violations": spatial.boundary_incidence(stage),
        "components": spatial.connectivity3(stage),
    }
    series = measures["series"] = _series_json(spatial.series_measures(stage.variant, stage.level))
    if stage.variant.kind == spatial.TETRA_GASKET:  # float sums of divergent series: no limits
        del series["edge_limit"], series["area_limit"]
    return measures


def _cmd_gen2d(options: dict) -> int:
    params = cantor.Params2(rational(_require(options, "a")), _require(options, "depth"))
    stage = cantor.build(params)
    doc = document.stage2_to_document(stage, measures=_stage2_measures(stage))
    _write(document.dumps_document(doc), options.get("out"))
    if options.get("svg") is not None:
        _write(render.render_svg(stage), options["svg"])
    return EXIT_OK


def _cmd_planar(kind: str, options: dict) -> int:
    ps = planar.build_planar(kind, _require(options, "depth"))
    doc = document.pieces_to_document(ps, measures=_pieces_measures(ps))
    _write(document.dumps_document(doc), options.get("out"))
    if options.get("svg") is not None:
        _write(render.render_svg(ps), options["svg"])
    return EXIT_OK


_VARIANT_NAMES = {
    "cube": spatial.CUBE_WIREFRAME,
    spatial.CUBE_WIREFRAME: spatial.CUBE_WIREFRAME,
    "tetra": spatial.TETRA_GASKET,
    spatial.TETRA_GASKET: spatial.TETRA_GASKET,
}


def _cmd_gen3d(options: dict) -> int:
    name = _require(options, "variant")
    kind = _VARIANT_NAMES.get(name)
    if kind is None:
        raise ParameterError(f"unknown variant {name!r} (expected cube or tetra)")
    a = options.get("a")
    variant = spatial.SpatialVariant(kind, rational(a) if a is not None else None)
    stage = spatial.build_spatial(variant, _require(options, "depth"))
    doc = document.stage3_to_document(stage, measures=_stage3_measures(stage))
    _write(document.dumps_document(doc), options.get("out"))
    if options.get("obj") is not None:
        _write(render.export_obj(stage), options["obj"])
    return EXIT_OK


def _check_writable_sum(a: Fraction, depth: int) -> None:
    """Refuse a perimeter partial sum too long to write, before computing it.

    With Q the reduced denominator of 4a, the sum 4 * (1 + 4a + ... + (4a)^depth)
    has a reduced denominator that is a multiple of Q^depth / 4, so more
    than depth * log10(Q) - 1 digits.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before 3.11
    if limit and depth * math.log10((4 * a).denominator) - 1 > limit:
        raise CapacityError(
            f"the depth-{depth} partial sum for this a needs more than {limit} digits"
        )


def _cmd_measure(options: dict) -> int:
    a = rational(_require(options, "a"))
    depth = options.get("depth")
    depth = check_depth(10 if depth is None else depth, MEASURE_DEPTH_CAP, what="measure depth")
    dimension = cantor.hausdorff_dimension(a)  # validates a first
    _check_writable_sum(a, depth)
    report = {
        "a": document.format_rational(a),
        "depth": depth,
        "hausdorff_dimension": dimension,
        "perimeter": _series_json(cantor.perimeter_series(a, depth)),
    }
    _write(document.dumps_document(report), options.get("out"))
    return EXIT_OK


def _cmd_index(options: dict) -> int:
    ps = document.document_to_pieces(*_read_document(_require(options, "pieces")))
    loop = parse_loop(_require(options, "loop"))
    holes = topology.HoleSet.from_pieces(ps.removed)
    entries = topology.index_vector(loop, holes)
    report = {
        "pieces": options["pieces"],
        "labels": list(holes.labels),
        "entries": list(entries),
    }
    _write(document.dumps_document(report), options.get("out"))
    return EXIT_OK


def _cmd_toeplitz(options: dict) -> int:
    symbol = toeplitz.Symbol.from_string(_require(options, "symbol"))
    check_depth(symbol.m + symbol.p, SYMBOL_BAND_CAP, what="symbol band width")
    for key, cap in (("truncate", TRUNCATE_CAP), ("random_check", RANDOM_CHECK_CAP)):
        if options.get(key) is not None:
            check_depth(options[key], cap, what=f"--{key.replace('_', '-')}")
    fred = toeplitz.fredholm_index(symbol, options.get("samples"))
    report = {
        "symbol": repr(symbol),
        "winding_by_argument": fred.winding_arg,
        "winding_by_roots": fred.winding_roots,
        "fredholm_index": fred.fredholm_index,
        "min_modulus_on_circle": fred.min_modulus_on_circle,
        "methods_agree": fred.methods_agree,
        "kernel_dim": fred.kernel_dim,
        "cokernel_dim": fred.cokernel_dim,
    }
    if options.get("truncate") is not None:
        section = toeplitz.truncate(symbol, options["truncate"])
        report["truncation"] = {
            "n": section.n,
            "numerical_rank": section.numerical_rank,
            "smallest_singular_value": section.smallest_singular_value,
        }
    if options.get("random_check") is not None:
        count = options["random_check"]
        rng = random.Random(options.get("seed") or 0)
        symbols = toeplitz.random_symbol(rng, count)
        try:
            by_argument = toeplitz.winding_by_argument(symbols)
        except QuasifractalError as exc:
            # a draw before the failing one may fail first, by its roots
            toeplitz.winding_by_roots(symbols[: exc.draw])
            raise
        by_roots = toeplitz.winding_by_roots(symbols)
        report["random_check"] = {
            "count": count,
            "seed": options.get("seed") or 0,
            "agreements": int((by_argument == by_roots).sum()),
        }
    _write(document.dumps_document(report), options.get("out"))
    return EXIT_OK


def _cmd_render(options: dict) -> int:
    loop = parse_loop(options["loop"]) if options.get("loop") is not None else None
    doc, source = _read_document(_require(options, "input"))
    if loop is not None and doc["kind"] in (spatial.CUBE_WIREFRAME, spatial.TETRA_GASKET):
        doc = document.whole_document(doc, source)  # broken JSON is refused first, and its kind is the last one
    try:
        text = _rendered(doc, source, loop)
    except document.KindError as exc:  # the text sets its kind again after the header
        text = _rendered(exc.doc, source, loop)
    _write(text, options.get("out"))
    return EXIT_OK


def _rendered(doc: dict, source: str, loop: Loop | None) -> str:
    kind = doc["kind"]
    if kind in (spatial.CUBE_WIREFRAME, spatial.TETRA_GASKET):
        if loop is not None:
            raise ParameterError(f"--loop overlays 2D documents only, not {kind}")
        return render.export_obj(document.document_to_stage3(doc, source))
    if kind == "cantor2d":
        return render.render_svg(document.document_to_stage2(doc, source), loop=loop)
    ps = document.document_to_pieces(doc, source)
    holes = topology.HoleSet.from_pieces(ps.removed) if loop is not None else None
    return render.render_svg(ps, loop=loop, holes=holes)


_HANDLERS = {
    "gen2d": _cmd_gen2d,
    planar.CARPET: lambda opts: _cmd_planar(planar.CARPET, opts),
    planar.GASKET: lambda opts: _cmd_planar(planar.GASKET, opts),
    "gen3d": _cmd_gen3d,
    "measure": _cmd_measure,
    "index": _cmd_index,
    "toeplitz": _cmd_toeplitz,
    "render": _cmd_render,
}


def run(config: RunConfig) -> int:
    """Execute a validated run configuration; may raise package errors."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    _check_threads(config.options)
    _check_outputs(config.options)
    return handler(config.options)


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else list(argv))
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (NotFredholmError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParameterError, QuasifractalError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
