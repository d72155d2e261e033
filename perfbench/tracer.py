"""Outside-in tracing: wrap the program's public functions where callers find them.

Nothing in the program changes. `Tracer.install` replaces module and
class attributes with wrappers and `Tracer.uninstall` puts every original
back. Functions imported by name are patched in the importing module
(`cantor.segment_components`, `spatial.segment_components`,
`spatial.SegmentIndex`, `cli.union_length`, `render.index_vector`).

Layer boundaries record spans (name, start, end, parent, request id),
kept in memory. Hot methods (`SegmentIndex.ids_through`,
`SegmentIndex.covers`, `UnionFind.union`) record counts only. Self time
is a span's duration minus the part of it its child spans cover.
Wrapped functions run on the calling thread only: the thread pools
behind --threads run private helpers that are not wrapped.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def _span(self, name: str, fn, measure=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, perf_counter(), None, parent, self.request])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._stack.pop()
            if measure is not None:
                measure(self.counts, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, hits):
        counts = self.counts

        def wrapper(*args):
            result = fn(*args)
            counts[name + ".calls"] += 1
            counts[name + ".hits"] += hits(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, measure=None) -> None:
        self._patch(owner, attr, self._span(name, getattr(owner, attr), measure))

    def install(self, qf) -> None:
        """Wrap the layers of the `quasifractal` package `qf`."""
        cantor, spatial, planar, document = qf.cantor, qf.spatial, qf.planar, qf.document
        render, topology, toeplitz, cli = qf.render, qf.topology, qf.toeplitz, qf.cli

        self.span(cantor, "build", "cantor.build", _measure_cantor)
        self.span(cantor, "refine", "cantor.refine")
        self.span(cantor, "connectivity", "cantor.connectivity")
        self.span(cantor, "segment_components", "geometry.segment_components")
        self.span(spatial, "build_spatial", "spatial.build_spatial", _measure_spatial)
        self.span(spatial, "boundary_incidence", "spatial.boundary_incidence")
        self.span(spatial, "connectivity3", "spatial.connectivity3")
        self.span(spatial, "series_measures", "spatial.series_measures")
        self.span(spatial, "segment_components", "geometry.segment_components")
        self.span(spatial, "SegmentIndex", "geometry.segment_index")
        self.span(cli, "union_length", "geometry.union_length")
        self.span(planar, "build_planar", "planar.build_planar", _measure_planar)
        self.span(planar, "area_accounting", "planar.area_accounting")
        for attr in ("stage2_to_document", "pieces_to_document", "stage3_to_document"):
            self.span(document, attr, "document.serialise")
        self.span(document, "dumps_document", "document.serialise", _adder("document.bytes_out"))
        self.span(document, "loads_document", "document.parse", _bytes_in)
        for attr in ("document_to_stage2", "document_to_pieces", "document_to_stage3"):
            self.span(document, attr, "document.parse")
        self.span(render, "render_svg", "render.render_svg", _adder("render.bytes_out"))
        self.span(render, "export_obj", "render.export_obj", _adder("render.bytes_out"))
        self.span(topology, "index_vector", "topology.index_vector", _windings)
        self.span(render, "index_vector", "topology.index_vector", _windings)
        from_pieces = topology.HoleSet.__dict__["from_pieces"].__func__
        self._patch(
            topology.HoleSet,
            "from_pieces",
            classmethod(self._span("topology.from_pieces", from_pieces)),
        )
        for attr in ("winding_by_argument", "fredholm_index", "winding_by_roots", "truncate", "random_symbol"):
            self.span(toeplitz, attr, f"toeplitz.{attr}")

        index_cls = qf.geometry.SegmentIndex
        self._patch(index_cls, "ids_through", self._counter("geometry.ids_through", index_cls.ids_through, len))
        self._patch(index_cls, "covers", self._counter("geometry.covers", index_cls.covers, bool))
        uf = qf.unionfind.UnionFind
        self._patch(uf, "union", self._counter("unionfind.union", uf.union, bool))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- reporting

    def request_span(self, fn, *args):
        """Run fn(*args) as the root span 'cli' of a new request."""
        self.request += 1
        return self._span("cli", fn)(*args)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - _covered(children.get(index, ()))
        return dict(totals)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _adder(key: str):
    def measure(counts, args, result):
        counts[key] += len(result)

    return measure


def _bytes_in(counts, args, result):
    counts["document.bytes_in"] += len(args[0])


def _windings(counts, args, result):
    counts["topology.windings"] += len(args[1])


def _measure_cantor(counts, args, stage):
    counts["cantor.cells"] += len(stage.cells)
    counts["cantor.segments"] += len(stage.segments)
    counts["cantor.generated"] += 4 * sum(4**k for k in range(stage.level + 1))


def _measure_spatial(counts, args, stage):
    cube = stage.variant.kind == "cube_wireframe"
    split, edges = (8, 12) if cube else (4, 6)
    counts["spatial.pieces"] += len(stage.pieces)
    counts["spatial.skeleton"] += len(stage.skeleton)
    counts["spatial.generated"] += edges * sum(split**k for k in range(stage.level + 1))


def _measure_planar(counts, args, ps):
    counts["planar.kept"] += len(ps.kept)
    counts["planar.removed"] += len(ps.removed)
