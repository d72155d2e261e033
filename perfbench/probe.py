"""The ROADMAP's hand-made baseline points, each timed once.

Runs in traced mode only, after the timed stream, and never counts
towards the workload metrics. Each workload probes the points of the
layers it exercises, so one traced run per workload stays affordable.
Every figure is printed beside the ROADMAP's figure (2 cores, Python
3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# (label, ROADMAP seconds)
ROADMAP = {
    "cantor a=1/3 depth 5 build": 0.15,
    "cantor a=1/3 depth 5 connectivity": 3.1,
    "cantor a=1/3 depth 6 build": 0.43,
    "cantor a=1/3 depth 6 connectivity": 19.4,
    "carpet depth 6 build_planar": 3.4,
    "carpet depth 6 area_accounting": 3.7,
    "gasket depth 10 build_planar": 2.4,
    "gasket depth 10 area_accounting": 4.7,
    "cube a=1/3 depth 3 build_spatial": 0.9,
    "cube a=1/3 depth 3 connectivity3": 2.7,
    "cube a=1/3 depth 3 boundary_incidence": 1.3,
    "carpet depth 6 build workers=1": 2.55,
    "carpet depth 6 build workers=2": 3.56,
    "cantor a=1/3 depth 7 build workers=1": 2.02,
    "cantor a=1/3 depth 7 build workers=2": 2.40,
    "cube a=1/3 depth 4 build workers=1": 5.66,
    "cube a=1/3 depth 4 build workers=2": 5.89,
}


def _timed(results: dict, label: str, fn):
    gc.collect()
    start = perf_counter()
    value = fn()
    results[label] = perf_counter() - start
    return value


def _cantor(qf, results):
    cantor = qf.cantor
    for depth in (5, 6):
        stage = _timed(results, f"cantor a=1/3 depth {depth} build", lambda: cantor.build(cantor.Params2(Fraction(1, 3), depth)))
        _timed(results, f"cantor a=1/3 depth {depth} connectivity", lambda: cantor.connectivity(stage))
    for workers in (1, 2):
        label = f"cantor a=1/3 depth 7 build workers={workers}"
        _timed(results, label, lambda: cantor.build(cantor.Params2(Fraction(1, 3), 7), workers=workers))


def _cube(qf, results):
    spatial = qf.spatial
    variant = spatial.SpatialVariant(spatial.CUBE_WIREFRAME, Fraction(1, 3))
    stage = _timed(results, "cube a=1/3 depth 3 build_spatial", lambda: spatial.build_spatial(variant, 3))
    _timed(results, "cube a=1/3 depth 3 connectivity3", lambda: spatial.connectivity3(stage))
    _timed(results, "cube a=1/3 depth 3 boundary_incidence", lambda: spatial.boundary_incidence(stage))


def _cube_workers(qf, results):
    spatial = qf.spatial
    variant = spatial.SpatialVariant(spatial.CUBE_WIREFRAME, Fraction(1, 3))
    for workers in (1, 2):
        label = f"cube a=1/3 depth 4 build workers={workers}"
        _timed(results, label, lambda: spatial.build_spatial(variant, 4, workers=workers))


def _planar(qf, results):
    planar = qf.planar
    for kind, depth in ((planar.CARPET, 6), (planar.GASKET, 10)):
        pieces = _timed(results, f"{kind} depth {depth} build_planar", lambda: planar.build_planar(kind, depth))
        _timed(results, f"{kind} depth {depth} area_accounting", lambda: planar.area_accounting(pieces))
        del pieces
    for workers in (1, 2):
        label = f"carpet depth 6 build workers={workers}"
        _timed(results, label, lambda: planar.build_planar(planar.CARPET, 6, workers=workers))


PROBES = {
    "skeleton": (_cantor, _cube),
    "pieces": (_planar,),
    "query": (_cube_workers,),
}


def run(workload: str, qf) -> dict[str, dict[str, float]]:
    """Time this workload's baseline points; label -> measured and ROADMAP seconds."""
    results: dict[str, float] = {}
    for probe in PROBES[workload]:
        probe(qf, results)
    return {label: {"seconds": seconds, "roadmap_seconds": ROADMAP[label]} for label, seconds in results.items()}
