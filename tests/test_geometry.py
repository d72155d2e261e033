"""Exact predicates and measures on rational points, segments, and loops."""

import random
from itertools import combinations, islice

import numpy as np
import pytest

from helpers import (
    F,
    cell_children,
    convex_loop,
    cross2,
    crossing_oracle,
    midpoint,
    on_lattice_of,
    on_segment,
    pairwise_components,
    pt,
    random_point_off_loop,
    segments_on_lattice,
    simplex_children,
    split_cell,
    square_loop,
    star_loop,
    tuple_segment_components,
    tuple_union_length,
    union_length_oracle,
    winding_oracle,
)
from quasifractal.errors import (
    CapacityError,
    IndeterminateWindingError,
    MalformedLoopError,
    ParameterError,
    UnsupportedGeometryError,
)
from quasifractal.geometry import (
    BOUNDARY,
    BOX_OUTLINE,
    INSIDE,
    OUTSIDE,
    SIMPLEX_OUTLINE,
    Cell,
    Loop,
    Point2,
    Point3,
    Segment,
    SegmentIndex,
    Segments,
    Simplex,
    area_vector,
    box_grid,
    cell_outline,
    check_depth,
    geometric_sum,
    lattice_dtype,
    lattice_windings,
    point_in_polygon,
    rational,
    ring_edges,
    ring_segments,
    scale_factor,
    segment_components,
    signed_area,
    to_lattice,
    twice_areas,
    union_length,
    winding_numbers,
)
from quasifractal.planar import Pieces
from quasifractal.topology import centroid, winding_number


def _view(segments) -> Segments:
    """Fraction segments on the lattice of their denominators (`to_lattice`)."""
    lcm, _ = to_lattice([c for segment in segments for point in segment for c in point])
    return segments_on_lattice(segments, lcm)


def rand_fraction(rng):
    return F(rng.randint(-50, 50), rng.randint(1, 20))


def test_rational_field_laws_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        if c != 0:
            assert (a / c) * c == a


def test_rational_parsing():
    assert rational("3/4") == F(3, 4)
    assert rational(2) == F(2)
    with pytest.raises(ParameterError):
        rational("1/0")
    with pytest.raises(ParameterError):
        rational("pi")


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, float("inf"), True, False])
def test_rational_refuses_floats_and_bools(value):
    with pytest.raises(ParameterError):
        rational(value)


def test_signed_area_unit_square():
    assert signed_area(square_loop(0, 0, 1)) == 1


def test_signed_area_reversed_square():
    loop = Loop(tuple(reversed(square_loop(0, 0, 1).vertices)))
    assert signed_area(loop) == -1


def test_signed_area_half_unit_triangle():
    assert signed_area(Loop((pt(0, 0), pt(1, 0), pt(0, 1)))) == F(1, 2)


def test_signed_area_reversal_negates_random_loops():
    rng = random.Random(11)
    for _ in range(50):
        loop = convex_loop(rng)
        reversed_loop = Loop(tuple(reversed(loop.vertices)))
        assert signed_area(reversed_loop) == -signed_area(loop)


def test_loop_needs_three_vertices():
    with pytest.raises(MalformedLoopError):
        Loop((pt(0, 0), pt(1, 1)))


def test_loop_rejects_consecutive_duplicates():
    with pytest.raises(MalformedLoopError):
        Loop((pt(0, 0), pt(0, 0), pt(1, 1)))


def test_point_in_polygon_unit_square():
    square = square_loop(0, 0, 1)
    assert point_in_polygon(square, pt(F(1, 2), F(1, 2))) == INSIDE
    assert point_in_polygon(square, pt(2, 0)) == OUTSIDE
    assert point_in_polygon(square, pt(F(1, 2), 0)) == BOUNDARY
    assert point_in_polygon(square, pt(1, 1)) == BOUNDARY


def test_point_in_polygon_degenerate_loop():
    flat = Loop((pt(0, 0), pt(1, 0), pt(2, 0)))
    with pytest.raises(MalformedLoopError):
        point_in_polygon(flat, pt(5, 5))


def test_point_in_polygon_matches_winding_on_convex_loops():
    rng = random.Random(23)
    for _ in range(80):
        loop = convex_loop(rng)
        p = random_point_off_loop(rng, loop)
        if point_in_polygon(loop, p) == BOUNDARY:
            continue
        inside = point_in_polygon(loop, p) == INSIDE
        assert inside == (crossing_oracle(loop, p) != 0)


def test_geometric_sum_matches_term_by_term_sum():
    for r in (F(0), F(1), F(-1), F(1, 3), F(4, 5), F(3, 2), F(-7, 4)):
        for n in range(8):
            assert geometric_sum(r, n) == sum(r**k for k in range(n + 1))


def test_area_vector_of_oriented_faces():
    def p3(x, y, z):
        return Point3(F(x), F(y), F(z))

    square = (p3(0, 0, 0), p3(2, 0, 0), p3(2, 2, 0), p3(0, 2, 0))
    assert area_vector(square) == (0, 0, 4)
    assert area_vector(tuple(reversed(square))) == (0, 0, -4)
    triangle = (p3(1, 0, 0), p3(0, 1, 0), p3(0, 0, 1))
    assert area_vector(triangle) == (F(1, 2), F(1, 2), F(1, 2))


def test_ring_segments_close_the_ring():
    verts = (pt(0, 0), pt(1, 0), pt(0, 1))
    assert ring_segments(verts) == (
        Segment(verts[0], verts[1]),
        Segment(verts[1], verts[2]),
        Segment(verts[2], verts[0]),
    )


def test_segment_canonical_form():
    s1 = Segment(pt(1, 1), pt(0, 0))
    s2 = Segment(pt(0, 0), pt(1, 1))
    assert s1 == s2
    assert len({s1, s2}) == 1
    assert s1.a <= s1.b


def test_segment_rejects_equal_endpoints():
    with pytest.raises(ParameterError) as raised:
        Segment(pt(1, 2), pt(1, 2))
    assert str(raised.value) == "degenerate segment at Point2(x=Fraction(1, 1), y=Fraction(2, 1))"


def test_points_and_segments_are_coordinate_tuples():
    assert all(issubclass(cls, tuple) for cls in (Point2, Point3, Segment))
    assert Point2(0, 0) != Point3(0, 0, 0)
    total = pt(1, 2) + pt(F(1, 2), 3)
    assert type(total) is Point2 and total == (F(3, 2), 5)
    assert type(Point3(1, 2, 3) - Point3(1, 1, 1)) is Point3


def test_point_and_segment_reprs():
    p = pt(F(1, 2), 0)
    assert repr(p) == "Point2(x=Fraction(1, 2), y=Fraction(0, 1))"
    assert repr(Point3(F(1), F(0), F(1, 3))) == (
        "Point3(x=Fraction(1, 1), y=Fraction(0, 1), z=Fraction(1, 3))"
    )
    assert repr(Segment(pt(1, 0), p)) == (
        "Segment(a=Point2(x=Fraction(1, 2), y=Fraction(0, 1)), "
        "b=Point2(x=Fraction(1, 1), y=Fraction(0, 1)))"
    )


def test_union_length_overlapping_collinear():
    # (0, 0)-(1, 0) and (1/2, 0)-(3/2, 0) on D = 2
    segments = Segments(2, np.array([[(0, 0), (2, 0)], [(1, 0), (3, 0)]]))
    assert union_length(segments) == F(3, 2)


def test_union_length_disjoint_carriers():
    segments = Segments(1, np.array([[(0, 0), (0, 1)], [(0, 0), (1, 0)]]))
    assert union_length(segments) == 2


def test_union_length_rejects_diagonals():
    with pytest.raises(UnsupportedGeometryError):
        union_length(Segments(1, np.array([[(0, 0), (1, 1)]])))


def test_union_length_stage1_cantor_boundaries():
    # a = 1/5: full perimeter count is 4 + 4*(4/5) = 36/5, but half of each
    # child's edges lie on the unit-square boundary, so the union is smaller
    from quasifractal.cantor import Params2, build, perimeter_series

    stage = build(Params2(F(1, 5), 1))
    total = union_length(stage.segments)
    assert total == union_length_oracle(stage.segments)
    assert total == F(28, 5)
    assert perimeter_series(F(1, 5), 1).partial_sum == F(36, 5)
    assert total < F(36, 5)


def test_union_length_never_exceeds_plain_sum():
    rng = random.Random(31)
    for _ in range(60):
        segments = set()
        for _ in range(rng.randint(1, 10)):
            x = F(rng.randint(0, 8), 2)
            y = F(rng.randint(0, 8), 2)
            run = F(rng.randint(1, 6), 2)
            if rng.random() < 0.5:
                segments.add(Segment(Point2(x, y), Point2(x + run, y)))
            else:
                segments.add(Segment(Point2(x, y), Point2(x, y + run)))
        plain = sum(
            abs(s.b.x - s.a.x) + abs(s.b.y - s.a.y) for s in segments
        )
        union = union_length(_view(list(segments)))
        assert union <= plain
        assert union == union_length_oracle(segments)
        overlapping = _has_overlap(segments)
        assert (union == plain) == (not overlapping)


def _has_overlap(segments) -> bool:
    items = list(segments)
    for i, s in enumerate(items):
        for t in items[i + 1 :]:
            da = (s.b.x - s.a.x, s.b.y - s.a.y)
            db = (t.b.x - t.a.x, t.b.y - t.a.y)
            axis_a = 0 if da[0] != 0 else 1
            axis_b = 0 if db[0] != 0 else 1
            if axis_a != axis_b:
                continue
            other = 1 - axis_a
            if s.a[other] != t.a[other]:
                continue
            lo = max(s.a[axis_a], t.a[axis_a])
            hi = min(s.b[axis_a], t.b[axis_a])
            if lo < hi:
                return True
    return False


def test_segment_components_two_disjoint_squares():
    from helpers import segments_of_loop

    segs = segments_of_loop(square_loop(0, 0, 1)) + segments_of_loop(square_loop(5, 5, 1))
    assert segment_components(_view(segs)) == 2


def test_segment_components_touching_squares():
    from helpers import segments_of_loop

    segs = segments_of_loop(square_loop(0, 0, 1)) + segments_of_loop(square_loop(1, 0, 1))
    assert segment_components(_view(segs)) == 1


def test_segment_components_t_junction():
    # vertical segment whose endpoint hits the interior of a horizontal one
    segs = Segments(1, np.array([[(0, 0), (2, 0)], [(1, 0), (1, 1)], [(5, 5), (6, 5)]]))
    assert segment_components(segs) == 2


def test_segment_components_empty():
    assert segment_components(Segments(1, np.empty((0, 2, 2), np.int64))) == 0


def test_segment_components_matches_pairwise_oracle():
    # same endpoint-on-segment adjacency, but computed by brute force
    rng = random.Random(101)
    for _ in range(40):
        segments = []
        seen = set()
        for _ in range(rng.randint(2, 12)):
            x, y = F(rng.randint(0, 6)), F(rng.randint(0, 6))
            run = F(rng.randint(1, 4))
            if rng.random() < 0.5:
                seg = Segment(Point2(x, y), Point2(x + run, y))
            else:
                seg = Segment(Point2(x, y), Point2(x, y + run))
            if seg not in seen:
                seen.add(seg)
                segments.append(seg)
        view = _view(segments)
        assert segment_components(view) == pairwise_components(list(view))


# the six edge directions of the tetra gasket
TETRA_DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))


def _along(p, direction, t):
    return type(p)(*(c + t * d for c, d in zip(p, direction)))


def _tetra_direction_segments(rng):
    """Segments on the tetra's edge directions, with nested and touching
    collinear companions and T-junctions onto diagonal interiors."""
    segments = []
    for _ in range(rng.randint(2, 10)):
        start = Point3(*(F(rng.randint(0, 4), 2) for _ in range(3)))
        direction = rng.choice(TETRA_DIRECTIONS)
        length = F(rng.randint(1, 4), 2)
        end = _along(start, direction, length)
        segments.append(Segment(start, end))
        roll = rng.random()
        if roll < 0.3:  # nested inside it (possibly sharing an end)
            lo, hi = sorted(rng.sample(range(5), 2))
            segments.append(
                Segment(_along(start, direction, length * lo / 4), _along(start, direction, length * hi / 4))
            )
        elif roll < 0.5:  # touching it end to end
            segments.append(Segment(end, _along(end, direction, F(rng.randint(1, 3), 2))))
        elif roll < 0.8:  # a T-junction onto its midpoint from another direction
            mid = _along(start, direction, length / 2)
            other = rng.choice([d for d in TETRA_DIRECTIONS if d != direction])
            segments.append(Segment(mid, _along(mid, other, F(rng.choice((-1, 1)) * rng.randint(1, 3), 2))))
    return segments


def test_segment_components_matches_pairwise_oracle_on_tetra_directions():
    rng = random.Random(303)
    seen = set()
    for _ in range(150):
        view = _view(_tetra_direction_segments(rng))
        expected = pairwise_components(list(view))
        assert segment_components(view) == expected
        seen.add(expected)
    assert {1, 2, 3} <= seen  # connected and disconnected sets both occur


def test_segment_components_diagonal_t_junction():
    # a vertical endpoint in the interior of a diagonal, and a near miss
    diagonal = Segment(Point3(F(0), F(1), F(0)), Point3(F(1), F(0), F(0)))
    stem = Segment(Point3(F(1, 2), F(1, 2), F(0)), Point3(F(1, 2), F(1, 2), F(1)))
    near = Segment(Point3(F(1, 2), F(1, 2) + F(1, 1000), F(0)), Point3(F(1, 2), F(1), F(0)))
    assert segment_components(_view([diagonal, stem])) == 1
    assert segment_components(_view([diagonal, near])) == 2
    view = _view([diagonal, stem, near])
    assert segment_components(view) == pairwise_components(list(view)) == 2


def _brute_ids_through(segments, p):
    return sorted(i for i, s in enumerate(segments) if on_segment(p, s.a, s.b))


def _brute_covers(segments, p, q):
    # cut pq at every indexed endpoint on it; each closed piece must lie in one segment
    d = tuple(qi - pi for pi, qi in zip(p, q))

    def param(x):
        return sum((xi - pi) * di for xi, pi, di in zip(x, p, d))

    cuts = {p, q} | {e for s in segments for e in (s.a, s.b) if on_segment(e, p, q)}
    cuts = sorted(cuts, key=param)
    return all(
        any(on_segment(c1, s.a, s.b) and on_segment(c2, s.a, s.b) for s in segments)
        for c1, c2 in zip(cuts, cuts[1:])
    )


def test_segment_index_queries_match_brute_force():
    rng = random.Random(404)
    for _ in range(60):
        view = _view(_tetra_direction_segments(rng))
        segments, index = list(view), SegmentIndex(view)
        points = {e for s in segments for e in (s.a, s.b)}
        points |= {Point3(*(F(rng.randint(0, 8), 4) for _ in range(3))) for _ in range(10)}
        for p in points:
            assert sorted(index.ids_through(*on_lattice_of(index, p))) == _brute_ids_through(segments, p)
        for _ in range(20):
            p = rng.choice(sorted(points))
            q = _along(p, rng.choice(TETRA_DIRECTIONS), F(rng.randint(1, 6), 4))
            lp, lq = on_lattice_of(index, p, q)
            assert index.covers(lp, lq) == index.covers(lq, lp) == _brute_covers(segments, p, q)


def _covers_queries(segments, rng, directions=TETRA_DIRECTIONS):
    """Query pairs around indexed segments: parts of one, spans over two
    that touch, and copies displaced along one of `directions` or overlong."""
    queries = []
    for s in segments:
        d = tuple(b - a for a, b in zip(s.a, s.b))
        lo, hi = sorted(rng.sample(range(5), 2))
        queries.append((_along(s.a, d, F(lo, 4)), _along(s.a, d, F(hi, 4))))
        shift = rng.choice(directions)
        queries.append((_along(s.a, shift, F(1, 4)), _along(s.b, shift, F(1, 4))))
        queries.append((s.a, _along(s.b, d, F(1, 4))))
    for s, t in combinations(segments, 2):  # from the far end of s to the far end of t
        for p, shared in ((s.a, s.b), (s.b, s.a)):
            for q, joint in ((t.b, t.a), (t.a, t.b)):
                if shared == joint and p != q:
                    queries.append((p, q))
    return queries


def test_segment_index_membership_path_matches_brute_force(monkeypatch):
    rng = random.Random(505)
    builds, lookups = [], []
    over, runs_at = SegmentIndex._over.__func__, SegmentIndex._runs_at
    monkeypatch.setattr(SegmentIndex, "_over", classmethod(lambda *args: builds.append(1) or over(*args)))
    monkeypatch.setattr(SegmentIndex, "_runs_at", lambda *args: lookups.append(1) or runs_at(*args))
    for _ in range(40):
        segments = _tetra_direction_segments(rng)  # as generated, so the queries drawn stay the same
        view = _view(segments)
        built = len(builds)
        index = SegmentIndex(view)
        assert SegmentIndex(view) is index and len(builds) == built + 1
        looked_up = len(lookups)
        for s in segments:  # indexed rows, in both orientations: answered by membership alone
            lp, lq = on_lattice_of(index, s.a, s.b)
            assert index.covers(lp, lq) and index.covers(lq, lp)
        assert len(lookups) == looked_up
        for p, q in _covers_queries(segments, rng):
            lp, lq = on_lattice_of(index, p, q)
            assert index.covers(lp, lq) == index.covers(lq, lp) == _brute_covers(segments, p, q), (p, q)
        own = SegmentIndex(_view(segments))  # each view keeps its own index
        assert own is not index and own is not SegmentIndex(_view(segments))
        for p, q in _covers_queries(segments, rng):
            lp, lq = on_lattice_of(own, p, q)
            assert own.covers(lp, lq) == _brute_covers(segments, p, q), (p, q)


# Axis, diagonal and tetra directions in the plane and in space.
MIXED_DIRECTIONS = {
    2: ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)),
    3: TETRA_DIRECTIONS + ((1, 1, 1), (2, 0, 1)),
}
_POINTS = {2: Point2, 3: Point3}


def _mixed_segments(rng, dim, offset):
    """Segments along `MIXED_DIRECTIONS[dim]` (axis directions only in about
    a third of the sets) with collinear overlaps, nested and touching
    companions and T-junctions, shifted by `offset` in every coordinate."""
    directions = MIXED_DIRECTIONS[dim][: dim if rng.random() < 0.35 else None]
    segments = set()
    for _ in range(rng.randint(1, 9)):
        start = _POINTS[dim](*(offset + F(rng.randint(0, 6), 2) for _ in range(dim)))
        direction = rng.choice(directions)
        length = F(rng.randint(1, 4), 2)
        end = _along(start, direction, length)
        segments.add(Segment(start, end))
        roll = rng.random()
        if roll < 0.2:  # nested inside it, possibly sharing an end
            lo, hi = sorted(rng.sample(range(5), 2))
            segments.add(Segment(_along(start, direction, length * lo / 4), _along(start, direction, length * hi / 4)))
        elif roll < 0.4:  # overlapping it past its end
            segments.add(Segment(_along(start, direction, length / 2), _along(end, direction, length / 2)))
        elif roll < 0.55:  # touching it end to end
            segments.add(Segment(end, _along(end, direction, F(rng.randint(1, 3), 2))))
        elif roll < 0.8:  # a T-junction onto its midpoint from another direction
            mid = _along(start, direction, length / 2)
            other = rng.choice([d for d in directions if d != direction] or [direction])
            segments.add(Segment(mid, _along(mid, other, F(rng.choice((-1, 1)) * rng.randint(1, 3), 2))))
    return sorted(segments)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0, 3**25], ids=["int64", "object"])
def test_array_kernel_matches_the_tuple_kernel(dim, offset):
    rng = random.Random(1800 + 10 * dim + bool(offset))
    components, skew = set(), 0
    for _ in range(50):
        view = _view(_mixed_segments(rng, dim, offset))
        segments, index = list(view), SegmentIndex(view)
        assert (index.run_lo.dtype == object) == bool(offset)
        expected = pairwise_components(segments)
        assert segment_components(view) == tuple_segment_components(segments) == expected
        components.add(expected)
        try:
            length = tuple_union_length(segments)
        except UnsupportedGeometryError as exc:
            skew += 1
            with pytest.raises(UnsupportedGeometryError) as raised:
                union_length(view)
            assert str(raised.value) == str(exc)
        else:
            assert union_length(view) == length == union_length_oracle(segments)
        points = sorted({e for s in segments for e in (s.a, s.b)} | {midpoint(s.a, s.b) for s in segments})
        points += [_along(rng.choice(points), [rng.randint(-4, 4) for _ in range(dim)], F(1, 8)) for _ in range(8)]
        hits = index.ids_through(on_lattice_of(index, *points))
        for number, p in enumerate(points):  # quarter points are off the lattice when D is 2
            through = _brute_ids_through(segments, p)
            assert sorted(hits[hits[:, 0] == number, 1].tolist()) == through, p
            assert index.covers(*on_lattice_of(index, p, p)) == bool(through), p
        assert sorted(index.ids_through(*on_lattice_of(index, points[0]))) == _brute_ids_through(segments, points[0])
        for p, q in _covers_queries(segments, rng, MIXED_DIRECTIONS[dim]):
            lp, lq = on_lattice_of(index, p, q)
            assert index.covers(lp, lq) == index.covers(lq, lp) == _brute_covers(segments, p, q), (p, q)
    assert {1, 2, 3} <= components and 0 < skew < 50


@pytest.mark.parametrize("a, depth", [(F(1, 3), 2), (F(2, 5), 2), (F(1, 2), 2), (F(1, 5), 1)])
def test_segment_components_matches_pairwise_oracle_on_cantor_stages(a, depth):
    from quasifractal.cantor import Params2, build

    segments = build(Params2(a, depth)).segments
    assert segment_components(segments) == pairwise_components(segments) == 1


def _refusals() -> dict:
    """Per view input, calls that give it a list of objects, a view of the
    wrong type and, where it takes several, two views on different lattices."""
    from quasifractal.cantor import Params2, Stage2, build
    from quasifractal.planar import CARPET, GASKET, PieceSet, build_planar
    from quasifractal.spatial import CUBE_WIREFRAME, TETRA_GASKET, SpatialVariant, Stage3, build_spatial
    from quasifractal.topology import HoleSet

    stage, finer = build(Params2(F(1, 3), 1)), build(Params2(F(1, 3), 2))
    cube = SpatialVariant(CUBE_WIREFRAME, F(1, 3))
    solid, solid2 = build_spatial(cube, 1), build_spatial(cube, 2)
    carpet, carpet2 = build_planar(CARPET, 1), build_planar(CARPET, 2)
    segments = stage.segments
    return {
        "Stage2": [
            lambda: Stage2(stage.params, 1, list(stage.cells), set(segments)),
            lambda: Stage2(stage.params, 1, segments, stage.cells),
            lambda: Stage2(stage.params, 1, stage.cells, finer.segments),
        ],
        "Stage3": [
            lambda: Stage3(cube, 1, list(solid.cells), set(solid.skeleton), list(solid.pieces)),
            lambda: Stage3(SpatialVariant(TETRA_GASKET), 1, solid.cells, solid.skeleton, solid.pieces),
            lambda: Stage3(cube, 1, solid.cells, solid2.skeleton, solid.pieces),
        ],
        "PieceSet": [
            lambda: PieceSet(CARPET, 1, list(carpet.kept), list(carpet.removed)),
            lambda: PieceSet(GASKET, 1, carpet.kept, carpet.removed),
            lambda: PieceSet(CARPET, 1, carpet.kept, carpet2.removed),
        ],
        "SegmentIndex": [lambda: SegmentIndex(list(segments)), lambda: SegmentIndex(stage.cells)],
        "union_length": [
            lambda: union_length([1, 2]),
            lambda: union_length(list(segments)),
            lambda: union_length(solid.pieces),
        ],
        "segment_components": [lambda: segment_components(set(segments)), lambda: segment_components(stage.cells)],
        "HoleSet.from_pieces": [
            lambda: HoleSet.from_pieces(list(carpet.removed)),
            lambda: HoleSet.from_pieces(carpet.kept),
        ],
    }


def test_view_inputs_refuse_anything_but_views_on_one_lattice():
    for name, calls in _refusals().items():
        messages = set()
        for call in calls:
            with pytest.raises(ParameterError) as raised:
                call()
            messages.add(str(raised.value))
        assert len(messages) == 1, (name, messages)


def test_check_depth():
    assert check_depth(0) == 0
    assert check_depth(7, cap=7) == 7
    for bad in (-1, 1.5, "3", None):
        with pytest.raises(ParameterError, match="stage count"):
            check_depth(bad, cap=7, what="stage count")
    with pytest.raises(CapacityError, match="depth 8 exceeds cap 7"):
        check_depth(8, cap=7)


def test_scale_factor():
    assert scale_factor("1/3", allow_half=False) == F(1, 3)
    assert scale_factor(F(1, 2), allow_half=True) == F(1, 2)
    for bad in ("0", "-1/3", "3/5", "1/2", "x"):
        with pytest.raises(ParameterError):
            scale_factor(bad, allow_half=False)
    with pytest.raises(ParameterError, match=r"\(0, 1/2\]"):
        scale_factor("3/5", allow_half=True)


def test_square_cell_edges_are_its_four_sides():
    cell = Cell("", pt(F(1, 3), F(1, 5)), F(2, 7))
    x, y, s = cell.corner.x, cell.corner.y, cell.side
    ring = (pt(x, y), pt(x + s, y), pt(x + s, y + s), pt(x, y + s))
    assert set(cell.edge_segments()) == set(ring_segments(ring))
    assert len(cell.edge_segments()) == 4
    assert cell.vertices() == (ring[0], ring[1], ring[3], ring[2])  # bit order


def test_cube_cell_vertices_and_edges():
    cell = Cell("", Point3(F(0), F(0), F(0)), F(1))
    verts = cell.vertices()
    assert list(verts) == [(b & 1, b >> 1 & 1, b >> 2 & 1) for b in range(8)]
    edges = cell.edge_segments()
    assert len(set(edges)) == 12
    for e in edges:
        assert sum(ai != bi for ai, bi in zip(e.a, e.b)) == 1


def assert_outline_rows(cell, grid, outline):
    """The cell's vertices, edge segments and faces are the rows that
    `cell_outline` reads from `grid`, the cell's vertices as a one-row
    object array of Fractions, with the tables of `outline`."""
    edges, rings = cell_outline(grid, *outline)
    vertices = cell.vertices() if isinstance(cell, Cell) else cell.vertices
    assert [tuple(v) for v in grid[0].tolist()] == list(vertices)
    assert [Segment(*map(tuple, e)) for e in edges.tolist()] == list(cell.edge_segments())
    assert [tuple(map(tuple, ring)) for ring in rings.tolist()] == list(cell.faces())


@pytest.mark.parametrize("corner", [pt(F(1, 7), F(2, 7)), Point3(F(1, 7), F(2, 7), F(3, 7))])
def test_cell_children_take_the_corners_in_letter_order(corner):
    d = len(corner)
    rng = random.Random(d)
    point = type(corner)
    cells = [(Cell("3", corner, F(3, 7)), F(2, 5))]
    for _ in range(5):
        origin = point(*(rand_fraction(rng) for _ in range(d)))
        cells.append((Cell("3", origin, F(rng.randint(1, 20), rng.randint(1, 20))), F(rng.randint(1, 10), 21)))
    for cell, a in cells:
        kids = cell_children(cell, a)
        assert [k.address for k in kids] == ["3" + str(i) for i in range(len(kids))]
        assert all(k.side == cell.side * a and cell.contains(k) for k in kids)
        shift = cell.side - cell.side * a
        offsets = [tuple((k.corner[i] - cell.corner[i]) / shift for i in range(d)) for k in kids]
        if d == 2:
            assert offsets == [(0, 0), (1, 0), (1, 1), (0, 1)]  # SW, SE, NE, NW
        else:
            assert offsets == [(b & 1, b >> 1 & 1, b >> 2 & 1) for b in range(8)]
        assert not kids[0].contains(kids[1])
        assert split_cell(cell, a) == list(kids)
        corners, sides = np.array([list(cell.corner)], dtype=object), np.array([cell.side], dtype=object)
        assert_outline_rows(cell, box_grid(corners, sides), BOX_OUTLINE[d])


@pytest.mark.parametrize("n", [3, 4])
def test_simplex_children_keep_a_vertex_and_take_edge_midpoints(n):
    rng = random.Random(n)
    point = Point2 if n == 3 else Point3
    verts = tuple(point(*(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1))) for _ in range(n))
    kids = simplex_children(verts)
    assert len(kids) == n
    for i, kid in enumerate(kids):
        for j, v in enumerate(kid):
            expected = verts[i] if i == j else point(*((p + q) / 2 for p, q in zip(verts[i], verts[j])))
            assert v == expected
    cell = Simplex("", verts)
    assert split_cell(cell) == [Simplex(str(i), kid) for i, kid in enumerate(kids)]
    assert_outline_rows(cell, np.array([verts], dtype=object), SIMPLEX_OUTLINE[n])


@pytest.mark.parametrize("n", [3, 4])
def test_simplex_cell_edges_faces_and_children(n):
    point = Point2 if n == 3 else Point3
    verts = tuple(point(*(F(int(i == k + 1)) for k in range(n - 1))) for i in range(n))
    cell = Simplex("2", verts)
    assert cell.level == 1
    assert set(cell.edge_segments()) == {Segment(p, q) for i, p in enumerate(verts) for q in verts[i + 1 :]}
    rings = cell.faces()
    if n == 3:
        assert rings == (verts,)
    else:  # face i is the one opposite vertex i
        assert [set(ring) for ring in rings] == [set(verts) - {v} for v in verts]
    assert_outline_rows(cell, np.array([verts], dtype=object), SIMPLEX_OUTLINE[n])
    kids = cell_children(cell)
    assert [k.address for k in kids] == ["2" + str(i) for i in range(n)]
    assert [k.vertices for k in kids] == simplex_children(verts)
    assert split_cell(cell) == list(kids)


def test_point_in_polygon_matches_angle_sum_on_concave_loops():
    rng = random.Random(29)
    concave = 0
    for _ in range(60):
        ccw = star_loop(rng)
        v = ccw.vertices
        concave += any(cross2(a, b, c) < 0 for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2]))
        for loop in (ccw, Loop(ccw.vertices[::-1])):
            for _ in range(10):
                p = random_point_off_loop(rng, loop, span=12)
                assert point_in_polygon(loop, p) == (INSIDE if winding_oracle(loop, p) else OUTSIDE)
            a, b = loop.vertices[:2]
            assert point_in_polygon(loop, a) == point_in_polygon(loop, midpoint(a, b)) == BOUNDARY
    assert concave >= 30


def test_winding_number_raises_exactly_on_the_loop():
    # half-integer lattice points over integer loops: many land on vertices and edges
    rng = random.Random(37)
    on_loop = 0
    for _ in range(60):
        ccw = star_loop(rng, span=5)
        for loop in (ccw, Loop(ccw.vertices[::-1])):
            for _ in range(30):
                p = pt(F(rng.randint(-10, 10), 2), F(rng.randint(-10, 10), 2))
                if any(on_segment(p, a, b) for a, b in loop.edges()):
                    on_loop += 1
                    with pytest.raises(IndeterminateWindingError):
                        winding_number(loop, p)
                else:
                    assert winding_number(loop, p) == winding_oracle(loop, p)
    assert on_loop >= 200


def test_ring_edges_close_the_ring():
    verts = (pt(0, 0), pt(1, 0), pt(0, 1))
    assert list(ring_edges(verts)) == [(verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])]


def _assert_windings_match(loop, points):
    """`winding_numbers` equals `crossing_oracle` point by point, or both name
    the first point on the loop."""
    expected = []
    for p in points:
        try:
            expected.append(crossing_oracle(loop, p))
        except IndeterminateWindingError as exc:
            with pytest.raises(IndeterminateWindingError) as got:
                winding_numbers(loop, points)
            assert str(got.value) == str(exc)
            return False
    assert winding_numbers(loop, points) == tuple(expected)
    return True


@pytest.mark.parametrize("shape", [convex_loop, star_loop])
def test_winding_numbers_match_winding_number(shape):
    # points over denominators 2 and 3 against integer loops: many land on
    # vertices and edges; vertices and edge midpoints are added outright
    rng = random.Random(71)
    off = on = 0
    for _ in range(60):
        ccw = shape(rng, span=5)
        for loop in (ccw, Loop(ccw.vertices[::-1])):
            points = [pt(F(rng.randint(-12, 12), 2), F(rng.randint(-18, 18), 3)) for _ in range(25)]
            clear = [p for p in points if not any(on_segment(p, a, b) for a, b in loop.edges())]
            assert _assert_windings_match(loop, clear)
            off += len(clear)
            a, b = loop.vertices[0], loop.vertices[1]
            for p in (a, midpoint(a, b), *points):
                if p not in clear:
                    at = rng.randrange(len(clear) + 1)
                    assert not _assert_windings_match(loop, clear[:at] + [p] + clear[at:])
                    assert not _assert_windings_match(loop, [p])
                    on += 1
    assert off >= 1000 and on >= 300
    assert winding_numbers(square_loop(0, 0, 1), []) == ()


@pytest.mark.parametrize("numerator", [2**29 - 1, 2**29 + 1])
def test_winding_numbers_on_both_sides_of_the_int64_bound(numerator):
    # every point has denominator 1 or 2, so D = 2 and the far vertex sits at
    # `numerator` on the lattice: int64 just below 2^29, Python ints above
    assert lattice_dtype(numerator) is (np.int64 if numerator < 2**29 else object)
    far = F(numerator, 2)
    rng = random.Random(numerator)
    for _ in range(20):
        star = star_loop(rng, span=5)
        loop = Loop(star.vertices + (Point2(far, F(1, 2)),))  # a long spike to the right
        points = [pt(F(rng.randint(-12, 12), 2), F(rng.randint(-12, 12), 2)) for _ in range(20)]
        points += [Point2(far - 1, F(1, 2)), Point2(far - 1, F(1, 4)), Point2(far + 1, F(1, 2))]
        _assert_windings_match(loop, points)
        for p in points:
            _assert_windings_match(loop, [p])


def test_winding_numbers_with_denominators_near_a_trillion():
    q = 10**12 + 39
    rng = random.Random(1039)
    reps = [pt(F(2 * i + 1, 18), F(2 * j + 1, 18)) for i in range(9) for j in range(9)]
    for _ in range(30):
        ccw = convex_loop(rng, span=5)
        loop = Loop(
            tuple(
                Point2(v.x / 10 + F(rng.randint(0, q), q), v.y / 10 + F(rng.randint(0, q), q))
                for v in ccw.vertices
            )
        )
        assert _assert_windings_match(loop, reps)
        # a loop through a representative raises, naming it
        assert not _assert_windings_match(Loop((reps[40],) + loop.vertices[1:]), reps)


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_lattice_ring_walk_and_shoelace_match_the_oracles_at_the_int64_bound(above):
    """`lattice_windings` and `twice_areas` on seeded convex and star rings,
    each moved out until k times its largest coordinate is just below 2^29,
    or at least 2^29 when `above`, against `crossing_oracle` and `signed_area`."""
    rng = random.Random(529 + above)
    loops = []
    for i in range(40):
        ccw = (convex_loop, star_loop)[i % 2](rng, span=6)
        k = len(ccw.vertices)
        shift = (2**29 - 1) // k + above - max(c for v in ccw.vertices for c in v)
        moved = tuple(Point2(v.x + shift, v.y + shift) for v in ccw.vertices)
        loops += [Loop(moved), Loop(moved[::-1])]
    lcm, ints = to_lattice([c for loop in loops for v in loop.vertices for c in v])
    points = zip(ints[0::2], ints[1::2])
    rings = [tuple(islice(points, len(loop.vertices))) for loop in loops]
    pieces = Pieces.of(lcm, [(ring, 1, str(i)) for i, ring in enumerate(rings)])
    lcm, groups = pieces.lcm, pieces.groups
    assert lcm == 1 and len(groups) >= 4
    checked = on = 0
    for k, (members, xs, ys) in groups.items():
        assert xs.dtype == (object if above else np.int64)
        rings = [loops[i] for i in members]
        assert twice_areas(xs, ys).tolist() == [2 * signed_area(loop) for loop in rings]
        # every ring about its centroid, on the k-fold lattice that
        # `HoleSet.from_pieces` uses
        windings, on_ring = lattice_windings(k * xs, k * ys, xs.sum(axis=0), ys.sum(axis=0))
        for loop, winding, on_loop in zip(rings, windings.tolist(), on_ring.tolist()):
            try:
                assert (winding, on_loop) == (crossing_oracle(loop, centroid(loop)), False)
            except IndeterminateWindingError:
                assert on_loop
        # every ring about the integer points of its box, its vertices among them
        for j, loop in enumerate(rings):
            lo = min(c for v in loop.vertices for c in v)
            points = [pt(lo + rng.randint(-1, 14), lo + rng.randint(-1, 14)) for _ in range(60)]
            px = np.array([int(p.x) for p in points], dtype=xs.dtype)
            py = np.array([int(p.y) for p in points], dtype=xs.dtype)
            windings, on_ring = lattice_windings(xs[:, j], ys[:, j], px, py)
            for p, winding, on_loop in zip(points, windings.tolist(), on_ring.tolist()):
                try:
                    assert (winding, on_loop) == (crossing_oracle(loop, p), False)
                except IndeterminateWindingError:
                    assert on_loop
                    on += 1
                checked += 1
    assert checked == 60 * len(loops) and on >= 200
