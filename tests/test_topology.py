"""Winding numbers, index vectors, and orientation behavior."""

import random

import pytest

from helpers import F, convex_loop, hole_set_oracle, lattice_ints, pt, random_point_off_loop, square_loop
from helpers import winding_oracle
from quasifractal.errors import IndeterminateWindingError, MalformedLoopError, ParameterError
from quasifractal.geometry import INSIDE, Loop, Point2, point_in_polygon, signed_area, to_lattice
from quasifractal.planar import CARPET, GASKET, Pieces, build_planar
from quasifractal.spatial import CUBE_WIREFRAME, SpatialVariant, TETRA_GASKET, build_spatial
from quasifractal.topology import (
    HoleSet,
    centroid,
    face_index,
    index_vector,
    reverse_orientation,
    same_index_class,
    winding_number,
)

CENTER = pt(F(1, 2), F(1, 2))


def wedge(*loops: Loop) -> Loop:
    """Concatenate loops that share their first vertex into one closed loop."""
    base = loops[0].vertices[0]
    assert all(l.vertices[0] == base for l in loops)
    verts = tuple(v for l in loops for v in l.vertices)
    return Loop(verts)


def test_winding_unit_square():
    assert winding_number(square_loop(0, 0, 1), CENTER) == 1


def test_winding_reversed_square():
    loop = reverse_orientation(square_loop(0, 0, 1))
    assert winding_number(loop, CENTER) == -1


def test_winding_doubled_square():
    square = square_loop(0, 0, 1)
    doubled = Loop(square.vertices + square.vertices)
    assert winding_number(doubled, CENTER) == 2
    assert winding_oracle(doubled, CENTER) == 2


def test_winding_point_on_loop_is_an_error():
    with pytest.raises(IndeterminateWindingError):
        winding_number(square_loop(0, 0, 1), pt(F(1, 2), 0))


def test_winding_zero_outside_bounding_box():
    rng = random.Random(3)
    for _ in range(40):
        loop = convex_loop(rng)
        xmax = max(v.x for v in loop.vertices)
        ymax = max(v.y for v in loop.vertices)
        assert winding_number(loop, Point2(xmax + 1, ymax + 1)) == 0


def test_winding_matches_oracle_on_random_cases():
    rng = random.Random(97)
    for _ in range(300):
        loop = convex_loop(rng)
        if rng.random() < 0.3:
            loop = reverse_orientation(loop)
        p = random_point_off_loop(rng, loop)
        assert winding_number(loop, p) == winding_oracle(loop, p)


def test_winding_reversal_antisymmetry_random():
    rng = random.Random(41)
    for _ in range(100):
        loop = convex_loop(rng)
        p = random_point_off_loop(rng, loop)
        assert winding_number(reverse_orientation(loop), p) == -winding_number(loop, p)


def test_winding_concatenation_additivity():
    rng = random.Random(59)
    for _ in range(100):
        l1 = convex_loop(rng)
        l2 = convex_loop(rng)
        shift = l1.vertices[0] - l2.vertices[0]
        l2 = Loop(tuple(v + shift for v in l2.vertices))
        combined = wedge(l1, l2)
        p = random_point_off_loop(rng, combined)
        assert winding_number(combined, p) == winding_number(l1, p) + winding_number(l2, p)


def test_winding_translation_invariance():
    rng = random.Random(71)
    for _ in range(100):
        loop = convex_loop(rng)
        p = random_point_off_loop(rng, loop)
        v = Point2(F(rng.randint(-9, 9), 3), F(rng.randint(-9, 9), 7))
        moved = Loop(tuple(w + v for w in loop.vertices))
        assert winding_number(moved, p + v) == winding_number(loop, p)


def test_simple_loop_winding_is_indicator():
    rng = random.Random(83)
    for _ in range(60):
        loop = convex_loop(rng)
        p = random_point_off_loop(rng, loop)
        w = winding_number(loop, p)
        if point_in_polygon(loop, p) == INSIDE:
            assert abs(w) == 1
        else:
            assert w == 0


def test_holeset_from_carpet_pieces():
    ps = build_planar(CARPET, 1)
    holes = HoleSet.from_pieces(ps.removed)
    assert holes.representatives == (CENTER,)
    assert holes.labels == ("1:0",)


def test_holeset_label_mismatch():
    with pytest.raises(ParameterError):
        HoleSet((CENTER,), ())


def test_index_vector_outer_boundary_carpet1():
    ps = build_planar(CARPET, 1)
    holes = HoleSet.from_pieces(ps.removed)
    outer = square_loop(0, 0, 1)
    assert index_vector(outer, holes) == (1,)


def test_index_vector_center_loop_carpet2():
    ps = build_planar(CARPET, 2)
    holes = HoleSet.from_pieces(ps.removed)
    assert len(holes) == 9
    central = square_loop(F(1, 3), F(1, 3), F(1, 3))
    entries = index_vector(central, holes)
    assert entries == (1,) + (0,) * 8
    for rep, entry in zip(holes.representatives, entries):
        assert entry == winding_oracle(central, rep)


def test_index_vector_empty_holes():
    holes = HoleSet((), ())
    assert index_vector(square_loop(0, 0, 1), holes) == ()


def test_index_vector_propagates_point_on_loop():
    holes = HoleSet((pt(F(1, 2), 0),), ("edge",))
    with pytest.raises(IndeterminateWindingError):
        index_vector(square_loop(0, 0, 1), holes)


def three_hole_fixture():
    holes = HoleSet((pt(0, 0), pt(10, 0), pt(20, 0)), ("a", "b", "c"))
    around_a = Loop((pt(10, -5), pt(-1, -1), pt(1, -1), pt(1, 1), pt(-1, 1), pt(-1, -1)))
    c_square = square_loop(19, -1, 2)
    around_c_twice = Loop(
        (pt(10, -5),) + c_square.vertices + (c_square.vertices[0],) + c_square.vertices[1:] + (c_square.vertices[0],)
    )
    return holes, wedge(around_a, around_c_twice)


def test_index_vector_mixed_windings():
    holes, loop = three_hole_fixture()
    entries = index_vector(loop, holes)
    assert entries == (1, 0, 2)
    for rep, entry in zip(holes.representatives, entries):
        assert entry == winding_oracle(loop, rep)


def test_reversal_negates_index_vector():
    holes, loop = three_hole_fixture()
    assert index_vector(reverse_orientation(loop), holes) == (-1, 0, -2)


def test_reverse_orientation_basics():
    square = square_loop(0, 0, 1)
    reversed_square = reverse_orientation(square)
    assert signed_area(reversed_square) == -signed_area(square)
    assert reverse_orientation(reversed_square) == square


def test_same_index_class_start_vertex_rotation():
    ps = build_planar(CARPET, 1)
    holes = HoleSet.from_pieces(ps.removed)
    square = square_loop(0, 0, 1)
    rotated = Loop(square.vertices[2:] + square.vertices[:2])
    assert same_index_class(square, rotated, holes)


def test_same_index_class_detects_reversal():
    ps = build_planar(CARPET, 1)
    holes = HoleSet.from_pieces(ps.removed)
    square = square_loop(0, 0, 1)
    assert not same_index_class(square, reverse_orientation(square), holes)


def test_same_index_class_concentric_squares():
    ps = build_planar(CARPET, 1)
    holes = HoleSet.from_pieces(ps.removed)
    inner = square_loop(F(1, 6), F(1, 6), F(2, 3))
    outer = square_loop(0, 0, 1)
    assert same_index_class(inner, outer, holes)


def test_centroid_of_triangle():
    tri = Loop((pt(0, 0), pt(1, 0), pt(0, 1)))
    assert centroid(tri) == pt(F(1, 3), F(1, 3))


def test_face_index_is_unit_for_all_faces():
    for variant in (SpatialVariant(CUBE_WIREFRAME, F(1, 3)), SpatialVariant(TETRA_GASKET)):
        stage = build_spatial(variant, 1)
        for face in stage.pieces:
            assert abs(face_index(face)) == 1


def test_face_index_flips_with_face_orientation():
    from helpers import face3_oracle

    stage = build_spatial(SpatialVariant(TETRA_GASKET), 0)
    for face in stage.pieces:
        flipped = face3_oracle(tuple(reversed(face.boundary)), face.birth_level)
        assert face_index(flipped) == -face_index(face)


def _ring(*xy) -> Loop:
    return Loop(tuple(pt(x, y) for x, y in xy))


TRIANGLE = _ring((0, 0), (3, 0), (0, 3))
CW_SQUARE = _ring((0, 0), (0, 2), (2, 2), (2, 0))
# a C shape: the vertex average (21/4, 5) lies in its notch
NOTCHED = _ring((0, 0), (10, 0), (10, 1), (1, 1), (1, 9), (10, 9), (10, 10), (0, 10))
# the vertex average (2, 2) is the fifth vertex
CENTROID_ON_RING = _ring((0, 0), (4, 0), (4, 4), (0, 4), (2, 2))
FLAT = _ring((0, 0), (1, 0), (2, 0))
BOWTIE = _ring((0, 0), (1, 1), (1, 0), (0, 1))  # its two lobes cancel: zero area
# lobes of equal area and opposite turn; the extra vertex (0, 1) moves the
# vertex average (8/5, 1) off the crossing into the left lobe
FIGURE_EIGHT = _ring((0, 0), (4, 2), (4, 0), (0, 2), (0, 1))
THIN = _ring((F(1, 7), F(1, 5)), (F(2, 7), F(1, 5)), (F(3, 11), F(3, 10)))

# name -> rings, in the order of the pieces
HAND_MADE = {
    "empty": [],
    "cw-square": [CW_SQUARE],
    "notched": [NOTCHED],
    "centroid-on-ring": [CENTROID_ON_RING],
    "flat": [FLAT],
    "bowtie": [BOWTIE],
    "figure-eight": [FIGURE_EIGHT],
    "mixed-order": [TRIANGLE, CW_SQUARE, THIN, square_loop(5, 5, F(1, 3)), TRIANGLE, CW_SQUARE],
    "bad-quad-before-flat-triangle": [TRIANGLE, NOTCHED, FLAT],
    "flat-triangle-before-bad-quad": [CW_SQUARE, FLAT, NOTCHED],
    "bowtie-after-notch": [THIN, NOTCHED, BOWTIE],
    "figure-eight-before-notch": [TRIANGLE, FIGURE_EIGHT, NOTCHED],
    "on-ring-after-good-triangles": [TRIANGLE, THIN, CENTROID_ON_RING, FLAT],
}


def _pieces(rings) -> Pieces:
    """Rings as pieces of birth level 1, labelled 1:i, on the lattice of
    their denominators (`to_lattice`), as Python ints."""
    lcm, _ = to_lattice([c for ring in rings for p in ring.vertices for c in p])
    return Pieces.of(lcm, [(lattice_ints(list(ring.vertices), lcm), 1, f"1:{i}") for i, ring in enumerate(rings)])


def _outcome(build, pieces):
    try:
        return build(pieces)
    except (MalformedLoopError, ParameterError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", HAND_MADE)
def test_from_pieces_matches_the_oracle_on_hand_made_sets(name):
    pieces = _pieces(HAND_MADE[name])
    assert [p.boundary for p in pieces] == HAND_MADE[name]
    assert _outcome(HoleSet.from_pieces, pieces) == _outcome(hole_set_oracle, list(pieces))


@pytest.mark.parametrize("kind, depth", [(CARPET, 3), (GASKET, 5)])
def test_from_pieces_matches_the_oracle_on_built_stages(kind, depth):
    removed = build_planar(kind, depth).removed
    assert HoleSet.from_pieces(removed) == hole_set_oracle(removed)


@pytest.mark.parametrize("magnitude", [(2**29 - 1) // 3, (2**29 - 1) // 3 + 1])
def test_from_pieces_on_both_sides_of_the_int64_bound(magnitude):
    # three times the largest coordinate crosses 2^29 between the two cases
    m = magnitude
    rings = [
        _ring((0, 0), (m, 0), (0, m)),
        _ring((-m, -m), (0, -m), (0, 0), (-m, 0)),
        _ring((0, 0), (m, 0), (2 * m // 3, 1)),
        _ring((0, 0), (m, 1), (m - 1, 1)),  # long and thin: twice its area is 1
        _ring((-m, 0), (0, 0), (m, 0)),  # flat
    ]
    pieces = _pieces(rings)
    assert _outcome(HoleSet.from_pieces, pieces) == _outcome(hole_set_oracle, list(pieces))
    assert HoleSet.from_pieces(_pieces(rings[:4])) == hole_set_oracle(list(pieces)[:4])


def test_from_pieces_scales_the_guard_by_the_vertex_count():
    # 23-vertex C shapes whose vertex average lies in the notch, with
    # coordinates just below 2^29: each coordinate fits int64, but the
    # centroid lattice multiplies them by 23, past what int64 products hold
    notch = [(0, 0), (10, 0), (10, 1), *[(x, 1) for x in range(9, 0, -1)]]
    notch += [*[(x, 9) for x in range(2, 11)], (10, 10), (0, 10)]
    for shrink in range(1, 40):
        s = (2**29 - 1) // 10 - shrink * 1234567
        pieces = _pieces([TRIANGLE, _ring(*[(x * s, y * s) for x, y in notch])])
        assert _outcome(HoleSet.from_pieces, pieces) == _outcome(hole_set_oracle, list(pieces))
