"""Carpet and gasket subdivision: piece counts, exact areas, boundaries."""

import random

import numpy as np
import pytest

from helpers import F, area_accounting_oracle, build_planar_oracle, on_lattice_of, planar_views, pt
from helpers import segments_on_lattice
from quasifractal.errors import CapacityError, ParameterError
from quasifractal.geometry import Cell, Loop, SegmentIndex, Simplex, Simplices, lattice_group, signed_area
from quasifractal.planar import (
    CARPET,
    GASKET,
    Piece,
    Pieces,
    PieceSet,
    area_accounting,
    base_cell,
    boundary_of_rest,
    build_planar,
    similarity_dimension,
)


def test_carpet_depth1():
    ps = build_planar(CARPET, 1)
    assert len(ps.kept) == 8
    assert all(cell.side == F(1, 3) for cell in ps.kept)
    assert len(ps.removed) == 1
    piece = ps.removed[0]
    assert piece.birth_level == 1
    assert piece.area == F(1, 9)
    assert set(piece.boundary.vertices) == {
        (F(1, 3), F(1, 3)),
        (F(2, 3), F(1, 3)),
        (F(2, 3), F(2, 3)),
        (F(1, 3), F(2, 3)),
    }
    assert piece.boundary.orientation == 1


def test_gasket_depth1():
    ps = build_planar(GASKET, 1)
    assert len(ps.kept) == 3
    assert len(ps.removed) == 1
    # midpoint triangle has a quarter of the parent area, 1/4 * 1/2 = 1/8
    assert ps.removed[0].area == F(1, 8)
    assert ps.removed[0].boundary.orientation == 1


def test_carpet_removed_counts_by_level():
    ps = build_planar(CARPET, 3)
    counts = {}
    for piece in ps.removed:
        counts[piece.birth_level] = counts.get(piece.birth_level, 0) + 1
    assert counts == {1: 1, 2: 8, 3: 64}


def test_gasket_removed_counts_by_level():
    ps = build_planar(GASKET, 4)
    counts = {}
    for piece in ps.removed:
        counts[piece.birth_level] = counts.get(piece.birth_level, 0) + 1
    assert counts == {1: 1, 2: 3, 3: 9, 4: 27}


def test_kept_counts():
    assert len(build_planar(CARPET, 2).kept) == 64
    assert len(build_planar(GASKET, 5).kept) == 243


def test_area_accounting_carpet_depth2():
    account = area_accounting(build_planar(CARPET, 2))
    assert account.kept_area == F(64, 81)
    assert account.removed_area == F(17, 81)
    assert account.kept_area + account.removed_area == 1


def test_area_accounting_gasket_depth0():
    account = area_accounting(build_planar(GASKET, 0))
    assert account.kept_area == F(1, 2)
    assert account.removed_area == 0


def test_area_accounting_carpet_depth5():
    account = area_accounting(build_planar(CARPET, 5))
    assert account.kept_area == F(8, 9) ** 5
    assert account.kept_area == F(32768, 59049)


def test_exact_partition_and_geometric_law():
    for depth in range(5):
        carpet = area_accounting(build_planar(CARPET, depth))
        assert carpet.kept_area + carpet.removed_area == 1
        assert carpet.kept_area == F(8, 9) ** depth
        gasket = area_accounting(build_planar(GASKET, depth))
        assert gasket.kept_area + gasket.removed_area == F(1, 2)
        assert gasket.kept_area == F(3, 4) ** depth * F(1, 2)


def test_boundary_of_rest_carpet_depth1():
    segments = boundary_of_rest(build_planar(CARPET, 1))
    assert len(segments) == 8


def test_boundary_of_rest_gasket_depth2():
    segments = boundary_of_rest(build_planar(GASKET, 2))
    # 3 outer edges + 3 edges for each of the 4 removed triangles
    assert len(segments) == 15


def test_removed_pieces_interior_disjoint_carpet():
    for depth in (1, 2, 3):
        pieces = build_planar(CARPET, depth).removed
        boxes = []
        for piece in pieces:
            xs = [v.x for v in piece.boundary.vertices]
            ys = [v.y for v in piece.boundary.vertices]
            boxes.append((min(xs), min(ys), max(xs), max(ys)))
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                x_open = max(a[0], b[0]) < min(a[2], b[2])
                y_open = max(a[1], b[1]) < min(a[3], b[3])
                assert not (x_open and y_open)


def test_removed_piece_interiors_avoid_kept_cells_carpet():
    ps = build_planar(CARPET, 2)
    for piece in ps.removed:
        xs = [v.x for v in piece.boundary.vertices]
        ys = [v.y for v in piece.boundary.vertices]
        for cell in ps.kept:
            x_open = max(min(xs), cell.corner.x) < min(max(xs), cell.corner.x + cell.side)
            y_open = max(min(ys), cell.corner.y) < min(max(ys), cell.corner.y + cell.side)
            assert not (x_open and y_open)


@pytest.mark.parametrize("kind", [CARPET, GASKET])
def test_removed_boundaries_lie_in_kept_boundaries_at_birth(kind):
    # the planar version of "piece boundaries are loops in the fractal"
    for depth in (1, 2, 3):
        ps = build_planar(kind, depth)
        index_at = {}
        for level in {p.birth_level for p in ps.removed}:
            kept = build_planar(kind, level).kept
            index_at[level] = SegmentIndex(segments_on_lattice([s for c in kept for s in c.edge_segments()], kept.lcm))
        for piece in ps.removed:
            index = index_at[piece.birth_level]
            verts = piece.boundary.vertices
            n = len(verts)
            for i in range(n):
                assert index.covers(*on_lattice_of(index, verts[i], verts[(i + 1) % n]))


def test_kept_cells_are_ccw():
    for kind in (CARPET, GASKET):
        for cell in build_planar(kind, 2).kept:
            assert signed_area(Loop(*cell.faces())) > 0


def test_depth_cap_and_validation():
    with pytest.raises(CapacityError):
        build_planar(CARPET, 8)
    with pytest.raises(CapacityError):
        build_planar(GASKET, 13)
    with pytest.raises(ParameterError):
        build_planar("pentagon", 2)
    with pytest.raises(ParameterError):
        build_planar(CARPET, -1)


@pytest.mark.parametrize(
    "kind, depth", [(CARPET, d) for d in range(6)] + [(GASKET, d) for d in range(9)]
)
def test_build_matches_the_object_oracle(kind, depth):
    ps = build_planar(kind, depth)
    kept, removed = build_planar_oracle(kind, depth)
    assert (len(ps.kept), len(ps.removed)) == (len(kept), len(removed))
    assert list(ps.kept) == kept
    assert list(ps.removed) == removed
    assert ps.removed.births == [piece.birth_level for piece in removed]
    # hand-built pieces are laid out as built ones are
    hand = Pieces.of(ps.removed.lcm, ps.removed.rows)
    assert hand.groups.keys() == ps.removed.groups.keys()
    for (members, xs, ys), (built_members, built_xs, built_ys) in zip(hand.groups.values(), ps.removed.groups.values()):
        assert list(members) == list(built_members)
        assert (xs.dtype, ys.dtype) == (built_xs.dtype, built_ys.dtype)
        assert np.array_equal(xs, built_xs) and np.array_equal(ys, built_ys)


def test_piece_sets_compare_their_lattice_arrays():
    ps = build_planar(GASKET, 2)
    kept, removed, lcm = ps.kept, ps.removed, ps.kept.lcm
    assert PieceSet(GASKET, 2, Simplices(lcm, (), kept.vertices.copy()), Pieces.of(lcm, removed.rows)) == ps
    assert PieceSet(GASKET, 2, Simplices(lcm, (), kept.vertices[::-1]), removed) != ps
    assert PieceSet(GASKET, 2, kept, Pieces.of(lcm, removed.rows[1:])) != ps
    relabelled = Pieces.of(lcm, [(ring, birth, label + "'") for ring, birth, label in removed.rows])
    assert [p.label for p in relabelled] == [p.label + "'" for p in removed]
    assert PieceSet(GASKET, 2, kept, relabelled) != ps
    assert PieceSet(GASKET, 1, kept, removed) != ps
    assert build_planar(CARPET, 0) != build_planar(GASKET, 0)


def test_parallel_build_is_identical():
    assert build_planar(CARPET, 3, workers=4) == build_planar(CARPET, 3)
    assert build_planar(GASKET, 5, workers=4) == build_planar(GASKET, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: PieceSet(kind, 0, [], []),
        base_cell,
        lambda kind: build_planar(kind, 0),
        similarity_dimension,
    ],
    ids=["PieceSet", "base_cell", "build_planar", "similarity_dimension"],
)
def test_an_unknown_planar_kind_is_refused_everywhere_alike(call):
    with pytest.raises(ParameterError, match=r"^unknown planar variant 'pentagon' \(expected carpet or gasket\)$"):
        call("pentagon")


def test_similarity_dimensions():
    import math

    assert abs(similarity_dimension(CARPET) - math.log(8) / math.log(3)) < 1e-15
    assert abs(similarity_dimension(GASKET) - math.log(3) / math.log(2)) < 1e-15
    with pytest.raises(ParameterError):
        similarity_dimension("menger")


def test_kept_area_is_the_shoelace_area_of_the_kept_cells():
    gasket = build_planar(GASKET, 5)
    clockwise = Simplices(gasket.kept.lcm, (), gasket.kept.vertices[:, ::-1])
    assert list(clockwise) == [Simplex("", cell.vertices[::-1]) for cell in gasket.kept]
    for ps in (build_planar(CARPET, 3), gasket, PieceSet(GASKET, 5, clockwise, Pieces.of(clockwise.lcm, []))):
        shoelace = sum(signed_area(Loop(*cell.faces())) for cell in ps.kept)
        assert area_accounting(ps).kept_area == shoelace
    assert shoelace < 0


@pytest.mark.parametrize("kind", [CARPET, GASKET])
@pytest.mark.parametrize("depth", range(6))
def test_area_accounting_matches_the_fraction_oracle(kind, depth):
    ps = build_planar(kind, depth)
    assert area_accounting(ps) == area_accounting_oracle(ps)


def _coprime_point(rng):
    """A point whose coordinates have small, mostly coprime denominators."""
    q = rng.choice([1, 2, 3, 5, 7, 11, 13, 9, 25, 49])
    return pt(F(rng.randint(-40, 40), q), F(rng.randint(-40, 40), rng.choice([1, 4, 7, 17, 27])))


def _random_ring(rng, size, orientation):
    """A ring of `size` random points running counterclockwise (+1) or clockwise (-1)."""
    while True:
        ring = [_coprime_point(rng) for _ in range(size)]
        if all(p != q for p, q in zip(ring, ring[1:] + ring[:1])):
            area = signed_area(Loop(tuple(ring)))
            if area:
                return ring if (area > 0) == (orientation > 0) else ring[::-1]


@pytest.mark.parametrize("seed", range(8))
def test_area_accounting_matches_the_oracle_on_mixed_denominators(seed):
    """Hand-made piece sets: denominators differ from cell to cell, rings run either way."""
    rng = random.Random(seed)
    orientations = [1, -1] + [rng.choice([1, -1]) for _ in range(rng.randint(0, 10))]
    removed = [
        Piece(Loop(tuple(_random_ring(rng, rng.randint(3, 7), turn))), rng.randint(1, 4), f"r{i}")
        for i, turn in enumerate(orientations)
    ]
    squares = [
        Cell("", _coprime_point(rng), F(rng.randint(1, 30), rng.choice([1, 3, 5, 7, 11, 13, 81])))
        for _ in range(rng.randint(1, 12))
    ]
    triangles = [Simplex("", tuple(_random_ring(rng, 3, turn))) for turn in orientations]
    cells, simplices, pieces = planar_views(squares, triangles, removed)
    no_pieces = Pieces.of(1, [])
    for ps in (
        PieceSet(CARPET, 2, cells, pieces),
        PieceSet(GASKET, 2, simplices, pieces),
        PieceSet(GASKET, 0, Simplices(1, (), np.empty((0, 3, 2), dtype=object)), no_pieces),
    ):
        assert area_accounting(ps) == area_accounting_oracle(ps)
    assert {piece.boundary.orientation for piece in removed} == {-1, 1}


def _far_ring(rng, k, turn, above):
    """k vertices over halves running counterclockwise (+1) or clockwise (-1),
    with coordinates up to m/2 in absolute value for m = (2^29 - 1) // k,
    plus 1 when `above`, and one x coordinate at +-m/2.

    On the lattice of D = 2 the largest coordinate is m, so k * m is just
    below 2^29, or at least 2^29 when `above`; twice a ring's area runs
    to about 2^57, past what a float holds exactly.
    """
    m = (2**29 - 1) // k + above

    def half():
        return F(rng.randint(-m, m), 2)

    while True:
        ring = [pt(half(), half()) for _ in range(k - 1)]
        ring.insert(rng.randrange(k), pt(F(rng.choice([m, -m]), 2), half()))
        if all(p != q for p, q in zip(ring, ring[1:] + ring[:1])):
            area = signed_area(Loop(tuple(ring)))
            if area:
                return ring if (area > 0) == (turn > 0) else ring[::-1]


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_area_accounting_on_both_sides_of_the_int64_bound(above):
    """Rings of 3 to 8 vertices, triangles and squares whose lattice arrays
    are int64 below the bound and Python ints above it; the sums must not
    see the difference."""
    rng = random.Random(29 + above)
    turns = (1, -1, 1, -1)
    removed = [
        Piece(Loop(tuple(_far_ring(rng, k, turn, above))), 1, f"1:{k}:{i}")
        for k in range(3, 9)
        for i, turn in enumerate(turns)
    ]
    triangles = [Simplex("", tuple(_far_ring(rng, 3, turn, above))) for turn in turns]
    # twice the side of a square on the lattice of D = 2 is just below
    # 2^29, or 2^29
    squares = [Cell("", pt(F(1, 2), F(-1, 2)), F((2**29 - 1) // 2 + above, 2)) for _ in turns]
    cells, simplices, pieces = planar_views(squares, triangles, removed)
    lcm, groups = pieces.lcm, pieces.groups
    assert lcm == 2 and sorted(groups) == list(range(3, 9))
    assert all(xs.dtype == (object if above else np.int64) for _, xs, _ in groups.values())
    for ps in (PieceSet(CARPET, 1, cells, pieces), PieceSet(GASKET, 1, simplices, pieces)):
        assert ps.kept.lcm == ps.removed.lcm == 2
        # hand-built kept views hold Python ints; the gasket's shoelace lays them out by `lattice_group`
        kept = (ps.kept.corners, ps.kept.sides) if ps.kind == CARPET else (ps.kept.vertices,)
        assert all(array.dtype == object for array in kept)
        if ps.kind == GASKET:
            assert all(xs.dtype == (object if above else np.int64) for _, xs, _ in lattice_group(*kept).values())
        assert all(xs.dtype == (object if above else np.int64) for _, xs, _ in ps.removed.groups.values())
        assert area_accounting(ps) == area_accounting_oracle(ps)
