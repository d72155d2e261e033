"""3D constructions: counts, skeleton incidence, series, connectivity."""


import pytest

from helpers import F, cell_children, face3_oracle, on_lattice_of, pairwise_components, segments_on_lattice
from helpers import split_cell, stage3_on_lattice
from quasifractal.errors import CapacityError, ParameterError
from quasifractal.geometry import Point3, Segment, SegmentIndex, area_vector, segment_components
from quasifractal.spatial import (
    CUBE_WIREFRAME,
    TETRA_GASKET,
    Cell,
    SpatialVariant,
    boundary_incidence,
    build_spatial,
    connectivity3,
    series_measures,
)

CUBE_THIRD = SpatialVariant(CUBE_WIREFRAME, F(1, 3))
TETRA = SpatialVariant(TETRA_GASKET)


def test_variant_validation():
    with pytest.raises(ParameterError):
        SpatialVariant(CUBE_WIREFRAME)  # missing a
    with pytest.raises(ParameterError):
        SpatialVariant(CUBE_WIREFRAME, F(1, 2))  # not strictly below 1/2
    with pytest.raises(ParameterError):
        SpatialVariant(TETRA_GASKET, F(1, 3))  # fixed contraction
    with pytest.raises(ParameterError):
        SpatialVariant("menger")


def test_cube_depth0():
    stage = build_spatial(CUBE_THIRD, 0)
    assert len(stage.cells) == 1
    assert len(stage.skeleton) == 12
    assert len(stage.pieces) == 6
    assert all(len(face.boundary) == 4 for face in stage.pieces)
    assert all(face.area_sq == 1 for face in stage.pieces)


def test_cube_depth1_cells_and_skeleton():
    stage = build_spatial(CUBE_THIRD, 1)
    assert len(stage.cells) == 8
    assert all(cell.side == F(1, 3) for cell in stage.cells)
    corners = {cell.corner for cell in stage.cells}
    assert corners == {
        (x, y, z) for x in (0, F(2, 3)) for y in (0, F(2, 3)) for z in (0, F(2, 3))
    }
    # 12 level-0 edges plus 8 * 12 child edges, none coincident at a = 1/3
    assert len(stage.skeleton) == 108
    assert len(stage.pieces) == 6 + 48


def test_cell_counts():
    for depth in range(3):
        assert len(build_spatial(CUBE_THIRD, depth).cells) == 8**depth
        assert len(build_spatial(TETRA, depth).cells) == 4**depth


def test_tetra_depth2_faces_are_triangles():
    stage = build_spatial(TETRA, 2)
    assert len(stage.cells) == 16
    assert all(len(face.boundary) == 3 for face in stage.pieces)
    assert len(stage.pieces) == 4 * (1 + 4 + 16)


def test_cube_children_contained():
    cell = Cell("", Point3(F(0), F(0), F(0)), F(1))
    kids = cell_children(cell, F(2, 5))
    for child in kids:
        assert cell.contains(child)
    assert split_cell(cell, F(2, 5)) == list(kids)


def test_tetra_face_area_ratio():
    # every subdivision halves lengths, so squared areas scale by 1/16
    stage = build_spatial(TETRA, 2)
    base = {F(1, 4), F(3, 4)}
    for face in stage.pieces:
        k = face.birth_level
        assert face.area_sq * 16**k in base
    for level in (0, 1, 2):
        faces = [f for f in stage.pieces if f.birth_level == level]
        small = sum(1 for f in faces if f.area_sq * 16**level == F(1, 4))
        assert small == 3 * len(faces) // 4


def test_cube_series_limits():
    report = series_measures(SpatialVariant(CUBE_WIREFRAME, F(1, 10)), 3)
    assert report.edge_finite and report.edge_limit == 60
    report = series_measures(SpatialVariant(CUBE_WIREFRAME, F(1, 5)), 3)
    assert not report.edge_finite and report.edge_limit is None
    assert report.area_finite and report.area_limit == F(150, 17)
    report = series_measures(SpatialVariant(CUBE_WIREFRAME, F(1, 8)), 5)
    assert not report.edge_finite  # ratio exactly 1: strict threshold
    assert report.edge_length_sum == 12 * 6


def test_cube_series_partial_sums_and_remainder():
    a = F(1, 10)
    variant = SpatialVariant(CUBE_WIREFRAME, a)
    partials = [series_measures(variant, n) for n in range(6)]
    for lo, hi in zip(partials, partials[1:]):
        assert lo.edge_length_sum < hi.edge_length_sum
        assert lo.face_area_sum < hi.face_area_sum
    for n, report in enumerate(partials):
        assert report.edge_limit - report.edge_length_sum == 12 * (8 * a) ** (n + 1) / (1 - 8 * a)
        assert report.area_limit - report.face_area_sum == 6 * (8 * a * a) ** (n + 1) / (
            1 - 8 * a * a
        )


def test_tetra_series_reported_infinite():
    report = series_measures(TETRA, 4)
    assert not report.edge_finite and not report.area_finite
    assert report.edge_limit is None and report.area_limit is None
    assert isinstance(report.edge_length_sum, float)
    # face area contribution per stage is constant, so the sum is linear in n
    base = series_measures(TETRA, 0).face_area_sum
    assert report.face_area_sum == pytest.approx(5 * base)


def test_boundary_incidence_clean():
    for variant in (CUBE_THIRD, SpatialVariant(CUBE_WIREFRAME, F(1, 5)), TETRA):
        for depth in (0, 1, 2):
            assert boundary_incidence(build_spatial(variant, depth)) == 0


def test_boundary_incidence_detects_displaced_face():
    stage = build_spatial(CUBE_THIRD, 1)
    shift = Point3(F(1, 7), F(1, 7), F(1, 7))
    displaced = face3_oracle(tuple(v + shift for v in stage.pieces[0].boundary), 1)
    broken = stage3_on_lattice(stage, 21, faces=[displaced])  # D = 3 * 7
    assert broken.pieces[-1] == displaced
    assert boundary_incidence(broken) == 4

    tetra_stage = build_spatial(TETRA, 1)
    displaced3 = face3_oracle(tuple(v + shift for v in tetra_stage.pieces[0].boundary), 1)
    broken3 = stage3_on_lattice(tetra_stage, 14, faces=[displaced3])  # D = 2 * 7
    assert broken3.pieces[-1] == displaced3
    assert boundary_incidence(broken3) == 3


def test_level2_face_boundaries_lie_in_level2_cell_edges():
    stage = build_spatial(CUBE_THIRD, 2)
    level2_edges = SegmentIndex(segments_on_lattice([seg for cell in stage.cells for seg in cell.edge_segments()], 9))
    for face in stage.pieces:
        if face.birth_level != 2:
            continue
        for p, q in face.edges():
            assert level2_edges.covers(*on_lattice_of(level2_edges, p, q))


def test_connectivity_one_component():
    for variant in (CUBE_THIRD, TETRA):
        for depth in (0, 1, 2):
            assert connectivity3(build_spatial(variant, depth)) == 1
    assert connectivity3(build_spatial(TETRA, 4)) == 1


def test_connectivity_negative_control():
    cube = Cell("", Point3(F(0), F(0), F(0)), F(1))
    far = Cell("", Point3(F(3), F(0), F(0)), F(1))
    segs = list(cube.edge_segments()) + list(far.edge_segments())
    assert segment_components(segments_on_lattice(segs, 1)) == 2


def test_connectivity_negative_controls_match_pairwise_oracle():
    # two tetra skeletons interleaved at an offset off the dyadic lattice
    skeleton = build_spatial(TETRA, 1).skeleton
    offset = Point3(F(1, 7), F(1, 11), F(1, 13))
    moved = {Segment(s.a + offset, s.b + offset) for s in skeleton}
    view = segments_on_lattice(skeleton | moved, 2 * 7 * 11 * 13)
    assert segment_components(view) == pairwise_components(list(view)) == 2
    # a cube skeleton whose three edges at the origin stop halfway
    cube = Cell("", Point3(F(0), F(0), F(0)), F(1))
    origin = cube.corner
    segs = [s for s in cube.edge_segments() if s.a != origin]
    segs += [Segment(origin, Point3(*(c / 2 for c in s.b))) for s in cube.edge_segments() if s.a == origin]
    assert len(segs) == 12
    view = segments_on_lattice(segs, 2)
    assert segment_components(view) == pairwise_components(list(view)) == 2


@pytest.mark.parametrize("variant, depth", [(CUBE_THIRD, 1), (TETRA, 2)])
def test_connectivity_matches_pairwise_oracle_on_stages(variant, depth):
    skeleton = build_spatial(variant, depth).skeleton
    assert segment_components(skeleton) == pairwise_components(skeleton) == 1


def test_boundary_incidence_accepts_an_edge_covered_by_two_collinear_pieces():
    stage = build_spatial(CUBE_THIRD, 0)
    whole = Segment(Point3(F(0), F(0), F(0)), Point3(F(1), F(0), F(0)))
    half = Point3(F(1, 2), F(0), F(0))
    split = (stage.skeleton - {whole}) | {Segment(whole.a, half), Segment(half, whole.b)}

    def with_skeleton(skeleton):
        return stage3_on_lattice(stage, 2, skeleton)

    assert whole not in split
    assert boundary_incidence(with_skeleton(split)) == 0
    # with one half gone, both faces through that edge are flagged
    assert boundary_incidence(with_skeleton(split - {Segment(half, whole.b)})) == 2


def test_depth_caps():
    with pytest.raises(CapacityError):
        build_spatial(CUBE_THIRD, 5)
    with pytest.raises(CapacityError):
        build_spatial(TETRA, 7)
    with pytest.raises(ParameterError):
        build_spatial(TETRA, -2)


@pytest.mark.parametrize("variant, depth", [(CUBE_THIRD, 2), (TETRA, 3)])
def test_addresses_are_lexicographic(variant, depth):
    addresses = [cell.address for cell in build_spatial(variant, depth).cells]
    assert addresses == sorted(addresses)
    assert len(set(addresses)) == len(addresses) == (8 if variant is CUBE_THIRD else 4) ** depth


def test_parallel_build_is_identical():
    assert build_spatial(CUBE_THIRD, 2, workers=4) == build_spatial(CUBE_THIRD, 2)
    assert build_spatial(TETRA, 3, workers=4) == build_spatial(TETRA, 3)


def test_face_edges_subset_of_own_cell_edges():
    for variant in (CUBE_THIRD, TETRA):
        stage = build_spatial(variant, 1)
        skeleton = stage.skeleton
        for face in stage.pieces:
            for p, q in face.edges():
                assert Segment(p, q) in skeleton


def _centroid(points):
    points = list(points)
    return [sum(c) / len(points) for c in zip(*points)]


@pytest.mark.parametrize("variant", [CUBE_THIRD, TETRA])
def test_cell_faces_point_outward(variant):
    for cell in build_spatial(variant, 1).cells:
        rings = cell.faces()
        assert len(rings) == (6 if variant is CUBE_THIRD else 4)
        centre = _centroid({v for ring in rings for v in ring})
        for ring in rings:
            outward = [f - c for f, c in zip(_centroid(ring), centre)]
            assert sum(n * d for n, d in zip(area_vector(ring), outward)) > 0
