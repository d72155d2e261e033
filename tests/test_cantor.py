"""Corner-squares construction: counts, coordinates, series, connectivity."""


import mpmath
import numpy as np
import pytest

from helpers import F, cell_children, pt, split_cell
from quasifractal.cantor import (
    DEPTH_CAP,
    Cell,
    Params2,
    Stage2,
    build,
    connectivity,
    hausdorff_dimension,
    level0,
    perimeter_series,
    refine,
    singular_cover,
)
from quasifractal.errors import CapacityError, ParameterError
from quasifractal.geometry import BoxCells, Segments, distinct_segments, segment_components, union_length


def test_params_validation():
    Params2(F(1, 2), 0)  # limiting case accepted
    with pytest.raises(ParameterError):
        Params2(F(0), 1)
    with pytest.raises(ParameterError):
        Params2(F(3, 5), 1)
    with pytest.raises(ParameterError):
        Params2(F(1, 3), -1)


def test_level0_is_unit_square():
    stage = level0(F(1, 4))
    assert len(stage.cells) == 1
    assert stage.cells[0].side == 1
    assert len(stage.segments) == 4


def test_refine_quarter_scale_corners():
    stage = refine(level0(F(1, 4)))
    corners = [cell.corner for cell in stage.cells]
    assert corners == [
        (0, 0),
        (F(3, 4), 0),
        (F(3, 4), F(3, 4)),
        (0, F(3, 4)),
    ]
    assert all(cell.side == F(1, 4) for cell in stage.cells)


def test_refine_quadruples_cells():
    stage = build(Params2(F(1, 3), 1))
    assert len(stage.cells) == 4
    assert len(refine(stage).cells) == 16


def test_refine_leaves_input_unchanged():
    stage = build(Params2(F(1, 3), 1))
    before = (list(stage.cells), set(stage.segments))
    refine(stage)
    assert (stage.cells, stage.segments) == before


def test_half_scale_cells_tile_unit_square():
    # a = 1/2 reproduces the unit square: corners fill the dyadic grid
    for depth in (1, 2, 3):
        stage = build(Params2(F(1, 2), depth))
        n = 2**depth
        corners = {cell.corner for cell in stage.cells}
        expected = {(F(i, n), F(j, n)) for i in range(n) for j in range(n)}
        assert corners == expected
        assert sum(cell.side**2 for cell in stage.cells) == 1


def test_build_counts_and_side():
    stage = build(Params2(F(1, 5), 3))
    assert len(stage.cells) == 64
    assert all(cell.side == F(1, 125) for cell in stage.cells)


def test_build_extreme_corners_match_offset_series():
    a = F(1, 3)
    stage = build(Params2(a, 2))
    # NE-most corner offset is the partial sum of (1 - a) a^k
    expected = sum((1 - a) * a**k for k in range(2))
    assert expected == F(8, 9)
    assert stage.cells[0].corner == (0, 0)
    ne = max(stage.cells, key=lambda c: c.corner)
    assert ne.corner == (F(8, 9), F(8, 9))


def test_addresses_are_lexicographic():
    stage = build(Params2(F(1, 5), 2))
    addresses = [cell.address for cell in stage.cells]
    assert addresses == sorted(addresses)
    assert len(set(addresses)) == 16


def test_children_contained_in_parent():
    a = F(2, 5)
    cell = Cell("2", pt(F(3, 5), F(3, 5)), F(2, 5))
    kids = cell_children(cell, a)
    for child in kids:
        assert cell.contains(child)
    assert split_cell(cell, a) == list(kids)


def test_every_stage_child_contained_in_its_parent():
    a = F(1, 3)
    parents = {cell.address: cell for cell in build(Params2(a, 2)).cells}
    for child in build(Params2(a, 3)).cells:
        assert parents[child.address[:-1]].contains(child)


def test_build_is_iterated_refine():
    params = Params2(F(2, 5), 2)
    assert refine(build(params)) == build(Params2(F(2, 5), 3))


def test_segments_accumulate_with_levels():
    a = F(1, 5)
    stage = build(Params2(a, 2))
    # no coincident edges for a < 1/2: every level contributes 4 * 4^k edges
    assert len(stage.segments) == 4 * (1 + 4 + 16)
    base = set(level0(a).segments)
    assert base <= stage.segments


def test_depth_cap():
    with pytest.raises(CapacityError):
        build(Params2(F(1, 3), DEPTH_CAP + 1))
    # a hand-built cell-less stage, so the check is reached without building
    cells = BoxCells(1, [], np.empty((0, 2), np.int64), np.empty(0, np.int64))
    stage = Stage2(Params2(F(1, 3), DEPTH_CAP - 1), DEPTH_CAP - 1, cells, Segments(1, np.empty((0, 2, 2), np.int64)))
    assert refine(stage).level == DEPTH_CAP
    with pytest.raises(CapacityError):
        refine(refine(stage))


def test_refine_of_a_hand_built_stage_past_int64():
    """A hand-built cell with corner (2^61, 0) and side 2^61 at a = 1/2: on
    the refined lattice its far edge reaches 2^63, past int64, so its
    children and segments must stay Python ints to match the Fraction ones."""
    a, s = F(1, 2), 2**61
    cells = BoxCells(1, [""], np.array([[s, 0]], dtype=object), np.array([s], dtype=object))
    edges = [[(s, 0), (s, s)], [(s, 0), (2 * s, 0)], [(s, s), (2 * s, s)], [(2 * s, 0), (2 * s, s)]]
    edges = np.array(edges, dtype=object)  # in segment order
    cell = cells[0]
    assert cell == Cell("", pt(2**61, 0), F(2**61)) and list(Segments(1, edges)) == sorted(cell.edge_segments())
    stage = refine(Stage2(Params2(a, 0), 0, cells, Segments(1, edges)))
    children = cell_children(cell, a)
    assert list(stage.cells) == list(children)
    assert list(stage.segments) == sorted({s for c in (cell, *children) for s in c.edge_segments()})


def test_parallel_build_is_identical():
    params = Params2(F(2, 5), 3)
    assert build(params, workers=4) == build(params)


def test_dimension_reference_points():
    assert abs(hausdorff_dimension(F(1, 2)) - 2.0) < 1e-12
    assert abs(hausdorff_dimension(F(1, 4)) - 1.0) < 1e-12


def test_dimension_against_high_precision_logs():
    mpmath.mp.dps = 50
    expected = mpmath.log(4) / -mpmath.log(mpmath.mpf(1) / 5)
    assert abs(hausdorff_dimension(F(1, 5)) - float(expected)) < 1e-12


def test_dimension_rejects_out_of_range():
    with pytest.raises(ParameterError):
        hausdorff_dimension(F(0))
    with pytest.raises(ParameterError):
        hausdorff_dimension(F(2, 3))


def test_dimension_strictly_increasing():
    grid = [F(i, 200) for i in range(1, 101)]
    values = [hausdorff_dimension(a) for a in grid]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_perimeter_series_fifth():
    series = perimeter_series(F(1, 5), 1)
    assert series.partial_sum == F(36, 5)
    assert series.limit == 20
    assert series.finite


def test_perimeter_series_diverges_above_quarter():
    assert not perimeter_series(F(3, 10), 5).finite
    assert perimeter_series(F(3, 10), 5).limit is None


def test_perimeter_series_quarter_is_infinite():
    # ratio 4a = 1: partial sums grow linearly, no limit
    for n in (0, 3, 7):
        series = perimeter_series(F(1, 4), n)
        assert not series.finite
        assert series.partial_sum == 4 * (n + 1)


def test_perimeter_series_rejects_half():
    with pytest.raises(ParameterError):
        perimeter_series(F(1, 2), 3)


def test_perimeter_remainder_formula():
    a = F(1, 5)
    series_limit = perimeter_series(a, 0).limit
    for n in range(11):
        partial = perimeter_series(a, n).partial_sum
        assert series_limit - partial == 4 * (4 * a) ** (n + 1) / (1 - 4 * a)


def test_perimeter_partial_sums_monotone():
    for a in (F(1, 5), F(1, 4), F(2, 5)):
        partials = [perimeter_series(a, n).partial_sum for n in range(8)]
        assert all(lo < hi for lo, hi in zip(partials, partials[1:]))


def test_union_length_strictly_below_perimeter_sum():
    for a in (F(1, 5), F(1, 3), F(2, 5)):
        for depth in (1, 2, 3):
            stage = build(Params2(a, depth))
            assert union_length(stage.segments) < perimeter_series(a, depth).partial_sum


def test_singular_cover_depth0():
    stage = level0(F(1, 3))
    cover = singular_cover(stage)
    assert len(cover) == 1 and cover[0].side == 1


def test_singular_cover_pairwise_disjoint():
    stage = build(Params2(F(1, 5), 2))
    cells = singular_cover(stage)
    assert len(cells) == 16
    assert all(cell.side == F(1, 25) for cell in cells)
    for i, c in enumerate(cells):
        for d in cells[i + 1 :]:
            x_gap = max(c.corner.x, d.corner.x) > min(c.corner.x + c.side, d.corner.x + d.side)
            y_gap = max(c.corner.y, d.corner.y) > min(c.corner.y + c.side, d.corner.y + d.side)
            assert x_gap or y_gap


def test_singular_cover_tiles_at_half():
    stage = build(Params2(F(1, 2), 2))
    cells = singular_cover(stage)
    assert len(cells) == 16
    # closures overlap only on edges: interiors are pairwise disjoint
    for i, c in enumerate(cells):
        for d in cells[i + 1 :]:
            x_open = max(c.corner.x, d.corner.x) < min(c.corner.x + c.side, d.corner.x + d.side)
            y_open = max(c.corner.y, d.corner.y) < min(c.corner.y + c.side, d.corner.y + d.side)
            assert not (x_open and y_open)
    assert sum(c.side**2 for c in cells) == 1


def test_connectivity_one_component():
    for a in (F(1, 5), F(1, 4), F(1, 3), F(2, 5)):
        for depth in range(4):
            assert connectivity(build(Params2(a, depth))) == 1


def test_connectivity_negative_control():
    # the unit squares at (0, 0) and (3, 3), ring by ring, on D = 1
    rings = np.array([[(0, 0), (1, 0), (1, 1), (0, 1)], [(3, 3), (4, 3), (4, 4), (3, 4)]])
    segs = Segments(1, distinct_segments(np.stack((rings, np.roll(rings, -1, axis=1)), axis=2).reshape(-1, 2, 2)))
    assert segment_components(segs) == 2
