"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] name: PASS/FAIL` line (run pytest -s
to see them live); stated runtime budgets are asserted.
"""

import hashlib
import random
import time
from contextlib import contextmanager

from helpers import F, convex_loop, crossing_oracle, face3_oracle, query_loop, random_point_off_loop, square_loop
from helpers import stage3_on_lattice, winding_oracle
from quasifractal.cantor import Params2, build, connectivity, hausdorff_dimension, perimeter_series
from quasifractal.cli import EXIT_OK, main
from quasifractal.geometry import Loop, Point2, Point3
from quasifractal.planar import CARPET, GASKET, area_accounting, build_planar
from quasifractal.spatial import (
    CUBE_WIREFRAME,
    SpatialVariant,
    TETRA_GASKET,
    boundary_incidence,
    build_spatial,
    connectivity3,
)
from quasifractal.toeplitz import (
    Symbol,
    fredholm_index,
    random_symbol,
    winding_by_argument,
    winding_by_roots,
)
from quasifractal.topology import HoleSet, index_vector, reverse_orientation, winding_number


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num}] {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_dimension_formula():
    with criterion(1, "dimension formula", budget=1.0):
        assert abs(hausdorff_dimension(F(1, 2)) - 2.0) < 1e-12
        assert abs(hausdorff_dimension(F(1, 4)) - 1.0) < 1e-12
        grid = [F(i, 200) for i in range(1, 101)]
        values = [hausdorff_dimension(a) for a in grid]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_criterion_2_length_threshold():
    with criterion(2, "boundary length threshold a < 1/4", budget=1.0):
        for a in (F(1, 5), F(1, 4), F(3, 10), F(1, 3), F(2, 5)):
            assert perimeter_series(a, 6).finite == (a < F(1, 4))
        a = F(1, 5)
        limit = perimeter_series(a, 0).limit
        assert limit == 20
        for n in range(11):
            partial = perimeter_series(a, n).partial_sum
            assert limit - partial == 4 * (4 * a) ** (n + 1) / (1 - 4 * a)


def test_criterion_3_construction_counts():
    with criterion(3, "construction counts", budget=10.0):
        for depth in range(6):
            assert len(build(Params2(F(1, 3), depth)).cells) == 4**depth
        cube = SpatialVariant(CUBE_WIREFRAME, F(1, 3))
        tetra = SpatialVariant(TETRA_GASKET)
        for depth in range(4):
            assert len(build_spatial(cube, depth).cells) == 8**depth
            assert len(build_spatial(tetra, depth).cells) == 4**depth
        for kind, base in ((CARPET, 8), (GASKET, 3)):
            counts: dict[int, int] = {}
            for piece in build_planar(kind, 5).removed:
                counts[piece.birth_level] = counts.get(piece.birth_level, 0) + 1
            assert counts == {k: base ** (k - 1) for k in range(1, 6)}


def test_criterion_4_connectivity():
    with criterion(4, "connectivity of retained skeletons", budget=30.0):
        for a in (F(1, 5), F(1, 3), F(2, 5)):
            for depth in range(6):
                assert connectivity(build(Params2(a, depth))) == 1
        for a in (F(1, 5), F(1, 3), F(2, 5)):
            variant = SpatialVariant(CUBE_WIREFRAME, a)
            for depth in range(4):
                assert connectivity3(build_spatial(variant, depth)) == 1
        tetra = SpatialVariant(TETRA_GASKET)
        for depth in range(4):
            assert connectivity3(build_spatial(tetra, depth)) == 1


def test_criterion_5_quasifractal_completeness():
    with criterion(5, "exact area partition (quasi-fractal completeness)", budget=30.0):
        for depth in range(7):
            account = area_accounting(build_planar(CARPET, depth))
            assert account.kept_area + account.removed_area == 1
            assert account.kept_area == F(8, 9) ** depth
        for depth in range(11):
            account = area_accounting(build_planar(GASKET, depth))
            assert account.kept_area + account.removed_area == F(1, 2)
            assert account.kept_area == F(3, 4) ** depth * F(1, 2)


def test_criterion_6_loop_piece_incidence():
    with criterion(6, "piece boundaries are loops in the skeleton", budget=10.0):
        cube = SpatialVariant(CUBE_WIREFRAME, F(1, 3))
        tetra = SpatialVariant(TETRA_GASKET)
        for variant in (cube, tetra):
            for depth in range(4):
                assert boundary_incidence(build_spatial(variant, depth)) == 0
        # negative control: a face displaced off the lattice must be caught
        stage = build_spatial(cube, 1)
        shift = Point3(F(1, 7), F(1, 7), F(1, 7))
        displaced = face3_oracle(tuple(v + shift for v in stage.pieces[0].boundary), 1)
        broken = stage3_on_lattice(stage, 21, faces=[displaced])  # D = 3 * 7
        assert broken.pieces[-1] == displaced
        assert boundary_incidence(broken) == 4


def test_criterion_7_winding_index_suite():
    with criterion(7, "winding/index property suite", budget=10.0):
        rng = random.Random(20260809)
        # 1000 seeded cases against the angle-summation oracle
        for _ in range(1000):
            loop = convex_loop(rng)
            style = rng.random()
            if style < 0.25:
                loop = reverse_orientation(loop)
            elif style < 0.40:
                loop = Loop(loop.vertices + loop.vertices)  # traversed twice
            p = random_point_off_loop(rng, loop)
            assert winding_number(loop, p) == winding_oracle(loop, p)
        # reversal antisymmetry, concatenation additivity, translation invariance
        for _ in range(200):
            l1 = convex_loop(rng)
            p = random_point_off_loop(rng, l1)
            assert winding_number(reverse_orientation(l1), p) == -winding_number(l1, p)
            l2 = convex_loop(rng)
            shift = l1.vertices[0] - l2.vertices[0]
            l2 = Loop(tuple(v + shift for v in l2.vertices))
            combined = Loop(l1.vertices + l2.vertices)
            q = random_point_off_loop(rng, combined)
            assert winding_number(combined, q) == winding_number(l1, q) + winding_number(l2, q)
            v = Point2(F(rng.randint(-20, 20), 3), F(rng.randint(-20, 20), 7))
            moved = Loop(tuple(w + v for w in l1.vertices))
            assert winding_number(moved, p + v) == winding_number(l1, p)
        # index vectors negate under orientation reversal
        holes = HoleSet.from_pieces(build_planar(CARPET, 2).removed)
        for loop in (
            square_loop(0, 0, 1),
            square_loop(F(1, 3), F(1, 3), F(1, 3)),
            square_loop(F(1, 9), F(1, 9), F(1, 9)),
        ):
            forward = index_vector(loop, holes)
            backward = index_vector(reverse_orientation(loop), holes)
            assert backward == tuple(-e for e in forward)
        # batched index vectors on the gasket-7 hole set (1 093 holes) against the Fraction crossing oracle
        holes = HoleSet.from_pieces(build_planar(GASKET, 7).removed)
        assert len(holes) == 1093
        for rectangle in (True, False) * 4:
            loop = query_loop(rng, rectangle, holes.representatives)
            expected = tuple(crossing_oracle(loop, rep) for rep in holes.representatives)
            assert index_vector(loop, holes) == expected
            assert index_vector(reverse_orientation(loop), holes) == tuple(-e for e in expected)


def test_criterion_8_toeplitz_index():
    with criterion(8, "Toeplitz index = -winding", budget=60.0):
        for k in range(-5, 6):
            assert fredholm_index(Symbol({k: 1})).fredholm_index == -k
        rng = random.Random(414243)
        for _ in range(200):
            s = random_symbol(rng)
            assert winding_by_argument(s) == winding_by_roots(s)
        for _ in range(100):
            s1, s2 = random_symbol(rng), random_symbol(rng)
            assert (
                fredholm_index(s1 * s2).fredholm_index
                == fredholm_index(s1).fredholm_index + fredholm_index(s2).fredholm_index
            )


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-determinism across thread counts", budget=10.0):
        configurations = [
            ["gen2d", "--a", "1/5", "--depth", "3"],
            ["gen2d", "--a", "1/3", "--depth", "4"],
            ["gen2d", "--a", "2/5", "--depth", "2"],
            ["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "2"],
            ["gen3d", "--variant", "cube", "--a", "1/5", "--depth", "1"],
            ["gen3d", "--variant", "tetra", "--depth", "3"],
            ["carpet", "--depth", "1"],
            ["carpet", "--depth", "2"],
            ["carpet", "--depth", "3"],
        ]
        for i, base in enumerate(configurations):
            digests = set()
            for threads in ("1", "8"):
                out = tmp_path / f"run{i}_t{threads}.json"
                assert main(base + ["--threads", threads, "--out", str(out)]) == EXIT_OK
                digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
            assert len(digests) == 1, f"{base} differs across thread counts"
