"""Winding numbers and per-hole index vectors for closed rational loops.

A loop in the plane minus a set of marked points induces a circle-valued
map around each point; its degree is the exact winding number that
`geometry.winding_numbers` counts by signed crossings. The index vector of a loop against a
hole set (one interior representative per bounded complement piece)
collects those winding numbers in a fixed order. At a fixed construction
stage, equality of index vectors is equality of all the circle-map
indices the stage exposes; for planar open complements that coincides
with homotopy equivalence of the induced circle maps. How the
finite-stage vectors relate to the full first-cohomology data of the
limit set is a separate question that this module does not attempt.

Orientation reversal negates every index entry, which is the loop-level
shadow of the operator-level fact verified in `toeplitz`: conjugating
the orientation of the circle flips the sign of the Fredholm index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import MalformedLoopError, ParameterError
from .geometry import Loop, Point2, area_vector, common_lattice, lattice_windings, twice_areas
from .geometry import winding_number, winding_numbers
from .planar import Pieces

IndexVector = tuple[int, ...]


def centroid(loop: Loop) -> Point2:
    """Vertex average: the exact centroid for triangles and parallelograms."""
    n = len(loop.vertices)
    sx = sum((v.x for v in loop.vertices), Fraction(0))
    sy = sum((v.y for v in loop.vertices), Fraction(0))
    return Point2(sx / n, sy / n)


@dataclass(frozen=True)
class HoleSet:
    """Ordered interior representatives of bounded complement pieces."""

    representatives: tuple[Point2, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.representatives) != len(self.labels):
            raise ParameterError("one label per representative required")

    def __len__(self) -> int:
        return len(self.representatives)

    @classmethod
    def from_pieces(cls, pieces: Pieces) -> "HoleSet":
        """Build hole representatives from removed pieces: their centroids.

        `pieces` is a `Pieces` view, read as its lattice arrays; anything
        else is a ParameterError. The checks of `point_in_polygon` run on
        the integer lattice, by vertex count k: vertices scaled by k * D
        put each centroid on the lattice, and one walk over the k ring
        edges tests every ring of that count. For
        the first bad piece in order, a zero-area ring raises
        MalformedLoopError, and a centroid on the ring or outside it
        ParameterError.
        """
        (pieces,) = common_lattice((Pieces, pieces))
        lcm, labels = pieces.lcm, pieces.labels
        reps: list = [None] * len(labels)
        first_bad = []  # (position, zero area) of each vertex count's first bad piece
        for k, (members, xs, ys) in pieces.groups.items():
            cx, cy = xs.sum(axis=0), ys.sum(axis=0)  # the centroids on the k * D lattice
            winding, on_ring = lattice_windings(k * xs, k * ys, cx, cy)
            flat = twice_areas(xs, ys) == 0
            failed = flat | on_ring | (winding == 0)
            if failed.any():
                first = int(failed.argmax())
                first_bad.append((members[first], bool(flat[first])))
            d = k * lcm
            for i, sx, sy in zip(members, cx.tolist(), cy.tolist()):
                reps[i] = Point2(Fraction(sx, d), Fraction(sy, d))
        if first_bad:
            position, flat = min(first_bad)
            if flat:
                raise MalformedLoopError("degenerate loop has no interior")
            raise ParameterError(f"centroid of piece {labels[position]} is not interior")
        return cls(tuple(reps), tuple(labels))


def index_vector(loop: Loop, holes: HoleSet) -> IndexVector:
    """Winding number of the loop about every hole representative, in order."""
    return winding_numbers(loop, holes.representatives)


def reverse_orientation(loop: Loop) -> Loop:
    """The same loop traversed backwards; negates signed area and all indices."""
    return Loop(tuple(reversed(loop.vertices)))


def same_index_class(l1: Loop, l2: Loop, holes: HoleSet) -> bool:
    """True iff the loops have identical index vectors over the hole set.

    This is equality of all circle-map indices at the given finite stage.
    """
    return index_vector(l1, holes) == index_vector(l2, holes)


def face_index(face) -> int:
    """Loop index of a planar 3D face about its own interior point.

    The face is projected to 2D along the axis most aligned with its
    normal and wound about the centroid of the projection (dropping a
    coordinate commutes with the vertex average); outward-oriented
    convex faces give +1 or -1 depending on viewing side.
    """
    loop2 = _project(face.boundary)
    return winding_number(loop2, centroid(loop2))


def _normal_axis(points: Sequence) -> int:
    comps = [abs(c) for c in area_vector(points)]
    return max(range(3), key=lambda i: comps[i])


def _project(points: Sequence) -> Loop:
    drop = _normal_axis(points)
    return Loop(tuple(Point2(*[c for i, c in enumerate(p) if i != drop]) for p in points))
