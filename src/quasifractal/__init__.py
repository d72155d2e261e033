"""Exact-arithmetic quasi-fractal constructions and index verification.

Planar corner-squares Cantor sets with retained boundaries, Sierpinski
carpets and gaskets with removed-piece bookkeeping, two 3D wireframe
variants, winding/index vectors for loops, and a desk-scale check of the
Toeplitz index-winding correspondence on the unit circle.
"""

from .cantor import (
    Params2,
    PerimeterSeries,
    Stage2,
    build,
    connectivity,
    hausdorff_dimension,
    perimeter_series,
    refine,
    singular_cover,
)
from .errors import (
    CapacityError,
    IndeterminateWindingError,
    MalformedLoopError,
    NotFredholmError,
    NumericalError,
    ParameterError,
    QuasifractalError,
    SamplingFailureError,
    UnsupportedGeometryError,
)
from .geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Cell,
    Loop,
    Point2,
    Point3,
    Segment,
    Simplex,
    point_in_polygon,
    rational,
    segment_components,
    signed_area,
    union_length,
    winding_number,
)
from .planar import (
    CARPET,
    GASKET,
    AreaAccount,
    Piece,
    PieceSet,
    area_accounting,
    boundary_of_rest,
    build_planar,
    similarity_dimension,
)
from .spatial import (
    CUBE_WIREFRAME,
    TETRA_GASKET,
    Face3,
    SeriesMeasures,
    SpatialVariant,
    Stage3,
    boundary_incidence,
    build_spatial,
    connectivity3,
    series_measures,
)
from .toeplitz import (
    IndexReport,
    Symbol,
    ToeplitzTruncation,
    fredholm_index,
    orientation_flip,
    truncate,
    winding_by_argument,
    winding_by_roots,
)
from .topology import (
    HoleSet,
    IndexVector,
    face_index,
    index_vector,
    reverse_orientation,
    same_index_class,
)

__version__ = "0.1.0"
