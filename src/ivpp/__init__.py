"""Invariant varieties of periodic points of rational maps.

Closed-form period conditions, branch parametrizations, Mobius reduction
with boundary formulas, component decompositions with cycle permutations,
and tiling rasters, for the built-in 2d and 3d maps and for user maps
written in a small text DSL.
"""

from .core import (
    INF,
    ExtendedComplex,
    Indeterminate,
    InfiniteCoordinate,
    OrbitTrace,
    Point,
    RationalMap,
)
from .decompose import (
    ComponentDecomposition,
    NoClosure,
    NotACycle,
    boundaries_analytic,
    boundaries_empirical,
    decompose,
)
from .denoms import DenominatorZeroSet, denominator_zero_curves
from .dsl import ParseDiagnostic, SemanticError, format_map, parse_map
from .ivpp2d import (
    DegenerateBranch,
    GammaPolynomial,
    IvppBranch,
    branches,
    gamma_poly,
)
from .lv3d import (
    DegenerateParameter,
    UnsupportedPeriod,
    lv_decompose_period2,
    lv_gamma,
    lv_period2_param,
    lv_recurrence,
)
from .maps import f2d, f2d_reduced, f3d, get_map, lv_recurrence_map
from .mobius import (
    Mobius,
    ZeroInvariant,
    boundary_c,
    boundary_d,
    period2_exclusion,
    power_matrix,
)
from .raster import TilingRaster, lv_raster, raster

__version__ = "0.1.0"
