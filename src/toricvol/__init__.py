"""Exact volume certification for ample divisors on smooth complete toric surfaces.

Four independent routes to the same rational number: divisor-polytope area,
half the classical self-intersection, a signed simplex-volume sum over all
torus-invariant flags, and half an intersection number computed by iterated
tame-symbol boundaries of transition cocycles. All arithmetic is exact.
"""

from .lattice import (
    Polygon,
    convex_hull_2d,
    cross,
    dot,
)
from .fan import (
    Fan2D,
    FanValidationError,
    FanViolation,
    OrbitDecomposition,
    Rank2Valuation,
    TFlag,
    fan_violations,
    hirzebruch_fan,
    projective_plane_fan,
    standard_decomposition,
    star_subdivide,
)
from .divisors import (
    NotGloballyGenerated,
    TorusDivisor,
    ampleness_violations,
    divisor,
    divisor_polytope,
    generation_violations,
)
from .valuation import (
    flag_valuation,
    semigroup_level_hull,
    trivialization_polytope,
)
from .milnor_k import intersection_number_via_symbols, iterated_boundary
from .volume import (
    ROUTES,
    FlagContribution,
    VolumeReport,
    flag_contribution,
    okounkov_volume_report,
    self_intersection_classical,
)

__version__ = "0.1.0"
