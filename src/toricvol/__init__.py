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
    shoelace,
)
from .fan import (
    Fan2D,
    FanValidationError,
    FanViolation,
    OrbitDecomposition,
    chart_dual_basis,
    fan_violations,
    hirzebruch_fan,
    projective_plane_fan,
    standard_decomposition,
    star_subdivide,
    validate_fan,
)
from .divisors import (
    NotAmple,
    NotGloballyGenerated,
    TorusDivisor,
    ampleness_violations,
    cech_cocycle,
    divisor,
    divisor_polytope,
    generation_violations,
    is_ample,
    is_globally_generated,
    section_lattice_points,
)
from .valuation import (
    Rank2Valuation,
    TFlag,
    check_flag,
    enumerate_tflags,
    flag_valuation,
    graded_semigroup,
    semigroup_level_hull,
    trivialization_polytope,
)
from .milnor_k import (
    MonomialFn,
    ResidueElement,
    SymbolK2,
    cocycle_expansion,
    det_formula_check,
    intersection_number_via_symbols,
    iterated_boundary,
    monomial,
    specialization,
    symbol,
    tame_boundary,
    valuation_via_symbols,
)
from .volume import (
    FlagContribution,
    VolumeReport,
    flag_contribution,
    okounkov_volume_report,
    self_intersection_classical,
    simplex_sum_volume,
)

__version__ = "0.1.0"
