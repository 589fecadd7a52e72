"""Signed simplex-volume sum over flags, classical self-intersection, and the
four-way agreement report.

The four routes to the same number (after normalizing by the half factor):

  1. area of the divisor polytope,
  2. half the classical toric self-intersection,
  3. the alternating sum of signed simplex volumes over all flags,
  4. half the iterated-tame-boundary intersection number.

A fifth value, the area of the trivialization polytope of a display flag,
checks flag-independence of route 1. Routes 2-4 are ints, each twice the
volume, and the two areas are exact rationals. The report's verdict is exact
equality at twice the volume; ``values`` is the one rational view of all five.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import TorusDivisor, ampleness_violations, divisor_polytope, generation_violations
from .fan import OrbitDecomposition, standard_decomposition
from .lattice import Vec, cross
from .milnor_k import intersection_number_via_symbols
from .valuation import TFlag, enumerate_tflags, flag_valuation, trivialization_polytope

__all__ = [
    "FlagContribution",
    "VolumeReport",
    "flag_contribution",
    "self_intersection_classical",
    "okounkov_volume_report",
]


@dataclass(frozen=True)
class FlagContribution:
    """One flag's share of route 3 in ints: the flag valuations ``vectors`` of
    the local equations of the three ``charts`` (owners of the dense orbit,
    the flag curve and the flag point), ``signed_dets``, where entry k is
    (-1)^k times the determinant of the two vectors other than the k-th, and
    ``twice``, their sum."""

    flag: TFlag
    charts: tuple[int, int, int]
    vectors: tuple[Vec, Vec, Vec]
    signed_dets: tuple[int, int, int]
    twice: int


@dataclass(frozen=True)
class VolumeReport:
    ample: bool
    area_polytope: Fraction | None
    lhs_trivialization_area: Fraction | None
    self_intersection: int | None
    simplex_twice: int | None
    symbol_intersection: int | None
    display_flag: TFlag | None
    per_flag: tuple[FlagContribution, ...]
    agree: bool
    diagnostics: tuple[str, ...] = ()

    @property
    def values(self) -> tuple[Fraction | None, ...]:
        """The five volumes: the two areas and half of each int route."""
        halves = [None if x is None else Fraction(x, 2)
                  for x in (self.self_intersection, self.simplex_twice, self.symbol_intersection)]
        return (self.area_polytope, *halves, self.lhs_trivialization_area)

    @property
    def contributing_flags(self) -> tuple[TFlag, ...]:
        return tuple(c.flag for c in self.per_flag if c.twice != 0)


def flag_contribution(D: TorusDivisor, flag: TFlag, dec: OrbitDecomposition) -> FlagContribution:
    """Route 3 at one flag: the three valuation vectors and twice the
    alternating sum of their signed simplex volumes (see ``FlagContribution``).
    Defined for every divisor: summed over all flags it is D.D."""
    if len(dec.ray_owner) != D.fan.n_rays:
        raise ValueError(f"decomposition of {len(dec.ray_owner)} rays for a fan of {D.fan.n_rays}")
    w = flag_valuation(D.fan, flag)
    charts = (dec.generic_owner, dec.ray_owner[flag.ray], flag.cone)
    u, v, x = vectors = tuple([w.value(D.cocycle[a]) for a in charts])
    # omitting u, v, x in turn: +det(v, x), -det(u, x), +det(u, v)
    dets = (v[0] * x[1] - x[0] * v[1], x[0] * u[1] - u[0] * x[1], u[0] * v[1] - v[0] * u[1])
    return FlagContribution(flag, charts, vectors, dets, sum(dets))


def self_intersection_classical(D: TorusDivisor) -> int:
    """D.D from the ray intersection matrix of a smooth complete surface fan.

    Adjacent ray divisors meet transversally in one point; a ray's
    self-intersection is -a where ray_{i-1} + ray_{i+1} = a * ray_i; all
    other products vanish.
    """
    fan = D.fan
    n = fan.n_rays
    d = D.coeffs
    total = 0
    for i in range(n):
        a_i = cross(fan.rays[(i - 1) % n], fan.rays[(i + 1) % n])
        total += -a_i * d[i] * d[i] + 2 * d[i] * d[(i + 1) % n]
    return total


def okounkov_volume_report(
    D: TorusDivisor,
    dec: OrbitDecomposition | None = None,
    display_flag: TFlag = TFlag(0, 0),
) -> VolumeReport:
    """Compute all routes and compare them exactly.

    The one positivity gate: non-ample input yields a diagnostics-only report
    (the equality chain is only asserted in the ample cone).
    """
    if dec is None:
        dec = standard_decomposition(D.fan)
    bad = ampleness_violations(D)
    if bad:
        diags = [f"not ample: cone {j}'s local equation is not strictly inside ray {i}'s half-plane"
                 for j, i in bad]
        for j, i in generation_violations(D):
            diags.append(f"not globally generated: cone {j} violates ray {i}")
        return VolumeReport(
            ample=False, area_polytope=None, lhs_trivialization_area=None,
            self_intersection=None, simplex_twice=None, symbol_intersection=None,
            display_flag=display_flag, per_flag=(), agree=False,
            diagnostics=tuple(diags),
        )
    area = divisor_polytope(D).area
    dsq = self_intersection_classical(D)
    per_flag = tuple(flag_contribution(D, f, dec) for f in enumerate_tflags(D.fan))
    twice_simplex = sum(c.twice for c in per_flag)
    symbol_sum = intersection_number_via_symbols(D, dec)
    triv_area = trivialization_polytope(D, display_flag).area
    return VolumeReport(
        ample=True,
        area_polytope=area,
        lhs_trivialization_area=triv_area,
        self_intersection=dsq,
        simplex_twice=twice_simplex,
        symbol_intersection=symbol_sum,
        display_flag=display_flag,
        per_flag=per_flag,
        agree=2 * area == 2 * triv_area == dsq == twice_simplex == symbol_sum,
    )
