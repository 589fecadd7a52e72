"""Signed simplex-volume sum over flags, classical self-intersection, and the
four-way agreement report.

The four routes to the same number (after normalizing by the half factor):

  1. area of the divisor polytope,
  2. half the classical toric self-intersection,
  3. the alternating sum of signed simplex volumes over all flags,
  4. half the iterated-tame-boundary intersection number.

A fifth value, the area of the trivialization polytope of a display flag,
checks flag-independence of route 1. All values are exact rationals and the
report's verdict is exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import (NotAmple, TorusDivisor, ampleness_violations, divisor_polytope,
                       generation_violations, is_ample)
from .fan import OrbitDecomposition, standard_decomposition
from .lattice import Vec, cross
from .milnor_k import intersection_number_via_symbols
from .valuation import TFlag, enumerate_tflags, flag_valuation, trivialization_polytope

__all__ = [
    "SimplexTerm",
    "FlagContribution",
    "VolumeReport",
    "flag_contribution",
    "simplex_sum_volume",
    "self_intersection_classical",
    "okounkov_volume_report",
]


@dataclass(frozen=True)
class SimplexTerm:
    """One signed simplex in a flag's contribution.

    ``matrix`` has the two valuation components as rows and the two retained
    local equations as columns, in increasing position with the omitted one
    skipped; ``signed_volume`` is (-1)^omitted * det/2.
    """

    flag: TFlag
    omitted: int
    sections_used: tuple[int, int]
    matrix: tuple[tuple[int, int], tuple[int, int]]
    signed_volume: Fraction


@dataclass(frozen=True)
class FlagContribution:
    """One flag's share of route 3 in ints: the flag valuations ``vectors`` of
    the local equations of the three ``charts`` (owners of the dense orbit,
    the flag curve and the flag point) and ``twice``, the alternating sum of
    their 2x2 determinants. ``subtotal`` and ``terms`` are derived on request."""

    flag: TFlag
    charts: tuple[int, int, int]
    vectors: tuple[Vec, Vec, Vec]
    twice: int

    @property
    def subtotal(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def signed_dets(self) -> tuple[int, int, int]:
        """(-1)^omitted times the determinant of the other two vectors, by omitted."""
        return _signed_dets(*self.vectors)

    @property
    def terms(self) -> tuple[SimplexTerm, ...]:
        return tuple(SimplexTerm(self.flag, omitted, (self.charts[a], self.charts[b]),
                                 tuple(zip(self.vectors[a], self.vectors[b])), Fraction(det, 2))
                     for omitted, ((a, b), det) in enumerate(zip(_KEPT, self.signed_dets)))


@dataclass(frozen=True)
class VolumeReport:
    ample: bool
    area_polytope: Fraction | None
    simplex_sum: Fraction | None
    lhs_trivialization_area: Fraction | None
    self_intersection: int | None
    symbol_intersection: int | None
    display_flag: TFlag | None
    per_flag: tuple[FlagContribution, ...]
    agree: bool
    diagnostics: tuple[str, ...] = ()

    @property
    def half_self_intersection(self) -> Fraction | None:
        return None if self.self_intersection is None else Fraction(self.self_intersection, 2)

    @property
    def symbol_sum_half(self) -> Fraction | None:
        return None if self.symbol_intersection is None else Fraction(self.symbol_intersection, 2)

    @property
    def values(self) -> tuple[Fraction | None, ...]:
        return (self.area_polytope, self.half_self_intersection, self.simplex_sum,
                self.symbol_sum_half, self.lhs_trivialization_area)

    @property
    def contributing_flags(self) -> tuple[TFlag, ...]:
        return tuple(c.flag for c in self.per_flag if c.twice != 0)


# positions of the two vectors a term keeps, by the omitted one
_KEPT = ((1, 2), (0, 2), (0, 1))


def _signed_dets(u: Vec, v: Vec, x: Vec) -> tuple[int, int, int]:
    # omitting u, v, x in turn: +det(v, x), -det(u, x), +det(u, v)
    return (v[0] * x[1] - x[0] * v[1], x[0] * u[1] - u[0] * x[1], u[0] * v[1] - v[0] * u[1])


def flag_contribution(D: TorusDivisor, flag: TFlag, dec: OrbitDecomposition) -> FlagContribution:
    """Route 3 at one flag: the three valuation vectors and twice the
    alternating sum of their signed simplex volumes (see ``FlagContribution``)."""
    if dec.fan != D.fan:
        raise ValueError("decomposition belongs to a different fan")
    if not is_ample(D):
        j, i = ampleness_violations(D)[0]
        raise NotAmple(f"divisor is not ample (first witness: cone {j}, ray {i})")
    w = flag_valuation(D.fan, flag)
    charts = (dec.generic_owner, dec.ray_owner[flag.ray], flag.cone)
    vectors = tuple([w.value(D.cocycle[a]) for a in charts])
    return FlagContribution(flag, charts, vectors, sum(_signed_dets(*vectors)))


def simplex_sum_volume(D: TorusDivisor, dec: OrbitDecomposition) -> Fraction:
    """Total of the per-flag simplex contributions over all 2n flags."""
    return Fraction(sum(flag_contribution(D, f, dec).twice for f in enumerate_tflags(D.fan)), 2)


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

    Non-ample input yields a diagnostics-only report (the equality chain is
    only asserted in the ample cone).
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
            ample=False, area_polytope=None, simplex_sum=None, lhs_trivialization_area=None,
            self_intersection=None, symbol_intersection=None,
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
        simplex_sum=Fraction(twice_simplex, 2),
        lhs_trivialization_area=triv_area,
        self_intersection=dsq,
        symbol_intersection=symbol_sum,
        display_flag=display_flag,
        per_flag=per_flag,
        agree=2 * area == 2 * triv_area == dsq == twice_simplex == symbol_sum,
    )
