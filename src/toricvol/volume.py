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

from .divisors import (
    NotAmple,
    TorusDivisor,
    ampleness_violations,
    divisor_polytope,
    generation_violations,
    is_ample,
)
from .fan import OrbitDecomposition, standard_decomposition
from .lattice import cross
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
    flag: TFlag
    subtotal: Fraction
    terms: tuple[SimplexTerm, ...]


@dataclass(frozen=True)
class VolumeReport:
    ample: bool
    area_polytope: Fraction | None
    half_self_intersection: Fraction | None
    simplex_sum: Fraction | None
    symbol_sum_half: Fraction | None
    lhs_trivialization_area: Fraction | None
    self_intersection: int | None
    symbol_intersection: int | None
    display_flag: TFlag | None
    per_flag: tuple[FlagContribution, ...]
    agree: bool
    diagnostics: tuple[str, ...] = ()

    @property
    def values(self) -> tuple[Fraction | None, ...]:
        return (self.area_polytope, self.half_self_intersection, self.simplex_sum,
                self.symbol_sum_half, self.lhs_trivialization_area)

    @property
    def contributing_flags(self) -> tuple[TFlag, ...]:
        return tuple(c.flag for c in self.per_flag if c.subtotal != 0)


def flag_contribution(D: TorusDivisor, flag: TFlag, dec: OrbitDecomposition) -> FlagContribution:
    """Alternating sum of three signed simplex volumes for one flag.

    The three local equations are the ones of the charts owning the dense
    orbit, the flag curve's orbit and the flag point, in that flag order.
    """
    if dec.fan != D.fan:
        raise ValueError("decomposition belongs to a different fan")
    if not is_ample(D):
        j, i = ampleness_violations(D)[0]
        raise NotAmple(f"divisor is not ample (first witness: cone {j}, ray {i})")
    w = flag_valuation(D.fan, flag)
    alphas = (dec.generic_owner, dec.ray_owner[flag.ray], flag.cone)
    vectors = [w.value(D.cocycle[a]) for a in alphas]
    terms = []
    twice = 0
    for omitted in range(3):
        kept = [m for m in range(3) if m != omitted]
        c0, c1 = vectors[kept[0]], vectors[kept[1]]
        matrix = ((c0[0], c1[0]), (c0[1], c1[1]))
        det = (-1) ** omitted * (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0])
        terms.append(SimplexTerm(
            flag=flag,
            omitted=omitted,
            sections_used=(alphas[kept[0]], alphas[kept[1]]),
            matrix=matrix,
            signed_volume=Fraction(det, 2),
        ))
        twice += det
    return FlagContribution(flag, Fraction(twice, 2), tuple(terms))


def simplex_sum_volume(D: TorusDivisor, dec: OrbitDecomposition) -> Fraction:
    """Total of the per-flag simplex contributions over all 2n flags."""
    return sum((flag_contribution(D, f, dec).subtotal for f in enumerate_tflags(D.fan)),
               Fraction(0))


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
            ample=False, area_polytope=None, half_self_intersection=None,
            simplex_sum=None, symbol_sum_half=None, lhs_trivialization_area=None,
            self_intersection=None, symbol_intersection=None,
            display_flag=display_flag, per_flag=(), agree=False,
            diagnostics=tuple(diags),
        )
    area = divisor_polytope(D).area
    dsq = self_intersection_classical(D)
    per_flag = tuple(flag_contribution(D, f, dec) for f in enumerate_tflags(D.fan))
    simplex_sum = sum((c.subtotal for c in per_flag), Fraction(0))
    symbol_sum = intersection_number_via_symbols(D, dec)
    triv_area = trivialization_polytope(D, display_flag).area
    values = (area, Fraction(dsq, 2), simplex_sum, Fraction(symbol_sum, 2), triv_area)
    return VolumeReport(
        ample=True,
        area_polytope=area,
        half_self_intersection=Fraction(dsq, 2),
        simplex_sum=simplex_sum,
        symbol_sum_half=Fraction(symbol_sum, 2),
        lhs_trivialization_area=triv_area,
        self_intersection=dsq,
        symbol_intersection=symbol_sum,
        display_flag=display_flag,
        per_flag=per_flag,
        agree=all(v == values[0] for v in values),
    )
