"""Signed simplex-volume sum over flags, classical self-intersection, and the
agreement report of the routes to one volume, in ``ROUTES`` order:

  1. area of the divisor polytope,
  2. half the classical toric self-intersection,
  3. the alternating sum of signed simplex volumes over all flags,
  4. half the iterated-tame-boundary intersection number,
  5. area of the trivialization polytope of a display flag.

A report holds each route's value as an int, twice the volume (twice a lattice polygon's
area is an int), and its verdict is exact equality of those ints. Each route reads only
the divisor, the decomposition and the display flag, never another route's value.
Route 1 reads no local equation, so the verdict also asks that those of routes 3-5 be the
vertices of the one cached walk ``TorusDivisor._section_polygon`` that route 1 hulls, cone by
cone. ``FlagContribution`` and ``VolumeReport`` are ``NamedTuple`` records: each equals and hashes
like the tuple of its fields, its fields cannot be set, and a changed copy is made with ``_replace``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .divisors import TorusDivisor, ampleness_violations, divisor_polytope
from .divisors import generation_violations
from .fan import OrbitDecomposition, check_decomposition, standard_decomposition
from .lattice import Vec
from .milnor_k import intersection_number_via_symbols
from .valuation import TFlag, flag_valuation, trivialization_polytope

# each route's name, also its key in the JSON report's "values"
ROUTES = ("area_polytope", "half_self_intersection", "simplex_sum",
          "symbol_sum_half", "trivialization_area")


class FlagContribution(NamedTuple):
    """One flag's share of route 3 in ints: the flag valuations ``vectors`` of
    the local equations of the three ``charts`` (owners of the dense orbit,
    the flag curve and the flag point), ``signed_dets``, where entry k is
    (-1)^k times the determinant of the two vectors other than the k-th, and
    ``twice``, their sum. A record is the 5-tuple of its fields."""

    flag: TFlag
    charts: tuple[int, int, int]
    vectors: tuple[Vec, Vec, Vec]
    signed_dets: tuple[int, int, int]
    twice: int


class VolumeReport(NamedTuple):
    """``twice`` holds each route's value as twice the volume, in ``ROUTES``
    order; it is empty for non-ample input, which has only ``diagnostics``. An ample
    report has a diagnostic only where its local equations are not P_D's vertices."""

    twice: tuple[int, ...]
    display_flag: TFlag
    per_flag: tuple[FlagContribution, ...] = ()
    diagnostics: tuple[str, ...] = ()

    @property
    def ample(self) -> bool:
        return bool(self.twice)

    @property
    def agree(self) -> bool:
        """The verdict: ample, no diagnostic, and every route gives the same volume."""
        return self.ample and not self.diagnostics and len(set(self.twice)) == 1

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The volumes, in ``ROUTES`` order."""
        return tuple(Fraction(x, 2) for x in self.twice)

    @property
    def contributing_flags(self) -> tuple[TFlag, ...]:
        return tuple(flag for flag, _, _, _, twice in self.per_flag if twice != 0)


def flag_contribution(D: TorusDivisor, flag: TFlag, dec: OrbitDecomposition) -> FlagContribution:
    """Route 3 at one flag: the three valuation vectors and twice the
    alternating sum of their signed simplex volumes (see ``FlagContribution``).
    Defined for every divisor: summed over all flags it is D.D. A pair that is not a
    ``TFlag`` is read through ``TFlag``, so the record holds a ``TFlag``."""
    check_decomposition(D.fan, dec)
    if type(flag) is not TFlag:  # as flag_valuation reads it, with no call for a table key
        flag = TFlag(*flag)
    (r1, r2), (s1, s2), _, _ = flag_valuation(D.fan, flag)
    ray, cone = flag
    h = D.cocycle
    a, b, c = charts = (dec.generic_owner, dec.ray_owner[ray], cone)
    (e1, e2), (f1, f2), (g1, g2) = h[a], h[b], h[c]
    # each local equation's pairings with the flag's two rays
    u0, u1 = e1 * r1 + e2 * r2, e1 * s1 + e2 * s2
    v0, v1 = f1 * r1 + f2 * r2, f1 * s1 + f2 * s2
    x0, x1 = g1 * r1 + g2 * r2, g1 * s1 + g2 * s2
    # omitting u, v, x in turn: +det(v, x), -det(u, x), +det(u, v)
    d0, d1, d2 = v0 * x1 - x0 * v1, x0 * u1 - u0 * x1, u0 * v1 - v0 * u1
    return tuple.__new__(FlagContribution, (flag, charts, ((u0, u1), (v0, v1), (x0, x1)),
                                            (d0, d1, d2), d0 + d1 + d2))


def self_intersection_classical(D: TorusDivisor) -> int:
    """D.D = sum_i d_i * (D.D_i). ``TorusDivisor.curve_degrees`` is the one
    place that writes the ray intersection matrix; the ampleness gate reads
    it too, so a fault there moves this route alone and shows as a disagreement."""
    return sum(map(mul, D.coeffs, D.curve_degrees))


def okounkov_volume_report(
    D: TorusDivisor,
    dec: OrbitDecomposition | None = None,
    display_flag: TFlag = TFlag(0, 0),
) -> VolumeReport:
    """Compute every route and compare them exactly.

    The one positivity gate: non-ample input yields a diagnostics-only report
    (the equality chain is only asserted in the ample cone). The decomposition
    and the display flag are checked first, so a bad one raises ValueError
    whether D is ample or not.
    """
    if dec is None:
        dec = standard_decomposition(D.fan)
    check_decomposition(D.fan, dec)
    flag_valuation(D.fan, display_flag)
    display_flag = TFlag(*display_flag)  # a (ray, cone) tuple the lookup accepted
    bad = ampleness_violations(D)
    if bad:
        diags = [f"not ample: cone {j}'s local equation is not strictly inside ray {i}'s half-plane"
                 for j, i in bad]
        for j, i in generation_violations(D):
            diags.append(f"not globally generated: cone {j} violates ray {i}")
        return VolumeReport((), display_flag, diagnostics=tuple(diags))
    per_flag = tuple(flag_contribution(D, f, dec) for f in D.fan.charts)
    twice = (
        # both hulls have int vertices, so twice their area is an int
        int(2 * divisor_polytope(D).area),
        self_intersection_classical(D),
        sum(twice for _, _, _, _, twice in per_flag),
        intersection_number_via_symbols(D, dec),
        int(2 * trivialization_polytope(D, display_flag).area),
    )
    # for ample D, vertex j of P_D's walk is cone j's lattice point (X, Y), W = 1
    faithful = [(X, Y) for _, (X, Y, _) in D._section_polygon] == list(D.cocycle)
    return VolumeReport(twice, display_flag, per_flag, () if faithful else (
        "area_polytope: the vertices of P_D are not the local equations",))
