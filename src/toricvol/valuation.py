"""Rank-2 valuations from torus-invariant flags.

A flag is a ray of the fan together with a maximal cone having it as a face:
the ray's orbit closure is the flag curve, the cone's fixed point the flag
point. The induced lexicographic valuation of a character is just the pair
of pairings with the flag's two rays, the flag divisor's ray first. This is
the valuation obtained from the chart's dual-basis uniformizers: first
reduce along the coordinate cutting out the curve, then take the order of
the residue in the other coordinate. Any other uniformizer choice gives a
different (equally valid) rank-2 valuation; the dual basis is fixed here so
every computation is canonical and reproducible.

``flag_valuation`` checks a flag and builds its chart, which the boundary
maps of ``milnor_k`` take. Trivialization hulls keep int vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divisors import (
    NotGloballyGenerated,
    TorusDivisor,
    generation_violations,
    section_lattice_points,
)
from .fan import Fan2D, chart_dual_basis
from .lattice import Polygon, Vec, convex_hull_2d, cross, dot, scaled_hull


@dataclass(frozen=True)
class TFlag:
    """Torus-invariant flag: curve = closure of ray orbit, point = cone's fixed point."""

    ray: int
    cone: int


def enumerate_tflags(fan: Fan2D) -> list[TFlag]:
    """All 2n torus-invariant flags: each cone paired with each of its rays."""
    n = fan.n_rays
    out = []
    for j in range(n):
        out.append(TFlag(j, j))
        out.append(TFlag((j + 1) % n, j))
    return out


@dataclass(frozen=True)
class Rank2Valuation:
    """A flag's chart: its two rays in flag order and the dual-basis uniformizers.

    pi1 cuts out the flag curve in the chart; pi2 restricts to the
    coordinate of the curve in which the flag point is the origin. Both are
    exponent vectors, dual to (first_ray, second_ray).
    """

    first_ray: Vec   # the flag divisor's ray; first valuation component
    second_ray: Vec  # the other generator of the flag's cone
    pi1: Vec         # exponent of the dual-basis local equation of the curve
    pi2: Vec         # exponent of the dual-basis residue coordinate t

    def __post_init__(self):
        if cross(self.first_ray, self.second_ray) not in (1, -1):
            raise ValueError("flag rays do not span a unimodular cone")

    def value(self, exponent: Vec) -> tuple[int, int]:
        return (dot(exponent, self.first_ray), dot(exponent, self.second_ray))


def flag_valuation(fan: Fan2D, flag: TFlag) -> Rank2Valuation:
    """The flag's chart, the one place that checks a flag and puts its rays in order."""
    n = fan.n_rays
    if not 0 <= flag.cone < n:
        raise ValueError(f"no maximal cone {flag.cone}")
    if flag.ray not in (flag.cone, (flag.cone + 1) % n):
        raise ValueError(f"ray {flag.ray} is not a face of cone {flag.cone}: not a flag")
    u, v = fan.cone(flag.cone)
    m, mp = chart_dual_basis(fan, flag.cone)
    if flag.ray == flag.cone:
        return Rank2Valuation(u, v, m, mp)
    return Rank2Valuation(v, u, mp, m)


def trivialization_polytope(D: TorusDivisor, flag: TFlag) -> Polygon:
    """Hull of the flag valuations of the local equations of the divisor.

    The valuation map is unimodular on exponents, so the area always equals
    the divisor polytope's area, whatever the flag. Global generation is
    what makes the local-equation hull the right polytope, so that is the
    gate here (the zero divisor is fine; only the flag sums over in
    ``volume`` insist on ampleness).
    """
    bad = generation_violations(D)
    if bad:
        raise NotGloballyGenerated(*bad[0])
    w = flag_valuation(D.fan, flag)
    return convex_hull_2d([w.value(h) for h in D.cocycle])


def graded_semigroup(
    D: TorusDivisor, flag: TFlag, m_max: int
) -> set[tuple[tuple[int, int], int]]:
    """Pairs (valuation of section, level) for all levels 0..m_max."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    w = flag_valuation(D.fan, flag)
    out: set[tuple[tuple[int, int], int]] = {((0, 0), 0)}
    for m in range(1, m_max + 1):
        for e in section_lattice_points(D, m):
            out.add((w.value(e), m))
    return out


def semigroup_level_hull(D: TorusDivisor, flag: TFlag, m: int) -> Polygon:
    """Hull of the level-m semigroup points scaled back by 1/m."""
    if m < 1:
        raise ValueError("level must be positive")
    w = flag_valuation(D.fan, flag)
    pts = [w.value(e) for e in section_lattice_points(D, m)]
    if not pts:
        raise ValueError(f"no sections at level {m}")
    return scaled_hull(pts, m)
