"""Rank-2 valuations from torus-invariant flags.

A flag is a ray of the fan together with a maximal cone having it as a face:
the ray's orbit closure is the flag curve, the cone's fixed point the flag
point. The induced lexicographic valuation of a character is just the pair
of pairings with the flag's two rays, the flag divisor's ray first. This is
the valuation obtained from the chart's dual-basis uniformizers: first
reduce along the coordinate cutting out the curve, then take the order of
the residue in the other coordinate. Any other uniformizer choice gives a
different (equally valid) rank-2 valuation; the dual basis is fixed so
every computation is canonical and reproducible.

Flags and charts are fan data, tabled once per fan in ``Fan2D.charts``, whose
keys are the flags. ``flag_valuation`` looks a chart up and explains a miss.
Trivialization hulls keep int vertices; only level-m hulls (the ends of the columns
that can hold a vertex hulled, then only the vertices valued) make rational ones, by
scaling the checked int hull with ``Polygon.divided``, not by checking a Fraction copy.
"""

from __future__ import annotations

from .divisors import (NotGloballyGenerated, TorusDivisor, _hull_columns,
                       generation_violations, section_lattice_points)
from .fan import Fan2D, Rank2Valuation, TFlag
from .lattice import Polygon, convex_hull_2d, monotone_chain


def flag_valuation(fan: Fan2D, flag: TFlag) -> Rank2Valuation:
    """The flag's chart from the fan's table; a pair not in the table, TFlag or tuple, is no flag."""
    w = fan.charts.get(flag)
    if w is None:
        ray, cone = flag
        if not 0 <= cone < fan.n_rays:
            raise ValueError(f"no maximal cone {cone}")
        raise ValueError(f"ray {ray} is not a face of cone {cone}: not a flag")
    return w


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
    """Hull of the level-m semigroup points: the int hull, checked once by ``convex_hull_2d``,
    scaled by 1/m into Fractions by ``Polygon.divided`` with no second check. The lower chain of
    the lows and the upper chain of the highs of ``divisors._hull_columns``, the columns that can
    hold a vertex, hold every vertex of the sections' hull; the unimodular valuation maps it onto
    the hull of the values, so only those chain points are valued."""
    w = flag_valuation(D.fan, flag)
    cols = _hull_columns(D, m)
    if not cols:
        raise ValueError(f"no sections at level {m}")
    ends = (monotone_chain((x, lo) for x, lo, _ in cols)
            + monotone_chain((x, hi) for x, _, hi in reversed(cols)))
    return convex_hull_2d(map(w.value, ends)).divided(m)
