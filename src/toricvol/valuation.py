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
keys are the flags. ``flag_valuation`` reads a pair that is not a ``TFlag`` through
``TFlag``, looks its chart up and explains a miss. The module holds the trivialization hull of
every divisor and the level-m hull of the sections ``divisors._level_ends`` picks.
"""

from __future__ import annotations

from operator import index

from .divisors import TorusDivisor, _level_ends
from .fan import Fan2D, Rank2Valuation, TFlag
from .lattice import Polygon, convex_hull_2d


def flag_valuation(fan: Fan2D, flag: TFlag) -> Rank2Valuation:
    """The flag's chart from the fan's table; a pair not in the table is no flag. A pair that is
    not a TFlag is read through TFlag first: (2.0, 1) hashes like TFlag(2, 1), but a float or
    a Fraction raises TypeError. A TFlag, as route 3 passes 2n times per report, is taken as is."""
    if type(flag) is not TFlag:
        flag = TFlag(*flag)
    w = fan.charts.get(flag)
    if w is None:
        ray, cone = flag
        if not 0 <= cone < fan.n_rays:
            raise ValueError(f"no maximal cone {cone}")
        raise ValueError(f"ray {ray} is not a face of cone {cone}: not a flag")
    return w


def trivialization_polytope(D: TorusDivisor, flag: TFlag) -> Polygon:
    """Hull of the flag valuations of the local equations of the divisor, for every divisor.

    The valuation map is unimodular on exponents, so the area does not depend on
    the flag. For nef D the local equations are the vertices of P_D, so the area is the
    divisor polytope's; otherwise the hull is of the local equations alone.
    """
    (r1, r2), (s1, s2), _, _ = flag_valuation(D.fan, flag)
    return convex_hull_2d([(e1 * r1 + e2 * r2, e1 * s1 + e2 * s2) for e1, e2 in D.cocycle])


def semigroup_level_hull(D: TorusDivisor, flag: TFlag, m: int) -> Polygon:
    """Hull of the level-m semigroup points: an int hull, checked once by ``convex_hull_2d``,
    divided by k into Fractions by ``Polygon.divided`` with no second check. The level is read
    with ``operator.index`` first. The unimodular valuation maps the hull of the sections onto
    the hull of their values, so only the points ``_level_ends`` picks, which hold every vertex
    of the former, are valued."""
    m = index(m)
    w = flag_valuation(D.fan, flag)
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    k, ends = _level_ends(D, m)
    if not ends:
        raise ValueError(f"no sections at level {m}")
    (r1, r2), (s1, s2), _, _ = w
    return convex_hull_2d([(x * r1 + y * r2, x * s1 + y * s2) for x, y in ends]).divided(k)
