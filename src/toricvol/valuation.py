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
``TFlag``, looks its chart up and explains a miss.
Trivialization hulls keep int vertices; the cocycle is valued with the chart unpacked
once. Level-m hulls, the package's one section routine, cut only the section columns that
can hold a vertex, value only their ends' hull vertices and scale that checked int hull by
1/m with ``Polygon.divided``, which checks nothing again. Both hulls' inputs are vertex
cycles for an ample divisor, which ``convex_hull_2d`` checks once and does not chain.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .divisors import NotGloballyGenerated, TorusDivisor, generation_violations
from .fan import Fan2D, Rank2Valuation, TFlag
from .lattice import Polygon, convex_hull_2d, monotone_chain

# Largest box of candidate sections a level hull accepts: the box of its scaled cocycle
# characters, whose columns it may cut; their number grows with the ray coordinates.
SECTION_SCAN_LIMIT = 10 ** 6


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
    (r1, r2), (s1, s2), _, _ = flag_valuation(D.fan, flag)
    return convex_hull_2d([(e1 * r1 + e2 * r2, e1 * s1 + e2 * s2) for e1, e2 in D.cocycle])


def _cut_columns(rows, xs, y0: int, y1: int) -> list[tuple[int, int, int]]:
    """The nonempty columns (x, lo, hi) among xs, [lo, hi] the rows of [y0, y1] every row allows."""
    out = []
    for x in xs:
        lo, hi = y0, y1
        for r0, r1, b in rows:
            slack = x * r0 - b  # the inequality reads y*r1 >= -slack
            if r1 > 0:
                lo = max(lo, -(slack // r1))
            elif r1 < 0:
                hi = min(hi, slack // -r1)
            elif slack < 0:
                break  # the ray is horizontal and cuts off the whole column
        else:
            if lo <= hi:
                out.append((x, lo, hi))
    return out


def _hull_columns(D: TorusDivisor, m: int) -> list[tuple[int, int, int]]:
    """The nonempty columns (x, lo, hi) of the level-m sections, the h with <h, ray_i> >= -m*d_i,
    that can hold a vertex of their hull, in increasing x: at most 2*(r1 + |s1|) per stretch
    below, whatever the width. A level below 1, or a box of the scaled cocycle characters (it
    holds the sections on a complete fan) of over SECTION_SCAN_LIMIT points, raises ValueError.

    The horizontal rays narrow [x0, x1]. On a stretch that no crossing of two sloped ray
    lines splits, one lower ray r and one upper ray s bound every column. The section
    lattice repeats along r's line every r1 columns and along s's every |s1|, so a column
    end is the midpoint of its two shifts along either line when both are sections, and no
    vertex. For an end q = max(r1, |s1|) columns from both ends of the stretch one pair is,
    unless its slacks to r and to s are both below |cross(r, s)|, which puts it within
    r1 + |s1| columns of the narrowing end (q if r1 or |s1| is 1). Only end columns are cut.
    """
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    hx, hy = zip(*D.cocycle)
    x0, x1, y0, y1 = m * min(hx), m * max(hx), m * min(hy), m * max(hy)
    box = (x1 - x0 + 1) * (y1 - y0 + 1)
    if box > SECTION_SCAN_LIMIT:
        raise ValueError(f"level {m} has a box of {box} candidate points, "
                         f"more than the limit of {SECTION_SCAN_LIMIT}")
    rows = [(r0, r1, -m * d) for (r0, r1), d in zip(D.fan.rays, D.coeffs)]
    for r0, r1, b in rows:
        if not r1:  # x*r0 >= b with r0 = 1 or -1
            x0, x1 = (max(x0, b), x1) if r0 > 0 else (x0, min(x1, -b))
    lines = [row for row in rows if row[1]]
    cuts = {(b * q1 - c * r1) // k for (r0, r1, b), (q0, q1, c) in combinations(lines, 2)
            if (k := r0 * q1 - r1 * q0)}
    starts = sorted({x0, *(c + 1 for c in cuts if x0 <= c < x1)})
    lows, highs = [w for w in lines if w[1] > 0], [w for w in lines if w[1] < 0]
    L = lcm(*(r1 for _, r1, _ in lines))
    xs = []
    for a, e in zip(starts, starts[1:] + [x1 + 1]):
        S = a + e - 1  # the highest lower line and the lowest upper one at x = S/2, in ints
        r0, r1, _ = max(lows, key=lambda w: (2 * w[2] - w[0] * S) * (L // w[1]))
        s0, s1, _ = max(highs, key=lambda w: (w[0] * S - 2 * w[2]) * (L // w[1]))
        q, c = max(r1, -s1), r0 * s1 - r1 * s0  # the width falls to the right if c > 0
        far = q if min(r1, -s1) == 1 else r1 - s1
        left, right = far if c < 0 else q, far if c > 0 else q
        xs += range(a, e) if e - a <= left + right else [*range(a, a + left), *range(e - right, e)]
    return _cut_columns(rows, xs, y0, y1)


def semigroup_level_hull(D: TorusDivisor, flag: TFlag, m: int) -> Polygon:
    """Hull of the level-m semigroup points: the int hull, checked once by ``convex_hull_2d``,
    scaled by 1/m into Fractions by ``Polygon.divided`` with no second check. The lower chain of
    the lows and the upper chain of the highs of ``_hull_columns``, the columns that can hold a
    vertex, hold every vertex of the sections' hull; the unimodular valuation maps it onto
    the hull of the values, so only those chain points are valued. The two chains meet in one
    point at an end column with lo == hi, which is dropped from the upper chain: the ends are
    then the hull's vertex cycle itself, unless every section lies on one line."""
    w = flag_valuation(D.fan, flag)
    cols = _hull_columns(D, m)
    if not cols:
        raise ValueError(f"no sections at level {m}")
    (_, lo0, hi0), (_, lo1, hi1) = cols[0], cols[-1]
    upper = monotone_chain((x, hi) for x, _, hi in reversed(cols))
    # a one-point end column ends both chains: the lower chain keeps it
    upper = upper[lo1 == hi1:len(upper) - (lo0 == hi0)]
    ends = monotone_chain((x, lo) for x, lo, _ in cols) + upper
    return convex_hull_2d(map(w.value, ends)).divided(m)
