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
every divisor and the level-m hull of the sections, with the column cut it uses where mP_D is
no lattice polygon.
"""

from __future__ import annotations

from itertools import chain
from operator import index

from .divisors import Row, TorusDivisor, Vertex
from .fan import Fan2D, Rank2Valuation, TFlag
from .lattice import Polygon, convex_hull_2d

# Most section columns a level hull cuts: only a polygon with a vertex off the lattice has
# columns cut, at most 2*max(r1, |s1|) per stretch, which grows with the ray coordinates.
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
    """Hull of the flag valuations of the local equations of the divisor, for every divisor.

    The valuation map is unimodular on exponents, so the area does not depend on
    the flag. For nef D the local equations are the vertices of P_D, so the area is the
    divisor polytope's; otherwise the hull is of the local equations alone.
    """
    (r1, r2), (s1, s2), _, _ = flag_valuation(D.fan, flag)
    return convex_hull_2d([(e1 * r1 + e2 * r2, e1 * s1 + e2 * s2) for e1, e2 in D.cocycle])


def _cut_columns(r: Row, s: Row, xs) -> list[tuple[int, int, int]]:
    """The nonempty columns (x, lo, hi) among xs, [lo, hi] the rows above the lower row r
    (r1 > 0) and below the upper row s (s1 < 0)."""
    (r0, r1, b), (s0, s1, c) = r, s
    out = []
    for x in xs:
        lo, hi = -((x * r0 - b) // r1), (x * s0 - c) // -s1
        if lo <= hi:
            out.append((x, lo, hi))
    return out


def _hull_columns(cycle: list[tuple[Row, Vertex]], m: int) -> list[tuple[int, int, int]]:
    """The nonempty columns (x, lo, hi) of the lattice points in m times the nonempty section
    polygon ``cycle``, the level-1 walk ``TorusDivisor._section_polygon``, that can hold a vertex
    of their hull: the first and last q = max(r1, |s1|) of every stretch below, or all of a
    stretch narrower than 2*q, whatever the width. More than SECTION_SCAN_LIMIT such columns
    raise ValueError before any is cut. They come in increasing x, an order the level hull does
    not need, as ``convex_hull_2d`` sorts their ends; the every-column oracle of the tests
    compares that order.

    The lower edges (r1 > 0) run left to right, the upper ones (r1 < 0) right to left, so the
    stretches between the floors of their vertices' x-coordinates come in order, and one lower
    row r and one upper row s bound every column of a stretch. Inside a stretch every lattice
    point of r's line is a section on the polygon's boundary, one every r1 columns, so a low
    end strictly between two of them lies on or above the segment joining them and is no
    vertex; so for high ends and s, every |s1| columns. So every vertex lies within q columns
    of a stretch end.

    The walk's removal test E(p, i, q) >= 0 is homogeneous in the b's and its turn test reads
    none, so the same rows and vertices serve every level: mP_D's vertex (X, Y, W) is
    (m*X, m*Y, W) and its row (r0, r1, b) is (r0, r1, m*b). So the floors and ceilings read
    m*X over W, and b is scaled only in the rows each stretch is cut with.
    """
    first = next(j for j in range(len(cycle)) if cycle[j][0][1] > 0 >= cycle[j - 1][0][1])
    cycle = cycle[first:] + cycle[:first]
    # each edge with the floor of its right end's x: the lower edge's end, the upper one's start
    lows = [(m * X // W, row) for row, (X, _, W) in cycle if row[1] > 0]
    highs = [(m * X // W, row) for (row, _), (_, (X, _, W)) in zip(cycle, cycle[-1:] + cycle[:-1])
             if row[1] < 0][::-1]
    (X, _, W), x1 = cycle[-1][1], lows[-1][0]
    stretches, a, i, j = [], -(-m * X // W), 0, 0
    while a <= x1:
        while lows[i][0] < a:
            i += 1
        while highs[j][0] < a:
            j += 1
        (e, r), (f, s) = lows[i], highs[j]
        e = min(e, f) + 1
        stretches.append((r, s, a, e, max(r[1], -s[1])))
        a = e
    count = sum(min(e - a, 2 * q) for _, _, a, e, q in stretches)
    if count > SECTION_SCAN_LIMIT:
        raise ValueError(f"level {m} has {count} columns to cut, "
                         f"more than the limit of {SECTION_SCAN_LIMIT}")
    out = []
    for (r0, r1, b), (s0, s1, c), a, e, q in stretches:
        xs = range(a, e) if e - a <= 2 * q else chain(range(a, a + q), range(e - q, e))
        out += _cut_columns((r0, r1, m * b), (s0, s1, m * c), xs)
    return out


def semigroup_level_hull(D: TorusDivisor, flag: TFlag, m: int) -> Polygon:
    """Hull of the level-m semigroup points: an int hull, checked once by ``convex_hull_2d``,
    divided by k when k | m, by m on the column path, into Fractions by ``Polygon.divided`` with
    no second check. The level is read with ``operator.index`` first. The unimodular valuation
    maps the hull of the sections onto the hull of their values, so only points that hold every
    vertex of the former are valued. When P_D's denominator k divides m, as k = 1 does for every
    nef D, mP_D is a lattice polygon and its own integer hull, so the level-m hull over m is
    kP_D's over k, whatever m: the cycle of ``D._lattice_cycle``, the one place where kP_D's int
    cycle is made, is valued and no level-m point is made. Otherwise both ends of every column
    ``_hull_columns`` cuts from the walk ``D._section_polygon`` at level m are valued and
    hulled: they hold every vertex."""
    m = index(m)
    w = flag_valuation(D.fan, flag)
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    k, ends = D._lattice_cycle
    if m % k:
        # this hull is mP_D's, divided by m
        k = m
        ends = [(x, y) for x, lo, hi in _hull_columns(D._section_polygon, m) for y in (lo, hi)]
    if not ends:
        raise ValueError(f"no sections at level {m}")
    (r1, r2), (s1, s2), _, _ = w
    return convex_hull_2d([(x * r1 + y * r2, x * s1 + y * s2) for x, y in ends]).divided(k)
