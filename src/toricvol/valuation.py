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
Trivialization hulls, for every divisor, keep int vertices; the cocycle is valued with the
chart unpacked once. Level-m hulls start from the section polygon mP_D, the cached level-1
walk ``TorusDivisor._section_polygon`` scaled by m. A polygon whose vertices are all
lattice points, as every nef D's is, is its own integer hull; only a polygon with another
vertex has its section columns cut, and only the max(r1, |s1|) at each end of each stretch
between two vertices, above one lower row (r0, r1, b) and below one upper row (s0, s1, c),
as no other holds a vertex. Only the hull's vertices are valued, and that checked int hull
is scaled by 1/m with ``Polygon.divided``, which checks nothing again. Both hulls' inputs
are vertex cycles for an ample divisor, which ``convex_hull_2d`` checks once and does not
chain.
"""

from __future__ import annotations

from itertools import chain
from operator import index

from .divisors import Row, TorusDivisor, Vertex, _lattice_ends
from .fan import Fan2D, Rank2Valuation, TFlag
from .lattice import Polygon, convex_hull_2d, monotone_chain

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
    """The nonempty columns (x, lo, hi) of the lattice points in the nonempty level-m section
    polygon ``cycle`` that can hold a vertex of their hull, in increasing x: the first and last
    q = max(r1, |s1|) of every stretch below, or all of a stretch narrower than 2*q, whatever
    the width. More than SECTION_SCAN_LIMIT such columns raise ValueError before any is cut.

    The lower edges (r1 > 0) run left to right, the upper ones (r1 < 0) right to left, so the
    stretches between the floors of their vertices' x-coordinates come in order, and one lower
    row r and one upper row s bound every column of a stretch. Inside a stretch every lattice
    point of r's line is a section on the polygon's boundary, one every r1 columns, so a low
    end strictly between two of them lies on or above the segment joining them and is no
    vertex; so for high ends and s, every |s1| columns. So every vertex lies within q columns
    of a stretch end.
    """
    first = next(j for j in range(len(cycle)) if cycle[j][0][1] > 0 >= cycle[j - 1][0][1])
    cycle = cycle[first:] + cycle[:first]
    # each edge with the floor of its right end's x: the lower edge's end, the upper one's start
    lows = [(X // W, row) for row, (X, _, W) in cycle if row[1] > 0]
    highs = [(X // W, row) for (row, _), (_, (X, _, W)) in zip(cycle, cycle[-1:] + cycle[:-1])
             if row[1] < 0][::-1]
    (X, _, W), x1 = cycle[-1][1], lows[-1][0]
    stretches, a, i, j = [], -(-X // W), 0, 0
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
    for r, s, a, e, q in stretches:
        xs = range(a, e) if e - a <= 2 * q else chain(range(a, a + q), range(e - q, e))
        out += _cut_columns(r, s, xs)
    return out


def semigroup_level_hull(D: TorusDivisor, flag: TFlag, m: int) -> Polygon:
    """Hull of the level-m semigroup points: the int hull, checked once by ``convex_hull_2d``,
    scaled by 1/m into Fractions by ``Polygon.divided`` with no second check. The level is read
    with ``operator.index`` first. The unimodular valuation maps the hull of the sections onto
    the hull of their values, so only the vertices of the former are valued. When every vertex
    of the level-m cycle, ``D._section_polygon`` times m, is a lattice point, as for every nef
    D, that cycle is its own integer hull. Otherwise the lower chain of the lows and the upper
    chain of the highs of ``_hull_columns``, joined, hold every vertex. Either cycle repeats a
    point only where it meets itself (an edge of length 0, or the two chains at an end column
    with lo == hi), and one rule drops each repeat, so the ends are the hull's vertex cycle
    itself, unless every section lies on one line."""
    m = index(m)
    w = flag_valuation(D.fan, flag)
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    # the walk's removal test E(p, i, q) >= 0 is homogeneous in the b's and its turn test reads
    # none, so the same lines stay at every level: each b and each X, Y times m, W unchanged
    cycle = [((r0, r1, m * b), (m * X, m * Y, W)) for (r0, r1, b), (X, Y, W) in D._section_polygon]
    if (ends := _lattice_ends(cycle)) is None:
        cols = _hull_columns(cycle, m)
        ends = (monotone_chain((x, lo) for x, lo, _ in cols)
                + monotone_chain((x, hi) for x, _, hi in reversed(cols)))
    ends = [p for p, q in zip(ends, ends[-1:] + ends[:-1]) if p != q] or ends[:1]
    if not ends:
        raise ValueError(f"no sections at level {m}")
    return convex_hull_2d(map(w.value, ends)).divided(m)
