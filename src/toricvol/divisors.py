"""Torus-invariant divisors: local equations, the divisor polytope, positivity.

Sign convention, used everywhere downstream: the local equation h_j of the divisor on
the chart of cone j is the unique character with <h_j, ray> = -d_ray on both rays of the
cone, in the dual basis of ``Fan2D.charts``; the transition cocycle of the line bundle is
f_ab = h_b - h_a in exponents. The divisor polytope P_D = {h : <h, ray_i> >= -d_i} is
walked from the rays and coefficients alone, once per divisor, into the cached level-1
cycle ``TorusDivisor._section_polygon``; for ample D its vertices are the h_j. Beside it, the
cached ``TorusDivisor._lattice_cycle`` is the one place where P_D's denominator k and kP_D's int
vertex cycle are made. The sections of mD are the lattice points of mP_D: ``_level_ends`` alone
picks those that hold their hull's vertices, kP_D's cycle when k | m, else the ends of the
columns ``_hull_columns`` cuts. Positivity has one API: the two witness lists.
A ``TorusDivisor`` is the checked record ``(fan, coeffs)`` (see ``lattice``): it
equals and hashes like that pair, a changed copy is made with ``_replace``, and
its fields and cached values cannot be set or deleted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice
from math import gcd, lcm
from operator import index
from typing import NamedTuple, Sequence

from .fan import Fan2D
from .lattice import Polygon, Vec, _Checked, convex_hull_2d

Cocycle = tuple[Vec, ...]  # one character exponent per maximal cone
Row = tuple[int, int, int]     # (r0, r1, b): the half-plane <h, (r0, r1)> >= b
Vertex = tuple[int, int, int]  # (X, Y, W): the point (X/W, Y/W), W > 0

# Most section columns a level hull cuts: only a polygon with a vertex off the lattice has
# columns cut, at most 2*max(r1, |s1|) per stretch, which grows with the ray coordinates.
SECTION_SCAN_LIMIT = 10 ** 6


class NotGloballyGenerated(ValueError):
    def __init__(self, cone: int, ray: int):
        self.cone = cone
        self.ray = ray
        super().__init__(
            f"divisor is not globally generated: local equation of cone {cone} "
            f"violates the inequality of ray {ray}")


class _FanCoeffs(NamedTuple):
    fan: Fan2D
    coeffs: tuple[int, ...]


class TorusDivisor(_Checked, _FanCoeffs):
    """Integer coefficient per ray: the divisor sum(d_i * D_i), stored as a tuple
    of ints (a coefficient that is not an int raises TypeError). Derived data
    is computed on first use and cached in the record's ``__dict__``: write-once,
    deterministic."""

    def __new__(cls, fan: Fan2D, coeffs):
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != fan.n_rays:
            raise ValueError(f"{len(coeffs)} coefficients for {fan.n_rays} rays")
        return tuple.__new__(cls, (fan, coeffs))

    @cached_property
    def cocycle(self) -> Cocycle:
        """Local equation h_j = -d_j*pi1 - d_{j+1}*pi2 per cone, in its first flag's chart,
        which is every other entry of ``Fan2D.charts``, from the first."""
        d = self.coeffs
        out = []
        for w, dj, dk in zip(islice(self.fan.charts.values(), 0, None, 2), d, d[1:] + d[:1]):
            _, _, (a1, a2), (b1, b2) = w
            out.append((-dj * a1 - dk * b1, -dj * a2 - dk * b2))
        return tuple(out)

    @cached_property
    def curve_degrees(self) -> tuple[int, ...]:
        """D.D_i = d_{i-1} + d_{i+1} - a_i*d_i with a_i = cross(r_{i-1}, r_{i+1}).

        By the toric Kleiman criterion D is ample iff every degree is
        positive, and globally generated (nef) iff every degree is >= 0.
        """
        rays, d = self.fan.rays, self.coeffs
        # a_i inline on the fan's validated int rays, as fan_violations takes it
        return tuple(dp + dn - (u0 * v1 - u1 * v0) * di for dp, di, dn, (u0, u1), (v0, v1)
                     in zip(d[-1:] + d[:-1], d, d[1:] + d[:1], rays[-1:] + rays[:-1], rays[1:] + rays[:1]))

    @cached_property
    def _section_polygon(self) -> tuple[tuple[Row, Vertex], ...]:
        """The vertex cycle of P_D = {h : <h, ray_i> >= -d_i}, counterclockwise, in exact ints:
        one pair (row, vertex) per boundary line, in ray order, the vertex where the row's edge
        meets the next row's line. Edges of length 0 stay, so a vertex may repeat; an empty P_D
        gives (). It reads the rays, the coefficients and the curve degrees, no local equation.

        The edge on line i between its neighbours' lines is D.D_i long in lattice units: for nef
        D every line stays, and consecutive lines meet at the lattice point h_j (W = 1).
        Otherwise each line whose edge between its live neighbours p and q has negative length
        E(p, i, q) is removed, and p and q are checked again, so a line is removed at most once.
        If the turn from p to q is less than a half turn, H_p and H_q meet inside H_i and i goes;
        if not, p, i and q bound an empty triangle or strip, and so is P_D empty."""
        rows = [(r0, r1, -d) for (r0, r1), d in zip(self.fan.rays, self.coeffs)]
        todo = [i for i, degree in enumerate(self.curve_degrees) if degree < 0]
        if todo:
            n = len(rows)
            prev, succ, live = [(i - 1) % n for i in range(n)], [(i + 1) % n for i in range(n)], [True] * n
            while todo:
                i = todo.pop()
                if not live[i]:
                    continue
                p, q = prev[i], succ[i]
                (p0, p1, bp), (i0, i1, bi), (q0, q1, bq) = rows[p], rows[i], rows[q]
                cpq = p0 * q1 - p1 * q0
                # E(p, i, q) = bi*cross(p, q) - bp*cross(i, q) - bq*cross(p, i) >= 0: the edge stays
                if bi * cpq >= bp * (i0 * q1 - i1 * q0) + bq * (p0 * i1 - p1 * i0):
                    continue
                if cpq <= 0:
                    return ()
                live[i] = False
                succ[p], prev[q] = q, p
                todo += p, q
            rows = [row for row, alive in zip(rows, live) if alive]
        return tuple(((p0, p1, bp), (bp * q1 - bq * p1, p0 * bq - q0 * bp, p0 * q1 - p1 * q0))
                     for (p0, p1, bp), (q0, q1, bq) in zip(rows, rows[1:] + rows[:1]))

    @cached_property
    def _lattice_cycle(self) -> tuple[int, tuple[Vec, ...]]:
        """(k, kP_D's int vertex cycle): P_D's denominator k, ``_denominator`` of the walk, and
        the walk's vertices times k, in its order, repeats kept; an empty P_D gives (1, ())."""
        cycle = self._section_polygon
        k = _denominator(cycle)
        return k, tuple((k * X // W, k * Y // W) for _, (X, Y, W) in cycle)


divisor = TorusDivisor


def generation_violations(D: TorusDivisor) -> list[tuple[int, int]]:
    """(cone, ray) witnesses (i-1, i+1), one per curve D_i of negative degree.

    As r_{i-1} + r_{i+1} = a_i*r_i, that pair's slack is exactly D.D_i.
    """
    n, deg = D.fan.n_rays, D.curve_degrees
    return [(j, (j + 2) % n) for j in range(n) if deg[(j + 1) % n] < 0]


def ampleness_violations(D: TorusDivisor) -> list[tuple[int, int]]:
    """Witnesses as in ``generation_violations``, one per curve of degree <= 0."""
    n, deg = D.fan.n_rays, D.curve_degrees
    return [(j, (j + 2) % n) for j in range(n) if deg[(j + 1) % n] <= 0]


def _denominator(cycle: Sequence[tuple[Row, Vertex]]) -> int:
    """The least k >= 1 for which k times the walked cycle ``D._section_polygon`` is a lattice
    polygon: the lcm of its vertices' denominators in lowest terms, W // gcd(W, X, Y). So mP_D
    is a lattice polygon exactly when k divides m; an empty P_D gives 1."""
    return lcm(*(W // gcd(W, X, Y) for _, (X, Y, W) in cycle if W > 1))


def divisor_polytope(D: TorusDivisor) -> Polygon:
    """P_D = {h : <h, ray_i> >= -d_i} for every D, the hull of the walk, so of no local equation:
    the int hull of kP_D's cycle ``D._lattice_cycle``, divided by its denominator k only when
    k > 1, so int vertices when all are lattice points, as for every nef D. An empty P_D raises
    ValueError."""
    k, ends = D._lattice_cycle
    hull = convex_hull_2d(ends)
    return hull.divided(k) if k > 1 else hull


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


def _level_ends(D: TorusDivisor, m: int) -> tuple[int, Sequence[Vec]]:
    """(k, points) at a level m >= 1, int points whose hull over k is mP_D's integer hull over m:
    kP_D's cycle ``D._lattice_cycle`` when P_D's denominator k divides m, as k = 1 does for every
    nef D, for mP_D is then a lattice polygon and no level-m point is made; else m and both ends
    of every column ``_hull_columns`` cuts from the walk ``D._section_polygon`` at level m."""
    k, ends = D._lattice_cycle
    if m % k:
        return m, [(x, y) for x, lo, hi in _hull_columns(D._section_polygon, m) for y in (lo, hi)]
    return k, ends
