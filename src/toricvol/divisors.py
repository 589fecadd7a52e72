"""Torus-invariant divisors: local equations, the divisor polytope, positivity.

Sign convention, used everywhere downstream: the local equation h_j of the divisor on
the chart of cone j is the unique character with <h_j, ray> = -d_ray on both rays of the
cone, in the dual basis of ``Fan2D.charts``; the transition cocycle of the line bundle is
f_ab = h_b - h_a in exponents. The divisor polytope P_D = {h : <h, ray_i> >= -d_i} is
walked from the rays and coefficients alone, once per divisor, into the cached level-1
cycle ``TorusDivisor._section_polygon``, which ``valuation`` scales by m to cut sections;
for ample D its vertices are the h_j. Positivity has one API: the two witness lists.
A ``TorusDivisor`` is the checked record ``(fan, coeffs)`` (see ``lattice``): it
equals and hashes like that pair, a changed copy is made with ``_replace``, and
its fields and cached values cannot be set or deleted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from math import lcm
from operator import index
from typing import NamedTuple, Sequence

from .fan import Fan2D
from .lattice import Polygon, Vec, _Checked, convex_hull_2d

Cocycle = tuple[Vec, ...]  # one character exponent per maximal cone
Row = tuple[int, int, int]     # (r0, r1, b): the half-plane <h, (r0, r1)> >= b
Vertex = tuple[int, int, int]  # (X, Y, W): the point (X/W, Y/W), W > 0


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


def divisor(fan: Fan2D, coeffs) -> TorusDivisor:
    return TorusDivisor(fan, coeffs)


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


def _lattice_ends(cycle: Sequence[tuple[Row, Vertex]]) -> list[Vec] | None:
    """The vertices of a ``_section_polygon`` cycle at any level, in order, if all lie on the lattice."""
    ends = [(X // W, Y // W) for _, (X, Y, W) in cycle if not (X % W or Y % W)]
    return ends if len(ends) == len(cycle) else None


def divisor_polytope(D: TorusDivisor) -> Polygon:
    """P_D = {h : <h, ray_i> >= -d_i} for every D, the hull of ``D._section_polygon``, so of no local
    equation: int vertices when all are lattice points, as for every nef D, else the int hull of
    the vertices times their common denominator k, divided by k. An empty P_D raises ValueError."""
    cycle = D._section_polygon
    if (ends := _lattice_ends(cycle)) is not None:
        return convex_hull_2d(ends)
    k = lcm(*(W for _, (_, _, W) in cycle))
    return convex_hull_2d([(X * (k // W), Y * (k // W)) for _, (X, Y, W) in cycle]).divided(k)
