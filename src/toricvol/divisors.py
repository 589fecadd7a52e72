"""Torus-invariant divisors: local equations, polytopes, positivity, sections.

Sign convention, used everywhere downstream: the local equation h_j of the
divisor on the chart of cone j is the unique character with
<h_j, ray> = -d_ray on both rays of the cone. With this convention the
divisor polytope of a globally generated divisor is exactly the convex hull
of the cocycle characters h_j, and the transition cocycle of the line bundle
is f_ab = h_b - h_a in exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index

from .fan import Fan2D, chart_dual_basis
from .lattice import Polygon, Vec, convex_hull_2d, cross

Cocycle = tuple[Vec, ...]  # one character exponent per maximal cone

# Largest cocycle box section_lattice_points scans; its output can be as large.
SECTION_SCAN_LIMIT = 10 ** 6


class NotGloballyGenerated(ValueError):
    def __init__(self, cone: int, ray: int):
        self.cone = cone
        self.ray = ray
        super().__init__(
            f"divisor is not globally generated: local equation of cone {cone} "
            f"violates the inequality of ray {ray}")


class NotAmple(ValueError):
    pass


@dataclass(frozen=True)
class TorusDivisor:
    """Integer coefficient per ray: the divisor sum(d_i * D_i).

    Derived data is computed on first use and cached: write-once, deterministic.
    """

    fan: Fan2D
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.fan.n_rays:
            raise ValueError(
                f"{len(self.coeffs)} coefficients for {self.fan.n_rays} rays")

    @cached_property
    def cocycle(self) -> Cocycle:
        """Local equation h_j per cone: h_j = -d_j*m - d_{j+1}*m' in the dual basis."""
        fan = self.fan
        n = fan.n_rays
        out = []
        for j in range(n):
            m, mp = chart_dual_basis(fan, j)
            dj, dk = self.coeffs[j], self.coeffs[(j + 1) % n]
            out.append((-dj * m[0] - dk * mp[0], -dj * m[1] - dk * mp[1]))
        return tuple(out)

    @cached_property
    def curve_degrees(self) -> tuple[int, ...]:
        """D.D_i = d_{i-1} + d_{i+1} - a_i*d_i with a_i = cross(r_{i-1}, r_{i+1}).

        By the toric Kleiman criterion D is ample iff every degree is
        positive, and globally generated (nef) iff every degree is >= 0.
        """
        rays, d = self.fan.rays, self.coeffs
        n = len(rays)
        return tuple(d[i - 1] + d[(i + 1) % n] - cross(rays[i - 1], rays[(i + 1) % n]) * d[i]
                     for i in range(n))

    @cached_property
    def min_curve_degree(self) -> int:
        """Smallest curve degree: the positivity verdict in O(1) once cached."""
        return min(self.curve_degrees)


def divisor(fan: Fan2D, coeffs) -> TorusDivisor:
    return TorusDivisor(fan, tuple(index(c) for c in coeffs))


def cech_cocycle(cocycle: Cocycle, a: int, b: int) -> Vec:
    """Transition character f_ab = h_b / h_a, as an exponent vector."""
    ha, hb = cocycle[a], cocycle[b]
    return (hb[0] - ha[0], hb[1] - ha[1])


def generation_violations(D: TorusDivisor) -> list[tuple[int, int]]:
    """(cone, ray) witnesses (i-1, i+1), one per curve D_i of negative degree.

    As r_{i-1} + r_{i+1} = a_i*r_i, that pair's slack is exactly D.D_i.
    """
    n = D.fan.n_rays
    deg = D.curve_degrees
    return [(j, (j + 2) % n) for j in range(n) if deg[(j + 1) % n] < 0]


def is_globally_generated(D: TorusDivisor) -> bool:
    return D.min_curve_degree >= 0


def ampleness_violations(D: TorusDivisor) -> list[tuple[int, int]]:
    """Witnesses as in ``generation_violations``, one per curve of degree <= 0."""
    n = D.fan.n_rays
    deg = D.curve_degrees
    return [(j, (j + 2) % n) for j in range(n) if deg[(j + 1) % n] <= 0]


def is_ample(D: TorusDivisor) -> bool:
    return D.min_curve_degree > 0


def divisor_polytope(D: TorusDivisor) -> Polygon:
    """Convex hull of the cocycle characters.

    Equals the half-plane intersection {h : <h,ray> >= -d_ray} precisely when
    D is globally generated, so that is demanded up front.
    """
    bad = generation_violations(D)
    if bad:
        raise NotGloballyGenerated(*bad[0])
    return convex_hull_2d(D.cocycle)


def section_lattice_points(D: TorusDivisor, m: int = 1) -> list[Vec]:
    """All characters h with <h, ray_i> >= -m*d_i for every ray, sorted.

    These are the lattice points of m times the divisor polytope, which lies
    in the bounding box of the scaled cocycle characters for any divisor on a
    complete fan. Each column x of that box is cut to the rows [lo, hi]
    allowed by every ray inequality x*r0 + y*r1 >= -m*d (exact floor and
    ceiling division), so the scan costs O(width*n + points). A box of more
    than SECTION_SCAN_LIMIT points raises ValueError before the scan.
    """
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    h = D.cocycle
    xs = [m * e[0] for e in h]
    ys = [m * e[1] for e in h]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    box = (x1 - x0 + 1) * (y1 - y0 + 1)
    if box > SECTION_SCAN_LIMIT:
        raise ValueError(f"level {m} has a box of {box} candidate points, "
                         f"more than the limit of {SECTION_SCAN_LIMIT}")
    rows = [(r0, r1, -m * d) for (r0, r1), d in zip(D.fan.rays, D.coeffs)]
    out = []
    for x in range(x0, x1 + 1):
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
            out.extend((x, y) for y in range(lo, hi + 1))
    return out

