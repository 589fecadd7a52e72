"""Torus-invariant divisors: local equations, polytopes, positivity, sections.

Sign convention, used everywhere downstream: the local equation h_j of the
divisor on the chart of cone j is the unique character with
<h_j, ray> = -d_ray on both rays of the cone. With this convention the
divisor polytope of a globally generated divisor is exactly the convex hull
of the cocycle characters h_j, and the transition cocycle of the line bundle
is f_ab = h_b - h_a in exponents, with h_j in the dual basis of ``Fan2D.charts``.
Positivity has one API: the two witness lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import lcm
from operator import index

from .fan import Fan2D
from .lattice import Polygon, Vec, convex_hull_2d, cross

Cocycle = tuple[Vec, ...]  # one character exponent per maximal cone

# Largest cocycle box section_columns scans; its expansion can have as many points.
SECTION_SCAN_LIMIT = 10 ** 6


class NotGloballyGenerated(ValueError):
    def __init__(self, cone: int, ray: int):
        self.cone = cone
        self.ray = ray
        super().__init__(
            f"divisor is not globally generated: local equation of cone {cone} "
            f"violates the inequality of ray {ray}")


@dataclass(frozen=True)
class TorusDivisor:
    """Integer coefficient per ray: the divisor sum(d_i * D_i), stored as a tuple
    of ints (a coefficient that is not an int raises TypeError). Derived data
    is computed on first use and cached: write-once, deterministic."""

    fan: Fan2D
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        if len(self.coeffs) != self.fan.n_rays:
            raise ValueError(
                f"{len(self.coeffs)} coefficients for {self.fan.n_rays} rays")

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
        n = len(rays)
        return tuple(d[i - 1] + d[(i + 1) % n] - cross(rays[i - 1], rays[(i + 1) % n]) * d[i]
                     for i in range(n))


def divisor(fan: Fan2D, coeffs) -> TorusDivisor:
    return TorusDivisor(fan, coeffs)


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


def ampleness_violations(D: TorusDivisor) -> list[tuple[int, int]]:
    """Witnesses as in ``generation_violations``, one per curve of degree <= 0."""
    n = D.fan.n_rays
    deg = D.curve_degrees
    return [(j, (j + 2) % n) for j in range(n) if deg[(j + 1) % n] <= 0]


def divisor_polytope(D: TorusDivisor) -> Polygon:
    """Convex hull of the cocycle characters.

    Equals the half-plane intersection {h : <h,ray> >= -d_ray} precisely when
    D is globally generated, so that is demanded up front.
    """
    bad = generation_violations(D)
    if bad:
        raise NotGloballyGenerated(*bad[0])
    return convex_hull_2d(D.cocycle)


def _section_rows(D: TorusDivisor, m: int) -> tuple[list[tuple[int, int, int]], int, int, int, int]:
    """The level check, the size guard, one row (r0, r1, -m*d) per ray inequality
    x*r0 + y*r1 >= -m*d, and the box x0, x1, y0, y1 of the scaled cocycle characters."""
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
    return [(r0, r1, -m * d) for (r0, r1), d in zip(D.fan.rays, D.coeffs)], x0, x1, y0, y1


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


def section_columns(D: TorusDivisor, m: int = 1) -> list[tuple[int, int, int]]:
    """The nonempty columns (x, lo, hi) of the level-m sections, in increasing x.

    The sections are the characters h with <h, ray_i> >= -m*d_i for every ray: the lattice
    points of m times the divisor polytope, which lies in the bounding box of the scaled
    cocycle characters for any divisor on a complete fan. Each column x of that box is cut to
    the rows [lo, hi] every ray inequality allows (exact floor and ceiling division), so the
    scan costs O(width*n). A box of more than SECTION_SCAN_LIMIT points raises ValueError first.
    """
    rows, x0, x1, y0, y1 = _section_rows(D, m)
    return _cut_columns(rows, range(x0, x1 + 1), y0, y1)


def _hull_columns(D: TorusDivisor, m: int) -> list[tuple[int, int, int]]:
    """The ``section_columns`` columns that can hold a vertex of the sections' hull, in
    increasing x, after the same checks: at most 2*(r1 + |s1|) for each of the O(n^2)
    stretches below, whatever the width.

    The horizontal rays narrow [x0, x1]. On a stretch that no crossing of two sloped ray
    lines splits, one lower ray r and one upper ray s bound every column. The section
    lattice repeats along r's line every r1 columns and along s's every |s1|, so a column
    end is the midpoint of its two shifts along either line when both are sections, and no
    vertex. For an end q = max(r1, |s1|) columns from both ends of the stretch one pair is,
    unless its slacks to r and to s are both below |cross(r, s)|, which puts it within
    r1 + |s1| columns of the narrowing end (q if r1 or |s1| is 1). Only end columns are cut.
    """
    rows, x0, x1, y0, y1 = _section_rows(D, m)
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


def section_lattice_points(D: TorusDivisor, m: int = 1) -> list[Vec]:
    """All characters h with <h, ray_i> >= -m*d_i for every ray, sorted:
    the points of ``section_columns``, column by column."""
    return [(x, y) for x, lo, hi in section_columns(D, m) for y in range(lo, hi + 1)]
