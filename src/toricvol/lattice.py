"""Exact integer and rational primitives for plane lattice geometry.

Everything works over Python ints and ``fractions.Fraction``; there is no
floating point anywhere in this package. Vectors and points are plain tuples.
A polygon is built from its vertices alone and derives its exact shoelace
area. Convex hulls keep the coordinates they are given, so a hull of lattice
points has int vertices; ``scaled_hull`` is the one place that makes
rational vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, int]
Point = tuple[int | Fraction, int | Fraction]


def cross(u: Sequence[int], v: Sequence[int]) -> int:
    """2x2 determinant u1*v2 - u2*v1 of two plane vectors."""
    if len(u) != 2 or len(v) != 2:
        raise ValueError("cross product needs two plane vectors")
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Pairing of a character (exponent vector) with a ray."""
    return u[0] * v[0] + u[1] * v[1]


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*(abs(c) for c in v)) == 1


def shoelace(vertices: Sequence[Point]) -> Fraction:
    """Signed shoelace area of a vertex cycle (positive when counterclockwise).

    The vertices are put over their common denominator L, the signed sum is
    taken over ints and divided once, by 2*L^2.
    """
    if len(vertices) < 3:
        return Fraction(0)
    L = lcm(*(c.denominator for p in vertices for c in p))
    xs = [x.numerator * (L // x.denominator) for x, _ in vertices]
    ys = [y.numerator * (L // y.denominator) for _, y in vertices]
    twice = sum(map(mul, xs, ys[1:] + ys[:1])) - sum(map(mul, xs[1:] + xs[:1], ys))
    return Fraction(twice, 2 * L * L)


@dataclass(frozen=True)
class Polygon:
    """Convex polygon: counterclockwise vertices, no collinear interior ones.

    Degenerate hulls (a point or a segment) are legal and have area 0.
    """

    vertices: tuple[Point, ...]
    area: Fraction = field(init=False)

    def __post_init__(self):
        area = shoelace(self.vertices)
        if area < 0:
            raise ValueError("vertices are not in counterclockwise order")
        object.__setattr__(self, "area", area)


def _coords(p: Sequence) -> tuple:
    """A plane point with int coordinates kept and any other coordinate made a Fraction."""
    if len(p) != 2:
        raise ValueError(f"not a plane point: {p!r}")
    x, y = p
    return (x if type(x) is int else Fraction(x), y if type(y) is int else Fraction(y))


def convex_hull_2d(points: Iterable[Sequence]) -> Polygon:
    """Convex hull by monotone chain over the exact coordinates as given.

    The vertices keep their input coordinates: int points give int vertices.
    Collinear boundary points are dropped, so the vertex list is minimal.
    """
    pts = sorted({_coords(p) for p in points})
    if not pts:
        raise ValueError("convex hull of an empty point set")

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq: list) -> list:
        out: list = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    if len(hull) < 3:
        # all points collinear: keep the two extremes, or the single point
        hull = [pts[0], pts[-1]] if len(pts) > 1 else pts
    return Polygon(tuple(hull))


def scaled_hull(points: Iterable[Sequence], m: int) -> Polygon:
    """Convex hull of the points scaled by 1/m, for a positive integer m.

    The hull is taken of the points as given and only its vertices are
    scaled, into Fractions: a positive scaling keeps the counterclockwise
    order and the minimal vertex set.
    """
    hull = convex_hull_2d(points)
    return Polygon(tuple((Fraction(x, m), Fraction(y, m)) for x, y in hull.vertices))
