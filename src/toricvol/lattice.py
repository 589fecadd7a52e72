"""Exact integer and rational primitives for plane lattice geometry.

Everything works over Python ints and ``fractions.Fraction``; there is no
floating point anywhere in this package. Vectors and points are plain tuples.
A point, and each vector of ``cross`` and ``dot``, is read as every integer input of
the package is, each coordinate by ``operator.index``: a ``Fraction``, float,
``Decimal`` or string raises ``TypeError``, and a point that is not a pair ``ValueError``.
A polygon is built from its int vertices alone, checks that they form a strictly
convex counterclockwise cycle and derives its exact shoelace area from the same
ints; ``Polygon.area`` is the one public shoelace sum. Only ``Polygon.divided``
makes rational vertices. Int pairs that already are a strictly convex cycle, as
every hull input of an ample divisor is, are their own hull after one convexity
check; only other inputs are sorted and chained, then checked as a ``Polygon``.
The read of the points and the convexity check are one loop each, which stops at
the first point that is not an int pair, or the first turn that is not left.

Every record of the package is a ``NamedTuple``: it equals and hashes like the
tuple of its fields, its repr names each field, ``_fields`` and ``_replace`` take
the place of ``dataclasses.fields`` and ``replace``, and no field, cached value or
new name can be set or deleted. A record that checks its input, such as ``Polygon``,
is a ``_Checked`` subclass of a private ``NamedTuple`` that checks in ``__new__``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[int, int]
Point = tuple[int | Fraction, int | Fraction]


def _coords(p: Sequence) -> Vec:
    """A plane point with int coordinates, each read by ``operator.index``."""
    if len(p) != 2:
        raise ValueError(f"not a plane point: {p!r}")
    x, y = p
    return index(x), index(y)


def cross(u: Sequence[int], v: Sequence[int]) -> int:
    """2x2 determinant u1*v2 - u2*v1 of two plane vectors, each read as a point."""
    (u0, u1), (v0, v1) = _coords(u), _coords(v)
    return u0 * v1 - u1 * v0


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Pairing of a character (exponent vector) with a ray, each read as a point."""
    (u0, u1), (v0, v1) = _coords(u), _coords(v)
    return u0 * v0 + u1 * v1


def _int_pairs(pts: Sequence) -> bool:
    """Some points, each a tuple of two ints, bools excluded: ``_coords`` can be skipped.
    One pass, which stops at the first point that is not."""
    for p in pts:
        if type(p) is not tuple or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            return False
    return len(pts) > 0


def _read(points: Iterable[Sequence]) -> tuple[Vec, ...]:
    """The points as int pairs: tuples of two ints as they are, any other by ``_coords``."""
    pts = tuple(points)
    return pts if _int_pairs(pts) else tuple(map(_coords, pts))


def _area(xs: list[int], ys: list[int]) -> Fraction:
    """Signed shoelace area of an int vertex cycle, divided once, by 2."""
    twice = sum(map(mul, xs, ys[1:] + ys[:1])) - sum(map(mul, xs[1:] + xs[:1], ys))
    return Fraction(twice, 2)


def _strictly_convex(xs: list[int], ys: list[int]) -> bool:
    """Every turn left and the edges winding once, in one pass over the edges, which stops at
    the first turn that is not left. A left turn is less than a half turn, so the winding counts
    the edges entering the upper half-plane [0, pi). Fewer than three vertices turn by 0."""
    if len(xs) < 3:
        return False
    px, py = xs[-1], ys[-1]
    ax, ay = px - xs[-2], py - ys[-2]
    up, entries = ay > 0 or (ay == 0 and ax > 0), 0
    for x, y in zip(xs, ys):
        bx, by = x - px, y - py
        if ax * by - ay * bx <= 0:
            return False
        was, up = up, by > 0 or (by == 0 and bx > 0)
        entries += up and not was
        ax, ay, px, py = bx, by, x, y
    return entries == 1


class _Checked:
    """First base of a checked record, ahead of the ``NamedTuple`` whose ``_make`` it
    replaces: ``_make``, and so ``_replace``, builds through the constructor's check,
    and setting or deleting any attribute raises AttributeError. A record with a
    ``__dict__`` keeps it for ``cached_property``, which writes it directly, once."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _VerticesArea(NamedTuple):
    vertices: tuple[Point, ...]
    area: Fraction


class Polygon(_Checked, _VerticesArea):
    """Strictly convex polygon: counterclockwise vertices, every turn left and winding once,
    which alone proves three or more vertices distinct. The vertices are int points, read as in
    ``convex_hull_2d``; ``divided`` alone makes a polygon with ``Fraction`` vertices. Degenerate
    hulls (a point or a segment of two distinct vertices) are legal with area 0; zero vertices
    are not. The record ``(vertices, area)`` is built from the vertices alone, so the area is
    always theirs."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Sequence]):
        vertices = _read(vertices)
        xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
        if not (0 < len(vertices) < 3 and len(set(vertices)) == len(vertices) or _strictly_convex(xs, ys)):
            raise ValueError("vertices are not a strictly convex counterclockwise cycle")
        return tuple.__new__(cls, (vertices, _area(xs, ys)))

    @classmethod
    def _make(cls, iterable):
        # both fields, read as __new__ reads the vertices; an area other than theirs raises
        vertices, area = iterable
        out = cls(vertices)
        if area != out.area:
            raise ValueError(f"area {area} is not the area {out.area} of the vertices")
        return out

    def _replace(self, **fields):
        # the constructor's one field: an area given raises its TypeError
        return type(self)(**{"vertices": self.vertices, **fields})

    __replace__ = _replace  # copy.replace, from Python 3.13

    def __reduce__(self):
        # copy and pickle rebuild the record as it is, Fraction vertices included
        return _checked, tuple(self)

    def divided(self, m: int) -> Polygon:
        """This polygon times 1/m for an int m >= 1, with no second check: a positive scaling keeps
        the vertex order, strict convexity, winding and distinctness, and divides the area by m^2.
        For m = 1 the vertices become ``Fraction(x)``, equal to ``Fraction(x, 1)`` with no gcd, and
        the area is the polygon's own."""
        if (m := index(m)) < 1:
            raise ValueError(f"a polygon is divided by a positive integer, got {m}")
        if m == 1:
            return _checked(tuple((Fraction(x), Fraction(y)) for x, y in self.vertices), self.area)
        return _checked(tuple((Fraction(x, m), Fraction(y, m)) for x, y in self.vertices),
                        Fraction(self.area.numerator, self.area.denominator * m * m))


def _checked(vertices: tuple, area: Fraction) -> Polygon:
    """A Polygon of vertices already known to be a strictly convex counterclockwise cycle
    and of their area, built with no second check."""
    return tuple.__new__(Polygon, (vertices, area))


def monotone_chain(points: Iterable[Sequence]) -> list:
    """Lower hull of points in increasing order, upper hull in decreasing order."""
    out: list = []
    for p in points:
        # pop the last point a while (o, a, p) does not turn left
        px, py = p
        while len(out) >= 2:
            ox, oy = out[-2]
            ax, ay = out[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def convex_hull_2d(points: Iterable[Sequence]) -> Polygon:
    """Convex hull of int points by monotone chain, with int vertices.

    Each coordinate is read with ``operator.index``, so a ``Fraction``, float or
    string raises ``TypeError``. Collinear boundary points are dropped, so the
    vertex list is minimal. Points that already are a strictly convex cycle,
    either way round, are their own hull: one convexity check, and the cycle
    starts at its least point, where the chain starts it. Any other input is
    sorted and chained.
    """
    pts = _read(points)
    if len(pts) >= 3:
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        # the first turn's sign is the orientation a convex cycle has throughout
        turn = (xs[1] - xs[0]) * (ys[2] - ys[1]) - (ys[1] - ys[0]) * (xs[2] - xs[1])
        if turn < 0:
            pts, xs, ys = pts[::-1], xs[::-1], ys[::-1]
        # every turn left and winding once: a convex polygon, so its vertices are distinct
        if turn and _strictly_convex(xs, ys):
            k = pts.index(min(pts))
            return _checked(pts[k:] + pts[:k], _area(xs, ys))
    pts = sorted(set(pts))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    hull = monotone_chain(pts)[:-1] + monotone_chain(pts[::-1])[:-1]
    # two or more distinct points keep both extremes in the chains, which pop collinear
    # middles; a single point leaves both chains empty
    return Polygon(tuple(hull or pts))
