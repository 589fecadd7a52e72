"""Torus-invariant divisors: local equations, polytopes, positivity.

Sign convention, used everywhere downstream: the local equation h_j of the
divisor on the chart of cone j is the unique character with
<h_j, ray> = -d_ray on both rays of the cone. With this convention the
divisor polytope of a globally generated divisor is exactly the convex hull
of the cocycle characters h_j, and the transition cocycle of the line bundle
is f_ab = h_b - h_a in exponents, with h_j in the dual basis of ``Fan2D.charts``.
Positivity has one API: the two witness lists; ``valuation`` cuts the sections.
A ``TorusDivisor`` is the checked record ``(fan, coeffs)`` (see ``lattice``): it
equals and hashes like that pair, a changed copy is made with ``_replace``, and
its fields and cached values cannot be set or deleted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import index
from typing import NamedTuple

from .fan import Fan2D
from .lattice import Polygon, Vec, _Checked, convex_hull_2d

Cocycle = tuple[Vec, ...]  # one character exponent per maximal cone


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


def divisor(fan: Fan2D, coeffs) -> TorusDivisor:
    return TorusDivisor(fan, coeffs)


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
