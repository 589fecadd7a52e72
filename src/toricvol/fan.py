"""Smooth complete fans in the plane and their orbit bookkeeping.

A fan is stored as its cyclically ordered primitive rays; maximal cone ``j`` is spanned by
``rays[j]`` and ``rays[(j+1) % n]``, so the cone list is implicit. ``Fan2D(rays)`` validates
the rays and stores them as int pairs; it and ``fan_violations`` read them with one reader,
``_read_rays``. Valid means every ray primitive, every consecutive cross exactly 1 (smooth,
positively oriented) and winding number 1 (complete). Once the crosses are 1, Noether's
formula sum a_i = 3n - 12 * winding with a_i = cross(r_(i-1), r_(i+1)) = -D_i^2 gives the
winding (Poonen, Rodriguez-Villegas 2000).

A fan owns its 2n flags and their charts: ``Fan2D.charts`` builds that table
once, the one place that writes the flag order and the dual basis.

``Fan2D``, ``TFlag`` and ``OrbitDecomposition`` are checked records and
``FanViolation`` and ``Rank2Valuation`` plain ``NamedTuple`` ones (see ``lattice``):
each equals and hashes like the tuple of its fields, a changed copy is made with
``_replace``, and no field or cached value can be set or deleted, so the chart
table is written once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from math import gcd
from operator import index
from typing import NamedTuple

from .lattice import Vec, _Checked, _int_pairs


class FanViolation(NamedTuple):
    kind: str  # "too-few-rays" | "non-primitive" | "bad-cross" | "bad-winding"
    index: int | None
    message: str

    def __str__(self) -> str:
        return self.message


class FanValidationError(ValueError):
    def __init__(self, violations: Sequence[FanViolation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def _read_rays(rays: list) -> tuple[list[Vec], list[FanViolation]]:
    """The ray list read once: int pairs as they are, any other ray by ``operator.index`` (a one-shot
    ray as a tuple), with a violation for each that cannot be read, named as given or as that tuple."""
    if _int_pairs(rays):
        return rays, []
    clean, out = [], []
    for i, r in enumerate(rays):
        r = tuple(r) if isinstance(r, Iterator) else r
        try:
            clean.append(tuple(index(c) for c in r))
        except TypeError:
            out.append(FanViolation("non-primitive", i, f"ray {i} = {r!r} has non-integer coordinates"))
    return clean, out


def fan_violations(rays: Sequence[Sequence[int]]) -> list[FanViolation]:
    """All axioms violated by a candidate ray list, each with its index; rays that
    ``_read_rays`` cannot read are the violations."""
    rays, out = _read_rays(list(rays))
    if out:
        return out
    n = len(rays)
    if n < 3:
        out.append(FanViolation("too-few-rays", None, f"{n} rays, a complete fan needs at least 3"))
    out += [FanViolation("non-primitive", i, f"ray {i} = {r} is not " + (
                "primitive" if len(r) == 2 else "a pair of integers"))
            for i, r in enumerate(rays) if len(r) != 2 or gcd(*r) != 1]
    if out:
        return out
    nxt = rays[1:] + rays[:1]
    crosses = [u0 * v1 - u1 * v0 for (u0, u1), (v0, v1) in zip(rays, nxt)]
    out = [FanViolation("bad-cross", j, f"cross(ray {j}, ray {(j + 1) % n}) = {c}, expected 1")
           for j, c in enumerate(crosses) if c != 1]
    if not out:
        a = [u0 * v1 - u1 * v0 for (u0, u1), (v0, v1) in zip(rays[-1:] + rays[:-1], nxt)]
        w = (3 * n - sum(a)) // 12  # Noether's formula, a_i = cross(r_(i-1), r_(i+1))
        if w != 1:
            out.append(FanViolation("bad-winding", None, f"winding number {w}, expected 1"))
    return out


class _RayCone(NamedTuple):
    ray: int
    cone: int


class TFlag(_Checked, _RayCone):
    """Torus-invariant flag: curve = closure of ray orbit, point = cone's fixed point.
    Both fields are read with ``operator.index``: a float raises TypeError. A flag
    is the int pair (ray, cone), so it equals and hashes like that tuple."""

    __slots__ = ()

    def __new__(cls, ray: int, cone: int):
        return tuple.__new__(cls, (index(ray), index(cone)))


class Rank2Valuation(NamedTuple):
    """A flag's chart: its two rays in flag order and the dual-basis uniformizers.

    pi1 cuts out the flag curve in the chart; pi2 restricts to the
    coordinate of the curve in which the flag point is the origin. Both are
    exponent vectors, dual to (first_ray, second_ray). A chart is the 4-tuple
    of its fields: hot code unpacks it rather than reading fields by name.
    """

    first_ray: Vec   # the flag divisor's ray; first valuation component
    second_ray: Vec  # the other generator of the flag's cone
    pi1: Vec         # exponent of the dual-basis local equation of the curve
    pi2: Vec         # exponent of the dual-basis residue coordinate t

    def value(self, exponent: Vec) -> tuple[int, int]:
        """The pairings of an exponent pair with the two rays; another length raises ValueError."""
        e1, e2 = exponent
        (r1, r2), (s1, s2), _, _ = self
        return e1 * r1 + e2 * r2, e1 * s1 + e2 * s2


class _Rays(NamedTuple):
    rays: tuple[Vec, ...]


class Fan2D(_Checked, _Rays):
    """Validated smooth complete fan; an invalid one raises FanValidationError.
    The record ``(rays,)``; its ``__dict__`` holds the cached chart table."""

    def __new__(cls, rays: Iterable[Sequence[int]]):
        # read once by fan_violations' reader; fan_violations runs only on rays it could read
        rays, violations = _read_rays(list(rays))
        violations = violations or fan_violations(rays)
        if violations:
            raise FanValidationError(violations)
        return tuple.__new__(cls, (tuple(rays),))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def charts(self) -> dict[TFlag, Rank2Valuation]:
        """The 2n flag charts in flag order: each cone's flag on its first ray, then
        on its second. The dual basis (m, m') of cone (u, v), <m,u> = <m',v> = 1 and
        <m,v> = <m',u> = 0, is the rows (v2,-v1), (-u2,u1) of [u v]^-1, as det = 1.
        The rays are validated int pairs, so keys and charts are built as tuples."""
        rays, new = self.rays, tuple.__new__
        n = len(rays)
        out = {}
        for j, u, v in zip(range(n), rays, rays[1:] + rays[:1]):
            m, mp = (v[1], -v[0]), (-u[1], u[0])
            out[new(TFlag, (j, j))] = new(Rank2Valuation, (u, v, m, mp))
            out[new(TFlag, ((j + 1) % n, j))] = new(Rank2Valuation, (v, u, mp, m))
        return out


def hirzebruch_fan(l: int) -> Fan2D:
    """The fan of the ruled surface F_l, rays (1,0), (0,1), (-1,l), (0,-1), for an int l >= 1.
    Any other l raises ValueError("l must be a positive integer, got <l>"): the one check of l,
    which the ``hirzebruch`` and ``sweep`` commands print as their error. Ray 1 and ray 2 carry
    the two divisor classes; cone j is spanned by rays j and j+1; F_1 is P^2 blown up at a point."""
    if index(l) < 1:
        raise ValueError(f"l must be a positive integer, got {l}")
    return Fan2D(((1, 0), (0, 1), (-1, l), (0, -1)))


def projective_plane_fan() -> Fan2D:
    return Fan2D(((1, 0), (0, 1), (-1, -1)))


def star_subdivide(fan: Fan2D, j: int) -> Fan2D:
    """Insert the primitive ray u+v inside cone j (blowup of its fixed point);
    j is read with ``operator.index``, so a float raises TypeError."""
    rays = list(fan.rays)
    j = index(j) % len(rays)
    (u0, u1), (v0, v1) = rays[j], rays[(j + 1) % len(rays)]
    rays.insert(j + 1, (u0 + v0, u1 + v1))
    return Fan2D(rays)


class _Owners(NamedTuple):
    generic_owner: int
    ray_owner: tuple[int, ...]


class OrbitDecomposition(_Checked, _Owners):
    """Assignment of every torus orbit to a chart whose closure contains it.

    The 2n+1 orbits are the dense one, one per ray, one fixed point per
    maximal cone. A fixed point lies only in its own cone's chart, so that
    assignment is forced and left implicit (cone j owns fixed point j). The
    ray assignments must satisfy the face condition: ray i lies only in the
    charts of the two cones having it as a face, i.e. cones i-1 and i. The
    dense orbit lies in every chart. The face condition depends only on
    n = len(ray_owner), so a decomposition serves every fan with n rays.
    Owners are read with ``operator.index`` into a tuple: a float raises TypeError."""

    __slots__ = ()

    def __new__(cls, generic_owner: int, ray_owner: Iterable[int]):
        generic_owner, ray_owner = index(generic_owner), tuple(index(j) for j in ray_owner)
        n = len(ray_owner)
        if not 0 <= generic_owner < n:
            raise ValueError(f"generic orbit assigned to nonexistent cone {generic_owner}")
        for i, j in enumerate(ray_owner):
            if j not in (i, (i - 1) % n):
                raise ValueError(
                    f"ray {i} assigned to cone {j}, which does not have it as a face")
        return tuple.__new__(cls, (generic_owner, ray_owner))


def check_decomposition(fan: Fan2D, dec: OrbitDecomposition) -> None:
    """A decomposition serves only fans of its ray count; another raises ValueError."""
    if len(dec.ray_owner) != fan.n_rays:
        raise ValueError(f"decomposition of {len(dec.ray_owner)} rays for a fan of {fan.n_rays}")


def standard_decomposition(fan: Fan2D, variant: str = "default") -> OrbitDecomposition:
    """The two named orbit decompositions; any other name raises ValueError.

    "default": cone j owns its first ray, cone 0 owns the dense orbit.
    "successor": cone j owns its second ray instead.
    ``_replace(generic_owner=K)`` moves the dense orbit to cone K (the CLI's ``generic-at=K``).
    """
    n = fan.n_rays
    if variant == "successor":
        return OrbitDecomposition(0, tuple((i - 1) % n for i in range(n)))
    if variant != "default":
        raise ValueError(f"unknown decomposition variant {variant!r}")
    return OrbitDecomposition(0, tuple(range(n)))
