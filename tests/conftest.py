"""Shared deterministic samplers for fan and divisor instances, the
deterministic hypothesis profile, and the reference implementations the
faster library code is checked against: the angle-sort winding count, the
self-intersection from the ray intersection matrix, the pairwise positivity
scan, the all-Fraction shoelace sum and convex hull, the
bounding-box section scan, the section polygon from every pairwise crossing of
the ray lines, the column scan with its section list and graded
semigroup (with its own box guard and the level hull's messages), the all-points
level hull and the every-column level hull, the per-call flag chart
built from the cone's dual basis, the per-flag simplex terms built as
Fractions, the report writers they feed (the dict the JSON report used to be
dumped from and the text report printed term by term), and the object
oracle for the tame-symbol closed form: monomials with Fraction coefficients
and the first boundary taken on them, sign and coefficient included. Three
loops the library replaced stay here as oracles too: the per-ray fan
validation, route 3's flag contribution through ``Rank2Valuation.value``
and ``cross``, and route 4 flag by flag, the object oracle on two
``cech_cocycle`` transition characters. The set-based int-pair test and the
four-pass convexity check, which one loop each replaced in ``lattice``, stay
here too, with ``reference_kernels`` to put them back in a hull or a
``Polygon``. ``spy_hull_passes`` logs the chain and convexity passes a
convex hull makes. The level hull's lattice path that scaled mP_D's vertices
by m and divided by m, which one hull of kP_D divided by k replaced, stays as
``m_scaled_level_hull``. The deep-fan generator that re-validated the fan and re-checked
every degree at each step stays as ``stepwise_deep_ample_instance``."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import index

from hypothesis import settings, strategies as st

from toricvol import (
    Fan2D,
    FanViolation,
    FlagContribution,
    OrbitDecomposition,
    Rank2Valuation,
    TFlag,
    TorusDivisor,
    ampleness_violations,
    cross,
    dot,
    flag_valuation,
    hirzebruch_fan,
    projective_plane_fan,
    star_subdivide,
)
from toricvol import divisors, lattice

# Same examples on every run, so a tier-1 failure reproduces exactly. The "seeded" profile
# draws other examples: `pytest --hypothesis-profile=seeded --hypothesis-seed=N`.
settings.register_profile("deterministic", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.register_profile("seeded", max_examples=100, deadline=None, database=None)
settings.load_profile("deterministic")

# Largest bounding box the reference column scan walks, column by column.
BOX_SCAN_LIMIT = 10 ** 6


def random_smooth_fan(rng: random.Random, max_subdivisions: int = 5):
    """Iterated star subdivisions of the projective-plane fan."""
    fan = projective_plane_fan()
    for _ in range(rng.randint(0, max_subdivisions)):
        fan = star_subdivide(fan, rng.randrange(fan.n_rays))
    return fan


def sample_ample_divisor(rng: random.Random, fan, bound: int = 6, tries: int = 400):
    """Rejection-sample an ample divisor with small coefficients, or None."""
    for _ in range(tries):
        D = TorusDivisor(fan, [rng.randint(-bound, bound) for _ in range(fan.n_rays)])
        if not ampleness_violations(D):
            return D
    return None


def random_ample_instance(rng: random.Random, max_subdivisions: int = 5) -> TorusDivisor:
    """A random smooth complete fan with an ample divisor on it.

    Fans admitting no small ample divisor (deep chains of blowups of one
    point) are re-drawn; the result is still a uniform-ish draw over easy
    fans, which is all the property suites need.
    """
    while True:
        fan = random_smooth_fan(rng, max_subdivisions)
        D = sample_ample_divisor(rng, fan)
        if D is not None:
            return D


def deep_ample_instance(rng: random.Random, n: int) -> TorusDivisor:
    """An ample divisor on a fan with n rays, by repeated star subdivision of P^2.

    Each step inserts u+v into a random cone (u, v) and replaces D by
    k*pi^*D - E for the smallest k in {1, 2} that is ample. pi^*D gives the
    new ray d_u + d_v and E is the new ray's curve. E has degree 1, its two
    neighbours lose 1 from k times their degree, and every other degree is
    scaled by k. So k = 1 exactly when both neighbours have degree >= 2, and
    k = 2 always works. The rays, coefficients and degrees are kept as lists
    and the fan is validated once, at the end; ``stepwise_deep_ample_instance``
    makes the same draws and is its oracle. These fans are out of reach of
    ``random_ample_instance``, whose small coefficients stop being ample
    after a few blowups of one point.
    """
    rays = list(projective_plane_fan().rays)
    d = [0, 0, 0]
    while sum(d) <= 0:
        d = [rng.randint(0, 3) for _ in range(3)]
    degrees = [sum(d)] * 3  # each line of P^2 meets D in d_0 + d_1 + d_2
    while len(rays) < n:
        j = rng.randrange(len(rays))
        i = (j + 1) % len(rays)
        (u0, u1), (v0, v1) = rays[j], rays[i]
        dw = d[j] + d[i]
        if degrees[j] < 2 or degrees[i] < 2:  # k = 2
            dw, d, degrees = 2 * dw, [2 * x for x in d], [2 * x for x in degrees]
        degrees[j] -= 1
        degrees[i] -= 1
        rays.insert(j + 1, (u0 + v0, u1 + v1))
        d.insert(j + 1, dw - 1)
        degrees.insert(j + 1, 1)
    D = TorusDivisor(Fan2D(rays), d)
    if ampleness_violations(D) or D.curve_degrees != tuple(degrees):
        raise AssertionError("k*pi^*D - E must have the degrees the closed form gives")
    return D


def stepwise_deep_ample_instance(rng: random.Random, n: int) -> TorusDivisor:
    """``deep_ample_instance`` as it was, the oracle of its closed form: each step
    re-validates the fan through ``star_subdivide`` and tries k = 1, then k = 2, on a fresh
    divisor, so it is quadratic in n."""
    fan = projective_plane_fan()
    d = [0, 0, 0]
    while sum(d) <= 0:
        d = [rng.randint(0, 3) for _ in range(3)]
    while fan.n_rays < n:
        j = rng.randrange(fan.n_rays)
        dw = d[j] + d[(j + 1) % len(d)]
        fan = star_subdivide(fan, j)
        for k in (1, 2):
            new_d = [k * x for x in d[:j + 1]] + [k * dw - 1] + [k * x for x in d[j + 1:]]
            if not ampleness_violations(TorusDivisor(fan, new_d)):
                break
        else:
            raise AssertionError("k = 2 must give an ample divisor")
        d = new_d
    return TorusDivisor(fan, d)


@st.composite
def random_decompositions(draw, n: int) -> OrbitDecomposition:
    """Any legal decomposition: ray i goes to cone i or i-1, the dense orbit anywhere."""
    owners = [i - draw(st.integers(0, 1)) for i in range(n)]
    return OrbitDecomposition(draw(st.integers(0, n - 1)), [j % n for j in owners])


def pairwise_violations(D: TorusDivisor, strict: bool) -> list[tuple[int, int]]:
    """Reference positivity scan over every (cone, ray) pair, O(n^2).

    strict=False: pairs where the cone's local equation h_j breaks the
    inequality <h_j, ray_i> >= -d_i (D is globally generated iff none).
    strict=True: pairs with a ray off the cone where <h_j, ray_i> > -d_i
    fails (D is ample iff none).
    """
    fan = D.fan
    n = fan.n_rays
    h = D.cocycle
    out = []
    for j in range(n):
        for i, ray in enumerate(fan.rays):
            slack = dot(h[j], ray) + D.coeffs[i]
            if strict and i not in (j, (j + 1) % n) and slack <= 0:
                out.append((j, i))
            elif not strict and slack < 0:
                out.append((j, i))
    return out


def reference_self_intersection(D: TorusDivisor) -> int:
    """Reference D.D from the ray intersection matrix: adjacent ray divisors
    meet in one point, D_i.D_i = -a_i where ray_{i-1} + ray_{i+1} = a_i*ray_i,
    and all other products vanish."""
    rays, d = D.fan.rays, D.coeffs
    n = len(rays)
    total = 0
    for i in range(n):
        a_i = cross(rays[i - 1], rays[(i + 1) % n])
        total += -a_i * d[i] * d[i] + 2 * d[i] * d[(i + 1) % n]
    return total


def chart_dual_basis(fan, j: int):
    """Reference exponents (m, m') of the chart coordinates of cone j.

    m pairs to 1 with the cone's first ray and to 0 with the second; m' the
    other way around. Unique because the cone is unimodular: for column
    matrix A = [u v] with det 1, the inverse rows are (v2,-v1), (-u2,u1).
    """
    u, v = fan.cone(j)
    return (v[1], -v[0]), (-u[1], u[0])


def reference_tflags(fan) -> list:
    """Reference flag order: each cone paired with its first ray, then its second."""
    n = fan.n_rays
    return [TFlag(r, j) for j in range(n) for r in (j, (j + 1) % n)]


def reference_chart(fan, flag) -> Rank2Valuation:
    """Reference chart of a flag, built on every call from the cone's dual basis."""
    u, v = fan.cone(flag.cone)
    m, mp = chart_dual_basis(fan, flag.cone)
    if flag.ray == flag.cone:
        return Rank2Valuation(u, v, m, mp)
    return Rank2Valuation(v, u, mp, m)


def reference_fan_violations(rays) -> list[FanViolation]:
    """Reference fan validation, one ray and one cone per loop step: the same
    violations, messages and order as ``fan_violations``."""
    out = []
    rays = list(rays)
    clean = []
    for i, r in enumerate(rays):
        try:
            clean.append(tuple(index(c) for c in r))
        except TypeError:
            out.append(FanViolation(
                "non-primitive", i, f"ray {i} = {r!r} has non-integer coordinates"))
    if out:
        return out
    rays = clean
    n = len(rays)
    if n < 3:
        out.append(FanViolation("too-few-rays", None, f"{n} rays, a complete fan needs at least 3"))
    for i, r in enumerate(rays):
        if len(r) != 2 or gcd(*(abs(c) for c in r)) != 1:
            out.append(FanViolation("non-primitive", i, f"ray {i} = {r} is not "
                                    + ("primitive" if len(r) == 2 else "a pair of integers")))
    if out:
        return out
    crosses_ok = True
    for j in range(n):
        c = cross(rays[j], rays[(j + 1) % n])
        if c != 1:
            crosses_ok = False
            out.append(FanViolation(
                "bad-cross", j,
                f"cross(ray {j}, ray {(j + 1) % n}) = {c}, expected 1"))
    if crosses_ok:
        w = (3 * n - sum(cross(rays[i - 1], rays[(i + 1) % n]) for i in range(n))) // 12
        if w != 1:
            out.append(FanViolation("bad-winding", None, f"winding number {w}, expected 1"))
    return out


def angle_winding(rays) -> int:
    """Reference winding number of a closed ray loop whose every turn is
    counterclockwise by less than a half turn: the number of steps whose
    direction angle, measured from the positive x-axis, goes down."""
    def half(v):
        # 0 on the open upper half plane plus the positive x-axis, 1 otherwise
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def angle_less(u, v):
        hu, hv = half(u), half(v)
        return hu < hv if hu != hv else cross(u, v) > 0

    n = len(rays)
    return sum(1 for j in range(n) if angle_less(rays[(j + 1) % n], rays[j]))


def fraction_shoelace(vertices) -> Fraction:
    """Reference signed shoelace area: the sum is accumulated in Fractions."""
    if len(vertices) < 3:
        return Fraction(0)
    twice = Fraction(0)
    for i, (x0, y0) in enumerate(vertices):
        x1, y1 = vertices[(i + 1) % len(vertices)]
        twice += x0 * y1 - x1 * y0
    return twice / 2


@dataclass(frozen=True)
class FractionHull:
    """The reference hull's vertices and its area, taken by fraction_shoelace."""

    vertices: tuple
    area: Fraction


def chain_hull(points) -> FractionHull:
    """Reference monotone chain over the sorted distinct points, in the points' own
    arithmetic, and its area by fraction_shoelace. It builds no library Polygon,
    whose area comes from the code under test."""
    pts = sorted(set(points))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    if len(pts) == 1:
        return FractionHull((pts[0],), Fraction(0))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    if len(hull) < 3:
        return FractionHull((pts[0], pts[-1]), Fraction(0))
    return FractionHull(tuple(hull), fraction_shoelace(hull))


def fraction_hull(points) -> FractionHull:
    """Reference convex hull: every point is promoted to a Fraction pair first."""
    return chain_hull((Fraction(p[0]), Fraction(p[1])) for p in points)


def set_int_pairs(pts) -> bool:
    """Reference int-pair test: the sets of the point types, the point lengths and the
    coordinate types are {tuple}, {2} and {int}; no points is no int pairs."""
    return (set(map(type, pts)) == {tuple} and set(map(len, pts)) == {2}
            and set(map(type, chain.from_iterable(pts))) == {int})


def four_pass_strictly_convex(xs, ys) -> bool:
    """Reference convexity check: the edge list, the list of edges in the upper half-plane
    [0, pi), every turn left, and the winding, the edges entering that half-plane, once."""
    e = [(xs[i] - xs[i - 1], ys[i] - ys[i - 1]) for i in range(len(xs))]
    up = [dy > 0 or (dy == 0 and dx > 0) for dx, dy in e]
    return (all(ax * by - ay * bx > 0 for (ax, ay), (bx, by) in zip(e[-1:] + e[:-1], e))
            and sum(b and not a for a, b in zip(up[-1:] + up[:-1], up)) == 1)


def reference_kernels(mp) -> None:
    """Put ``set_int_pairs`` and ``four_pass_strictly_convex`` in place of the one-loop
    ``lattice`` kernels, for ``convex_hull_2d`` and ``Polygon``."""
    mp.setattr(lattice, "_int_pairs", set_int_pairs)
    mp.setattr(lattice, "_strictly_convex", four_pass_strictly_convex)


def spy_hull_passes(mp) -> list:
    """One entry per ``monotone_chain`` call inside ``convex_hull_2d`` and per
    ``_strictly_convex`` call, "chain" or "convex", in call order."""
    calls, chain, convex = [], lattice.monotone_chain, lattice._strictly_convex

    def chain_spy(points):
        calls.append("chain")
        return chain(points)

    def convex_spy(xs, ys):
        calls.append("convex")
        return convex(xs, ys)

    mp.setattr(lattice, "monotone_chain", chain_spy)
    mp.setattr(lattice, "_strictly_convex", convex_spy)
    return calls


def lattice_ends(cycle, m: int) -> list[tuple[int, int]] | None:
    """Reference lattice test, vertex by vertex: the vertices of the level-1 walked cycle
    ``TorusDivisor._section_polygon`` times the level m, in order, if W divides mX and mY
    for every one, else None."""
    ends = []
    for _, (X, Y, W) in cycle:
        X, Y = m * X, m * Y
        if X % W or Y % W:
            return None
        ends.append((X // W, Y // W))
    return ends


def m_scaled_level_hull(D: TorusDivisor, flag, m: int) -> lattice.Polygon:
    """Reference level hull, the level-m lattice path the library replaced: where the level-m
    cycle passes the per-vertex ``lattice_ends`` test, its ends, each valued by one
    ``Rank2Valuation.value`` call, hulled in ints and divided by m as ``Fraction(x, m)`` with the
    area over m^2, at every such m; any other level through the library's column path, divided
    the same way. The level, the flag and an empty level raise the library's errors."""
    m = index(m)
    w = flag_valuation(D.fan, flag)
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    cycle = D._section_polygon
    ends = lattice_ends(cycle, m)
    if ends is None:
        ends = [(x, y) for x, lo, hi in divisors._hull_columns(cycle, m) for y in (lo, hi)]
    if not ends:
        raise ValueError(f"no sections at level {m}")
    hull = lattice.convex_hull_2d(map(w.value, ends))
    area = Fraction(hull.area.numerator, hull.area.denominator * m * m)
    return lattice._checked(tuple((Fraction(x, m), Fraction(y, m)) for x, y in hull.vertices), area)


def box_section_points(D: TorusDivisor, m: int) -> list[tuple[int, int]]:
    """Reference section scan: every point of the bounding box of the scaled
    cocycle characters tested against every ray inequality, O(box * n)."""
    h = D.cocycle
    xs = [m * e[0] for e in h]
    ys = [m * e[1] for e in h]
    bounds = [-m * d for d in D.coeffs]
    return [(x, y)
            for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
            if all(x * r[0] + y * r[1] >= b for r, b in zip(D.fan.rays, bounds))]


def crossing_polygon(D: TorusDivisor, m: int) -> tuple:
    """Reference section polygon mP_D = {h : <h, ray_i> >= -m*d_i}, O(n^3): every crossing of
    two ray lines, in Fractions, that satisfies every inequality, hulled by ``chain_hull``;
    () when mP_D is empty. Every vertex of a bounded polygon is such a crossing."""
    rows = [(r, -m * d) for r, d in zip(D.fan.rays, D.coeffs)]
    corners = []
    for i, (ri, bi) in enumerate(rows):
        for rk, bk in rows[i + 1:]:
            if det := cross(ri, rk):
                p = Fraction(bi * rk[1] - bk * ri[1], det), Fraction(ri[0] * bk - rk[0] * bi, det)
                if all(p[0] * r[0] + p[1] * r[1] >= b for r, b in rows):
                    corners.append(p)
    return chain_hull(corners).vertices if corners else ()


def section_columns(D: TorusDivisor, m: int = 1) -> list[tuple[int, int, int]]:
    """Reference column scan: the nonempty columns (x, lo, hi) of the level-m sections, in
    increasing x. Every column of the bounding box of the scaled cocycle characters is cut
    to the rows [lo, hi] every ray inequality <h, ray> >= -m*d allows (exact floor and
    ceiling division), O(width * n). A level below 1 raises the level hull's ValueError,
    and a box of more than ``BOX_SCAN_LIMIT`` points raises ValueError, both before the scan."""
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    h = D.cocycle
    xs = [m * e[0] for e in h]
    ys = [m * e[1] for e in h]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    box = (x1 - x0 + 1) * (y1 - y0 + 1)
    if box > BOX_SCAN_LIMIT:
        raise ValueError(f"level {m} has a box of {box} candidate points, "
                         f"more than the limit of {BOX_SCAN_LIMIT}")
    out = []
    for x in range(x0, x1 + 1):
        lo, hi = y0, y1
        for (r0, r1), d in zip(D.fan.rays, D.coeffs):
            slack = x * r0 + m * d  # the inequality reads y*r1 >= -slack
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


def section_lattice_points(D: TorusDivisor, m: int = 1) -> list[tuple[int, int]]:
    """Reference section list: all characters h with <h, ray_i> >= -m*d_i for every ray,
    sorted, the points of ``section_columns`` column by column."""
    return [(x, y) for x, lo, hi in section_columns(D, m) for y in range(lo, hi + 1)]


def graded_semigroup(D: TorusDivisor, flag, m_max: int) -> set[tuple[tuple[int, int], int]]:
    """Reference graded semigroup: pairs (valuation of section, level) for all levels 0..m_max."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    w = flag_valuation(D.fan, flag)
    out = {((0, 0), 0)}
    for m in range(1, m_max + 1):
        for e in section_lattice_points(D, m):
            out.add((w.value(e), m))
    return out


def all_points_level_hull(w: Rank2Valuation, sections, m: int) -> FractionHull:
    """Reference level hull: every section valued, the values hulled by
    ``chain_hull`` in ints, and the vertices scaled by 1/m."""
    vertices = tuple((Fraction(x, m), Fraction(y, m))
                     for x, y in chain_hull(map(w.value, sections)).vertices)
    return FractionHull(vertices, fraction_shoelace(vertices))


def column_end_level_hull(D: TorusDivisor, flag, m: int) -> FractionHull:
    """Reference level hull over every column: the ends of each ``section_columns``
    column hulled by ``chain_hull``, only its vertices valued and hulled again, and
    those scaled by 1/m; an empty level raises ValueError as the library does."""
    w = flag_valuation(D.fan, flag)
    cols = section_columns(D, m)
    if not cols:
        raise ValueError(f"no sections at level {m}")
    ends = chain_hull((x, y) for x, lo, hi in cols for y in (lo, hi)).vertices
    return all_points_level_hull(w, ends, m)


def _frac(q) -> str:
    return "-" if q is None else str(Fraction(q))


@dataclass(frozen=True)
class Term:
    """One signed simplex of a flag's contribution: ``matrix`` has the two
    valuation components as rows and the two kept local equations as
    columns; ``signed_volume`` is (-1)^omitted * det/2."""

    omitted: int
    sections_used: tuple[int, int]
    matrix: tuple[tuple[int, int], tuple[int, int]]
    signed_volume: Fraction


def fraction_terms(charts, vectors) -> tuple[Fraction, tuple[Term, ...]]:
    """Reference per-flag layout: term k omits the k-th chart and vector and
    keeps the other two in order. Returns (subtotal, terms) as Fractions."""
    terms = []
    twice = 0
    for omitted in range(3):
        kept = [m for m in range(3) if m != omitted]
        c0, c1 = vectors[kept[0]], vectors[kept[1]]
        matrix = ((c0[0], c1[0]), (c0[1], c1[1]))
        det = (-1) ** omitted * (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0])
        terms.append(Term(
            omitted=omitted,
            sections_used=(charts[kept[0]], charts[kept[1]]),
            matrix=matrix,
            signed_volume=Fraction(det, 2),
        ))
        twice += det
    return Fraction(twice, 2), tuple(terms)


def fraction_flag_contribution(D: TorusDivisor, flag, dec):
    """Reference route 3 at one flag, computed from D: (subtotal, terms) as in
    ``fraction_terms``."""
    w = flag_valuation(D.fan, flag)
    charts = (dec.generic_owner, dec.ray_owner[flag.ray], flag.cone)
    return fraction_terms(charts, [w.value(D.cocycle[a]) for a in charts])


def reference_flag_contribution(D: TorusDivisor, flag, dec) -> FlagContribution:
    """Reference route 3 at one flag in ints: the chart's ``value`` of the three
    local equations and the ``cross`` of each pair of them."""
    w = flag_valuation(D.fan, flag)
    charts = (dec.generic_owner, dec.ray_owner[flag.ray], flag.cone)
    u, v, x = vectors = tuple(w.value(D.cocycle[a]) for a in charts)
    dets = (cross(v, x), -cross(u, x), cross(u, v))
    return FlagContribution(flag, charts, vectors, dets, sum(dets))


VALUE_KEYS = ("area_polytope", "half_self_intersection", "simplex_sum",
              "symbol_sum_half", "trivialization_area")


def report_dict(report) -> dict:
    """Reference JSON report: the whole report as one dict for
    json.dumps(..., indent=2), per-flag data included."""
    out: dict = {"ample": report.ample, "agree": report.agree}
    if not report.ample:
        out["diagnostics"] = list(report.diagnostics)
        return out
    out["values"] = dict(zip(VALUE_KEYS, map(_frac, report.values)))
    out["self_intersection"] = report.twice[1]  # D.D
    out["display_flag"] = {"ray": report.display_flag.ray, "cone": report.display_flag.cone}
    out["contributing_flags"] = [[f.ray, f.cone] for f in report.contributing_flags]
    out["per_flag"] = []
    for c in report.per_flag:
        subtotal, terms = fraction_terms(c.charts, c.vectors)
        out["per_flag"].append({
            "flag": [c.flag.ray, c.flag.cone],
            "subtotal": _frac(subtotal),
            "terms": [
                {
                    "omitted": t.omitted,
                    "sections": list(t.sections_used),
                    "matrix": [list(t.matrix[0]), list(t.matrix[1])],
                    "signed_volume": _frac(t.signed_volume),
                    "residue_degree": 1,
                }
                for t in terms
            ],
        })
    return out


def report_text(report) -> str:
    """Reference text report: its lines joined by newlines, each term from
    ``fraction_terms``."""
    if not report.ample:
        return "\n".join(["ample: false", *(f"  {d}" for d in report.diagnostics)])
    area, half_dsq, simplex, symbol_half, triv = map(_frac, report.values)
    f = report.display_flag
    cf = [f"(ray {g.ray}, cone {g.cone})" for g in report.contributing_flags]
    lines = [
        f"area(P_D)              = {area}",
        f"D.D / 2                = {half_dsq}   (D.D = {report.twice[1]})",
        f"simplex sum            = {simplex}",
        f"symbol sum / 2         = {symbol_half}",
        f"trivialization area    = {triv}   (flag ray {f.ray}, cone {f.cone})",
        f"contributing flags     : {', '.join(cf) if cf else 'none'}",
    ]
    for c in report.per_flag:
        subtotal, terms = fraction_terms(c.charts, c.vectors)
        lines.append(f"flag (ray {c.flag.ray}, cone {c.flag.cone}): subtotal {_frac(subtotal)}")
        for t in terms:
            lines.append(f"    omit {t.omitted}: sections {t.sections_used} "
                         f"matrix {t.matrix} volume {_frac(t.signed_volume)}")
    lines.append(f"agree: {'true' if report.agree else 'false'}")
    return "\n".join(lines)


def report_csv(report) -> str:
    """Reference CSV report: the header and one row, each route's volume from
    ``report.values`` except D.D itself in the dsq column; `-` in every route
    cell for non-ample input."""
    if report.ample:
        area, half_dsq, simplex, symbol_half, triv = report.values
        cells = [_frac(area), _frac(2 * half_dsq), _frac(simplex), _frac(symbol_half), _frac(triv)]
    else:
        cells = ["-"] * 5
    cells.append("true" if report.agree else "false")
    return "area,dsq,simplex_sum,symbol_sum,triv_area,agree\n" + ",".join(cells)


@dataclass(frozen=True)
class Monomial:
    """Reference monomial c * x^e; the coefficient is read as a Fraction, so
    powers stay exact for negative exponents."""

    coeff: Fraction
    exponent: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def __mul__(self, other: "Monomial") -> "Monomial":
        (a, b), (c, d) = self.exponent, other.exponent
        return Monomial(self.coeff * other.coeff, (a + c, b + d))

    def __pow__(self, k: int) -> "Monomial":
        return Monomial(self.coeff ** k, (k * self.exponent[0], k * self.exponent[1]))


def reference_tame_boundary(w: Rank2Valuation, terms) -> list[tuple[Fraction, int]]:
    """Reference first boundary of the (mult, f, g) terms, one residue c * t^k
    per term as (c, k): the monomial g^v(f) * f^-v(g) is built as an object
    and reduced, then the sign (-1)^(v(f)v(g)) is applied."""
    out = []
    for _, f, g in terms:
        vf, vg = dot(f.exponent, w.first_ray), dot(g.exponent, w.first_ray)
        u = g ** vf * f ** -vg
        v, t = w.value(u.exponent)
        assert v == 0, "the closed form's monomial has curve valuation 0"
        out.append((-u.coeff if vf * vg % 2 else u.coeff, t))
    return out


def reference_iterated_boundary(w: Rank2Valuation, terms) -> int:
    """Reference second boundary: the orders of the reference residues."""
    return sum(mult * t for (mult, _, _), (_, t) in zip(terms, reference_tame_boundary(w, terms)))


def cech_cocycle(cocycle, a: int, b: int) -> tuple[int, int]:
    """Transition character f_ab = h_b / h_a, as an exponent vector."""
    ha, hb = cocycle[a], cocycle[b]
    return (hb[0] - ha[0], hb[1] - ha[1])


def reference_symbol_sum(D: TorusDivisor, dec) -> int:
    """Reference route 4, one flag at a time: the object oracle's iterated boundary of
    {f_(a0 a1), f_(a1 c)} as unit monomials, a0 the dense orbit's owner, a1 the flag
    curve's and c the flag point's, summed over the flag charts."""
    h, a0 = D.cocycle, dec.generic_owner
    total = 0
    for (ray, cone), w in D.fan.charts.items():
        a1 = dec.ray_owner[ray]
        f, g = Monomial(1, cech_cocycle(h, a0, a1)), Monomial(1, cech_cocycle(h, a1, cone))
        total += reference_iterated_boundary(w, [(1, f, g)])
    return total


def cocycle_expansion(cocycle, alphas) -> list:
    """Alternating three-term rewriting +{h_a1, h_a2} - {h_a0, h_a2} + {h_a0, h_a1}
    of the transition symbol {f_a0a1, f_a1a2}, as exponent terms: its boundary
    at every flag equals the transition symbol's."""
    h0, h1, h2 = (cocycle[a] for a in alphas)
    return [(1, h1, h2), (-1, h0, h2), (1, h0, h1)]


def random_exponent(rng: random.Random, span: int = 10) -> tuple[int, int]:
    return rng.randint(-span, span), rng.randint(-span, span)


def random_monomial(rng: random.Random, span: int = 10) -> Monomial:
    coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        coeff = -coeff
    return Monomial(coeff, random_exponent(rng, span))


def random_flag(rng: random.Random, fan):
    return rng.choice(list(fan.charts))


def ruled_divisor(l, a, b):
    """a D_1 + b D_2 on F_l, the divisors of the Hirzebruch grid."""
    return TorusDivisor(hirzebruch_fan(l), (0, a, b, 0))


def hirzebruch_grid():
    """The 100-instance family: l in 1..4, a in 1..5, b in la+1..la+5."""
    for l in range(1, 5):
        for a in range(1, 6):
            for extra in range(1, 6):
                yield l, a, l * a + extra
