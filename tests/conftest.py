"""Shared deterministic samplers for fan and divisor instances, the
deterministic hypothesis profile, and the reference implementations the
faster library code is checked against: the pairwise positivity scan, the
all-Fraction shoelace sum and convex hull, the bounding-box section scan,
the per-flag simplex terms built as Fractions, and the report writers they
feed: the dict the JSON report used to be dumped from and the text report
printed term by term."""

import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import settings

from toricvol import (
    MonomialFn,
    NotAmple,
    Polygon,
    TorusDivisor,
    ampleness_violations,
    divisor,
    dot,
    enumerate_tflags,
    flag_valuation,
    is_ample,
    projective_plane_fan,
    star_subdivide,
)

# Same examples on every run, so a tier-1 failure reproduces exactly.
settings.register_profile("deterministic", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("deterministic")


def random_smooth_fan(rng: random.Random, max_subdivisions: int = 5):
    """Iterated star subdivisions of the projective-plane fan."""
    fan = projective_plane_fan()
    for _ in range(rng.randint(0, max_subdivisions)):
        fan = star_subdivide(fan, rng.randrange(fan.n_rays))
    return fan


def sample_ample_divisor(rng: random.Random, fan, bound: int = 6, tries: int = 400):
    """Rejection-sample an ample divisor with small coefficients, or None."""
    for _ in range(tries):
        D = divisor(fan, [rng.randint(-bound, bound) for _ in range(fan.n_rays)])
        if is_ample(D):
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
    new ray d_u + d_v and E is the new ray's curve. k = 2 always works: E
    has degree 1, its two neighbours lose 1 from k times a positive degree,
    and every other degree is scaled by k. These fans are out of reach of
    ``random_ample_instance``, whose small coefficients stop being ample
    after a few blowups of one point.
    """
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
            if is_ample(divisor(fan, new_d)):
                break
        else:
            raise AssertionError("k = 2 must give an ample divisor")
        d = new_d
    return divisor(fan, d)


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


def fraction_shoelace(vertices) -> Fraction:
    """Reference signed shoelace area: the sum is accumulated in Fractions."""
    if len(vertices) < 3:
        return Fraction(0)
    twice = Fraction(0)
    for i, (x0, y0) in enumerate(vertices):
        x1, y1 = vertices[(i + 1) % len(vertices)]
        twice += x0 * y1 - x1 * y0
    return twice / 2


def fraction_hull(points) -> Polygon:
    """Reference convex hull: every point is promoted to a Fraction pair first."""
    pts = sorted({(Fraction(p[0]), Fraction(p[1])) for p in points})
    if not pts:
        raise ValueError("convex hull of an empty point set")
    if len(pts) == 1:
        return Polygon((pts[0],), Fraction(0))

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
        return Polygon((pts[0], pts[-1]), Fraction(0))
    return Polygon(tuple(hull), fraction_shoelace(hull))


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
    if dec.fan != D.fan:
        raise ValueError("decomposition belongs to a different fan")
    if not is_ample(D):
        j, i = ampleness_violations(D)[0]
        raise NotAmple(f"divisor is not ample (first witness: cone {j}, ray {i})")
    w = flag_valuation(D.fan, flag)
    charts = (dec.generic_owner, dec.ray_owner[flag.ray], flag.cone)
    return fraction_terms(charts, [w.value(D.cocycle[a]) for a in charts])


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
    out["self_intersection"] = report.self_intersection
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
    """Reference text report: the lines printed one by one, each term from
    ``fraction_terms``."""
    if not report.ample:
        lines = ["ample: false", *(f"  {d}" for d in report.diagnostics)]
        return "".join(f"{line}\n" for line in lines)
    area, half_dsq, simplex, symbol_half, triv = map(_frac, report.values)
    f = report.display_flag
    cf = [f"(ray {g.ray}, cone {g.cone})" for g in report.contributing_flags]
    lines = [
        f"area(P_D)              = {area}",
        f"D.D / 2                = {half_dsq}   (D.D = {report.self_intersection})",
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
    return "".join(f"{line}\n" for line in lines)


def random_monomial(rng: random.Random, span: int = 10) -> MonomialFn:
    coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        coeff = -coeff
    return MonomialFn(coeff, (rng.randint(-span, span), rng.randint(-span, span)))


def random_flag(rng: random.Random, fan):
    return rng.choice(enumerate_tflags(fan))


def hirzebruch_grid():
    """The 100-instance family: l in 1..4, a in 1..5, b in la+1..la+5."""
    for l in range(1, 5):
        for a in range(1, 6):
            for extra in range(1, 6):
                yield l, a, l * a + extra
