"""Shared deterministic samplers for fan and divisor instances, and the
pairwise positivity scan kept as a reference for the curve-degree test."""

import random
from fractions import Fraction

from toricvol import (
    MonomialFn,
    TorusDivisor,
    cartier_data,
    divisor,
    dot,
    enumerate_tflags,
    is_ample,
    projective_plane_fan,
    star_subdivide,
)


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
    h = cartier_data(D)
    out = []
    for j in range(n):
        for i, ray in enumerate(fan.rays):
            slack = dot(h[j], ray) + D.coeffs[i]
            if strict and i not in (j, (j + 1) % n) and slack <= 0:
                out.append((j, i))
            elif not strict and slack < 0:
                out.append((j, i))
    return out


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
