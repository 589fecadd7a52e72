"""Seeded input generators for the benchmark workloads.

Each generator takes a `random.Random` and returns plain rays and
coefficients; only `oracle` is used to test ampleness, never the library.
"""

from __future__ import annotations

import random

import oracle

P2_RAYS = [(1, 0), (0, 1), (-1, -1)]


def hirzebruch_rays(l: int) -> list[tuple[int, int]]:
    return [(1, 0), (0, 1), (-1, l), (0, -1)]


def grid_instances() -> list[tuple[int, int, int]]:
    """The ruled-surface grid: l 1..4, a 1..5, b = l*a + extra, extra 0..5.

    extra = 0 gives the 20 nef-but-not-ample rows, the other 100 are ample.
    """
    return [(l, a, l * a + extra)
            for l in range(1, 5) for a in range(1, 6) for extra in range(6)]


def deep_fan(n: int, rng: random.Random) -> tuple[list[tuple[int, int]], list[int]]:
    """An ample divisor on a fan with n rays, by repeated star subdivision of P^2.

    Each step inserts u+v into a random cone (u, v) and replaces D by
    k*pi^*D - E for the smallest k >= 1 that is ample. pi^*D gives the new
    ray d_u + d_v and E is the new ray's curve. k = 2 always works: E has
    degree 1, its two neighbours lose 1 from k times a positive degree, and
    every other degree is scaled by k.
    """
    rays = list(P2_RAYS)
    d = [0, 0, 0]
    while sum(d) <= 0:
        d = [rng.randint(0, 3) for _ in range(3)]
    while len(rays) < n:
        j = rng.randrange(len(rays))
        u, v = rays[j], rays[(j + 1) % len(rays)]
        new_rays = rays[:j + 1] + [(u[0] + v[0], u[1] + v[1])] + rays[j + 1:]
        dw = d[j] + d[(j + 1) % len(d)]
        for k in (1, 2):
            new_d = [k * x for x in d[:j + 1]] + [k * dw - 1] + [k * x for x in d[j + 1:]]
            if oracle.is_ample(new_rays, new_d):
                break
        else:
            raise RuntimeError("k = 2 must give an ample divisor")
        rays, d = new_rays, new_d
    return rays, d


def semigroup_candidates(lo: int = 750, hi: int = 1500) -> list[tuple[int, int, int, int]]:
    """Ample Hirzebruch (l, a, b) whose level-5 polytope has lo..hi lattice points.

    Returned as (scan cost, l, a, b), sorted by the scan cost: the bounding
    boxes scanned at levels 1..5 plus the level-5 points. a <= 10 suffices:
    for a >= 11 the level-5 count already exceeds 1500 at the smallest
    ample b.
    """
    out = []
    for l in range(1, 5):
        rays = hirzebruch_rays(l)
        for a in range(1, 11):
            for b in range(l * a + 1, l * a + 200):
                pts = oracle.lattice_points(rays, (0, a, b, 0), 5)
                if lo <= pts <= hi:
                    cost = pts + sum(oracle.box_candidates(rays, (0, a, b, 0), m)
                                     for m in range(1, 6))
                    out.append((cost, l, a, b))
    return sorted(out)


def semigroup_instances(rng: random.Random, count: int = 16) -> list[tuple[int, int, int]]:
    """One seeded (l, a, b) from each of `count` strata of the candidates by scan cost.

    Stratifying keeps the mix of sizes, and so the per-run median, nearly the
    same for every seed: the mean scan cost has a standard deviation under
    1% across seeds.
    """
    cands = semigroup_candidates()
    size = len(cands) // count
    return [rng.choice(cands[s * size:(s + 1) * size])[1:] for s in range(count)]
