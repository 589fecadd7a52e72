"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Every comparison is exact (Fraction/int equality, zero tolerance).
"""

import contextlib
import random
import time
from fractions import Fraction

from toricvol import (
    TFlag,
    TorusDivisor,
    cross,
    divisor_polytope,
    dot,
    flag_contribution,
    flag_valuation,
    hirzebruch_fan,
    intersection_number_via_symbols,
    iterated_boundary,
    okounkov_volume_report,
    self_intersection_classical,
    semigroup_level_hull,
    standard_decomposition,
    trivialization_polytope,
)
from conftest import (
    cech_cocycle,
    cocycle_expansion,
    hirzebruch_grid,
    random_ample_instance,
    random_exponent,
    random_flag,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} [{description}]: FAIL")
        raise
    print(f"\ncriterion {number} [{description}]: PASS")


def grid_instances():
    for l, a, b in hirzebruch_grid():
        yield l, a, b, TorusDivisor(hirzebruch_fan(l), (0, a, b, 0))


def test_criterion_1_grid_exactness():
    with criterion(1, "100-instance grid, five exactly equal values, < 10 s"):
        start = time.monotonic()
        count = 0
        for l, a, b, D in grid_instances():
            expected = Fraction(2 * a * b - l * a * a, 2)
            report = okounkov_volume_report(D, display_flag=TFlag(2, 1))
            assert report.ample and report.agree, (l, a, b)
            assert set(report.values) == {expected}, (l, a, b)
            assert report.twice == (2 * a * b - l * a * a,) * 5, (l, a, b)
            count += 1
        elapsed = time.monotonic() - start
        assert count == 100
        assert elapsed < 10.0, f"grid took {elapsed:.2f}s"


def test_criterion_2_per_flag_regression():
    with criterion(2, "per-flag contributions on every grid instance"):
        for l, a, b, D in grid_instances():
            dec = standard_decomposition(D.fan)
            # each flag's subtotal and signed volumes, doubled into ints
            first = flag_contribution(D, TFlag(2, 1), dec)
            assert first.twice == a * b - l * a * a, (l, a, b)
            assert first.signed_dets == (a * b, -(l * a * a - a * b), -(a * b)), (l, a, b)
            second = flag_contribution(D, TFlag(3, 2), dec)
            assert second.twice == a * b, (l, a, b)
            for flag in D.fan.charts:
                if flag in (TFlag(2, 1), TFlag(3, 2)):
                    continue
                assert flag_contribution(D, flag, dec).twice == 0, (l, a, b, flag)


def test_criterion_3_determinant_formula_property():
    with criterion(3, "1000 boundary-vs-determinant cases + 100 uniformizer twists"):
        rng = random.Random(2024)
        fans = [hirzebruch_fan(l) for l in (1, 2, 3)]
        for _ in range(1000):
            fan = rng.choice(fans)
            w = flag_valuation(fan, random_flag(rng, fan))
            ef, eg = random_exponent(rng), random_exponent(rng)
            # the pairing-route determinant against the symbol-route boundary
            assert iterated_boundary(w, [(1, ef, eg)]) == cross(w.value(ef), w.value(eg))
        for _ in range(100):
            fan = rng.choice(fans)
            w = flag_valuation(fan, random_flag(rng, fan))
            # the twisted uniformizer pi1 * pi2^k; a unit coefficient would not move the boundary
            k = rng.randint(-3, 3)
            twist = (w.pi1[0] + k * w.pi2[0], w.pi1[1] + k * w.pi2[1])
            ef, eg = random_exponent(rng), random_exponent(rng)
            # valuation vectors through boundaries: curve valuation, then {twist, f}
            w_f, w_g = ((dot(e, w.first_ray), iterated_boundary(w, [(1, twist, e)])) for e in (ef, eg))
            assert iterated_boundary(w, [(1, ef, eg)]) == cross(w_f, w_g)


def test_criterion_4_cocycle_expansion_identity():
    with criterion(4, "transition symbol equals alternating expansion, 8 flags x 64 triples"):
        D = TorusDivisor(hirzebruch_fan(1), (0, 1, 2, 0))
        h = D.cocycle
        n = D.fan.n_rays
        checked = 0
        for flag in D.fan.charts:
            w = flag_valuation(D.fan, flag)
            for a0 in range(n):
                for a1 in range(n):
                    for a2 in range(n):
                        direct = [(1, cech_cocycle(h, a0, a1), cech_cocycle(h, a1, a2))]
                        expansion = cocycle_expansion(h, (a0, a1, a2))
                        assert iterated_boundary(w, direct) == iterated_boundary(w, expansion), \
                            (flag, a0, a1, a2)
                        checked += 1
        assert checked == 8 * 64


def test_criterion_5_decomposition_and_flag_independence():
    with criterion(5, "100 random fans: variant- and flag-independence, < 60 s"):
        start = time.monotonic()
        rng = random.Random(777)
        for _ in range(100):
            D = random_ample_instance(rng, max_subdivisions=5)
            area = divisor_polytope(D).area
            half_dsq = Fraction(self_intersection_classical(D), 2)
            assert area == half_dsq, D
            for dec in (standard_decomposition(D.fan), standard_decomposition(D.fan, "successor"),
                        standard_decomposition(D.fan)._replace(generic_owner=1)):
                twice = sum(flag_contribution(D, f, dec).twice for f in D.fan.charts)
                assert Fraction(twice, 2) == area, D
                assert Fraction(intersection_number_via_symbols(D, dec), 2) == area, D
            flag_areas = {
                trivialization_polytope(D, flag).area
                for flag in D.fan.charts
            }
            assert flag_areas == {area}, D
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"random-fan suite took {elapsed:.2f}s"


def test_criterion_6_graded_semigroup_hulls():
    with criterion(6, "scaled level-m semigroup hull equals the image polytope, m = 1..5"):
        idx = 0
        for l, a, b, D in grid_instances():
            flags = list(D.fan.charts)
            flag = flags[idx % len(flags)]
            idx += 1
            target = set(trivialization_polytope(D, flag).vertices)
            for m in range(1, 6):
                got = set(semigroup_level_hull(D, flag, m).vertices)
                assert got == target, (l, a, b, flag, m)
