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
    cech_cocycle,
    cocycle_expansion,
    det_formula_check,
    divisor,
    divisor_polytope,
    enumerate_tflags,
    flag_contribution,
    flag_valuation,
    hirzebruch_fan,
    intersection_number_via_symbols,
    iterated_boundary,
    monomial,
    okounkov_volume_report,
    self_intersection_classical,
    semigroup_level_hull,
    simplex_sum_volume,
    standard_decomposition,
    symbol,
    trivialization_polytope,
    valuation_via_symbols,
)
from conftest import (
    hirzebruch_grid,
    random_ample_instance,
    random_flag,
    random_monomial,
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
        yield l, a, b, divisor(hirzebruch_fan(l), (0, a, b, 0))


def test_criterion_1_grid_exactness():
    with criterion(1, "100-instance grid, five exactly equal values, < 10 s"):
        start = time.monotonic()
        count = 0
        for l, a, b, D in grid_instances():
            expected = Fraction(2 * a * b - l * a * a, 2)
            report = okounkov_volume_report(D, display_flag=TFlag(2, 1))
            assert report.ample and report.agree, (l, a, b)
            assert set(report.values) == {expected}, (l, a, b)
            assert report.self_intersection == 2 * a * b - l * a * a, (l, a, b)
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
            for flag in enumerate_tflags(D.fan):
                if flag in (TFlag(2, 1), TFlag(3, 2)):
                    continue
                assert flag_contribution(D, flag, dec).twice == 0, (l, a, b, flag)


def test_criterion_3_determinant_formula_property():
    with criterion(3, "1000 boundary-vs-determinant cases + 100 uniformizer twists"):
        rng = random.Random(2024)
        fans = [hirzebruch_fan(l) for l in (1, 2, 3)]
        for _ in range(1000):
            fan = rng.choice(fans)
            flag = random_flag(rng, fan)
            f, g = random_monomial(rng), random_monomial(rng)
            # the pairing-route determinant against the symbol-route boundary
            assert det_formula_check(fan, flag, f, g)
        for _ in range(100):
            fan = rng.choice(fans)
            flag = random_flag(rng, fan)
            w = flag_valuation(fan, flag)
            twist = (monomial(w.pi1) * (monomial(w.pi2) ** rng.randint(-3, 3))) \
                * monomial((0, 0), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            f, g = random_monomial(rng), random_monomial(rng)
            w_f = valuation_via_symbols(fan, flag, f, pi1=twist)
            w_g = valuation_via_symbols(fan, flag, g, pi1=twist)
            det = w_f[0] * w_g[1] - w_g[0] * w_f[1]
            assert iterated_boundary(fan, flag, symbol(f, g)) == det


def test_criterion_4_cocycle_expansion_identity():
    with criterion(4, "transition symbol equals alternating expansion, 8 flags x 64 triples"):
        D = divisor(hirzebruch_fan(1), (0, 1, 2, 0))
        h = D.cocycle
        n = D.fan.n_rays
        checked = 0
        for flag in enumerate_tflags(D.fan):
            for a0 in range(n):
                for a1 in range(n):
                    for a2 in range(n):
                        direct = symbol(monomial(cech_cocycle(h, a0, a1)),
                                        monomial(cech_cocycle(h, a1, a2)))
                        expansion = cocycle_expansion(h, (a0, a1, a2))
                        assert (iterated_boundary(D.fan, flag, direct)
                                == iterated_boundary(D.fan, flag, expansion)), \
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
            totals = {
                simplex_sum_volume(D, standard_decomposition(D.fan, v))
                for v in ("default", "successor", "generic-at=1")
            }
            assert totals == {area}, D
            for v in ("default", "successor", "generic-at=1"):
                dec = standard_decomposition(D.fan, v)
                assert Fraction(intersection_number_via_symbols(D, dec), 2) == area, D
            flag_areas = {
                trivialization_polytope(D, flag).area
                for flag in enumerate_tflags(D.fan)
            }
            assert flag_areas == {area}, D
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"random-fan suite took {elapsed:.2f}s"


def test_criterion_6_graded_semigroup_hulls():
    with criterion(6, "scaled level-m semigroup hull equals the image polytope, m = 1..5"):
        idx = 0
        for l, a, b, D in grid_instances():
            flags = enumerate_tflags(D.fan)
            flag = flags[idx % len(flags)]
            idx += 1
            target = set(trivialization_polytope(D, flag).vertices)
            for m in range(1, 6):
                got = set(semigroup_level_hull(D, flag, m).vertices)
                assert got == target, (l, a, b, flag, m)
