import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toricvol import (
    MonomialFn,
    ResidueElement,
    SymbolK2,
    TFlag,
    cech_cocycle,
    cocycle_expansion,
    det_formula_check,
    divisor,
    dot,
    enumerate_tflags,
    flag_valuation,
    hirzebruch_fan,
    intersection_number_via_symbols,
    iterated_boundary,
    monomial,
    projective_plane_fan,
    self_intersection_classical,
    specialization,
    standard_decomposition,
    symbol,
    tame_boundary,
    valuation_via_symbols,
)
from conftest import deep_ample_instance, random_ample_instance, random_flag, random_monomial


def ruled_divisor(l, a, b):
    return divisor(hirzebruch_fan(l), (0, a, b, 0))


class TestMonomialFn:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MonomialFn(Fraction(0), (1, 0))

    def test_arithmetic(self):
        f = monomial((2, -1), Fraction(3, 2))
        g = monomial((1, 1), -2)
        assert f * g == monomial((3, 0), -3)
        assert f ** -2 == monomial((-4, 2), Fraction(4, 9))


_EXPONENTS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
_POWERS = st.integers(-7, 7)


class TestIntCoefficients:
    # route 4's monomials carry int coefficients; int ** k is a float for k < 0,
    # so the powers must stay exact and agree with the Fraction-coefficient ones

    @given(c=st.sampled_from([1, -1]), d=st.sampled_from([1, -1]), e=_EXPONENTS,
           e2=_EXPONENTS, k=_POWERS, j=_POWERS)
    def test_unit_coefficients_stay_ints(self, c, d, e, e2, k, j):
        f, g = MonomialFn(c, e), MonomialFn(d, e2)
        F, G = MonomialFn(Fraction(c), e), MonomialFn(Fraction(d), e2)
        for got, want in [(f ** k, F ** k), (f * g, F * G), ((g ** j) * (f ** k), (G ** j) * (F ** k))]:
            assert got == want and type(got.coeff) is int
        r, R = ResidueElement(c, e[0]), ResidueElement(Fraction(c), e[0])
        assert r ** k == R ** k and type((r ** k).coeff) is int

    @given(c=st.integers(-9, 9).filter(bool), e=_EXPONENTS, k=_POWERS)
    def test_other_int_coefficients_stay_exact(self, c, e, k):
        got, want = MonomialFn(c, e) ** k, MonomialFn(Fraction(c), e) ** k
        assert got == want and type(got.coeff) in (int, Fraction)
        res = ResidueElement(c, e[0]) ** k
        assert res == ResidueElement(Fraction(c), e[0]) ** k and type(res.coeff) in (int, Fraction)

    def test_monomial_keeps_an_int_coefficient(self):
        assert type(monomial((1, 2)).coeff) is int
        assert type(monomial((1, 2), -3).coeff) is int
        assert type(monomial((1, 2), Fraction(3, 1)).coeff) is Fraction

    def test_route_4_residues_are_ints(self):
        D = deep_ample_instance(random.Random(5), 16)
        dec = standard_decomposition(D.fan, "successor")
        h = D.cocycle
        for flag in enumerate_tflags(D.fan):
            a1 = dec.ray_owner[flag.ray]
            S = symbol(monomial(cech_cocycle(h, dec.generic_owner, a1)),
                       monomial(cech_cocycle(h, a1, flag.cone)))
            assert all(type(res.coeff) is int for _, res in tame_boundary(D.fan, flag, S))


class TestRayValuation:
    # the order of a monomial along a ray's divisor is the pairing with the ray
    def test_monomial_order(self):
        assert dot(monomial((2, 1)).exponent, (0, 1)) == 1

    def test_worked_value(self):
        for l, b in [(1, 2), (3, 11)]:
            assert dot(monomial((b, 0)).exponent, (-1, l)) == -b

    def test_constants_are_units(self):
        assert dot(monomial((0, 0), 7).exponent, (5, -3)) == 0


class TestTameBoundary:
    def test_uniformizer_unit_rule(self):
        # boundary{pi, u} = reduction of u, for any chart unit u
        rng = random.Random(59)
        for _ in range(50):
            D = random_ample_instance(rng, max_subdivisions=2)
            flag = random_flag(rng, D.fan)
            w = flag_valuation(D.fan, flag)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            k = rng.randint(-4, 4)
            u = (monomial(w.pi2) ** k) * monomial((0, 0), c)
            out = tame_boundary(D.fan, flag, SymbolK2.of((1, (monomial(w.pi1), u))))
            if u.is_one:
                # {pi, 1} normalizes away; an empty boundary is the trivial class
                assert out == []
            else:
                assert out == [(1, ResidueElement(c, k))]

    def test_two_units_rule(self):
        fan = projective_plane_fan()
        flag = TFlag(1, 0)
        pi2 = monomial(flag_valuation(fan, flag).pi2)
        u1, u2 = pi2 ** 2, (pi2 ** -1) * monomial((0, 0), 5)
        [(_, res)] = tame_boundary(fan, flag, SymbolK2.of((1, (u1, u2))))
        assert res.is_one

    def test_coordinate_symbol(self):
        # flag along the second axis in the first chart of the plane:
        # boundary{x, y} is 1/t with t the image of x
        fan = projective_plane_fan()
        out = tame_boundary(fan, TFlag(1, 0), symbol(monomial((1, 0)), monomial((0, 1))))
        assert out == [(1, ResidueElement(Fraction(1), -1))]
        assert iterated_boundary(fan, TFlag(1, 0), symbol(monomial((1, 0)), monomial((0, 1)))) == -1

    def test_leibniz_identity_at_degree_one(self):
        rng = random.Random(61)
        for _ in range(100):
            D = random_ample_instance(rng, max_subdivisions=2)
            flag = random_flag(rng, D.fan)
            w = flag_valuation(D.fan, flag)
            pi1 = monomial(w.pi1)
            f, g = random_monomial(rng, 6), random_monomial(rng, 6)
            vf = dot(f.exponent, w.first_ray)
            vg = dot(g.exponent, w.first_ray)
            sf = specialization(D.fan, flag, pi1, f)
            sg = specialization(D.fan, flag, pi1, g)
            rhs = (sg ** vf) * (sf ** -vg)
            if vf * vg % 2:
                rhs = ResidueElement(-rhs.coeff, rhs.exponent)
            assert tame_boundary(D.fan, flag, symbol(f, g)) == [(1, rhs)]


class TestIteratedBoundary:
    def test_worked_flag_symbols(self):
        fan = hirzebruch_fan(1)
        # transition functions of the divisor with a=1, b=2
        assert iterated_boundary(
            fan, TFlag(2, 1), symbol(monomial((2, 1)), monomial((-1, -1)))) == 1
        assert iterated_boundary(
            fan, TFlag(3, 2), symbol(monomial((0, 1)), monomial((2, 0)))) == 2

    def test_repeated_entry_vanishes(self):
        rng = random.Random(67)
        for _ in range(30):
            D = random_ample_instance(rng, max_subdivisions=2)
            flag = random_flag(rng, D.fan)
            f = random_monomial(rng)
            assert iterated_boundary(D.fan, flag, symbol(f, f)) == 0
            assert iterated_boundary(D.fan, flag, symbol(f, f ** -1)) == 0

    def test_bilinearity_and_antisymmetry(self):
        rng = random.Random(71)
        fan = hirzebruch_fan(2)
        for _ in range(100):
            flag = random_flag(rng, fan)
            f1, f2, g = (random_monomial(rng) for _ in range(3))
            lhs = iterated_boundary(fan, flag, symbol(f1 * f2, g))
            rhs = (iterated_boundary(fan, flag, symbol(f1, g))
                   + iterated_boundary(fan, flag, symbol(f2, g)))
            assert lhs == rhs
            assert (iterated_boundary(fan, flag, symbol(f1, g))
                    == -iterated_boundary(fan, flag, symbol(g, f1)))

    def test_coefficient_blindness(self):
        rng = random.Random(73)
        fan = hirzebruch_fan(1)
        for _ in range(50):
            flag = random_flag(rng, fan)
            f, g = random_monomial(rng), random_monomial(rng)
            scaled = MonomialFn(f.coeff * Fraction(-7, 3), f.exponent)
            assert (iterated_boundary(fan, flag, symbol(f, g))
                    == iterated_boundary(fan, flag, symbol(scaled, g)))


class TestSpecialization:
    def test_unit_reduces_to_itself(self):
        fan = hirzebruch_fan(1)
        flag = TFlag(2, 1)
        w = flag_valuation(fan, flag)
        u = (monomial(w.pi2) ** 3) * monomial((0, 0), Fraction(2, 5))
        assert specialization(fan, flag, monomial(w.pi1), u) == ResidueElement(Fraction(2, 5), 3)

    def test_uniformizer_maps_to_one(self):
        fan = hirzebruch_fan(1)
        pi1 = monomial(flag_valuation(fan, TFlag(2, 1)).pi1)
        assert specialization(fan, TFlag(2, 1), pi1, pi1).is_one

    def test_worked_cancellation(self):
        # f = x^b against the dual uniformizer x^-1 of the worked flag
        fan = hirzebruch_fan(1)
        for b in (2, 5):
            res = specialization(fan, TFlag(2, 1), monomial((-1, 0)), monomial((b, 0)))
            assert res.is_one

    def test_rejects_non_uniformizer(self):
        fan = hirzebruch_fan(1)
        with pytest.raises(ValueError):
            specialization(fan, TFlag(2, 1), monomial((1, 1)), monomial((1, 0)))

    def test_agrees_with_boundary_against_negated_uniformizer(self):
        # the specialization is the boundary of {-pi, f}
        rng = random.Random(79)
        fan = hirzebruch_fan(3)
        for _ in range(60):
            flag = random_flag(rng, fan)
            pi1 = monomial(flag_valuation(fan, flag).pi1)
            f = random_monomial(rng, 6)
            neg_pi = MonomialFn(-pi1.coeff, pi1.exponent)
            [(_, res)] = tame_boundary(fan, flag, SymbolK2.of((1, (neg_pi, f))))
            assert res == specialization(fan, flag, pi1, f)


class TestDeterminantFormula:
    def test_hand_checked_case(self):
        fan = projective_plane_fan()
        assert det_formula_check(fan, TFlag(1, 0), monomial((1, 0)), monomial((0, 1)))

    def test_repeated_slot(self):
        fan = hirzebruch_fan(1)
        f = monomial((3, -2), Fraction(5, 4))
        assert det_formula_check(fan, TFlag(2, 1), f, f)

    def test_random_cases(self):
        rng = random.Random(83)
        fans = [hirzebruch_fan(l) for l in (1, 2, 3)]
        for _ in range(300):
            fan = rng.choice(fans)
            flag = random_flag(rng, fan)
            assert det_formula_check(fan, flag, random_monomial(rng), random_monomial(rng))


class TestValuationViaSymbols:
    def test_worked_column(self):
        fan = hirzebruch_fan(1)
        for b in (2, 7):
            assert valuation_via_symbols(fan, TFlag(2, 1), monomial((b, 0))) == (-b, 0)

    def test_constant_is_zero(self):
        fan = hirzebruch_fan(2)
        assert valuation_via_symbols(fan, TFlag(1, 1), monomial((0, 0), 9)) == (0, 0)

    def test_matches_pairing_valuation(self):
        rng = random.Random(89)
        for _ in range(1000):
            D = random_ample_instance(rng, max_subdivisions=3)
            flag = random_flag(rng, D.fan)
            f = random_monomial(rng)
            w = flag_valuation(D.fan, flag)
            assert valuation_via_symbols(D.fan, flag, f) == w.value(f.exponent)

    def test_twisted_uniformizer_changes_vector_not_determinant(self):
        rng = random.Random(97)
        fan = hirzebruch_fan(2)
        for _ in range(100):
            flag = random_flag(rng, fan)
            w = flag_valuation(fan, flag)
            k = rng.randint(-3, 3)
            c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            twisted = (monomial(w.pi1) * (monomial(w.pi2) ** k)) * monomial((0, 0), c)
            f, g = random_monomial(rng), random_monomial(rng)
            wf = valuation_via_symbols(fan, flag, f, pi1=twisted)
            wg = valuation_via_symbols(fan, flag, g, pi1=twisted)
            det = wf[0] * wg[1] - wg[0] * wf[1]
            assert det == iterated_boundary(fan, flag, symbol(f, g))
            if k != 0 and dot(f.exponent, w.first_ray) != 0:
                assert wf != w.value(f.exponent)

    def test_rejects_non_uniformizer_twist(self):
        fan = hirzebruch_fan(1)
        pi1 = monomial(flag_valuation(fan, TFlag(2, 1)).pi1)
        with pytest.raises(ValueError):
            valuation_via_symbols(fan, TFlag(2, 1), monomial((1, 0)), pi1=pi1 ** 2)


class TestCocycleExpansion:
    def test_degenerate_triple_has_zero_boundary(self):
        D = ruled_divisor(1, 1, 2)
        h = D.cocycle
        S = cocycle_expansion(h, (0, 0, 2))
        for flag in enumerate_tflags(D.fan):
            assert iterated_boundary(D.fan, flag, S) == 0

    def test_worked_triple(self):
        D = ruled_divisor(1, 1, 2)
        h = D.cocycle
        S = cocycle_expansion(h, (0, 2, 1))
        assert iterated_boundary(D.fan, TFlag(2, 1), S) == 1

    def test_matches_transition_symbol_everywhere(self):
        D = ruled_divisor(1, 1, 2)
        h = D.cocycle
        n = D.fan.n_rays
        for flag in enumerate_tflags(D.fan):
            for a0 in range(n):
                for a1 in range(n):
                    for a2 in range(n):
                        direct = symbol(monomial(cech_cocycle(h, a0, a1)),
                                        monomial(cech_cocycle(h, a1, a2)))
                        assert (iterated_boundary(D.fan, flag, direct)
                                == iterated_boundary(D.fan, flag,
                                                     cocycle_expansion(h, (a0, a1, a2))))


class TestIntersectionNumber:
    def test_worked_instance(self):
        D = ruled_divisor(1, 1, 2)
        assert intersection_number_via_symbols(D, standard_decomposition(D.fan)) == 3

    def test_zero_divisor(self):
        D = ruled_divisor(1, 0, 0)
        assert intersection_number_via_symbols(D, standard_decomposition(D.fan)) == 0

    def test_closed_form_on_family(self):
        for l in (1, 2, 3):
            fan = hirzebruch_fan(l)
            dec = standard_decomposition(fan)
            for a in (1, 2):
                for b in (l * a + 1, l * a + 3):
                    D = divisor(fan, (0, a, b, 0))
                    assert intersection_number_via_symbols(D, dec) == 2 * a * b - l * a * a

    def test_decomposition_invariance(self):
        rng = random.Random(101)
        for _ in range(15):
            D = random_ample_instance(rng)
            classical = self_intersection_classical(D)
            for variant in ("default", "successor", "generic-at=1", "generic-at=2"):
                dec = standard_decomposition(D.fan, variant)
                assert intersection_number_via_symbols(D, dec) == classical


class TestOneChartPerCall:
    # each call builds its flag's chart once and hands it to the boundary map

    @pytest.fixture
    def charts(self, monkeypatch):
        import toricvol.milnor_k as milnor_k
        calls = []

        def spy(fan, flag):
            calls.append(flag)
            return flag_valuation(fan, flag)
        monkeypatch.setattr(milnor_k, "flag_valuation", spy)
        return calls

    def test_valuation_via_symbols(self, charts):
        fan = hirzebruch_fan(1)
        assert valuation_via_symbols(fan, TFlag(2, 1), monomial((3, 0))) == (-3, 0)
        assert charts == [TFlag(2, 1)]

    def test_det_formula_check(self, charts):
        fan = hirzebruch_fan(1)
        assert det_formula_check(fan, TFlag(2, 1), monomial((3, -2)), monomial((1, 4)))
        assert charts == [TFlag(2, 1)]

    def test_route_4_builds_its_own_chart_per_flag(self, charts):
        D = ruled_divisor(1, 1, 2)
        assert intersection_number_via_symbols(D, standard_decomposition(D.fan)) == 3
        assert charts == enumerate_tflags(D.fan)
