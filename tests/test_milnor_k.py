import random
import sys
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
    flag_valuation,
    hirzebruch_fan,
    intersection_number_via_symbols,
    iterated_boundary,
    monomial,
    okounkov_volume_report,
    projective_plane_fan,
    self_intersection_classical,
    specialization,
    standard_decomposition,
    star_subdivide,
    symbol,
    tame_boundary,
    valuation_via_symbols,
)
from conftest import (
    deep_ample_instance,
    random_ample_instance,
    random_decompositions,
    random_flag,
    random_monomial,
    reference_iterated_boundary,
    reference_tame_boundary,
)


def ruled_divisor(l, a, b):
    return divisor(hirzebruch_fan(l), (0, a, b, 0))


class TestMonomialFn:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MonomialFn(Fraction(0), (1, 0))
        with pytest.raises(ValueError, match="^residue element with zero coefficient$"):
            ResidueElement(0, 1)

    def test_arithmetic(self):
        f = monomial((2, -1), Fraction(3, 2))
        g = monomial((1, 1), -2)
        assert f * g == monomial((3, 0), -3)
        assert f ** -2 == monomial((-4, 2), Fraction(4, 9))


class TestIntExponents:
    # exponents are read with operator.index, so no float reaches a boundary map

    def test_float_exponent_raises(self):
        for make in (lambda: MonomialFn(1, (1.5, 0)), lambda: MonomialFn(3, (0.5, 2)),
                     lambda: monomial((0, 2.0)), lambda: ResidueElement(2, 1.5)):
            with pytest.raises(TypeError):
                make()

    def test_list_exponent_is_the_tuple(self):
        f, g = MonomialFn(1, [1, 0]), MonomialFn(1, (1, 0))
        assert f == g and hash(f) == hash(g) and type(f.exponent) is tuple
        assert monomial([2, -1], 3) == MonomialFn(3, (2, -1))
        assert symbol(f, monomial((0, 1))) == symbol(g, monomial((0, 1)))

    @pytest.mark.parametrize("e", [(), (1,), (1, 0, 0)])
    def test_exponent_of_another_length_raises(self, e):
        with pytest.raises(ValueError):
            MonomialFn(1, e)
        with pytest.raises(ValueError):
            monomial(e)


_EXPONENTS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
_POWERS = st.integers(-7, 7)


class TestIntCoefficients:
    # an int coefficient is stored as a Fraction; int ** k is a float for k < 0,
    # so the powers must stay exact and agree with the Fraction-coefficient ones

    @given(c=st.sampled_from([1, -1]), d=st.sampled_from([1, -1]), e=_EXPONENTS,
           e2=_EXPONENTS, k=_POWERS, j=_POWERS)
    def test_unit_coefficients_stay_ints(self, c, d, e, e2, k, j):
        f, g = MonomialFn(c, e), MonomialFn(d, e2)
        F, G = MonomialFn(Fraction(c), e), MonomialFn(Fraction(d), e2)
        for got, want in [(f ** k, F ** k), (f * g, F * G), ((g ** j) * (f ** k), (G ** j) * (F ** k))]:
            assert got == want
        assert ResidueElement(c, e[0]) ** k == ResidueElement(Fraction(c), e[0]) ** k

    @given(c=st.integers(-9, 9).filter(bool), e=_EXPONENTS, k=_POWERS)
    def test_other_int_coefficients_stay_exact(self, c, e, k):
        got, want = MonomialFn(c, e) ** k, MonomialFn(Fraction(c), e) ** k
        assert got == want and type(got.coeff) is Fraction
        res = ResidueElement(c, e[0]) ** k
        assert res == ResidueElement(Fraction(c), e[0]) ** k and type(res.coeff) is Fraction


_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
_MONOMIALS = st.builds(MonomialFn, _COEFFS, _EXPONENTS)
_SYMBOLS = st.lists(st.tuples(st.integers(-3, 3), st.tuples(_MONOMIALS, _MONOMIALS)),
                    max_size=4).map(lambda terms: SymbolK2.of(*terms))


@st.composite
def subdivided_charts(draw):
    """A flag chart of a star-subdivided P^2 fan with 3 to 11 rays."""
    fan = projective_plane_fan()
    for j in draw(st.lists(st.integers(0, 63), max_size=8)):
        fan = star_subdivide(fan, j % fan.n_rays)
    return fan.charts[draw(st.sampled_from(list(fan.charts)))]


class TestAgainstObjectOracle:
    # the closed form on exponents against the boundary taken on monomial objects

    @given(subdivided_charts(), _SYMBOLS)
    def test_tame_boundary_is_the_reference(self, w, S):
        assert tame_boundary(w, S) == reference_tame_boundary(w, S)
        assert iterated_boundary(w, S) == reference_iterated_boundary(w, S)

    @given(st.integers(0, 2 ** 32), st.integers(3, 64), st.data())
    def test_route_4_is_the_reference_sum_over_flags(self, seed, n, data):
        D = deep_ample_instance(random.Random(seed), n)
        dec = data.draw(random_decompositions(n))
        h, a0 = D.cocycle, dec.generic_owner
        want = 0
        for flag in D.fan.charts:
            a1 = dec.ray_owner[flag.ray]
            S = symbol(monomial(cech_cocycle(h, a0, a1)), monomial(cech_cocycle(h, a1, flag.cone)))
            want += reference_iterated_boundary(flag_valuation(D.fan, flag), S)
        assert intersection_number_via_symbols(D, dec) == want


class TestNoSymbolObjects:
    # route 4 reads exponents: a report builds no monomial, symbol or residue

    @pytest.mark.parametrize("n", [16, 128])
    def test_report_builds_no_symbol_objects(self, monkeypatch, n):
        D = deep_ample_instance(random.Random(n), n)
        built = []
        for cls in (MonomialFn, SymbolK2, ResidueElement):
            def spy(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", spy)
        assert okounkov_volume_report(D).agree
        assert built == []
        # the spies are live: one boundary by hand builds all three
        tame_boundary(flag_valuation(D.fan, TFlag(0, 0)), symbol(monomial((1, 0)), monomial((0, 1))))
        assert set(built) == {"MonomialFn", "SymbolK2", "ResidueElement"}


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
            out = tame_boundary(w, SymbolK2.of((1, (monomial(w.pi1), u))))
            if u.is_one:
                # {pi, 1} normalizes away; an empty boundary is the trivial class
                assert out == []
            else:
                assert out == [(1, ResidueElement(c, k))]

    def test_two_units_rule(self):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        pi2 = monomial(w.pi2)
        u1, u2 = pi2 ** 2, (pi2 ** -1) * monomial((0, 0), 5)
        [(_, res)] = tame_boundary(w, SymbolK2.of((1, (u1, u2))))
        assert res.is_one

    def test_coordinate_symbol(self):
        # flag along the second axis in the first chart of the plane:
        # boundary{x, y} is 1/t with t the image of x
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        S = symbol(monomial((1, 0)), monomial((0, 1)))
        assert tame_boundary(w, S) == [(1, ResidueElement(Fraction(1), -1))]
        assert iterated_boundary(w, S) == -1

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
            sf = specialization(w, pi1, f)
            sg = specialization(w, pi1, g)
            rhs = (sg ** vf) * (sf ** -vg)
            if vf * vg % 2:
                rhs = ResidueElement(-rhs.coeff, rhs.exponent)
            assert tame_boundary(w, symbol(f, g)) == [(1, rhs)]


class TestIteratedBoundary:
    def test_worked_flag_symbols(self):
        fan = hirzebruch_fan(1)
        # transition functions of the divisor with a=1, b=2
        assert iterated_boundary(
            flag_valuation(fan, TFlag(2, 1)), symbol(monomial((2, 1)), monomial((-1, -1)))) == 1
        assert iterated_boundary(
            flag_valuation(fan, TFlag(3, 2)), symbol(monomial((0, 1)), monomial((2, 0)))) == 2

    def test_repeated_entry_vanishes(self):
        rng = random.Random(67)
        for _ in range(30):
            D = random_ample_instance(rng, max_subdivisions=2)
            w = flag_valuation(D.fan, random_flag(rng, D.fan))
            f = random_monomial(rng)
            assert iterated_boundary(w, symbol(f, f)) == 0
            assert iterated_boundary(w, symbol(f, f ** -1)) == 0

    def test_bilinearity_and_antisymmetry(self):
        rng = random.Random(71)
        fan = hirzebruch_fan(2)
        for _ in range(100):
            w = flag_valuation(fan, random_flag(rng, fan))
            f1, f2, g = (random_monomial(rng) for _ in range(3))
            lhs = iterated_boundary(w, symbol(f1 * f2, g))
            rhs = iterated_boundary(w, symbol(f1, g)) + iterated_boundary(w, symbol(f2, g))
            assert lhs == rhs
            assert iterated_boundary(w, symbol(f1, g)) == -iterated_boundary(w, symbol(g, f1))

    def test_coefficient_blindness(self):
        rng = random.Random(73)
        fan = hirzebruch_fan(1)
        for _ in range(50):
            w = flag_valuation(fan, random_flag(rng, fan))
            f, g = random_monomial(rng), random_monomial(rng)
            scaled = MonomialFn(f.coeff * Fraction(-7, 3), f.exponent)
            assert iterated_boundary(w, symbol(f, g)) == iterated_boundary(w, symbol(scaled, g))


class TestSpecialization:
    def test_unit_reduces_to_itself(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        u = (monomial(w.pi2) ** 3) * monomial((0, 0), Fraction(2, 5))
        assert specialization(w, monomial(w.pi1), u) == ResidueElement(Fraction(2, 5), 3)

    def test_uniformizer_maps_to_one(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        pi1 = monomial(w.pi1)
        assert specialization(w, pi1, pi1).is_one

    def test_worked_cancellation(self):
        # f = x^b against the dual uniformizer x^-1 of the worked flag
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        for b in (2, 5):
            res = specialization(w, monomial((-1, 0)), monomial((b, 0)))
            assert res.is_one

    def test_rejects_non_uniformizer(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        with pytest.raises(ValueError):
            specialization(w, monomial((1, 1)), monomial((1, 0)))

    def test_agrees_with_boundary_against_negated_uniformizer(self):
        # the specialization is the boundary of {-pi, f}
        rng = random.Random(79)
        fan = hirzebruch_fan(3)
        for _ in range(60):
            w = flag_valuation(fan, random_flag(rng, fan))
            pi1 = monomial(w.pi1)
            f = random_monomial(rng, 6)
            neg_pi = MonomialFn(-pi1.coeff, pi1.exponent)
            [(_, res)] = tame_boundary(w, SymbolK2.of((1, (neg_pi, f))))
            assert res == specialization(w, pi1, f)


class TestDeterminantFormula:
    def test_hand_checked_case(self):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        assert det_formula_check(w, monomial((1, 0)), monomial((0, 1)))

    def test_repeated_slot(self):
        f = monomial((3, -2), Fraction(5, 4))
        assert det_formula_check(flag_valuation(hirzebruch_fan(1), TFlag(2, 1)), f, f)

    def test_random_cases(self):
        rng = random.Random(83)
        fans = [hirzebruch_fan(l) for l in (1, 2, 3)]
        for _ in range(300):
            fan = rng.choice(fans)
            w = flag_valuation(fan, random_flag(rng, fan))
            assert det_formula_check(w, random_monomial(rng), random_monomial(rng))


class TestValuationViaSymbols:
    def test_worked_column(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        for b in (2, 7):
            assert valuation_via_symbols(w, monomial((b, 0))) == (-b, 0)

    def test_constant_is_zero(self):
        w = flag_valuation(hirzebruch_fan(2), TFlag(1, 1))
        assert valuation_via_symbols(w, monomial((0, 0), 9)) == (0, 0)

    def test_matches_pairing_valuation(self):
        rng = random.Random(89)
        for _ in range(1000):
            D = random_ample_instance(rng, max_subdivisions=3)
            flag = random_flag(rng, D.fan)
            f = random_monomial(rng)
            w = flag_valuation(D.fan, flag)
            assert valuation_via_symbols(w, f) == w.value(f.exponent)

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
            wf = valuation_via_symbols(w, f, pi1=twisted)
            wg = valuation_via_symbols(w, g, pi1=twisted)
            det = wf[0] * wg[1] - wg[0] * wf[1]
            assert det == iterated_boundary(w, symbol(f, g))
            if k != 0 and dot(f.exponent, w.first_ray) != 0:
                assert wf != w.value(f.exponent)

    def test_rejects_non_uniformizer_twist(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        pi1 = monomial(w.pi1)
        with pytest.raises(ValueError):
            valuation_via_symbols(w, monomial((1, 0)), pi1=pi1 ** 2)


class TestCocycleExpansion:
    def test_degenerate_triple_has_zero_boundary(self):
        D = ruled_divisor(1, 1, 2)
        h = D.cocycle
        S = cocycle_expansion(h, (0, 0, 2))
        for flag in D.fan.charts:
            assert iterated_boundary(flag_valuation(D.fan, flag), S) == 0

    def test_worked_triple(self):
        D = ruled_divisor(1, 1, 2)
        h = D.cocycle
        S = cocycle_expansion(h, (0, 2, 1))
        assert iterated_boundary(flag_valuation(D.fan, TFlag(2, 1)), S) == 1

    def test_matches_transition_symbol_everywhere(self):
        D = ruled_divisor(1, 1, 2)
        h = D.cocycle
        n = D.fan.n_rays
        for flag in D.fan.charts:
            w = flag_valuation(D.fan, flag)
            for a0 in range(n):
                for a1 in range(n):
                    for a2 in range(n):
                        direct = symbol(monomial(cech_cocycle(h, a0, a1)),
                                        monomial(cech_cocycle(h, a1, a2)))
                        assert (iterated_boundary(w, direct)
                                == iterated_boundary(w, cocycle_expansion(h, (a0, a1, a2))))


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
    # a boundary map is handed its flag's chart and looks none up; route 4
    # walks the fan's chart table and looks none up either

    @pytest.fixture
    def charts(self, monkeypatch):
        import toricvol.valuation
        calls = []

        def spy(fan, flag):
            calls.append(flag)
            return flag_valuation(fan, flag)
        # every module that binds flag_valuation, so a re-import is seen too
        for name, module in list(sys.modules.items()):
            if name.startswith("toricvol.") and getattr(module, "flag_valuation", None) is flag_valuation:
                monkeypatch.setattr(module, "flag_valuation", spy)
        assert toricvol.valuation.flag_valuation is spy
        return calls

    def test_valuation_via_symbols(self, charts):
        fan = hirzebruch_fan(1)
        assert valuation_via_symbols(flag_valuation(fan, TFlag(2, 1)), monomial((3, 0))) == (-3, 0)
        assert charts == []

    def test_det_formula_check(self, charts):
        fan = hirzebruch_fan(1)
        w = flag_valuation(fan, TFlag(2, 1))
        assert det_formula_check(w, monomial((3, -2)), monomial((1, 4)))
        assert charts == []

    def test_route_4_reads_one_chart_per_flag(self, charts):
        for D in (ruled_divisor(1, 1, 2), deep_ample_instance(random.Random(3), 16)):
            got = intersection_number_via_symbols(D, standard_decomposition(D.fan))
            assert got == self_intersection_classical(D)
        assert charts == []
