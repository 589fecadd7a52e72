import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import toricvol
from toricvol import (
    TFlag,
    TorusDivisor,
    cross,
    dot,
    flag_valuation,
    hirzebruch_fan,
    intersection_number_via_symbols,
    iterated_boundary,
    okounkov_volume_report,
    projective_plane_fan,
    self_intersection_classical,
    standard_decomposition,
    star_subdivide,
)
from conftest import (
    Monomial,
    cech_cocycle,
    cocycle_expansion,
    deep_ample_instance,
    random_ample_instance,
    random_decompositions,
    random_exponent,
    random_flag,
    random_monomial,
    reference_iterated_boundary,
    reference_symbol_sum,
    reference_tame_boundary,
    ruled_divisor,
)


def exponent_terms(terms):
    """The (mult, ef, eg) terms the library reads, from (mult, f, g) on monomials."""
    return [(mult, f.exponent, g.exponent) for mult, f, g in terms]


def specialization(w, pi, f):
    """Uniformizer-dependent reduction f |-> red(f * pi^-v(f)), as (coeff, t)."""
    u = f * pi ** -dot(f.exponent, w.first_ray)
    v, t = w.value(u.exponent)
    assert v == 0, "a uniformizer leaves f * pi^-v(f) with curve valuation 0"
    return u.coeff, t


def valuation_via_symbols(w, e, pi1=None):
    """Valuation vector of x^e through boundary maps: the curve valuation, then
    the iterated boundary of {pi1, x^e} (pi1 defaults to the chart's)."""
    return dot(e, w.first_ray), iterated_boundary(w, [(1, w.pi1 if pi1 is None else pi1, e)])


class TestMonomialFn:
    # the oracle's coefficient arithmetic, which its sign and coefficient checks rest on
    def test_arithmetic(self):
        f = Monomial(Fraction(3, 2), (2, -1))
        g = Monomial(-2, (1, 1))
        assert f * g == Monomial(-3, (3, 0))
        assert f ** -2 == Monomial(Fraction(4, 9), (-4, 2))


class TestIntExponents:
    # exponents are read with operator.index, so no float reaches the kernel

    def test_float_exponent_raises(self):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        for terms in ([(1, (1.5, 0), (0, 1))], [(1, (0, 1), (0.5, 2))],
                      [(1, (0, 2.0), (1, 0))], [(1.5, (1, 0), (0, 1))]):
            with pytest.raises(TypeError):
                iterated_boundary(w, terms)

    def test_list_exponent_is_the_tuple(self):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        got = iterated_boundary(w, [(1, [1, 0], [0, 1])])
        assert got == iterated_boundary(w, [(1, (1, 0), (0, 1))]) == -1 and type(got) is int

    @pytest.mark.parametrize("e", [(), (1,), (1, 0, 0)])
    def test_exponent_of_another_length_raises(self, e):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        with pytest.raises(ValueError):
            iterated_boundary(w, [(1, e, (0, 1))])
        with pytest.raises(ValueError):
            iterated_boundary(w, [(1, (0, 1), e)])


_EXPONENTS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
_POWERS = st.integers(-7, 7)


class TestIntCoefficients:
    # an int coefficient is read as a Fraction; int ** k is a float for k < 0,
    # so the oracle's powers must stay exact and agree with the Fraction ones

    @given(c=st.sampled_from([1, -1]), d=st.sampled_from([1, -1]), e=_EXPONENTS,
           e2=_EXPONENTS, k=_POWERS, j=_POWERS)
    def test_unit_coefficients_stay_ints(self, c, d, e, e2, k, j):
        f, g = Monomial(c, e), Monomial(d, e2)
        F, G = Monomial(Fraction(c), e), Monomial(Fraction(d), e2)
        for got, want in [(f ** k, F ** k), (f * g, F * G), ((g ** j) * (f ** k), (G ** j) * (F ** k))]:
            assert got == want

    @given(c=st.integers(-9, 9).filter(bool), e=_EXPONENTS, k=_POWERS)
    def test_other_int_coefficients_stay_exact(self, c, e, k):
        got, want = Monomial(c, e) ** k, Monomial(Fraction(c), e) ** k
        assert got == want and type(got.coeff) is Fraction


_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
_MONOMIALS = st.builds(Monomial, _COEFFS, _EXPONENTS)
_SYMBOLS = st.lists(st.tuples(st.integers(-3, 3), _MONOMIALS, _MONOMIALS), max_size=4)


@st.composite
def subdivided_charts(draw):
    """A flag chart of a star-subdivided P^2 fan with 3 to 11 rays."""
    fan = projective_plane_fan()
    for j in draw(st.lists(st.integers(0, 63), max_size=8)):
        fan = star_subdivide(fan, j % fan.n_rays)
    return fan.charts[draw(st.sampled_from(list(fan.charts)))]


class TestAgainstObjectOracle:
    # the kernel on exponents against the boundary taken on monomial objects

    @given(subdivided_charts(), _SYMBOLS)
    def test_tame_boundary_is_the_reference(self, w, S):
        for (_, f, g), res in zip(S, reference_tame_boundary(w, S)):
            vf, vg = dot(f.exponent, w.first_ray), dot(g.exponent, w.first_ray)
            t = iterated_boundary(w, [(1, f.exponent, g.exponent)])
            assert res == ((-1) ** (vf * vg % 2) * g.coeff ** vf * f.coeff ** -vg, t)
        assert iterated_boundary(w, exponent_terms(S)) == reference_iterated_boundary(w, S)

    @given(st.integers(0, 2 ** 32), st.integers(3, 64), st.data())
    def test_route_4_is_the_reference_sum_over_flags(self, seed, n, data):
        D = deep_ample_instance(random.Random(seed), n)
        dec = data.draw(random_decompositions(n))
        assert intersection_number_via_symbols(D, dec) == reference_symbol_sum(D, dec)


class TestNoSymbolObjects:
    # route 4 reads exponents: the package has no monomial, symbol or residue
    # class, and exports of milnor_k only the two exponent-level functions

    @pytest.mark.parametrize("n", [16, 128])
    def test_report_builds_no_symbol_objects(self, n):
        mk = toricvol.milnor_k
        assert [v for v in vars(mk).values()
                if isinstance(v, type) and v.__module__ == mk.__name__] == []
        assert "fractions" not in vars(mk) and "Fraction" not in vars(mk)
        exported = {name for name in dir(toricvol)
                    if getattr(getattr(toricvol, name), "__module__", None) == mk.__name__}
        assert exported == {"iterated_boundary", "intersection_number_via_symbols"}
        D = deep_ample_instance(random.Random(n), n)
        report = okounkov_volume_report(D)
        assert report.agree and type(report.twice[3]) is int


class TestOraclesShareNoKernel:
    # the oracles check route 4's private kernel, so no test reads a private name of milnor_k

    def test_tests_read_no_private_milnor_k_name(self):
        for path in Path(__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "toricvol.milnor_k":
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith("milnor_k"):
                    names = [node.attr]
                else:
                    continue
                assert not [x for x in names if x.startswith("_") and not x.startswith("__")], path.name


class TestTameBoundary:
    # the defining rules, on the oracle's residues and the library's orders

    def test_uniformizer_unit_rule(self):
        # boundary{pi, u} = reduction of u, for any chart unit u
        rng = random.Random(59)
        for _ in range(50):
            D = random_ample_instance(rng, max_subdivisions=2)
            flag = random_flag(rng, D.fan)
            w = flag_valuation(D.fan, flag)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            k = rng.randint(-4, 4)
            S = [(1, Monomial(1, w.pi1), (Monomial(1, w.pi2) ** k) * Monomial(c, (0, 0)))]
            assert reference_tame_boundary(w, S) == [(c, k)]
            assert iterated_boundary(w, exponent_terms(S)) == k

    def test_two_units_rule(self):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        pi2 = Monomial(1, w.pi2)
        S = [(1, pi2 ** 2, (pi2 ** -1) * Monomial(5, (0, 0)))]
        assert reference_tame_boundary(w, S) == [(1, 0)]
        assert iterated_boundary(w, exponent_terms(S)) == 0

    def test_coordinate_symbol(self):
        # flag along the second axis in the first chart of the plane:
        # boundary{x, y} is 1/t with t the image of x
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        assert reference_tame_boundary(w, [(1, Monomial(1, (1, 0)), Monomial(1, (0, 1)))]) == [(1, -1)]
        assert iterated_boundary(w, [(1, (1, 0), (0, 1))]) == -1

    def test_leibniz_identity_at_degree_one(self):
        rng = random.Random(61)
        for _ in range(100):
            D = random_ample_instance(rng, max_subdivisions=2)
            flag = random_flag(rng, D.fan)
            w = flag_valuation(D.fan, flag)
            pi1 = Monomial(1, w.pi1)
            f, g = random_monomial(rng, 6), random_monomial(rng, 6)
            vf = dot(f.exponent, w.first_ray)
            vg = dot(g.exponent, w.first_ray)
            (cf, tf), (cg, tg) = specialization(w, pi1, f), specialization(w, pi1, g)
            coeff = cg ** vf * cf ** -vg
            rhs = (-coeff if vf * vg % 2 else coeff, vf * tg - vg * tf)
            assert reference_tame_boundary(w, [(1, f, g)]) == [rhs]
            assert iterated_boundary(w, [(1, f.exponent, g.exponent)]) == rhs[1]


class TestIteratedBoundary:
    def test_worked_flag_symbols(self):
        fan = hirzebruch_fan(1)
        # transition functions of the divisor with a=1, b=2
        assert iterated_boundary(flag_valuation(fan, TFlag(2, 1)), [(1, (2, 1), (-1, -1))]) == 1
        assert iterated_boundary(flag_valuation(fan, TFlag(3, 2)), [(1, (0, 1), (2, 0))]) == 2

    def test_repeated_entry_vanishes(self):
        rng = random.Random(67)
        for _ in range(30):
            D = random_ample_instance(rng, max_subdivisions=2)
            w = flag_valuation(D.fan, random_flag(rng, D.fan))
            e = random_exponent(rng)
            assert iterated_boundary(w, [(1, e, e)]) == 0
            assert iterated_boundary(w, [(1, e, (-e[0], -e[1]))]) == 0

    def test_bilinearity_and_antisymmetry(self):
        rng = random.Random(71)
        fan = hirzebruch_fan(2)
        for _ in range(100):
            w = flag_valuation(fan, random_flag(rng, fan))
            e1, e2, eg = (random_exponent(rng) for _ in range(3))
            lhs = iterated_boundary(w, [(1, (e1[0] + e2[0], e1[1] + e2[1]), eg)])
            assert lhs == iterated_boundary(w, [(1, e1, eg), (1, e2, eg)])
            assert iterated_boundary(w, [(1, e1, eg)]) == -iterated_boundary(w, [(1, eg, e1)])

    def test_coefficient_blindness(self):
        # scaling an entry moves the oracle's residue coefficient, not its order
        rng = random.Random(73)
        fan = hirzebruch_fan(1)
        for _ in range(50):
            w = flag_valuation(fan, random_flag(rng, fan))
            f, g = random_monomial(rng), random_monomial(rng)
            scaled = Monomial(f.coeff * Fraction(-7, 3), f.exponent)
            [(c, t)], [(c2, t2)] = (reference_tame_boundary(w, [(1, e, g)]) for e in (f, scaled))
            assert t == t2 == iterated_boundary(w, [(1, f.exponent, g.exponent)])
            assert c2 == c * Fraction(-7, 3) ** -dot(g.exponent, w.first_ray)


class TestSpecialization:
    # the reduction through the chart's pairings, against the oracle's boundary

    def test_unit_reduces_to_itself(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        u = (Monomial(1, w.pi2) ** 3) * Monomial(Fraction(2, 5), (0, 0))
        assert specialization(w, Monomial(1, w.pi1), u) == (Fraction(2, 5), 3)

    def test_uniformizer_maps_to_one(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        pi1 = Monomial(1, w.pi1)
        assert specialization(w, pi1, pi1) == (1, 0)

    def test_worked_cancellation(self):
        # f = x^b against the dual uniformizer x^-1 of the worked flag
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        for b in (2, 5):
            assert specialization(w, Monomial(1, (-1, 0)), Monomial(1, (b, 0))) == (1, 0)

    def test_agrees_with_boundary_against_negated_uniformizer(self):
        # the specialization is the boundary of {-pi, f}
        rng = random.Random(79)
        fan = hirzebruch_fan(3)
        for _ in range(60):
            w = flag_valuation(fan, random_flag(rng, fan))
            f = random_monomial(rng, 6)
            [res] = reference_tame_boundary(w, [(1, Monomial(-1, w.pi1), f)])
            assert res == specialization(w, Monomial(1, w.pi1), f)


class TestDeterminantFormula:
    # the iterated boundary of {x^ef, x^eg} is the 2x2 valuation determinant

    def test_hand_checked_case(self):
        w = flag_valuation(projective_plane_fan(), TFlag(1, 0))
        assert iterated_boundary(w, [(1, (1, 0), (0, 1))]) == cross(w.value((1, 0)), w.value((0, 1)))

    def test_repeated_slot(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        e = (3, -2)
        assert iterated_boundary(w, [(1, e, e)]) == cross(w.value(e), w.value(e)) == 0

    def test_random_cases(self):
        rng = random.Random(83)
        fans = [hirzebruch_fan(l) for l in (1, 2, 3)]
        for _ in range(300):
            fan = rng.choice(fans)
            w = flag_valuation(fan, random_flag(rng, fan))
            ef, eg = random_exponent(rng), random_exponent(rng)
            assert iterated_boundary(w, [(1, ef, eg)]) == cross(w.value(ef), w.value(eg))

    @given(subdivided_charts(), _EXPONENTS, _EXPONENTS)
    def test_on_subdivided_fans(self, w, ef, eg):
        assert iterated_boundary(w, [(1, ef, eg)]) == cross(w.value(ef), w.value(eg))


class TestValuationViaSymbols:
    def test_worked_column(self):
        w = flag_valuation(hirzebruch_fan(1), TFlag(2, 1))
        for b in (2, 7):
            assert valuation_via_symbols(w, (b, 0)) == (-b, 0)

    def test_constant_is_zero(self):
        w = flag_valuation(hirzebruch_fan(2), TFlag(1, 1))
        assert valuation_via_symbols(w, (0, 0)) == (0, 0)

    def test_matches_pairing_valuation(self):
        rng = random.Random(89)
        for _ in range(1000):
            D = random_ample_instance(rng, max_subdivisions=3)
            flag = random_flag(rng, D.fan)
            e = random_exponent(rng)
            w = flag_valuation(D.fan, flag)
            assert valuation_via_symbols(w, e) == w.value(e)

    def test_twisted_uniformizer_changes_vector_not_determinant(self):
        rng = random.Random(97)
        fan = hirzebruch_fan(2)
        for _ in range(100):
            flag = random_flag(rng, fan)
            w = flag_valuation(fan, flag)
            k = rng.randint(-3, 3)
            twisted = (w.pi1[0] + k * w.pi2[0], w.pi1[1] + k * w.pi2[1])
            ef, eg = random_exponent(rng), random_exponent(rng)
            wf = valuation_via_symbols(w, ef, pi1=twisted)
            wg = valuation_via_symbols(w, eg, pi1=twisted)
            assert cross(wf, wg) == iterated_boundary(w, [(1, ef, eg)])
            if k != 0 and dot(ef, w.first_ray) != 0:
                assert wf != w.value(ef)


class TestCocycleExpansion:
    def test_degenerate_triple_has_zero_boundary(self):
        D = ruled_divisor(1, 1, 2)
        S = cocycle_expansion(D.cocycle, (0, 0, 2))
        for flag in D.fan.charts:
            assert iterated_boundary(flag_valuation(D.fan, flag), S) == 0

    def test_worked_triple(self):
        D = ruled_divisor(1, 1, 2)
        S = cocycle_expansion(D.cocycle, (0, 2, 1))
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
                        direct = [(1, cech_cocycle(h, a0, a1), cech_cocycle(h, a1, a2))]
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
                    D = TorusDivisor(fan, (0, a, b, 0))
                    assert intersection_number_via_symbols(D, dec) == 2 * a * b - l * a * a

    def test_decomposition_invariance(self):
        rng = random.Random(101)
        for _ in range(15):
            D = random_ample_instance(rng)
            classical = self_intersection_classical(D)
            for variant, generic_owner in (("default", 0), ("successor", 0), ("default", 1), ("default", 2)):
                dec = standard_decomposition(D.fan, variant)._replace(generic_owner=generic_owner)
                assert intersection_number_via_symbols(D, dec) == classical

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 64])
    def test_flat_loop_matches_per_flag_closed_form(self, n):
        # the route-4 loop against the object oracle on two cech_cocycle differences per flag,
        # on the generator's ample divisor and on random coefficients, most not nef
        rng = random.Random(n)
        D = deep_ample_instance(rng, n)
        span = max(map(abs, D.coeffs))
        for coeffs in (D.coeffs, *([rng.randint(-span, span) for _ in range(n)] for _ in range(3))):
            E = TorusDivisor(D.fan, coeffs)
            for variant, generic_owner in (("default", 0), ("successor", 0),
                                           ("default", rng.randrange(n)), ("default", n - 1)):
                dec = standard_decomposition(D.fan, variant)._replace(generic_owner=generic_owner)
                assert intersection_number_via_symbols(E, dec) == reference_symbol_sum(E, dec)


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
        assert valuation_via_symbols(flag_valuation(fan, TFlag(2, 1)), (3, 0)) == (-3, 0)
        assert charts == []

    def test_det_formula_check(self, charts):
        fan = hirzebruch_fan(1)
        w = flag_valuation(fan, TFlag(2, 1))
        assert iterated_boundary(w, [(1, (3, -2), (1, 4))]) == cross(w.value((3, -2)), w.value((1, 4)))
        assert charts == []

    def test_route_4_reads_one_chart_per_flag(self, charts):
        for D in (ruled_divisor(1, 1, 2), deep_ample_instance(random.Random(3), 16)):
            got = intersection_number_via_symbols(D, standard_decomposition(D.fan))
            assert got == self_intersection_classical(D)
        assert charts == []
