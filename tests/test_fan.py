import random
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from toricvol import (
    Fan2D,
    FanValidationError,
    OrbitDecomposition,
    Rank2Valuation,
    TFlag,
    TorusDivisor,
    cross,
    dot,
    fan_violations,
    flag_contribution,
    hirzebruch_fan,
    projective_plane_fan,
    standard_decomposition,
    star_subdivide,
)
from conftest import (angle_winding, deep_ample_instance, random_smooth_fan, reference_chart,
                      reference_fan_violations, reference_tflags)


@st.composite
def _unimodular_loops(draw):
    """A loop of rays with every consecutive cross 1 that winds k times: P^2
    or F_l (l = 0..4) traversed k = 1..4 times, then star subdivisions, an
    SL2(Z) change of basis and a new start index."""
    l = draw(st.sampled_from([None, 0, 1, 2, 3, 4]))
    base = [(1, 0), (0, 1), (-1, -1)] if l is None else [(1, 0), (0, 1), (-1, l), (0, -1)]
    k = draw(st.integers(1, 4))
    rays = base * k
    for _ in range(draw(st.integers(0, 6))):
        j = draw(st.integers(0, len(rays) - 1))
        u, v = rays[j], rays[(j + 1) % len(rays)]
        rays.insert(j + 1, (u[0] + v[0], u[1] + v[1]))
    a, b, c, d = 1, 0, 0, 1
    for t, lower in draw(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), max_size=6)):
        # right-multiply by an elementary matrix of determinant 1
        a, b, c, d = (a + b * t, b, c + d * t, d) if lower else (a, b + a * t, c, d + c * t)
    rays = [(a * x + b * y, c * x + d * y) for x, y in rays]
    s = draw(st.integers(0, len(rays) - 1))
    return k, rays[s:] + rays[:s]


class TestValidateFan:
    def test_hirzebruch_valid(self):
        fan = Fan2D([(1, 0), (0, 1), (-1, 1), (0, -1)])
        assert fan.n_rays == 4

    def test_projective_plane_valid(self):
        assert Fan2D([(1, 0), (0, 1), (-1, -1)]).n_rays == 3

    def test_list_built_fan_is_the_library_fan(self):
        fan = Fan2D([[1, 0], [0, 1], [-1, -1]])
        assert fan == projective_plane_fan()
        assert hash(fan) == hash(projective_plane_fan())
        D = TorusDivisor(fan, (1, 0, 0))
        dec = standard_decomposition(projective_plane_fan())
        assert flag_contribution(D, TFlag(0, 0), dec).flag == TFlag(0, 0)

    @pytest.mark.parametrize("one_shot", [
        lambda: iter([[1, 0], [0, 1], [-1, -1]]),
        lambda: [iter([1, 0]), iter([0, 1]), iter([-1, -1])],
        lambda: (r for r in ((1, 0), (0, 1), (-1, -1))),
    ], ids=["outer-iterator", "ray-iterators", "generator"])
    def test_one_shot_rays_are_read_once(self, one_shot):
        fan = Fan2D(one_shot())
        assert fan == projective_plane_fan()
        assert hash(fan) == hash(projective_plane_fan())

    def test_each_coordinate_read_once(self, monkeypatch):
        # Fan2D reads the rays with fan_violations' own reader, and fan_violations takes the int
        # pairs as they are; a ray that cannot be read stops at its first bad coordinate, and
        # Fan2D raises the reader's violations
        import toricvol.fan as fan_module

        calls, real = [], fan_module.index

        def spy(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(fan_module, "index", spy)
        fan = Fan2D([[1, 0], [0, True], iter([-1, -1])])
        assert len(calls) == 6 and fan == projective_plane_fan()
        assert all(type(c) is int for r in fan.rays for c in r)
        calls.clear()
        with pytest.raises(FanValidationError) as e:
            Fan2D([[1, 0], [0, 1.5], [-1, -1]])
        assert calls == [1, 0, 0, 1.5, -1, -1]
        assert list(e.value.violations) == fan_violations([[1, 0], [0, 1.5], [-1, -1]])

    @pytest.mark.parametrize("rays", [((1, 0), (0, 1), (-1, -1)), [(1, 0), (0, 1), (-1, -1)]],
                             ids=["tuple", "list"])
    def test_int_pairs_are_not_read(self, monkeypatch, rays):
        # int tuples, as every parsed document holds, are taken as they are: no coordinate is
        # read and no ray is tested for a one-shot iterator
        import toricvol.fan as fan_module

        calls, real = [], fan_module.index

        def spy(c):
            calls.append(c)
            return real(c)

        class OneShot(type):
            def __instancecheck__(cls, r):
                calls.append(r)
                return isinstance(r, Iterator)

        monkeypatch.setattr(fan_module, "index", spy)
        monkeypatch.setattr(fan_module, "Iterator", OneShot("Iterator", (), {}))
        assert Fan2D(rays) == projective_plane_fan() and calls == []

    def test_non_iterable_ray_reported_with_index(self):
        with pytest.raises(FanValidationError) as e:
            Fan2D([[1, 0], 5, [-1, -1]])
        assert [(v.kind, v.index, str(v)) for v in e.value.violations] == [
            ("non-primitive", 1, "ray 1 = 5 has non-integer coordinates")]

    def test_list_input_messages(self):
        with pytest.raises(FanValidationError) as e:
            Fan2D([[1, 0], [0, 1.5], [-1, -1]])
        assert str(e.value) == "ray 1 = [0, 1.5] has non-integer coordinates"
        with pytest.raises(FanValidationError) as e:
            Fan2D([[1, 0], [0, 2], [-1, 0], [0, -1]])
        assert str(e.value) == "ray 1 = (0, 2) is not primitive"

    @pytest.mark.parametrize("coord", [1.0, "1"])
    def test_non_integer_coordinate_reported_with_index(self, coord):
        with pytest.raises(FanValidationError) as e:
            Fan2D([(1, 0), (0, coord), (-1, -1)])
        assert [(v.kind, v.index) for v in e.value.violations] == [("non-primitive", 1)]

    def test_non_primitive_ray_reported_with_index(self):
        violations = fan_violations([(1, 0), (0, 2), (-1, 0), (0, -1)])
        assert any(v.kind == "non-primitive" and v.index == 1 for v in violations)
        with pytest.raises(FanValidationError):
            Fan2D([(1, 0), (0, 2), (-1, 0), (0, -1)])
        # a ray that is not a pair keeps the kind and says what it is
        assert fan_violations([(1, 0, 0), (0, 1), (-1, -1)]) == [
            ("non-primitive", 0, "ray 0 = (1, 0, 0) is not a pair of integers")]

    def test_bad_cross_reported_with_index(self):
        # clockwise order: every consecutive cross is -1
        violations = fan_violations([(1, 0), (0, -1), (-1, 1), (0, 1)])
        kinds = {(v.kind, v.index) for v in violations}
        assert ("bad-cross", 0) in kinds

    def test_too_few_rays(self):
        assert any(v.kind == "too-few-rays" for v in fan_violations([(1, 0), (0, 1)]))

    def test_double_winding_rejected(self):
        # all six consecutive crosses equal 1, but the directions wrap twice
        rays = [(1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1)]
        for j in range(6):
            assert cross(rays[j], rays[(j + 1) % 6]) == 1
        violations = fan_violations(rays)
        assert [v.kind for v in violations] == ["bad-winding"]
        assert "winding number 2" in str(violations[0])

    def test_duplicated_plane_fan_rejected(self):
        # traversing the plane fan twice also passes every cross check
        rays = [(1, 0), (0, 1), (-1, -1)] * 2
        for j in range(6):
            assert cross(rays[j], rays[(j + 1) % 6]) == 1
        assert [v.kind for v in fan_violations(rays)] == ["bad-winding"]

    @given(_unimodular_loops())
    def test_winding_matches_angle_count(self, loop):
        k, rays = loop
        w = angle_winding(rays)
        assert w == k
        violations = fan_violations(rays)
        if w == 1:
            assert violations == []
        else:
            assert [(v.kind, str(v)) for v in violations] == [
                ("bad-winding", f"winding number {w}, expected 1")]


@st.composite
def _malformed_rays(draw):
    """Ray lists that break the fan axioms, or some of them: small random int
    pairs (non-primitive rays, bad crosses, too few rays), unimodular loops
    that wind k times, and such loops with one ray scaled, negated, moved or
    of another length."""
    kind = draw(st.sampled_from(["random", "loop", "scaled", "moved", "resized", "other"]))
    if kind == "random":
        return draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=8))
    if kind == "other":
        # lists, wrong lengths and non-integer coordinates
        coord = st.one_of(st.integers(-3, 3), st.sampled_from([1.0, "1", None, True]))
        return draw(st.lists(st.lists(coord, max_size=3), max_size=6))
    rays = draw(_unimodular_loops())[1]
    i = draw(st.integers(0, len(rays) - 1))
    if kind == "resized":
        rays[i] = draw(st.sampled_from([(), rays[i][:1], (*rays[i], 0), [*rays[i]]]))
    elif kind == "scaled":
        k = draw(st.sampled_from([-1, 0, 2, 3]))
        rays[i] = (k * rays[i][0], k * rays[i][1])
    elif kind == "moved":
        rays.insert(draw(st.integers(0, len(rays) - 1)), rays.pop(i))
    return rays


class TestViolationsAgainstLoop:
    # the per-ray loop fan_violations replaced: same violations in the same order

    @given(_malformed_rays())
    def test_same_violations_as_the_loop(self, rays):
        assert fan_violations(rays) == reference_fan_violations(rays)

    @given(_malformed_rays(), st.sampled_from(["list", "outer-iterator", "ray-iterators",
                                               "generator"]))
    @example([[1, 0], [0, 1.5], [-1, -1]], "ray-iterators")
    @example([[1, 0], 5, [-1, -1]], "generator")
    def test_fan_raises_exactly_the_violations(self, rays, form):
        # Fan2D and fan_violations read the rays alike, one-shot ones included: each gets its
        # own copy of the rays in that form
        def given_form():
            if form == "outer-iterator":
                return iter(rays)
            if form == "ray-iterators":
                return [iter(r) for r in rays]
            return (r for r in rays) if form == "generator" else rays

        violations = fan_violations(given_form())
        try:
            Fan2D(given_form())
        except FanValidationError as e:
            assert e.violations == tuple(violations) != ()
        else:
            assert violations == []

    @pytest.mark.parametrize("rays", [[], [(1, 0)], [(1, 0), (0, 1)], [(0, 0), (2, 2), (1, 0)],
                                      [(1, 0), (0, -1), (-1, 1), (0, 1)],
                                      [(1, 0), (0, 1), (-1, -1)] * 2,
                                      [(1, 0, 0), (0, 1), (-1, -1)], [(1,), (0, 1), (-1, -1)]])
    def test_each_kind(self, rays):
        assert fan_violations(rays) == reference_fan_violations(rays)


class TestHirzebruch:
    def test_rays(self):
        assert hirzebruch_fan(1).rays == ((1, 0), (0, 1), (-1, 1), (0, -1))

    def test_consecutive_crosses(self):
        fan = hirzebruch_fan(2)
        assert cross(fan.rays[1], fan.rays[2]) == 1
        for j in range(4):
            assert cross(fan.rays[j % 4], fan.rays[(j + 1) % 4]) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="^l must be a positive integer, got 0$"):
            hirzebruch_fan(0)


class TestChartDualBasis:
    # the dual basis (m, m') of cone j is the (pi1, pi2) of its first flag's chart

    def test_ruled_surface_charts(self):
        for l in (1, 2, 5):
            fan = hirzebruch_fan(l)
            for j, dual in ((1, ((l, 1), (-1, 0))), (2, ((-1, 0), (-l, -1)))):
                w = fan.charts[TFlag(j, j)]
                assert (w.pi1, w.pi2) == dual

    def test_projective_plane_first_chart(self):
        w = projective_plane_fan().charts[TFlag(0, 0)]
        assert (w.pi1, w.pi2) == ((1, 0), (0, 1))

    def test_pairing_equations_on_random_fans(self):
        rng = random.Random(19)
        for _ in range(25):
            fan = random_smooth_fan(rng)
            for w in fan.charts.values():
                u, v = w.first_ray, w.second_ray
                assert (dot(w.pi1, u), dot(w.pi1, v), dot(w.pi2, u), dot(w.pi2, v)) == (1, 0, 0, 1)


class TestChartTable:
    @given(st.integers(0, 61), st.integers(0, 2 ** 32))
    def test_table_equals_the_per_call_charts(self, subdivisions, seed):
        # star-subdivided P^2 with 3 to 64 rays
        rng = random.Random(seed)
        fan = projective_plane_fan()
        for _ in range(subdivisions):
            fan = star_subdivide(fan, rng.randrange(fan.n_rays))
        assert list(fan.charts) == reference_tflags(fan)
        for flag, w in fan.charts.items():
            assert w == reference_chart(fan, flag)

    def test_cached_table_leaves_equality_alone(self):
        fan, fresh = hirzebruch_fan(3), hirzebruch_fan(3)
        assert fan.charts is fan.charts
        assert fan == fresh and hash(fan) == hash(fresh) and repr(fan) == repr(fresh)


class TestTFlag:
    @pytest.mark.parametrize("ray, cone", [(1.0, 0), (0, 0.0), ("1", 0), (1, None)])
    def test_non_int_field_rejected(self, ray, cone):
        with pytest.raises(TypeError):
            TFlag(ray, cone)

    def test_int_flag_equals_and_hashes_as_before(self):
        flag = TFlag(2, 1)
        assert flag == TFlag(2, 1) and hash(flag) == hash(TFlag(2, 1)) == hash((2, 1))
        assert flag != TFlag(1, 2)
        assert flag in hirzebruch_fan(1).charts
        assert type(TFlag(True, 0).ray) is int and TFlag(True, 0) == TFlag(1, 0)

    def test_flag_is_the_int_pair(self):
        flag = TFlag(cone=1, ray=2)
        assert flag == TFlag(2, 1) == (2, 1) and tuple(flag) == (2, 1)
        assert repr(TFlag(2, 1)) == "TFlag(ray=2, cone=1)"
        assert flag._replace(cone=0) == TFlag(2, 0)
        with pytest.raises(TypeError):
            flag._replace(ray=2.0)

    @pytest.mark.parametrize("attr", ["ray", "cone", "other"])
    def test_fields_cannot_be_assigned(self, attr):
        flag = TFlag(2, 1)
        with pytest.raises(AttributeError):
            setattr(flag, attr, 0)
        assert flag == (2, 1)


class TestRayValuation:
    # a chart's value is the pair of orders of a monomial along its two rays'
    # divisors, each the pairing with the ray, the flag's ray first
    def test_monomial_order(self):
        fan = hirzebruch_fan(1)
        for flag, w in fan.charts.items():
            j, n = flag.cone, fan.n_rays
            u, v = fan.rays[j % n], fan.rays[(j + 1) % n]
            other = v if flag.ray == flag.cone else u
            assert w.value((2, 1)) == (dot((2, 1), fan.rays[flag.ray]), dot((2, 1), other))
        assert fan.charts[TFlag(1, 1)].value((2, 1)) == (1, -1)

    def test_worked_value(self):
        for l, b in [(1, 2), (3, 11)]:
            # flag (ray 2, cone 2): ray (-1, l), then ray (0, -1)
            assert hirzebruch_fan(l).charts[TFlag(2, 2)].value((b, 0)) == (-b, 0)

    def test_constants_are_units(self):
        for w in star_subdivide(hirzebruch_fan(2), 1).charts.values():
            assert w.value((0, 0)) == (0, 0)

    @pytest.mark.parametrize("exponent", [(1, 0, 0), (1,), ()])
    def test_exponent_of_another_length_rejected(self, exponent):
        # a dot product read only the first two components of (1, 0, 0)
        with pytest.raises(ValueError):
            hirzebruch_fan(1).charts[TFlag(0, 0)].value(exponent)

    def test_chart_is_its_4_tuple(self):
        w = hirzebruch_fan(1).charts[TFlag(2, 1)]
        # flag (ray 2, cone 1): rays (-1, 1) then (0, 1), and their dual basis
        assert w == ((-1, 1), (0, 1), (-1, 0), (1, 1)) and len(w) == 4
        assert tuple(w) == (w.first_ray, w.second_ray, w.pi1, w.pi2)
        assert w._replace(pi2=(0, 0)) == ((-1, 1), (0, 1), (-1, 0), (0, 0))
        assert type(w) is Rank2Valuation

    @pytest.mark.parametrize("attr", ["first_ray", "second_ray", "pi1", "pi2", "other"])
    def test_chart_fields_cannot_be_assigned(self, attr):
        w = hirzebruch_fan(1).charts[TFlag(0, 0)]
        with pytest.raises(AttributeError):
            setattr(w, attr, (0, 0))
        assert w == ((1, 0), (0, 1), (1, 0), (0, 1))


class TestStarSubdivide:
    def test_projective_plane_insertion(self):
        fan = star_subdivide(projective_plane_fan(), 0)
        assert fan.rays == ((1, 0), (1, 1), (0, 1), (-1, -1))

    def test_result_validates(self):
        fan = star_subdivide(projective_plane_fan(), 0)
        assert fan_violations(fan.rays) == []

    def test_ruled_surface_subdivision(self):
        fan = star_subdivide(hirzebruch_fan(1), 0)
        assert fan.n_rays == 5

    def test_iterated_subdivisions_always_validate(self):
        rng = random.Random(23)
        for _ in range(30):
            fan = random_smooth_fan(rng, max_subdivisions=6)
            assert fan_violations(fan.rays) == []

    @pytest.mark.parametrize("j", [1.0, Fraction(1), Decimal(1), "1", None])
    def test_non_int_cone_rejected(self, j):
        # the one integer input rule: j is read with operator.index before any use
        fan = hirzebruch_fan(1)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            star_subdivide(fan, j)

    def test_bool_cone_is_its_int(self):
        fan = hirzebruch_fan(1)
        assert star_subdivide(fan, True) == star_subdivide(fan, 1)
        assert star_subdivide(fan, False) == star_subdivide(fan, 0)

    @pytest.mark.parametrize("fan", [projective_plane_fan(), hirzebruch_fan(1),
                                     deep_ample_instance(random.Random(5), 16).fan],
                             ids=["P2", "F1", "deep16"])
    def test_cone_is_read_mod_n(self, fan):
        # any int j names cone j mod n, negative or past the last cone
        n = fan.n_rays
        for j in range(-n, 2 * n + 1):
            assert star_subdivide(fan, j) == star_subdivide(fan, j % n)


class TestOrbitDecomposition:
    def test_default_ownership(self):
        fan = hirzebruch_fan(1)
        dec = standard_decomposition(fan)
        assert dec.generic_owner == 0
        assert dec.ray_owner == (0, 1, 2, 3)

    def test_successor_variant(self):
        dec = standard_decomposition(hirzebruch_fan(1), "successor")
        # cone 0 owns ray 1, so ray 1's owner is 0
        assert dec.ray_owner == (3, 0, 1, 2)
        assert dec.generic_owner == 0

    def test_generic_at_variant(self):
        # the command line reads the K of generic-at=K; the library names no such variant
        with pytest.raises(ValueError) as e:
            standard_decomposition(hirzebruch_fan(1), "generic-at=2")
        assert str(e.value) == "unknown decomposition variant 'generic-at=2'"

    def test_face_condition_rejected(self):
        with pytest.raises(ValueError):
            OrbitDecomposition(0, (0, 2, 2, 3))  # ray 1 given to cone 2

    @pytest.mark.parametrize("generic, owners", [(0, [0, 1.0, 2, 3]), (0.0, [0, 1, 2, 3]),
                                                 ("0", [0, 1, 2, 3]), (0, [0, 1, "2", 3])])
    def test_non_int_owner_rejected(self, generic, owners):
        with pytest.raises(TypeError):
            OrbitDecomposition(generic, owners)

    def test_list_owners_are_a_tuple(self):
        dec = OrbitDecomposition(1, [0, 0, 2, 3])
        assert dec.ray_owner == (0, 0, 2, 3)
        assert dec == OrbitDecomposition(1, (0, 0, 2, 3))
        assert hash(dec) == hash(OrbitDecomposition(1, (0, 0, 2, 3)))
        assert OrbitDecomposition(0, iter(range(4))) == standard_decomposition(hirzebruch_fan(1))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            standard_decomposition(hirzebruch_fan(1), "nonsense")

    def test_every_orbit_assigned_once(self):
        rng = random.Random(29)
        for _ in range(20):
            fan = random_smooth_fan(rng)
            n = fan.n_rays
            for dec in (standard_decomposition(fan), standard_decomposition(fan, "successor"),
                        standard_decomposition(fan)._replace(generic_owner=1)):
                # 2n+1 orbits: dense, n rays, n fixed points; owners in range
                assert 0 <= dec.generic_owner < n
                assert len(dec.ray_owner) == n
                for i, j in enumerate(dec.ray_owner):
                    assert j in (i, (i - 1) % n)
