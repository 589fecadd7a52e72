import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricvol import (
    Fan2D,
    FlagContribution,
    Rank2Valuation,
    TFlag,
    divisor,
    divisor_polytope,
    flag_contribution,
    flag_valuation,
    hirzebruch_fan,
    okounkov_volume_report,
    projective_plane_fan,
    semigroup_level_hull,
    standard_decomposition,
    star_subdivide,
    trivialization_polytope,
)
from toricvol import divisors, lattice, valuation
from conftest import (
    all_points_level_hull,
    box_section_points,
    chain_hull,
    column_end_level_hull,
    crossing_polygon,
    deep_ample_instance,
    graded_semigroup,
    hirzebruch_grid,
    random_ample_instance,
    random_smooth_fan,
    reference_tflags,
    section_columns,
    section_lattice_points,
    spy_hull_passes,
)

# a big divisor that is not nef, curve degrees (1, -1, 1, -1, 1, -1, 1, -1, 0), whose
# level-1 section polygon holds no lattice point
LATTICE_FREE_RAYS = ((2, -1), (1, 0), (0, 1), (-1, 0), (-3, -1), (-2, -1), (-1, -1), (0, -1),
                     (1, -1))
LATTICE_FREE_COEFFS = (-1, 0, 0, 1, 2, 2, 1, 1, 0)


def ruled_divisor(l, a, b):
    return divisor(hirzebruch_fan(l), (0, a, b, 0))


def level_cycle(D, m):
    """mP_D's vertex cycle, m >= 1: the cached level-1 walk with each b and each X, Y times m."""
    return [((r0, r1, m * b), (m * X, m * Y, W)) for (r0, r1, b), (X, Y, W) in D._section_polygon]


def spy_cut_columns(monkeypatch):
    """Record (r, s, number of columns) for every ``_cut_columns`` call."""
    cut, real = [], valuation._cut_columns

    def spy(r, s, xs):
        xs = list(xs)
        cut.append((r, s, len(xs)))
        return real(r, s, xs)

    monkeypatch.setattr(valuation, "_cut_columns", spy)
    return cut


class TestFlagValuation:
    def test_curve_ray_comes_first(self):
        fan = hirzebruch_fan(2)
        w = flag_valuation(fan, TFlag(2, 1))
        assert (w.first_ray, w.second_ray) == ((-1, 2), (0, 1))
        w = flag_valuation(fan, TFlag(3, 2))
        assert (w.first_ray, w.second_ray) == ((0, -1), (-1, 2))

    def test_projective_plane(self):
        w = flag_valuation(projective_plane_fan(), TFlag(0, 0))
        assert (w.first_ray, w.second_ray) == ((1, 0), (0, 1))

    def test_rejects_non_incident_pair(self):
        with pytest.raises(ValueError):
            flag_valuation(hirzebruch_fan(1), TFlag(0, 1))

    @pytest.mark.parametrize("fan", [hirzebruch_fan(1), projective_plane_fan(),
                                     deep_ample_instance(random.Random(1), 8).fan],
                             ids=["F1", "P2", "deep8"])
    def test_every_pair_is_a_table_flag_or_refused(self, fan):
        n = fan.n_rays
        flags = set(reference_tflags(fan))
        for r in range(-1, n + 1):
            for c in range(-1, n + 1):
                flag = TFlag(r, c)
                if flag in flags:
                    assert flag_valuation(fan, flag) is fan.charts[flag]
                    continue
                want = (f"no maximal cone {c}" if not 0 <= c < n
                        else f"ray {r} is not a face of cone {c}: not a flag")
                with pytest.raises(ValueError) as err:
                    flag_valuation(fan, flag)
                assert str(err.value) == want

    def test_tuple_miss_refused_like_a_flag_miss(self):
        # a TFlag hashes like its (ray, cone) tuple, so a tuple hit is a flag; a tuple
        # miss must raise the ValueError a TFlag miss raises, not an AttributeError
        D = ruled_divisor(1, 1, 2)
        calls = (lambda f: flag_valuation(D.fan, f), lambda f: trivialization_polytope(D, f),
                 lambda f: semigroup_level_hull(D, f, 2),
                 lambda f: okounkov_volume_report(D, display_flag=f))
        for pair in ((0, 99), (0, 1), (2, 3), (-1, 0), (4, 4)):
            for call in calls:
                with pytest.raises(ValueError) as want:
                    call(TFlag(*pair))
                with pytest.raises(ValueError) as got:
                    call(pair)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("entry", [
        lambda D, f: flag_valuation(D.fan, f),
        lambda D, f: trivialization_polytope(D, f),
        lambda D, f: semigroup_level_hull(D, f, 2),
        lambda D, f: flag_contribution(D, f, standard_decomposition(D.fan)),
    ], ids=["flag_valuation", "trivialization_polytope", "semigroup_level_hull", "flag_contribution"])
    def test_pair_is_read_through_tflag(self, entry):
        # (2.0, 1) and (Fraction(2), 1) hash like the table's key TFlag(2, 1), so only
        # reading the pair through TFlag refuses them; a bool is read as its int
        D = ruled_divisor(1, 1, 2)
        for pair in ((2.0, 1), (Fraction(2), 1), (2, 1.0), (2, Fraction(1))):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                entry(D, pair)
        got = entry(D, (2, True))
        assert got == entry(D, TFlag(2, 1))
        if isinstance(got, FlagContribution):
            assert type(got.flag) is TFlag and list(map(type, got.flag)) == [int, int]

    def test_uniformizers_dual_to_flag_order(self):
        fan = hirzebruch_fan(1)
        # chart of cone 1 is k[x y, x^-1]; the curve of ray 2 is cut by x^-1
        w = flag_valuation(fan, TFlag(2, 1))
        assert (w.pi1, w.pi2) == ((-1, 0), (1, 1))
        w = flag_valuation(fan, TFlag(1, 1))
        assert (w.pi1, w.pi2) == ((1, 1), (-1, 0))


class TestValue:
    def test_worked_columns(self):
        for l, a, b in [(1, 1, 2), (3, 2, 9)]:
            w = flag_valuation(hirzebruch_fan(l), TFlag(2, 1))
            assert w.value((b, 0)) == (-b, 0)
            assert w.value((b - l * a, -a)) == (-b, -a)
            assert w.value((0, -a)) == (-l * a, -a)

    def test_monoid_homomorphism(self):
        rng = random.Random(47)
        for _ in range(100):
            D = random_ample_instance(rng, max_subdivisions=2)
            flag = rng.choice(list(D.fan.charts))
            w = flag_valuation(D.fan, flag)
            e1 = (rng.randint(-9, 9), rng.randint(-9, 9))
            e2 = (rng.randint(-9, 9), rng.randint(-9, 9))
            v1, v2 = w.value(e1), w.value(e2)
            assert w.value((e1[0] + e2[0], e1[1] + e2[1])) == (v1[0] + v2[0], v1[1] + v2[1])

    def test_worked_exponent(self):
        # flag (ray 1, cone 0): pair with ray (0, 1) first, then with (1, 0)
        w = flag_valuation(hirzebruch_fan(1), TFlag(1, 0))
        assert w.value((3, -2)) == (-2, 3)


class TestTrivializationPolytope:
    def test_worked_hull(self):
        p = trivialization_polytope(ruled_divisor(1, 1, 2), TFlag(1, 0))
        assert set(p.vertices) == {(-1, 0), (-1, 1), (0, 2), (0, 0)}
        assert p.area == Fraction(3, 2)

    def test_every_flag_same_area(self):
        for l, a, b in [(1, 1, 2), (2, 1, 3), (3, 4, 15)]:
            D = ruled_divisor(l, a, b)
            area = divisor_polytope(D).area
            for flag in D.fan.charts:
                assert trivialization_polytope(D, flag).area == area

    def test_flag_independence_on_random_instances(self):
        rng = random.Random(53)
        for _ in range(15):
            D = random_ample_instance(rng)
            area = divisor_polytope(D).area
            for flag in D.fan.charts:
                assert trivialization_polytope(D, flag).area == area

    def test_zero_divisor_single_point(self):
        p = trivialization_polytope(ruled_divisor(1, 0, 0), TFlag(1, 0))
        assert p.vertices == ((0, 0),) and p.area == 0

    def test_nef_boundary_still_matches_polytope_area(self):
        D = ruled_divisor(1, 1, 1)
        area = divisor_polytope(D).area
        assert trivialization_polytope(D, TFlag(2, 1)).area == area == Fraction(1, 2)

    def test_non_nef_is_the_hull_of_the_valued_local_equations(self):
        # no gate: each local equation solved from its cone's two rays by Cramer's rule,
        # paired with the flag's curve ray, then its cone's other ray, and hulled by the oracle
        rng = random.Random(67)
        draws = [ruled_divisor(1, 1, 0)]
        while len(draws) < 20:
            fan = random_smooth_fan(rng)
            D = divisor(fan, [rng.randint(-5, 9) for _ in range(fan.n_rays)])
            if min(D.curve_degrees) < 0:
                draws.append(D)
        for D in draws:
            rays, d, n = D.fan.rays, D.coeffs, D.fan.n_rays
            local = []
            for j in range(n):
                (u0, u1), (v0, v1), a, b = rays[j], rays[(j + 1) % n], -d[j], -d[(j + 1) % n]
                det = u0 * v1 - u1 * v0
                local.append((Fraction(a * v1 - b * u1, det), Fraction(u0 * b - v0 * a, det)))
            for ray, cone in D.fan.charts:
                r, s = rays[ray], rays[cone if ray != cone else (cone + 1) % n]
                want = chain_hull((h[0] * r[0] + h[1] * r[1], h[0] * s[0] + h[1] * s[1])
                                  for h in local)
                got = trivialization_polytope(D, TFlag(ray, cone))
                assert set(got.vertices) == set(want.vertices) and got.area == want.area


class TestGradedSemigroup:
    def test_level_zero_only_origin(self):
        D = ruled_divisor(1, 1, 2)
        assert graded_semigroup(D, TFlag(1, 0), 0) == {((0, 0), 0)}
        with pytest.raises(ValueError, match="^m_max must be nonnegative$"):
            graded_semigroup(D, TFlag(1, 0), -1)

    def test_level_one_images(self):
        D = ruled_divisor(1, 1, 2)
        got = graded_semigroup(D, TFlag(1, 0), 1)
        level1 = {v for v, m in got if m == 1}
        assert level1 == {(0, 0), (0, 1), (0, 2), (-1, 0), (-1, 1)}
        assert len(got) == 6

    def test_level_hull_matches_trivialization(self):
        for l, a, b in [(1, 1, 2), (2, 1, 3)]:
            D = ruled_divisor(l, a, b)
            for flag in (TFlag(1, 0), TFlag(2, 1)):
                target = set(trivialization_polytope(D, flag).vertices)
                for m in range(1, 6):
                    assert set(semigroup_level_hull(D, flag, m).vertices) == target

    @staticmethod
    def assert_level_hull_matches_oracle(D, levels):
        # the all-points hull is the oracle, on ample, nef, non-nef and empty levels
        for m in levels:
            sections = box_section_points(D, m)
            for flag in D.fan.charts:
                if not sections:
                    with pytest.raises(ValueError, match=f"no sections at level {m}"):
                        semigroup_level_hull(D, flag, m)
                    continue
                want = all_points_level_hull(flag_valuation(D.fan, flag), sections, m)
                got = semigroup_level_hull(D, flag, m)
                assert (got.vertices, got.area) == (want.vertices, want.area)
                assert all(type(c) is Fraction and m % c.denominator == 0
                           for v in got.vertices for c in v)

    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 32))
    def test_level_hull_equals_hull_of_every_valued_section(self, seed):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng)
        D = divisor(fan, [rng.randint(-3, 6) for _ in range(fan.n_rays)])
        self.assert_level_hull_matches_oracle(D, (1, 2, 3, 4, 5, 8))
        for m in (0, -1):
            with pytest.raises(ValueError, match="positive integer"):
                semigroup_level_hull(D, rng.choice(list(fan.charts)), m)

    def test_level_hull_equals_oracle_on_hirzebruch_grid(self):
        for l, a, b in hirzebruch_grid():
            self.assert_level_hull_matches_oracle(ruled_divisor(l, a, b), (5,))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_level_hull_equals_oracle_on_deep_fans(self, n):
        # small nef divisors on deep fans, as in the row scan's test: the divisor
        # of a random small polygon Q, and that divisor perturbed by -1..1 per ray
        rng = random.Random(n)
        fan = deep_ample_instance(rng, n).fan
        q = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        nef = [-min(p[0] * r[0] + p[1] * r[1] for p in q) for r in fan.rays]
        for coeffs in (nef, [d + rng.randint(-1, 1) for d in nef]):
            self.assert_level_hull_matches_oracle(divisor(fan, coeffs), range(1, 6))

    @pytest.mark.parametrize("rays, coeffs, shape", [
        # one column {0} x [0, 4]: the square's fan, a vertical segment
        (((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0, 0, 4), "one column"),
        # every column one point, on the horizontal segment [0, 4] x {0}
        (((1, 0), (0, 1), (-1, 1), (0, -1)), (0, 0, 4, 0), "lo == hi"),
        # every column one point, on the antidiagonal x + y = 0
        (((1, 1), (0, 1), (-1, -1), (0, -1)), (0, 4, 0, 0), "lo == hi"),
        # the zero divisor: one column of one point
        (((1, 0), (0, 1), (-1, 1), (0, -1)), (0, 0, 0, 0), "one column"),
    ], ids=["vertical", "horizontal", "antidiagonal", "point"])
    def test_level_hull_on_degenerate_levels(self, rays, coeffs, shape):
        D = divisor(Fan2D(rays), coeffs)
        for m in range(1, 6):
            cols = section_columns(D, m)
            if shape == "one column":
                assert len(cols) == 1
            else:
                assert len(cols) > 1 and all(lo == hi for _, lo, hi in cols)
        self.assert_level_hull_matches_oracle(D, range(1, 6))

    def test_level_hull_values_only_column_ends(self, monkeypatch):
        # level 5 of (0, 4, 9, 0) on F_1 has 756 sections in 46 columns: the
        # level hull values at most two per column
        D = ruled_divisor(1, 4, 9)
        assert len(section_lattice_points(D, 5)) > 750
        columns = {m: len(section_columns(D, m)) for m in range(1, 6)}
        calls, value = [], Rank2Valuation.value

        def spy(self, exponent):
            calls.append(exponent)
            return value(self, exponent)

        monkeypatch.setattr(Rank2Valuation, "value", spy)
        for flag in D.fan.charts:
            for m, width in columns.items():
                calls.clear()
                semigroup_level_hull(D, flag, m)
                assert 0 < len(calls) <= 2 * width

    @staticmethod
    def assert_level_hull_matches_every_column(D, levels, flags=None):
        # the every-column hull is the oracle, error text included, and the column path,
        # on any nonempty section polygon, cuts only section_columns columns, with their
        # ends, in increasing x, and among them every vertex of the sections' hull
        def outcome(f, *args):
            try:
                got = f(*args)
            except ValueError as e:
                return str(e)
            return got.vertices, got.area

        for m in levels:
            if m >= 1 and (cycle := level_cycle(D, m)):
                with pytest.MonkeyPatch.context() as mp:
                    cut = spy_cut_columns(mp)
                    kept = valuation._hull_columns(cycle, m)
                # no stretch is cut at more than max(r1, |s1|) columns at either end
                assert all(n <= 2 * max(r[1], -s[1]) for r, s, n in cut)
                cols = section_columns(D, m)
                assert set(kept) <= set(cols)
                assert all(u[0] < v[0] for u, v in zip(kept, kept[1:]))
                if cols:
                    assert (chain_hull((x, y) for x, lo, hi in kept for y in (lo, hi))
                            == chain_hull((x, y) for x, lo, hi in cols for y in (lo, hi)))
            for flag in flags or D.fan.charts:
                assert (outcome(semigroup_level_hull, D, flag, m)
                        == outcome(column_end_level_hull, D, flag, m))

    @given(st.integers(0, 2 ** 32))
    def test_level_hull_equals_every_column_hull(self, seed):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, max_subdivisions=6)
        D = divisor(fan, [rng.randint(-5, 9) for _ in range(fan.n_rays)])
        self.assert_level_hull_matches_every_column(D, range(-1, 9))

    @settings(max_examples=8)
    @given(st.sampled_from([8, 16, 32, 64]), st.integers(0, 2 ** 32))
    def test_level_hull_equals_every_column_hull_on_deep_fans(self, n, seed):
        rng = random.Random(seed)
        fan = deep_ample_instance(rng, n).fan
        q = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        nef = [-min(p[0] * r[0] + p[1] * r[1] for p in q) for r in fan.rays]
        flags = rng.sample(list(fan.charts), 4)  # the columns do not depend on the flag
        for coeffs in (nef, [d + rng.randint(-1, 1) for d in nef]):
            self.assert_level_hull_matches_every_column(divisor(fan, coeffs), range(1, 9), flags)

    def test_horizontal_rays_narrow_the_box(self):
        # the box spans x = -18..1, the rays (1, 0) and (-1, 0) allow only -8..-3: a
        # stretch cut from the box alone missed the columns -8 and -7
        rays = ((1, 0), (0, 1), (-1, 0), (-2, -1), (-3, -2), (-4, -3), (-1, -1), (0, -1))
        D = divisor(Fan2D(rays), (8, 3, -3, -3, 0, 3, 7, 6))
        assert [x for x, _, _ in section_columns(D, 1)] == [-8, -7, -6, -5, -4, -3]
        assert min(x for x, _ in D.cocycle) == -18
        assert valuation._hull_columns(level_cycle(D, 1), 1)[0] == (-8, -3, 6)
        self.assert_level_hull_matches_every_column(D, range(1, 9))
        self.assert_level_hull_matches_oracle(D, (1, 2))

    @pytest.mark.parametrize("coeffs", [(2, 1, 2, 0), (2, 0, 2, 0)], ids=["sliver", "segment"])
    def test_thin_polygon_with_empty_middle_columns(self, coeffs):
        # between the lines of (-1, 3) and (1, -3) every third column (the sliver)
        # or two in three (the segment on y = x/3) hold no lattice point
        D = divisor(Fan2D(((0, 1), (-1, 3), (-1, 2), (1, -3))), coeffs)
        xs = [x for x, _, _ in section_columns(D, 1)]
        assert len(xs) < xs[-1] - xs[0] + 1
        self.assert_level_hull_matches_every_column(D, range(1, 9))
        self.assert_level_hull_matches_oracle(D, range(1, 4))

    def test_level_hull_of_a_lattice_free_level(self):
        # big, not nef, and no section at level 1: P_D is the triangle (1/2, 0), (2/3, 0),
        # (3/5, 1/5), whose columns the column path cuts and finds empty; level 30 clears its
        # denominators, so that level hull is the Okounkov body
        D = divisor(Fan2D(LATTICE_FREE_RAYS), LATTICE_FREE_COEFFS)
        assert len(D.fan.charts) == 18
        for flag in D.fan.charts:
            with pytest.raises(ValueError, match="^no sections at level 1$"):
                semigroup_level_hull(D, flag, 1)
            assert len(semigroup_level_hull(D, flag, 2).vertices) == 1
            assert semigroup_level_hull(D, flag, 30).area == Fraction(1, 60)
        self.assert_level_hull_matches_every_column(D, range(1, 9))

    def test_lattice_path_is_chosen_on_the_scaled_cycle(self, monkeypatch):
        # the lattice-free triangle's vertices have denominators 2, 3 and 5: its level-m cycle
        # is on the lattice, and no column is cut, exactly when 30 divides m
        D = divisor(Fan2D(LATTICE_FREE_RAYS), LATTICE_FREE_COEFFS)
        cut = spy_cut_columns(monkeypatch)
        for m in (10, 15, 29, 30, 31, 45, 60, 90):
            cut.clear()
            semigroup_level_hull(D, TFlag(1, 0), m)
            assert (cut == []) == (m % 30 == 0)

    def test_level_hull_cost_does_not_follow_the_width(self, monkeypatch):
        # (0, 2, b, 0) at level 5 has 5*b + 1 columns and is nef: no column is cut. (0, b, b, 0)
        # on F_l is not: its level-5 polygon is the triangle (0, 0), (5b, 0), (0, -5b/l), whose
        # last vertex is no lattice point for these l and b, and one stretch bounded by the rows
        # of (-1, l) and (0, -1) is cut at 2*l columns for every b
        cut = spy_cut_columns(monkeypatch)
        for b in (10, 100, 1000, 10_000):
            for l in (1, 3):
                cut.clear()
                semigroup_level_hull(ruled_divisor(l, 2, b), TFlag(2, 1), 5)
                assert cut == []
            for l in (3, 7):
                cut.clear()
                semigroup_level_hull(ruled_divisor(l, b, b), TFlag(2, 1), 5)
                assert [n for _, _, n in cut] == [2 * l]

    @pytest.mark.parametrize("rays, coeffs, r, s, width", [
        (((1, 0), (1, 1), (1, 2), (0, 1), (-1, -1), (0, -1), (1, -2), (1, -1)),
         (8, 2, 3, 5, 7, 7, -2, 6), (1, 2, -3), (1, -2, 2), 4),
        (((1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-2, -1), (-3, -2), (-1, -1)),
         (8, 7, -1, -1, -1, 7, -4, 2), (-1, 2, 1), (-3, -2, 4), 4),
        (((1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-1, -1), (-2, -3), (-1, -2), (0, -1)),
         (4, 6, 2, 4, 8, 7, 6, 6, 8), (-1, 2, -2), (-2, -3, -6), 6),
        (((1, 0), (1, 1), (1, 2), (0, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2), (-1, -1)),
         (8, 4, -3, 3, -4, 6, 2, 1, 7), (1, 2, 3), (-3, -2, -1), 4),
    ], ids=["eight-rays-a", "eight-rays-b", "nine-rays-a", "nine-rays-b"])
    def test_level_hull_cuts_max_r1_s1_at_both_ends(self, rays, coeffs, r, s, width, monkeypatch):
        # the long stretch between the rows r and s is cut at q = max(r1, |s1|) columns at
        # each end, its narrowing end too, where r1 + |s1| columns would be 6, 6, 7 and 5
        D = divisor(Fan2D(rays), coeffs)
        cut = spy_cut_columns(monkeypatch)
        semigroup_level_hull(D, TFlag(0, 0), 1)
        assert [n for u, v, n in cut if (u, v) == (r, s)] == [width]
        monkeypatch.undo()
        self.assert_level_hull_matches_every_column(D, range(1, 4))

    def test_level_hull_checks_convexity_once(self, monkeypatch):
        # the int hull is checked; its 1/m copy is not checked again
        calls, real = [], lattice._strictly_convex

        def spy(xs, ys):
            calls.append(len(xs))
            return real(xs, ys)

        monkeypatch.setattr(lattice, "_strictly_convex", spy)
        D = ruled_divisor(2, 3, 8)
        for flag in D.fan.charts:
            for m in range(1, 6):
                calls.clear()
                hull = semigroup_level_hull(D, flag, m)
                assert calls == [len(hull.vertices)]

    def test_convex_hulls_are_not_chained(self, monkeypatch):
        # an ample divisor's hull inputs already are strictly convex cycles: the report's
        # two hulls and every level hull are checked once inside convex_hull_2d, not chained
        log, hull, inside = [], lattice.convex_hull_2d, spy_hull_passes(monkeypatch)

        def hull_spy(points):
            inside.clear()
            out = hull(points)
            log.append(tuple(inside))
            return out
        monkeypatch.setattr(divisors, "convex_hull_2d", hull_spy)
        monkeypatch.setattr(valuation, "convex_hull_2d", hull_spy)
        rng = random.Random(29)
        for n in (3, 8, 64):
            D = deep_ample_instance(rng, n)
            for flag in (TFlag(0, 0), TFlag(1, 0)):
                log.clear()
                assert okounkov_volume_report(D, display_flag=flag).agree
                assert log == [("convex",)] * 2
        for D in (ruled_divisor(1, 1, 2), ruled_divisor(2, 3, 8), ruled_divisor(4, 5, 21),
                  deep_ample_instance(rng, 6)):
            for flag in D.fan.charts:
                log.clear()
                for m in range(1, 6):
                    semigroup_level_hull(D, flag, m)
                assert log == [("convex",)] * 5

    def test_level_hull_size_guard_boundary(self, monkeypatch):
        # (0, 100, 100, 0) on F_3 is not nef: level 1 is the triangle (0, 0), (100, 0),
        # (0, -100/3), whose 101 columns hold 6 that the guard counts before any is cut
        D = ruled_divisor(3, 100, 100)
        want = column_end_level_hull(D, TFlag(2, 1), 1)
        monkeypatch.setattr(valuation, "SECTION_SCAN_LIMIT", 6)
        got = semigroup_level_hull(D, TFlag(2, 1), 1)
        assert (got.vertices, got.area) == (want.vertices, want.area)
        monkeypatch.setattr(valuation, "SECTION_SCAN_LIMIT", 5)
        monkeypatch.setattr(valuation, "_cut_columns", None)
        with pytest.raises(ValueError) as err:
            semigroup_level_hull(D, TFlag(2, 1), 1)
        assert str(err.value) == "level 1 has 6 columns to cut, more than the limit of 5"
        # a nef divisor cuts no column, whatever the limit
        monkeypatch.setattr(valuation, "SECTION_SCAN_LIMIT", 0)
        assert semigroup_level_hull(ruled_divisor(1, 1, 2), TFlag(2, 1), 2).area == Fraction(3, 2)

    def test_level_hull_reads_the_level_by_index(self):
        # before the flag is looked up: TFlag(0, 1) is no flag of F_1
        D = ruled_divisor(1, 1, 2)
        for m in ("2", 2.0, Fraction(2)):
            for flag in (TFlag(2, 1), TFlag(0, 1)):
                with pytest.raises(TypeError):
                    semigroup_level_hull(D, flag, m)
        assert semigroup_level_hull(D, TFlag(2, 1), True) == semigroup_level_hull(D, TFlag(2, 1), 1)

    @staticmethod
    def assert_level_hull_is_the_polygon(D, flags, monkeypatch):
        # a nef divisor's level hull is its trivialization polytope at every level, with no column cut
        def spy(*args):
            raise AssertionError("a lattice polygon is its own integer hull: no column is cut")

        monkeypatch.setattr(valuation, "_cut_columns", spy)
        for flag in flags:
            want = trivialization_polytope(D, flag).vertices
            for m in range(1, 6):
                assert semigroup_level_hull(D, flag, m).vertices == want

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_level_hull_reaches_deep_fans(self, n, monkeypatch):
        # boxes of 10^11 points and more: the box scan refuses level 1
        D = deep_ample_instance(random.Random(1009 + n), n)
        with pytest.raises(ValueError, match="candidate points"):
            section_columns(D, 1)
        flags = random.Random(n).sample(list(D.fan.charts), 4)
        self.assert_level_hull_is_the_polygon(D, flags, monkeypatch)

    def test_level_hull_of_a_small_polygon_on_a_deep_fan(self, monkeypatch):
        # the nef divisor of a random polygon in [-3, 3]^2 on a 64-ray fan, whose ray lines
        # cross between nearly every two columns
        rng = random.Random(3)
        fan = deep_ample_instance(rng, 64).fan
        q = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        D = divisor(fan, [-min(p[0] * r[0] + p[1] * r[1] for p in q) for r in fan.rays])
        self.assert_level_hull_is_the_polygon(D, rng.sample(list(fan.charts), 8), monkeypatch)

    @staticmethod
    def assert_section_polygon_matches_crossings(D, m):
        # the cached walk scaled by m: each vertex lies on its row's line and the next row's, the
        # rows are rays' rows in ray order, and the cycle without repeats, from its least vertex,
        # is the crossing hull of level m
        cycle = level_cycle(D, m)
        rows = [(r0, r1, -m * d) for (r0, r1), d in zip(D.fan.rays, D.coeffs)]
        at = [rows.index(row) for row, _ in cycle]
        assert at == sorted(at) and len(set(at)) == len(at)
        for (row, (X, Y, W)), (after, _) in zip(cycle, cycle[1:] + cycle[:1]):
            assert W > 0
            assert all(X * r0 + Y * r1 == b * W for r0, r1, b in (row, after))
        pts = [(Fraction(X, W), Fraction(Y, W)) for _, (X, Y, W) in cycle]
        pts = [p for p, q in zip(pts, pts[-1:] + pts[:-1]) if p != q] or pts[:1]
        k = pts.index(min(pts)) if pts else 0
        assert tuple(pts[k:] + pts[:k]) == crossing_polygon(D, m)
        return pts

    @given(st.integers(0, 2 ** 32), st.integers(1, 8))
    def test_section_polygon_equals_crossing_polygon(self, seed, m):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng)
        D = divisor(fan, [rng.randint(-5, 9) for _ in range(fan.n_rays)])
        self.assert_section_polygon_matches_crossings(D, m)

    @pytest.mark.parametrize("rays, coeffs, shape", [
        (((1, 0), (0, 1), (-1, -1)), (-1, 0, 0), 0),
        (((1, 0), (0, 1), (-1, 0), (0, -1)), (-1, 0, 0, 0), 0),
        (((1, 0), (0, 1), (-1, 1), (0, -1)), (0, 0, 0, 0), 1),
        (((1, 0), (0, 1), (-1, 1), (0, -1)), (0, 0, 4, 0), 2),
        (((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0, 0, 4), 2),
        (((1, 0), (0, 1), (-1, 3), (0, -1)), (0, 2, 5, 0), 3),
        (((1, 0), (1, 1), (1, 2), (0, 1), (-1, 0), (0, -1)), (-2, 5, 5, 5, 4, 5), 4),
        (LATTICE_FREE_RAYS, LATTICE_FREE_COEFFS, 3),
    ], ids=["empty", "empty-strip", "point", "segment", "vertical", "non-nef", "two-removals",
            "lattice-free"])
    def test_section_polygon_on_every_shape(self, rays, coeffs, shape):
        D = divisor(Fan2D(rays), coeffs)
        for m in range(1, 6):
            assert len(self.assert_section_polygon_matches_crossings(D, m)) == shape

    def test_level_hull_rejects_empty_level(self):
        D = divisor(projective_plane_fan(), (-1, 0, 0))
        for flag in D.fan.charts:
            with pytest.raises(ValueError):
                semigroup_level_hull(D, flag, 2)

    def test_flag_table_counts(self):
        assert len(hirzebruch_fan(1).charts) == 8
        p2 = projective_plane_fan()
        assert len(p2.charts) == 6
        assert len(star_subdivide(p2, 1).charts) == 8
