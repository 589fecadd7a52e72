import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from toricvol import (
    Fan2D,
    TorusDivisor,
    ampleness_violations,
    divisor_polytope,
    dot,
    generation_violations,
    hirzebruch_fan,
    projective_plane_fan,
    semigroup_level_hull,
    TFlag,
)
from toricvol import divisors
import conftest
from conftest import (
    box_section_points,
    cech_cocycle,
    chain_hull,
    crossing_polygon,
    deep_ample_instance,
    hirzebruch_grid,
    pairwise_violations,
    random_ample_instance,
    random_smooth_fan,
    ruled_divisor,
    section_columns,
    section_lattice_points,
    stepwise_deep_ample_instance,
)


class TestCoefficients:
    def test_list_coefficients_equal_and_hash_like_tuples(self):
        fan = hirzebruch_fan(1)
        D = TorusDivisor(fan, [0, 1, 2, 0])
        assert D.coeffs == (0, 1, 2, 0)
        assert D == TorusDivisor(fan, (0, 1, 2, 0)) and hash(D) == hash(TorusDivisor(fan, (0, 1, 2, 0)))

    def test_non_integer_coefficient_raises_at_construction(self):
        fan = hirzebruch_fan(1)
        for bad in ((0, 1.0, 2, 0), (0, 1, Fraction(5, 2), 0), (0, 1, "2", 0)):
            with pytest.raises(TypeError):
                TorusDivisor(fan, bad)
            with pytest.raises(TypeError):
                TorusDivisor(fan, bad)

    def test_coefficient_count_must_match_the_rays(self):
        with pytest.raises(ValueError, match="^3 coefficients for 4 rays$"):
            TorusDivisor(hirzebruch_fan(1), (0, 1, 2))


class TestCartierData:
    def test_symbolic_family(self):
        # h = [y^-a, x^(b-la) y^-a, x^b, 1] in cone order
        for l, a, b in [(1, 1, 2), (2, 3, 8), (4, 5, 23)]:
            h = ruled_divisor(l, a, b).cocycle
            assert h == ((0, -a), (b - l * a, -a), (b, 0), (0, 0))

    def test_zero_divisor(self):
        assert ruled_divisor(3, 0, 0).cocycle == ((0, 0),) * 4

    def test_defining_pairings_hold_everywhere(self):
        rng = random.Random(31)
        for _ in range(25):
            D = random_ample_instance(rng)
            h = D.cocycle
            n = D.fan.n_rays
            for j in range(n):
                assert dot(h[j], D.fan.rays[j]) == -D.coeffs[j]
                assert dot(h[j], D.fan.rays[(j + 1) % n]) == -D.coeffs[(j + 1) % n]


class TestCechCocycle:
    def test_worked_quotients(self):
        a, b, l = 3, 7, 1
        h = ruled_divisor(l, a, b).cocycle
        assert cech_cocycle(h, 0, 2) == (b, a)          # h4/h0 = x^b y^a
        assert cech_cocycle(h, 2, 1) == (-l * a, -a)    # h2/h4 = x^-la y^-a

    def test_diagonal_trivial(self):
        h = ruled_divisor(2, 1, 3).cocycle
        for j in range(4):
            assert cech_cocycle(h, j, j) == (0, 0)

    def test_cocycle_condition(self):
        rng = random.Random(37)
        for _ in range(10):
            D = random_ample_instance(rng)
            h = D.cocycle
            n = D.fan.n_rays
            for a in range(n):
                for b in range(n):
                    assert cech_cocycle(h, a, b)[0] == -cech_cocycle(h, b, a)[0]
                    for c in range(n):
                        fab, fbc, fac = (cech_cocycle(h, a, b), cech_cocycle(h, b, c),
                                         cech_cocycle(h, a, c))
                        assert (fab[0] + fbc[0], fab[1] + fbc[1]) == fac


class TestPositivity:
    def test_ample_criterion_matches_closed_form(self):
        for l in range(1, 4):
            fan = hirzebruch_fan(l)
            for a in range(-2, 4):
                for b in range(-2, 8):
                    expected = a > 0 and b - l * a > 0
                    assert (not ampleness_violations(TorusDivisor(fan, (0, a, b, 0)))) is expected

    def test_nef_boundary_not_ample(self):
        assert ampleness_violations(ruled_divisor(1, 1, 1))
        assert ampleness_violations(ruled_divisor(1, 0, 1))

    def test_globally_generated_examples(self):
        assert not generation_violations(ruled_divisor(1, 1, 2))
        assert not generation_violations(ruled_divisor(1, 0, 0))
        assert generation_violations(ruled_divisor(1, 1, 0))

    def test_generation_witnesses_name_cone_and_ray(self):
        bad = generation_violations(ruled_divisor(1, 1, 0))
        assert bad
        D = ruled_divisor(1, 1, 0)
        h = D.cocycle
        for j, i in bad:
            assert dot(h[j], D.fan.rays[i]) < -D.coeffs[i]

    def test_ample_implies_globally_generated(self):
        rng = random.Random(41)
        for _ in range(40):
            D = random_ample_instance(rng)
            assert not generation_violations(D)


class TestCurveDegreeCriterion:
    """The O(n) curve-degree gate against the pairwise reference scan."""

    @staticmethod
    def mismatches(D) -> int:
        gen = pairwise_violations(D, strict=False)
        amp = pairwise_violations(D, strict=True)
        gen_w, amp_w = generation_violations(D), ampleness_violations(D)
        ok = (bool(gen_w) is bool(gen) and bool(amp_w) is bool(amp)
              and set(gen_w) <= set(gen) and set(amp_w) <= set(amp))
        return 0 if ok else 1

    def test_random_fans_match_pairwise_oracle(self):
        rng = random.Random(53)
        bad = 0
        verdicts = set()
        for _ in range(2000):
            fan = random_smooth_fan(rng)
            D = TorusDivisor(fan, [rng.randint(-3, 6) for _ in range(fan.n_rays)])
            bad += self.mismatches(D)
            verdicts.add((not ampleness_violations(D), not generation_violations(D)))
        assert bad == 0
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_deep_fans_match_pairwise_oracle(self):
        rng = random.Random(59)
        bad = 0
        verdicts = set()
        for _ in range(200):
            D = deep_ample_instance(rng, rng.randint(8, 64))
            assert not ampleness_violations(D)
            bad += self.mismatches(D)
            d = list(D.coeffs)
            for _ in range(rng.randint(1, 3)):
                d[rng.randrange(len(d))] += rng.choice((-2, -1, 1, 2))
            perturbed = TorusDivisor(D.fan, d)
            bad += self.mismatches(perturbed)
            verdicts.add((not ampleness_violations(perturbed), not generation_violations(perturbed)))
        assert bad == 0
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_witness_slack_is_curve_degree(self):
        rng = random.Random(61)
        for _ in range(200):
            fan = random_smooth_fan(rng)
            D = TorusDivisor(fan, [rng.randint(-3, 6) for _ in range(fan.n_rays)])
            h, n = D.cocycle, fan.n_rays
            for j, i in ampleness_violations(D):
                assert i == (j + 2) % n
                assert dot(h[j], fan.rays[i]) + D.coeffs[i] == D.curve_degrees[(j + 1) % n] <= 0


class TestDeepAmpleInstance:
    """The closed-form deep-fan generator against the stepwise one it replaced."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_same_divisor_and_draws_as_stepwise_oracle(self, n):
        for seed in range(1, 11):
            fast, slow = random.Random(seed), random.Random(seed)
            assert deep_ample_instance(fast, n) == stepwise_deep_ample_instance(slow, n)
            assert fast.getstate() == slow.getstate()


class TestDivisorPolytope:
    def test_worked_instance(self):
        p = divisor_polytope(ruled_divisor(1, 1, 2))
        assert set(p.vertices) == {(0, 0), (2, 0), (1, -1), (0, -1)}
        assert p.area == Fraction(3, 2)

    def test_zero_divisor_point(self):
        p = divisor_polytope(ruled_divisor(1, 0, 0))
        assert p.vertices == ((0, 0),)
        assert p.area == 0

    def test_area_closed_form(self):
        assert divisor_polytope(ruled_divisor(2, 1, 3)).area == 2
        for l, a, b in hirzebruch_grid():
            assert divisor_polytope(ruled_divisor(l, a, b)).area \
                == Fraction(2 * a * b - l * a * a, 2)

    @given(st.integers(0, 2 ** 32))
    def test_divisor_polytope_is_the_half_plane_polygon(self, seed):
        # every divisor, nef or not: the vertices of the crossing hull, ints exactly when all
        # are lattice points, and ValueError for an empty P_D
        rng = random.Random(seed)
        fan = random_smooth_fan(rng)
        D = TorusDivisor(fan, [rng.randint(-5, 9) for _ in range(fan.n_rays)])
        want = crossing_polygon(D, 1)
        if not want:
            with pytest.raises(ValueError, match="^convex hull of an empty point set$"):
                divisor_polytope(D)
            return
        got = divisor_polytope(D)
        assert set(got.vertices) == set(want)
        assert got.area == chain_hull(want).area
        on_lattice = all(c.denominator == 1 for v in want for c in v)
        assert all(type(c) is (int if on_lattice else Fraction) for v in got.vertices for c in v)

    def test_divisor_polytope_of_lattice_vertices_with_w_above_1(self, monkeypatch):
        # the walk meets the line of (-1, 1) at (2/2, 6/2) = (1, 3): W = 1, 2, 1, yet every
        # vertex is a lattice point, so P_D's denominator is 1, route 1 keeps int vertices and
        # no level hull cuts a column
        D = TorusDivisor(Fan2D(((1, 0), (0, 1), (-1, 1), (-1, 0), (-1, -1))), (0, 9, -2, 4, 4))
        assert [W for _, (_, _, W) in D._section_polygon] == [1, 2, 1]
        P = divisor_polytope(D)
        assert P.vertices == ((0, 2), (1, 3), (0, 4))
        assert all(type(c) is int for v in P.vertices for c in v)
        cut, real = [], divisors._cut_columns

        def spy(r, s, xs):
            cut.append((r, s))
            return real(r, s, xs)

        monkeypatch.setattr(divisors, "_cut_columns", spy)
        for flag in D.fan.charts:
            for m in range(1, 6):
                semigroup_level_hull(D, flag, m)
        assert cut == []

    @given(st.integers(0, 2 ** 32))
    @example(2)   # an empty P_D
    @example(10)  # a denominator k = 2
    def test_lattice_cycle_is_the_scaled_walk(self, seed):
        # the cached pair is P_D's denominator k and the walk's vertices times k, in the walk's
        # order, repeats kept, as route 1 and the level hulls each made it before it was cached
        rng = random.Random(seed)
        fan = random_smooth_fan(rng)
        D = TorusDivisor(fan, [rng.randint(-5, 9) for _ in range(fan.n_rays)])
        cycle = D._section_polygon
        k = divisors._denominator(cycle)
        assert D._lattice_cycle == (k, tuple((k * X // W, k * Y // W) for _, (X, Y, W) in cycle))
        assert all(type(c) is int for v in D._lattice_cycle[1] for c in v)

    @pytest.mark.parametrize("rays, coeffs, want", [
        (((1, 0), (0, 1), (-1, -1)), (-1, 0, 0), (1, ())),
        (((1, 0), (0, 1), (-1, 3), (0, -1)), (0, 2, 5, 0), (3, ((0, -5), (15, 0), (0, 0)))),
        (((2, -1), (1, 0), (0, 1), (-1, 0), (-3, -1), (-2, -1), (-1, -1), (0, -1), (1, -1)),
         (-1, 0, 0, 1, 2, 2, 1, 1, 0), (30, ((15, 0), (20, 0), (18, 6)))),
    ], ids=["empty", "denominator-3", "lattice-free"])
    def test_lattice_cycle_worked_instances(self, rays, coeffs, want):
        # the empty P_D is (1, ()); F_3's (0, 2, 5, 0) is the triangle (0, -5/3), (5, 0), (0, 0),
        # one line removed; the lattice-free triangle has denominators 2, 3 and 5
        assert TorusDivisor(Fan2D(rays), coeffs)._lattice_cycle == want


class TestSectionLatticePoints:
    def test_worked_instance(self):
        pts = section_lattice_points(ruled_divisor(1, 1, 2))
        assert pts == sorted([(0, 0), (1, 0), (2, 0), (0, -1), (1, -1)])

    def test_zero_divisor(self):
        for m in (1, 2, 5):
            assert section_lattice_points(ruled_divisor(1, 0, 0), m) == [(0, 0)]

    def test_level_two_count_via_pick(self):
        # area of 2 P_D is 6 and its boundary has 10 lattice points, so
        # Pick's theorem gives 6 + 10/2 + 1 = 12 points in total
        assert len(section_lattice_points(ruled_divisor(1, 1, 2), 2)) == 12

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            section_lattice_points(ruled_divisor(1, 1, 2), 0)

    def test_size_guard_raises_before_the_scan(self):
        # about 5*10**9 points: the scan's guard must fire on the box size alone, while the
        # level hull of this ample divisor is its polygon, cut from no box
        a, b = 10**5, 10**5 + 5
        D = ruled_divisor(1, a, b)
        with pytest.raises(ValueError, match="candidate points"):
            section_lattice_points(D)
        hull = semigroup_level_hull(D, TFlag(2, 1), 1)
        assert set(hull.vertices) == {(0, 0), (-b, 0), (-b, -a), (-a, -a)}
        assert hull.area == Fraction(2 * a * b - a * a, 2)

    def test_size_guard_boundary(self, monkeypatch):
        # the level-2 box of F_1 with (0, 1, 2, 0) is 5 x 3 points
        D = ruled_divisor(1, 1, 2)
        monkeypatch.setattr(conftest, "BOX_SCAN_LIMIT", 15)
        assert len(section_lattice_points(D, 2)) == 12
        monkeypatch.setattr(conftest, "BOX_SCAN_LIMIT", 14)
        with pytest.raises(ValueError, match="15 candidate points"):
            section_lattice_points(D, 2)

    def test_brute_force_oracle(self):
        # independent enumeration: every vertex of the feasible polygon is an
        # intersection of two constraint lines, so the box of all pairwise
        # intersection points contains it; scan that box directly
        import math
        from toricvol import cross

        rng = random.Random(43)
        for _ in range(12):
            D = random_ample_instance(rng, max_subdivisions=3)
            m = rng.randint(1, 3)
            rays, bounds = D.fan.rays, [-m * d for d in D.coeffs]
            corners = []
            for i, (ri, bi) in enumerate(zip(rays, bounds)):
                for rk, bk in list(zip(rays, bounds))[i + 1:]:
                    det = cross(ri, rk)
                    if det:
                        corners.append((Fraction(bi * rk[1] - bk * ri[1], det),
                                        Fraction(ri[0] * bk - rk[0] * bi, det)))
            x0 = math.floor(min(c[0] for c in corners))
            x1 = math.ceil(max(c[0] for c in corners))
            y0 = math.floor(min(c[1] for c in corners))
            y1 = math.ceil(max(c[1] for c in corners))
            oracle = [(x, y)
                      for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)
                      if all(x * r[0] + y * r[1] >= b for r, b in zip(rays, bounds))]
            assert section_lattice_points(D, m) == oracle

    # The column scan must return exactly the bounding-box scan's list, order
    # included, and its columns exactly the box scan's nonempty columns with
    # their least and greatest y, on every kind of divisor.

    @staticmethod
    def assert_matches_box_scan(D, m):
        pts = box_section_points(D, m)
        assert section_lattice_points(D, m) == pts
        columns: dict = {}
        for x, y in pts:  # sorted by x, then y
            columns.setdefault(x, []).append(y)
        assert section_columns(D, m) == [(x, ys[0], ys[-1]) for x, ys in columns.items()]

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_row_scan_matches_box_scan_on_deep_fans(self, n):
        # Deep ample divisors past n = 8 have boxes of 10^4..10^12 points, so
        # the fans also carry small ones: the nef divisor whose polytope is a
        # random small polygon Q, and that divisor perturbed by -1..1 per ray
        # (not nef, columns of the box left empty).
        rng = random.Random(n)
        for _ in range(2):
            D = deep_ample_instance(rng, n)
            q = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            nef = [-min(dot(p, r) for p in q) for r in D.fan.rays]
            cases = [TorusDivisor(D.fan, nef),
                     TorusDivisor(D.fan, [d + rng.randint(-1, 1) for d in nef])]
            if n == 8:
                cases.append(D)
            for E in cases:
                for m in (1, 2, 3):
                    self.assert_matches_box_scan(E, m)

    def test_row_scan_matches_box_scan_on_hirzebruch_grid(self):
        for l, a, b in hirzebruch_grid():
            D = ruled_divisor(l, a, b)
            for m in range(1, 6):
                self.assert_matches_box_scan(D, m)

    def test_row_scan_matches_box_scan_on_non_nef_divisors(self):
        rng = random.Random(19)
        seen = 0
        while seen < 40:
            fan = random_smooth_fan(rng)
            D = TorusDivisor(fan, [rng.randint(-3, 4) for _ in range(fan.n_rays)])
            if not generation_violations(D):
                continue
            seen += 1
            for m in (1, 2, 3):
                self.assert_matches_box_scan(D, m)

    def test_empty_level(self):
        # -H on P^2 and -D_2 on F_l have no sections at any level
        for D in (TorusDivisor(projective_plane_fan(), (-1, 0, 0)), ruled_divisor(2, 0, -1)):
            for m in (1, 2, 3):
                assert section_lattice_points(D, m) == box_section_points(D, m) == []
                assert section_columns(D, m) == []
