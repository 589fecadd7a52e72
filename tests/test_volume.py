import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import toricvol.volume as volume
from toricvol import divisors, valuation
from toricvol.cli import main
from toricvol import (
    Fan2D,
    FlagContribution,
    Polygon,
    TFlag,
    TorusDivisor,
    ampleness_violations,
    convex_hull_2d,
    cross,
    divisor_polytope,
    flag_contribution,
    flag_valuation,
    generation_violations,
    hirzebruch_fan,
    intersection_number_via_symbols,
    iterated_boundary,
    okounkov_volume_report,
    projective_plane_fan,
    self_intersection_classical,
    semigroup_level_hull,
    standard_decomposition,
    star_subdivide,
    trivialization_polytope,
)
from conftest import (
    cech_cocycle,
    deep_ample_instance,
    fraction_flag_contribution,
    fraction_terms,
    hirzebruch_grid,
    random_ample_instance,
    random_decompositions,
    reference_flag_contribution,
    reference_self_intersection,
    ruled_divisor,
)


def simplex_twice(D, dec) -> int:
    """Route 3 alone: the summed ``twice`` over all 2n flags."""
    return sum(flag_contribution(D, f, dec).twice for f in D.fan.charts)


class TestSelfIntersection:
    def test_family_closed_form(self):
        for l in (1, 2, 4):
            for a, b in [(1, 2), (2, 5), (3, 14)]:
                assert self_intersection_classical(ruled_divisor(l, a, b)) \
                    == 2 * a * b - l * a * a

    def test_single_ray_self_intersections(self):
        for l in (1, 2, 3):
            fan = hirzebruch_fan(l)
            assert self_intersection_classical(TorusDivisor(fan, (0, 1, 0, 0))) == -l
            assert self_intersection_classical(TorusDivisor(fan, (0, 0, 1, 0))) == 0

    def test_plane_hyperplane_class(self):
        assert self_intersection_classical(TorusDivisor(projective_plane_fan(), (1, 0, 0))) == 1

    @given(seed=st.integers(0, 2**32), n=st.integers(3, 32),
           kind=st.sampled_from(["ample", "nef", "non-nef", "any"]))
    def test_matches_intersection_matrix(self, seed, n, kind):
        rng = random.Random(seed)
        D = deep_ample_instance(rng, n)
        if kind in ("nef", "non-nef"):
            # on a blowup of one cone, pi^*D has degree 0 on the new curve E
            # and is nef; pi^*D + E has degree E.E = -1 on E
            j = rng.randrange(n)
            d = list(D.coeffs)
            d.insert(j + 1, d[j] + d[(j + 1) % n] + (kind == "non-nef"))
            D = TorusDivisor(star_subdivide(D.fan, j), d)
        elif kind == "any":
            D = TorusDivisor(D.fan, [rng.randint(-9, 9) for _ in range(n)])
        nef, ample = not generation_violations(D), not ampleness_violations(D)
        assert {"ample": ample, "nef": nef and not ample, "non-nef": not nef, "any": True}[kind]
        assert self_intersection_classical(D) == reference_self_intersection(D)

    def test_curve_degree_fault_never_certifies_a_non_ample_row(self, monkeypatch):
        # The sign mutant of TorusDivisor.curve_degrees, + a_i*d_i for - a_i*d_i,
        # moves the ampleness gate and route 2 but no other route, so the
        # routes disagree. On F_l, (0, a, b, 0) has curve degrees a, b - l*a,
        # a and b: the grid rows with b = l*a are nef but not ample.
        def flipped(D):
            rays, d = D.fan.rays, D.coeffs
            n = len(rays)
            return tuple(d[i - 1] + d[(i + 1) % n] + cross(rays[i - 1], rays[(i + 1) % n]) * d[i]
                         for i in range(n))

        monkeypatch.setattr(TorusDivisor, "curve_degrees", property(flipped))
        rows = [(l, a, l * a + extra) for l in range(1, 5) for a in range(1, 6) for extra in range(6)]
        certified = [(l, a, b) for l, a, b in rows
                     if okounkov_volume_report(ruled_divisor(l, a, b)).agree and b == l * a]
        assert certified == []


class TestFlagContribution:
    def test_worked_flag_term_by_term(self):
        for l, a, b in [(1, 1, 2), (2, 3, 11), (4, 2, 13)]:
            D = ruled_divisor(l, a, b)
            dec = standard_decomposition(D.fan)
            c = flag_contribution(D, TFlag(2, 1), dec)
            assert c.signed_dets == (a * b, -(l * a * a - a * b), -(a * b))
            assert c.twice == a * b - l * a * a

    def test_second_flag_degenerate_terms(self):
        for l, a, b in [(1, 1, 2), (3, 2, 8)]:
            D = ruled_divisor(l, a, b)
            c = flag_contribution(D, TFlag(3, 2), standard_decomposition(D.fan))
            assert c.twice == a * b
            assert c.signed_dets[0] == 0
            assert c.signed_dets[2] == 0

    def test_remaining_flags_vanish(self):
        D = ruled_divisor(2, 1, 4)
        dec = standard_decomposition(D.fan)
        quiet = [f for f in D.fan.charts if f not in (TFlag(2, 1), TFlag(3, 2))]
        assert len(quiet) == 6
        for flag in quiet:
            assert flag_contribution(D, flag, dec).twice == 0

    def test_signed_volume_invariant(self):
        rng = random.Random(103)
        for _ in range(10):
            D = random_ample_instance(rng)
            dec = standard_decomposition(D.fan)
            for flag in D.fan.charts:
                c = flag_contribution(D, flag, dec)
                u, v, x = c.vectors
                assert c.signed_dets == (cross(v, x), -cross(u, x), cross(u, v))
                assert c.twice == sum(c.signed_dets)

    def test_defined_off_the_ample_cone(self):
        # nef but not ample, and not nef: route 3 still sums to D.D
        for D in (ruled_divisor(1, 1, 1), ruled_divisor(2, -1, 3)):
            dec = standard_decomposition(D.fan)
            assert ampleness_violations(D)
            assert simplex_twice(D, dec) == self_intersection_classical(D)


class TestSimplexSum:
    def test_family_closed_form(self):
        for l, a, b in [(1, 1, 2), (2, 1, 3), (3, 2, 10)]:
            D = ruled_divisor(l, a, b)
            assert simplex_twice(D, standard_decomposition(D.fan)) == 2 * a * b - l * a * a

    def test_plane_hyperplane(self):
        D = TorusDivisor(projective_plane_fan(), (1, 0, 0))
        assert simplex_twice(D, standard_decomposition(D.fan)) == 1

    def test_decomposition_independence(self):
        rng = random.Random(107)
        for _ in range(10):
            D = random_ample_instance(rng)
            totals = {
                simplex_twice(D, dec)
                for dec in (standard_decomposition(D.fan), standard_decomposition(D.fan, "successor"),
                            standard_decomposition(D.fan)._replace(generic_owner=1))
            }
            assert len(totals) == 1


class TestVolumeReport:
    def test_worked_instance_agrees(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 2), display_flag=TFlag(2, 1))
        assert report.ample and report.agree
        assert set(report.values) == {Fraction(3, 2)}
        assert report.twice == (3,) * 5
        assert report.contributing_flags == (TFlag(2, 1), TFlag(3, 2))

    def test_second_instance(self):
        report = okounkov_volume_report(ruled_divisor(2, 1, 3))
        assert report.agree and set(report.values) == {Fraction(2)}

    def test_non_ample_diagnostics(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 1))
        assert not report.ample and not report.agree
        assert report.twice == report.values == ()
        assert report.diagnostics

    def test_display_flag_choice_never_changes_values(self):
        D = ruled_divisor(2, 2, 7)
        reports = [okounkov_volume_report(D, display_flag=f)
                   for f in D.fan.charts]
        assert len({r.values for r in reports}) == 1

    def test_display_flag_tuple_builds_one_flag(self, monkeypatch):
        # the report reads a plain (ray, cone) pair into a TFlag once and looks that flag up
        D = ruled_divisor(1, 1, 2)
        D.fan.charts  # the table builds its 2n keys first
        built, real_new = [], TFlag.__new__

        def spy_new(cls, *args):
            built.append(args)
            return real_new(cls, *args)
        monkeypatch.setattr(TFlag, "__new__", staticmethod(spy_new))
        report = okounkov_volume_report(D, display_flag=(2, 1))
        assert built == [(2, 1)] and type(report.display_flag) is TFlag and report.agree
        # so a one-shot pair is read once, too
        assert okounkov_volume_report(D, display_flag=iter((2, 1))) == report

    def test_display_tflag_is_taken_as_is(self, monkeypatch, tmp_path, capsys):
        # a TFlag builds no second one: neither in the report nor behind `report --flag`,
        # which builds the one flag it parses
        D = ruled_divisor(1, 1, 2)
        flag, built, real_new = TFlag(2, 1), [], TFlag.__new__

        def spy_new(cls, *args):
            built.append(args)
            return real_new(cls, *args)
        monkeypatch.setattr(TFlag, "__new__", staticmethod(spy_new))
        assert okounkov_volume_report(D, display_flag=flag).display_flag is flag
        assert built == []
        doc = tmp_path / "f1.json"
        doc.write_text('{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,2,0]}')
        assert main(["report", str(doc), "--flag", "2,1"]) == 0
        assert built == [(2, 1)] and "(ray 2, cone 1)" in capsys.readouterr().out

    def test_random_instances_agree(self):
        rng = random.Random(109)
        for _ in range(15):
            D = random_ample_instance(rng)
            report = okounkov_volume_report(D)
            assert report.agree
            assert report.values[0] == divisor_polytope(D).area

    @pytest.mark.parametrize("n", [64, 128])
    def test_deep_fans_agree(self, n):
        D = deep_ample_instance(random.Random(n), n)
        dsq = sum(d * x for d, x in zip(D.coeffs, D.curve_degrees))
        report = okounkov_volume_report(D)
        assert report.agree and report.twice == (dsq,) * 5
        assert report.values == (Fraction(dsq, 2),) * 5


@st.composite
def any_divisor(draw):
    """A star-subdivided P^2 fan with coefficients in [-4, 6]: mostly not nef."""
    fan = projective_plane_fan()
    for j in draw(st.lists(st.integers(0, 63), max_size=6)):
        fan = star_subdivide(fan, j % fan.n_rays)
    return TorusDivisor(fan, draw(st.lists(st.integers(-4, 6), min_size=fan.n_rays,
                                      max_size=fan.n_rays)))


@st.composite
def perturbed_deep_divisor(draw):
    """An ample divisor on a deep fan with 3 to 64 rays, each coefficient then
    moved by -1, 0 or 1: often not nef, as its curves have small degrees."""
    D = deep_ample_instance(random.Random(draw(st.integers(0, 2 ** 32))), draw(st.integers(3, 64)))
    return TorusDivisor(D.fan, [d + draw(st.integers(-1, 1)) for d in D.coeffs])


@st.composite
def divisor_and_decomposition(draw):
    D = draw(st.one_of(any_divisor(), perturbed_deep_divisor()))
    return D, draw(random_decompositions(D.fan.n_rays))


class TestOneQuadraticForm:
    """Routes 2-4 are one quadratic form in d, so they agree on every divisor
    and every decomposition; only the report restricts them to the ample cone."""

    @given(divisor_and_decomposition())
    @example((ruled_divisor(1, 1, 2), standard_decomposition(hirzebruch_fan(1), "successor")))  # ample
    @example((ruled_divisor(1, 1, 1), standard_decomposition(hirzebruch_fan(1))))  # nef, not ample
    @example((ruled_divisor(2, -1, 3),
              standard_decomposition(hirzebruch_fan(2))._replace(generic_owner=2)))  # not nef
    def test_routes_2_3_4_agree_on_every_divisor(self, case):
        D, dec = case
        assert simplex_twice(D, dec) == self_intersection_classical(D) \
            == intersection_number_via_symbols(D, dec)


class TestLocalIdentity:
    """Routes 3 and 4 agree flag by flag, not only in total, on every divisor."""

    @staticmethod
    def assert_local_identity(D, dec):
        h, a0 = D.cocycle, dec.generic_owner
        for f in D.fan.charts:
            a1 = dec.ray_owner[f.ray]
            S = [(1, cech_cocycle(h, a0, a1), cech_cocycle(h, a1, f.cone))]
            assert flag_contribution(D, f, dec).twice == iterated_boundary(flag_valuation(D.fan, f), S)

    @given(st.integers(0, 2 ** 32), st.integers(3, 64), st.data())
    def test_simplex_twice_is_the_iterated_boundary_at_every_flag(self, seed, n, data):
        D = deep_ample_instance(random.Random(seed), n)
        self.assert_local_identity(D, data.draw(random_decompositions(n)))

    @given(st.integers(0, 2 ** 32), st.integers(3, 64), st.data())
    def test_local_identity_off_the_nef_cone(self, seed, n, data):
        # both sides are defined for every divisor: random coefficients on the generator's
        # fans, small or as wide as its ample ones, most of them not nef
        rng = random.Random(seed)
        D = deep_ample_instance(rng, n)
        span = data.draw(st.sampled_from([1, 5, max(map(abs, D.coeffs))]))
        E = TorusDivisor(D.fan, [rng.randint(-span, span) for _ in range(n)])
        self.assert_local_identity(E, data.draw(random_decompositions(n)))


class TestOnePositivityGate:
    """The report decides positivity; the routes compare no fans."""

    @staticmethod
    def equal_fan_decomposition(D):
        fan = Fan2D(list(D.fan.rays))
        assert fan == D.fan and fan is not D.fan
        return standard_decomposition(fan, "successor")

    def test_report_compares_no_fans(self, monkeypatch):
        D = deep_ample_instance(random.Random(64), 64)
        decs = (None, standard_decomposition(D.fan), self.equal_fan_decomposition(D))
        real_eq = Fan2D.__eq__
        calls = 0

        def spy_eq(self, other):
            nonlocal calls
            calls += 1
            return real_eq(self, other)

        monkeypatch.setattr(Fan2D, "__eq__", spy_eq)
        for dec in decs:
            assert okounkov_volume_report(D, dec).agree
        assert calls == 0

    def test_equal_fan_decomposition_gives_the_same_report(self):
        D = deep_ample_instance(random.Random(16), 16)
        same = okounkov_volume_report(D, standard_decomposition(D.fan, "successor"), TFlag(3, 2))
        assert okounkov_volume_report(D, self.equal_fan_decomposition(D), TFlag(3, 2)) == same

    def test_decomposition_for_another_ray_count_rejected(self):
        D = ruled_divisor(1, 1, 2)
        dec = standard_decomposition(projective_plane_fan())
        with pytest.raises(ValueError, match="decomposition of 3 rays for a fan of 4"):
            flag_contribution(D, TFlag(0, 0), dec)
        with pytest.raises(ValueError, match="decomposition of 3 rays for a fan of 4"):
            intersection_number_via_symbols(D, dec)

    @pytest.mark.parametrize("coeffs", [(0, 1, 2, 0), (0, 1, 1, 0)], ids=["ample", "not-ample"])
    def test_report_checks_its_arguments_before_the_gate(self, monkeypatch, coeffs):
        # a bad decomposition or display flag raises whether D is ample or not,
        # before the gate reads D
        def gate(D):
            pytest.fail("the ampleness gate ran before the arguments were checked")

        D = TorusDivisor(hirzebruch_fan(1), coeffs)
        monkeypatch.setattr(volume, "ampleness_violations", gate)
        with pytest.raises(ValueError, match="decomposition of 3 rays for a fan of 4"):
            okounkov_volume_report(D, standard_decomposition(projective_plane_fan()))
        with pytest.raises(ValueError, match="no maximal cone 7"):
            okounkov_volume_report(D, display_flag=TFlag(7, 7))
        with pytest.raises(ValueError, match="ray 0 is not a face of cone 2: not a flag"):
            okounkov_volume_report(D, display_flag=TFlag(0, 2))


def _negated(v):
    return -v[0], -v[1]


class TestSharedData:
    """Route 1 walks P_D from the rays and coefficients, so the report sees a fault in the
    local equations or the chart table, which routes 3-5 share and which moves no volume.
    The walk is one cached value per divisor, read by route 1, the vertex check and the
    level hulls."""

    # what each route reads, in ROUTES order: "walk" is ``TorusDivisor._section_polygon``,
    # which reads the degrees, "charts" the whole chart table, "display chart" one lookup of
    # the display flag's; the cocycle's own chart reads are the cocycle's. This is the ledger of
    # shared reads: a new one fails here until its change argues for it. Each row's reason:
    READS = (
        # route 1: the walk's degree test cuts no line of an ample P_D, so it takes no route 2 value
        {"walk", "degrees"},
        # route 2: D.D is the sum of d_i times the degree of curve i, from the coefficients alone
        {"degrees"},
        # route 3: each flag's chart and local equations; the vertex check ties those to the walk
        {"cocycle", "charts"},
        # route 4: route 3's data read as tame symbols, which the same vertex check guards
        {"cocycle", "charts"},
        # route 5: the display flag's one chart applied to the same guarded local equations
        {"cocycle", "display chart"},
    )
    # each route as the report runs it
    CALLS = (lambda D, dec, flag: divisor_polytope(D),
             lambda D, dec, flag: self_intersection_classical(D),
             lambda D, dec, flag: simplex_twice(D, dec),
             lambda D, dec, flag: intersection_number_via_symbols(D, dec),
             lambda D, dec, flag: trivialization_polytope(D, flag))

    @staticmethod
    def spy(monkeypatch, log: set) -> None:
        """Log "cocycle", "degrees", "walk", "charts" for a pass over the chart table and the
        flag of each chart looked up; the spies are properties, so nothing is cached."""
        cocycle, degrees, walk, charts = (TorusDivisor.cocycle.func, TorusDivisor.curve_degrees.func,
                                          TorusDivisor._section_polygon.func, Fan2D.charts.func)
        inside = []  # set while the cocycle reads the table

        class Table(dict):
            def get(self, key, default=None):
                log.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                log.add(key)
                return super().__getitem__(key)

            def __iter__(self):
                log.add("charts")
                return super().__iter__()

            def items(self):
                log.add("charts")
                return super().items()

            def values(self):
                log.add("charts")
                return super().values()

        def read_cocycle(D):
            log.add("cocycle")
            inside.append(D)
            try:
                return cocycle(D)
            finally:
                inside.pop()

        def read_degrees(D):
            log.add("degrees")
            return degrees(D)

        def read_walk(D):
            log.add("walk")
            return walk(D)

        monkeypatch.setattr(TorusDivisor, "cocycle", property(read_cocycle))
        monkeypatch.setattr(TorusDivisor, "curve_degrees", property(read_degrees))
        monkeypatch.setattr(TorusDivisor, "_section_polygon", property(read_walk))
        monkeypatch.setattr(Fan2D, "charts", property(lambda fan: charts(fan) if inside
                                                      else Table(charts(fan))))

    def test_each_route_reads_its_declared_data(self, monkeypatch):
        base, flag = deep_ample_instance(random.Random(16), 16), TFlag(3, 2)
        log: set = set()
        self.spy(monkeypatch, log)
        got = []
        for route in self.CALLS:
            D = TorusDivisor(Fan2D(base.fan.rays), base.coeffs)  # fresh: nothing read yet
            dec = standard_decomposition(D.fan)
            log.clear()
            route(D, dec, flag)
            reads = {x for x in log if isinstance(x, str)}
            if "charts" not in reads:  # a lookup in a table read whole adds nothing
                reads |= {"display chart" if key == flag else "charts" for key in log - reads}
            got.append(reads)
        assert tuple(got) == self.READS

    @pytest.mark.parametrize("fault", ["cocycle", "charts"])
    def test_report_sees_a_fault_in_shared_data(self, monkeypatch, fault):
        # every local equation negated, directly or through the charts' dual basis: an
        # area-preserving map, so all five routes still give the volume. On F_0 and dP6 with
        # D = (1, ..., 1), P_D is symmetric about 0: the negated local equations are its
        # vertices again, each at the opposite cone's place
        instances = [deep_ample_instance(random.Random(seed), n)
                     for n in range(3, 25) for seed in range(5)]
        instances += [TorusDivisor(Fan2D(rays), (1,) * len(rays)) for rays in (
            ((1, 0), (0, 1), (-1, 0), (0, -1)), ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)))]
        assert all(okounkov_volume_report(D).agree for D in instances)
        if fault == "cocycle":
            cocycle = TorusDivisor.cocycle.func
            monkeypatch.setattr(TorusDivisor, "cocycle",
                                property(lambda D: tuple(map(_negated, cocycle(D)))))
        else:
            charts = Fan2D.charts.func
            monkeypatch.setattr(Fan2D, "charts", property(lambda fan: {
                f: w._replace(pi1=_negated(w.pi1), pi2=_negated(w.pi2))
                for f, w in charts(fan).items()}))
        for D in instances:
            report = okounkov_volume_report(TorusDivisor(Fan2D(D.fan.rays), D.coeffs))
            assert report.ample and not report.agree
            assert len(set(report.twice)) == 1
            assert report.diagnostics == ("area_polytope: the vertices of P_D are not the "
                                          "local equations",)

    def test_report_sees_a_wrong_denominator(self, monkeypatch):
        # a doubled denominator doubles kP_D and halves it again: route 1's area stays 3/2, as
        # every route's does, but the cycle route 1 hulls is no longer the local equations
        denominator = divisors._denominator
        monkeypatch.setattr(divisors, "_denominator", lambda cycle: 2 * denominator(cycle))
        report = okounkov_volume_report(ruled_divisor(1, 1, 2))
        assert report.ample and not report.agree
        assert report.twice == (3,) * len(volume.ROUTES)
        assert report.diagnostics == ("area_polytope: the vertices of P_D are not the "
                                      "local equations",)

    @staticmethod
    def spy_walks(monkeypatch) -> list:
        """Each divisor the walk runs on; the property still caches its value."""
        walks, walk = [], TorusDivisor._section_polygon.func

        def counted(D):
            walks.append(D)
            return walk(D)

        monkeypatch.setattr(TorusDivisor._section_polygon, "func", counted)
        return walks

    def test_report_walks_p_d_once(self, monkeypatch):
        # route 1 and the vertex check read one walk
        walks = self.spy_walks(monkeypatch)
        for D in (deep_ample_instance(random.Random(7), 16), ruled_divisor(1, 2, 5)):
            walks.clear()
            report = okounkov_volume_report(D)
            assert report.agree and walks == [D]
            okounkov_volume_report(D)
            divisor_polytope(D)
            assert walks == [D]

    @pytest.mark.parametrize("base", [ruled_divisor(1, 2, 5), ruled_divisor(3, 100, 100),
                                      deep_ample_instance(random.Random(7), 16)],
                             ids=["ample", "off-lattice", "deep"])
    def test_level_hulls_walk_p_d_once(self, monkeypatch, base):
        # levels 1-5 scale one walk, and leave it as route 1 and the report read it
        D, fresh = (TorusDivisor(Fan2D(base.fan.rays), base.coeffs) for _ in range(2))
        walks = self.spy_walks(monkeypatch)
        hulls = [semigroup_level_hull(D, TFlag(0, 0), m) for m in range(1, 6)]
        assert walks == [D]
        assert hulls == [semigroup_level_hull(fresh, TFlag(0, 0), m) for m in range(1, 6)]
        assert divisor_polytope(D) == divisor_polytope(fresh)
        report, want = okounkov_volume_report(D), okounkov_volume_report(fresh)
        assert (report.agree, report.diagnostics) == (want.agree, want.diagnostics)
        assert walks == [D, fresh]

    def test_no_route_gates_positivity(self, monkeypatch):
        # a big divisor that is not nef: every route is defined, and none reads a witness list
        def gate(D):
            pytest.fail("a route ran a positivity gate")

        for module in (divisors, valuation, volume):
            for name in ("generation_violations", "ampleness_violations"):
                monkeypatch.setattr(module, name, gate, raising=False)
        rays = ((2, -1), (1, 0), (0, 1), (-1, 0), (-3, -1), (-2, -1), (-1, -1), (0, -1), (1, -1))
        D = TorusDivisor(Fan2D(rays), (-1, 0, 0, 1, 2, 2, 1, 1, 0))
        dec = standard_decomposition(D.fan)
        assert divisor_polytope(D).area == Fraction(1, 60)
        for route in self.CALLS:
            route(D, dec, TFlag(1, 0))


def assert_matches_fraction_oracle(D, dec):
    for flag in D.fan.charts:
        c = flag_contribution(D, flag, dec)
        subtotal, terms = fraction_flag_contribution(D, flag, dec)
        assert type(c.twice) is int
        assert Fraction(c.twice, 2) == subtotal
        assert c.signed_dets == tuple(2 * t.signed_volume for t in terms)
        assert fraction_terms(c.charts, c.vectors) == (subtotal, terms)


class TestAgainstValueOracle:
    # the flag contribution through Rank2Valuation.value and cross that route 3
    # inlined: every field of every flag's record, for any divisor

    @given(seed=st.integers(0, 2**32), n=st.integers(3, 128), data=st.data())
    def test_deep_fans_any_coefficients(self, seed, n, data):
        fan = deep_ample_instance(random.Random(seed), n).fan
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        D = TorusDivisor(fan, coeffs)
        dec = data.draw(random_decompositions(n))
        for flag in fan.charts:
            c, ref = flag_contribution(D, flag, dec), reference_flag_contribution(D, flag, dec)
            assert type(c) is FlagContribution and c._asdict() == ref._asdict()

    def test_record_is_its_5_tuple(self):
        D = ruled_divisor(1, 1, 2)
        c = flag_contribution(D, TFlag(2, 1), standard_decomposition(D.fan))
        assert c == (c.flag, c.charts, c.vectors, c.signed_dets, c.twice) and c.twice == 1
        assert c._replace(twice=0)[:4] == c[:4]
        with pytest.raises(AttributeError):
            c.twice = 0


class TestAgainstFractionOracle:
    # the Fraction flag contribution this int-first one replaced

    @given(seed=st.integers(0, 2**32), n=st.integers(3, 64), k=st.integers(0, 63),
           variant=st.sampled_from(["default", "successor", "generic-at"]))
    def test_deep_fans(self, seed, n, k, variant):
        D = deep_ample_instance(random.Random(seed), n)
        if variant == "generic-at":  # the default, with the dense orbit at cone k % n
            dec = standard_decomposition(D.fan)._replace(generic_owner=k % n)
        else:
            dec = standard_decomposition(D.fan, variant)
        assert_matches_fraction_oracle(D, dec)

    @pytest.mark.parametrize("variant, generic_owner", [("default", 0), ("successor", 0), ("default", 2)],
                             ids=["default", "successor", "generic-at=2"])
    def test_hirzebruch_grid(self, variant, generic_owner):
        for l, a, b in hirzebruch_grid():
            D = ruled_divisor(l, a, b)
            dec = standard_decomposition(D.fan, variant)._replace(generic_owner=generic_owner)
            assert_matches_fraction_oracle(D, dec)

    def test_simplex_sum_is_half_the_int_total(self):
        D = deep_ample_instance(random.Random(7), 32)
        dec = standard_decomposition(D.fan)
        twice = simplex_twice(D, dec)
        assert okounkov_volume_report(D, dec).values[2] == Fraction(twice, 2)
        assert twice == self_intersection_classical(D)


class TestIntegerReport:
    def test_integer_fields_and_half_views(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 2))
        assert report.twice == (3,) * 5 and all(type(x) is int for x in report.twice)
        assert report.values == (Fraction(3, 2),) * 5
        assert all(type(c.twice) is int for c in report.per_flag)

    def test_non_ample_half_views_are_none(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 1))
        assert report.twice == report.values == ()

    @pytest.mark.parametrize("route", ["self_intersection_classical",
                                       "intersection_number_via_symbols",
                                       "divisor_polytope", "trivialization_polytope"])
    @pytest.mark.parametrize("offset", [1, 2, -2])
    def test_one_route_off_breaks_agreement(self, monkeypatch, route, offset):
        real = getattr(volume, route)

        def off(*args):
            value = real(*args)
            if isinstance(value, Polygon):
                # a point far outside the hull: a hull of larger area
                return convex_hull_2d([*value.vertices, (100 * offset, 0)])
            return value + offset

        monkeypatch.setattr(volume, route, off)
        report = okounkov_volume_report(ruled_divisor(2, 1, 3))
        assert report.ample and not report.agree
        k = {"divisor_polytope": 0, "self_intersection_classical": 1,
             "intersection_number_via_symbols": 3, "trivialization_polytope": 4}[route]
        assert [x == 4 for x in report.twice] == [j != k for j in range(5)]

    @pytest.mark.parametrize("offset", [1, 2, -2])
    def test_simplex_route_off_breaks_agreement(self, monkeypatch, offset):
        real = volume.flag_contribution

        def first_flag_off(D, flag, dec):
            c = real(D, flag, dec)
            return c._replace(twice=c.twice + offset) if flag == TFlag(0, 0) else c

        monkeypatch.setattr(volume, "flag_contribution", first_flag_off)
        report = okounkov_volume_report(ruled_divisor(2, 1, 3))
        assert report.ample and not report.agree
        assert report.twice[2] == report.twice[1] + offset

    def test_fraction_count_does_not_grow_with_n(self, monkeypatch):
        from toricvol.cli import _report_json
        assert count_fractions(monkeypatch, 16, _report_json) \
            == count_fractions(monkeypatch, 128, _report_json) <= 6

    def test_text_fraction_count_does_not_grow_with_n(self, monkeypatch):
        from toricvol.cli import _report_text
        assert count_fractions(monkeypatch, 16, _report_text) \
            == count_fractions(monkeypatch, 128, _report_text) <= 6


def count_fractions(monkeypatch, n: int, render) -> int:
    """Every Fraction built by a report at n rays and render(report), the
    convex hulls included."""
    real_new = Fraction.__new__
    count = 0

    def spy_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return real_new(cls, *args, **kwargs)

    D = deep_ample_instance(random.Random(n), n)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy_new))
    try:
        report = okounkov_volume_report(D)
        render(report)
    finally:
        monkeypatch.undo()
    assert report.agree
    return count
