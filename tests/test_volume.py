import dataclasses
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import toricvol.volume as volume
from toricvol import (
    NotAmple,
    TFlag,
    cross,
    divisor,
    divisor_polytope,
    enumerate_tflags,
    flag_contribution,
    hirzebruch_fan,
    okounkov_volume_report,
    projective_plane_fan,
    self_intersection_classical,
    simplex_sum_volume,
    standard_decomposition,
)
from conftest import (
    deep_ample_instance,
    fraction_flag_contribution,
    fraction_terms,
    hirzebruch_grid,
    random_ample_instance,
)


def ruled_divisor(l, a, b):
    return divisor(hirzebruch_fan(l), (0, a, b, 0))


class TestSelfIntersection:
    def test_family_closed_form(self):
        for l in (1, 2, 4):
            for a, b in [(1, 2), (2, 5), (3, 14)]:
                assert self_intersection_classical(ruled_divisor(l, a, b)) \
                    == 2 * a * b - l * a * a

    def test_single_ray_self_intersections(self):
        for l in (1, 2, 3):
            fan = hirzebruch_fan(l)
            assert self_intersection_classical(divisor(fan, (0, 1, 0, 0))) == -l
            assert self_intersection_classical(divisor(fan, (0, 0, 1, 0))) == 0

    def test_plane_hyperplane_class(self):
        assert self_intersection_classical(divisor(projective_plane_fan(), (1, 0, 0))) == 1


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
        quiet = [f for f in enumerate_tflags(D.fan) if f not in (TFlag(2, 1), TFlag(3, 2))]
        assert len(quiet) == 6
        for flag in quiet:
            assert flag_contribution(D, flag, dec).twice == 0

    def test_signed_volume_invariant(self):
        rng = random.Random(103)
        for _ in range(10):
            D = random_ample_instance(rng)
            dec = standard_decomposition(D.fan)
            for flag in enumerate_tflags(D.fan):
                c = flag_contribution(D, flag, dec)
                u, v, x = c.vectors
                assert c.signed_dets == (cross(v, x), -cross(u, x), cross(u, v))
                assert c.twice == sum(c.signed_dets)

    def test_rejects_non_ample(self):
        D = ruled_divisor(1, 1, 1)
        with pytest.raises(NotAmple):
            flag_contribution(D, TFlag(2, 1), standard_decomposition(D.fan))


class TestSimplexSum:
    def test_family_closed_form(self):
        for l, a, b in [(1, 1, 2), (2, 1, 3), (3, 2, 10)]:
            D = ruled_divisor(l, a, b)
            assert simplex_sum_volume(D, standard_decomposition(D.fan)) \
                == Fraction(2 * a * b - l * a * a, 2)

    def test_plane_hyperplane(self):
        D = divisor(projective_plane_fan(), (1, 0, 0))
        assert simplex_sum_volume(D, standard_decomposition(D.fan)) == Fraction(1, 2)

    def test_decomposition_independence(self):
        rng = random.Random(107)
        for _ in range(10):
            D = random_ample_instance(rng)
            totals = {
                simplex_sum_volume(D, standard_decomposition(D.fan, v))
                for v in ("default", "successor", "generic-at=1")
            }
            assert len(totals) == 1


class TestVolumeReport:
    def test_worked_instance_agrees(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 2), display_flag=TFlag(2, 1))
        assert report.ample and report.agree
        assert set(report.values) == {Fraction(3, 2)}
        assert report.self_intersection == 3
        assert report.contributing_flags == (TFlag(2, 1), TFlag(3, 2))

    def test_second_instance(self):
        report = okounkov_volume_report(ruled_divisor(2, 1, 3))
        assert report.agree and set(report.values) == {Fraction(2)}

    def test_non_ample_diagnostics(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 1))
        assert not report.ample and not report.agree
        assert report.values == (None,) * 5
        assert report.diagnostics

    def test_display_flag_choice_never_changes_values(self):
        D = ruled_divisor(2, 2, 7)
        reports = [okounkov_volume_report(D, display_flag=f)
                   for f in enumerate_tflags(D.fan)]
        assert len({r.values for r in reports}) == 1

    def test_random_instances_agree(self):
        rng = random.Random(109)
        for _ in range(15):
            D = random_ample_instance(rng)
            report = okounkov_volume_report(D)
            assert report.agree
            assert report.area_polytope == divisor_polytope(D).area

    @pytest.mark.parametrize("n", [64, 128])
    def test_deep_fans_agree(self, n):
        D = deep_ample_instance(random.Random(n), n)
        dsq = sum(d * x for d, x in zip(D.coeffs, D.curve_degrees))
        report = okounkov_volume_report(D)
        assert report.agree and report.self_intersection == dsq
        assert report.values == (Fraction(dsq, 2),) * 5


def assert_matches_fraction_oracle(D, dec):
    for flag in enumerate_tflags(D.fan):
        c = flag_contribution(D, flag, dec)
        subtotal, terms = fraction_flag_contribution(D, flag, dec)
        assert type(c.twice) is int
        assert Fraction(c.twice, 2) == subtotal
        assert c.signed_dets == tuple(2 * t.signed_volume for t in terms)
        assert fraction_terms(c.charts, c.vectors) == (subtotal, terms)


class TestAgainstFractionOracle:
    # the Fraction flag contribution this int-first one replaced

    @given(seed=st.integers(0, 2**32), n=st.integers(3, 64), k=st.integers(0, 63),
           variant=st.sampled_from(["default", "successor", "generic-at"]))
    def test_deep_fans(self, seed, n, k, variant):
        D = deep_ample_instance(random.Random(seed), n)
        if variant == "generic-at":
            variant = f"generic-at={k % n}"
        assert_matches_fraction_oracle(D, standard_decomposition(D.fan, variant))

    @pytest.mark.parametrize("variant", ["default", "successor", "generic-at=2"])
    def test_hirzebruch_grid(self, variant):
        for l, a, b in hirzebruch_grid():
            D = ruled_divisor(l, a, b)
            assert_matches_fraction_oracle(D, standard_decomposition(D.fan, variant))

    def test_simplex_sum_is_half_the_int_total(self):
        D = deep_ample_instance(random.Random(7), 32)
        dec = standard_decomposition(D.fan)
        twice = sum(flag_contribution(D, f, dec).twice for f in enumerate_tflags(D.fan))
        assert simplex_sum_volume(D, dec) == Fraction(twice, 2)
        assert twice == self_intersection_classical(D)


class TestIntegerReport:
    def test_integer_fields_and_half_views(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 2))
        ints = (report.self_intersection, report.simplex_twice, report.symbol_intersection)
        assert ints == (3, 3, 3) and all(type(x) is int for x in ints)
        assert report.values == (Fraction(3, 2),) * 5
        assert all(type(c.twice) is int for c in report.per_flag)

    def test_non_ample_half_views_are_none(self):
        report = okounkov_volume_report(ruled_divisor(1, 1, 1))
        assert report.self_intersection is report.simplex_twice is report.symbol_intersection is None
        assert report.values == (None,) * 5

    @pytest.mark.parametrize("route", ["self_intersection_classical",
                                       "intersection_number_via_symbols"])
    @pytest.mark.parametrize("offset", [1, 2, -2])
    def test_one_route_off_breaks_agreement(self, monkeypatch, route, offset):
        real = getattr(volume, route)
        monkeypatch.setattr(volume, route, lambda *args: real(*args) + offset)
        report = okounkov_volume_report(ruled_divisor(2, 1, 3))
        assert report.ample and not report.agree

    @pytest.mark.parametrize("offset", [1, 2, -2])
    def test_simplex_route_off_breaks_agreement(self, monkeypatch, offset):
        real = volume.flag_contribution

        def first_flag_off(D, flag, dec):
            c = real(D, flag, dec)
            return dataclasses.replace(c, twice=c.twice + offset) if flag == TFlag(0, 0) else c

        monkeypatch.setattr(volume, "flag_contribution", first_flag_off)
        report = okounkov_volume_report(ruled_divisor(2, 1, 3))
        assert report.ample and not report.agree
        assert report.simplex_twice == report.self_intersection + offset

    def test_fraction_count_does_not_grow_with_n(self, monkeypatch):
        from toricvol.cli import _report_json
        assert count_fractions(monkeypatch, 16, _report_json) \
            == count_fractions(monkeypatch, 128, _report_json) <= 8

    def test_text_fraction_count_does_not_grow_with_n(self, monkeypatch):
        from toricvol.cli import _print_text_report

        def render(report):
            _print_text_report(report, io.StringIO())

        assert count_fractions(monkeypatch, 16, render) \
            == count_fractions(monkeypatch, 128, render) <= 8


def count_fractions(monkeypatch, n: int, render) -> int:
    """Fractions built by a report at n rays and render(report), outside the
    hull vertex promotion (which builds a number that grows with the hull)."""
    from toricvol import divisors, valuation

    real_new, real_hull = Fraction.__new__, divisors.convex_hull_2d
    counts = {"report": 0, "hull": 0}
    in_hull = []

    def spy_new(cls, *args, **kwargs):
        counts["hull" if in_hull else "report"] += 1
        return real_new(cls, *args, **kwargs)

    def spy_hull(points):
        in_hull.append(True)
        try:
            return real_hull(points)
        finally:
            in_hull.pop()

    D = deep_ample_instance(random.Random(n), n)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy_new))
    monkeypatch.setattr(divisors, "convex_hull_2d", spy_hull)
    monkeypatch.setattr(valuation, "convex_hull_2d", spy_hull)
    try:
        report = okounkov_volume_report(D)
        render(report)
    finally:
        monkeypatch.undo()
    assert report.agree and counts["hull"] > 0
    return counts["report"]
