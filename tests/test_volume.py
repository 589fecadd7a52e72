import random
from fractions import Fraction

import pytest

from toricvol import (
    NotAmple,
    TFlag,
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
from conftest import deep_ample_instance, random_ample_instance


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
            assert [t.signed_volume for t in c.terms] == [
                Fraction(a * b, 2),
                -Fraction(l * a * a - a * b, 2),
                -Fraction(a * b, 2),
            ]
            assert c.subtotal == Fraction(a * b - l * a * a, 2)

    def test_second_flag_degenerate_terms(self):
        for l, a, b in [(1, 1, 2), (3, 2, 8)]:
            D = ruled_divisor(l, a, b)
            c = flag_contribution(D, TFlag(3, 2), standard_decomposition(D.fan))
            assert c.subtotal == Fraction(a * b, 2)
            assert c.terms[0].signed_volume == 0
            assert c.terms[2].signed_volume == 0

    def test_remaining_flags_vanish(self):
        D = ruled_divisor(2, 1, 4)
        dec = standard_decomposition(D.fan)
        quiet = [f for f in enumerate_tflags(D.fan) if f not in (TFlag(2, 1), TFlag(3, 2))]
        assert len(quiet) == 6
        for flag in quiet:
            assert flag_contribution(D, flag, dec).subtotal == 0

    def test_signed_volume_invariant(self):
        rng = random.Random(103)
        for _ in range(10):
            D = random_ample_instance(rng)
            dec = standard_decomposition(D.fan)
            for flag in enumerate_tflags(D.fan):
                for t in flag_contribution(D, flag, dec).terms:
                    det = (t.matrix[0][0] * t.matrix[1][1]
                           - t.matrix[0][1] * t.matrix[1][0])
                    assert t.signed_volume == (-1) ** t.omitted * Fraction(det, 2)

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
