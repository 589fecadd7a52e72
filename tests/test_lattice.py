import math
import random
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from toricvol import (
    Polygon,
    convex_hull_2d,
    cross,
    dot,
)
from toricvol.lattice import _area, _int_pairs, _strictly_convex
from conftest import (
    deep_ample_instance,
    four_pass_strictly_convex,
    fraction_hull,
    fraction_shoelace,
    reference_kernels,
    set_int_pairs,
    spy_hull_passes,
)


def shoelace(vertices):
    # the signed shoelace sum Polygon takes its area from, on any int vertex cycle
    return _area([x for x, _ in vertices], [y for _, y in vertices])


def det_cofactor(m):
    # independent oracle: first-row cofactor expansion
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


class TestCross:
    def test_standard_basis(self):
        assert cross((1, 0), (0, 1)) == 1

    @pytest.mark.parametrize("l", [0, 1, 2, 7, -3])
    def test_hand_expansion(self, l):
        assert cross((0, 1), (-1, l)) == 1

    def test_parallel(self):
        assert cross((1, 0), (2, 0)) == 0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            cross((1, 0, 0), (0, 1, 0))

    # cross and dot read their vectors as every point is read: one not a pair
    # raises ValueError, a coordinate operator.index refuses raises TypeError
    @pytest.mark.parametrize("fn", [cross, dot])
    @pytest.mark.parametrize("u, v", [((1, 2, 3), (1, 2)), ((1, 2), (1, 2, 3)), ((1,), (1, 2)),
                                      ((1, 2), ())])
    def test_non_pair_rejected(self, fn, u, v):
        with pytest.raises(ValueError, match="not a plane point"):
            fn(u, v)

    @pytest.mark.parametrize("fn", [cross, dot])
    @pytest.mark.parametrize("coord", [1.5, 1.0, Fraction(3, 2), Fraction(1), Decimal(1), "1", None])
    @pytest.mark.parametrize("at", range(4))
    def test_non_int_coordinate_rejected(self, fn, coord, at):
        c = [1, 0, 0, 1]
        c[at] = coord
        with pytest.raises(TypeError):
            fn((c[0], c[1]), (c[2], c[3]))

    def test_bools_are_read_as_ints(self):
        for u, v in [((True, False), (False, True)), ((True, 2), (3, True)), ((-1, True), (True, True))]:
            iu, iv = tuple(map(int, u)), tuple(map(int, v))
            assert cross(u, v) == cross(iu, iv) and type(cross(u, v)) is int
            assert dot(u, v) == dot(iu, iv) and type(dot(u, v)) is int


class TestConvexHull:
    def test_quadrilateral(self):
        p = convex_hull_2d([(0, 0), (-1, 0), (-1, 1), (0, 2)])
        assert len(p.vertices) == 4
        assert p.area == Fraction(3, 2)

    def test_single_point(self):
        p = convex_hull_2d([(0, 0)])
        assert p.vertices == ((0, 0),)
        assert p.area == 0

    def test_collinear_segment(self):
        p = convex_hull_2d([(0, 0), (1, 0), (2, 0)])
        assert p.vertices == ((0, 0), (2, 0))
        assert p.area == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            convex_hull_2d([])

    def test_interior_and_collinear_points_dropped(self):
        square = [(0, 0), (4, 0), (4, 4), (0, 4)]
        extras = [(2, 2), (1, 1), (2, 0), (4, 2), (0, 3)]
        p = convex_hull_2d(square + extras)
        assert sorted(p.vertices) == sorted(square)
        assert p.area == 16

    def test_counterclockwise_and_derived_area(self):
        rng = random.Random(3)
        for _ in range(50):
            pts = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(rng.randint(1, 12))]
            p = convex_hull_2d(pts)
            # Polygon checks ccw order and derives its area from the vertices alone
            assert Polygon(p.vertices).area == p.area == fraction_shoelace(p.vertices)

    def test_unimodular_and_translation_invariance(self):
        rng = random.Random(5)
        for _ in range(60):
            pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(3, 10))]
            base = convex_hull_2d(pts).area
            m = [[1, 0], [0, 1]]
            for _ in range(rng.randint(1, 4)):
                s = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    m = [[m[0][0] + s * m[1][0], m[0][1] + s * m[1][1]], m[1]]
                else:
                    m = [m[0], [m[1][0] + s * m[0][0], m[1][1] + s * m[0][1]]]
            if rng.random() < 0.3:
                m = [m[1], m[0]]  # reflection, |det| still 1
            assert abs(det_cofactor(m)) == 1
            tx, ty = rng.randint(-5, 5), rng.randint(-5, 5)
            image = [(m[0][0] * x + m[0][1] * y + tx, m[1][0] * x + m[1][1] * y + ty)
                     for x, y in pts]
            assert convex_hull_2d(image).area == base


def assert_matches_fraction_hull(points):
    got, want = convex_hull_2d(points), fraction_hull(points)
    assert got.vertices == want.vertices
    assert got.area == want.area
    # each vertex keeps the coordinate types of an input point equal to it,
    # so int points give int vertices
    given_types: dict = {}
    for p in points:
        given_types.setdefault(tuple(p), set()).add((type(p[0]), type(p[1])))
    assert all((type(x), type(y)) in given_types[x, y] for x, y in got.vertices)


small = st.integers(-6, 6)
near_2_64 = st.one_of(st.integers(2**64 - 20, 2**64 + 20), st.integers(-2**64 - 20, -2**64 + 20))


class TestConvexHullAgainstFractionHull:
    # the all-Fraction monotone chain in conftest is the reference

    @given(st.lists(st.tuples(small, small), min_size=1, max_size=30)
           .map(lambda pts: pts + pts[::3]))
    def test_integer_points_with_duplicates(self, points):
        assert_matches_fraction_hull(points)

    @given(st.tuples(small, small), st.tuples(small, small),
           st.lists(st.integers(-10, 10), min_size=1, max_size=12))
    def test_collinear(self, base, step, ts):
        assert_matches_fraction_hull([(base[0] + t * step[0], base[1] + t * step[1]) for t in ts])

    @given(st.tuples(small, small), st.integers(1, 5))
    def test_single_point(self, p, copies):
        assert_matches_fraction_hull([p] * copies)

    @given(st.lists(st.tuples(near_2_64, near_2_64), min_size=1, max_size=20))
    def test_coordinates_near_2_to_the_64(self, points):
        assert_matches_fraction_hull(points)

    @given(st.lists(st.tuples(small, small, st.booleans()), min_size=1, max_size=20))
    def test_mixed_tuples_and_lists(self, rows):
        # list points are read by operator.index, tuples of two ints are not
        assert_matches_fraction_hull([[x, y] if as_list else (x, y) for x, y, as_list in rows])

    @given(st.lists(st.tuples(small, small), min_size=1, max_size=30))
    def test_integer_points_give_int_vertices(self, points):
        assert all(type(c) is int for v in convex_hull_2d(points).vertices for c in v)

    def test_rejects_non_plane_point(self):
        with pytest.raises(ValueError):
            convex_hull_2d([(0, 0), (1, 2, 3)])


def int_hull_cycle(points) -> list:
    # the reference hull's vertex cycle of int points, as int pairs
    return [(int(x), int(y)) for x, y in fraction_hull(points).vertices]


class TestConvexCycleIsItsOwnHull:
    # int pairs that already are a strictly convex cycle are checked once and not
    # chained; the all-Fraction monotone chain in conftest is the reference for both paths

    @given(st.lists(st.tuples(small, small), min_size=3, max_size=30))
    def test_every_rotation_and_orientation(self, points):
        cycle = int_hull_cycle(points)
        if len(cycle) < 3:
            return
        for r in range(len(cycle)):
            for variant in (cycle[r:] + cycle[:r], (cycle[r:] + cycle[:r])[::-1]):
                with pytest.MonkeyPatch.context() as mp:
                    calls = spy_hull_passes(mp)
                    assert_matches_fraction_hull(variant)
                assert calls == ["convex"]

    @given(st.lists(st.tuples(small, small), min_size=3, max_size=30), st.integers(0, 29))
    def test_not_a_convex_cycle_takes_the_chain(self, points, at):
        cycle = int_hull_cycle(points)
        k = len(cycle)
        if k < 3:
            return
        at %= k
        doubled = [(2 * x, 2 * y) for x, y in cycle]
        (x0, y0), (x1, y1) = doubled[at], doubled[(at + 1) % k]
        others = [cycle[:at] + [cycle[at]] + cycle[at:],       # a duplicate point
                  cycle + cycle[at:at + 1],                     # a duplicate, not adjacent
                  doubled[:at + 1] + [((x0 + x1) // 2, (y0 + y1) // 2)] + doubled[at + 1:]]
        if k >= 4:  # every second vertex: a pentagram for k = 5
            others.append(cycle[::2] + cycle[1::2])
        for pts in others:
            for variant in (pts, pts[::-1]):
                with pytest.MonkeyPatch.context() as mp:
                    calls = spy_hull_passes(mp)
                    assert_matches_fraction_hull(variant)
                assert calls.count("chain") == 2

    def test_pentagram_takes_the_chain(self, monkeypatch):
        calls = spy_hull_passes(monkeypatch)
        for pts in (list(PENTAGRAM), list(PENTAGRAM[::-1])):
            calls.clear()
            assert_matches_fraction_hull(pts)
            assert calls == ["convex", "chain", "chain", "convex"]

    @given(st.lists(st.tuples(small, small), min_size=1, max_size=2))
    def test_one_and_two_points_take_the_chain(self, points):
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_hull_passes(mp)
            assert_matches_fraction_hull(points)
        assert calls == ["chain", "chain"]


class TestHullOfColumnEnds:
    # the level hull's column pass: convex_hull_2d of both ends of every column, against the
    # hull of every point

    @given(st.dictionaries(small, st.tuples(small, st.integers(0, 6)), min_size=1, max_size=12))
    def test_column_ends_hold_every_vertex(self, spans):
        cols = [(x, lo, lo + h) for x, (lo, h) in sorted(spans.items())]
        ends = [(x, y) for x, lo, hi in cols for y in (lo, hi)]
        want = fraction_hull([(x, y) for x, lo, hi in cols for y in range(lo, hi + 1)])
        assert set(want.vertices) <= set(ends)
        got = convex_hull_2d(ends)
        assert (got.vertices, got.area) == (want.vertices, want.area)

    @given(st.tuples(small, small), st.tuples(st.integers(1, 4), st.integers(-4, 4)),
           st.integers(1, 10))
    def test_collinear_column_ends(self, base, step, count):
        # every column a single point, lo == hi, all of them on one line
        pts = [(base[0] + t * step[0], base[1] + t * step[1]) for t in range(count)]
        got = convex_hull_2d([(x, y) for x, y0 in pts for y in (y0, y0)])
        want = fraction_hull(pts)
        assert set(got.vertices) == {pts[0], pts[-1]}
        assert (got.vertices, got.area) == (want.vertices, want.area)


class Index:
    """An int-like coordinate that only ``operator.index`` reads."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


as_int = st.sampled_from([int, Index])


class TestIntPairFastPath:
    # tuples of two ints skip _coords; the same points in any other int form,
    # read coordinate by coordinate with operator.index, are the oracle

    @given(st.lists(st.tuples(small, small, as_int), min_size=1, max_size=30))
    def test_same_hull_in_every_form(self, rows):
        points = [(x, y) for x, y, _ in rows]
        want = convex_hull_2d(points)
        assert all(type(c) is int for v in want.vertices for c in v)
        forms = ([[x, y] for x, y in points],
                 [(Index(x), Index(y)) for x, y in points],
                 [(f(x), f(y)) for x, y, f in rows])
        for other in forms:
            got = convex_hull_2d(other)
            assert got.vertices == want.vertices and got.area == want.area
            assert all(type(c) is int for v in got.vertices for c in v)

    @given(st.lists(st.tuples(small, small), min_size=1, max_size=12))
    def test_polygon_accepts_and_rejects_alike(self, vertices):
        # most random cycles are not convex: both forms must reject them alike
        def build(vs):
            try:
                return Polygon(tuple(vs))
            except ValueError:
                return None
        fast, oracle = build(vertices), build([(Index(x), Index(y)) for x, y in vertices])
        assert (fast is None) == (oracle is None)
        if fast is not None:
            assert fast.vertices == oracle.vertices and fast.area == oracle.area
            assert all(type(c) is int for p in (fast, oracle) for v in p.vertices for c in v)

    def test_bool_coordinates_become_ints(self):
        hull = convex_hull_2d([(True, False), (0, 1), (1, True)])
        assert hull.vertices == ((0, 1), (1, 0), (1, 1))
        for p in (hull, Polygon(((False, False), (True, False), (0, True)))):
            assert all(type(c) is int for v in p.vertices for c in v)

    def test_lists_of_ints_become_int_tuples(self):
        for p in (convex_hull_2d([[0, 0], [2, 0], [0, 2], [1, 1]]),
                  Polygon([[0, 0], [2, 0], [0, 2]])):
            assert p.vertices == ((0, 0), (2, 0), (0, 2)) and p.area == 2
            assert all(type(v) is tuple and type(c) is int for v in p.vertices for c in v)

    @pytest.mark.parametrize("coord", [Fraction(1, 2), Fraction(1), 1.0, 0.5, math.inf, -math.inf,
                                       math.nan, "1", "1/2", Decimal(1), Decimal("0.5"), None])
    @pytest.mark.parametrize("at", [0, 1])
    def test_non_int_coordinate_rejected(self, coord, at):
        # the one integer input rule: a coordinate operator.index refuses raises TypeError
        point = (coord, 0) if at == 0 else (0, coord)
        points = [(0, 0), (1, 0), (0, 1), point]
        with pytest.raises(TypeError):
            convex_hull_2d(points)
        with pytest.raises(TypeError):
            Polygon((point, (5, 0), (0, 5)))

    @pytest.mark.parametrize("points", [[(0, 0), (1, 2, 3)], [(0, 0), (1,)], [(1, 2, 3)]])
    def test_non_pair_point_rejected(self, points):
        with pytest.raises(ValueError, match="not a plane point"):
            convex_hull_2d(points)
        with pytest.raises(ValueError, match="not a plane point"):
            Polygon(tuple(points))


cycles = st.lists(st.tuples(small, small), max_size=12)


def assert_matches_fraction_shoelace(vertices):
    got, want = shoelace(vertices), fraction_shoelace(vertices)
    assert got == want and type(got) is Fraction
    assert shoelace(vertices[::-1]) == -want  # the clockwise cycle


class TestShoelaceAgainstFractionShoelace:
    # the shoelace sum accumulated in Fractions, in conftest, is the reference

    @given(cycles)
    def test_integer_vertices(self, vertices):
        assert_matches_fraction_shoelace(vertices)

    @given(st.lists(st.tuples(near_2_64, near_2_64), max_size=12))
    def test_coordinates_near_2_to_the_64(self, vertices):
        assert_matches_fraction_shoelace(vertices)

    @given(st.lists(st.tuples(small, small), max_size=2))
    def test_fewer_than_three_vertices_is_zero(self, vertices):
        assert shoelace(vertices) == fraction_shoelace(vertices) == 0

    def test_clockwise_cycle_is_negative(self):
        assert shoelace([(0, 0), (0, 1), (1, 0)]) == Fraction(-1, 2)
        assert shoelace([(0, 0), (0, 3), (2, 0)]) == -3


PENTAGRAM = ((0, 0), (3, 2), (-1, 2), (2, 0), (1, 3))


tiny = st.integers(-3, 3)


@st.composite
def kernel_points(draw) -> list:
    """0-8 int points in [-3, 3]^2: any points, repeats included; a collinear run; a hull cycle,
    from any vertex, either way round; or a hull cycle in step-2 order, which winds twice when
    its length is odd, as a pentagram does."""
    kind = draw(st.sampled_from(["any", "collinear", "cycle", "clockwise", "star"]))
    if kind == "any":
        return draw(st.lists(st.tuples(tiny, tiny), max_size=8))
    if kind == "collinear":
        unit = st.integers(-1, 1)
        (x, y), (dx, dy) = draw(st.tuples(tiny, tiny)), draw(st.tuples(unit, unit))
        run = [(x + t * dx, y + t * dy) for t in draw(st.lists(tiny, max_size=8))]
        return [(a, b) for a, b in run if -3 <= a <= 3 and -3 <= b <= 3]
    cycle = int_hull_cycle(draw(st.lists(st.tuples(tiny, tiny), min_size=1, max_size=8)))
    r = draw(st.integers(0, len(cycle) - 1))
    cycle = cycle[r:] + cycle[:r]
    if kind == "star":
        return cycle[::2] + cycle[1::2]
    return cycle[::-1] if kind == "clockwise" else cycle


class NamedPoint(NamedTuple):
    x: int
    y: int


# every form a point may take: an int pair is read as it is, every other form by _coords
POINT_FORMS = {"pair": lambda x, y: (x, y), "list": lambda x, y: [x, y],
               "bool": lambda x, y: (x > 0, y), "triple": lambda x, y: (x, y, 0),
               "named": NamedPoint, "fraction": lambda x, y: (x, Fraction(y)),
               "index": lambda x, y: (Index(x), y)}
mixed_points = st.lists(st.tuples(tiny, tiny, st.sampled_from(["pair"] * 4 + sorted(POINT_FORMS))),
                        max_size=8).map(lambda rows: [POINT_FORMS[f](x, y) for x, y, f in rows])


def kernel_outcomes(points) -> list:
    """The hull and the Polygon of the points, vertices, area and coordinate types, or the
    error's type and text."""
    out = []
    for build in (convex_hull_2d, Polygon):
        try:
            p = build(points)
        except (TypeError, ValueError) as e:
            out.append((type(e), str(e)))
        else:
            out.append((p.vertices, p.area, [tuple(map(type, v)) for v in p.vertices]))
    return out


def assert_kernels_as_references(points):
    # each one-loop kernel and its reference agree, on the points either way round, and so
    # does every hull and Polygon built on them
    for pts in (points, points[::-1]):
        for form in (pts, tuple(pts)):
            assert _int_pairs(form) is set_int_pairs(form)
        if set_int_pairs(pts) or not pts:
            xs, ys = [x for x, _ in pts], [y for _, y in pts]
            assert _strictly_convex(xs, ys) is four_pass_strictly_convex(xs, ys)
        got = kernel_outcomes(pts)
        with pytest.MonkeyPatch.context() as mp:
            reference_kernels(mp)
            assert kernel_outcomes(pts) == got


class TestOnePassKernels:
    # the int-pair read and the convexity check are one loop each; the set-based test and the
    # four-pass check in conftest are their oracles, and swapped in, the oracle of every hull
    # and Polygon, error texts included

    @given(st.one_of(kernel_points(), mixed_points))
    @example([])
    @example(list(PENTAGRAM))
    def test_int_pairs_and_strictly_convex_as_references(self, points):
        assert_kernels_as_references(points)

    @pytest.mark.parametrize("n", [64, 256])
    def test_int_pairs_and_strictly_convex_on_deep_cocycles(self, n):
        # a convex cycle either way round under every flag's valuation, far past [-3, 3]
        D = deep_ample_instance(random.Random(n), n)
        for w in D.fan.charts.values():
            assert_kernels_as_references([w.value(e) for e in D.cocycle])


class TestPolygonArea:
    def test_divisor_polytope_instance(self):
        p = convex_hull_2d([(0, 0), (2, 0), (1, -1), (0, -1)])
        assert p.area == Fraction(3, 2)

    def test_unit_square(self):
        assert convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)]).area == 1

    def test_second_instance(self):
        # vertices of the (l,a,b) = (2,1,3) divisor polytope
        p = convex_hull_2d([(0, 0), (3, 0), (1, -1), (0, -1)])
        assert p.area == 2

    def test_polygon_invariant_violations(self):
        with pytest.raises(ValueError):
            Polygon(((0, 0), (0, 1), (1, 0)))  # clockwise
        with pytest.raises(ValueError):
            Polygon(((0, 0), (0, 3), (2, 0)))  # clockwise
        with pytest.raises(TypeError):
            Polygon(((0, 0), (1, 0), (0, 1)), Fraction(1, 2))  # the area is derived, not given
        for vertices in (((0, 0), (2, 0), (0, 2), (1, 1)),  # not convex
                         ((0, 0), (1, 0), (2, 0), (0, 1)),  # a collinear vertex
                         ((0, 0), (1, 0), (0, 1), (0, 0)),  # a repeated vertex
                         ((0, 0), (1, 0), (1, 0), (0, 1)),  # one vertex twice in a row
                         ((1, 1), (1, 1)),  # a segment needs two distinct vertices
                         PENTAGRAM):  # every turn left, but it winds twice
            with pytest.raises(ValueError):
                Polygon(vertices)

    def test_polygon_derives_its_area(self):
        assert Polygon(((0, 0), (1, 0), (0, 1))).area == Fraction(1, 2)
        assert Polygon(((0, 0), (3, 0), (0, 2))).area == 3
        assert Polygon(((1, 1), (2, 2))).area == 0

    @pytest.mark.parametrize("vertices", [(), []])
    def test_no_vertices_rejected_like_the_empty_hull(self, vertices):
        with pytest.raises(ValueError, match="not a strictly convex"):
            Polygon(vertices)
        with pytest.raises(ValueError):
            convex_hull_2d(vertices)


class TestPolygonIsStrictlyConvex:
    def test_pentagram_turns_left_and_has_positive_area(self):
        # why the check counts the winding: turns and area alone accept it
        n = len(PENTAGRAM)
        turns = [cross(tuple(b - a for a, b in zip(PENTAGRAM[i - 1], PENTAGRAM[i])),
                       tuple(b - a for a, b in zip(PENTAGRAM[i], PENTAGRAM[(i + 1) % n])))
                 for i in range(n)]
        assert turns == [7, 8, 8, 7, 6]
        assert shoelace(PENTAGRAM) == 5

    @given(st.lists(st.tuples(small, small), min_size=3, max_size=30))
    def test_hull_cycles(self, points):
        hull = convex_hull_2d(points)
        cycle = hull.vertices
        k = len(cycle)
        if k < 3:
            return
        for r in range(k):  # any start vertex
            assert Polygon(cycle[r:] + cycle[:r]).area == hull.area
        doubled = tuple((2 * x, 2 * y) for x, y in cycle)
        (x0, y0), (x1, y1) = doubled[0], doubled[1]
        midpoint = ((x0 + x1) // 2, (y0 + y1) // 2)  # a lattice point of the doubled cycle
        assert Polygon(doubled).area == 4 * hull.area
        bad = [cycle[::-1], cycle + cycle, cycle[:1] + cycle, doubled[:1] + (midpoint,) + doubled[1:]]
        if k % 2:  # every second vertex: left turns, winding 2
            bad.append(cycle[::2] + cycle[1::2])
        for vertices in bad:
            with pytest.raises(ValueError):
                Polygon(vertices)


BIG_M = 2 ** 199 + 3  # a 200-bit divisor


class TestPolygonDivided:
    # the all-Fraction hull of the scaled vertices, in conftest, is the reference

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=30),
           st.one_of(st.integers(1, 50), st.just(BIG_M)))
    @example([(3, -5)], 7)  # a point
    @example([(3, -5), (3, -5)], 1)
    @example([(0, 0), (6, 4), (3, 2)], 4)  # a segment
    @example([(0, 0), (6, 4)], BIG_M)
    @example([(0, 0), (2, 0), (1, -1), (0, -1)], BIG_M)
    def test_equals_the_checked_fraction_polygon(self, points, m):
        hull = convex_hull_2d(points)
        got = hull.divided(m)
        want = fraction_hull([(Fraction(x, m), Fraction(y, m)) for x, y in hull.vertices])
        assert got.vertices == want.vertices and got.area == want.area
        assert all(type(c) is Fraction for v in got.vertices for c in v)
        assert type(got.area) is Fraction

    def test_divides_every_coordinate_and_the_area(self):
        p = convex_hull_2d([(0, 0), (4, 0), (0, 6)]).divided(2)
        assert p.vertices == ((0, 0), (2, 0), (0, 3)) and p.area == 3

    @pytest.mark.parametrize("m, error", [(0, ValueError), (-1, ValueError), (2.0, TypeError)])
    def test_rejects_a_non_positive_or_non_int_divisor(self, m, error):
        with pytest.raises(error):
            convex_hull_2d([(0, 0), (1, 0), (0, 1)]).divided(m)
