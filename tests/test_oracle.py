from fractions import Fraction

import pytest

from wdglab import (
    DegenerateGraphError,
    LimitExceededError,
    advantage_indicator,
    all_assignments,
    approximation_error,
    build_wdg,
    delta_exact,
    evaluate,
    extrema,
    f_value,
    iter_values,
    l1_norm,
    normalize_range,
    range_check,
    support_classes,
    vertex_weight_bound,
)

F = Fraction


def star(k, weight=None):
    weight = F(1, k) if weight is None else weight
    return build_wdg(k + 1, [(0, j, weight) for j in range(1, k + 1)])


class TestExtrema:
    def test_six_vertex(self, six_vertex_example):
        report = extrema(six_vertex_example)
        assert report.exact
        assert report.max == F(1, 2)
        assert report.min == F(-1, 2)
        assert report.delta == 1
        # canonical witnesses are the lexicographically smallest extremizers;
        # the other maximizer (-1,+1,+1,-1,+1) evaluates identically
        assert report.argmax == (-1, 1, -1, 1, 1)
        assert report.argmin == (-1, -1, -1, -1, -1)
        assert evaluate(six_vertex_example, report.argmax) == report.max
        assert evaluate(six_vertex_example, report.argmin) == report.min
        assert evaluate(six_vertex_example, (-1, 1, 1, -1, 1)) == report.max

    def test_single_edge(self):
        wdg = build_wdg(2, [(0, 1, F(3, 5))])
        report = extrema(wdg)
        assert (report.max, report.min, report.delta) == (F(3, 5), F(-3, 5), F(6, 5))

    def test_star_delta_two(self):
        report = extrema(star(5))
        assert report.delta == 2
        assert report.argmax == (1,) * 5

    def test_empty_graph(self):
        report = extrema(build_wdg(4, []))
        assert report.delta == 0
        assert report.argmax == report.argmin == (-1, -1, -1)

    def test_dimension_one(self):
        report = extrema(build_wdg(1, []))
        assert report.exact and report.delta == 0 and report.argmax == ()

    def test_bounds_only_mode(self, six_vertex_example):
        report = extrema(six_vertex_example, limit=4)
        assert not report.exact
        assert report.max is None and report.delta is None
        assert report.lower_bound == 2 * vertex_weight_bound(six_vertex_example)
        assert report.upper_bound == 2 * l1_norm(six_vertex_example)

    def test_bounds_bracket_delta(self, rng, random_wdg):
        for _ in range(50):
            wdg = random_wdg(rng, rng.randint(1, 9))
            report = extrema(wdg)
            assert report.lower_bound <= report.delta <= report.upper_bound

    def test_incremental_matches_naive(self, rng, random_wdg):
        for _ in range(8):
            wdg = random_wdg(rng, rng.randint(2, 11))
            for x, g in iter_values(wdg):
                assert g == evaluate(wdg, x)

    def test_partitioned_scan_identical(self, rng, random_wdg):
        for _ in range(12):
            wdg = random_wdg(rng, rng.randint(2, 9), edge_probability=0.4)
            single = extrema(wdg)
            for block_bits in (1, 2, 3):
                assert extrema(wdg, block_bits=block_bits) == single


class TestVertexWeightBound:
    def test_six_vertex(self, six_vertex_example):
        assert vertex_weight_bound(six_vertex_example) == F(1, 4)

    def test_single_edge(self):
        assert vertex_weight_bound(build_wdg(2, [(0, 1, F(-3, 7))])) == F(3, 7)
        # the bound 2|a| is tight there
        assert delta_exact(build_wdg(2, [(0, 1, F(-3, 7))])) == F(6, 7)

    def test_pair_right(self, pair_right):
        assert vertex_weight_bound(pair_right) == F(1, 2)

    def test_spread_lower_bound_random(self, rng, random_wdg):
        for _ in range(60):
            wdg = random_wdg(rng, rng.randint(1, 9))
            assert delta_exact(wdg) >= 2 * vertex_weight_bound(wdg)

    def test_star_is_tight(self):
        for k in (1, 2, 5, 8):
            wdg = star(k)
            assert delta_exact(wdg) == 2 * vertex_weight_bound(wdg) == 2


class TestSupportClasses:
    def test_pair_left(self, pair_left):
        classes = support_classes(pair_left)
        assert classes.s_plus == {(1, -1)}
        assert classes.s_minus == {(-1, 1)}

    def test_pair_right_membership(self, pair_right):
        # f(1,1) = 1/4 + 1/6 - 1/4 + 2/3 = 5/6: in neither class.
        assert f_value(pair_right, (1, 1)) == F(5, 6)
        classes = support_classes(pair_right)
        assert (1, 1) not in classes.s_plus and (1, 1) not in classes.s_minus
        assert classes.s_plus == {(1, -1)}
        assert classes.s_minus == {(-1, -1)}

    def test_constant_one(self):
        wdg = build_wdg(3, [], shift=1)
        classes = support_classes(wdg)
        assert classes.s_plus == set(all_assignments(2))
        assert classes.s_minus == frozenset()

    def test_explicit_domain(self, pair_left):
        classes = support_classes(pair_left, domain=[(1, -1), (1, 1)])
        assert classes.s_plus == {(1, -1)}
        assert classes.s_minus == frozenset()

    def test_limit(self):
        wdg = build_wdg(25, [(0, 1, 1)])
        with pytest.raises(LimitExceededError):
            support_classes(wdg)


class TestRangeAndRescaling:
    def test_range_check_golden(self, six_vertex_example):
        assert range_check(six_vertex_example)
        assert not range_check(build_wdg(2, [(0, 1, 3)]))
        assert range_check(build_wdg(2, [], shift=F(1, 2)))

    def test_normalize_single_edge(self):
        scaled = normalize_range(build_wdg(2, [(0, 1, 3)]))
        assert scaled.edges[0].weight == F(1, 2)
        assert scaled.shift == F(1, 2)
        assert delta_exact(scaled) == 1

    def test_normalize_six_vertex_keeps_weights(self, six_vertex_example):
        scaled = normalize_range(six_vertex_example)
        assert scaled.edges == six_vertex_example.edges
        assert scaled.shift == F(1, 2)

    def test_normalize_degenerate(self):
        with pytest.raises(DegenerateGraphError):
            normalize_range(build_wdg(3, []))

    def test_normalized_graphs_have_unit_range(self, rng, random_wdg):
        count = 0
        while count < 25:
            wdg = random_wdg(rng, rng.randint(2, 8))
            if delta_exact(wdg) == 0:
                continue
            scaled = normalize_range(wdg)
            assert range_check(scaled)
            assert delta_exact(scaled) == 1
            count += 1


class TestApproximationAndAdvantage:
    def test_six_vertex_targets(self, six_vertex_example):
        points = (((-1, 1, 1, -1, 1), 1), ((-1, -1, 1, 1, -1), 0))
        assert approximation_error(six_vertex_example, points, F(1, 2)) == 0

    def test_empty_graph_targets(self):
        empty = build_wdg(3, [])
        assert approximation_error(empty, (((1, 1), 0),), 0) == 0
        assert approximation_error(empty, (((1, 1), 1),), 0) == 1
        assert approximation_error(empty, (), 0) == 0

    def test_advantage_indicator(self, pair_left, pair_right):
        assert advantage_indicator(pair_left) == 1
        assert advantage_indicator(pair_right) == F(16, 9)
        assert advantage_indicator(build_wdg(2, [])) == 0
