import dataclasses
import random
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import lcm

import numpy as np
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
    l1_norm,
    normalize_range,
    oracle,
    range_check,
    support_classes,
    vertex_weight_bound,
)
from conftest import make_random_wdg

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
        # the six-vertex edges with 27 free coordinates, past the scan limit
        wdg = build_wdg(28, [(e.u, e.v, e.weight) for e in six_vertex_example.edges])
        assert wdg.num_variables > oracle.SCAN_TIME_LIMIT
        report = extrema(wdg)
        assert not report.exact
        assert report.max is None and report.delta is None
        assert report.lower_bound == 2 * vertex_weight_bound(six_vertex_example)
        assert report.upper_bound == 2 * l1_norm(six_vertex_example)

    def test_bounds_bracket_delta(self, rng, random_wdg):
        for _ in range(50):
            wdg = random_wdg(rng, rng.randint(1, 9))
            report = extrema(wdg)
            assert report.lower_bound <= report.delta <= report.upper_bound

    def test_vector_width_invariance(self, rng, random_wdg, monkeypatch):
        graphs = []
        for _ in range(10):
            wdg = random_wdg(rng, rng.randint(1, 9), edge_probability=0.4)
            graphs += [wdg, large_denominators(rng, wdg)]
        expected = [extrema(wdg) for wdg in graphs]
        for bits in (0, 1, 2, 3):
            monkeypatch.setattr(oracle, "_INT64_BITS", bits)
            monkeypatch.setattr(oracle, "_OBJECT_BITS", bits)
            assert [extrema(wdg) for wdg in graphs] == expected


_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)


def large_denominators(rng, wdg):
    """The same edges with weights whose common denominator passes 2**63."""
    edges = [
        (e.u, e.v, F(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.choice(_PRIMES)))
        for e in wdg.edges
    ]
    return build_wdg(wdg.dimension, edges, wdg.shift)


def reference_extrema(wdg):
    """(max, argmax, min, argmin) by a Python-int Gray-code walk of the cube.

    This is the scan the numpy kernel replaced: each step flips one
    coordinate and updates g with one multiply-add per incident edge.
    """
    denom = lcm(*(e.weight.denominator for e in wdg.edges))
    adj = [[] for _ in range(wdg.dimension)]
    g = 0
    for e in wdg.edges:
        w = int(e.weight * denom)
        adj[e.u].append((e.v, w))
        adj[e.v].append((e.u, w))
        g += w
    x = [1] * wdg.dimension
    best = worst = g
    arg_best = arg_worst = tuple(x[1:])
    for i in range(1, 1 << wdg.num_variables):
        v = (i & -i).bit_length()  # Gray code flips coordinate trailing_zeros(i)+1
        s = 0
        for u, w in adj[v]:
            s += w * x[u]
        g -= 2 * s * x[v]
        x[v] = -x[v]
        if g > best:
            best, arg_best = g, tuple(x[1:])
        elif g == best:
            arg_best = min(arg_best, tuple(x[1:]))
        if g < worst:
            worst, arg_worst = g, tuple(x[1:])
        elif g == worst:
            arg_worst = min(arg_worst, tuple(x[1:]))
    return F(best, denom), arg_best, F(worst, denom), arg_worst


def naive_extrema(wdg):
    """(max, argmax, min, argmin) from evaluate at every point, in lexicographic
    order, so max/min return the smallest witness."""
    values = [(evaluate(wdg, x), x) for x in all_assignments(wdg.num_variables)]
    top = max(values, key=lambda pair: pair[0])
    bottom = min(values, key=lambda pair: pair[0])
    return top[0], top[1], bottom[0], bottom[1]


def int64_boundary_graph(l1):
    """A 14-variable graph of integer weights whose l1 norm is exactly ``l1``."""
    pairs = [(0, k) for k in range(1, 15, 3)] + [(k, k % 14 + 1) for k in range(1, 15)]
    weights = [(l1 // len(pairs)) * (-1) ** k for k in range(len(pairs))]
    weights[0] += l1 - sum(abs(w) for w in weights)
    return build_wdg(15, [(u, v, w) for (u, v), w in zip(pairs, weights)])


def kernel_cases():
    """Random graphs of both dtypes for n = 0..14, graphs on either side of
    the int64 bound, and graphs whose extrema are heavily tied."""
    rng = random.Random(4004)
    cases = []
    for n in range(15):
        wdg = make_random_wdg(rng, n + 1, edge_probability=0.5)
        cases += [wdg, large_denominators(rng, wdg)]
    cases += [int64_boundary_graph((1 << 61) - 1), int64_boundary_graph(1 << 61)]
    cases += [build_wdg(n + 1, []) for n in (0, 5, 14)]
    cases.append(star(14))
    cases.append(build_wdg(15, [(1, j, 1) for j in range(2, 15)]))  # hub star
    for offsets, weight in (((1,), 1), ((1, 3), -1), ((2, 5), F(1, 3))):
        circulant = [(i, (i + s - 1) % 14 + 1, weight) for s in offsets for i in range(1, 15)]
        cases.append(build_wdg(15, circulant))
    return cases


def planted(wdg, a, b):
    """``wdg`` rescaled and shifted so that f(a) = 1 and f(b) = 0, or None
    when g(a) = g(b)."""
    gap = evaluate(wdg, a) - evaluate(wdg, b)
    if gap == 0:
        return None
    edges = [(e.u, e.v, e.weight / gap) for e in wdg.edges]
    return build_wdg(wdg.dimension, edges, -evaluate(wdg, b) / gap)


def scaled_l1(wdg):
    return wdg.scaled.l1


def support_cases():
    """Random graphs for n = 0..12 with shifts planted on random points, on
    the extrema, and off every scaled target.  Even n have small weights,
    so g ties often and the classes are large; odd n have weights whose
    common denominator passes int64."""
    rng = random.Random(7007)
    cases = []
    for n in range(13):
        if n % 2:
            graph = large_denominators(rng, make_random_wdg(rng, n + 1, edge_probability=0.3))
        else:
            graph = make_random_wdg(rng, n + 1, max_denominator=2, edge_probability=0.3)
        points = [tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(2)]
        report = extrema(graph)
        for a, b in (points, (report.argmax, report.argmin)):
            if (shifted := planted(graph, a, b)) is not None:
                cases.append(shifted)
        # 1/p for a prime p not dividing the common denominator: no integer target
        edges = [(e.u, e.v, e.weight) for e in graph.edges]
        cases.append(build_wdg(graph.dimension, edges, F(1, 2**61 - 1)))
    return cases


class TestScanKernel:
    def test_dtype_at_int64_bound(self):
        assert oracle._block_layout((1 << 61) - 1)[0] is np.int64
        assert oracle._block_layout(1 << 61)[0] is object
        below, above = int64_boundary_graph((1 << 61) - 1), int64_boundary_graph(1 << 61)
        assert l1_norm(below) == (1 << 61) - 1 and l1_norm(above) == 1 << 61

    @pytest.mark.parametrize("bits", [None, (2, 3)])
    def test_matches_reference_and_naive(self, monkeypatch, bits):
        if bits is not None:
            monkeypatch.setattr(oracle, "_INT64_BITS", bits[0])
            monkeypatch.setattr(oracle, "_OBJECT_BITS", bits[1])
        for wdg in kernel_cases():
            report = extrema(wdg)
            scanned = (report.max, report.argmax, report.min, report.argmin)
            assert scanned == reference_extrema(wdg)
            # Fraction evaluation at every point is slow; the reference covers n > 9
            if wdg.num_variables <= 9:
                assert scanned == naive_extrema(wdg)


def fraction_l1(wdg):
    """Reference for ``l1_norm``: the sum of |w| in Fraction arithmetic."""
    return sum((abs(e.weight) for e in wdg.edges), F(0))


def fraction_vertex_bound(wdg):
    """Reference for ``vertex_weight_bound``: per-vertex sums of |w| in Fractions."""
    incidence = defaultdict(F)
    for e in wdg.edges:
        incidence[e.u] += abs(e.weight)
        incidence[e.v] += abs(e.weight)
    return max(incidence.values(), default=F(0))


class TestScaledForm:
    def test_matches_fraction_sums(self):
        rng = random.Random(1616)
        cases = [make_random_wdg(rng, rng.randint(1, 12)) for _ in range(40)]
        cases += [build_wdg(d, []) for d in (1, 2, 9)] + support_cases()
        for wdg in cases:
            form = wdg.scaled
            assert form.denom == lcm(*(e.weight.denominator for e in wdg.edges))
            assert [(u, v) for u, v, _ in form.edges] == [(e.u, e.v) for e in wdg.edges]
            assert all(F(w, form.denom) == e.weight for (_, _, w), e in zip(form.edges, wdg.edges))
            assert F(form.l1, form.denom) == fraction_l1(wdg) == l1_norm(wdg)
            assert F(form.vertex_bound, form.denom) == fraction_vertex_bound(wdg)
            assert vertex_weight_bound(wdg) == fraction_vertex_bound(wdg)
            assert wdg.scaled is form
        assert max(wdg.scaled.denom for wdg in cases) >= 1 << 63

    def test_empty_graph(self):
        assert build_wdg(4, [], F(1, 3)).scaled == (1, (), 0, 0)

    def test_huge_dimension_stays_o_edges(self):
        wdg = build_wdg(1_000_000, [(0, 999_999, F(1, 3)), (5, 999_999, F(-2, 7))])
        tracemalloc.start()
        start = time.perf_counter()
        form = wdg.scaled
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert form == (21, ((0, 999_999, 7), (5, 999_999, -6)), 13, 13)
        # a per-vertex array would take 8 MB
        assert peak < 100_000 and elapsed < 0.1

    def test_cache_is_not_a_field(self, rng, random_wdg):
        a = random_wdg(rng, 7)
        b = build_wdg(a.dimension, [(e.u, e.v, e.weight) for e in a.edges], a.shift)
        a.scaled
        assert "scaled" in vars(a) and "scaled" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert [field.name for field in dataclasses.fields(a)] == ["dimension", "edges", "shift"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.scaled = None


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
        wdg = build_wdg(oracle.OUTPUT_SIZE_LIMIT + 2, [(0, 1, 1)])
        with pytest.raises(LimitExceededError):
            support_classes(wdg)

    def test_kernel_matches_domain(self, monkeypatch):
        cases = support_cases()
        expected = [
            support_classes(wdg, domain=all_assignments(wdg.num_variables)) for wdg in cases
        ]
        # the cases exercise both classes, empty ones and both block dtypes
        assert any(c.s_plus and c.s_minus for c in expected)
        assert any(not c.s_plus and not c.s_minus for c in expected)
        assert {oracle._block_layout(scaled_l1(wdg))[0] for wdg in cases} == {np.int64, object}
        assert [support_classes(wdg) for wdg in cases] == expected
        for bits in (0, 1, 2, 3):
            monkeypatch.setattr(oracle, "_INT64_BITS", bits)
            monkeypatch.setattr(oracle, "_OBJECT_BITS", bits)
            assert [support_classes(wdg) for wdg in cases] == expected


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
