import math
import random
from fractions import Fraction

import pytest

from wdglab import (
    BadIndexError,
    EmptyTemplateError,
    DegenerateGraphError,
    InfeasibleError,
    LimitExceededError,
    OptimizationResult,
    PartialFunctionSpec,
    approximation_error,
    build_wdg,
    delta_exact,
    evaluate,
    extrema,
    full_template,
    l1_norm,
    maximize_l1,
    min_to_max,
    minimize_delta,
    uniform_heuristic,
    vertex_weight_bound,
)
from wdglab.optimize import _Candidate, _exact_candidate, _sign_columns

F = Fraction

SIX_VERTEX_POINTS = (((-1, 1, 1, -1, 1), 1), ((-1, -1, 1, 1, -1), 0))


@pytest.fixture
def six_vertex_target():
    return PartialFunctionSpec(dimension=6, points=SIX_VERTEX_POINTS, epsilon=0)


class TestSpecValidation:
    def test_bad_target_value(self):
        with pytest.raises(ValueError):
            PartialFunctionSpec(dimension=3, points=(((1, 1), 2),), epsilon=0)

    def test_wrong_length(self):
        with pytest.raises(BadIndexError):
            PartialFunctionSpec(dimension=3, points=(((1, 1, 1), 1),), epsilon=0)

    def test_duplicate_pair(self):
        with pytest.raises(ValueError):
            PartialFunctionSpec(
                dimension=3, points=(((1, 1), 1), ((1, 1), 1)), epsilon=0
            )

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            PartialFunctionSpec(dimension=3, points=(), epsilon=-1)

    def test_conflicting_targets_allowed_at_construction(self):
        spec = PartialFunctionSpec(
            dimension=3, points=(((1, 1), 1), ((1, 1), 0)), epsilon=0
        )
        assert len(spec.points) == 2


class TestUniformHeuristic:
    def test_four_edges(self):
        wdg = uniform_heuristic([(0, 1), (0, 2), (1, 2), (1, 3)], 4)
        assert all(e.weight == F(1, 4) for e in wdg.edges)
        assert l1_norm(wdg) == 1

    def test_single_edge(self):
        wdg = uniform_heuristic([(0, 1)], 2)
        assert wdg.edges[0].weight == 1

    def test_six_vertex_template(self, six_vertex_example):
        template = [(e.u, e.v) for e in six_vertex_example.edges]
        wdg = uniform_heuristic(template, 6)
        assert all(e.weight == F(1, 4) for e in wdg.edges)
        assert vertex_weight_bound(wdg) == F(1, 2)

    def test_star_template_saturates_lower_bound(self):
        star = uniform_heuristic([(0, j) for j in range(1, 7)], 7)
        assert l1_norm(star) == 1
        assert delta_exact(star) == 2 * vertex_weight_bound(star) == 2

    def test_empty_template(self):
        with pytest.raises(EmptyTemplateError):
            uniform_heuristic([], 4)


class TestMaximize:
    def test_six_vertex_target(self, six_vertex_target):
        result = maximize_l1(six_vertex_target, budget=3000, seed=0)
        assert result.feasible and result.verified
        assert result.objective >= F(1, 2)
        # independent oracle re-check of both constraints
        assert delta_exact(result.wdg) == 1
        assert result.objective == l1_norm(result.wdg)
        assert (
            approximation_error(result.wdg, six_vertex_target, result.c)
            <= six_vertex_target.epsilon
        )

    def test_empty_point_list(self):
        spec = PartialFunctionSpec(dimension=4, points=(), epsilon=0)
        result = maximize_l1(spec, budget=1500, seed=1)
        assert result.feasible and result.verified
        uniform = uniform_heuristic(full_template(4), 4)
        baseline = l1_norm(uniform) / delta_exact(uniform)
        assert result.objective >= baseline

    def test_contradictory_targets_infeasible(self):
        spec = PartialFunctionSpec(
            dimension=3, points=(((1, 1), 1), ((1, 1), 0)), epsilon=0
        )
        with pytest.raises(InfeasibleError):
            maximize_l1(spec, budget=100, seed=0)

    def test_contradictory_targets_with_loose_epsilon(self):
        spec = PartialFunctionSpec(
            dimension=3, points=(((1, 1), 1), ((1, 1), 0)), epsilon=F(1, 2)
        )
        result = maximize_l1(spec, budget=500, seed=0)
        assert result.verified

    def test_determinism(self, six_vertex_target):
        first = maximize_l1(six_vertex_target, budget=1200, seed=3)
        second = maximize_l1(six_vertex_target, budget=1200, seed=3)
        assert first == second

    def test_dimension_limit(self):
        spec = PartialFunctionSpec(dimension=19, points=(), epsilon=0)
        with pytest.raises(LimitExceededError) as raised:
            maximize_l1(spec, budget=10, seed=0)
        assert str(raised.value) == (
            "18 free coordinates exceed the optimizer's search limit 16"
        )


class TestMinimize:
    def test_single_edge_template(self):
        spec = PartialFunctionSpec(dimension=2, points=(), epsilon=0)
        result = minimize_delta(spec, template=[(0, 1)], budget=300, seed=0)
        assert result.objective == 2
        assert l1_norm(result.wdg) == 1

    def test_star_template(self):
        spec = PartialFunctionSpec(dimension=5, points=(), epsilon=0)
        template = [(0, j) for j in range(1, 5)]
        result = minimize_delta(spec, template=template, budget=500, seed=0)
        assert result.objective == 2
        assert result.verified

    def test_six_vertex_target(self, six_vertex_target):
        result = minimize_delta(six_vertex_target, budget=3000, seed=0)
        assert result.verified
        assert l1_norm(result.wdg) == 1
        delta = delta_exact(result.wdg)
        assert result.objective == delta
        for x, target in six_vertex_target.points:
            assert abs(evaluate(result.wdg, x) / delta - target + result.c) <= 0


class TestDuality:
    def test_single_edge_scaling(self):
        # a unit-weight edge has spread 2; rescaling gives L1 = 1/2 at spread 1
        spec = PartialFunctionSpec(dimension=2, points=(), epsilon=0)
        minimized = minimize_delta(spec, template=[(0, 1)], budget=200, seed=0)
        assert minimized.objective == 2
        maximized = min_to_max(minimized)
        assert maximized.objective == F(1, 2)
        assert delta_exact(maximized.wdg) == 1

    def test_min_to_max_exact(self, six_vertex_target):
        minimized = minimize_delta(six_vertex_target, budget=2000, seed=2)
        maximized = min_to_max(minimized)
        assert maximized.objective == 1 / minimized.objective
        assert delta_exact(maximized.wdg) == 1
        assert maximized.verified
        assert maximized.c == minimized.c

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            (PartialFunctionSpec(dimension=6, points=SIX_VERTEX_POINTS, epsilon=0), dict(budget=100, seed=1)),
            (PartialFunctionSpec(dimension=6, points=SIX_VERTEX_POINTS, epsilon=0), dict(budget=100, seed=4, chains=2)),
            (
                PartialFunctionSpec(dimension=6, points=SIX_VERTEX_POINTS, epsilon=0),
                dict(budget=500, seed=2, template=[(0, 2), (0, 5), (1, 2), (3, 4), (2, 5), (1, 4)]),
            ),
            (PartialFunctionSpec(dimension=5, points=(), epsilon=0), dict(budget=500, seed=3)),
            (PartialFunctionSpec(dimension=6, points=SIX_VERTEX_POINTS, epsilon=F(1, 10)), dict(budget=100, seed=5)),
        ],
        ids=["six-vertex", "chains-2", "custom-template", "empty-target", "epsilon-1/10"],
    )
    def test_min_to_max_of_minimize_is_maximize(self, spec, kwargs):
        # both objectives rank candidates by the same scale-free ratio, so
        # the same seed finds the same graph up to the final rescaling
        assert min_to_max(minimize_delta(spec, **kwargs)) == maximize_l1(spec, **kwargs)

    def _unsearched(self, wdg):
        spec = PartialFunctionSpec(dimension=wdg.dimension, points=(), epsilon=0)
        return OptimizationResult(
            wdg=wdg, c=F(0), objective=F(0), feasible=True, iterations=0, verified=False, spec=spec
        )

    def test_rescales_beyond_optimizer_limit(self):
        # 17 free coordinates: past the optimizer's search limit, within the oracle's
        wdg = build_wdg(18, [(0, 1, F(1, 4)), (2, 3, F(-1, 4)), (5, 17, F(1, 2))])
        maximized = min_to_max(self._unsearched(wdg))
        assert maximized.objective == F(1, 2)
        assert [e.weight for e in maximized.wdg.edges] == [F(1, 8), F(-1, 8), F(1, 4)]
        assert maximized.verified

    def test_beyond_oracle_limit_raises(self):
        wdg = build_wdg(28, [(0, 1, F(1, 4)), (26, 27, F(1, 2))])
        with pytest.raises(LimitExceededError):
            min_to_max(self._unsearched(wdg))

    def test_degenerate_input(self, six_vertex_target):
        empty = OptimizationResult(
            wdg=build_wdg(3, []),
            c=F(0),
            objective=F(0),
            feasible=True,
            iterations=0,
            verified=False,
            spec=PartialFunctionSpec(dimension=3, points=(), epsilon=0),
        )
        with pytest.raises(DegenerateGraphError):
            min_to_max(empty)


def reference_exact_candidate(spec, pairs, weights):
    """The exact check in Fraction arithmetic: delta from extrema, and g at
    the target points from evaluate on the built graph."""
    edges = [(u, v, w) for (u, v), w in zip(pairs, weights) if w != 0]
    if not edges:
        return None
    raw = build_wdg(spec.dimension, edges)
    report = extrema(raw)
    delta = report.delta
    if delta == 0:
        return None
    if spec.points:
        values = [t - evaluate(raw, x) / delta for x, t in spec.points]
        lo, hi = min(values), max(values)
        if hi - lo > 2 * spec.epsilon:
            return None
        c = (hi + lo) / 2
    else:
        c = -report.min / delta
    return _Candidate(
        ratio=l1_norm(raw) / delta, weights=tuple(w / delta for w in weights), c=c
    )


# 2**61 - 1 and three primes near 10**9: any three of them push the common
# denominator, and so 4 * sum|w_int|, past 2**63
BIG_DENOMINATORS = ((1 << 61) - 1, 10**9 + 7, 10**9 + 9, 998244353)
EPSILONS = (F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(1))


class TestExactCandidate:
    """The scaled-integer check returns what the Fraction check returns."""

    def _check(self, spec, pairs, weights):
        sign_points = _sign_columns(spec.dimension, pairs, [x for x, _ in spec.points])
        candidate = _exact_candidate(spec, pairs, weights, sign_points)
        assert candidate == reference_exact_candidate(spec, pairs, weights)
        return candidate

    def _random_case(self, rng):
        dimension = rng.randint(2, 6)
        template = full_template(dimension)
        pairs = sorted(rng.sample(template, rng.randint(1, len(template))))
        big = rng.random() < 0.3
        weights = []
        for _ in pairs:
            if rng.random() < 0.2:
                weights.append(F(0))
            elif big:
                weights.append(F(rng.randint(-9, 9), rng.choice(BIG_DENOMINATORS)))
            else:
                weights.append(F(rng.randint(-9, 9), rng.randint(1, 12)))
        cube = [tuple(rng.choice((-1, 1)) for _ in range(dimension - 1)) for _ in range(6)]
        points = {(x, rng.randint(0, 1)) for x in cube[: rng.randint(0, 6)]}
        if rng.random() < 0.3 and any(weights):
            # targets at the extrema make epsilon = 0 feasible, with no slack
            raw = build_wdg(dimension, [(u, v, w) for (u, v), w in zip(pairs, weights)])
            report = extrema(raw)
            points = {(report.argmax, 1), (report.argmin, 0)}
        spec = PartialFunctionSpec(
            dimension=dimension, points=tuple(sorted(points)), epsilon=rng.choice(EPSILONS)
        )
        return spec, pairs, weights

    def test_matches_reference_on_random_candidates(self):
        rng = random.Random(5)
        outcomes = {"none": 0, "feasible": 0, "past_int64": 0}
        for _ in range(300):
            spec, pairs, weights = self._random_case(rng)
            candidate = self._check(spec, pairs, weights)
            outcomes["none" if candidate is None else "feasible"] += 1
            common = math.lcm(*(w.denominator for w in weights))
            if 4 * sum(map(abs, weights)) * common >= 1 << 63:
                outcomes["past_int64"] += 1
        assert min(outcomes.values()) >= 30, outcomes

    def test_zero_weights(self):
        spec = PartialFunctionSpec(dimension=4, points=(((1, -1, 1), 1),), epsilon=0)
        pairs = full_template(4)
        assert self._check(spec, pairs, [F(0)] * len(pairs)) is None
        weights = [F(0), F(1, 3), F(0), F(-2, 5), F(0), F(0)]
        candidate = self._check(spec, pairs, weights)
        assert candidate.weights[0] == 0 and candidate.weights[1] > 0

    def test_empty_target(self):
        spec = PartialFunctionSpec(dimension=3, points=(), epsilon=0)
        candidate = self._check(spec, full_template(3), [F(1, 2), F(-1, 3), F(1, 6)])
        assert candidate.c == F(3, 5)

    def test_contradictory_pair_at_half(self):
        # the two gaps differ by exactly the spread: the band holds with equality
        points = (((1, -1), 0), ((1, -1), 1))
        pairs = full_template(3)
        weights = [F(1, 7), F(2, 9), F(-1, 4)]
        spec = PartialFunctionSpec(dimension=3, points=points, epsilon=F(1, 2))
        assert self._check(spec, pairs, weights) is not None
        tighter = PartialFunctionSpec(dimension=3, points=points, epsilon=F(1, 2) - F(1, 10**30))
        assert self._check(tighter, pairs, weights) is None

    def test_denominators_past_int64(self):
        spec = PartialFunctionSpec(dimension=5, points=(((1, 1, -1, 1), 1),), epsilon=0)
        pairs = full_template(5)
        weights = [F(k - 5, BIG_DENOMINATORS[k % 4] * (k + 1)) for k in range(len(pairs))]
        candidate = self._check(spec, pairs, weights)
        assert sum(map(abs, candidate.weights)) == candidate.ratio
