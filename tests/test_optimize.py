import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wdglab import optimize
from wdglab.core import scale_to_integers
from wdglab.errors import SizeBudgetExceededError
from wdglab.optimize import _Carried, _exact_candidates, _score_columns

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

    def test_huge_finite_epsilon(self):
        # float(10**400) overflows; every epsilon >= 1 accepts any weights
        points = (((1, -1, 1), 0), ((1, -1, 1), 1))
        spec = PartialFunctionSpec(dimension=4, points=points, epsilon=F(10) ** 400)
        result = maximize_l1(spec, budget=300, seed=0)
        assert result.verified and result.spec.epsilon == F(10) ** 400

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
    return l1_norm(raw) / delta, tuple(w / delta for w in weights), c


def exact_check(spec, pairs, ints):
    """The optimizer's exact check of the integer weights ``ints``."""
    return _exact_candidates(spec, [ints], _score_columns(spec, pairs))[0]


def checked_values(candidate):
    """(ratio, unit-spread weights, C) of a checked candidate, or None."""
    return None if candidate is None else (candidate.ratio, candidate.weights, candidate.c)


# 2**61 - 1 and three primes near 10**9: any three of them push the common
# denominator, and so 4 * sum|w_int|, past 2**63
BIG_DENOMINATORS = ((1 << 61) - 1, 10**9 + 7, 10**9 + 9, 998244353)
EPSILONS = (F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(1))


class TestExactCandidate:
    """The scaled-integer check returns what the Fraction check returns."""

    def _check(self, spec, pairs, weights):
        candidate = exact_check(spec, pairs, scale_to_integers(weights)[1])
        assert checked_values(candidate) == reference_exact_candidate(spec, pairs, weights)
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
        outcomes = {"none": 0, "feasible": 0, "past_float64": 0, "past_int64": 0}
        for _ in range(300):
            spec, pairs, weights = self._random_case(rng)
            candidate = self._check(spec, pairs, weights)
            outcomes["none" if candidate is None else "feasible"] += 1
            common = math.lcm(*(w.denominator for w in weights))
            if sum(map(abs, weights)) * common >= 1 << 53:
                outcomes["past_float64"] += 1
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

    @pytest.mark.parametrize("l1", [(1 << 53) - 1, 1 << 53, (1 << 53) + 1])
    def test_at_the_float64_bound(self, l1):
        # g(1, 1) = l1 is the maximum; 2**53 + 1 is the first integer that
        # float64 rounds, so a float product at that l1 would miss it
        spec = PartialFunctionSpec(dimension=3, points=(((1, 1), 1), ((-1, -1), 0)), epsilon=0)
        weights = [F((1 << 52) + 1), F(l1 - (1 << 52) - 2), F(1)]
        candidate = self._check(spec, full_template(3), weights)
        assert candidate.ratio == F(l1, 2 * l1 - 2)

    def test_denominators_past_int64(self):
        spec = PartialFunctionSpec(dimension=5, points=(((1, 1, -1, 1), 1),), epsilon=0)
        pairs = full_template(5)
        weights = [F(k - 5, BIG_DENOMINATORS[k % 4] * (k + 1)) for k in range(len(pairs))]
        candidate = self._check(spec, pairs, weights)
        assert sum(map(abs, candidate.weights)) == candidate.ratio


@st.composite
def scaled_check_case(draw):
    """(spec, pairs, integer weights) with zeros, signs and entries past 2**63."""
    dimension = draw(st.integers(2, 6))
    template = full_template(dimension)
    pairs = sorted(draw(st.lists(st.sampled_from(template), min_size=1, unique=True)))
    small = st.one_of(st.just(0), st.sampled_from((-1, 1)), st.integers(-50, 50))
    # past 2**63 the cube scan runs on Python ints
    wide = st.builds(lambda high, low: (high << 64) + low, st.integers(-50, 50), small)
    entry = draw(st.sampled_from((wide, small)))
    ints = draw(st.lists(entry, min_size=len(pairs), max_size=len(pairs)))
    assignment = st.tuples(*[st.sampled_from((-1, 1))] * (dimension - 1))
    points = draw(st.sets(st.tuples(assignment, st.sampled_from((0, 1))), max_size=4))
    epsilon = draw(st.sampled_from(EPSILONS))
    spec = PartialFunctionSpec(dimension=dimension, points=tuple(sorted(points)), epsilon=epsilon)
    return spec, pairs, ints


class TestScaleInvariance:
    """The exact check sees only the direction of its integer weights.

    The integer snap grids and the integer polish both rest on this:
    k * ints is checked as ints.
    """

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=scaled_check_case(), k=st.integers(1, 10**6))
    def test_multiple_checks_as_direction(self, case, k):
        spec, pairs, ints = case
        scaled = exact_check(spec, pairs, [k * w for w in ints])
        assert checked_values(scaled) == checked_values(exact_check(spec, pairs, ints))


class TestProposalLimit:
    """budget x chains is refused past MAX_PROPOSALS before any chain runs."""

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        calls = []

        def finds_nothing(*args):
            calls.append(args)
            return None, 0

        monkeypatch.setattr(optimize, "_anneal_chain", finds_nothing)
        return calls

    def test_at_the_limit(self, six_vertex_target, chain_calls):
        with pytest.raises(InfeasibleError):  # the stubbed chains find nothing
            maximize_l1(six_vertex_target, budget=optimize.MAX_PROPOSALS // 2, chains=2)
        assert len(chain_calls) == 2

    @pytest.mark.parametrize(
        "budget, chains",
        [(optimize.MAX_PROPOSALS // 2 + 1, 2), (optimize.MAX_PROPOSALS + 1, 1)],
    )
    def test_past_the_limit(self, six_vertex_target, chain_calls, budget, chains):
        with pytest.raises(SizeBudgetExceededError):
            maximize_l1(six_vertex_target, budget=budget, chains=chains)
        assert chain_calls == []


def reference_score(spec, pairs, weights):
    """(score, g, P . w) of float weights from scratch: one product with the
    whole cube's signs, after normalizing to sum |w| = 1."""
    n = spec.dimension - 1

    def signs(x):
        x = (1,) + tuple(x)
        return [x[u] * x[v] for u, v in pairs]

    cube = np.array([signs(x) for x in itertools.product((-1, 1), repeat=n)], dtype=float)
    at_points = np.array([signs(x) for x, _ in spec.points], dtype=float).reshape(-1, len(pairs))
    l1 = sum(map(abs, weights))
    w = np.array(weights) / l1
    g, pw = cube @ w, at_points @ w
    spread = g.max() - g.min()
    score = 1 / spread
    if spec.points:
        v = np.array([t for _, t in spec.points]) - pw / spread
        score -= optimize._PENALTY * max(0.0, v.max() - v.min() - 2 * float(spec.epsilon))
    return score, g * l1, pw * l1


@st.composite
def annealer_moves(draw):
    """(spec, pairs, start weights, moves): a move sets one weight to the
    value the annealer's moves give it (a step, a sign flip or zero)."""
    dimension = draw(st.integers(2, 6))
    template = full_template(dimension)
    pairs = sorted(draw(st.lists(st.sampled_from(template), min_size=1, unique=True)))
    weight = st.floats(-1, 1, allow_subnormal=False)
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    assignment = st.tuples(*[st.sampled_from((-1, 1))] * (dimension - 1))
    points = draw(st.sets(st.tuples(assignment, st.sampled_from((0, 1))), max_size=6))
    spec = PartialFunctionSpec(
        dimension=dimension, points=tuple(sorted(points)), epsilon=draw(st.sampled_from(EPSILONS))
    )
    # steps of up to 0.3 at sum |w| = 1 leave most moves inside the
    # range where the chain keeps its carried sums
    step = st.floats(-0.3, 0.3, allow_subnormal=False)
    move = st.tuples(st.integers(0, len(pairs) - 1), st.sampled_from(("step", "flip", "zero")), step)
    return spec, pairs, weights, draw(st.lists(move, min_size=1, max_size=60))


class TestCarriedScore:
    """The annealer's one-column updates track the from-scratch score."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=annealer_moves())
    def test_matches_scratch_after_moves(self, case):
        spec, pairs, weights, moves = case
        if not any(weights):
            weights[0] = 1.0
        chain = _Carried(_score_columns(spec, pairs), spec)
        chain.reset([w / sum(map(abs, weights)) for w in weights])
        for i, kind, value in moves:
            old = chain.w[i]
            new = {"step": old + value, "flip": -old, "zero": 0.0}[kind]
            trial = chain.trial(i, new, -math.inf)
            if trial is None:  # every weight would be (nearly) zero
                rest = sum(abs(w) for j, w in enumerate(chain.w) if j != i) + abs(new)
                assert rest < 1e-12 * chain.l1
                continue
            chain.accept()
            assert 0.5 < chain.l1 < 2
            expected, g, pw = reference_score(spec, pairs, chain.w)
            assert trial == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert chain.l1 == pytest.approx(sum(map(abs, chain.w)), rel=1e-9)
            h = chain.now[0]
            assert np.allclose(h[: len(g)], g, rtol=0, atol=1e-9 * chain.l1)
            assert np.allclose(h[len(g) :], pw, rtol=0, atol=1e-9 * chain.l1)


# Planted targets, epsilon 1/10 and budget 20 000, that the annealer once
# missed: the third target of perfbench's planted_target(random.Random(8), d)
# drawn over OPTIMIZE_SHAPES (seed 62, one chain), and the maximize_l1 d = 6
# commands of optimize_cycle(random.Random(212), ·) and of optimize-targets
# seed 230, cycle 0 and seed 253, cycle 6.
MISSED_RANDOM8 = (
    ("---++", 1), ("++--+", 0), ("-+---", 0), ("++-++", 1),
    ("+-+--", 1), ("-++--", 1), ("-+--+", 0), ("+-+-+", 0),
)
MISSED_RANDOM212 = (
    ("--+++", 0), ("-----", 1), ("+-++-", 1), ("++++-", 1),
    ("----+", 0), ("-+-++", 0), ("--++-", 0), ("+----", 1),
)
MISSED_SEED230 = (
    ("+---+", 1), ("--++-", 0), ("+----", 0), ("-++--", 1),
    ("+-+++", 1), ("++---", 0), ("-----", 0), ("-+-+-", 1),
)
MISSED_SEED253 = (
    ("+----", 1), ("-+-+-", 0), ("-+++-", 0), ("+++++", 0),
    ("++--+", 1), ("+-+-+", 1), ("--+--", 1), ("-+---", 0),
)
MISSED_CASES = {
    "random8-max-seed62": (maximize_l1, MISSED_RANDOM8, 62),
    "random8-min-seed62": (minimize_delta, MISSED_RANDOM8, 62),
    "generator-random212": (maximize_l1, MISSED_RANDOM212, 33682),
    "generator-230-0": (maximize_l1, MISSED_SEED230, 35817),
    "generator-253-6": (maximize_l1, MISSED_SEED253, 2563),
}


class TestPlantedTargets:
    """Each target is feasible at epsilon = 0 by construction."""

    @pytest.mark.parametrize("name", sorted(MISSED_CASES))
    def test_solved_and_verified(self, name):
        solver, points, seed = MISSED_CASES[name]
        result = solver(_target(6, points), budget=20_000, seed=seed)
        assert result.feasible and result.verified


# Targets from perfbench's planted_target(random.Random(0), d), epsilon 1/10.
PINNED_D6 = (
    ("++++-", 0), ("+----", 1), ("+++--", 0), ("-++++", 1),
    ("-++-+", 1), ("---++", 0), ("----+", 0), ("+--+-", 1),
)
PINNED_D8 = (
    ("-+++-++", 1), ("-+-----", 0), ("+--++--", 1), ("+---+--", 1),
    ("-+-+---", 0), ("+-+-+++", 0), ("+-+++++", 0), ("--+--+-", 1),
)


def _target(dimension, points, epsilon=F(1, 10)):
    points = tuple((tuple(1 if s == "+" else -1 for s in x), t) for x, t in points)
    return PartialFunctionSpec(dimension=dimension, points=points, epsilon=epsilon)


PINNED_CASES = {
    "max-d6-seed0": (maximize_l1, _target(6, PINNED_D6), dict(budget=1000, seed=0)),
    "max-d6-seed1": (maximize_l1, _target(6, PINNED_D6), dict(budget=1000, seed=1)),
    "min-d6-seed0": (minimize_delta, _target(6, PINNED_D6), dict(budget=1000, seed=0)),
    "min-d6-seed1": (minimize_delta, _target(6, PINNED_D6), dict(budget=1000, seed=1)),
    "max-d8-seed0": (maximize_l1, _target(8, PINNED_D8), dict(budget=1000, seed=0)),
    "max-d8-seed1": (maximize_l1, _target(8, PINNED_D8), dict(budget=1000, seed=1)),
    "min-d8-seed0": (minimize_delta, _target(8, PINNED_D8), dict(budget=1000, seed=0)),
    "min-d8-seed1": (minimize_delta, _target(8, PINNED_D8), dict(budget=1000, seed=1)),
    "chains-2": (maximize_l1, _target(8, PINNED_D8), dict(budget=500, seed=0, chains=2)),
    "empty-target": (minimize_delta, _target(5, (), 0), dict(budget=1000, seed=1)),
    "epsilon-0": (
        maximize_l1,
        _target(6, (("-++-+", 1), ("--++-", 0)), 0),
        dict(budget=1000, seed=2),
    ),
    "star-template": (
        minimize_delta,
        _target(7, (), 0),
        dict(budget=500, seed=0, template=[(0, j) for j in range(1, 7)]),
    ),
}

# (objective, c, iterations, edges as "uv:weight") per case, recorded from
# the annealer with the carried, scale-free score.  A change that keeps
# results per seed reproduces these exactly; a change of results per seed
# re-records them and says why.
PINNED = {
    "max-d6-seed0": (
        "128/115", "141/230", 1000,
        (
            "01:-4/115 02:1/23 03:-11/230 04:-1/46 05:-11/230 12:-24/115 13:-1/5 "
            "14:-1/46 15:4/115 23:-13/230 24:3/230 25:41/230 34:-9/230 35:-29/230 "
            "45:-9/230"
        ),
    ),
    "max-d6-seed1": (
        "354415/351638", "122131/351638", 1000,
        (
            "01:11859/175819 02:-12318/175819 03:15306/175819 04:9435/351638 "
            "05:8877/175819 12:-8868/175819 13:-11469/175819 14:-5679/175819 "
            "15:-1383/25117 23:14592/175819 24:-4806/175819 25:18474/175819 "
            "34:4395/175819 35:40688/175819 45:-5478/175819"
        ),
    ),
    "min-d6-seed0": (
        "115/128", "141/230", 1000,
        (
            "01:-1/32 02:5/128 03:-11/256 04:-5/256 05:-11/256 12:-3/16 13:-23/128 "
            "14:-5/256 15:1/32 23:-13/256 24:3/256 25:41/256 34:-9/256 35:-29/256 "
            "45:-9/256"
        ),
    ),
    "min-d6-seed1": (
        "351638/354415", "122131/351638", 1000,
        (
            "01:23718/354415 02:-24636/354415 03:30612/354415 04:1887/70883 "
            "05:17754/354415 12:-17736/354415 13:-22938/354415 14:-11358/354415 "
            "15:-19362/354415 23:29184/354415 24:-9612/354415 25:36948/354415 "
            "34:1758/70883 35:81376/354415 45:-10956/354415"
        ),
    ),
    "max-d8-seed0": (
        "10308/8171", "4048/8171", 1000,
        (
            "01:-290/8171 02:-865/16342 03:605/16342 04:755/16342 05:175/16342 "
            "06:-945/16342 07:-200/8171 12:965/16342 13:-1105/16342 14:20/8171 "
            "15:765/16342 16:315/16342 17:-45/8171 23:1295/16342 24:885/16342 "
            "25:970/8171 26:420/8171 27:355/8171 34:245/16342 35:-1155/16342 "
            "36:540/8171 37:1095/16342 45:180/8171 46:120/8171 47:-125/8171 "
            "56:-880/8171 57:-208/8171 67:-370/8171"
        ),
    ),
    "max-d8-seed1": (
        "2513/1930", "1007/1930", 1000,
        (
            "01:-8/193 02:-11/193 03:-4/193 04:3/193 05:-4/193 06:7/193 07:-4/193 "
            "12:-9/193 13:9/193 14:-7/193 15:-9/193 16:-25/193 17:-32/965 23:19/193 "
            "24:4/193 25:5/193 26:13/193 27:13/193 34:-4/193 35:-88/965 36:44/965 "
            "37:7/193 45:7/193 46:-3/193 47:9/193 56:-10/193 57:15/386 67:-17/193"
        ),
    ),
    "min-d8-seed0": (
        "8171/10308", "4048/8171", 1000,
        (
            "01:-145/5154 02:-865/20616 03:605/20616 04:755/20616 05:175/20616 "
            "06:-315/6872 07:-50/2577 12:965/20616 13:-1105/20616 14:5/2577 "
            "15:255/6872 16:105/6872 17:-15/3436 23:1295/20616 24:295/6872 "
            "25:485/5154 26:35/859 27:355/10308 34:245/20616 35:-385/6872 36:45/859 "
            "37:365/6872 45:15/859 46:10/859 47:-125/10308 56:-220/2577 57:-52/2577 "
            "67:-185/5154"
        ),
    ),
    "min-d8-seed1": (
        "1930/2513", "1007/1930", 1000,
        (
            "01:-80/2513 02:-110/2513 03:-40/2513 04:30/2513 05:-40/2513 06:10/359 "
            "07:-40/2513 12:-90/2513 13:90/2513 14:-10/359 15:-90/2513 16:-250/2513 "
            "17:-64/2513 23:190/2513 24:40/2513 25:50/2513 26:130/2513 27:130/2513 "
            "34:-40/2513 35:-176/2513 36:88/2513 37:10/359 45:10/359 46:-30/2513 "
            "47:90/2513 56:-100/2513 57:75/2513 67:-170/2513"
        ),
    ),
    "chains-2": (
        "9049/7722", "80347/157014", 500,
        (
            "01:-700/26169 02:-680/18117 03:2560/78507 04:200/6039 05:1550/78507 "
            "06:25/2379 07:-4025/78507 12:-1490/26169 13:-480/8723 14:40/26169 "
            "15:1360/78507 16:-4580/78507 17:-2480/26169 23:980/26169 24:1280/26169 "
            "25:6575/78507 26:200/26169 27:1984/78507 34:1000/78507 35:-1940/26169 "
            "36:490/26169 37:-8240/78507 45:75/1342 46:-2825/78507 47:940/26169 "
            "56:-1280/26169 57:-80/2013 67:280/6039"
        ),
    ),
    "empty-target": (
        "24/25", "127/216", 1000,
        (
            "01:8/75 02:-8/75 03:2/45 04:-1/15 12:32/225 13:-16/225 14:8/225 23:-4/45 "
            "24:32/225 34:44/225"
        ),
    ),
    "epsilon-0": (
        "16419/17962", "11341/17962", 1000,
        (
            "01:516/8981 02:466/8981 03:250/8981 04:155/17962 05:424/8981 "
            "12:-1644/8981 13:-180/8981 14:1728/8981 15:132/8981 23:-348/8981 "
            "24:1062/8981 25:-314/8981 34:-460/8981 35:326/8981 45:-282/8981"
        ),
    ),
    "star-template": (
        "2", "1/2", 500,
        (
            "01:1/6 02:1/6 03:1/6 04:1/6 05:1/6 06:1/6"
        ),
    ),
}


class TestPinnedResults:
    @pytest.mark.parametrize("name", sorted(PINNED_CASES))
    def test_result(self, name):
        solver, spec, kwargs = PINNED_CASES[name]
        result = solver(spec, **kwargs)
        objective, c, iterations, edges = PINNED[name]
        assert (result.objective, result.c, result.iterations) == (F(objective), F(c), iterations)
        expected = [(int(e[0]), int(e[1]), F(e[3:])) for e in edges.split()]
        assert [(e.u, e.v, e.weight) for e in result.wdg.edges] == expected
        assert result.verified
