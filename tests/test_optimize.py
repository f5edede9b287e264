import math
import random
from fractions import Fraction

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
from wdglab.optimize import _exact_candidate, _sign_columns

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
    return l1_norm(raw) / delta, tuple(w / delta for w in weights), c


def exact_check(spec, pairs, ints):
    """The optimizer's exact check of the integer weights ``ints``."""
    sign_points = _sign_columns(spec.dimension, pairs, [x for x, _ in spec.points])
    return _exact_candidate(spec, pairs, ints, sign_points)


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

    The integer snap grids, the integer polish and the repeat memo all
    rest on this: k * ints is checked as ints.
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

# (objective, c, iterations, edges as "uv:weight") per case.  A faster
# annealer must reproduce these exactly; any difference is a change of
# results per seed.
PINNED = {
    "max-d6-seed0": (
        "181775/148792", "71045/148792", 1000,
        (
            "01:-14337/148792 02:9045/148792 03:-9705/148792 04:-1209/37198 "
            "05:-12381/148792 12:-17613/148792 13:-14475/148792 14:8679/148792 "
            "15:-1191/10628 23:-7113/74396 24:8355/148792 25:7239/148792 "
            "34:-1527/37198 35:2119/10628 45:2109/37198"
        ),
    ),
    "max-d6-seed1": (
        "127/109", "60/109", 1000,
        (
            "01:-3/218 02:5/218 03:-7/218 04:-3/218 05:2/109 12:-41/218 13:-8/109 "
            "14:-15/218 15:12/109 23:6/109 24:-16/109 25:19/218 34:17/109 35:25/218 "
            "45:-7/109"
        ),
    ),
    "min-d6-seed0": (
        "148792/181775", "71045/148792", 1000,
        (
            "01:-14337/181775 02:1809/36355 03:-1941/36355 04:-4836/181775 "
            "05:-12381/181775 12:-17613/181775 13:-579/7271 14:789/16525 "
            "15:-16674/181775 23:-14226/181775 24:1671/36355 25:7239/181775 "
            "34:-6108/181775 35:29666/181775 45:8436/181775"
        ),
    ),
    "min-d6-seed1": (
        "109/127", "60/109", 1000,
        (
            "01:-3/254 02:5/254 03:-7/254 04:-3/254 05:2/127 12:-41/254 13:-8/127 "
            "14:-15/254 15:12/127 23:6/127 24:-16/127 25:19/254 34:17/127 35:25/254 "
            "45:-7/127"
        ),
    ),
    "max-d8-seed0": (
        "652253/511800", "9629/17060", 1000,
        (
            "01:271/13648 02:-787/10236 03:953/51180 04:69/1706 05:-301/5118 "
            "06:119/51180 07:-752/12795 12:1321/51180 13:-971/25590 14:-57/8530 "
            "15:362/12795 16:-1903/25590 17:-1931/17060 23:461/8530 24:2971/51180 "
            "25:2317/51180 26:261/3412 27:-1553/25590 34:1553/51180 35:-857/21325 "
            "36:449/12795 37:-814/12795 45:1373/40944 46:-1183/25590 47:1379/25590 "
            "56:-1283/25590 57:-531/17060 67:-863/25590"
        ),
    ),
    "max-d8-seed1": (
        "102575/80169", "103715/213784", 1000,
        (
            "01:-2367/53446 02:-1120/26723 03:1334/80169 04:-485/26723 "
            "05:2685/213784 06:1785/53446 07:-1356/26723 12:3479/53446 "
            "13:-1571/53446 14:-8715/213784 15:1543/26723 16:-3569/53446 "
            "17:-83/26723 23:2634/26723 24:1775/53446 25:1270/26723 26:4663/53446 "
            "27:-32/26723 34:-698/26723 35:-2145/26723 36:1765/26723 37:2351/26723 "
            "45:1440/26723 46:837/53446 47:182/26723 56:-2849/53446 57:-2297/53446 "
            "67:-2622/26723"
        ),
    ),
    "min-d8-seed0": (
        "511800/652253", "9629/17060", 1000,
        (
            "01:20325/1304506 02:-39350/652253 03:9530/652253 04:20700/652253 "
            "05:-4300/93179 06:170/93179 07:-30080/652253 12:13210/652253 "
            "13:-19420/652253 14:-3420/652253 15:14480/652253 16:-38060/652253 "
            "17:-57930/652253 23:27660/652253 24:29710/652253 25:3310/93179 "
            "26:39150/652253 27:-31060/652253 34:15530/652253 35:-20568/652253 "
            "36:17960/652253 37:-32560/652253 45:34325/1304506 46:-3380/93179 "
            "47:3940/93179 56:-25660/652253 57:-15930/652253 67:-17260/652253"
        ),
    ),
    "min-d8-seed1": (
        "80169/102575", "103715/213784", 1000,
        (
            "01:-7101/205150 02:-672/20515 03:1334/102575 04:-291/20515 "
            "05:1611/164120 06:1071/41030 07:-4068/102575 12:10437/205150 "
            "13:-4713/205150 14:-5229/164120 15:4629/102575 16:-10707/205150 "
            "17:-249/102575 23:7902/102575 24:213/8206 25:762/20515 26:13989/205150 "
            "27:-96/102575 34:-2094/102575 35:-117/1865 36:1059/20515 "
            "37:7053/102575 45:864/20515 46:2511/205150 47:546/102575 56:-777/18650 "
            "57:-6891/205150 67:-7866/102575"
        ),
    ),
    "chains-2": (
        "65/51", "113/204", 500,
        (
            "01:-1/51 02:-7/102 03:1/102 04:1/68 05:-1/102 06:-1/34 07:-1/51 "
            "12:11/204 13:-5/68 14:5/204 15:2/51 16:-5/68 17:1/34 23:3/34 24:13/204 "
            "25:5/68 26:13/204 27:5/102 34:-1/204 35:-5/102 36:11/204 37:7/102 "
            "45:1/102 46:-1/51 47:11/204 56:7/204 57:-1/12 67:-19/204"
        ),
    ),
    "empty-target": (
        "8/9", "5/8", 1000,
        (
            "01:1/18 02:1/9 03:1/18 04:-1/9 12:-1/18 13:-2/9 14:-1/9 23:-1/18 "
            "24:1/9 34:-1/9"
        ),
    ),
    "epsilon-0": (
        "87687/82162", "126139/246486", 1000,
        (
            "01:-11176/123243 02:294/41081 03:-6518/123243 04:1678/123243 "
            "05:5212/41081 12:-24314/123243 13:-11690/123243 14:6530/123243 "
            "15:-2478/41081 23:-1234/123243 24:12296/123243 25:-11660/123243 "
            "34:-4010/41081 35:-4585/246486 45:-6160/123243"
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
