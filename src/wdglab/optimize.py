"""Heuristic solvers for the two norm-optimization problems.

Both problems search for edge weights w and a constant C so that the
shifted, spread-normalized graph value matches a partial 0/1 target
within a tolerance:

* maximize_l1: maximize sum |w| subject to max g - min g = 1 and
  |g(x) - t(x) + C| <= epsilon on the target points;
* minimize_delta: minimize max g - min g subject to sum |w| = 1 and
  |g(x)/(max g - min g) - t(x) + C| <= epsilon.

The two are the same problem up to rescaling the weights, so the search
ranks every candidate by the one scale-free ratio sum|w| / (max g - min g)
and normalizes once at the end: the unit-spread weights with objective =
ratio (maximize_l1), or those divided by the ratio, with objective =
1/ratio (minimize_delta).  Both forms rank candidates alike, because the
exact check is scale-invariant and a < b exactly when 1/a > 1/b for a, b > 0.

Search runs in floating point; every candidate is snapped to
common-denominator grids and checked exactly as an integer direction
(the weights times the grid's denominator): one integer cube scan gives
the spread, and integer dot products give the graph value at the target
points.  The check is scale-free, so each chain checks a direction, its
weights divided by their gcd, at most once.
The returned result is re-verified independently in Fraction
arithmetic through the oracle's ``extrema`` and ``evaluate``.  A result
is only ever returned with its constraints holding exactly in rational
arithmetic, so no acceptance anywhere depends on float tolerances.
Results are deterministic per (spec, template, budget, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .core import (
    WDG,
    as_rational,
    build_wdg,
    check_assignment,
    evaluate,
    l1_norm,
)
from .errors import (
    DegenerateGraphError,
    EmptyTemplateError,
    InfeasibleError,
    LimitExceededError,
    SizeBudgetExceededError,
    clip,
)
from .oracle import _sign_table, approximation_error, delta_exact, extrema, scan_cube

MAXIMIZE = "maximize_l1"
MINIMIZE = "minimize_delta"

SNAP_DENOMINATOR = 1 << 16
ENUMERATION_LIMIT = 16  # the cube sign matrix has 2^n rows; keep it desk-scale
MAX_PROPOSALS = 10_000_000  # budget x chains, 100x the default
_PENALTY = 1e4


@dataclass(frozen=True)
class PartialFunctionSpec:
    """A partial 0/1 target on the cube plus the match tolerance.

    ``dimension`` is the graph vertex count, so assignments have length
    ``dimension - 1``.  The same assignment may appear with both targets
    (the solver then proves infeasibility for epsilon < 1/2); exact
    duplicate pairs are rejected.
    """

    dimension: int
    points: tuple  # of (assignment, target in {0, 1})
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_rational(self.epsilon))
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        seen = set()
        canonical = []
        for x, target in self.points:
            x = check_assignment(x, self.dimension)
            if target not in (0, 1):
                raise ValueError(f"targets must be 0 or 1, got {target!r}")
            if (x, target) in seen:
                raise ValueError(f"duplicate target point {x} -> {target}")
            seen.add((x, target))
            canonical.append((x, target))
        object.__setattr__(self, "points", tuple(canonical))


@dataclass(frozen=True)
class OptimizationResult:
    wdg: WDG
    c: Fraction
    objective: Fraction
    feasible: bool
    iterations: int
    verified: bool
    spec: PartialFunctionSpec


def full_template(dimension: int) -> tuple:
    """Every vertex pair (u, v) with u < v, degree-1 slots included."""
    return tuple((u, v) for u in range(dimension) for v in range(u + 1, dimension))


def _canonical_template(template, dimension: int) -> tuple:
    if template is None:
        template = full_template(dimension)
    pairs = []
    for u, v in template:
        if u > v:
            u, v = v, u
        pairs.append((u, v))
    # validate indices / self-loops / duplicates through the graph builder
    build_wdg(dimension, [(u, v, 1) for u, v in pairs])
    if not pairs:
        raise EmptyTemplateError("the edge template is empty")
    return tuple(sorted(pairs))


def uniform_heuristic(template: Sequence, dimension: int) -> WDG:
    """Equal positive weights on every template edge, normalized to sum 1.

    Spreading weight evenly keeps the per-vertex totals small, which is
    what makes the spread small relative to the weight sum.
    """
    pairs = _canonical_template(template, dimension)
    weight = Fraction(1, len(pairs))
    return build_wdg(dimension, [(u, v, weight) for u, v in pairs])


def _check_provably_feasible(spec: PartialFunctionSpec) -> None:
    by_assignment = {}
    for x, target in spec.points:
        by_assignment.setdefault(x, set()).add(target)
    for x, targets in by_assignment.items():
        if len(targets) > 1 and 1 > 2 * spec.epsilon:
            raise InfeasibleError(
                f"point {x} is required to hit both 0 and 1 with epsilon "
                f"{spec.epsilon} < 1/2: infeasible for every weight choice"
            )


def _sign_columns(dimension: int, pairs, assignments) -> np.ndarray:
    """Rows: assignments; columns: template edges; entries: x_u * x_v."""
    rows = np.asarray(assignments, dtype=np.int8).reshape(len(assignments), dimension - 1)
    ones = np.ones(len(assignments), dtype=np.int8)

    def coord(i):
        return ones if i == 0 else rows[:, i - 1]

    return np.stack([coord(u) * coord(v) for u, v in pairs], axis=1)


@dataclass
class _Candidate:
    ratio: Fraction  # sum |w| / spread, the same at every scale
    ints: tuple  # the integer weights checked, one per template pair
    spread: int  # max g - min g for the weights ``ints``
    c: Fraction

    @property
    def weights(self) -> tuple:
        """One Fraction per template pair, scaled to unit spread."""
        return tuple(Fraction(w, self.spread) for w in self.ints)


def _exact_candidate(
    spec: PartialFunctionSpec, pairs, ints, sign_points: np.ndarray
) -> Optional[_Candidate]:
    """Exactly check the integer weights ``ints`` against the epsilon band.

    Returns None when the candidate is degenerate or misses the epsilon
    band; otherwise the exact ratio, the spread and the optimal constant
    C.  Nothing here depends on the scale of ``ints``: k * ints, for any
    k >= 1, gives the same ratio, unit-spread weights and C.

    One cube scan gives the spread, and the rows of ``sign_points`` give
    g at the target points; every test below is on integers.
    """
    l1 = sum(map(abs, ints))
    int_edges = [(u, v, w) for (u, v), w in zip(pairs, ints)]
    best, _, worst, _ = scan_cube(spec.dimension - 1, int_edges, l1)
    spread = best - worst
    if spread == 0:  # only all-zero weights leave g constant
        return None
    if spec.points:
        # spread * (t - g(x) / spread), with g(x) from the integer weights
        gaps = [
            t * spread - sum(map(mul, row, ints))
            for (_, t), row in zip(spec.points, sign_points.tolist())
        ]
        lo, hi = min(gaps), max(gaps)
        epsilon = spec.epsilon
        if (hi - lo) * epsilon.denominator > 2 * epsilon.numerator * spread:
            return None
        c = Fraction(hi + lo, 2 * spread)
    else:
        c = Fraction(-worst, spread)
    return _Candidate(ratio=Fraction(l1, spread), ints=tuple(ints), spread=spread, c=c)


def _chain_check(spec: PartialFunctionSpec, pairs, sign_points: np.ndarray):
    """The exact check of one chain, skipping directions it has checked.

    A direction is integer weights divided by their gcd.  A repeated
    direction has the ratio it had when first checked, which did not beat
    the chain's best then; the best only increases, so the repeat cannot
    beat it now, and the check returns None without a scan.
    """
    seen = set()

    def check(ints) -> Optional[_Candidate]:
        divisor = gcd(*ints)
        if divisor == 0:  # all zero: g is constant
            return None
        direction = tuple(w // divisor for w in ints)
        if direction in seen:
            return None
        seen.add(direction)
        return _exact_candidate(spec, pairs, direction, sign_points)

    return check


_SNAP_GRIDS = (8, 16, 64, 256, 4096, SNAP_DENOMINATOR)


def _snap_grids(weights: np.ndarray):
    """Round the float weights onto successively finer common-denominator
    grids D, as the integer weights round(w * D).  A shared denominator
    keeps the exact delta-normalization small: if every weight is a/D
    then the spread is m/D and the normalized weights are plain a/m."""
    weights = weights.tolist()
    for denominator in _SNAP_GRIDS:
        yield [round(w * denominator) if abs(w) > 1e-9 else 0 for w in weights]


# (p, q): rescale one weight by p/q
_POLISH_FACTORS = ((2, 1), (3, 2), (5, 4), (1, 2), (2, 3), (4, 5))


def _polish(candidate: _Candidate, check) -> _Candidate:
    """Coordinate descent with the sign pattern frozen: rescale one weight
    at a time by fixed rational factors, keeping exact-feasible improvements.

    The factor p/q on weight i is tried as q * ints with ints[i] * p, which
    has the same direction as the rescaled weights.
    """
    best = candidate
    for _ in range(2):
        improved = False
        for i in range(len(best.ints)):
            if best.ints[i] == 0:
                continue
            for p, q in _POLISH_FACTORS:
                trial = [q * w for w in best.ints]
                trial[i] = best.ints[i] * p
                result = check(trial)
                if result is not None and result.ratio > best.ratio:
                    best = result
                    improved = True
                    break
        if not improved:
            break
    return best


def _warm_starts(spec: PartialFunctionSpec, pairs, sign_points) -> list:
    """Integer starting directions: the uniform split and, when target
    points exist, weights aligned with the target signs (the sign of
    sum over points of (2t - 1) * s(e, x))."""
    starts = [[1] * len(pairs)]
    if spec.points:
        signed = np.array([2 * t - 1 for _, t in spec.points], dtype=np.int64)
        correlation = sign_points.astype(np.int64).T @ signed
        if np.count_nonzero(correlation):
            starts.append(np.sign(correlation).tolist())
    return starts


def _anneal_chain(
    spec: PartialFunctionSpec,
    pairs,
    budget: int,
    seed: int,
    cube: np.ndarray,
    sign_points: np.ndarray,
) -> tuple:
    """One annealing chain; returns (best exact candidate or None, iterations).

    ``cube`` holds the sign columns of the whole cube as float64, for the
    score only, and ``sign_points`` the int8 sign columns of the target
    points; both are built once per solve.
    """
    rng = np.random.default_rng(seed)
    integers, uniform, normal = rng.integers, rng.random, rng.normal
    maximum, minimum, add = np.maximum.reduce, np.minimum.reduce, np.add.reduce
    m = len(pairs)
    targets = np.array([t for _, t in spec.points], dtype=np.float64)
    points = sign_points.astype(np.float64)
    band = 2.0 * float(spec.epsilon)

    def score(w: np.ndarray) -> tuple:
        """(penalized objective, sum |w|) of the float weights w."""
        l1 = float(add(np.abs(w)))
        g = cube @ w
        spread = float(maximum(g)) - float(minimum(g))
        if spread < 1e-12:
            return -1e18, l1
        objective = l1 / spread
        if len(targets):
            v = targets - (points @ w) / spread
            violation = max(0.0, (float(maximum(v)) - float(minimum(v))) - band)
        else:
            violation = 0.0
        return objective - _PENALTY * violation, l1

    check = _chain_check(spec, pairs, sign_points)
    best_exact: Optional[_Candidate] = None

    def consider(ints) -> None:
        nonlocal best_exact
        candidate = check(ints)
        if candidate is not None and (best_exact is None or candidate.ratio > best_exact.ratio):
            best_exact = candidate

    def try_snap(w: np.ndarray) -> None:
        for ints in _snap_grids(w):
            consider(ints)

    starts = []
    for ints in _warm_starts(spec, pairs, sign_points):
        consider(ints)
        starts.append(np.array(ints) / sum(map(abs, ints)))
    current = max(starts, key=lambda w: score(w)[0]).copy()
    current_score, current_l1 = score(current)
    step = 0.25 * max(current_l1 / m, 0.05)
    best_float = current.copy()
    best_float_score = current_score
    last_snapped_score = current_score

    t_start, t_end = 0.5, 1e-4
    decay, span = t_end / t_start, max(budget - 1, 1)
    check_interval = max(1, budget // 256)
    for it in range(budget):
        temperature = t_start * decay ** (it / span)
        proposal = current.copy()
        i = integers(m)
        kind = uniform()
        if kind < 0.70:
            proposal[i] += normal(0.0, step)
        elif kind < 0.85:
            proposal[i] = -proposal[i]
        elif kind < 0.95:
            proposal[i] = 0.0
        else:
            proposal[i] += normal(0.0, 1.0)
        total = add(np.abs(proposal))
        if total < 1e-12:
            continue
        proposal /= total
        proposal_score, proposal_l1 = score(proposal)
        if proposal_score >= current_score or uniform() < np.exp(
            (proposal_score - current_score) / temperature
        ):
            current, current_score = proposal, proposal_score
            step = 0.25 * max(proposal_l1 / m, 0.05)
            if current_score > best_float_score:
                best_float, best_float_score = current.copy(), current_score
        if (it + 1) % check_interval == 0 and best_float_score > last_snapped_score + 1e-12:
            try_snap(best_float)
            last_snapped_score = best_float_score
    try_snap(best_float)
    if best_exact is not None:
        best_exact = _polish(best_exact, check)
    return best_exact, max(budget, 0)


def _oracle_verified(wdg: WDG, spec: PartialFunctionSpec, c: Fraction, mode: str) -> bool:
    """Independent exact re-check of the normalization and epsilon constraints."""
    report = extrema(wdg)
    if mode == MAXIMIZE:
        if report.delta != 1:
            return False
        return approximation_error(wdg, spec, c) <= spec.epsilon
    if l1_norm(wdg) != 1:
        return False
    if report.delta == 0:
        return not spec.points
    for x, target in spec.points:
        if abs(evaluate(wdg, x) / report.delta - target + c) > spec.epsilon:
            return False
    return True


def _solve(
    spec: PartialFunctionSpec,
    template,
    budget: int,
    seed: int,
    mode: str,
    chains: int,
) -> OptimizationResult:
    n = spec.dimension - 1
    if n > ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"{n} free coordinates exceed the optimizer's search limit {ENUMERATION_LIMIT}"
        )
    chains = max(1, chains)
    if budget * chains > MAX_PROPOSALS:
        raise SizeBudgetExceededError(
            f"budget {clip(str(budget), 40)} x chains {clip(str(chains), 40)} exceeds "
            f"the optimizer's limit of {MAX_PROPOSALS} proposals"
        )
    pairs = _canonical_template(template, spec.dimension)
    _check_provably_feasible(spec)
    # the whole cube, one assignment per row, in lexicographic order; float64
    # because only the annealer's score reads it
    cube = _sign_columns(spec.dimension, pairs, _sign_table(n)[1:].T).astype(np.float64)
    sign_points = _sign_columns(spec.dimension, pairs, [x for x, _ in spec.points])
    best: Optional[_Candidate] = None
    best_iterations = 0
    for chain in range(chains):
        candidate, iterations = _anneal_chain(
            spec, pairs, budget, seed + chain, cube, sign_points
        )
        if candidate is not None and (best is None or candidate.ratio > best.ratio):
            best = candidate
            best_iterations = iterations
    if best is None:
        raise InfeasibleError(
            f"no feasible solution found within {budget} iterations; "
            f"this does not prove the problem infeasible"
        )
    if mode == MAXIMIZE:
        weights, objective = best.weights, best.ratio
    else:
        weights, objective = [w / best.ratio for w in best.weights], 1 / best.ratio
    wdg = build_wdg(
        spec.dimension, [(u, v, w) for (u, v), w in zip(pairs, weights)], shift=best.c
    )
    verified = _oracle_verified(wdg, spec, best.c, mode)
    return OptimizationResult(
        wdg=wdg,
        c=best.c,
        objective=objective,
        feasible=True,
        iterations=best_iterations,
        verified=verified,
        spec=spec,
    )


def maximize_l1(
    spec: PartialFunctionSpec,
    template=None,
    budget: int = 100_000,
    seed: int = 0,
    chains: int = 1,
) -> OptimizationResult:
    """Best-found weight sum subject to unit spread and the epsilon band."""
    return _solve(spec, template, budget, seed, MAXIMIZE, chains)


def minimize_delta(
    spec: PartialFunctionSpec,
    template=None,
    budget: int = 100_000,
    seed: int = 0,
    chains: int = 1,
) -> OptimizationResult:
    """Best-found spread subject to unit weight sum and the epsilon band."""
    return _solve(spec, template, budget, seed, MINIMIZE, chains)


def min_to_max(result: OptimizationResult) -> OptimizationResult:
    """Turn a minimize_delta solution into a maximize_l1 solution exactly.

    Dividing the weights by the achieved spread makes the new spread 1
    and the new weight sum 1/spread; the constant C carries over
    unchanged because the epsilon constraint only sees g divided by the
    spread.  Raises LimitExceededError beyond the oracle's exact limit.
    """
    delta = delta_exact(result.wdg)
    if delta == 0:
        raise DegenerateGraphError("delta is zero; cannot rescale to unit spread")
    wdg = build_wdg(
        result.wdg.dimension,
        [(e.u, e.v, e.weight / delta) for e in result.wdg.edges],
        shift=result.c,
    )
    return OptimizationResult(
        wdg=wdg,
        c=result.c,
        objective=l1_norm(wdg),
        feasible=True,
        iterations=result.iterations,
        verified=_oracle_verified(wdg, result.spec, result.c, MAXIMIZE),
        spec=result.spec,
    )
