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
small-denominator rationals and checked exactly on its weights scaled
to their common denominator: one integer cube scan gives the spread,
and integer dot products give the graph value at the target points.
The returned result is re-verified independently in Fraction
arithmetic through the oracle's ``extrema`` and ``evaluate``.  A result
is only ever returned with its constraints holding exactly in rational
arithmetic, so no acceptance anywhere depends on float tolerances.
Results are deterministic per (spec, template, budget, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    scale_to_integers,
)
from .errors import (
    DegenerateGraphError,
    EmptyTemplateError,
    InfeasibleError,
    LimitExceededError,
)
from .oracle import _sign_table, approximation_error, delta_exact, extrema, scan_cube

MAXIMIZE = "maximize_l1"
MINIMIZE = "minimize_delta"

SNAP_DENOMINATOR = 1 << 16
ENUMERATION_LIMIT = 16  # the cube sign matrix has 2^n rows; keep it desk-scale
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
    weights: tuple  # one Fraction per template pair, scaled to unit spread
    c: Fraction


def _exact_candidate(
    spec: PartialFunctionSpec, pairs, weights, sign_points: np.ndarray
) -> Optional[_Candidate]:
    """Exactly rescale weights to unit spread and check the epsilon band.

    Returns None when the candidate is degenerate or misses the epsilon
    band; otherwise the unit-spread weights, the exact ratio and the
    optimal constant C.  Nothing here depends on the scale of ``weights``.

    The weights are scaled to integers by their common denominator D,
    so one cube scan gives D * spread and the rows of ``sign_points``
    give D * g at the target points; every test below is on integers.
    """
    _, ints = scale_to_integers(weights)
    l1 = sum(map(abs, ints))
    int_edges = [(u, v, w) for (u, v), w in zip(pairs, ints)]
    best, _, worst, _ = scan_cube(spec.dimension - 1, int_edges, l1)
    spread = best - worst
    if spread == 0:  # only all-zero weights leave g constant
        return None
    if spec.points:
        # spread * (t - g(x) / delta) for the true spread delta = spread / D
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
    return _Candidate(
        ratio=Fraction(l1, spread), weights=tuple(Fraction(w, spread) for w in ints), c=c
    )


_SNAP_GRIDS = (8, 16, 64, 256, 4096, SNAP_DENOMINATOR)


def _snap_grids(weights: np.ndarray):
    """Round the float weights onto successively finer common-denominator
    grids.  A shared denominator keeps the exact delta-normalization
    small: if every weight is a/D then the spread is m/D and the
    normalized weights are plain a/m."""
    for denominator in _SNAP_GRIDS:
        yield [
            Fraction(round(float(w) * denominator), denominator) if abs(w) > 1e-9 else Fraction(0)
            for w in weights
        ]


_POLISH_FACTORS = (
    Fraction(2),
    Fraction(3, 2),
    Fraction(5, 4),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(4, 5),
)


def _polish(
    spec: PartialFunctionSpec, pairs, candidate: _Candidate, sign_points: np.ndarray
) -> _Candidate:
    """Coordinate descent with the sign pattern frozen: rescale one weight
    at a time by fixed rational factors, keeping exact-feasible improvements."""
    best = candidate
    for _ in range(2):
        improved = False
        for i in range(len(pairs)):
            if best.weights[i] == 0:
                continue
            for factor in _POLISH_FACTORS:
                trial = list(best.weights)
                trial[i] *= factor
                result = _exact_candidate(spec, pairs, trial, sign_points)
                if result is not None and result.ratio > best.ratio:
                    best = result
                    improved = True
                    break
        if not improved:
            break
    return best


def _warm_starts(spec: PartialFunctionSpec, pairs, sign_points) -> list:
    """Exact starting weight vectors: the uniform split and, when target
    points exist, weights aligned with the target signs (the sign of
    sum over points of (2t - 1) * s(e, x))."""
    m = len(pairs)
    starts = [[Fraction(1, m)] * m]
    if spec.points:
        signed = np.array([2 * t - 1 for _, t in spec.points], dtype=np.int64)
        correlation = sign_points.astype(np.int64).T @ signed
        support = int(np.count_nonzero(correlation))
        if support:
            starts.append(
                [Fraction(int(np.sign(c)), support) for c in correlation]
            )
    return starts


def _anneal_chain(
    spec: PartialFunctionSpec,
    pairs,
    budget: int,
    seed: int,
    sign_cube: np.ndarray,
    sign_points: np.ndarray,
) -> tuple:
    """One annealing chain; returns (best exact candidate or None, iterations).

    ``sign_cube`` and ``sign_points`` are the sign columns of the whole
    cube and of the target points, built once per solve.
    """
    rng = np.random.default_rng(seed)
    targets = np.array([t for _, t in spec.points], dtype=np.float64)
    eps = float(spec.epsilon)

    def score(w: np.ndarray) -> float:
        g = sign_cube @ w
        spread = g.max() - g.min()
        if spread < 1e-12:
            return -1e18
        objective = np.abs(w).sum() / spread
        if len(targets):
            v = targets - (sign_points @ w) / spread
            violation = max(0.0, (v.max() - v.min()) - 2.0 * eps)
        else:
            violation = 0.0
        return objective - _PENALTY * violation

    best_exact: Optional[_Candidate] = None

    def consider(weights) -> None:
        nonlocal best_exact
        candidate = _exact_candidate(spec, pairs, weights, sign_points)
        if candidate is not None and (best_exact is None or candidate.ratio > best_exact.ratio):
            best_exact = candidate

    def try_snap(w: np.ndarray) -> None:
        for grid in _snap_grids(w):
            consider(grid)

    exact_starts = _warm_starts(spec, pairs, sign_points)
    starts = []
    for exact in exact_starts:
        consider(exact)
        starts.append(np.array([float(x) for x in exact]))
    current = max(starts, key=score).copy()
    current_score = score(current)
    best_float = current.copy()
    best_float_score = current_score
    last_snapped_score = current_score

    t_start, t_end = 0.5, 1e-4
    check_interval = max(1, budget // 256)
    iterations = 0
    for it in range(budget):
        iterations = it + 1
        temperature = t_start * (t_end / t_start) ** (it / max(budget - 1, 1))
        proposal = current.copy()
        i = int(rng.integers(len(pairs)))
        kind = rng.random()
        if kind < 0.70:
            step = 0.25 * max(float(np.abs(current).mean()), 0.05)
            proposal[i] += rng.normal(0.0, step)
        elif kind < 0.85:
            proposal[i] = -proposal[i]
        elif kind < 0.95:
            proposal[i] = 0.0
        else:
            proposal[i] += rng.normal(0.0, 1.0)
        total = np.abs(proposal).sum()
        if total < 1e-12:
            continue
        proposal /= total
        proposal_score = score(proposal)
        if proposal_score >= current_score or rng.random() < np.exp(
            (proposal_score - current_score) / temperature
        ):
            current, current_score = proposal, proposal_score
            if current_score > best_float_score:
                best_float, best_float_score = current.copy(), current_score
        if (it + 1) % check_interval == 0 and best_float_score > last_snapped_score + 1e-12:
            try_snap(best_float)
            last_snapped_score = best_float_score
    try_snap(best_float)
    if best_exact is not None:
        best_exact = _polish(spec, pairs, best_exact, sign_points)
    return best_exact, iterations


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
    pairs = _canonical_template(template, spec.dimension)
    _check_provably_feasible(spec)
    # the whole cube, one assignment per row, in lexicographic order
    sign_cube = _sign_columns(spec.dimension, pairs, _sign_table(n)[1:].T)
    sign_points = _sign_columns(spec.dimension, pairs, [x for x, _ in spec.points])
    best: Optional[_Candidate] = None
    best_iterations = 0
    for chain in range(max(1, chains)):
        candidate, iterations = _anneal_chain(
            spec, pairs, budget, seed + chain, sign_cube, sign_points
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
