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
from math import gcd, inf
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
from .oracle import _sign_table, approximation_error, delta_exact, extrema, scan_range

MAXIMIZE = "maximize_l1"
MINIMIZE = "minimize_delta"

SNAP_DENOMINATOR = 1 << 16
ENUMERATION_LIMIT = 16  # the cube sign matrix has 2^n rows; keep it desk-scale
MAX_PROPOSALS = 10_000_000  # budget x chains, 100x the default
_PENALTY = 1e2
_DRAW_BLOCK = 1024  # proposals whose random draws are made in one call each
_maximum, _minimum = np.maximum.reduce, np.minimum.reduce
_multiply, _add = np.multiply, np.add


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
    """Rows: assignments; columns: template edges; entries: x_u * x_v.

    Each column is contiguous: the array is the transpose of a pair-major one.
    """
    rows = np.asarray(assignments, dtype=np.int8).reshape(len(assignments), dimension - 1)
    ones = np.ones(len(assignments), dtype=np.int8)

    def coord(i):
        return ones if i == 0 else rows[:, i - 1]

    return np.stack([coord(u) * coord(v) for u, v in pairs]).T


def _score_columns(spec: PartialFunctionSpec, pairs) -> tuple:
    """(float64 columns, int8 sign_points) of one solve.

    Row i of ``columns`` holds template pair i's signs at every cube point,
    in lexicographic order, and then at the target points; the annealer's
    score reads only these.  ``sign_points`` holds the target points' rows
    for the exact checks.
    """
    n = spec.dimension - 1
    targets = np.asarray([x for x, _ in spec.points], dtype=np.int8).reshape(-1, n)
    signs = _sign_columns(spec.dimension, pairs, np.concatenate([_sign_table(n)[1:].T, targets]))
    return signs.T.astype(np.float64), signs[len(signs) - len(targets) :]


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
    best, worst = scan_range(spec.dimension - 1, int_edges, l1)
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


def _snap_grids(weights: list):
    """Round the float weights, of sum |w| = 1, onto successively finer
    common-denominator grids D, as the integer weights round(w * D).  A
    shared denominator keeps the exact delta-normalization small: if every
    weight is a/D then the spread is m/D and the normalized weights are
    plain a/m."""
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


class _Carried:
    """One chain's float weights w and the sums its score reads, carried
    across one-weight moves.

    ``h`` is w @ columns: g = cube . w at every cube point in its first
    ``size`` entries, then P . w at the target points; ``l1`` is sum |w|.
    Moving weight i by delta adds delta times row i of ``columns`` to h,
    one vector update where a from-scratch score multiplies the whole cube.

    The score, l1 / spread less the penalized band violation, does not
    depend on the scale of w, so no move normalizes w.  ``accept`` rescales
    w to sum |w| = 1, recomputing h and l1, when l1 leaves (1/2, 2); that
    also bounds the rounding the carried sums collect.
    """

    def __init__(self, columns: np.ndarray, spec: PartialFunctionSpec):
        self.columns = columns
        self.rows = list(columns)
        self.size = columns.shape[1] - len(spec.points)
        self.targets = [float(t) for _, t in spec.points]
        self.band = 2.0 * float(spec.epsilon)
        self.w = [0.0] * len(columns)
        self.l1 = 0.0
        self.now, self.next = self._buffer(), self._buffer()
        self.move = None

    def _buffer(self) -> tuple:
        """(h, its g view, its target-point view)."""
        h = np.empty(self.columns.shape[1])
        return h, h[: self.size], h[self.size :]

    def reset(self, weights) -> float:
        """Set w in place, recompute h and l1 from scratch, and return
        the score."""
        self.w[:] = weights
        self.l1 = sum(map(abs, self.w))
        h, g, points = self.now
        np.dot(np.asarray(self.w), self.columns, out=h)
        return self._score(g, points, self.l1, -inf)

    def weights(self) -> list:
        """w scaled to sum |w| = 1."""
        return [x / self.l1 for x in self.w]

    def trial(self, i: int, new: float, bar: float) -> Optional[float]:
        """The score of w with w[i] = new, or None when it is below ``bar``
        or every weight would be zero."""
        old = self.w[i]
        l1 = self.l1 - abs(old) + abs(new)
        if l1 < 1e-12 * self.l1:
            return None
        h, g, points = self.next
        _multiply(self.rows[i], new - old, out=h)
        _add(h, self.now[0], out=h)
        self.move = i, new, l1
        return self._score(g, points, l1, bar)

    def accept(self) -> None:
        """Make the last trial the current state."""
        i, new, l1 = self.move
        self.w[i] = new
        self.l1 = l1
        self.now, self.next = self.next, self.now
        if not 0.5 < l1 < 2.0:
            self.reset(self.weights())

    def _score(self, g, points, l1: float, bar: float) -> Optional[float]:
        spread = float(_maximum(g)) - float(_minimum(g))
        if spread <= 1e-12 * l1:
            score = -1e18
        else:
            score = l1 / spread
            # the penalty only lowers the score, so a score already below
            # the bar needs no penalty
            if score >= bar and self.targets:
                gaps = [t * spread - p for t, p in zip(self.targets, points.tolist())]
                violation = (max(gaps) - min(gaps)) / spread - self.band
                if violation > 0:
                    score -= _PENALTY * violation
        return score if score >= bar else None


def _anneal_chain(
    spec: PartialFunctionSpec,
    pairs,
    budget: int,
    seed: int,
    columns: np.ndarray,
    sign_points: np.ndarray,
) -> tuple:
    """One annealing chain; returns (best exact candidate or None, iterations).

    ``columns`` and ``sign_points`` are those of :func:`_score_columns`,
    built once per solve.  The random draws of each block of proposals
    are made at once.  A proposal is accepted when its score is at least
    the current score plus T log u, for u uniform on (0, 1]: the
    Metropolis rule, with probability min(1, exp(change / T)).
    """
    rng = np.random.default_rng(seed)
    m = len(pairs)
    check = _chain_check(spec, pairs, sign_points)
    best_exact: Optional[_Candidate] = None

    def consider(ints) -> None:
        nonlocal best_exact
        candidate = check(ints)
        if candidate is not None and (best_exact is None or candidate.ratio > best_exact.ratio):
            best_exact = candidate

    def try_snap(w: list) -> None:
        for ints in _snap_grids(w):
            consider(ints)

    starts = []
    for ints in _warm_starts(spec, pairs, sign_points):
        consider(ints)
        total = sum(map(abs, ints))
        starts.append([w / total for w in ints])
    chain = _Carried(columns, spec)
    # reset returns the score of the weights it sets
    current_score = chain.reset(max(starts, key=chain.reset))
    best_float, best_float_score = chain.weights(), current_score
    last_snapped_score = current_score
    w, trial, accept = chain.w, chain.trial, chain.accept
    step = 0.25 * max(1 / m, 0.05)  # of sum |w|

    t_start, t_end = 0.5, 1e-4
    decay, span = t_end / t_start, max(budget - 1, 1)
    check_interval = max(1, budget // 256)
    for first in range(0, budget, _DRAW_BLOCK):
        its = np.arange(first, min(first + _DRAW_BLOCK, budget))
        picks = rng.integers(m, size=len(its)).tolist()
        kinds = rng.random(len(its)).tolist()
        normals = rng.standard_normal(len(its)).tolist()
        temperatures = t_start * decay ** (its / span)
        slacks = (temperatures * np.log1p(-rng.random(len(its)))).tolist()
        for it, i, kind, z, slack in zip(its.tolist(), picks, kinds, normals, slacks):
            old = w[i]
            if kind < 0.70:
                new = old + z * step * chain.l1
            elif kind < 0.85:
                new = -old
            elif kind < 0.95:
                new = 0.0
            else:
                new = old + z * chain.l1
            score = trial(i, new, current_score + slack)
            if score is not None:
                accept()
                current_score = score
                if score > best_float_score:
                    best_float, best_float_score = chain.weights(), score
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
    columns, sign_points = _score_columns(spec, pairs)
    best: Optional[_Candidate] = None
    best_iterations = 0
    for chain in range(chains):
        candidate, iterations = _anneal_chain(
            spec, pairs, budget, seed + chain, columns, sign_points
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
