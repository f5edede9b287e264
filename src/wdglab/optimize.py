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
common-denominator grids and checked exactly as integer weights (the
weights times the grid's denominator).  The score and the check read one
sign matrix per solve: one product of the integer weights with it gives
g at every cube point and every target point.  The product runs in
float64 while sum |w| < 2**53, where every partial sum is an integer
float64 holds exactly, and in Python ints past that.  The snap grids of
one candidate, and the polish factors of one weight, share one product.
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
from .oracle import _sign_table, approximation_error, delta_exact, extrema

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


def _score_columns(spec: PartialFunctionSpec, pairs) -> np.ndarray:
    """The float64 signs x_u * x_v of one solve, one contiguous row per pair.

    Row i holds template pair i's signs at every cube point, in
    lexicographic order, and then at the target points.  The annealer's
    score, the exact checks and the warm starts all read this one matrix.
    """
    targets = np.asarray([(1,) + x for x, _ in spec.points], dtype=np.int8)
    targets = targets.reshape(-1, spec.dimension).T
    signs = np.concatenate([_sign_table(spec.dimension - 1), targets], axis=1)
    u, v = np.asarray(pairs).T
    return (signs[u] * signs[v]).astype(np.float64)


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


def _exact_candidates(spec: PartialFunctionSpec, batch: list, columns: np.ndarray) -> list:
    """Exactly check each row of integer weights in ``batch`` against the
    epsilon band.

    Each entry is None when its row is degenerate or misses the epsilon
    band; otherwise the row's exact ratio, spread and optimal constant C.
    Nothing here depends on the scale of a row: k * ints, for any k >= 1,
    gives the same ratio, unit-spread weights and C.

    One product of the rows with ``columns`` (of :func:`_score_columns`)
    gives g at every cube point and every target point, reading the matrix
    once for the whole batch; every test after it is on ints.
    """
    l1s = [sum(map(abs, ints)) for ints in batch]
    # The entries of columns are +-1, so every partial sum of a row's
    # product, in any order, is an integer of magnitude at most its l1:
    # float64 holds each one exactly while l1 < 2**53.  Past that, Python ints.
    if max(l1s) < 1 << 53:
        products = np.asarray(batch, dtype=np.float64) @ columns
    else:
        products = np.asarray(batch, dtype=object) @ columns.astype(np.int8)
    size = columns.shape[1] - len(spec.points)
    cube, at_points = products[:, :size], products[:, size:].tolist()
    rows = zip(batch, l1s, cube.max(axis=1).tolist(), cube.min(axis=1).tolist(), at_points)
    return [_band_check(spec, *row) for row in rows]


def _band_check(spec: PartialFunctionSpec, ints, l1: int, best, worst, at_points):
    """The exact check of one row after its product: the row's extrema
    and its values at the target points, all integer-valued, give its
    _Candidate or None."""
    best, worst = int(best), int(worst)
    spread = best - worst
    if spread == 0:  # only all-zero weights leave g constant
        return None
    if spec.points:
        # spread * (t - g(x) / spread), with g(x) from the integer weights
        gaps = [t * spread - int(g) for (_, t), g in zip(spec.points, at_points)]
        lo, hi = min(gaps), max(gaps)
        epsilon = spec.epsilon
        if (hi - lo) * epsilon.denominator > 2 * epsilon.numerator * spread:
            return None
        c = Fraction(hi + lo, 2 * spread)
    else:
        c = Fraction(-worst, spread)
    return _Candidate(ratio=Fraction(l1, spread), ints=tuple(ints), spread=spread, c=c)


_SNAP_GRIDS = (8, 16, 64, 256, 4096, SNAP_DENOMINATOR)


def _snap_grids(weights: list) -> list:
    """Round the float weights, of sum |w| = 1, onto successively finer
    common-denominator grids D, as the integer weights round(w * D).  A
    shared denominator keeps the exact delta-normalization small: if every
    weight is a/D then the spread is m/D and the normalized weights are
    plain a/m."""
    return [
        [round(w * denominator) if abs(w) > 1e-9 else 0 for w in weights]
        for denominator in _SNAP_GRIDS
    ]


# (p, q): rescale one weight by p/q
_POLISH_FACTORS = ((2, 1), (3, 2), (5, 4), (1, 2), (2, 3), (4, 5))


def _polish(candidate: _Candidate, spec: PartialFunctionSpec, columns: np.ndarray) -> _Candidate:
    """Coordinate descent with the sign pattern frozen: rescale one weight
    at a time by fixed rational factors, keeping exact-feasible improvements.

    The factor p/q on weight i is tried as q * ints with ints[i] * p, which
    has the same direction as the rescaled weights, divided by the gcd of
    its entries so that sum |w| stays near the snap grids' size, on the
    float64 product.  The factors of one weight are checked as one batch
    and taken in order.
    """
    best = candidate
    for _ in range(2):
        improved = False
        for i in range(len(best.ints)):
            if best.ints[i] == 0:
                continue
            trials = []
            for p, q in _POLISH_FACTORS:
                trial = [q * w for w in best.ints]
                trial[i] = best.ints[i] * p
                common = gcd(*trial)
                trials.append([w // common for w in trial])
            for result in _exact_candidates(spec, trials, columns):
                if result is not None and result.ratio > best.ratio:
                    best = result
                    improved = True
                    break
        if not improved:
            break
    return best


def _warm_starts(spec: PartialFunctionSpec, columns: np.ndarray) -> list:
    """Integer starting directions: the uniform split and, when target
    points exist, weights aligned with the target signs (the sign of
    sum over points of (2t - 1) * s(e, x))."""
    starts = [[1] * len(columns)]
    if spec.points:
        signed = np.array([2 * t - 1 for _, t in spec.points], dtype=np.float64)
        correlation = columns[:, columns.shape[1] - len(signed) :] @ signed
        if np.count_nonzero(correlation):
            starts.append(np.sign(correlation).astype(int).tolist())
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
        # the normalized gap range is at most 2, so every epsilon >= 1 scores
        # alike; the clamp keeps a huge epsilon from overflowing float()
        self.band = 2.0 * float(min(spec.epsilon, 2))
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
) -> tuple:
    """One annealing chain; returns (best exact candidate or None, iterations).

    ``columns`` is the matrix of :func:`_score_columns`, built once per
    solve.  The random draws of each block of proposals are made at once.
    A proposal is accepted when its score is at least the current score
    plus T log u, for u uniform on (0, 1]: the Metropolis rule, with
    probability min(1, exp(change / T)).
    """
    rng = np.random.default_rng(seed)
    m = len(pairs)
    best_exact: Optional[_Candidate] = None

    def consider(batch: list) -> None:
        nonlocal best_exact
        for candidate in _exact_candidates(spec, batch, columns):
            if candidate is not None and (best_exact is None or candidate.ratio > best_exact.ratio):
                best_exact = candidate

    warm = _warm_starts(spec, columns)
    consider(warm)
    starts = []
    for ints in warm:
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
                consider(_snap_grids(best_float))
                last_snapped_score = best_float_score
    consider(_snap_grids(best_float))
    if best_exact is not None:
        best_exact = _polish(best_exact, spec, columns)
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
    columns = _score_columns(spec, pairs)
    best: Optional[_Candidate] = None
    best_iterations = 0
    for chain in range(chains):
        candidate, iterations = _anneal_chain(spec, pairs, budget, seed + chain, columns)
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
