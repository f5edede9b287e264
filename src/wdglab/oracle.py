"""Brute-force ground truth over the input hypercube.

Enumeration walks the cube in Gray-code order so each step flips a
single coordinate and updates the graph value in O(degree) integer
operations: all weights are pre-scaled by their common denominator, so
the whole scan runs on Python ints and stays exact.

The scan may be partitioned into blocks that fix the highest-index
coordinates; block results merge associatively (larger value wins,
ties resolved toward the lexicographically smallest assignment under
-1 < +1), so the outcome is independent of the partitioning.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional

from .core import (
    WDG,
    Assignment,
    RationalLike,
    as_rational,
    build_wdg,
    check_assignment,
    evaluate,
    l1_norm,
    l1_norm_with_shift,
)
from .errors import DegenerateGraphError, LimitExceededError

DEFAULT_ENUMERATION_LIMIT = 26  # max free coordinates for an exhaustive scan


@dataclass(frozen=True)
class ExtremaReport:
    """Exact extrema of g over the cube, or bounds when the cube is too big.

    When ``exact`` is true, ``delta == max - min`` and the witnesses are
    the lexicographically smallest maximizer/minimizer.  The bounds hold
    unconditionally: ``lower_bound <= delta <= upper_bound``, where
    ``lower_bound`` is twice :func:`vertex_weight_bound` and
    ``upper_bound`` is twice the l1 norm.
    """

    exact: bool
    max: Optional[Fraction]
    argmax: Optional[Assignment]
    min: Optional[Fraction]
    argmin: Optional[Assignment]
    delta: Optional[Fraction]
    lower_bound: Fraction
    upper_bound: Fraction


@dataclass(frozen=True)
class SupportClasses:
    """Inputs where f is exactly 1 (s_plus) and exactly 0 (s_minus)."""

    s_plus: frozenset
    s_minus: frozenset


def _int_edges(wdg: WDG):
    """Scale all weights to a common denominator; returns (denom, int edge list)."""
    if not wdg.edges:
        return 1, []
    denom = lcm(*(e.weight.denominator for e in wdg.edges))
    return denom, [(e.u, e.v, int(e.weight * denom)) for e in wdg.edges]


def _adjacency(dimension: int, int_edges) -> list:
    adj = [[] for _ in range(dimension)]
    for u, v, w in int_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _scan_block(adj, x, nlow):
    """Gray-code scan over coordinates 1..nlow with the rest of x held fixed.

    ``x`` is the full coordinate list (ancilla at 0) and is mutated in
    place.  Returns (max, argmax, min, argmin) with g values as scaled ints.
    """
    g = 0
    for u, pairs in enumerate(adj):
        for v, w in pairs:
            if u < v:
                g += w * x[u] * x[v]
    best = worst = g
    arg_best = arg_worst = tuple(x[1:])
    for i in range(1, 1 << nlow):
        v = (i & -i).bit_length()  # Gray code flips coordinate trailing_zeros(i)+1
        s = 0
        for u, w in adj[v]:
            s += w * x[u]
        g -= 2 * s * x[v]
        x[v] = -x[v]
        if g > best:
            best, arg_best = g, tuple(x[1:])
        elif g == best:
            a = tuple(x[1:])
            if a < arg_best:
                arg_best = a
        if g < worst:
            worst, arg_worst = g, tuple(x[1:])
        elif g == worst:
            a = tuple(x[1:])
            if a < arg_worst:
                arg_worst = a
    return best, arg_best, worst, arg_worst


def _merge(a, b):
    best_a, arg_ba, worst_a, arg_wa = a
    best_b, arg_bb, worst_b, arg_wb = b
    if best_b > best_a or (best_b == best_a and arg_bb < arg_ba):
        best_a, arg_ba = best_b, arg_bb
    if worst_b < worst_a or (worst_b == worst_a and arg_wb < arg_wa):
        worst_a, arg_wa = worst_b, arg_wb
    return best_a, arg_ba, worst_a, arg_wa


def _scan_cube(wdg: WDG, block_bits: int = 0):
    """Exact integer extrema scan; returns (denom, max, argmax, min, argmin)."""
    n = wdg.num_variables
    denom, int_edges = _int_edges(wdg)
    adj = _adjacency(wdg.dimension, int_edges)
    block_bits = min(block_bits, n)
    nlow = n - block_bits
    merged = None
    for block in range(1 << block_bits):
        x = [1] * wdg.dimension
        for j in range(block_bits):
            if (block >> j) & 1:
                x[nlow + 1 + j] = -1
        result = _scan_block(adj, x, nlow)
        merged = result if merged is None else _merge(merged, result)
    best, arg_best, worst, arg_worst = merged
    return denom, best, arg_best, worst, arg_worst


def vertex_weight_bound(wdg: WDG) -> Fraction:
    """Largest total |weight| incident to any single vertex.

    Twice this value is a guaranteed lower bound on delta: flipping the
    heaviest vertex alone swings g by that much.
    """
    incidence = defaultdict(Fraction)
    for e in wdg.edges:
        incidence[e.u] += abs(e.weight)
        incidence[e.v] += abs(e.weight)
    return max(incidence.values(), default=Fraction(0))


def extrema(
    wdg: WDG,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    block_bits: int = 0,
) -> ExtremaReport:
    """Exact max/min of g over the cube, or bounds-only beyond ``limit``.

    Witnesses are canonical: the lexicographically smallest maximizer
    and minimizer under the ordering -1 < +1.
    """
    eps = vertex_weight_bound(wdg)
    lower = 2 * eps
    upper = 2 * l1_norm(wdg)
    if wdg.num_variables > limit:
        return ExtremaReport(
            exact=False,
            max=None,
            argmax=None,
            min=None,
            argmin=None,
            delta=None,
            lower_bound=lower,
            upper_bound=upper,
        )
    denom, best, arg_best, worst, arg_worst = _scan_cube(wdg, block_bits)
    gmax = Fraction(best, denom)
    gmin = Fraction(worst, denom)
    return ExtremaReport(
        exact=True,
        max=gmax,
        argmax=arg_best,
        min=gmin,
        argmin=arg_worst,
        delta=gmax - gmin,
        lower_bound=lower,
        upper_bound=upper,
    )


def iter_values(wdg: WDG) -> Iterator[tuple]:
    """Yield (assignment, g) for every cube point in Gray-code order."""
    n = wdg.num_variables
    denom, int_edges = _int_edges(wdg)
    adj = _adjacency(wdg.dimension, int_edges)
    x = [1] * wdg.dimension
    g = sum(w for _, _, w in int_edges)
    yield tuple(x[1:]), Fraction(g, denom)
    for i in range(1, 1 << n):
        v = (i & -i).bit_length()
        s = 0
        for u, w in adj[v]:
            s += w * x[u]
        g -= 2 * s * x[v]
        x[v] = -x[v]
        yield tuple(x[1:]), Fraction(g, denom)


def all_assignments(num_variables: int) -> Iterator[Assignment]:
    """All +-1 tuples in lexicographic order (-1 before +1)."""
    return iter(itertools.product((-1, 1), repeat=num_variables))


def support_classes(
    wdg: WDG,
    domain: Optional[Iterable[Assignment]] = None,
    limit: int = 20,
) -> SupportClasses:
    """Partition inputs by exact f-value 1 / 0; other values are excluded."""
    if domain is None:
        if wdg.num_variables > limit:
            raise LimitExceededError(
                f"{wdg.num_variables} free coordinates exceed the limit {limit}; "
                f"pass an explicit domain"
            )
        points = iter_values(wdg)
    else:
        points = (
            (check_assignment(x, wdg.dimension), evaluate(wdg, x)) for x in domain
        )
    plus, minus = [], []
    one_minus_shift = 1 - wdg.shift
    minus_shift = -wdg.shift
    for x, g in points:
        if g == one_minus_shift:
            plus.append(x)
        elif g == minus_shift:
            minus.append(x)
    return SupportClasses(s_plus=frozenset(plus), s_minus=frozenset(minus))


def _exact_extrema(wdg: WDG) -> ExtremaReport:
    """The exact extrema report; raises where extrema gives bounds only."""
    report = extrema(wdg)
    if not report.exact:
        raise LimitExceededError(
            f"{wdg.num_variables} free coordinates exceed the limit "
            f"{DEFAULT_ENUMERATION_LIMIT}"
        )
    return report


def range_check(wdg: WDG) -> bool:
    """True iff 0 <= f(x) <= 1 on the whole cube."""
    report = _exact_extrema(wdg)
    return report.min + wdg.shift >= 0 and report.max + wdg.shift <= 1


def normalize_range(wdg: WDG) -> WDG:
    """Rescale weights by 1/delta and re-shift so f spans exactly [0, 1]."""
    report = _exact_extrema(wdg)
    if report.delta == 0:
        raise DegenerateGraphError("delta is zero; the graph value is constant")
    delta = report.delta
    edges = [(e.u, e.v, e.weight / delta) for e in wdg.edges]
    return build_wdg(wdg.dimension, edges, shift=-report.min / delta)


def approximation_error(wdg: WDG, target, c: RationalLike) -> Fraction:
    """max over the target's points of |g(x) - value + C|; 0 for no points.

    ``target`` is anything with a ``points`` attribute of (assignment,
    value) pairs -- a PartialFunctionSpec works -- or such an iterable
    directly.
    """
    c = as_rational(c)
    points = getattr(target, "points", target)
    worst = Fraction(0)
    for x, value in points:
        err = abs(evaluate(wdg, x) - as_rational(value) + c)
        if err > worst:
            worst = err
    return worst


def advantage_indicator(wdg: WDG) -> Fraction:
    """(l1 norm + |shift|) squared: the classical-cost scale of f.

    Purely diagnostic -- a large value is necessary, never sufficient,
    for the function to be hard classically.
    """
    return l1_norm_with_shift(wdg) ** 2


def delta_exact(wdg: WDG) -> Fraction:
    """Convenience: the exact max-minus-min of g (raises beyond the limit)."""
    return _exact_extrema(wdg).delta
