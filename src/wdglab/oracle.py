"""Brute-force ground truth over the input hypercube.

Every scan reads the graph's cached integer form ``WDG.scaled``, its
weights over their common denominator, so it runs on integers and stays
exact.  The same form holds the sums behind the bounds
``2 * vertex weight bound <= delta <= 2 * l1``.

The exact extrema scan splits the n free coordinates.  The lowest-
significance L of them form a block: one numpy vector of the graph
value at each of their 2**L points, in lexicographic order (-1 first),
for fixed values of the n - L high coordinates.  Precomputed over the
block are the edges inside {ancilla} + low, and one cross column per
high coordinate h holding its edges to the low coordinates and the
ancilla; the edges among high coordinates are one scalar.  The high
coordinates are walked in Gray-code order, so each step flips one h and
updates the block with one vector add of twice its cross column and the
scalar with O(degree) integer operations.  ``scan_cube`` (extrema) and
``support_classes`` (points where f is 1 or 0) reduce that one walk.

The vectors are int64 when 4 * sum|w| < 2**63: that bounds every value
and every doubled cross column, so nothing can overflow.  Otherwise they
hold Python ints (numpy object dtype), still exact, in narrower blocks.

Witnesses are the lexicographically smallest maximizer and minimizer
under -1 < +1.  Inside a block the high coordinates are fixed and
argmax/argmin return the first extremal index, which is the smallest low
assignment; block results merge associatively (larger value wins, ties
go to the smaller assignment), so the outcome does not depend on the
block width or on the order the blocks are visited.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

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

SCAN_TIME_LIMIT = 26  # free coordinates of an exact scan; 2**26 int64 points take 0.1 s
OUTPUT_SIZE_LIMIT = 20  # free coordinates of a cube whose support classes are listed
# log2 of the block length: int64 blocks stay cache-sized, and Python-int
# blocks are narrower because each entry is a separate heap object.
_INT64_BITS = 12
_OBJECT_BITS = 8


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


@functools.cache
def _sign_table(bits: int) -> np.ndarray:
    """Read-only int8 signs of the 2**bits low points in lexicographic order.

    Row 0 is the ancilla (all +1); row j is the j-th low coordinate, whose
    sign is bit ``bits - j`` of the point's index (clear means -1).
    """
    index = np.arange(1 << bits)
    table = np.ones((bits + 1, 1 << bits), dtype=np.int8)
    shifts = np.arange(bits - 1, -1, -1)[:, None]
    table[1:] = ((index >> shifts) & 1) * 2 - 1
    table.flags.writeable = False
    return table


def _merge(a, b):
    best_a, arg_ba, worst_a, arg_wa = a
    best_b, arg_bb, worst_b, arg_wb = b
    if best_b > best_a or (best_b == best_a and arg_bb < arg_ba):
        best_a, arg_ba = best_b, arg_bb
    if worst_b < worst_a or (worst_b == worst_a and arg_wb < arg_wa):
        worst_a, arg_wa = worst_b, arg_wb
    return best_a, arg_ba, worst_a, arg_wa


def _block_layout(l1: int):
    """(dtype, log2 block length) for a graph with scaled-integer l1 norm.

    Every block value and doubled cross column is at most 2 * l1 in
    absolute value, so int64 cannot overflow below the bound.
    """
    if 4 * l1 < 1 << 63:
        return np.int64, _INT64_BITS
    return object, _OBJECT_BITS


def _walk(n: int, int_edges, l1: int):
    """Yield (high, block, offset) at each Gray step over the high coordinates.

    ``high`` holds the n - L high signs; the graph values at the 2**L low
    points, in lexicographic order, are ``block + offset``.  ``block`` is
    updated in place by the next step.  Arguments as for :func:`scan_cube`.
    """
    dtype, bits = _block_layout(l1)
    low = min(n, bits)
    high = n - low
    # Block row r is the ancilla (r = 0) or the low coordinate high + r;
    # the high coordinates 1..high start at -1.
    inner = np.zeros((low + 1, low + 1), dtype=dtype)
    cross = np.zeros((high, low + 1), dtype=dtype)
    high_adj = [[] for _ in range(high)]
    high_sum = 0
    for u, v, w in int_edges:  # u < v
        if u == 0 or u > high:
            r = u - high if u else 0
            if v > high:
                inner[r, v - high] = w
            else:
                cross[v - 1, r] = w
        elif v > high:
            cross[u - 1, v - high] = w
        else:
            high_adj[u - 1].append((v - 1, w))
            high_adj[v - 1].append((u - 1, w))
            high_sum += w
    signs = _sign_table(low).astype(dtype)
    cur = (signs * (inner @ signs)).sum(axis=0)
    columns = cross @ signs
    cur -= columns.sum(axis=0)
    columns *= 2
    y = [-1] * high
    yield tuple(y), cur, high_sum
    for step in range(1, 1 << high):
        h = (step & -step).bit_length() - 1
        s = 0
        for k, w in high_adj[h]:
            s += w * y[k]
        if y[h] < 0:
            cur += columns[h]
            high_sum += 2 * s
        else:
            cur -= columns[h]
            high_sum -= 2 * s
        y[h] = -y[h]
        yield tuple(y), cur, high_sum


def _points(n: int, high: tuple, indices) -> list:
    """The assignments at the given block indices for the given high signs."""
    low_signs = _sign_table(n - len(high))[1:, indices]
    return [high + tuple(column) for column in low_signs.T.tolist()]


def scan_cube(n: int, int_edges, l1: int):
    """Exact extrema of a scaled-integer graph value over the n-cube.

    ``int_edges`` are (u, v, w) with 0 <= u < v <= n, no vertex pair
    twice and int weights (zeros allowed); ``l1`` is the sum of |w|.
    Returns (max, argmax, min, argmin): the values as ints and the
    witnesses as the lexicographically smallest assignments.
    """
    merged = None
    for high, block, offset in _walk(n, int_edges, l1):
        i, j = int(block.argmax()), int(block.argmin())
        result = int(block[i]) + offset, (high, i), int(block[j]) + offset, (high, j)
        merged = result if merged is None else _merge(merged, result)
    best, (hi_best, i), worst, (hi_worst, j) = merged
    return best, _points(n, hi_best, [i])[0], worst, _points(n, hi_worst, [j])[0]


def vertex_weight_bound(wdg: WDG) -> Fraction:
    """Largest total |weight| incident to any single vertex.

    Twice this value is a guaranteed lower bound on delta: flipping the
    heaviest vertex alone swings g by that much.
    """
    return Fraction(wdg.scaled.vertex_bound, wdg.scaled.denom)


def extrema(wdg: WDG) -> ExtremaReport:
    """Exact max/min of g over the cube, or bounds-only beyond the scan limit.

    Witnesses are canonical: the lexicographically smallest maximizer
    and minimizer under the ordering -1 < +1.
    """
    lower = 2 * vertex_weight_bound(wdg)
    upper = 2 * l1_norm(wdg)
    if wdg.num_variables > SCAN_TIME_LIMIT:
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
    denom, int_edges, l1, _ = wdg.scaled
    best, arg_best, worst, arg_worst = scan_cube(wdg.num_variables, int_edges, l1)
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


def all_assignments(num_variables: int) -> Iterator[Assignment]:
    """All +-1 tuples in lexicographic order (-1 before +1)."""
    return iter(itertools.product((-1, 1), repeat=num_variables))


def support_classes(
    wdg: WDG, domain: Optional[Iterable[Assignment]] = None
) -> SupportClasses:
    """Partition inputs by exact f-value 1 / 0; other values are excluded.

    Without ``domain`` the cube scan finds g = (1 - K) * D and g = -K * D on
    the scaled integers; a target that is not an integer, or is past the
    scaled l1 norm that bounds |g|, is skipped.  A ``domain`` is evaluated
    point by point in Fraction arithmetic.
    """
    plus, minus = [], []
    if domain is None:
        n = wdg.num_variables
        if n > OUTPUT_SIZE_LIMIT:
            raise LimitExceededError(
                f"{n} free coordinates exceed the limit {OUTPUT_SIZE_LIMIT}; "
                f"pass an explicit domain"
            )
        denom, int_edges, l1, _ = wdg.scaled
        targets = [((1 - wdg.shift) * denom, plus), (-wdg.shift * denom, minus)]
        targets = [(int(t), found) for t, found in targets if t.denominator == 1 and abs(t) <= l1]
        for high, block, offset in _walk(n, int_edges, l1):
            for target, found in targets:
                found += _points(n, high, np.flatnonzero(block == target - offset))
    else:
        for x in domain:
            x = check_assignment(x, wdg.dimension)
            f = evaluate(wdg, x) + wdg.shift
            if f == 1:
                plus.append(x)
            elif f == 0:
                minus.append(x)
    return SupportClasses(s_plus=frozenset(plus), s_minus=frozenset(minus))


def _exact_extrema(wdg: WDG) -> ExtremaReport:
    """The exact extrema report; raises where extrema gives bounds only."""
    report = extrema(wdg)
    if not report.exact:
        raise LimitExceededError(
            f"{wdg.num_variables} free coordinates exceed the limit {SCAN_TIME_LIMIT}"
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
