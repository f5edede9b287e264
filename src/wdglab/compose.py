"""AND / OR Kronecker compositions of weighted dynamical graphs.

Given graphs computing f = g + K and f' = g' + K', both constructions
build a graph over the product vertex set (row-major index map, the
composite ancilla at (0,0) -> 0) whose value on product inputs
x'' = x (x) x' satisfies, exactly:

    AND:  g''(x'') = f(x) * f'(x') - K*K'            (shift K'' = K*K')
    OR:   g''(x'') = f + f' - f*f' - (K + K' - K*K') (shift K'' = K + K' - K*K')

so f'' = g'' + K'' is the product (AND) or the inclusion-exclusion sum
(OR) of the factor functions on product inputs.  Both constructions
have closed-form L1 norms that the build cross-checks exactly:

    AND:  (L + |K|) * (L' + |K'|) - |K*K'|
    OR:   |1-K'| * L + |1-K| * L' + L * L'

The closed forms are exact, not just bounds: the three contribution
roles (left edge x right diagonal, left diagonal x right edge, edge x
edge) land on disjoint composite index patterns, so no cancellation can
occur.

The build relies on that disjointness: it writes each role's edges
straight into one edge list, with coefficients

    role                   AND          OR
    edge x edge            1/2          -1/2
    left edge x diagonal   K'/m         (1-K')/m
    diagonal x right edge  K/n          (1-K)/n

for factor dimensions n and m, instead of summing dense Kronecker
matrices.  The weights are built as integers over one common
denominator, keyed by composite vertex pair, and that keyed builder
guards the argument: it raises DuplicateEdgeError if two contributions
ever land on one vertex pair.  ``build_wdg`` is not run on the result;
the builder drops zero weights and orders the edges itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    WDG,
    Assignment,
    Edge,
    RationalLike,
    as_rational,
    l1_norm,
    scale_to_integers,
    scaled_edges,
)
from .errors import DuplicateEdgeError, SizeBudgetExceededError, WdgError, clip

AND = "and"
OR = "or"

DEFAULT_ENTRY_BUDGET = 1 << 20  # max associated-matrix entries of one composite
MAX_COUNT = 12  # longest entry count an error message prints in full


@dataclass(frozen=True)
class ComposedResult:
    """A composed graph plus its predicted (and verified) L1 norm."""

    wdg: WDG
    shift: Fraction
    predicted_l1: Fraction
    mode: str


def _check_mode(mode: str) -> str:
    if mode not in (AND, OR):
        raise WdgError(f"mode must be '{AND}' or '{OR}', got {mode!r}")
    return mode


def predicted_l1(
    mode: str,
    l1_a: RationalLike,
    k_a: RationalLike,
    l1_b: RationalLike,
    k_b: RationalLike,
) -> Fraction:
    """Closed-form L1 norm of the composition, from factor norms and shifts."""
    la, ka = as_rational(l1_a), as_rational(k_a)
    lb, kb = as_rational(l1_b), as_rational(k_b)
    if _check_mode(mode) == AND:
        return (la + abs(ka)) * (lb + abs(kb)) - abs(ka * kb)
    return abs(1 - kb) * la + abs(1 - ka) * lb + la * lb


def _build(
    mode: str,
    d1: WDG,
    d2: WDG,
    pair: Fraction,
    left: Fraction,
    right: Fraction,
    shift: Fraction,
) -> ComposedResult:
    """The composite graph from its three contribution roles.

    With composite index (i, j) -> i * m + j, a left edge (u, v, w) and a
    right edge (p, q, w') put ``pair * w * w'`` on {(u,p), (v,q)} and on
    {(u,q), (v,p)}; a left edge puts ``left * w`` on {(u,j), (v,j)} for
    every j; a right edge puts ``right * w'`` on {(i,p), (i,q)} for every i.

    Everything runs on integers: the factor weights are a / D1 and b / D2,
    the roles become int multipliers P, L and R over one denominator D,
    and the composite weights are P*a*b, L*a and R*b over D.  The weight
    of composite pair (x, y) is stored under the key x * n*m + y; factor
    edges have u < v, so every composite pair has x < y.
    """
    n, m = d1.dimension, d2.dimension
    size = n * m
    den1, ints1 = scaled_edges(d1)
    den2, ints2 = scaled_edges(d2)
    den, (pair_int, left_int, right_int) = scale_to_integers(
        (pair / (den1 * den2), left / den1, right / den2)
    )
    # a zero role multiplier or factor weight contributes only zero weights,
    # which are dropped as build_wdg drops them
    ints1 = [e for e in ints1 if e[2]]
    ints2 = [e for e in ints2 if e[2]]

    def runs():
        """(keys, weights) for each run of writes; ``weights`` is a list."""
        keys_pq = [p * size + q for p, q, _ in ints2]
        keys_qp = [q * size + p for p, q, _ in ints2]
        weights2 = [b for _, _, b in ints2]
        step = size + 1  # key of (x + j, y + j) minus key of (x, y), per j
        for u, v, a in ints1:
            base = (u * size + v) * m  # key of (u * m, v * m)
            pair_weights = [pair_int * a * b for b in weights2]
            yield map(base.__add__, keys_pq), pair_weights
            yield map(base.__add__, keys_qp), pair_weights
            if left_int:
                yield range(base, base + m * step, step), [left_int * a] * m
        if right_int:
            for (_, _, b), key in zip(ints2, keys_pq):
                yield range(key, key + n * m * step, m * step), [right_int * b] * n

    weights = {}
    writes = 0
    for keys, values in runs():
        weights.update(zip(keys, values))
        writes += len(values)
    if len(weights) != writes:
        seen = set()
        for keys, _ in runs():
            for key in keys:
                if key in seen:
                    raise DuplicateEdgeError(f"duplicate edge {divmod(key, size)}")
                seen.add(key)
    expected = predicted_l1(
        mode,
        Fraction(sum(abs(a) for _, _, a in ints1), den1),
        d1.shift,
        Fraction(sum(abs(b) for _, _, b in ints2), den2),
        d2.shift,
    )
    actual = Fraction(sum(map(abs, weights.values())), den)
    if actual != expected:
        raise WdgError(
            f"composed L1 {actual} does not match the closed form {expected}"
        )
    rationals = {w: Fraction(w, den) for w in set(weights.values())}
    edges = tuple(
        Edge(*divmod(key, size), rationals[weights[key]]) for key in sorted(weights)
    )
    wdg = WDG(dimension=size, edges=edges, shift=shift)
    return ComposedResult(wdg=wdg, shift=shift, predicted_l1=expected, mode=mode)


def compose_and(d1: WDG, d2: WDG) -> ComposedResult:
    """Product composition: f''(x (x) x') = f(x) * f'(x')."""
    k1, k2 = d1.shift, d2.shift
    return _build(
        AND, d1, d2, Fraction(1, 2), k2 / d2.dimension, k1 / d1.dimension, k1 * k2
    )


def compose_or(d1: WDG, d2: WDG) -> ComposedResult:
    """Inclusion-exclusion composition: f'' = f + f' - f * f' on product inputs."""
    k1, k2 = d1.shift, d2.shift
    return _build(
        OR,
        d1,
        d2,
        Fraction(-1, 2),
        (1 - k2) / d2.dimension,
        (1 - k1) / d1.dimension,
        k1 + k2 - k1 * k2,
    )


def compose(
    mode: str, d1: WDG, d2: WDG, entry_budget: int = DEFAULT_ENTRY_BUDGET
) -> ComposedResult:
    """The AND or OR composition of two graphs.

    Raises SizeBudgetExceededError, before building anything, when the
    composite's associated matrix would exceed ``entry_budget`` entries.
    """
    _check_mode(mode)
    size = (d1.dimension * d2.dimension) ** 2
    if size > entry_budget:
        raise SizeBudgetExceededError(
            f"composed matrix would have {clip(str(size), MAX_COUNT)} entries "
            f"(budget {clip(str(entry_budget), MAX_COUNT)})"
        )
    return compose_and(d1, d2) if mode == AND else compose_or(d1, d2)


def product_assignment(a: Assignment, b: Assignment) -> Assignment:
    """The composite assignment for the Kronecker product of two inputs.

    Prepends the implicit ancilla +1 to each factor, takes the Kronecker
    product of the full vectors, and drops the composite ancilla again.
    """
    full_a = (1,) + tuple(a)
    full_b = (1,) + tuple(b)
    return tuple(x * y for x in full_a for y in full_b)[1:]


def iterate_compose(
    base: WDG,
    depth: int,
    mode: str,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> list:
    """Stages D_1 = base, D_{i+1} = compose(D_i, base), up to ``depth``.

    Raises SizeBudgetExceededError before building any stage whose
    associated matrix would exceed ``entry_budget`` entries.  A one-vertex
    base never grows, so the budget cannot bound its depth; it gets the
    depth a two-vertex base reaches, whose stage i has 4**i entries.
    """
    _check_mode(mode)
    if depth < 1:
        raise WdgError(f"depth must be >= 1, got {depth}")
    if base.dimension == 1:
        # floor(log4(budget)), and depth 1 composes nothing
        reach = max(1, (max(entry_budget, 1).bit_length() - 1) // 2)
        if depth > reach:
            raise SizeBudgetExceededError(
                f"depth {clip(str(depth), MAX_COUNT)} of a one-vertex base exceeds {reach}, "
                f"the depth a two-vertex base reaches in budget {clip(str(entry_budget), MAX_COUNT)}"
            )
    stages = [
        ComposedResult(wdg=base, shift=base.shift, predicted_l1=l1_norm(base), mode=mode)
    ]
    for _ in range(1, depth):
        stages.append(compose(mode, stages[-1].wdg, base, entry_budget))
    return stages
