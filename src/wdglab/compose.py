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
)
from .errors import DuplicateEdgeError, SizeBudgetExceededError, WdgError, clip

AND = "and"
OR = "or"

VERTEX_LIMIT = 1024  # most vertices of one composite: 2**20 matrix entries
MAX_DEPTH = 10  # the depth a two-vertex base reaches: 2**10 == VERTEX_LIMIT
MAX_COUNT = 12  # longest document value an error message prints in full


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

    Everything runs on integers: the factor weights are a / D1 and b / D2
    in the factors' cached ``scaled`` forms, the roles become int
    multipliers P, L and R over one denominator D, and the composite
    weights are P*a*b, L*a and R*b over D.  The weight of composite pair
    (x, y) is stored under the key x * n*m + y; factor edges have u < v,
    so every composite pair has x < y.
    """
    n, m = d1.dimension, d2.dimension
    size = n * m
    den1, ints1, _, _ = d1.scaled
    den2, ints2, _, _ = d2.scaled
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
    expected = predicted_l1(mode, l1_norm(d1), d1.shift, l1_norm(d2), d2.shift)
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


def _count(value: int) -> str:
    return clip(str(value), MAX_COUNT)


def compose(mode: str, d1: WDG, d2: WDG) -> ComposedResult:
    """The AND or OR composition of two graphs.

    Raises SizeBudgetExceededError, before building anything, when the
    composite would have more than VERTEX_LIMIT vertices.
    """
    _check_mode(mode)
    n, m = d1.dimension, d2.dimension
    if n * m > VERTEX_LIMIT:
        raise SizeBudgetExceededError(
            f"composite of {_count(n)} x {_count(m)} vertices exceeds {VERTEX_LIMIT}"
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


def iterate_compose(base: WDG, depth: int, mode: str) -> list:
    """Stages D_1 = base, D_{i+1} = compose(D_i, base), up to ``depth``.

    Raises SizeBudgetExceededError, before building any stage, when
    ``depth`` exceeds MAX_DEPTH or the last stage would have more than
    VERTEX_LIMIT vertices.  Depth 1 composes nothing, so its base may be
    of any size; a one-vertex base never grows, so MAX_DEPTH bounds it.
    """
    _check_mode(mode)
    if depth < 1:
        raise WdgError(f"depth must be >= 1, got {_count(depth)}")
    if depth > MAX_DEPTH:
        raise SizeBudgetExceededError(f"depth {_count(depth)} exceeds {MAX_DEPTH}")
    n = base.dimension
    if depth > 1 and n**depth > VERTEX_LIMIT:
        raise SizeBudgetExceededError(
            f"stage {depth} of a base of {_count(n)} vertices would exceed {VERTEX_LIMIT} vertices"
        )
    stages = [
        ComposedResult(wdg=base, shift=base.shift, predicted_l1=l1_norm(base), mode=mode)
    ]
    for _ in range(1, depth):
        stages.append(compose(mode, stages[-1].wdg, base))
    return stages
