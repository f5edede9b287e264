"""The iterated-AND family and brute-force certificate complexity.

The family's k-bit member is the plain AND indicator: 1 exactly when
every bit is +1.  Its interest here is the input encoding: a k-bit
input is presented as the 2^k-long vector of all subset products
(the Kronecker product of the pairs (1, x_i)), which turns the AND of k
bits into a function on a 2^k-vertex graph whose non-ancilla degree-1
weights are all equal.

Two graphs realize the family:

* the wide form (``normalized=False``): weights 2^(1-k), shift
  2^(1-k) - 1, so f is the +-1 sign encoding of the AND on subset-product
  inputs; its L1 norm is (2^k - 1) * 2^(1-k), climbing toward 2;
* the normalized form (``normalized=True``): every weight and the shift
  halved off the ancilla, i.e. weights 2^-k and shift 2^-k, so
  f equals the 0/1 AND indicator exactly on subset-product inputs.

The two differ by exactly the max-minus-min rescaling (the wide form's
value spread on subset-product inputs is 2); no single shift can make
the wide form 0/1-valued, which is why both are exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .core import WDG, Assignment, build_wdg
from .errors import BadIndexError, SizeBudgetExceededError

AND_FAMILY_MAX_K = 20  # and_family_wdg's largest k: 2**20 vertices

# Cap on |domain|**2 * 2**arity, which bounds the domain scans of
# certificate_complexity: every point may try every subset, and each try
# may scan the domain.  The 4-bit AND table (16 points, arity 16) needs 2**24.
CERTIFICATE_BUDGET = 1 << 26


def _check_bits(bits: Sequence[int]) -> tuple:
    vals = tuple(bits)
    if not vals:
        raise BadIndexError("need at least one bit")
    for b in vals:
        if b != 1 and b != -1:
            raise BadIndexError(f"bits must be +1 or -1, got {b!r}")
    return vals


def and_indicator(bits: Sequence[int]) -> int:
    """1 iff every bit is +1, else 0 (closed form 2^-k * prod(b_i + 1))."""
    bits = _check_bits(bits)
    product = 1
    for b in bits:
        product *= b + 1
    return product >> len(bits)


def and_indicator_recursive(bits: Sequence[int]) -> int:
    """Same function via the peel-one-bit recursion; kept as a cross-check."""
    bits = _check_bits(bits)
    if len(bits) == 1:
        return (bits[0] + 1) // 2
    return and_indicator_recursive(bits[:-1]) * ((bits[-1] + 1) // 2)


def subset_products(bits: Sequence[int]) -> Assignment:
    """All subset products of the bits, as a length 2^k - 1 assignment.

    Row-major Kronecker order: fold (1, x_1) (x) (1, x_2) (x) ... and drop
    the leading empty-product coordinate (the ancilla, always +1).
    """
    bits = _check_bits(bits)
    vec = (1,)
    for b in bits:
        vec = tuple(v * s for v in vec for s in (1, b))
    return vec[1:]


def and_family_wdg(k: int, normalized: bool = False) -> WDG:
    """The 2^k-vertex graph computing the k-bit AND on subset-product inputs.

    See the module docstring for the two forms.  The wide form satisfies
    f(subset_products(bits)) == 2 * and_indicator(bits) - 1; the
    normalized form satisfies f(subset_products(bits)) == and_indicator(bits).
    Raises SizeBudgetExceededError when k exceeds AND_FAMILY_MAX_K.
    """
    if k < 1:
        raise BadIndexError(f"k must be >= 1, got {k}")
    if k > AND_FAMILY_MAX_K:
        raise SizeBudgetExceededError(f"k must be <= {AND_FAMILY_MAX_K}, got {k}")
    dimension = 1 << k
    if normalized:
        weight = Fraction(1, dimension)
        shift = Fraction(1, dimension)
    else:
        weight = Fraction(2, dimension)
        shift = Fraction(2, dimension) - 1
    edges = [(0, j, weight) for j in range(1, dimension)]
    return build_wdg(dimension, edges, shift=shift)


@dataclass(frozen=True)
class PartialBooleanFunction:
    """A 0/1-valued function given by an explicit (possibly partial) table."""

    arity: int
    table: Mapping  # assignment tuple (+-1 each, full arity) -> 0 or 1

    def __post_init__(self):
        for x, value in self.table.items():
            if len(x) != self.arity:
                raise BadIndexError(
                    f"table key {x} has length {len(x)}, expected {self.arity}"
                )
            if any(v != 1 and v != -1 for v in x):
                raise BadIndexError(f"table key {x} has entries outside +-1")
            if value not in (0, 1):
                raise BadIndexError(f"table value must be 0 or 1, got {value!r}")


def and_family_table(k: int) -> PartialBooleanFunction:
    """The k-bit AND on its 2^k subset-product points, as an explicit table.

    Keys are the full subset-product vectors (leading coordinate +1
    included), so the arity is 2^k.
    """
    if k < 1:
        raise BadIndexError(f"k must be >= 1, got {k}")
    table = {}
    for index in range(1 << k):
        bits = tuple(1 if (index >> j) & 1 == 0 else -1 for j in range(k))
        table[(1,) + subset_products(bits)] = and_indicator(bits)
    return PartialBooleanFunction(arity=1 << k, table=table)


@dataclass(frozen=True)
class CertificateComplexity:
    c0: int
    c1: int
    c: int


def _certifies(domain, x, subset, value) -> bool:
    for y, fy in domain:
        if fy != value and all(y[i] == x[i] for i in subset):
            return False
    return True


def certificate_complexity(f: PartialBooleanFunction) -> CertificateComplexity:
    """Worst-case minimal certificate sizes, by exhaustive subset search.

    A subset certifies x when every domain point agreeing with x on it
    has the same value.  c0/c1 maximize over 0-/1-inputs (0 when the
    class is empty); c = max(c0, c1).  Raises SizeBudgetExceededError
    before searching when |domain|**2 * 2**arity exceeds CERTIFICATE_BUDGET.
    """
    domain = list(f.table.items())
    work = len(domain) ** 2 << f.arity
    if work > CERTIFICATE_BUDGET:
        raise SizeBudgetExceededError(
            f"certificate search over {len(domain)} points of arity {f.arity} "
            f"is past the budget: |domain|^2 * 2^arity must be at most {CERTIFICATE_BUDGET}"
        )
    worst = {0: 0, 1: 0}
    indices = range(f.arity)
    for x, value in domain:
        if worst[value] == f.arity:
            continue  # already at the ceiling for this class
        for size in range(worst[value], f.arity + 1):
            if any(_certifies(domain, x, s, value) for s in combinations(indices, size)):
                worst[value] = max(worst[value], size)
                break
    return CertificateComplexity(c0=worst[0], c1=worst[1], c=max(worst[0], worst[1]))


@dataclass(frozen=True)
class RandomizedScaleReport:
    """Advisory sqrt-of-certificate scale for classical query cost.

    Finite data only; says nothing about asymptotics.
    """

    certificate: int
    scale: float
    exact: int | None  # integer square root when the certificate is a perfect square


def randomized_query_scale(certificate: int) -> RandomizedScaleReport:
    if certificate < 0:
        raise BadIndexError(f"certificate must be >= 0, got {certificate}")
    root = math.isqrt(certificate)
    return RandomizedScaleReport(
        certificate=certificate,
        scale=math.sqrt(certificate),
        exact=root if root * root == certificate else None,
    )
