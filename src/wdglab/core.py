"""Exact-arithmetic domain types for weighted dynamical graphs (WDGs).

A WDG encodes a degree-2 multilinear polynomial over inputs
``x in {-1,+1}^d`` whose coordinate 0 (the ancilla) is pinned to +1.
Each edge ``{u, v}`` contributes ``w * x_u * x_v``; a degree-1 monomial
``w * x_k`` is stored as the edge ``(0, k)``.  The graph value is

    g(x) = sum over edges of  w(e) * x_u * x_v

and the function the graph computes is ``f(x) = g(x) + K`` for the
shift constant ``K`` carried with the graph.

Assignments omit the ancilla coordinate: an ``Assignment`` for a
``d``-vertex graph has length ``d - 1`` and lists ``x_1 .. x_{d-1}``.

All weights and shifts are :class:`fractions.Fraction`; every operation
in this module is exact.  Floats are rejected at the boundary so that
rounding can never sneak in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import (
    BadIndexError,
    DuplicateEdgeError,
    NonzeroDiagonalError,
    NotSymmetricError,
    SelfLoopError,
)

Rational = Fraction
RationalLike = Union[int, str, Fraction]

Assignment = tuple  # tuple of +1/-1 ints, ancilla coordinate excluded

# Largest |exponent| in a rational string like "1e3": Fraction expands the
# power of ten exactly, so "1e999999999" would run for hours.  4300 is
# Python's default cap on int string digits, which bounds the mantissa.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def as_rational(value: RationalLike) -> Fraction:
    """Convert an int, Fraction, or string like "3/4" to an exact Fraction.

    Floats are rejected: they would silently import binary rounding into
    paths that must stay exact.
    """
    if type(value) is Fraction:  # immutable, so it can be shared as is
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        match = _EXPONENT.search(text)
        # int() itself refuses an exponent of more than 4300 digits
        if match and int(match.group(1).replace("_", "")) > MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in absolute value")
        return Fraction(text)
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction or 'p/q' string")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or just "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def check_assignment(values: Sequence[int], dimension: int) -> Assignment:
    """Validate a +-1 sequence against a graph dimension and return it as a tuple."""
    vals = tuple(values)
    if len(vals) != dimension - 1:
        raise BadIndexError(
            f"assignment has {len(vals)} entries, expected {dimension - 1} "
            f"(ancilla is implicit)"
        )
    for v in vals:
        if v != 1 and v != -1:
            raise BadIndexError(f"assignment entries must be +1 or -1, got {v!r}")
    return vals


def parse_assignment(text: str) -> Assignment:
    """Parse a '+'/'-' string (one character per non-ancilla vertex)."""
    out = []
    for ch in text:
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise BadIndexError(f"assignment strings use only '+'/'-', got {ch!r}")
    return tuple(out)


def format_assignment(values: Sequence[int]) -> str:
    return "".join("+" if v == 1 else "-" for v in values)


@dataclass(frozen=True, order=True)
class Edge:
    """A weighted edge with canonical ordering u < v.

    A degree-1 monomial on vertex k is the edge (0, k): the ancilla end
    contributes the constant +1 factor.
    """

    u: int
    v: int
    weight: Fraction


@dataclass(frozen=True)
class WDG:
    """A weighted dynamical graph: ``dimension`` vertices (ancilla at 0),
    canonical sorted edges, and the shift constant with ``f = g + shift``.
    """

    dimension: int
    edges: tuple
    shift: Fraction

    @property
    def num_variables(self) -> int:
        """Number of free input coordinates (the ancilla is fixed)."""
        return self.dimension - 1


@dataclass(frozen=True)
class AssociatedMatrix:
    """Symmetric zero-diagonal rational matrix form of a WDG.

    Row/column 0 holds the degree-1 weights; entry (i, j) for i, j >= 1
    holds the weight of edge {i, j}.
    """

    dimension: int
    entries: tuple  # tuple of row tuples of Fraction

    def __post_init__(self):
        d = self.dimension
        if len(self.entries) != d or any(len(row) != d for row in self.entries):
            raise NotSymmetricError(f"entries are not a {d}x{d} grid")
        for i in range(d):
            if self.entries[i][i] != 0:
                raise NonzeroDiagonalError(f"diagonal entry ({i},{i}) is nonzero")
            for j in range(i + 1, d):
                if self.entries[i][j] != self.entries[j][i]:
                    raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")


EdgeSpec = tuple  # (u, v, weight-like)


def build_wdg(
    dimension: int,
    edges: Iterable[EdgeSpec],
    shift: RationalLike = 0,
) -> WDG:
    """Construct a canonical WDG.

    Edges are reordered so u < v, zero-weight edges are dropped, and the
    result is sorted by (u, v).  Raises on self-loops, out-of-range
    indices, and duplicate vertex pairs among the surviving edges.
    """
    if dimension < 1:
        raise BadIndexError(f"dimension must be >= 1, got {dimension}")
    canonical = {}
    for u, v, w in edges:
        if not (0 <= u < dimension) or not (0 <= v < dimension):
            raise BadIndexError(f"edge ({u},{v}) out of range for dimension {dimension}")
        if u == v:
            raise SelfLoopError(f"self-loop on vertex {u} (diagonal must stay zero)")
        if u > v:
            u, v = v, u
        weight = as_rational(w)
        if weight == 0:
            continue
        if (u, v) in canonical:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        canonical[(u, v)] = weight
    edge_tuple = tuple(Edge(u, v, canonical[(u, v)]) for (u, v) in sorted(canonical))
    return WDG(dimension=dimension, edges=edge_tuple, shift=as_rational(shift))


def matrix_of(wdg: WDG) -> AssociatedMatrix:
    """The symmetric matrix M with g(x) = (1/2) * x M x^T over full inputs."""
    d = wdg.dimension
    grid = [[Fraction(0)] * d for _ in range(d)]
    for e in wdg.edges:
        grid[e.u][e.v] = e.weight
        grid[e.v][e.u] = e.weight
    return AssociatedMatrix(dimension=d, entries=tuple(tuple(row) for row in grid))


def wdg_of_matrix(matrix, shift: RationalLike = 0) -> WDG:
    """Inverse of :func:`matrix_of`.

    Accepts an :class:`AssociatedMatrix` or a raw square grid of
    rationals; raises ``NotSymmetricError`` / ``NonzeroDiagonalError``
    when the grid breaks the matrix invariants.
    """
    if not isinstance(matrix, AssociatedMatrix):
        rows = tuple(tuple(as_rational(x) for x in row) for row in matrix)
        matrix = AssociatedMatrix(dimension=len(rows), entries=rows)
    d = matrix.dimension
    edges = []
    for u in range(d):
        for v in range(u + 1, d):
            w = matrix.entries[u][v]
            if w != 0:
                edges.append((u, v, w))
    return build_wdg(d, edges, shift)


def _coordinate(x: Assignment, index: int) -> int:
    return 1 if index == 0 else x[index - 1]


def evaluate(wdg: WDG, x: Sequence[int]) -> Fraction:
    """The graph value g(x), exactly."""
    x = check_assignment(x, wdg.dimension)
    total = Fraction(0)
    for e in wdg.edges:
        total += e.weight * _coordinate(x, e.u) * _coordinate(x, e.v)
    return total


def f_value(wdg: WDG, x: Sequence[int]) -> Fraction:
    """The computed function f(x) = g(x) + shift, exactly."""
    return evaluate(wdg, x) + wdg.shift


def scale_to_integers(values: Sequence[Fraction]) -> tuple:
    """(D, [v * D for v in values]) for the common denominator D of ``values``.

    D is 1 when ``values`` is empty.
    """
    denom = lcm(*(v.denominator for v in values))
    return denom, [v.numerator * (denom // v.denominator) for v in values]


def scaled_edges(wdg: WDG) -> tuple:
    """(D, [(u, v, w * D)]): the edges scaled to their common denominator D."""
    denom, ints = scale_to_integers([e.weight for e in wdg.edges])
    return denom, [(e.u, e.v, w) for e, w in zip(wdg.edges, ints)]


def l1_norm(wdg: WDG) -> Fraction:
    """Sum of absolute edge weights (the coefficient 1-norm of g).

    The shift is not included; see :func:`l1_norm_with_shift`.
    """
    return sum((abs(e.weight) for e in wdg.edges), Fraction(0))


def l1_norm_with_shift(wdg: WDG) -> Fraction:
    """Coefficient 1-norm of f = g + shift, i.e. l1_norm + |shift|."""
    return l1_norm(wdg) + abs(wdg.shift)


def total_weight(wdg: WDG) -> Fraction:
    """Sum of edge weights; equals the graph value at the all-ones input."""
    return sum((e.weight for e in wdg.edges), Fraction(0))
