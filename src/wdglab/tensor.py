"""Exact matrix utilities: Kronecker and Hadamard products over rationals.

These back the norm identities and give the dense reference form of
the graph compositions, which build their edge lists directly.  All
entries are Fractions; there is no floating point in this module.  The
"entrywise square root of the entrywise square" that turns a signed
matrix into its absolute-value twin is implemented directly as ``abs``,
which is exact on rationals and avoids irrational intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import RationalLike, as_rational
from .errors import ShapeMismatchError


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of Fraction

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ShapeMismatchError(
                f"entries are not a {self.rows}x{self.cols} grid"
            )


def matrix(rows: Sequence[Sequence[RationalLike]]) -> RationalMatrix:
    """Build a RationalMatrix from any nested sequence of rational-likes."""
    grid = tuple(tuple(as_rational(x) for x in row) for row in rows)
    if not grid:
        raise ShapeMismatchError("matrix needs at least one row")
    return RationalMatrix(rows=len(grid), cols=len(grid[0]), entries=grid)


def identity(n: int) -> RationalMatrix:
    one, zero = Fraction(1), Fraction(0)
    return RationalMatrix(
        rows=n,
        cols=n,
        entries=tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
    )


def kronecker(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product with row-major block layout.

    Composite index map: (i, j) -> i * b.rows + j, so the (0,0) block
    sits in the top-left corner.
    """
    out_rows = a.rows * b.rows
    out_cols = a.cols * b.cols
    grid = []
    for i in range(a.rows):
        arow = a.entries[i]
        for j in range(b.rows):
            brow = b.entries[j]
            grid.append(tuple(aval * bval for aval in arow for bval in brow))
    return RationalMatrix(rows=out_rows, cols=out_cols, entries=tuple(grid))


def hadamard(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Entrywise product; shapes must match."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError(
            f"hadamard needs equal shapes, got {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    return RationalMatrix(
        rows=a.rows,
        cols=a.cols,
        entries=tuple(
            tuple(x * y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
        ),
    )


def abs_matrix(a: RationalMatrix) -> RationalMatrix:
    """Entrywise absolute value (exact stand-in for (A o A)^(o 1/2))."""
    return RationalMatrix(
        rows=a.rows,
        cols=a.cols,
        entries=tuple(tuple(abs(x) for x in row) for row in a.entries),
    )


def all_ones_value(a: RationalMatrix) -> Fraction:
    """Half the sum of all entries: the quadratic form (1/2) 1 A 1^T.

    For a symmetric zero-diagonal matrix this is the sum of the strict
    upper triangle, i.e. the graph value of the matching WDG at the
    all-ones input.
    """
    if a.rows != a.cols:
        raise ShapeMismatchError("all_ones_value needs a square matrix")
    total = Fraction(0)
    for row in a.entries:
        for x in row:
            total += x
    return total / 2
