"""Reference arithmetic for checking wdglab's outputs.

Nothing here imports wdglab: every expected value is recomputed from the
generated inputs or from the files the program wrote, so a fast but wrong
answer from the program cannot also fool its check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# Largest number of float64 entries the cube screen holds at once; keeps the
# checker's memory far below the program's own peak.
_SCREEN_BLOCK = 1 << 16


@dataclass(frozen=True)
class Graph:
    """A weighted graph: vertex 0 is the ancilla, pinned to +1."""

    dimension: int
    shift: Fraction
    edges: tuple  # of (u, v, Fraction) with u < v

    @cached_property
    def scaled(self):
        """(D, ((u, v, w * D), ...)) with D the common denominator, so that
        sums over many edges run on ints."""
        denom = math.lcm(*(w.denominator for _, _, w in self.edges)) if self.edges else 1
        return denom, tuple((u, v, w.numerator * (denom // w.denominator)) for u, v, w in self.edges)


def rational(text) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"not a rational string: {text!r}")
    return Fraction(text)


def rational_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def assignment_text(x) -> str:
    return "".join("+" if v == 1 else "-" for v in x)


def graph_document(graph: Graph) -> str:
    return json.dumps(
        {
            "format_version": 1,
            "dimension": graph.dimension,
            "shift": rational_text(graph.shift),
            "edges": [
                {"u": u, "v": v, "w": rational_text(w)} for u, v, w in graph.edges
            ],
        },
        indent=2,
    ) + "\n"


def graph_from_dict(document: dict) -> Graph:
    if set(document) != {"format_version", "dimension", "shift", "edges"}:
        raise ValueError(f"unexpected graph keys {sorted(document)}")
    edges = tuple(
        (int(e["u"]), int(e["v"]), rational(e["w"])) for e in document["edges"]
    )
    return Graph(int(document["dimension"]), rational(document["shift"]), edges)


def parse_graph(text: str) -> Graph:
    return graph_from_dict(json.loads(text))


def l1(graph: Graph) -> Fraction:
    denom, edges = graph.scaled
    return Fraction(sum(abs(w) for _, _, w in edges), denom)


def incidence_bound(graph: Graph) -> Fraction:
    """Largest total |weight| at one vertex."""
    denom, edges = graph.scaled
    totals = [0] * graph.dimension
    for u, v, w in edges:
        totals[u] += abs(w)
        totals[v] += abs(w)
    return Fraction(max(totals, default=0), denom)


def evaluate(graph: Graph, x) -> Fraction:
    """g(x) for an assignment x of the free coordinates 1..dimension-1."""
    full = (1,) + tuple(x)
    denom, edges = graph.scaled
    return Fraction(sum(w * full[u] * full[v] for u, v, w in edges), denom)


def cube_values(graph: Graph) -> dict:
    """Exact g on every cube point; for small graphs only."""
    n = graph.dimension - 1
    return {x: evaluate(graph, x) for x in itertools.product((-1, 1), repeat=n)}


def _signs(bits: int) -> np.ndarray:
    """All +-1 vectors of length ``bits`` in lexicographic order (-1 < +1)."""
    idx = np.arange(1 << bits)[:, None]
    shifts = np.arange(bits - 1, -1, -1)[None, :]
    return np.where((idx >> shifts) & 1, 1.0, -1.0)


def cube_extrema(graph: Graph):
    """Exact (max, argmax, min, argmin) of g with lexicographically smallest
    witnesses, for 2 to about 24 free coordinates.

    Screens the whole cube in float64, in blocks, then recomputes every point
    within a tolerance of the float extrema exactly.  The tolerance exceeds
    twice the float rounding error of any screened value, so every exact
    maximizer and minimizer is among the rechecked points.
    """
    n = graph.dimension - 1
    h = n // 2  # coordinates 1..h index rows, h+1..n index columns
    lo_x, hi_x = _signs(h), _signs(n - h)
    g_lo = np.zeros(len(lo_x))
    g_hi = np.zeros(len(hi_x))
    cross = np.zeros((h, n - h))
    for u, v, w in graph.edges:
        wf = float(w)
        cu = None if u == 0 else (lo_x[:, u - 1] if u <= h else hi_x[:, u - h - 1])
        if v <= h:
            g_lo += wf * (lo_x[:, v - 1] if cu is None else cu * lo_x[:, v - 1])
        elif u == 0 or u > h:
            g_hi += wf * (hi_x[:, v - h - 1] if cu is None else cu * hi_x[:, v - h - 1])
        else:
            cross[u - 1, v - h - 1] += wf
    lo_cross = lo_x @ cross
    step = max(1, _SCREEN_BLOCK // len(g_lo))

    def blocks():
        for start in range(0, len(g_hi), step):
            stop = start + step
            yield start, g_lo[:, None] + g_hi[None, start:stop] + lo_cross @ hi_x[start:stop].T

    top, bottom = -np.inf, np.inf
    for _, block in blocks():
        top, bottom = max(top, block.max()), min(bottom, block.min())
    tol = 1e-9 * (float(l1(graph)) + 1.0)
    high, low = [], []
    for start, block in blocks():
        for sink, (rows, cols) in ((high, np.nonzero(block >= top - tol)), (low, np.nonzero(block <= bottom + tol))):
            for i, j in zip(rows.tolist(), cols.tolist()):
                sink.append(tuple(int(s) for s in lo_x[i]) + tuple(int(s) for s in hi_x[start + j]))
    high = {x: evaluate(graph, x) for x in high}
    low = {x: evaluate(graph, x) for x in low}
    gmax, gmin = max(high.values()), min(low.values())
    argmax = min(x for x, g in high.items() if g == gmax)
    argmin = min(x for x, g in low.items() if g == gmin)
    return gmax, argmax, gmin, argmin


def product_assignment(a, b) -> tuple:
    """Composite input of two factor inputs, ancillas prepended then dropped."""
    full_a = (1,) + tuple(a)
    full_b = (1,) + tuple(b)
    return tuple(p * q for p in full_a for q in full_b)[1:]
