"""Seeded command streams for the three workloads, with their checks.

A workload is a fixed cycle of command shapes.  Each cycle draws fresh
random inputs for every shape from the workload seed, writes them as
documents into the work directory, and pairs each command with a check
that recomputes the expected output through ``exact`` only.

The shapes of a cycle are fixed, so the mix of command costs in a run does
not depend on the seed.  Shapes that cost about the same are grouped, and
the groups are sized so that the median and the 75th percentile of a run of
whole cycles fall inside a group, not on the edge between two groups.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import exact
from exact import Graph


class CheckFailure(Exception):
    """The program's output disagrees with the reference computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclass
class Command:
    """One CLI invocation and the check of what it printed and wrote.

    ``check(rc, stdout)`` raises CheckFailure on a wrong answer and returns
    the answer's quality (a positive number) or None.
    """

    argv: list
    shape: str
    check: Callable[[int, str], Optional[float]]


def _expect_exit_zero(rc: int) -> None:
    expect(rc == 0, f"exit code {rc}, expected 0")


def _json_output(stdout: str) -> dict:
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"stdout is not JSON: {exc}") from exc
    expect(isinstance(document, dict), "stdout is not a JSON object")
    return document


# ---------------------------------------------------------------------------
# report-scan

_SMALL_NUMERATORS = [k for k in range(-9, 10) if k]
_SMALL_DENOMINATORS = [1, 2, 3, 4, 5, 6, 8, 12]
# Distinct primes near 10**6: with a dozen edges the common denominator of
# the weights exceeds 2**63 on its own.
_LARGE_DENOMINATORS = [
    1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
    1000117, 1000121, 1000133, 1000151, 1000159, 1000171,
]

# (free variables, edge density, large denominators)
REPORT_SCAN_SHAPES = (
    [(16, 0.50, False), (16, 0.30, True), (17, 0.25, False), (17, 0.50, False), (18, 0.20, False)]
    + [(19, 0.30, False)] * 5
    + [(20, 0.20, False)] * 4
    + [(20, 0.45, False), (20, 0.45, True)]
)


def random_scan_graph(rng: random.Random, n: int, density: float, large: bool) -> Graph:
    """A randomly labelled circulant graph: every vertex has the same degree,
    so graphs of one shape cost the same to scan (the Gray-code walk flips
    the lowest coordinates most often, and their degree sets its cost)."""
    size = n + 1
    offsets = rng.sample(range(1, (size + 1) // 2), max(1, round(density * n / 2)))
    label = list(range(size))
    rng.shuffle(label)
    chosen = sorted(
        (min(label[i], label[(i + s) % size]), max(label[i], label[(i + s) % size]))
        for s in offsets
        for i in range(size)
    )
    edges = []
    for u, v in chosen:
        if large:
            q = rng.choice(_LARGE_DENOMINATORS)
            w = Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q)
        else:
            w = Fraction(rng.choice(_SMALL_NUMERATORS), rng.choice(_SMALL_DENOMINATORS))
        edges.append((u, v, w))
    graph = Graph(n + 1, Fraction(rng.randint(-8, 8), 8), tuple(edges))
    if large:
        denom = math.lcm(*(w.denominator for _, _, w in edges))
        if 4 * denom * exact.l1(graph) <= 1 << 63:
            raise RuntimeError("large-denominator graph fits in int64")
    return graph


def check_report_scan(graph: Graph, rc: int, stdout: str) -> None:
    _expect_exit_zero(rc)
    doc = _json_output(stdout)
    norm = exact.l1(graph)
    bound = exact.incidence_bound(graph)
    gmax, argmax, gmin, argmin = exact.cube_extrema(graph)
    expected = {
        "l1_norm": norm,
        "l1_with_shift": norm + abs(graph.shift),
        "delta": gmax - gmin,
        "delta_lower": 2 * bound,
        "delta_upper": 2 * norm,
        "epsilon_bound": bound,
        "advantage_indicator": (norm + abs(graph.shift)) ** 2,
    }
    expect(doc.get("exact") is True, "report is not exact")
    for key, value in expected.items():
        expect(key in doc and exact.rational(doc[key]) == value, f"{key} is {doc.get(key)!r}, expected {value}")
    expect(doc.get("argmax") == exact.assignment_text(argmax), f"argmax {doc.get('argmax')!r} is wrong")
    expect(doc.get("argmin") == exact.assignment_text(argmin), f"argmin {doc.get('argmin')!r} is wrong")


def report_scan_cycle(rng: random.Random, folder: Path) -> list:
    commands = []
    for k, (n, density, large) in enumerate(REPORT_SCAN_SHAPES):
        graph = random_scan_graph(rng, n, density, large)
        path = folder / f"graph_{k}.json"
        path.write_text(exact.graph_document(graph))
        commands.append(
            Command(
                ["report", str(path)],
                f"report n={n} p={density}{' large' if large else ''}",
                lambda rc, out, g=graph: check_report_scan(g, rc, out),
            )
        )
    rng.shuffle(commands)
    return commands


# ---------------------------------------------------------------------------
# iterate-compose

# (mode, base dimension, depth): final stages of 64 to 256 vertices.
ITERATE_SHAPES = (
    ("and", 4, 3), ("or", 3, 4),
    ("and", 5, 3), ("or", 5, 3), ("and", 5, 3),
    ("and", 6, 3), ("or", 6, 3),
    ("or", 4, 4),
)


def random_base_graph(rng: random.Random, dimension: int) -> Graph:
    edges = []
    for u in range(dimension):
        for v in range(u + 1, dimension):
            w = Fraction(rng.choice(_SMALL_NUMERATORS), rng.choice((2, 4, 8)))
            edges.append((u, v, w))
    return Graph(dimension, Fraction(rng.choice((-3, -1, 1, 3, 5)), 4), tuple(edges))


def stage_norms(mode: str, base: Graph, depth: int) -> list:
    """Closed-form (L1, shift) of every stage D_1 = base, D_{i+1} = D_i o base."""
    lb, kb = exact.l1(base), base.shift
    stages = [(lb, kb)]
    for _ in range(1, depth):
        la, ka = stages[-1]
        if mode == "and":
            stages.append(((la + abs(ka)) * (lb + abs(kb)) - abs(ka * kb), ka * kb))
        else:
            stages.append((abs(1 - kb) * la + abs(1 - ka) * lb + la * lb, ka + kb - ka * kb))
    return stages


def _f(graph: Graph, x) -> Fraction:
    return exact.evaluate(graph, x) + graph.shift


def check_iterate(mode, base, depth, out_dir: Path, probe_seed, parsed: dict, rc, stdout) -> None:
    _expect_exit_zero(rc)
    norms = stage_norms(mode, base, depth)
    lines = stdout.splitlines()
    expect(len(lines) == depth, f"{len(lines)} stage lines, expected {depth}")
    for i, (line, (norm, _)) in enumerate(zip(lines, norms), start=1):
        head, _, value = line.partition(": l1 = ")
        expect(head == f"stage {i}" and exact.rational(value) == norm, f"line {line!r}, expected l1 {norm}")
    final = exact.parse_graph((out_dir / f"stage_{depth}.json").read_text())
    parsed["final"] = final
    previous = exact.parse_graph((out_dir / f"stage_{depth - 1}.json").read_text())
    for stage, graph in ((depth, final), (depth - 1, previous)):
        norm, shift = norms[stage - 1]
        expect(graph.dimension == base.dimension ** stage, f"stage {stage} has dimension {graph.dimension}")
        expect(exact.l1(graph) == norm, f"stage {stage} file has l1 {exact.l1(graph)}, expected {norm}")
        expect(graph.shift == shift, f"stage {stage} file has shift {graph.shift}, expected {shift}")
    probe = random.Random(probe_seed)
    for _ in range(3):
        x = tuple(probe.choice((-1, 1)) for _ in range(previous.dimension - 1))
        y = tuple(probe.choice((-1, 1)) for _ in range(base.dimension - 1))
        fa, fb = _f(previous, x), _f(base, y)
        want = fa * fb if mode == "and" else fa + fb - fa * fb
        got = _f(final, exact.product_assignment(x, y))
        expect(got == want, f"f'' = {got} on a product input, expected {want}")


def check_read_back(mode, base, depth, stage_path: Path, parsed: dict, rc, stdout) -> None:
    """``parsed`` holds the stage graph if the iterate check already read it."""
    _expect_exit_zero(rc)
    doc = _json_output(stdout)
    norm, shift = stage_norms(mode, base, depth)[-1]
    final = parsed.pop("final", None) or exact.parse_graph(stage_path.read_text())
    bound = exact.incidence_bound(final)
    expect(doc.get("exact") is False, "read-back report claims an exact scan")
    expect("delta" not in doc, "bounds-only report carries a delta")
    expected = {
        "l1_norm": norm,
        "l1_with_shift": norm + abs(shift),
        "delta_lower": 2 * bound,
        "delta_upper": 2 * norm,
        "epsilon_bound": bound,
    }
    for key, value in expected.items():
        expect(key in doc and exact.rational(doc[key]) == value, f"{key} is {doc.get(key)!r}, expected {value}")


def iterate_cycle(rng: random.Random, folder: Path) -> list:
    pairs = []
    for k, (mode, dimension, depth) in enumerate(ITERATE_SHAPES):
        base = random_base_graph(rng, dimension)
        base_path = folder / f"base_{k}.json"
        base_path.write_text(exact.graph_document(base))
        out_dir = folder / f"stages_{k}"
        final = out_dir / f"stage_{depth}.json"
        size = dimension ** depth
        probe_seed = rng.getrandbits(32)
        parsed = {}
        pairs.append(
            [
                Command(
                    ["iterate", mode, str(base_path), str(depth), str(out_dir)],
                    f"iterate {mode} {size}",
                    lambda rc, out, a=(mode, base, depth, out_dir, probe_seed, parsed): check_iterate(*a, rc, out),
                ),
                Command(
                    ["report", str(final)],
                    f"report {size}",
                    lambda rc, out, a=(mode, base, depth, final, parsed): check_read_back(*a, rc, out),
                ),
            ]
        )
    rng.shuffle(pairs)
    return [command for pair in pairs for command in pair]


# ---------------------------------------------------------------------------
# optimize-targets

EPSILON = Fraction(1, 10)
TARGET_POINTS = 4  # drawn from each support class
# (objective, dimension, budget)
OPTIMIZE_SHAPES = (
    ("maximize_l1", 6, 20000), ("maximize_l1", 8, 5000),
    ("minimize_delta", 6, 20000), ("minimize_delta", 8, 5000),
)


def planted_target(rng: random.Random, dimension: int) -> list:
    """Points drawn from the support classes (f = 1 and f = 0) of a
    range-normalized random graph, so epsilon = 0 is already feasible."""
    pairs = [(u, v) for u in range(dimension) for v in range(u + 1, dimension)]
    while True:
        chosen = rng.sample(pairs, rng.randint(dimension // 2, dimension))
        graph = Graph(dimension, Fraction(0), tuple((u, v, Fraction(rng.choice((-2, -1, 1, 2)))) for u, v in sorted(chosen)))
        values = exact.cube_values(graph)
        top, bottom = max(values.values()), min(values.values())
        ones = [x for x, g in values.items() if g == top]
        zeros = [x for x, g in values.items() if g == bottom]
        if top > bottom and len(ones) >= TARGET_POINTS and len(zeros) >= TARGET_POINTS:
            points = [(x, 1) for x in rng.sample(ones, TARGET_POINTS)]
            points += [(x, 0) for x in rng.sample(zeros, TARGET_POINTS)]
            rng.shuffle(points)
            return points


def target_document(dimension: int, points: list) -> str:
    return json.dumps(
        {
            "format_version": 1,
            "dimension": dimension,
            "epsilon": exact.rational_text(EPSILON),
            "points": [{"input": exact.assignment_text(x), "value": t} for x, t in points],
        },
        indent=2,
    ) + "\n"


def check_optimize(objective, dimension, points, out_path: Path, rc, stdout) -> float:
    """Returns the achieved L1 norm at unit spread."""
    _expect_exit_zero(rc)
    doc = _json_output(stdout)
    expect(doc.get("verified") is True and doc.get("feasible") is True, "result is not verified and feasible")
    graph = exact.parse_graph(out_path.read_text())
    expect(exact.graph_from_dict(doc["wdg"]) == graph, "--out graph differs from the printed one")
    expect(graph.dimension == dimension, f"found graph has dimension {graph.dimension}")
    c = exact.rational(doc["c"])
    expect(graph.shift == c, "found graph's shift is not the reported C")
    values = exact.cube_values(graph)
    delta = max(values.values()) - min(values.values())
    norm = exact.l1(graph)
    expect(delta > 0, "found graph is constant")
    if objective == "maximize_l1":
        expect(delta == 1, f"spread is {delta}, expected 1")
        achieved = norm
    else:
        expect(norm == 1, f"weight sum is {norm}, expected 1")
        achieved = delta
    reported = exact.rational(doc["objective"])
    expect(reported == achieved, f"objective {reported} but the graph gives {achieved}")
    for x, t in points:
        err = abs(values[x] / delta - t + c)
        expect(err <= EPSILON, f"target point {exact.assignment_text(x)} misses the band by {err}")
    return float(norm / delta)


def optimize_cycle(rng: random.Random, folder: Path) -> list:
    commands = []
    for k, (objective, dimension, budget) in enumerate(OPTIMIZE_SHAPES):
        points = planted_target(rng, dimension)
        target = folder / f"target_{k}.json"
        target.write_text(target_document(dimension, points))
        out_path = folder / f"found_{k}.json"
        argv = [
            "optimize", objective, str(target),
            "--budget", str(budget), "--seed", str(rng.randrange(1 << 16)),
            "--out", str(out_path),
        ]
        commands.append(
            Command(
                argv,
                f"optimize {objective} d={dimension}",
                lambda rc, out, a=(objective, dimension, points, out_path): check_optimize(*a, rc, out),
            )
        )
    return commands


# workload name -> function making one cycle of commands
WORKLOADS = {
    "report-scan": report_scan_cycle,
    "iterate-compose": iterate_cycle,
    "optimize-targets": optimize_cycle,
}


def build_cycles(name: str, seed: int, count: int, work_dir: Path) -> list:
    """``count`` cycles of workload ``name``, inputs written under ``work_dir``."""
    cycles = []
    for index in range(count):
        rng = random.Random(f"{name}:{seed}:{index}")
        folder = work_dir / f"cycle_{index}"
        folder.mkdir(parents=True)
        cycles.append(WORKLOADS[name](rng, folder))
    return cycles
