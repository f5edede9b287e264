"""Versioned JSON document formats for graphs, targets, and reports.

Rationals always cross the boundary as "p/q" strings (or bare integer
strings); JSON floats are rejected so exactness survives round trips.
Serialization is canonical -- fixed key order, two-space indent, a
trailing newline -- so parse followed by serialize is byte-identical on
canonical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Union

from .boolfn import PartialBooleanFunction
from .core import (
    WDG,
    as_rational,
    build_wdg,
    format_assignment,
    format_rational,
    parse_assignment,
)
from .errors import DocumentError, SizeBudgetExceededError, WdgError, clip
from .optimize import OptimizationResult, PartialFunctionSpec
from .oracle import extrema

FORMAT_VERSION = 1
# Cap on the bit length of a parsed numerator or denominator, and of the
# common denominator of a graph's weights and shift.  Every int of at most
# 1000 digits is below 2**3322, and every int past it has over 1000.
# Python refuses to print an int of more than 4300 digits.  A sum of m
# values over a common denominator D has a numerator below m * 2**3322 * D,
# so the square that reports print, (l1 + |shift|)**2, has a numerator of
# about 4000 + 2 * log10(m) digits and a denominator of at most 2000.
MAX_RATIONAL_BITS = 3322
# Longest echo of raw input in an error message.
MAX_ECHO = 80
_EDGE_KEYS = {"u", "v", "w"}


def _echo(value) -> str:
    """repr(value), cut to MAX_ECHO characters so an error stays one short line."""
    return clip(repr(value), MAX_ECHO)


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _load(text: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses a literal of over 4300 digits
        raise DocumentError("a JSON integer has over 4300 digits") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise DocumentError("JSON arrays and objects are nested too deeply") from exc
    if not isinstance(document, dict):
        raise DocumentError("document must be a JSON object")
    return document


def _expect_keys(document: dict, keys: tuple) -> None:
    extra = set(document) - set(keys)
    missing = set(keys) - set(document)
    if extra or missing:
        raise DocumentError(
            f"document keys {_echo(sorted(document))} do not match expected {list(keys)}"
        )
    version = document["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise DocumentError(f"unsupported format_version {_echo(version)}")


def _check_bits(rational: Fraction, field: str) -> None:
    bits = max(rational.numerator.bit_length(), rational.denominator.bit_length())
    if bits > MAX_RATIONAL_BITS:
        raise DocumentError(f"{field} has a numerator or denominator of over 1000 digits")


def _rational_field(value: Union[str, int], field: str) -> Fraction:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            rational = as_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{field} is not a rational: {_echo(value)}") from exc
        _check_bits(rational, field)
        return rational
    raise DocumentError(f"{field} must be a rational string, got {_echo(value)}")


def _check_graph_size(shift: Fraction, weights) -> None:
    """Raise DocumentError unless the shift, each of ``weights`` and their
    common denominator all fit in MAX_RATIONAL_BITS.

    These are the caps every graph document must meet.  ``weights`` need
    hold each distinct value only once.
    """
    _check_bits(shift, "shift")
    denominator = shift.denominator
    for weight in weights:
        _check_bits(weight, "w")
        denominator = lcm(denominator, weight.denominator)
        if denominator.bit_length() > MAX_RATIONAL_BITS:
            raise DocumentError(
                "the weights and shift have a common denominator of over 1000 digits"
            )


def _int_field(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{field} must be an integer, got {_echo(value)}")
    return value


def _wdg_fields(wdg: WDG) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dimension": wdg.dimension,
        "shift": format_rational(wdg.shift),
        "edges": [
            {"u": e.u, "v": e.v, "w": format_rational(e.weight)} for e in wdg.edges
        ],
    }


def serialize_wdg(wdg: WDG) -> str:
    """The graph document, byte-identical to ``_dump(_wdg_fields(wdg))``.

    Written one block per edge instead of through ``json.dumps(indent=2)``,
    whose indentation forces the pure-Python encoder.  No value needs JSON
    escaping: ints print as digits, and format_rational emits only
    ``[-0-9/]``.  Raises SizeBudgetExceededError on a graph that
    parse_wdg_document would refuse.
    """
    # each distinct weight object is checked and formatted once; keyed by
    # id because Fraction hashing is slow, and a composite or a parsed graph
    # shares one object per distinct value
    weights = {id(e.weight): e.weight for e in wdg.edges}
    try:
        _check_graph_size(wdg.shift, weights.values())
    except DocumentError as exc:
        raise SizeBudgetExceededError(f"the graph cannot be written as a document: {exc}") from exc
    texts = {key: format_rational(w) for key, w in weights.items()}
    head = (
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "dimension": {wdg.dimension},\n'
        f'  "shift": "{format_rational(wdg.shift)}",\n  "edges": '
    )
    if not wdg.edges:
        return head + "[]\n}\n"
    body = ",\n".join(
        [
            f'    {{\n      "u": {e.u},\n      "v": {e.v},\n'
            f'      "w": "{texts[id(e.weight)]}"\n    }}'
            for e in wdg.edges
        ]
    )
    return f"{head}[\n{body}\n  ]\n}}\n"


def parse_wdg_document(text: str) -> WDG:
    document = _load(text)
    _expect_keys(document, ("format_version", "dimension", "shift", "edges"))
    dimension = _int_field(document["dimension"], "dimension")
    shift = _rational_field(document["shift"], "shift")
    if not isinstance(document["edges"], list):
        raise DocumentError("edges must be a list")
    rationals = {}  # weight string -> its Fraction, read once per document
    edges = []
    for entry in document["edges"]:
        if not isinstance(entry, dict) or entry.keys() != _EDGE_KEYS:
            raise DocumentError(f"bad edge entry {_echo(entry)}")
        u = _int_field(entry["u"], "u")
        v = _int_field(entry["v"], "v")
        w = entry["w"]
        if type(w) is not str:
            # an int or an error; an int adds nothing to the common denominator
            weight = _rational_field(w, "w")
        else:
            weight = rationals.get(w)
            if weight is None:
                weight = rationals[w] = _rational_field(w, "w")
        edges.append((u, v, weight))
    _check_graph_size(shift, rationals.values())
    try:
        return build_wdg(dimension, edges, shift)
    except WdgError as exc:
        raise DocumentError(str(exc)) from exc


def _parse_points(entries, length: int) -> list:
    if not isinstance(entries, list):
        raise DocumentError("points must be a list")
    points = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"input", "value"}:
            raise DocumentError(f"bad point entry {_echo(entry)}")
        if not isinstance(entry["input"], str):
            raise DocumentError("point input must be a string of '+'/'-' characters")
        x = parse_assignment(entry["input"])
        if len(x) != length:
            raise DocumentError(
                f"point {_echo(entry['input'])} has length {len(x)}, expected {length}"
            )
        value = entry["value"]
        if type(value) is not int or value not in (0, 1):
            raise DocumentError(f"point value must be 0 or 1, got {_echo(value)}")
        points.append((x, value))
    return points


def serialize_target(spec: PartialFunctionSpec) -> str:
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "dimension": spec.dimension,
            "epsilon": format_rational(spec.epsilon),
            "points": [
                {"input": format_assignment(x), "value": t} for x, t in spec.points
            ],
        }
    )


def parse_target_document(text: str) -> PartialFunctionSpec:
    document = _load(text)
    _expect_keys(document, ("format_version", "dimension", "epsilon", "points"))
    dimension = _int_field(document["dimension"], "dimension")
    epsilon = _rational_field(document["epsilon"], "epsilon")
    points = _parse_points(document["points"], dimension - 1)
    try:
        return PartialFunctionSpec(dimension=dimension, points=tuple(points), epsilon=epsilon)
    except (WdgError, ValueError) as exc:
        raise DocumentError(str(exc)) from exc


def serialize_function_table(f: PartialBooleanFunction) -> str:
    points = sorted(f.table.items())
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "arity": f.arity,
            "points": [
                {"input": format_assignment(x), "value": value} for x, value in points
            ],
        }
    )


def parse_function_document(text: str) -> PartialBooleanFunction:
    document = _load(text)
    _expect_keys(document, ("format_version", "arity", "points"))
    arity = _int_field(document["arity"], "arity")
    points = _parse_points(document["points"], arity)
    table = {}
    for x, value in points:
        if x in table and table[x] != value:
            raise DocumentError(f"conflicting values for input {format_assignment(x)}")
        table[x] = value
    try:
        return PartialBooleanFunction(arity=arity, table=table)
    except WdgError as exc:
        raise DocumentError(str(exc)) from exc


def report_document(wdg: WDG) -> dict:
    """Deterministic analysis report; every field is reproducible by
    re-running the corresponding library operation.  The extrema bounds
    are twice the l1 norm and twice the vertex weight bound."""
    report = extrema(wdg)
    l1 = report.upper_bound / 2
    l1_with_shift = l1 + abs(wdg.shift)
    document = {
        "l1_norm": format_rational(l1),
        "l1_with_shift": format_rational(l1_with_shift),
        "exact": report.exact,
    }
    if report.exact:
        document["delta"] = format_rational(report.delta)
    document["delta_lower"] = format_rational(report.lower_bound)
    document["delta_upper"] = format_rational(report.upper_bound)
    document["epsilon_bound"] = format_rational(report.lower_bound / 2)
    document["advantage_indicator"] = format_rational(l1_with_shift**2)
    if report.exact:
        document["argmax"] = format_assignment(report.argmax)
        document["argmin"] = format_assignment(report.argmin)
    return document


def serialize_report(document: dict, plain: bool = False) -> str:
    if plain:
        lines = []
        for key, value in document.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"
    return _dump(document)


def optimization_summary(result: OptimizationResult) -> dict:
    return {
        "objective": format_rational(result.objective),
        "c": format_rational(result.c),
        "feasible": result.feasible,
        "verified": result.verified,
        "iterations": result.iterations,
        "wdg": _wdg_fields(result.wdg),
    }
