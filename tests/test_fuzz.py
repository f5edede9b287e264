"""Derandomized fuzz of ``cli.main`` over malformed documents.

Every command that reads a document gets a valid document broken in one
way: truncated text, deep nesting, a value of the wrong type, a missing
or extra key, a 5000-digit integer literal or an out-of-range vertex.
Each run must refuse it with exit code 2 or 3, nothing on stdout,
exactly one ``error: `` line on stderr, and within a second.
"""

import contextlib
import io
import json
import shutil
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wdglab.cli import main

NAN = float("nan")
BIG = "__big__"  # stands for a 5000-digit integer literal in the text
NEST = "__nest__"  # stands for a deeply nested array or object

GRAPH = {
    "format_version": 1,
    "dimension": 6,
    "shift": "1/2",
    "edges": [
        {"u": 0, "v": 2, "w": "1/8"},
        {"u": 0, "v": 5, "w": "1/8"},
        {"u": 1, "v": 2, "w": "-1/8"},
        {"u": 3, "v": 4, "w": "-1/8"},
    ],
}
TARGET = {
    "format_version": 1,
    "dimension": 6,
    "epsilon": "1/10",
    "points": [{"input": "-++-+", "value": 1}, {"input": "--++-", "value": 0}],
}
TABLE = {
    "format_version": 1,
    "arity": 3,
    "points": [{"input": "+++", "value": 1}, {"input": "--+", "value": 0}],
}

# Values that no field of the given kind accepts.
NON_INTS = [True, False, 1.0, 2.5, NAN, "1", "x", None, [], {}, BIG, NEST]
BAD = {
    "format_version": NON_INTS,
    "dimension": NON_INTS,
    "arity": NON_INTS,
    "u": NON_INTS + [-1, 6, 13, 10**30],  # out of range for dimension 6
    "v": NON_INTS + [-1, 6, 13, 10**30],
    "shift": [True, False, 0.5, NAN, "x", "1/0", "", "1/2/3", None, [], BIG, NEST],
    "value": [True, False, 1.0, NAN, "1", 2, -1, None, BIG, NEST],
    "input": [True, 1, 0.5, "+x", "", "++++++++", None, BIG, NEST],
}
BAD["w"] = BAD["epsilon"] = BAD["shift"]

# command -> (document it reads, argv with the document at DOC)
DOC = "<doc>"
COMMANDS = {
    "eval": (GRAPH, ["eval", DOC, "+++++"]),
    "report": (GRAPH, ["report", DOC]),
    "report --plain": (GRAPH, ["report", "--plain", DOC]),
    "compose left": (GRAPH, ["compose", "and", DOC, "<good>", "<out>"]),
    "compose right": (GRAPH, ["compose", "or", "<good>", DOC, "<out>"]),
    "iterate": (GRAPH, ["iterate", "and", DOC, "2", "<out>"]),
    "optimize": (TARGET, ["optimize", "maximize_l1", DOC, "--budget", "20"]),
    "certificate": (TABLE, ["certificate", DOC]),
}


def _leaves(document):
    """(container, key) for every leaf value of the document."""
    for key, value in document.items():
        if isinstance(value, list):
            for entry in value:
                yield from ((entry, k) for k in entry)
        else:
            yield document, key


def _containers(document):
    """The document and each of its edge or point entries."""
    entries = [entry for value in document.values() if isinstance(value, list) for entry in value]
    return [document] + entries


def _deep(draw) -> str:
    depth = draw(st.sampled_from([1000, 5000, 100_000, 200_000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    closed = draw(st.booleans()) and opener == "["  # an unclosed object is truncated too
    return opener * depth + (closer * depth if closed else "")


@st.composite
def malformed(draw, valid):
    """The text of ``valid`` broken in one way."""
    document = json.loads(json.dumps(valid))
    kind = draw(st.sampled_from(["truncate", "nest", "value", "missing", "extra"]))
    if kind == "truncate":
        text = json.dumps(document, indent=2)
        return text[: draw(st.integers(0, text.rindex("}")))]
    if kind == "nest":
        if draw(st.booleans()):
            return _deep(draw)
        container, key = draw(st.sampled_from(list(_leaves(document))))
        container[key] = NEST
    elif kind == "value":
        container, key = draw(st.sampled_from(list(_leaves(document))))
        container[key] = draw(st.sampled_from(BAD[key]))
    elif kind == "missing":
        container = draw(st.sampled_from(_containers(document)))
        del container[draw(st.sampled_from(sorted(container)))]
    else:
        draw(st.sampled_from(_containers(document)))["note"] = draw(st.sampled_from([0, "x", None]))
    text = json.dumps(document)
    text = text.replace(f'"{BIG}"', "9" * 5000)
    return text.replace(f'"{NEST}"', _deep(draw)) if NEST in text else text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "good.json").write_text(json.dumps(GRAPH))
    return path


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(
    max_examples=25,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_malformed_document_exits_with_one_error_line(workdir, command, data):
    valid, template = COMMANDS[command]
    text = data.draw(malformed(valid), label="document")
    doc, out = workdir / "doc.json", workdir / "out"
    doc.write_text(text)
    shutil.rmtree(out, ignore_errors=True)  # left by a failed example
    substitutions = {DOC: str(doc), "<good>": str(workdir / "good.json"), "<out>": str(out)}
    argv = [substitutions.get(token, token) for token in template]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (2, 3)
    assert stdout.getvalue() == ""
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()
    assert elapsed < 1
