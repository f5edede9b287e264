import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdglab import (
    PartialFunctionSpec,
    advantage_indicator,
    and_family_table,
    build_wdg,
    format_rational,
    l1_norm,
    l1_norm_with_shift,
    vertex_weight_bound,
)
from wdglab.documents import (
    _wdg_fields,
    parse_function_document,
    parse_target_document,
    parse_wdg_document,
    report_document,
    serialize_function_table,
    serialize_report,
    serialize_target,
    serialize_wdg,
)
from wdglab.errors import DocumentError
from wdglab.oracle import SCAN_TIME_LIMIT

F = Fraction


class TestWdgDocument:
    def test_round_trip(self, six_vertex_example):
        text = serialize_wdg(six_vertex_example)
        assert parse_wdg_document(text) == six_vertex_example
        # canonical serialization is byte-stable
        assert serialize_wdg(parse_wdg_document(text)) == text

    def test_document_shape(self, six_vertex_example):
        document = json.loads(serialize_wdg(six_vertex_example))
        assert document["format_version"] == 1
        assert document["dimension"] == 6
        assert document["shift"] == "1/2"
        assert document["edges"][0] == {"u": 0, "v": 2, "w": "1/8"}

    def test_non_canonical_input_is_canonicalized(self):
        text = json.dumps(
            {
                "format_version": 1,
                "dimension": 3,
                "shift": "0",
                "edges": [{"u": 2, "v": 0, "w": "1/3"}],
            }
        )
        wdg = parse_wdg_document(text)
        assert (wdg.edges[0].u, wdg.edges[0].v) == (0, 2)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"format_version": 2},
            {"shift": 0.5},
            {"dimension": "6"},
            {"edges": [{"u": 0, "v": 1, "w": 0.125}]},
            {"edges": [{"u": 0, "v": 1}]},
            {"edges": [{"u": 0, "v": 0, "w": "1/8"}]},
            {"edges": [{"u": 0, "v": 9, "w": "1/8"}]},
            {"extra": 1},
            {"format_version": True},  # true and 1.0 compare equal to 1
            {"format_version": 1.0},
        ],
    )
    def test_invalid_documents_rejected(self, mutation):
        document = {
            "format_version": 1,
            "dimension": 3,
            "shift": "1/2",
            "edges": [{"u": 0, "v": 1, "w": "1/8"}],
        }
        document.update(mutation)
        with pytest.raises(DocumentError):
            parse_wdg_document(json.dumps(document))

    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse_wdg_document("not json {")
        with pytest.raises(DocumentError):
            parse_wdg_document("[1, 2]")


# Large coprime denominators: a graph that draws several of them has a
# common denominator past 2**63, well inside the parser's caps.
LARGE_DENOMINATORS = (2**61 - 1, 2**89 - 1, 10**9 + 7, 10**9 + 9, 998244353)


@st.composite
def rationals(draw):
    kind = draw(st.sampled_from(("integer", "small", "large")))
    numerator = draw(st.integers(-(2**70), 2**70) if kind == "large" else st.integers(-50, 50))
    if kind == "integer":
        return Fraction(numerator)
    if kind == "small":
        return Fraction(numerator, draw(st.integers(1, 64)))
    return Fraction(numerator, draw(st.sampled_from(LARGE_DENOMINATORS)))


@st.composite
def graphs(draw):
    dimension = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(dimension) for v in range(u + 1, dimension)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    edges = [(u, v, draw(rationals())) for u, v in chosen]
    return build_wdg(dimension, edges, draw(rationals()))


class TestWdgDocumentProperties:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(graphs())
    def test_writer_matches_json_dumps(self, wdg):
        text = serialize_wdg(wdg)
        assert text == json.dumps(_wdg_fields(wdg), indent=2) + "\n"
        assert parse_wdg_document(text) == wdg
        assert serialize_wdg(parse_wdg_document(text)) == text


def point_lists(length):
    """Distinct (input, value) pairs, each input a tuple of ``length`` signs."""
    inputs = st.tuples(*[st.sampled_from((-1, 1))] * length)
    return st.lists(st.tuples(inputs, st.integers(0, 1)), unique=True, max_size=20)


def document_text(fields: dict, points) -> str:
    """A document laid out as the writers lay it out, built without them."""
    fields["points"] = [
        {"input": "".join("+" if v == 1 else "-" for v in x), "value": t} for x, t in points
    ]
    return json.dumps(fields, indent=2) + "\n"


@st.composite
def target_documents(draw):
    """Fields in writer order, a canonical epsilon, points in drawn order."""
    dimension = draw(st.integers(1, 12))
    epsilon = abs(draw(rationals()))
    points = draw(point_lists(dimension - 1))
    fields = {"format_version": 1, "dimension": dimension, "epsilon": str(epsilon)}
    return document_text(fields, points)


@st.composite
def function_documents(draw):
    """A partial table, one value per input, its points sorted by input."""
    arity = draw(st.integers(0, 10))
    table = dict(draw(point_lists(arity)))
    return document_text({"format_version": 1, "arity": arity}, sorted(table.items()))


class TestDocumentProperties:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(target_documents())
    def test_target_parse_serialize_identity(self, text):
        assert serialize_target(parse_target_document(text)) == text

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(function_documents())
    def test_function_table_parse_serialize_identity(self, text):
        assert serialize_function_table(parse_function_document(text)) == text


class TestTargetDocument:
    def test_round_trip(self):
        spec = PartialFunctionSpec(
            dimension=6,
            points=(((-1, 1, 1, -1, 1), 1), ((-1, -1, 1, 1, -1), 0)),
            epsilon=F(1, 10),
        )
        text = serialize_target(spec)
        assert parse_target_document(text) == spec
        assert serialize_target(parse_target_document(text)) == text

    def test_bad_point_length(self):
        text = json.dumps(
            {
                "format_version": 1,
                "dimension": 3,
                "epsilon": "0",
                "points": [{"input": "+", "value": 1}],
            }
        )
        with pytest.raises(DocumentError):
            parse_target_document(text)

    def test_bad_value(self):
        text = json.dumps(
            {
                "format_version": 1,
                "dimension": 3,
                "epsilon": "0",
                "points": [{"input": "++", "value": 2}],
            }
        )
        with pytest.raises(DocumentError):
            parse_target_document(text)

    @pytest.mark.parametrize("value", [1.0, 0.0, True, "1"])
    def test_value_must_be_int(self, value):
        text = json.dumps(
            {
                "format_version": 1,
                "dimension": 3,
                "epsilon": "0",
                "points": [{"input": "++", "value": value}],
            }
        )
        with pytest.raises(DocumentError):
            parse_target_document(text)


class TestFunctionDocument:
    def test_round_trip(self):
        table = and_family_table(2)
        text = serialize_function_table(table)
        parsed = parse_function_document(text)
        assert parsed.arity == table.arity
        assert dict(parsed.table) == dict(table.table)

    def test_conflicting_values(self):
        text = json.dumps(
            {
                "format_version": 1,
                "arity": 2,
                "points": [
                    {"input": "++", "value": 1},
                    {"input": "++", "value": 0},
                ],
            }
        )
        with pytest.raises(DocumentError):
            parse_function_document(text)


class TestReport:
    def test_six_vertex_report(self, six_vertex_example):
        document = report_document(six_vertex_example)
        assert document["l1_norm"] == "1/2"
        assert document["l1_with_shift"] == "1"
        assert document["delta"] == "1"
        assert document["epsilon_bound"] == "1/4"
        assert document["advantage_indicator"] == "1"
        assert document["exact"] is True
        assert document["argmax"] == "-+-++"

    def test_empty_graph_report(self):
        document = report_document(build_wdg(3, []))
        assert document["l1_norm"] == "0"
        assert document["delta"] == "0"

    def test_pair_right_report(self, pair_right):
        assert report_document(pair_right)["l1_norm"] == "2/3"

    def test_bounds_only_report(self):
        wide = build_wdg(30, [(0, 1, F(1, 2))])
        document = report_document(wide)
        assert document["exact"] is False
        assert "delta" not in document
        assert document["delta_lower"] == "1"
        assert document["delta_upper"] == "1"

    def test_fields_match_library_operations(self, rng, random_wdg):
        graphs = [random_wdg(rng, rng.randint(1, 8)) for _ in range(20)]
        graphs += [random_wdg(rng, 30, edge_probability=0.1) for _ in range(3)]
        for wdg in graphs:
            document = report_document(wdg)
            assert document["exact"] is (wdg.num_variables <= SCAN_TIME_LIMIT)
            assert document["l1_norm"] == format_rational(l1_norm(wdg))
            assert document["l1_with_shift"] == format_rational(l1_norm_with_shift(wdg))
            assert document["epsilon_bound"] == format_rational(vertex_weight_bound(wdg))
            assert document["advantage_indicator"] == format_rational(advantage_indicator(wdg))

    def test_plain_rendering(self, six_vertex_example):
        text = serialize_report(report_document(six_vertex_example), plain=True)
        lines = text.strip().split("\n")
        assert "l1_norm=1/2" in lines
        assert "delta=1" in lines
        assert "exact=true" in lines

    def test_fixed_key_order(self, six_vertex_example):
        document = report_document(six_vertex_example)
        assert list(document) == [
            "l1_norm",
            "l1_with_shift",
            "exact",
            "delta",
            "delta_lower",
            "delta_upper",
            "epsilon_bound",
            "advantage_indicator",
            "argmax",
            "argmin",
        ]
