import importlib
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdglab import (
    ComposedResult,
    SizeBudgetExceededError,
    WdgError,
    build_wdg,
    compose,
    compose_and,
    compose_or,
    evaluate,
    f_value,
    identity,
    iterate_compose,
    kronecker,
    l1_norm,
    l1_norm_with_shift,
    matrix,
    matrix_of,
    predicted_l1,
    product_assignment,
    support_classes,
    wdg_of_matrix,
)
from wdglab.core import scale_to_integers

F = Fraction

# the published 9x9 AND example contains three typos in its upper triangle
# ((0,3), (0,7), (1,4)); the lower triangle is consistent with the formula.
AND_9X9_LOWER = [
    ["0"],
    ["1/24", "0"],
    ["1/36", "-1/24", "0"],
    ["2/27", "1/24", "1/36", "0"],
    ["1/24", "2/27", "-1/24", "1/24", "0"],
    ["1/36", "-1/24", "2/27", "1/36", "-1/24", "0"],
    ["-1/27", "-1/48", "-1/72", "0", "0", "0", "0"],
    ["-1/48", "-1/27", "1/48", "0", "0", "0", "1/24", "0"],
    ["-1/72", "1/48", "-1/27", "0", "0", "0", "1/36", "-1/24", "0"],
]


def product_points(d1, d2):
    for xa in itertools.product((-1, 1), repeat=d1.num_variables):
        for xb in itertools.product((-1, 1), repeat=d2.num_variables):
            yield xa, xb


class TestGoldenPair:
    def test_and_norm_and_value(self, pair_left, pair_right):
        result = compose_and(pair_left, pair_right)
        assert result.predicted_l1 == 1
        assert l1_norm(result.wdg) == 1
        assert result.shift == result.wdg.shift == F(1, 3)
        witness = product_assignment((1, -1), (1, -1))
        assert evaluate(result.wdg, witness) == F(2, 3)
        assert f_value(result.wdg, witness) == 1

    def test_or_norm_and_value(self, pair_left, pair_right):
        result = compose_or(pair_left, pair_right)
        assert result.predicted_l1 == F(5, 6)
        assert l1_norm(result.wdg) == F(5, 6)
        assert result.shift == F(5, 6)
        witness = product_assignment((1, -1), (1, -1))
        assert evaluate(result.wdg, witness) == F(1, 6)
        assert f_value(result.wdg, witness) == 1

    def test_and_matrix_against_published_lower_triangle(self, pair_left, pair_right):
        entries = matrix_of(compose_and(pair_left, pair_right).wdg).entries
        for i, row in enumerate(AND_9X9_LOWER):
            for j, text in enumerate(row):
                assert entries[i][j] == F(text), (i, j)

    def test_composed_matrices_are_valid(self, pair_left, pair_right):
        for mode in ("and", "or"):
            m = matrix_of(compose(mode, pair_left, pair_right).wdg)
            for i in range(m.dimension):
                assert m.entries[i][i] == 0
                for j in range(m.dimension):
                    assert m.entries[i][j] == m.entries[j][i]


def _combine(*terms):
    """The matrix sum of coefficient * matrix over ``terms``."""
    first = terms[0][1]
    return matrix(
        [
            [sum(c * t.entries[i][j] for c, t in terms) for j in range(first.cols)]
            for i in range(first.rows)
        ]
    )


def dense_compose(mode, d1, d2):
    """The composition as a sum of dense Kronecker products of matrices."""
    n, m = d1.dimension, d2.dimension
    k1, k2 = d1.shift, d2.shift
    m1, m2 = matrix(matrix_of(d1).entries), matrix(matrix_of(d2).entries)
    if mode == "and":
        a = _combine((1, m1), (2 * k1 / n, identity(n)))
        b = _combine((1, m2), (2 * k2 / m, identity(m)))
        composed = _combine(
            (F(1, 2), kronecker(a, b)), (-2 * k1 * k2 / (n * m), identity(n * m))
        )
        shift = k1 * k2
    else:
        kr1 = _combine(((1 - k1) / n, identity(n)))
        kr2 = _combine(((1 - k2) / m, identity(m)))
        mr1 = _combine((1, kr1), (F(-1, 2), m1))
        mr2 = _combine((1, kr2), (F(-1, 2), m2))
        composed = _combine((2, kronecker(kr1, kr2)), (-2, kronecker(mr1, mr2)))
        shift = k1 + k2 - k1 * k2
    wdg = wdg_of_matrix(composed.entries, shift=shift)
    expected = predicted_l1(mode, l1_norm(d1), k1, l1_norm(d2), k2)
    return ComposedResult(wdg=wdg, shift=shift, predicted_l1=expected, mode=mode)


@st.composite
def factors(draw):
    """A graph of 1 to 6 vertices with small rational weights; shifts of 0
    and 1 zero the diagonal coefficients K/n (AND) and (1-K)/n (OR)."""
    n = draw(st.integers(1, 6))
    rationals = st.builds(F, st.integers(-16, 16), st.integers(1, 16))
    weights = st.just(0) | rationals  # zero weights are dropped
    edges = [(u, v, draw(weights)) for u in range(n) for v in range(u + 1, n)]
    return build_wdg(n, edges, draw(st.sampled_from((0, 1)) | rationals))


class TestDenseReference:
    def test_golden_pair(self, pair_left, pair_right):
        for mode in ("and", "or"):
            assert compose(mode, pair_left, pair_right) == dense_compose(
                mode, pair_left, pair_right
            )

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(d1=factors(), d2=factors())
    def test_random_pairs(self, d1, d2):
        for mode in ("and", "or"):
            result = compose(mode, d1, d2)
            assert result == dense_compose(mode, d1, d2), mode
            # the stored form is least and equals the one build_wdg makes
            wdg = result.wdg
            assert gcd(wdg.denom, *(w for _, _, w in wdg.int_edges)) == 1, mode
            edges = [(e.u, e.v, e.weight) for e in wdg.edges]
            rebuilt = build_wdg(wdg.dimension, edges, wdg.shift)
            assert hash(wdg) == hash(rebuilt), mode

    def test_composite_ints_past_int64(self):
        # coprime denominators near 2**61 and 10**9: over their common
        # denominator the composite weights need well over 64 bits
        d1 = build_wdg(
            3, [(0, 1, F(5, 2**61 - 1)), (1, 2, F(-7, 10**9 + 7))], F(3, 10**9 + 9)
        )
        d2 = build_wdg(
            3, [(0, 2, F(2**40 + 1, 998244353)), (1, 2, F(1, 2**31 - 1))], F(-1, 3)
        )
        for mode in ("and", "or"):
            result = compose(mode, d1, d2)
            assert result == dense_compose(mode, d1, d2), mode
            _, ints = scale_to_integers([e.weight for e in result.wdg.edges])
            assert max(map(abs, ints)) > 2**63, mode

    @pytest.mark.parametrize(
        "mode, unit",
        [("and", 0), ("or", 1)],
        ids=["and-shift-0", "or-shift-1"],
    )
    def test_zero_role_coefficient(self, pair_left, pair_right, mode, unit):
        # the right shift zeroes the left-edge x diagonal coefficient, the
        # left shift the diagonal x right-edge one, and both at once
        def shifted(wdg, shift):
            return build_wdg(wdg.dimension, [(e.u, e.v, e.weight) for e in wdg.edges], shift)

        left, right = pair_left, pair_right
        e1, e2 = len(left.edges), len(right.edges)
        pair_edges = 2 * e1 * e2
        left_edges = e1 * right.dimension  # left edge x right diagonal
        right_edges = e2 * left.dimension  # left diagonal x right edge
        cases = {
            "left role": (left, shifted(right, unit), pair_edges + right_edges),
            "right role": (shifted(left, unit), right, pair_edges + left_edges),
            "both": (shifted(left, unit), shifted(right, unit), pair_edges),
        }
        for name, (d1, d2, edges) in cases.items():
            result = compose(mode, d1, d2)
            assert result == dense_compose(mode, d1, d2), name
            assert len(result.wdg.edges) == edges, name
            assert all(e.weight != 0 for e in result.wdg.edges), name


class TestUnitElements:
    def test_and_with_constant_one(self, pair_left):
        unit = build_wdg(1, [], shift=1)
        result = compose_and(pair_left, unit)
        assert matrix_of(result.wdg).entries == matrix_of(pair_left).entries
        assert result.shift == pair_left.shift

    def test_or_with_constant_zero(self, pair_left):
        zero = build_wdg(1, [], shift=0)
        result = compose_or(pair_left, zero)
        assert matrix_of(result.wdg).entries == matrix_of(pair_left).entries
        assert result.shift == pair_left.shift


class TestPredictedL1:
    def test_golden_values(self):
        assert predicted_l1("and", F(1, 2), F(1, 2), F(2, 3), F(2, 3)) == 1
        assert predicted_l1("or", F(1, 2), F(1, 2), F(2, 3), F(2, 3)) == F(5, 6)

    def test_zero_shifts_multiply(self):
        assert predicted_l1("and", F(3, 4), 0, F(2, 5), 0) == F(3, 10)

    def test_bad_mode(self):
        with pytest.raises(WdgError):
            predicted_l1("xor", 1, 0, 1, 0)


class TestSemantics:
    def test_identities_on_random_pairs(self, rng, random_wdg):
        for _ in range(25):
            d1 = random_wdg(rng, rng.randint(1, 4))
            d2 = random_wdg(rng, rng.randint(1, 4))
            k1, k2 = d1.shift, d2.shift
            both = {
                "and": compose_and(d1, d2),
                "or": compose_or(d1, d2),
            }
            assert both["and"].wdg.shift == k1 * k2
            assert both["or"].wdg.shift == k1 + k2 - k1 * k2
            for xa, xb in product_points(d1, d2):
                fa, fb = f_value(d1, xa), f_value(d2, xb)
                xx = product_assignment(xa, xb)
                assert evaluate(both["and"].wdg, xx) == fa * fb - k1 * k2
                assert (
                    evaluate(both["or"].wdg, xx)
                    == fa + fb - fa * fb - (k1 + k2 - k1 * k2)
                )

    def test_norm_exactness_on_random_pairs(self, rng, random_wdg):
        for _ in range(40):
            d1 = random_wdg(rng, rng.randint(1, 5))
            d2 = random_wdg(rng, rng.randint(1, 5))
            for mode in ("and", "or"):
                result = compose(mode, d1, d2)
                assert result.predicted_l1 == l1_norm(result.wdg)

    def test_class_semantics(self, pair_left, pair_right):
        left = support_classes(pair_left)
        right = support_classes(pair_right)
        assert left.s_plus and left.s_minus and right.s_plus and right.s_minus
        and_graph = compose_and(pair_left, pair_right).wdg
        or_graph = compose_or(pair_left, pair_right).wdg
        products = [
            product_assignment(xa, xb)
            for xa in left.s_plus | left.s_minus
            for xb in right.s_plus | right.s_minus
        ]
        and_classes = support_classes(and_graph, domain=products)
        or_classes = support_classes(or_graph, domain=products)
        for xa in left.s_plus | left.s_minus:
            for xb in right.s_plus | right.s_minus:
                xx = product_assignment(xa, xb)
                both_plus = xa in left.s_plus and xb in right.s_plus
                both_minus = xa in left.s_minus and xb in right.s_minus
                assert f_value(and_graph, xx) == (1 if both_plus else 0)
                assert f_value(or_graph, xx) == (0 if both_minus else 1)
                # every product point lands in a class of the composed graph
                assert xx in (and_classes.s_plus if both_plus else and_classes.s_minus)
                assert xx in (or_classes.s_minus if both_minus else or_classes.s_plus)


class TestIterate:
    def test_depth_one_is_base(self, pair_right):
        stages = iterate_compose(pair_right, 1, "and")
        assert len(stages) == 1
        assert stages[0].wdg == pair_right
        assert stages[0].predicted_l1 == F(2, 3)

    def test_and_sequence_from_pair_right(self, pair_right):
        stages = iterate_compose(pair_right, 3, "and")
        assert [s.predicted_l1 for s in stages] == [F(2, 3), F(4, 3), F(56, 27)]

    def test_and_sequence_from_pair_left(self, pair_left):
        stages = iterate_compose(pair_left, 2, "and")
        assert stages[1].predicted_l1 == F(3, 4)

    def test_monotone_growth(self, pair_right):
        stages = iterate_compose(pair_right, 4, "and")
        norms = [l1_norm_with_shift(s.wdg) for s in stages]
        assert all(a < b for a, b in zip(norms, norms[1:]))
        assert norms[0] == F(4, 3)

    def test_budget_enforced(self, pair_right):
        # 3**7 = 2187 vertices in the last stage; 3**6 = 729 would fit
        with pytest.raises(SizeBudgetExceededError):
            iterate_compose(pair_right, 7, "and")

    def test_one_vertex_depth_is_bounded(self):
        base = build_wdg(1, [], shift=F(1, 2))
        # the depth a two-vertex base reaches: 2**10 vertices fit 1024
        stages = iterate_compose(base, 10, "and")
        assert [s.wdg.shift for s in stages] == [F(1, 2**i) for i in range(1, 11)]
        for mode in ("and", "or"):
            with pytest.raises(SizeBudgetExceededError):
                iterate_compose(base, 11, mode)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_limits_on_empty_graphs(self, n):
        base = build_wdg(n, [], shift=F(1, 2))
        for m in range(1, 41):
            other = build_wdg(m, [], shift=F(1, 3))
            if n * m > 1024:
                with pytest.raises(SizeBudgetExceededError):
                    compose("and", base, other)
            else:
                assert compose("and", base, other).wdg.dimension == n * m
        for depth in range(1, 13):
            if depth > 10 or n**depth > 1024:
                with pytest.raises(SizeBudgetExceededError):
                    iterate_compose(base, depth, "or")
            else:
                assert len(iterate_compose(base, depth, "or")) == depth

    def test_depth_one_composes_nothing(self):
        base = build_wdg(2000, [], shift=F(1, 2))
        assert [s.wdg for s in iterate_compose(base, 1, "and")] == [base]

    def test_refused_before_any_stage_is_built(self, monkeypatch):
        # stage 2 of a 32-vertex base has 1024 vertices and fits; stage 3 does not
        edges = [(u, v, F(1, 2)) for u, v in itertools.combinations(range(32), 2)]
        base = build_wdg(32, edges)
        module = importlib.import_module("wdglab.compose")
        builds = []
        build = module._build
        monkeypatch.setattr(module, "_build", lambda *args: builds.append(1) or build(*args))
        with pytest.raises(SizeBudgetExceededError):
            iterate_compose(base, 3, "and")
        assert builds == []

    def test_bad_depth(self, pair_right):
        with pytest.raises(WdgError):
            iterate_compose(pair_right, 0, "and")
