from fractions import Fraction

import pytest

from wdglab import (
    BadIndexError,
    DuplicateEdgeError,
    NonzeroDiagonalError,
    NotSymmetricError,
    SelfLoopError,
    as_rational,
    build_wdg,
    evaluate,
    f_value,
    format_assignment,
    format_rational,
    l1_norm,
    l1_norm_with_shift,
    matrix_of,
    parse_assignment,
    total_weight,
    wdg_of_matrix,
)

F = Fraction

SIX_VERTEX_MATRIX = (
    (0, 0, F(1, 8), 0, 0, F(1, 8)),
    (0, 0, F(-1, 8), 0, 0, 0),
    (F(1, 8), F(-1, 8), 0, 0, 0, 0),
    (0, 0, 0, 0, F(-1, 8), 0),
    (0, 0, 0, F(-1, 8), 0, 0),
    (F(1, 8), 0, 0, 0, 0, 0),
)


def quadratic_form(matrix, full_x):
    total = F(0)
    for i, row in enumerate(matrix.entries):
        for j, value in enumerate(row):
            total += value * full_x[i] * full_x[j]
    return total / 2


class TestRationalHelpers:
    def test_as_rational_accepts_int_str_fraction(self):
        assert as_rational(3) == 3
        assert as_rational("3/4") == F(3, 4)
        assert as_rational("-0.25") == F(-1, 4)
        assert as_rational(F(1, 8)) == F(1, 8)

    def test_as_rational_exponents(self):
        assert as_rational("1e3") == 1000
        assert as_rational("25E-2") == F(1, 4)
        assert as_rational("1e-4300") == F(1, 10**4300)
        for text in ("1e4301", "1e-4301", "1e999999999", "1e-999999999", "1e" + "0" * 9 + "5000", "1e" + "9" * 5000):
            with pytest.raises(ValueError):
                as_rational(text)

    def test_as_rational_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)

    def test_format_rational(self):
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-1, 8)) == "-1/8"

    def test_assignment_round_trip(self):
        assert parse_assignment("-++-+") == (-1, 1, 1, -1, 1)
        assert format_assignment((-1, 1, 1, -1, 1)) == "-++-+"
        with pytest.raises(BadIndexError):
            parse_assignment("+x-")


class TestBuild:
    def test_six_vertex_canonical(self, six_vertex_example):
        assert six_vertex_example.dimension == 6
        assert [(e.u, e.v, e.weight) for e in six_vertex_example.edges] == [
            (0, 2, F(1, 8)),
            (0, 5, F(1, 8)),
            (1, 2, F(-1, 8)),
            (3, 4, F(-1, 8)),
        ]
        assert six_vertex_example.shift == F(1, 2)

    def test_empty_graph_value_is_zero(self):
        empty = build_wdg(3, [])
        for x in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert evaluate(empty, x) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_wdg(3, [(1, 1, F(1, 2))])

    def test_reversed_edges_are_swapped(self):
        wdg = build_wdg(3, [(2, 0, F(1, 3))])
        assert (wdg.edges[0].u, wdg.edges[0].v) == (0, 2)

    def test_zero_weights_dropped(self):
        assert build_wdg(3, [(0, 1, 0), (1, 2, F(1, 2))]).edges == build_wdg(
            3, [(1, 2, F(1, 2))]
        ).edges

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_wdg(3, [(0, 1, 1), (1, 0, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(BadIndexError):
            build_wdg(3, [(0, 3, 1)])
        with pytest.raises(BadIndexError):
            build_wdg(0, [])


class TestMatrix:
    def test_six_vertex_matrix(self, six_vertex_example):
        assert matrix_of(six_vertex_example).entries == SIX_VERTEX_MATRIX

    def test_pair_left_matrix(self, pair_left):
        assert matrix_of(pair_left).entries == (
            (0, F(1, 3), F(-1, 6)),
            (F(1, 3), 0, 0),
            (F(-1, 6), 0, 0),
        )

    def test_empty_matrix_is_zero(self):
        assert matrix_of(build_wdg(3, [])).entries == ((0, 0, 0),) * 3

    def test_wdg_of_matrix_inverse(self, pair_left):
        rebuilt = wdg_of_matrix(matrix_of(pair_left), shift=F(1, 2))
        assert rebuilt == pair_left

    def test_wdg_of_matrix_zero(self):
        assert wdg_of_matrix([[0, 0], [0, 0]]).edges == ()

    def test_wdg_of_matrix_rejects_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonalError):
            wdg_of_matrix([[0, 0], [0, 1]])

    def test_wdg_of_matrix_rejects_asymmetry(self):
        with pytest.raises(NotSymmetricError):
            wdg_of_matrix([[0, 1], [2, 0]])

    def test_round_trip_random(self, rng, random_wdg):
        for _ in range(100):
            wdg = random_wdg(rng, rng.randint(1, 8))
            assert wdg_of_matrix(matrix_of(wdg), wdg.shift) == wdg


class TestEvaluate:
    def test_six_vertex_extreme_witnesses(self, six_vertex_example):
        assert evaluate(six_vertex_example, (-1, 1, 1, -1, 1)) == F(1, 2)
        assert evaluate(six_vertex_example, (-1, -1, 1, 1, -1)) == F(-1, 2)

    def test_six_vertex_all_ones(self, six_vertex_example):
        # 1/8 + 1/8 - 1/8 - 1/8
        assert evaluate(six_vertex_example, (1, 1, 1, 1, 1)) == 0

    def test_length_mismatch(self, six_vertex_example):
        with pytest.raises(BadIndexError):
            evaluate(six_vertex_example, (1, 1, 1))
        with pytest.raises(BadIndexError):
            evaluate(six_vertex_example, (1, 1, 1, 1, 2))

    def test_f_value_at_witnesses(self, six_vertex_example):
        assert f_value(six_vertex_example, (-1, 1, 1, -1, 1)) == 1
        assert f_value(six_vertex_example, (-1, -1, 1, 1, -1)) == 0

    def test_f_value_constant_graph(self):
        constant = build_wdg(4, [], shift=F(3, 4))
        assert f_value(constant, (1, -1, 1)) == F(3, 4)

    def test_quadratic_form_identity_random(self, rng, random_wdg):
        for _ in range(60):
            wdg = random_wdg(rng, rng.randint(1, 7))
            matrix = matrix_of(wdg)
            x = tuple(rng.choice((-1, 1)) for _ in range(wdg.num_variables))
            assert evaluate(wdg, x) == quadratic_form(matrix, (1,) + x)


class TestNorms:
    def test_l1_norm_golden(self, pair_left, pair_right):
        assert l1_norm(pair_left) == F(1, 2)
        assert l1_norm(pair_right) == F(2, 3)
        assert l1_norm(build_wdg(3, [])) == 0

    def test_l1_matches_upper_triangle(self, rng, random_wdg):
        for _ in range(40):
            wdg = random_wdg(rng, rng.randint(1, 7))
            entries = matrix_of(wdg).entries
            upper = sum(
                (abs(entries[i][j]) for i in range(wdg.dimension) for j in range(i + 1, wdg.dimension)),
                F(0),
            )
            assert l1_norm(wdg) == upper

    def test_total_weight_golden(self, six_vertex_example, pair_left):
        assert total_weight(six_vertex_example) == 0
        assert total_weight(pair_left) == F(1, 6)
        assert total_weight(build_wdg(2, [])) == 0

    def test_total_weight_is_all_ones_value(self, rng, random_wdg):
        for _ in range(40):
            wdg = random_wdg(rng, rng.randint(1, 7))
            assert total_weight(wdg) == evaluate(wdg, (1,) * wdg.num_variables)

    def test_shift_additivity(self, rng, random_wdg):
        for _ in range(30):
            wdg = random_wdg(rng, rng.randint(1, 6))
            c = F(rng.randint(-5, 5), rng.randint(1, 9))
            shifted = build_wdg(
                wdg.dimension,
                [(e.u, e.v, e.weight) for e in wdg.edges],
                wdg.shift + c,
            )
            x = tuple(rng.choice((-1, 1)) for _ in range(wdg.num_variables))
            assert f_value(shifted, x) == f_value(wdg, x) + c
            assert l1_norm_with_shift(wdg) == l1_norm(wdg) + abs(wdg.shift)
