import itertools
from fractions import Fraction

import pytest

from wdglab import (
    BadIndexError,
    CertificateComplexity,
    PartialBooleanFunction,
    SizeBudgetExceededError,
    and_family_table,
    and_family_wdg,
    and_indicator,
    and_indicator_recursive,
    certificate_complexity,
    f_value,
    l1_norm,
    randomized_query_scale,
    subset_products,
)

F = Fraction


class TestAndIndicator:
    def test_golden(self):
        assert and_indicator((1, 1, 1)) == 1
        assert and_indicator((1, -1, 1)) == 0
        assert and_indicator((1,)) == 1
        assert and_indicator((-1,)) == 0

    def test_recursion_matches_closed_form(self):
        for k in range(1, 11):
            for bits in itertools.product((-1, 1), repeat=k):
                product = 1
                for b in bits:
                    product *= b + 1
                assert and_indicator(bits) == product // 2 ** k
                assert and_indicator_recursive(bits) == and_indicator(bits)

    def test_validation(self):
        with pytest.raises(BadIndexError):
            and_indicator(())
        with pytest.raises(BadIndexError):
            and_indicator((1, 0))


class TestSubsetProducts:
    def test_single_bit(self):
        assert subset_products((1,)) == (1,)
        assert subset_products((-1,)) == (-1,)

    def test_all_ones(self):
        assert subset_products((1, 1)) == (1, 1, 1)

    def test_fixed_ordering(self):
        # coordinates are (x2, x1, x1*x2) for bits (x1, x2)
        assert subset_products((1, -1)) == (-1, 1, -1)

    def test_length(self):
        for k in range(1, 7):
            assert len(subset_products((1,) * k)) == 2 ** k - 1


class TestAndFamilyWdg:
    def test_k1(self):
        wide = and_family_wdg(1)
        assert [(e.u, e.v, e.weight) for e in wide.edges] == [(0, 1, F(1))]
        norm = and_family_wdg(1, normalized=True)
        assert f_value(norm, (1,)) == 1
        assert f_value(norm, (-1,)) == 0

    def test_k2_weights(self):
        wide = and_family_wdg(2)
        assert len(wide.edges) == 3
        assert all(e.weight == F(1, 2) for e in wide.edges)

    def test_wide_form_is_sign_encoding(self):
        for k in range(1, 5):
            wide = and_family_wdg(k)
            for bits in itertools.product((-1, 1), repeat=k):
                expected = 2 * and_indicator(bits) - 1
                assert f_value(wide, subset_products(bits)) == expected

    def test_normalized_form_matches_indicator(self):
        for k in range(1, 5):
            norm = and_family_wdg(k, normalized=True)
            for bits in itertools.product((-1, 1), repeat=k):
                assert f_value(norm, subset_products(bits)) == and_indicator(bits)

    def test_forms_differ_by_spread_rescaling(self):
        # the wide form spans {-1, +1} on subset-product inputs (spread 2);
        # halving weights and re-shifting gives exactly the normalized form
        for k in range(1, 5):
            wide = and_family_wdg(k)
            norm = and_family_wdg(k, normalized=True)
            assert [e.weight / 2 for e in wide.edges] == [e.weight for e in norm.edges]

    def test_l1_norm_growth(self):
        values = []
        for k in range(1, 6):
            wide = and_family_wdg(k)
            assert l1_norm(wide) == F(2 ** k - 1, 2 ** (k - 1))
            values.append(l1_norm(wide))
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2 for v in values)

    def test_budget(self):
        with pytest.raises(SizeBudgetExceededError):
            and_family_wdg(21)
        with pytest.raises(BadIndexError):
            and_family_wdg(0)

    def test_huge_k_is_refused_before_the_shift(self):
        with pytest.raises(SizeBudgetExceededError):
            and_family_wdg(10**30)


def naive_certificates(f):
    """Reference implementation: plain min-over-subsets, max-over-points."""
    domain = list(f.table.items())
    worst = {0: 0, 1: 0}
    for x, value in domain:
        for size in range(f.arity + 1):
            found = False
            for subset in itertools.combinations(range(f.arity), size):
                if all(
                    fy == value
                    for y, fy in domain
                    if all(y[i] == x[i] for i in subset)
                ):
                    found = True
                    break
            if found:
                worst[value] = max(worst[value], size)
                break
    return worst[0], worst[1], max(worst.values())


class TestCertificateComplexity:
    def test_and_family(self):
        for k in (1, 2, 3):
            result = certificate_complexity(and_family_table(k))
            assert (result.c0, result.c1) == (1, k)
            assert result.c == k

    def test_constant_zero(self):
        table = {x: 0 for x in itertools.product((-1, 1), repeat=2)}
        result = certificate_complexity(PartialBooleanFunction(arity=2, table=table))
        assert (result.c0, result.c1, result.c) == (0, 0, 0)

    def test_two_bit_and(self):
        table = {
            (1, 1): 1,
            (1, -1): 0,
            (-1, 1): 0,
            (-1, -1): 0,
        }
        result = certificate_complexity(PartialBooleanFunction(arity=2, table=table))
        assert (result.c0, result.c1, result.c) == (1, 2, 2)

    def test_matches_naive_on_random_tables(self, rng):
        for _ in range(20):
            arity = rng.randint(1, 5)
            points = list(itertools.product((-1, 1), repeat=arity))
            rng.shuffle(points)
            table = {
                x: rng.randint(0, 1)
                for x in points[: rng.randint(1, len(points))]
            }
            f = PartialBooleanFunction(arity=arity, table=table)
            result = certificate_complexity(f)
            assert (result.c0, result.c1, result.c) == naive_certificates(f)

    def test_arity_limit(self):
        # the search budget |domain|**2 * 2**arity <= 2**26 is the only limit
        f = PartialBooleanFunction(arity=21, table={(1,) * 21: 1})
        assert certificate_complexity(f) == CertificateComplexity(c0=0, c1=0, c=0)
        f = PartialBooleanFunction(arity=25, table={(1,) * 25: 1, (-1,) * 25: 0})
        with pytest.raises(SizeBudgetExceededError):
            certificate_complexity(f)

    def test_table_validation(self):
        with pytest.raises(BadIndexError):
            PartialBooleanFunction(arity=2, table={(1,): 1})
        with pytest.raises(BadIndexError):
            PartialBooleanFunction(arity=1, table={(1,): 2})


class TestRandomizedScale:
    def test_perfect_squares(self):
        assert randomized_query_scale(4).scale == 2
        assert randomized_query_scale(4).exact == 2
        assert randomized_query_scale(1).exact == 1
        # extrapolated family member with certificate 9
        assert randomized_query_scale(9).exact == 3

    def test_non_square(self):
        report = randomized_query_scale(2)
        assert report.exact is None
        assert abs(report.scale ** 2 - 2) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(BadIndexError):
            randomized_query_scale(-1)
