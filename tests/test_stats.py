"""Gamma-Q, Yates chi-square, Bonferroni pairs, and the rank-sum test,
each checked against an independent reference."""

import math
import random
from itertools import combinations

import numpy as np
import pytest
from scipy import special
from scipy import stats as scipy_stats

from termbridge.errors import DataError
from termbridge.stats import (
    bonferroni_pairwise,
    chi_square_survival,
    chi_square_yates,
    gamma_q,
    midranks,
    wilcoxon_rank_sum_one_sided,
)


class TestGammaQ:
    def test_grid_against_scipy(self):
        for df in range(1, 31):
            for x2 in range(0, 101):
                mine = gamma_q(df / 2.0, x2 / 2.0)
                ref = float(special.gammaincc(df / 2.0, x2 / 2.0))
                assert math.isclose(mine, ref, rel_tol=1e-8, abs_tol=1e-10), (df, x2)

    def test_boundary_q_of_zero_is_one(self):
        assert gamma_q(0.5, 0.0) == 1.0

    def test_fractional_shapes(self):
        rng = random.Random(0)
        for _ in range(200):
            a = rng.uniform(0.1, 40.0)
            x = rng.uniform(0.0, 120.0)
            assert math.isclose(
                gamma_q(a, x), float(special.gammaincc(a, x)), rel_tol=1e-8, abs_tol=1e-12
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_q(1.0, -1.0)


class TestChiSquareYates:
    def test_proportional_table_clamps_to_zero(self):
        result = chi_square_yates([[10, 20], [30, 60]])
        assert result.statistic == 0.0
        assert result.p_value >= 0.5
        assert result.p_value == 1.0

    def test_hand_computed_two_by_two(self):
        # marginals 25/25, N=50 -> E = 12.5 everywhere; |O-E| - 0.5 = 7
        # chi2 = 4 * 49 / 12.5 = 15.68; p = erfc(sqrt(15.68 / 2))
        result = chi_square_yates([[20, 5], [5, 20]])
        assert result.statistic == pytest.approx(15.68, abs=1e-12)
        assert result.df == 1
        assert result.p_value == pytest.approx(math.erfc(math.sqrt(15.68 / 2.0)), rel=1e-12)

    def test_zero_statistic_gives_p_one(self):
        assert chi_square_survival(0.0, 1) == 1.0

    def test_p_monotone_decreasing_in_statistic(self):
        for df in (1, 5, 14, 23):
            values = [chi_square_survival(x2 / 2.0, df) for x2 in range(0, 200)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_degrees_of_freedom(self):
        table = [[5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]
        assert chi_square_yates(table).df == 6

    def test_zero_marginal(self):
        # No expected count in a zero row or column, so no statistic.
        assert chi_square_yates([[0, 0], [5, 5]]) is None
        assert chi_square_yates([[4, 0], [5, 0]]) is None
        assert chi_square_yates([[4, 0, 1], [5, 0, 2]]) is None

    def test_malformed_table(self):
        with pytest.raises(ValueError):
            chi_square_yates([[1, 2]])
        with pytest.raises(ValueError):
            chi_square_yates([[1], [2]])

    def test_matches_scipy_on_random_two_by_two(self):
        rng = random.Random(31)
        for _ in range(200):
            table = [[rng.randint(1, 200), rng.randint(1, 200)] for _ in range(2)]
            mine = chi_square_yates(table)
            ref = scipy_stats.chi2_contingency(np.array(table), correction=True)
            assert mine.statistic == pytest.approx(float(ref.statistic), rel=1e-12, abs=1e-12)
            assert mine.p_value == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-12)

    def test_correction_never_inflates(self):
        rng = random.Random(13)
        for _ in range(100):
            table = [[rng.randint(1, 50) for _ in range(3)] for _ in range(3)]
            corrected = chi_square_yates(table).statistic
            rows = np.array(table, dtype=float)
            expected = rows.sum(axis=1, keepdims=True) * rows.sum(axis=0) / rows.sum()
            uncorrected = float(((rows - expected) ** 2 / expected).sum())
            assert corrected <= uncorrected + 1e-12


class TestBonferroniPairwise:
    def test_identical_sites_not_significant(self):
        result = bonferroni_pairwise([("a", 50, 50), ("b", 50, 50)], 0.05)
        assert len(result.tests) == 1
        assert not result.tests[0].significant
        assert result.fraction_significant == 0.0

    def test_threshold_is_alpha_over_pair_count(self):
        result = bonferroni_pairwise([("a", 10, 10), ("b", 10, 10), ("c", 10, 10)], 0.05)
        assert len(result.tests) == 3
        assert result.adjusted_alpha == pytest.approx(0.05 / 3)

    def test_pair_without_result_is_counted_not_significant(self):
        # a and b cover all their concepts: their table has a zero column.
        result = bonferroni_pairwise([("a", 10, 0), ("b", 5, 0), ("c", 0, 40)], 0.05)
        assert [t.result is None for t in result.tests] == [True, False, False]
        assert not result.tests[0].significant
        assert result.adjusted_alpha == pytest.approx(0.05 / 3)
        assert result.fraction_significant == pytest.approx(sum(t.significant for t in result.tests) / 3)

    def test_single_site_no_pairs(self):
        result = bonferroni_pairwise([("a", 10, 10)], 0.05)
        assert result.tests == ()
        assert result.fraction_significant == 0.0

    def test_outlier_site_flags_expected_pairs(self):
        sites = [("a", 900, 100), ("b", 910, 90), ("c", 890, 110), ("weird", 500, 500)]
        result = bonferroni_pairwise(sites, 0.05)
        flagged = {(t.site_a, t.site_b) for t in result.tests if t.significant}
        assert flagged == {("a", "weird"), ("b", "weird"), ("c", "weird")}
        assert result.fraction_significant == pytest.approx(3 / 6)

    def test_matches_scipy_oracle(self):
        sites = [("s1", 40, 10), ("s2", 25, 25), ("s3", 10, 40), ("s4", 45, 5)]
        result = bonferroni_pairwise(sites, 0.05)
        for test in result.tests:
            table = {
                s[0]: [s[1], s[2]] for s in sites
            }
            ref = scipy_stats.chi2_contingency(
                np.array([table[test.site_a], table[test.site_b]]), correction=True
            )
            assert test.result.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)
            assert test.significant == (float(ref.pvalue) < 0.05 / 6)


class TestMidranks:
    def test_no_ties(self):
        assert midranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_average(self):
        assert midranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]


def brute_force_rank_sum_p(cases, controls):
    """Enumerate every assignment of pooled values to the case slots."""
    pooled = list(cases) + list(controls)
    ranks = midranks(pooled)
    n1 = len(cases)
    observed = sum(ranks[:n1])
    hits = 0
    total = 0
    for subset in combinations(range(len(pooled)), n1):
        total += 1
        if sum(ranks[i] for i in subset) >= observed:
            hits += 1
    return hits / total


class TestWilcoxonRankSum:
    def test_worked_example_exact_five_percent(self):
        result = wilcoxon_rank_sum_one_sided([5, 6, 7], [1, 2, 3])
        assert result.exact
        assert result.p_value == 0.05

    def test_identical_groups_at_least_half(self):
        result = wilcoxon_rank_sum_one_sided([1, 2, 3], [1, 2, 3])
        assert result.p_value >= 0.5

    def test_exact_path_matches_brute_force_over_splits(self):
        rng = random.Random(21)
        for n1 in range(1, 7):
            for n2 in range(1, 13 - n1):
                cases = [rng.randint(0, 5) for _ in range(n1)]
                controls = [rng.randint(0, 5) for _ in range(n2)]
                result = wilcoxon_rank_sum_one_sided(cases, controls)
                assert result.exact
                assert result.p_value == pytest.approx(
                    brute_force_rank_sum_p(cases, controls), abs=1e-12
                )

    def test_normal_path_matches_scipy_asymptotic(self):
        rng = random.Random(2)
        for _ in range(50):
            n1, n2 = rng.randint(7, 20), rng.randint(7, 20)
            cases = [rng.randint(0, 8) for _ in range(n1)]
            controls = [rng.randint(0, 8) for _ in range(n2)]
            if len(set(cases + controls)) == 1:
                continue
            mine = wilcoxon_rank_sum_one_sided(cases, controls)
            assert not mine.exact
            ref = scipy_stats.mannwhitneyu(
                cases, controls, alternative="greater", method="asymptotic", use_continuity=True
            )
            assert mine.p_value == pytest.approx(float(ref.pvalue), rel=1e-10, abs=1e-12)

    def test_empty_group(self):
        with pytest.raises(DataError) as err:
            wilcoxon_rank_sum_one_sided([], [1.0])
        assert err.value.code == "EMPTY_GROUP"

    def test_statistic_is_case_rank_sum(self):
        result = wilcoxon_rank_sum_one_sided([5, 6, 7], [1, 2, 3])
        assert result.statistic == 4 + 5 + 6
