"""Coverage partitioning, error buckets, and phenotype risk scores."""

import random
import statistics

import pytest

from termbridge.errors import DataError
from termbridge.evaluate import bucket_errors, group_stats, partition_coverage, phers

from reference_coverage import SiteRow, site_table


def freq(site, concept_id, count=100):
    return SiteRow(site_id=site, concept_id=concept_id, record_count=count)


class TestPartitionCoverage:
    def test_published_condition_arithmetic(self):
        # 57,663 covered of 62,335 pooled site concepts -> 92.5% at 1 decimal
        site = [freq("pooled", i) for i in range(62_335)]
        mapped = set(range(57_663)) | {10_000_000}
        report = partition_coverage(mapped, site_table(site))
        assert round(report.unweighted_coverage_pct, 1) == 92.5
        assert len(report.overlap) == 57_663
        assert len(report.site_only) == 62_335 - 57_663
        assert len(report.mapping_only) == 1

    def test_published_drug_arithmetic(self):
        # 4,037 of 4,588 -> 88.0%, within 0.1pp of the published 87.9%
        site = [freq("pooled", i) for i in range(4_588)]
        mapped = set(range(4_037))
        report = partition_coverage(mapped, site_table(site))
        assert round(report.unweighted_coverage_pct, 1) == 88.0
        assert abs(report.unweighted_coverage_pct - 87.9) <= 0.1 + 1e-9

    def test_superset_mapping_full_coverage(self):
        site = [freq("a", 1), freq("a", 2)]
        report = partition_coverage({1, 2, 3}, site_table(site))
        assert report.unweighted_coverage_pct == 100.0
        assert report.site_only == frozenset()

    def test_empty_site_data(self):
        with pytest.raises(DataError) as err:
            partition_coverage({1}, site_table([]))
        assert err.value.code == "EMPTY_SITE_DATA"

    def test_partition_is_exact_on_random_sets(self):
        rng = random.Random(17)
        for _ in range(50):
            site_ids = set(rng.sample(range(1000), rng.randint(1, 200)))
            mapped = set(rng.sample(range(1000), rng.randint(0, 300)))
            rows = [freq(f"s{i % 3}", c) for i, c in enumerate(sorted(site_ids))]
            report = partition_coverage(mapped, site_table(rows))
            assert report.overlap | report.site_only == frozenset(site_ids)
            assert report.overlap & report.site_only == frozenset()
            assert report.overlap == frozenset(site_ids & mapped)
            assert report.mapping_only == frozenset(mapped - site_ids)
            assert 0.0 <= report.unweighted_coverage_pct <= 100.0
            assert 0.0 <= report.weighted_coverage_pct <= 100.0

    def test_weighted_coverage_counts_frequency(self):
        rows = [freq("a", 1, 900), freq("a", 2, 100)]
        report = partition_coverage({1}, site_table(rows))
        assert report.weighted_coverage_pct == pytest.approx(90.0)
        assert report.unweighted_coverage_pct == pytest.approx(50.0)

    def test_weighted_invariant_under_uniform_scaling(self):
        rows = [freq("a", 1, 300), freq("b", 1, 500), freq("a", 2, 200)]
        scaled = [freq(r.site_id, r.concept_id, r.record_count * 7) for r in rows]
        a = partition_coverage({1}, site_table(rows))
        b = partition_coverage({1}, site_table(scaled))
        assert a.weighted_coverage_pct == pytest.approx(b.weighted_coverage_pct, abs=1e-12)

    def test_per_site_table(self):
        rows = [freq("a", 1), freq("a", 2), freq("b", 1)]
        report = partition_coverage({1}, site_table(rows))
        table = {s.site_id: (s.concepts, s.covered) for s in report.per_site}
        assert table == {"a": (2, 1), "b": (1, 1)}
        assert report.per_site[0].coverage_pct == pytest.approx(50.0)


class TestBucketErrors:
    def test_priority_order(self):
        rows = [freq("a", 1), freq("a", 2), freq("a", 3)]
        buckets = bucket_errors({1, 2, 3}, newer_cdm={1, 2}, excluded={2, 3}, site_table=site_table(rows))
        assert buckets.recovered_newer_cdm.concept_ids == (1, 2)
        assert buckets.purposefully_excluded.concept_ids == (3,)
        assert buckets.truly_missing.concept_ids == ()

    def test_published_fractions(self):
        site_only = set(range(4672))
        newer = set(range(367))
        excluded = set(range(367, 367 + 4231))
        rows = [freq("pooled", c) for c in site_only]
        buckets = bucket_errors(site_only, newer, excluded, site_table(rows))
        assert abs(100 * buckets.recovered_newer_cdm.fraction - 7.9) <= 0.1
        assert abs(100 * buckets.purposefully_excluded.fraction - 90.6) <= 0.1
        assert abs(100 * buckets.truly_missing.fraction - 1.6) <= 0.1
        assert len(buckets.truly_missing.concept_ids) == 74

    def test_buckets_partition_site_only(self):
        rng = random.Random(9)
        site_only = set(rng.sample(range(500), 120))
        newer = set(rng.sample(range(500), 60))
        excluded = set(rng.sample(range(500), 60))
        rows = [freq("s", c) for c in site_only]
        buckets = bucket_errors(site_only, newer, excluded, site_table(rows))
        parts = [
            set(buckets.recovered_newer_cdm.concept_ids),
            set(buckets.purposefully_excluded.concept_ids),
            set(buckets.truly_missing.concept_ids),
        ]
        assert parts[0] | parts[1] | parts[2] == site_only
        assert parts[0] & parts[1] == set()
        assert parts[0] & parts[2] == set()
        assert parts[1] & parts[2] == set()

    def test_empty_site_only(self):
        buckets = bucket_errors(set(), set(), set(), site_table([]))
        assert buckets.recovered_newer_cdm.concept_ids == ()
        assert buckets.truly_missing.fraction == 0.0

    def test_frequency_stats(self):
        # concept 1 in two sites (600 + 200 -> avg 400); concept 2 in one (100)
        rows = [freq("a", 1, 600), freq("b", 1, 200), freq("a", 2, 100)]
        buckets = bucket_errors({1, 2}, set(), set(), site_table(rows))
        missing = buckets.truly_missing
        assert missing.mean_site_count == pytest.approx(1.5)
        assert missing.mean_avg_frequency == pytest.approx((400 + 100) / 2)
        assert missing.min_avg_frequency == 100.0
        assert missing.max_avg_frequency == 400.0


class TestPhers:
    def test_raw_score_is_weight_sum(self):
        result = phers({"p1": {"A", "B"}, "p2": set()}, {"A": 1.0, "B": 2.5})
        scores = {s.patient_id: s.raw for s in result.scores}
        assert scores["p1"] == pytest.approx(3.5)
        assert scores["p2"] == 0.0

    def test_one_two_three_standardizes_to_unit_steps(self):
        result = phers(
            {"p1": {"A"}, "p2": {"A", "B"}, "p3": {"A", "B", "C"}},
            {"A": 1.0, "B": 1.0, "C": 1.0},
        )
        z = [s.standardized for s in result.scores]
        assert z == pytest.approx([-1.0, 0.0, 1.0])

    def test_unknown_phenotypes_ignored(self):
        result = phers({"p1": {"A", "ZZZ"}, "p2": set()}, {"A": 2.0})
        assert result.scores[0].raw == 2.0

    def test_degenerate_cohort(self):
        with pytest.raises(DataError) as err:
            phers({"p1": {"A"}, "p2": {"A"}}, {"A": 1.0})
        assert err.value.code == "DEGENERATE_COHORT"

    def test_too_few_patients(self):
        with pytest.raises(DataError) as err:
            phers({"p1": {"A"}}, {"A": 1.0})
        assert err.value.code == "TOO_FEW_PATIENTS"

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError) as err:
            phers({"p1": {"A"}, "p2": set()}, {"A": -1.0})
        assert err.value.code == "NEGATIVE_WEIGHT"

    def test_standardized_mean_zero_sd_one(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(3, 60)
            weights = {f"H{i}": rng.uniform(0, 4) for i in range(30)}
            patients = {
                f"p{j}": {f"H{rng.randrange(30)}" for _ in range(rng.randint(0, 12))}
                for j in range(n)
            }
            try:
                result = phers(patients, weights)
            except DataError:
                continue
            z = [s.standardized for s in result.scores]
            assert statistics.fmean(z) == pytest.approx(0.0, abs=1e-9)
            assert statistics.stdev(z) == pytest.approx(1.0, abs=1e-9)

    def test_affine_invariance_of_standardized_scores(self):
        # z is invariant under raw -> a*raw + b with a > 0; scaling every
        # weight by a reproduces a*raw, and b cancels in the centering.
        rng = random.Random(4)
        weights = {f"H{i}": rng.uniform(0.1, 3) for i in range(20)}
        patients = {
            f"p{j}": {f"H{rng.randrange(20)}" for _ in range(rng.randint(1, 8))} for j in range(25)
        }
        base = phers(patients, weights)
        for a in (0.5, 2.0, 17.0):
            scaled = phers(patients, {k: a * w for k, w in weights.items()})
            for s_base, s_scaled in zip(base.scores, scaled.scores):
                assert s_scaled.standardized == pytest.approx(s_base.standardized, abs=1e-9)


class TestGroupStats:
    def test_basic(self):
        stats = group_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.min == 1.0 and stats.max == 4.0

    def test_empty(self):
        with pytest.raises(DataError):
            group_stats([])
