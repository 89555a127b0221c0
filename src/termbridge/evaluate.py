"""Cross-site coverage evaluation and phenotype-score utility.

Coverage partitions a mapping set against pooled per-site concept usage;
weighted coverage uses the post-floor record frequencies summed across
sites.  The phenotype risk score is a weighted sum of observed phenotypes
standardized over the scored cohort (sample standard deviation, n-1).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .errors import DataError


@dataclass(frozen=True)
class SiteCoverage:
    site_id: str
    concepts: int
    covered: int

    @property
    def coverage_pct(self) -> float:
        return 100.0 * self.covered / self.concepts if self.concepts else 0.0


@dataclass(frozen=True)
class CoverageReport:
    overlap: frozenset[int]
    mapping_only: frozenset[int]
    site_only: frozenset[int]
    unweighted_coverage_pct: float
    weighted_coverage_pct: float
    per_site: tuple[SiteCoverage, ...]


def partition_coverage(mapped_ids, site_table) -> CoverageReport:
    """Partition mapped concepts against the pooled site concept universe.

    ``mapped_ids`` must already exclude unmapped records.  ``site_table``
    is ``load_prevalence``'s folded table: frequencies were floored and
    summed across sites as the file was read.
    """
    if not site_table:
        raise DataError("EMPTY_SITE_DATA", "no site frequency rows")
    mapped = frozenset(mapped_ids)
    pooled_freq = site_table.pooled

    site_concepts = frozenset(pooled_freq)
    overlap = site_concepts & mapped
    site_only = site_concepts - mapped
    mapping_only = mapped - site_concepts

    total_freq = sum(pooled_freq.values())
    overlap_freq = sum(pooled_freq[c] for c in overlap)
    per_site = tuple(
        SiteCoverage(site_id=s, concepts=len(concepts), covered=len(concepts & mapped))
        for s, concepts in sorted(site_table.sites.items())
    )
    return CoverageReport(
        overlap=overlap,
        mapping_only=mapping_only,
        site_only=site_only,
        unweighted_coverage_pct=100.0 * len(overlap) / len(site_concepts),
        weighted_coverage_pct=100.0 * overlap_freq / total_freq if total_freq else 0.0,
        per_site=per_site,
    )


@dataclass(frozen=True)
class BucketStats:
    concept_ids: tuple[int, ...]
    fraction: float  # of the site-only set
    mean_site_count: float
    mean_avg_frequency: float
    min_avg_frequency: float
    max_avg_frequency: float


@dataclass(frozen=True)
class ErrorBuckets:
    recovered_newer_cdm: BucketStats
    purposefully_excluded: BucketStats
    truly_missing: BucketStats


def _bucket_stats(concept_ids, total, site_count, avg_freq) -> BucketStats:
    ids = tuple(sorted(concept_ids))
    if not ids:
        return BucketStats(ids, 0.0, 0.0, 0.0, 0.0, 0.0)
    averages = [avg_freq[c] for c in ids]
    return BucketStats(
        concept_ids=ids,
        fraction=len(ids) / total if total else 0.0,
        mean_site_count=sum(site_count[c] for c in ids) / len(ids),
        mean_avg_frequency=sum(averages) / len(averages),
        min_avg_frequency=min(averages),
        max_avg_frequency=max(averages),
    )


def bucket_errors(site_only, newer_cdm, excluded, site_table) -> ErrorBuckets:
    """Partition the site-only concepts into the three error scenarios.

    Priority: recovered-in-newer-CDM, then purposefully-excluded, then
    truly-missing; the buckets are disjoint and exhaustive.  Every
    site-only concept is in ``site_table``; its frequency is averaged over
    the sites holding it, from the table's pooled sums and site counts.
    """
    site_only = set(site_only)
    newer = set(newer_cdm)
    excl = set(excluded)

    recovered = site_only & newer
    remaining = site_only - recovered
    purposeful = remaining & excl
    missing = remaining - purposeful

    site_count = {c: site_table.site_count[c] for c in site_only}
    avg_freq = {c: site_table.pooled[c] / site_count[c] for c in site_only}

    total = len(site_only)
    return ErrorBuckets(
        recovered_newer_cdm=_bucket_stats(recovered, total, site_count, avg_freq),
        purposefully_excluded=_bucket_stats(purposeful, total, site_count, avg_freq),
        truly_missing=_bucket_stats(missing, total, site_count, avg_freq),
    )


@dataclass(frozen=True)
class PatientScore:
    patient_id: str
    raw: float
    standardized: float


@dataclass(frozen=True)
class PhersResult:
    scores: tuple[PatientScore, ...]
    raw_mean: float
    raw_sd: float


def phers(patient_phenotypes, weights) -> PhersResult:
    """Raw and standardized phenotype risk scores for a cohort.

    Raw score is the sum of weights over the patient's observed,
    weighted phenotypes; standardization subtracts the cohort mean and
    divides by the sample standard deviation.
    """
    for curie, w in weights.items():
        if w < 0:
            raise DataError("NEGATIVE_WEIGHT", f"weight for {curie} is negative")
    patients = sorted(patient_phenotypes)
    if len(patients) < 2:
        raise DataError("TOO_FEW_PATIENTS", "standardization requires at least 2 patients")
    # Summed in sorted CURIE order: a set's order follows the hash seed,
    # and float addition is not associative.
    raws = [
        sum(weights.get(p, 0.0) for p in sorted(set(patient_phenotypes[patient])))
        for patient in patients
    ]
    mean = statistics.fmean(raws)
    sd = statistics.stdev(raws)
    if sd == 0:
        raise DataError("DEGENERATE_COHORT", "all raw scores identical")
    scores = tuple(
        PatientScore(patient_id=patient, raw=raw, standardized=(raw - mean) / sd)
        for patient, raw in zip(patients, raws)
    )
    return PhersResult(scores=scores, raw_mean=mean, raw_sd=sd)


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean: float
    median: float
    sd: float
    min: float
    max: float


def group_stats(values) -> GroupStats:
    values = list(values)
    if not values:
        raise DataError("EMPTY_GROUP", "no values")
    return GroupStats(
        count=len(values),
        mean=statistics.fmean(values),
        median=statistics.median(values),
        sd=statistics.stdev(values) if len(values) > 1 else 0.0,
        min=min(values),
        max=max(values),
    )
