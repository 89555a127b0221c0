"""Row-scan reference for ``coverage``'s partition and error buckets.

``load_prevalence`` folds prevalence.tsv into per-concept sums, per-concept
site counts and per-site concept sets as it reads it, and
``partition_coverage`` and ``bucket_errors`` work on that table.  The
functions here keep the earlier shape: one ``SiteRow`` per data row, and
every figure recomputed by scanning the rows.  ``site_table`` builds the
folded table from rows for tests that exercise the evaluate functions
directly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from termbridge.errors import DataError
from termbridge.evaluate import BucketStats, CoverageReport, ErrorBuckets, SiteCoverage
from termbridge.ingest import PrevalenceTable


class SiteRow(NamedTuple):
    site_id: str
    concept_id: int
    record_count: int


def site_table(rows) -> PrevalenceTable:
    """The folded table of (site, concept, count) rows, counts already floored."""
    pooled: dict[int, int] = defaultdict(int)
    site_count: dict[int, int] = defaultdict(int)
    sites: dict[str, set[int]] = defaultdict(set)
    for site_id, concept_id, count in rows:
        assert concept_id not in sites[site_id], (site_id, concept_id)
        sites[site_id].add(concept_id)
        pooled[concept_id] += count
        site_count[concept_id] += 1
    return PrevalenceTable(pooled=dict(pooled), site_count=dict(site_count), sites=dict(sites))


def partition_coverage(mapped_ids, site_frequencies) -> CoverageReport:
    rows = list(site_frequencies)
    if not rows:
        raise DataError("EMPTY_SITE_DATA", "no site frequency rows")
    mapped = frozenset(mapped_ids)

    pooled_freq: dict[int, int] = defaultdict(int)
    site_sets: dict[str, set[int]] = defaultdict(set)
    for row in rows:
        pooled_freq[row.concept_id] += row.record_count
        site_sets[row.site_id].add(row.concept_id)

    site_concepts = frozenset(pooled_freq)
    overlap = site_concepts & mapped
    site_only = site_concepts - mapped
    mapping_only = mapped - site_concepts

    total_freq = sum(pooled_freq.values())
    overlap_freq = sum(pooled_freq[c] for c in overlap)
    per_site = tuple(
        SiteCoverage(site_id=s, concepts=len(site_sets[s]), covered=len(site_sets[s] & mapped))
        for s in sorted(site_sets)
    )
    return CoverageReport(
        overlap=frozenset(overlap),
        mapping_only=frozenset(mapping_only),
        site_only=frozenset(site_only),
        unweighted_coverage_pct=100.0 * len(overlap) / len(site_concepts),
        weighted_coverage_pct=100.0 * overlap_freq / total_freq if total_freq else 0.0,
        per_site=per_site,
    )


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


def bucket_errors(site_only, newer_cdm, excluded, site_frequencies) -> ErrorBuckets:
    site_only = set(site_only)
    newer = set(newer_cdm)
    excl = set(excluded)

    recovered = site_only & newer
    remaining = site_only - recovered
    purposeful = remaining & excl
    missing = remaining - purposeful

    site_count: dict[int, int] = defaultdict(int)
    total_freq: dict[int, int] = defaultdict(int)
    for row in site_frequencies:
        if row.concept_id in site_only:
            site_count[row.concept_id] += 1
            total_freq[row.concept_id] += row.record_count
    avg_freq = {
        c: (total_freq[c] / site_count[c] if site_count[c] else 0.0) for c in site_only
    }
    for c in site_only:
        site_count.setdefault(c, 0)

    total = len(site_only)
    return ErrorBuckets(
        recovered_newer_cdm=_bucket_stats(recovered, total, site_count, avg_freq),
        purposefully_excluded=_bucket_stats(purposeful, total, site_count, avg_freq),
        truly_missing=_bucket_stats(missing, total, site_count, avg_freq),
    )
