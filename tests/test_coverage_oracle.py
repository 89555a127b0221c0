"""``coverage`` against the row-scan reference, on generated prevalence tables.

Each example draws 1-4 sites, each listing a distinct subset of concepts
1-30 with record counts below, at and above the floor of 100, in shuffled
row order, plus a mapping set over concepts 1-40 (some rows unmapped) and
the two id lists.
The command runs through ``load_prevalence`` on a written file; every
number in ``coverage.json`` and every line of ``buckets.tsv`` must equal
the reference's, computed from the rows with the floor applied.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from termbridge.cli import main
from termbridge.errors import DataError
from termbridge.ingest import MAPPING_COLUMNS, PREVALENCE_FLOOR, header_line
from termbridge.stats import bonferroni_pairwise, chi_square_yates

from reference_coverage import SiteRow, bucket_errors, partition_coverage

CONCEPTS = range(1, 31)
MAPPED = range(1, 41)
COUNTS = st.one_of(
    st.integers(0, PREVALENCE_FLOOR - 1),
    st.just(PREVALENCE_FLOOR),
    st.integers(PREVALENCE_FLOOR + 1, 5_000),
)


@st.composite
def coverage_inputs(draw):
    sites = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    rows = []
    for site in sites:
        concepts = st.lists(st.sampled_from(CONCEPTS), min_size=2, max_size=20, unique=True)
        for concept_id in draw(concepts):
            rows.append((f"site_{site}", concept_id, draw(COUNTS)))
    rows = draw(st.permutations(rows))
    # At least 10 mapping rows, so that few examples leave every site
    # fully covered or fully uncovered (a zero marginal, exit 3).
    mappings = draw(
        st.lists(
            st.tuples(st.sampled_from(MAPPED), st.booleans()),
            min_size=10,
            max_size=40,
            unique_by=lambda m: m[0],
        )
    )
    newer = draw(st.sets(st.sampled_from(CONCEPTS), max_size=10))
    excluded = draw(st.sets(st.sampled_from(CONCEPTS), max_size=10))
    return rows, mappings, newer, excluded


def _write_inputs(root: Path, rows, mappings, newer, excluded):
    prevalence = ["site_id\tconcept_id\trecord_count"] + [f"{s}\t{c}\t{n}" for s, c, n in rows]
    (root / "prevalence.tsv").write_text("\n".join(prevalence) + "\n")
    lines = [header_line(MAPPING_COLUMNS)]
    for concept_id, mapped in mappings:
        if mapped:
            lines.append(
                f"{concept_id}\tCONDITION\tHP\tAutomatic One-to-One Concept\tCONCEPT\t\tHP:{concept_id}"
                f"\tx\t\tLABEL_MATCH:x\t\t"
            )
        else:
            lines.append(f"{concept_id}\tCONDITION\tHP\tUnmapped\tNONE\t\t\t\t\tEXCLUSION_REASON:None\tNone\t")
    (root / "mappings.tsv").write_text("\n".join(lines) + "\n")
    (root / "newer.txt").write_text("".join(f"{c}\n" for c in sorted(newer)))
    (root / "excluded.txt").write_text("".join(f"{c}\n" for c in sorted(excluded)))


def _expected(rows, mappings, newer, excluded, alpha=0.05):
    site_rows = [SiteRow(s, c, max(n, PREVALENCE_FLOOR)) for s, c, n in rows]
    mapped_ids = {c for c, mapped in mappings if mapped}
    report = partition_coverage(mapped_ids, site_rows)
    buckets = bucket_errors(report.site_only, newer, excluded, site_rows)
    site_tables = [(s.site_id, s.covered, s.concepts - s.covered) for s in report.per_site]
    omnibus = None
    if len(site_tables) >= 2:
        result = chi_square_yates([[covered, uncovered] for _, covered, uncovered in site_tables])
        omnibus = {"chi2": result.statistic, "df": result.df, "p_value": result.p_value}

    def bucket(stats):
        return {
            "count": len(stats.concept_ids),
            "fraction_pct": 100.0 * stats.fraction,
            "mean_site_count": stats.mean_site_count,
            "mean_avg_frequency": stats.mean_avg_frequency,
            "min_avg_frequency": stats.min_avg_frequency,
            "max_avg_frequency": stats.max_avg_frequency,
        }

    payload = {
        "counts": {
            "overlap": len(report.overlap),
            "mapping_only": len(report.mapping_only),
            "site_only": len(report.site_only),
            "site_concepts": len(report.overlap) + len(report.site_only),
        },
        "unweighted_coverage_pct": report.unweighted_coverage_pct,
        "weighted_coverage_pct": report.weighted_coverage_pct,
        "floored_rows": sum(1 for _, _, n in rows if n < PREVALENCE_FLOOR),
        "per_site": [
            {"site_id": s.site_id, "concepts": s.concepts, "covered": s.covered, "coverage_pct": s.coverage_pct}
            for s in report.per_site
        ],
        "omnibus": omnibus,
        "pairwise_fraction_significant": bonferroni_pairwise(site_tables, alpha).fraction_significant,
        "error_buckets": {
            "recovered_newer_cdm": bucket(buckets.recovered_newer_cdm),
            "purposefully_excluded": bucket(buckets.purposefully_excluded),
            "truly_missing": bucket(buckets.truly_missing),
        },
    }
    bucket_lines = ["concept_id\tbucket"] + [
        f"{concept_id}\t{name}"
        for name, stats in (
            ("RECOVERED_NEWER_CDM", buckets.recovered_newer_cdm),
            ("PURPOSEFULLY_EXCLUDED", buckets.purposefully_excluded),
            ("TRULY_MISSING", buckets.truly_missing),
        )
        for concept_id in stats.concept_ids
    ]
    return payload, bucket_lines


@settings(max_examples=80, deadline=None, derandomize=True)
@given(coverage_inputs())
def test_coverage_matches_row_scan_reference(inputs):
    rows, mappings, newer, excluded = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root, rows, mappings, newer, excluded)
        out = root / "out"
        code = main(
            [
                "coverage",
                "--mappings", str(root / "mappings.tsv"),
                "--prevalence", str(root / "prevalence.tsv"),
                "--newer-cdm", str(root / "newer.txt"),
                "--excluded", str(root / "excluded.txt"),
                "--out", str(out),
            ]
        )
        try:
            payload, bucket_lines = _expected(rows, mappings, newer, excluded)
        except DataError as exc:
            # Every site fully covered, or none covered, leaves a zero marginal.
            assert exc.code == "ZERO_MARGINAL"
            assert code == 3
            return
        assert code == 0
        assert json.loads((out / "coverage.json").read_text()) == payload
        assert (out / "buckets.tsv").read_text().splitlines() == bucket_lines
