"""End-to-end batch runs behind the CLI: mapping, coverage, phenotype scores.

The whole pipeline is seed-free, single-threaded and deterministic.
``map`` streams its records: it takes concepts in ascending id, sorts
each concept's records by (ontology, outcome, targets), and validates,
writes and tallies them before it builds the next concept's, so rows
come out in one global order without every record being held.  All
serialization is stable (sorted keys, fixed float formatting).  Two runs
on identical inputs produce byte-identical files.  Every input is read
by ``ingest``.

Loading this module loads what every command uses: ``core``, ``errors``,
``ingest`` and ``lexical``.  ``run_map`` adds ``align``, ``similarity``
and ``synthesize``, ``run_coverage`` and ``run_phers`` add ``evaluate``
and ``stats``, and ``export_sssom`` adds nothing.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .core import (
    Domain,
    EvidenceKind,
    MappingCategory,
    MappingRecord,
    OUTCOME_ORDER,
    REASON_DISPLAY,
    UnmappedReason,
    curie_ontology,
    render_category,
    validate_record,
)
from .errors import ConfigError, DataError, ParseError
from .ingest import (
    MAPPING_COLUMNS,
    RoutingPolicy,
    default_code_dictionary,
    default_stopwords,
    header_line,
    load_code_dictionary,
    load_cohort,
    load_concepts,
    load_curation,
    load_id_list,
    load_mappings,
    load_measurement_scales,
    load_measurement_targets,
    load_ontology_dump,
    load_patient_phenotypes,
    load_prevalence,
    load_routing_policy,
    load_stopwords,
    load_umls,
    load_weights,
)
from .lexical import Lemmatize, TokenizerConfig

# The names a command uses from modules only it needs, bound as globals by
# ``_load`` when it runs.  The table exists for perfbench's tracer (and
# ``scripts/stage_probe.py``), which replaces these names on this module,
# also before their module loads: a name already bound is kept.  Once the
# tracer stops patching pipeline names, these become function-local imports.
STAGE_NAMES = {
    "align": ("CuiBridge", "align_concept", "align_via_ancestors", "build_indexes", "enrich_concepts"),
    "similarity": (
        "IDF_VARIANT", "SimilarityConfig", "best_per_concept", "build_corpus",
        "filter_pairs", "fit", "score_concept_pairs",
    ),
    "synthesize": ("expand_measurements", "render_evidence", "route", "synthesize"),
    "evaluate": ("bucket_errors", "group_stats", "partition_coverage", "phers"),
    "stats": ("bonferroni_pairwise", "chi_square_yates"),
}


def _load(*modules: str) -> None:
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in STAGE_NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    for module, names in STAGE_NAMES.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SSSOM_HEADER = [
    "subject_id",
    "subject_label",
    "object_id",
    "object_label",
    "mapping_justification",
    "mapping_set_id",
    "comment",
]

_EVIDENCE_GROUPS = {
    EvidenceKind.XREF_MATCH: "Database Cross-References",
    EvidenceKind.CUI_MATCH: "Database Cross-References",
    EvidenceKind.SYNONYM_MATCH: "Synonyms",
    EvidenceKind.LABEL_MATCH: "Labels",
    EvidenceKind.DEFINITION_MATCH: "Definitions",
    EvidenceKind.COSINE_SCORE: "Cosine Similarity",
    EvidenceKind.MANUAL_SOURCE: "Biocuration",
}

_JUSTIFICATION = {
    "AUTO": "semapv:LexicalMatching",
    "COSINE": "semapv:SemanticSimilarityThresholdMatching",
    "MANUAL": "semapv:ManualMappingCuration",
}


@dataclass
class RunConfig:
    out_dir: str
    concepts: str | None = None
    ancestors: str | None = None
    ontology_dumps: tuple[str, ...] = ()
    umls_mrconso: str | None = None
    umls_mrsty: str | None = None
    code_map: str | None = None
    stopwords: str | None = None
    routing: str | None = None
    curation: str | None = None
    measurement_scales: str | None = None
    measurement_targets: str | None = None
    domain: Domain = Domain.CONDITION
    tau: float = 0.25
    rho: float = 0.75
    jobs: int = 0  # accepted for compatibility; runs are single-threaded
    mappings: str | None = None
    prevalence: str | None = None
    newer_cdm: str | None = None
    excluded: str | None = None
    alpha: float = 0.05
    weights: str | None = None
    patients: str | None = None
    cohort: str | None = None


def _require_paths(pairs):
    for flag, path in pairs:
        if path is None:
            raise ConfigError("MISSING_INPUT", f"--{flag} is required")
        if not Path(path).exists():
            raise ConfigError("NO_SUCH_FILE", f"--{flag}: {path} does not exist")


def _optional_paths(pairs):
    for flag, path in pairs:
        if path is not None and not Path(path).exists():
            raise ConfigError("NO_SUCH_FILE", f"--{flag}: {path} does not exist")


# A plain loop, kept with its unused ``jobs`` because perfbench's tracer wraps this name.
def _parallel_map(fn, items, jobs):
    return [fn(item) for item in items]


def _fmt_score(score) -> str:
    return "" if score is None else f"{score:.12g}"


def _mapping_row(record: MappingRecord, target_labels) -> str:
    labels = "|".join(target_labels.get(t, "").replace("|", "/") for t in record.targets)
    return "\t".join(
        [
            str(record.concept_id),
            record.domain.value,
            record.ontology,
            render_category(record.category, record.level),
            record.level.value,
            record.logic,
            "|".join(record.targets),
            labels,
            _fmt_score(record.score),
            render_evidence(record),
            REASON_DISPLAY[record.unmapped_reason] if record.unmapped_reason else "",
            record.outcome.value if record.outcome else "",
        ]
    )


def _write_text(path: Path, lines) -> None:
    """Write ``lines``, each ended by a newline, to ``path`` whole or not
    at all: each line goes to a temporary file in the same directory as
    it comes, and the file then replaces ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True)])


class _Tally:
    """Per-ontology, per-wave counts of categories, evidence, and reasons,
    folded in one record at a time."""

    def __init__(self, concepts):
        self._concepts = concepts
        self._categories: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        self._evidence: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        self._unmapped: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))

    def add(self, record: MappingRecord) -> None:
        wave = (
            "used_in_practice"
            if self._concepts[record.concept_id].used_in_practice
            else "not_used_in_practice"
        )
        if record.category is MappingCategory.UNMAPPED:
            self._unmapped[record.ontology][wave][REASON_DISPLAY[record.unmapped_reason]] += 1
            return
        display = render_category(record.category, record.level)
        self._categories[record.ontology][wave][display] += 1
        for atom in record.evidence:
            group = _EVIDENCE_GROUPS.get(atom.kind)
            if group:
                self._evidence[record.ontology][wave][group] += 1

    def tables(self) -> dict:
        categories, evidence, unmapped = self._categories, self._evidence, self._unmapped

        def materialize(tree):
            return {
                ontology: {
                    wave: dict(sorted(counts.items())) for wave, counts in sorted(waves.items())
                }
                for ontology, waves in sorted(tree.items())
            }

        totals = {}
        for ontology in sorted(set(categories) | set(unmapped)):
            totals[ontology] = {}
            for wave in ("used_in_practice", "not_used_in_practice"):
                totals[ontology][wave] = {
                    "mapped": sum(categories.get(ontology, {}).get(wave, {}).values()),
                    "unmapped": sum(unmapped.get(ontology, {}).get(wave, {}).values()),
                    "evidence": sum(evidence.get(ontology, {}).get(wave, {}).values()),
                }
        return {
            "mapping_categories": materialize(categories),
            "mapping_evidence": materialize(evidence),
            "unmapped": materialize(unmapped),
            "totals": totals,
        }


def run_map(cfg: RunConfig) -> Path:
    """Full mapping pass; writes mappings.tsv and summary.json to out_dir."""
    _load("align", "similarity", "synthesize")
    _require_paths([("concepts", cfg.concepts)])
    if not cfg.ontology_dumps:
        raise ConfigError("MISSING_INPUT", "at least one --ontology dump is required")
    _optional_paths(
        [
            ("ancestors", cfg.ancestors),
            ("umls-mrconso", cfg.umls_mrconso),
            ("umls-mrsty", cfg.umls_mrsty),
            ("code-map", cfg.code_map),
            ("stopwords", cfg.stopwords),
            ("routing", cfg.routing),
            ("curation", cfg.curation),
            ("measurement-scales", cfg.measurement_scales),
            ("measurement-targets", cfg.measurement_targets),
        ]
        + [("ontology", p) for p in cfg.ontology_dumps]
    )
    if (cfg.umls_mrconso is None) != (cfg.umls_mrsty is None):
        raise ConfigError("MISSING_INPUT", "MRCONSO and MRSTY must be supplied together")
    try:
        sim_cfg = SimilarityConfig(score_floor=cfg.tau, keep_fraction=cfg.rho)
    except ValueError as exc:
        raise ConfigError("BAD_THRESHOLD", str(exc)) from None

    dictionary = load_code_dictionary(cfg.code_map) if cfg.code_map else default_code_dictionary()
    stopwords = load_stopwords(cfg.stopwords) if cfg.stopwords else default_stopwords()

    concept_load = load_concepts(cfg.concepts, cfg.domain, cfg.ancestors, dictionary)
    concepts = concept_load.concepts

    classes = {}
    for dump in cfg.ontology_dumps:
        loaded = load_ontology_dump(dump, dictionary)
        for curie, cls in loaded.items():
            if curie in classes:
                raise ParseError("DUPLICATE_CURIE", f"class {curie} in two dumps", dump)
            classes[curie] = cls
    ontologies = sorted({cls.ontology for cls in classes.values()})

    if cfg.umls_mrconso:
        codes = {(c.code.prefix, c.code.code) for c in concepts.values()}
        tables = load_umls(cfg.umls_mrconso, cfg.umls_mrsty, codes, dictionary)
        bridge = CuiBridge(tables.atoms_by_code)
        concepts = enrich_concepts(concepts, bridge, tables.sty_by_cui)

    policy = (
        load_routing_policy(cfg.routing, ontologies)
        if cfg.routing
        else RoutingPolicy.allow_all(ontologies)
    )
    curation_by_concept: dict[int, list] = defaultdict(list)
    unknown_curation_targets: tuple[str, ...] = ()
    if cfg.curation:
        curation_load = load_curation(cfg.curation, ontologies, set(classes))
        unknown_curation_targets = curation_load.unknown_targets
        for row in curation_load.rows:
            curation_by_concept[row.concept_id].append(row)

    scales = {}
    assignments: dict[int, list] = {}
    aux: dict[int, list] = {}
    if cfg.domain is Domain.MEASUREMENT:
        if cfg.measurement_scales:
            scales = load_measurement_scales(cfg.measurement_scales)
        if cfg.measurement_targets:
            assignments, aux = load_measurement_targets(cfg.measurement_targets)

    out_dir = Path(cfg.out_dir)
    target_labels = {curie: cls.label for curie, cls in classes.items()}
    tally = _Tally(concepts)
    rows = ()

    if concepts:
        decisions = {cid: route(c, policy) for cid, c in concepts.items()}

        tok_cfg = TokenizerConfig(stopwords=stopwords, lemmatize=Lemmatize.SUFFIX_RULES)
        model = fit(build_corpus(concepts.values(), classes.values(), tok_cfg))
        pairs = score_concept_pairs(
            model, routing=lambda cid: decisions[cid].allowed, score_floor=cfg.tau
        )
        del model  # the matrix is not read past scoring; free it before the cut
        # The keep-fraction cut is scoped per (domain, ontology) run.
        winners = best_per_concept(filter_pairs(pairs, sim_cfg))
        del pairs  # the per-ontology scores, freed before synthesis
        # Only the per-concept ladder reads the indexes, so they are built
        # after scoring and the cut have freed their arrays.
        indexes = build_indexes(classes.values())

        def process(concept_id: int) -> list[MappingRecord]:
            concept = concepts[concept_id]
            decision = decisions[concept_id]
            curation_rows = curation_by_concept.get(concept_id, [])
            claimed: dict[str, list[MappingRecord]] = defaultdict(list)
            if cfg.domain is Domain.MEASUREMENT:
                unspecified = any(
                    row.unmapped_reason is UnmappedReason.UNSPECIFIED_SAMPLE
                    for row in curation_rows
                )
                for record in expand_measurements(
                    concept,
                    scales.get(concept_id),
                    assignments.get(concept_id, []),
                    aux.get(concept_id, []),
                    ontologies,
                    unspecified_sample=unspecified,
                )[0]:
                    claimed[record.ontology].append(record)
            allowed = decision.allowed - claimed.keys()
            exact_c = align_concept(concept, indexes, allowed) if allowed else []
            remaining = allowed - {curie_ontology(c.curie) for c in exact_c}
            exact_a = (
                align_via_ancestors(concept, concepts, indexes, remaining) if remaining else []
            )
            return synthesize(
                concept,
                exact_c,
                exact_a,
                winners.for_concept(concept_id),
                curation_rows,
                decision,
                ontologies,
                claimed,
            )

        def stream():
            """Each record's row, validated and tallied, one concept at a time.

            Records sort by concept id first and concepts are taken in
            ascending id, so sorting each concept's records gives the
            global order.  Only one concept's records are alive at once.
            """
            for concept_id in sorted(concepts):
                (records,) = _parallel_map(process, (concept_id,), cfg.jobs)
                records.sort(
                    key=lambda r: (
                        r.ontology,
                        OUTCOME_ORDER[r.outcome] if r.outcome else -1,
                        r.targets,
                    )
                )
                for record in records:
                    violation = validate_record(record)
                    if violation is not None:
                        raise DataError(
                            "INVALID_RECORD",
                            f"concept {record.concept_id}/{record.ontology}: "
                            f"{violation.rule} at {violation.field_path}",
                        )
                    tally.add(record)
                    yield _mapping_row(record, target_labels)

        rows = stream()

    # A failure part way through the rows leaves no mappings.tsv and no summary.json.
    _write_text(out_dir / "mappings.tsv", chain([header_line(MAPPING_COLUMNS)], rows))

    summary = {
        "domain": cfg.domain.value,
        "ontologies": ontologies,
        "similarity": {
            "score_floor": cfg.tau,
            "keep_fraction": cfg.rho,
            "filter_scope": "per_ontology",
            "idf_variant": IDF_VARIANT,
        },
        "ingest_warnings": {
            "dangling_ancestors": concept_load.dangling_ancestors,
            "unknown_curation_targets": list(unknown_curation_targets),
        },
    }
    summary.update(tally.tables())
    _write_json(out_dir / "summary.json", summary)
    return out_dir


def run_coverage(cfg: RunConfig) -> Path:
    """Coverage partition, omnibus + pairwise tests, and error buckets."""
    _load("evaluate", "stats")
    _require_paths([("mappings", cfg.mappings), ("prevalence", cfg.prevalence)])
    _optional_paths([("newer-cdm", cfg.newer_cdm), ("excluded", cfg.excluded)])
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError("BAD_THRESHOLD", f"alpha must lie in (0, 1), got {cfg.alpha}")

    mapped_ids = {
        row["concept_id"] for row in load_mappings(cfg.mappings) if row["category"] != "Unmapped"
    }
    prevalence = load_prevalence(cfg.prevalence)
    report = partition_coverage(mapped_ids, prevalence.rows)

    site_tables = [
        (s.site_id, s.covered, s.concepts - s.covered) for s in report.per_site
    ]
    omnibus = None
    if len(site_tables) >= 2:
        table = [[covered, uncovered] for _, covered, uncovered in site_tables]
        omnibus = chi_square_yates(table)
    pairwise = bonferroni_pairwise(site_tables, cfg.alpha)

    newer = load_id_list(cfg.newer_cdm) if cfg.newer_cdm else set()
    excluded = load_id_list(cfg.excluded) if cfg.excluded else set()
    buckets = bucket_errors(report.site_only, newer, excluded, prevalence.rows)

    out_dir = Path(cfg.out_dir)

    def bucket_payload(stats):
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
        "floored_rows": prevalence.floored,
        "per_site": [
            {
                "site_id": s.site_id,
                "concepts": s.concepts,
                "covered": s.covered,
                "coverage_pct": s.coverage_pct,
            }
            for s in report.per_site
        ],
        "omnibus": (
            None
            if omnibus is None
            else {"chi2": omnibus.statistic, "df": omnibus.df, "p_value": omnibus.p_value}
        ),
        "pairwise_fraction_significant": pairwise.fraction_significant,
        "error_buckets": {
            "recovered_newer_cdm": bucket_payload(buckets.recovered_newer_cdm),
            "purposefully_excluded": bucket_payload(buckets.purposefully_excluded),
            "truly_missing": bucket_payload(buckets.truly_missing),
        },
    }
    _write_json(out_dir / "coverage.json", payload)

    rows = (
        "\t".join(
            [
                test.site_a,
                test.site_b,
                f"{test.result.statistic:.12g}",
                str(test.result.df),
                f"{test.result.p_value:.12g}",
                f"{pairwise.adjusted_alpha:.12g}",
                "1" if test.significant else "0",
            ]
        )
        for test in pairwise.tests
    )
    header = "site_a\tsite_b\tchi2\tdf\tp_value\tadjusted_alpha\tsignificant"
    _write_text(out_dir / "pairwise.tsv", chain([header], rows))

    rows = (
        f"{concept_id}\t{name}"
        for name, stats in (
            ("RECOVERED_NEWER_CDM", buckets.recovered_newer_cdm),
            ("PURPOSEFULLY_EXCLUDED", buckets.purposefully_excluded),
            ("TRULY_MISSING", buckets.truly_missing),
        )
        for concept_id in stats.concept_ids
    )
    _write_text(out_dir / "buckets.tsv", chain(["concept_id\tbucket"], rows))
    return out_dir


def run_phers(cfg: RunConfig) -> Path:
    """Standardized phenotype risk scores plus the one-sided rank-sum test."""
    from .stats import wilcoxon_rank_sum_one_sided

    _load("evaluate")
    _require_paths(
        [("weights", cfg.weights), ("patients", cfg.patients), ("cohort", cfg.cohort)]
    )
    weights = load_weights(cfg.weights)
    # The files are validated weights, patients, cohort: phenotype rows are
    # folded for every patient, and those outside the cohort are dropped,
    # and counted, once the cohort is read.
    observed: dict[str, set[str]] = defaultdict(set)
    row_counts: dict[str, int] = defaultdict(int)
    for patient_id, curie in load_patient_phenotypes(cfg.patients):
        observed[patient_id].add(curie)
        row_counts[patient_id] += 1
    groups = load_cohort(cfg.cohort)
    phenotypes = {pid: observed.get(pid, set()) for pid in groups}
    out_of_cohort_rows = sum(n for pid, n in row_counts.items() if pid not in groups)

    result = phers(phenotypes, weights)
    by_group = {"CASE": [], "CONTROL": []}
    for score in result.scores:
        by_group[groups[score.patient_id]].append(score.standardized)
    test = wilcoxon_rank_sum_one_sided(by_group["CASE"], by_group["CONTROL"])

    out_dir = Path(cfg.out_dir)
    rows = (
        f"{score.patient_id}\t{score.raw:.12g}\t{score.standardized:.12g}\t{groups[score.patient_id]}"
        for score in result.scores
    )
    _write_text(out_dir / "phers.tsv", chain(["patient_id\traw\tstandardized\tgroup"], rows))

    def stats_payload(values):
        s = group_stats(values)
        return {
            "count": s.count,
            "mean": s.mean,
            "median": s.median,
            "sd": s.sd,
            "min": s.min,
            "max": s.max,
        }

    payload = {
        "statistic": test.statistic,
        "p_value": test.p_value,
        "exact": test.exact,
        "raw_mean": result.raw_mean,
        "raw_sd": result.raw_sd,
        "out_of_cohort_rows": out_of_cohort_rows,
        "standardization": "sample_sd",
        "cases": stats_payload(by_group["CASE"]),
        "controls": stats_payload(by_group["CONTROL"]),
    }
    _write_json(out_dir / "test.json", payload)
    return out_dir


def _sssom_rows(mappings, concepts):
    """SSSOM rows for each mapping row as it arrives, one per target."""
    for row in mappings:
        targets = [t for t in row["targets"].split("|") if t]
        if not targets:
            continue
        labels = row["target_labels"].split("|")
        concept = concepts.get(row["concept_id"])
        subject_id = str(concept.code) if concept else str(row["concept_id"])
        subject_label = concept.label if concept else ""
        approach = row["category"].split()[0].upper()
        justification = _JUSTIFICATION.get(
            "AUTO" if approach == "AUTOMATIC" else "COSINE" if approach == "COSINE" else "MANUAL"
        )
        set_id = f"{row['concept_id']}:{row['ontology']}"
        if row["outcome"]:
            set_id += f":{row['outcome']}"
        for i, target in enumerate(targets):
            yield "\t".join(
                [
                    subject_id,
                    subject_label,
                    target,
                    labels[i] if i < len(labels) else "",
                    justification,
                    set_id,
                    row["evidence"],
                ]
            )


def export_sssom(mappings_path, concepts_path, out_path) -> Path:
    """Flatten mapping rows into an interchange TSV, one row per target.

    One-to-many records share a mapping_set_id so consumers can rebuild
    the grouping; unmapped records contribute no rows.  Mapping rows are
    rendered and written as they are read.
    """
    _require_paths([("mappings", mappings_path), ("concepts", concepts_path)])
    concepts = load_concepts(concepts_path).concepts
    rows = _sssom_rows(load_mappings(mappings_path), concepts)
    out = Path(out_path)
    _write_text(out, chain(["\t".join(SSSOM_HEADER)], rows))
    return out
