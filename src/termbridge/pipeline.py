"""End-to-end batch runs behind the CLI: mapping, coverage, phenotype scores.

The whole pipeline is seed-free, single-threaded and deterministic.
``map`` streams its records: it takes concepts in ascending id, and
``synthesize`` builds each concept's records in (ontology, outcome)
order, which ``map`` validates, writes and tallies before it builds the
next concept's, so rows come out in one global order without every
record being held.  Per concept, the exact aligners return ontology key
-> CURIE -> evidence atoms: concept-level hits for the routed
ontologies, then ancestor hits for those still without one, each
ancestor aligned once per run.  ``synthesize`` builds each record with
its evidence in canonical order, and ``ingest.mapping_line`` renders its
row once ``validate_record`` has checked it; ``coverage`` and
``export-sssom`` read rows back under the same rules.  All serialization is stable (sorted keys, fixed float
formatting).  Two runs on identical inputs produce byte-identical files.
Every input is read by ``ingest``.

Loading this module loads what every command uses: ``core``, ``errors``,
``ingest`` and ``lexical``.  ``run_map`` adds ``align``, ``similarity``
and ``synthesize``, ``run_coverage`` and ``run_phers`` add ``evaluate``
and ``stats``, and ``export_sssom`` adds nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, takewhile
from pathlib import Path

from .core import (
    Domain,
    MappingCategory,
    MappingRecord,
    UnmappedReason,
    validate_record,
)
from .errors import ConfigError, DataError
from .ingest import (
    MAPPING_COLUMNS,
    RoutingPolicy,
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
    mapping_line,
)

# The names a command uses from modules only it needs, bound as globals by
# ``_load`` when it runs.  The table exists for perfbench's tracer (and
# ``scripts/stage_probe.py``), which replaces these names on this module,
# also before their module loads: a name already bound is kept.  Once the
# tracer stops patching pipeline names, these become function-local imports.
STAGE_NAMES = {
    "align": ("CuiBridge", "align_concept", "align_via_ancestors", "build_indexes", "enrich_concepts"),
    "similarity": ("IDF_VARIANT", "best_per_concept", "build_corpus", "filter_pairs", "fit", "score_concept_pairs"),
    "synthesize": ("expand_measurements", "route", "synthesize"),
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


def _flag(kind, commands, help=None, default=None, *, required=False, flag=None, within=None):
    """A RunConfig field that is a command-line flag and a ``--config`` key.

    ``kind`` is ``"input"`` (a file that must exist), ``"inputs"`` (such
    files, the flag repeated), ``"output"`` (a path to write), ``float``,
    ``int`` or ``Domain``.  The ``commands`` take the flag and, where it is
    ``required``, fail without it.  The flag is ``--`` and ``flag``, by
    default the field name, with ``-`` for ``_``.  ``help`` is one text or
    one per command; ``%(default)s`` in it shows the default.  A number's
    value must lie ``within`` an interval, when one is written, as in
    ``"(0, 1]"``.
    """
    metadata = dict(kind=kind, commands=commands, required=required, flag=flag, help=help, within=within)
    return field(default=default, metadata=metadata)


def _within(interval: str, value: float) -> bool:
    """Whether ``value`` lies in ``interval``, written as ``"[0, 1)"``; nan lies in none."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    return above and (value <= high if interval[-1] == "]" else value < high)


_MAP, _COVERAGE, _PHERS, _SSSOM = ("map",), ("coverage",), ("phers",), ("export-sssom",)


@dataclass
class RunConfig:
    """One command's inputs and settings.  Each field declares one flag:
    ``cli`` builds each command's parser and checks each ``--config``
    value from these fields, and ``check_inputs`` checks a command's."""

    out_dir: str | None = _flag("output", _MAP + _COVERAGE + _PHERS + _SSSOM, "output directory", flag="out")
    concepts: str | None = _flag(
        "input",
        _MAP + _SSSOM,
        {"map": "concept table (TSV)", "export-sssom": "concept table used for the run"},
        required=True,
    )
    ancestors: str | None = _flag("input", _MAP, "concept ancestor pairs (TSV)")
    ontology_dumps: tuple[str, ...] = _flag(
        "inputs", _MAP, "ontology dump (JSONL); repeatable", (), required=True, flag="ontology"
    )
    umls_mrconso: str | None = _flag("input", _MAP, "MRCONSO.RRF")
    umls_mrsty: str | None = _flag("input", _MAP, "MRSTY.RRF")
    code_map: str | None = _flag("input", _MAP + _SSSOM, "prefix normalization dictionary (CSV)")
    stopwords: str | None = _flag("input", _MAP, "stopword list, one per line")
    routing: str | None = _flag("input", _MAP, "semantic-type routing policy (TSV)")
    curation: str | None = _flag("input", _MAP, "manual curation rows (TSV)")
    measurement_scales: str | None = _flag("input", _MAP, "measurement scale table (TSV)")
    measurement_targets: str | None = _flag("input", _MAP, "measurement result/auxiliary targets (TSV)")
    domain: Domain = _flag(Domain, _MAP, None, Domain.CONDITION)
    tau: float = _flag(float, _MAP, "cosine score floor (default %(default)s)", 0.25, within="[0, 1]")
    rho: float = _flag(float, _MAP, "kept fraction of survivors (default %(default)s)", 0.75, within="(0, 1]")
    jobs: int = _flag(int, _MAP, "accepted and ignored; runs are single-threaded", 0)
    mappings: str | None = _flag("input", _COVERAGE + _SSSOM, "mappings.tsv from the map command", required=True)
    prevalence: str | None = _flag("input", _COVERAGE, "per-site concept frequencies (TSV)", required=True)
    newer_cdm: str | None = _flag("input", _COVERAGE, "concept ids recovered in a newer CDM, one per line")
    excluded: str | None = _flag("input", _COVERAGE, "purposefully excluded concept ids, one per line")
    alpha: float = _flag(float, _COVERAGE, "family-wise alpha (default %(default)s)", 0.05, within="(0, 1)")
    weights: str | None = _flag("input", _PHERS, "phenotype weight table (TSV)", required=True)
    patients: str | None = _flag("input", _PHERS, "patient phenotype rows (TSV)", required=True)
    cohort: str | None = _flag("input", _PHERS, "patient group assignments (TSV)", required=True)
    sssom_out: str | None = _flag("output", _SSSOM, "output file path (default <out>/mappings_sssom.tsv)")


#: Each RunConfig field by its ``--config`` key: its flag's name, with ``_`` for ``-``.
FLAGS = {f.metadata["flag"] or f.name: f for f in fields(RunConfig)}


def check_inputs(cfg: RunConfig, command: str) -> None:
    """Raise ``ConfigError`` unless ``cfg`` holds every input ``command``
    requires, every input file it names exists, its inputs agree, and
    then each of its numbers lies within its flag's interval."""
    if not (cfg.out_dir or command == "export-sssom" and cfg.sssom_out):
        raise ConfigError("MISSING_INPUT", "--out is required")
    for key, f in FLAGS.items():
        if command not in f.metadata["commands"]:
            continue
        flag, kind, value = "--" + key.replace("_", "-"), f.metadata["kind"], getattr(cfg, f.name)
        if not value and f.metadata["required"]:
            raise ConfigError("MISSING_INPUT", f"{flag} is required")
        for path in value if kind == "inputs" else (value,) if kind == "input" and value else ():
            if not Path(path).exists():
                raise ConfigError("NO_SUCH_FILE", f"{flag}: {path} does not exist")
    if command == "map" and (cfg.umls_mrconso is None) != (cfg.umls_mrsty is None):
        raise ConfigError("MISSING_INPUT", "MRCONSO and MRSTY must be supplied together")
    for key, f in FLAGS.items():
        interval, value = f.metadata["within"], getattr(cfg, f.name)
        if command in f.metadata["commands"] and interval and not _within(interval, value):
            raise ConfigError("BAD_THRESHOLD", f"--{key.replace('_', '-')} must lie in {interval}, got {value}")


# A plain loop, kept with its unused ``jobs`` because perfbench's tracer wraps this name.
def _parallel_map(fn, items, jobs):
    return [fn(item) for item in items]


def _write_text(path: Path, lines) -> None:
    """Write ``lines``, each ended by a newline, to ``path`` whole or not
    at all: each line goes to a temporary file in the same directory as
    it comes, and the file then replaces ``path``.  A failure also removes
    the directories made for it."""
    made = list(takewhile(lambda d: not d.exists(), (path.parent, *path.parent.parents)))
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise


def _write_json(path: Path, payload) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True)])


#: Each summary.json table by the ``totals`` count it adds to.
_TABLES = {"mapped": "mapping_categories", "evidence": "mapping_evidence", "unmapped": "unmapped"}
_WAVES = ("used_in_practice", "not_used_in_practice")


class _Tally:
    """summary.json's per-ontology, per-wave counts of categories, evidence
    and reasons, folded in one record at a time as one flat count."""

    def __init__(self, concepts):
        self._concepts = concepts
        self._counts: dict = defaultdict(int)  # (total, ontology, wave, label) -> count

    def add(self, record: MappingRecord) -> None:
        ontology = record.ontology
        wave = "used_in_practice" if self._concepts[record.concept_id].used_in_practice else "not_used_in_practice"
        if record.category is MappingCategory.UNMAPPED:
            self._counts["unmapped", ontology, wave, record.unmapped_reason.label] += 1
            return
        self._counts["mapped", ontology, wave, record.category.label] += 1
        for atom in record.evidence:
            if atom.kind.group:
                self._counts["evidence", ontology, wave, atom.kind.group] += 1

    def tables(self) -> dict:
        """The tables and their totals; ``_write_json`` sorts every key."""
        tables: dict = {table: {} for table in (*_TABLES.values(), "totals")}
        for (total, ontology, wave, label), n in self._counts.items():
            tables[_TABLES[total]].setdefault(ontology, {}).setdefault(wave, {})[label] = n
            totals = tables["totals"].setdefault(ontology, {w: dict.fromkeys(_TABLES, 0) for w in _WAVES})
            totals[wave][total] += n
        return tables


def live_classes(classes) -> list:
    """The classes ``map`` aligns against: the non-deprecated ones, in CURIE order."""
    return sorted((cls for cls in classes if not cls.deprecated), key=lambda cls: cls.curie)


def run_map(cfg: RunConfig) -> Path:
    """Full mapping pass; writes mappings.tsv and summary.json to out_dir.

    Curation targets and target labels are looked up in the loaded classes
    by CURIE, deprecated ones too.  The ``live_classes`` are chosen once
    and are what the cosine corpus and the exact index both read."""
    _load("align", "similarity", "synthesize")
    check_inputs(cfg, "map")

    dictionary = load_code_dictionary(cfg.code_map)
    stopwords = load_stopwords(cfg.stopwords) if cfg.stopwords else default_stopwords()

    # Unpacked, so that no name holds the loaded concepts once ``enrich_concepts`` has copied them.
    concepts, ancestors, dangling_ancestors, unlisted_ancestor_rows, other_domain = load_concepts(
        cfg.concepts, dictionary, cfg.domain, cfg.ancestors
    )

    classes = {}
    for dump in cfg.ontology_dumps:
        load_ontology_dump(dump, dictionary, classes)
    ontologies = sorted({cls.ontology for cls in classes.values()})

    if cfg.umls_mrconso:
        codes = {(c.code.prefix, c.code.code) for c in concepts.values()}
        tables = load_umls(cfg.umls_mrconso, cfg.umls_mrsty, codes, dictionary)
        bridge = CuiBridge(tables.atoms_by_code)
        concepts = enrich_concepts(concepts, bridge, tables.sty_by_cui)

    policy = load_routing_policy(cfg.routing, ontologies) if cfg.routing else RoutingPolicy.allow_all(ontologies)
    curation: dict[int, dict] = {}
    unknown_curation_targets: tuple[str, ...] = ()
    if cfg.curation:
        curation_load = load_curation(cfg.curation, ontologies, classes)
        curation, unknown_curation_targets = curation_load.rows, curation_load.unknown_targets

    scales = {}
    assignments: dict[int, list] = {}
    aux: dict[int, list] = {}
    if cfg.domain is Domain.MEASUREMENT:
        if cfg.measurement_scales:
            scales = load_measurement_scales(cfg.measurement_scales)
        if cfg.measurement_targets:
            assignments, aux = load_measurement_targets(cfg.measurement_targets)

    # Rows for a concept of another domain are rightly skipped; rows for a
    # concept listed in no domain are reported.
    def unlisted(ids):
        return [cid for cid in ids if cid not in concepts and cid not in other_domain]

    for path, n in (
        (cfg.ancestors, unlisted_ancestor_rows),
        (cfg.curation, sum(len(curation[cid]) for cid in unlisted(curation))),
        (cfg.measurement_scales, len(unlisted(scales))),
        (cfg.measurement_targets, sum(len(table[cid]) for table in (assignments, aux) for cid in unlisted(table))),
    ):
        if n:
            named = "1 row names" if n == 1 else f"{n} rows name"
            print(f"warning: {Path(path).name}: {named} a concept that {Path(cfg.concepts).name} does not list",
                  file=sys.stderr)

    out_dir = Path(cfg.out_dir)
    tally = _Tally(concepts)
    rows = ()

    if concepts:
        decisions = {cid: route(c, policy) for cid, c in concepts.items()}
        live = live_classes(classes.values())

        model = fit(build_corpus(concepts.values(), live, stopwords))
        pairs = score_concept_pairs(
            model, routing=lambda cid: decisions[cid].allowed, score_floor=cfg.tau
        )
        del model  # the matrix is not read past scoring; free it before the cut
        # The keep-fraction cut is scoped per (domain, ontology) run.
        winners = best_per_concept(filter_pairs(pairs, cfg.tau, cfg.rho))
        del pairs  # the per-ontology scores, freed before synthesis
        # Only the per-concept ladder reads the indexes, so they are built
        # after scoring and the cut have freed their arrays.
        indexes = build_indexes(live)
        ancestor_hits: dict[int, dict] = {}

        def process(concept_id: int) -> list[MappingRecord]:
            concept = concepts[concept_id]
            decision = decisions[concept_id]
            curated = curation.get(concept_id, {})
            claimed: dict[str, list[MappingRecord]] = defaultdict(list)
            if cfg.domain is Domain.MEASUREMENT:
                unspecified = any(
                    row.unmapped_reason is UnmappedReason.UNSPECIFIED_SAMPLE
                    for row in curated.values()
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
            exact_c = align_concept(concept, indexes, allowed) if allowed else {}
            remaining = allowed - exact_c.keys()
            exact_a = (
                align_via_ancestors(ancestors.get(concept_id, ()), concepts, indexes, remaining, memo=ancestor_hits)
                if remaining else {}
            )
            return synthesize(
                concept, exact_c, exact_a, winners.for_concept(concept_id), curated, decision, ontologies, claimed
            )

        def stream():
            """Each record's row, validated and tallied, one concept at a time.

            Concepts are taken in ascending id and ``synthesize`` gives
            each concept's records in row order, so the rows come out in
            the global order.  Only one concept's records are alive at once.
            """
            for concept_id in sorted(concepts):
                (records,) = _parallel_map(process, (concept_id,), cfg.jobs)
                for record in records:
                    violation = validate_record(record)
                    if violation is not None:
                        raise DataError(
                            "INVALID_RECORD",
                            f"concept {record.concept_id}/{record.ontology}: "
                            f"{violation.rule} at {violation.field_path}",
                        )
                    tally.add(record)
                    yield mapping_line(record, classes)

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
            "dangling_ancestors": dangling_ancestors,
            "unknown_curation_targets": list(unknown_curation_targets),
        },
    }
    summary.update(tally.tables())
    _write_json(out_dir / "summary.json", summary)
    return out_dir


def run_coverage(cfg: RunConfig) -> Path:
    """Coverage partition, omnibus + pairwise tests, and error buckets."""
    _load("evaluate", "stats")
    check_inputs(cfg, "coverage")

    mapped_ids = {
        concept_id
        for concept_id, _, _, category, *_ in load_mappings(cfg.mappings)
        if category is not MappingCategory.UNMAPPED
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
        "per_site": [{**asdict(s), "coverage_pct": s.coverage_pct} for s in report.per_site],
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
                *(
                    ("", "", "")
                    if test.result is None
                    else (f"{test.result.statistic:.12g}", str(test.result.df), f"{test.result.p_value:.12g}")
                ),
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
    check_inputs(cfg, "phers")
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

    payload = {
        "statistic": test.statistic,
        "p_value": test.p_value,
        "exact": test.exact,
        "raw_mean": result.raw_mean,
        "raw_sd": result.raw_sd,
        "out_of_cohort_rows": out_of_cohort_rows,
        "standardization": "sample_sd",
        "cases": asdict(group_stats(by_group["CASE"])),
        "controls": asdict(group_stats(by_group["CONTROL"])),
    }
    _write_json(out_dir / "test.json", payload)
    return out_dir


def _sssom_rows(mappings, concepts, concepts_name):
    """SSSOM rows for each mapping row as it arrives, one per target, with
    the row's ``evidence`` as read for the comment.  A row for a concept
    not in ``concepts`` is ``UNKNOWN_CONCEPT``."""
    for concept_id, _, ontology, category, _, _, targets, labels, _, evidence, _, outcome in mappings:
        concept = concepts.get(concept_id)
        if concept is None:
            message = f"a mapping row names concept {concept_id}, which {concepts_name} does not list"
            raise DataError("UNKNOWN_CONCEPT", message)
        if category is MappingCategory.UNMAPPED:
            continue
        subject_id, subject_label = str(concept.code), concept.label
        justification = category.justification.value
        set_id = f"{concept_id}:{ontology}" + (f":{outcome.value}" if outcome else "")
        for target, label in zip(targets, labels):
            yield "\t".join([subject_id, subject_label, target, label, justification, set_id, evidence])


def export_sssom(cfg: RunConfig) -> Path:
    """Flatten mapping rows into an interchange TSV, one row per target,
    written to ``sssom_out`` or else ``<out_dir>/mappings_sssom.tsv``.

    One-to-many records share a mapping_set_id so consumers can rebuild
    the grouping; unmapped records contribute no rows.  Mapping rows are
    rendered and written as they are read.  Each ``subject_id`` is spelled
    as ``map`` spells the concept's code: through ``code_map``, or the
    vendored prefix dictionary.  Every row's concept must be listed in
    ``concepts``; a row for another leaves no file.
    """
    check_inputs(cfg, "export-sssom")
    concepts = load_concepts(cfg.concepts, load_code_dictionary(cfg.code_map)).concepts
    rows = _sssom_rows(load_mappings(cfg.mappings), concepts, Path(cfg.concepts).name)
    out = Path(cfg.sssom_out or Path(cfg.out_dir) / "mappings_sssom.tsv")
    header = "subject_id\tsubject_label\tobject_id\tobject_label\tmapping_justification\tmapping_set_id\tcomment"
    _write_text(out, chain([header], rows))
    return out
