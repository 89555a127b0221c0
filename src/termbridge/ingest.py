"""Parsers for every external input.

All parsers stream line by line, carry 1-based line numbers on errors,
and produce immutable indexes.  Every TSV with a header row goes through
``_read_rows``, which checks the header and each row's column count.
File formats:

  concepts.tsv          concept_id  vocabulary  concept_code  label
                        synonyms  domain  used_in_practice  record_count
                        (synonyms pipe-delimited, booleans 0/1)
  concept_ancestors.tsv concept_id  ancestor_concept_id (header optional)
  ontology.jsonl        one JSON object per class:
                        {"curie","ontology","label","definition",
                         "synonyms":[{"text","kind"}],"xrefs":[str],
                         "deprecated":bool}
  MRCONSO.RRF           pipe-delimited, >= 15 fields; uses 0 CUI, 11 SAB,
                        13 CODE; trailing pipe tolerated
  MRSTY.RRF             pipe-delimited, >= 4 fields; uses 0 CUI, 3 STY
  routing_policy.tsv    semantic_type  action  value
  curation.tsv          concept_id  ontology  logic  targets  evidence
                        unmapped_reason  (targets pipe-delimited CURIEs)
  measurement_scales.tsv   concept_id  scale  reference_range_kind
  measurement_targets.tsv  concept_id  outcome  curie  negated
  mappings.tsv          the map command's output (MAPPINGS_HEADER)
  prevalence.tsv        site_id  concept_id  record_count
  id lists              one concept id per line, no header
  weights / patients / cohort   hpo_curie  weight / patient_id  hpo_curie
                        / patient_id  group
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass

from .core import (
    ClassSynonym,
    ClinicalConcept,
    CodeRef,
    Domain,
    MeasurementOutcome,
    MeasurementScale,
    OntologyClass,
    ResultAssignment,
    SynonymKind,
    UnmappedReason,
)
from .errors import DataError, ParseError
from .lexical import NormalizationDictionary, canonicalize_code

_CUI_RE = re.compile(r"^C\d{7}$")

CONCEPT_HEADER = [
    "concept_id",
    "vocabulary",
    "concept_code",
    "label",
    "synonyms",
    "domain",
    "used_in_practice",
    "record_count",
]

MAPPINGS_HEADER = [
    "concept_id",
    "domain",
    "ontology",
    "category",
    "level",
    "logic",
    "targets",
    "target_labels",
    "score",
    "evidence",
    "unmapped_reason",
    "outcome",
]

PREVALENCE_FLOOR = 100


@dataclass(frozen=True)
class SiteFrequency:
    site_id: str
    concept_id: int
    record_count: int

    def __post_init__(self):
        if self.record_count < PREVALENCE_FLOOR:
            raise ValueError(f"record_count below floor: {self.record_count}")


@dataclass(frozen=True)
class CurationRow:
    concept_id: int
    ontology: str
    targets: tuple[str, ...]
    logic: str
    evidence: str
    unmapped_reason: UnmappedReason | None = None

    def __post_init__(self):
        has_targets = bool(self.targets)
        has_reason = self.unmapped_reason is not None
        if has_targets == has_reason:
            raise ValueError("exactly one of targets / unmapped_reason required")


@dataclass(frozen=True)
class RoutingPolicy:
    """Semantic-type driven ontology routing.

    ``allow`` maps a semantic type to the ontologies its concepts may
    target; ``exclude`` maps a semantic type to an unmapped reason.
    Exclusion wins over allow rules.  Concepts whose semantic types carry
    no allow rule fall back to the full configured ontology set.
    """

    allow: dict[str, frozenset[str]]
    exclude: dict[str, UnmappedReason]
    default_ontologies: frozenset[str]

    @classmethod
    def allow_all(cls, ontologies) -> "RoutingPolicy":
        return cls(allow={}, exclude={}, default_ontologies=frozenset(o.upper() for o in ontologies))


_RANGE_KINDS = {"NUMERIC", "POS_NEG", "NONE"}


@dataclass(frozen=True)
class ScaleRow:
    concept_id: int
    scale: MeasurementScale
    reference_range_kind: str  # NUMERIC | POS_NEG | NONE

    def __post_init__(self):
        if self.reference_range_kind not in _RANGE_KINDS:
            raise ValueError(f"bad reference_range_kind {self.reference_range_kind!r}")


@dataclass(frozen=True)
class AuxTarget:
    ontology: str
    curie: str


@dataclass(frozen=True)
class ConceptLoad:
    concepts: dict[int, ClinicalConcept]
    dangling_ancestors: int


@dataclass(frozen=True)
class UmlsTables:
    atoms_by_code: dict[tuple[str, str], tuple[str, ...]]  # (SAB, CODE) -> sorted CUIs
    sty_by_cui: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class PrevalenceLoad:
    rows: tuple[SiteFrequency, ...]
    floored: int


@dataclass(frozen=True)
class CurationLoad:
    rows: tuple[CurationRow, ...]
    unknown_targets: tuple[str, ...]


def _read_rows(path, expected_header):
    """Yield (lineno, fields) for a TSV with a mandatory header row.

    Every row must have exactly as many columns as the header.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ParseError("MISSING_COLUMN", "empty file, header required", str(path), 1)
        cols = header.rstrip("\n").rstrip("\r").split("\t")
        for want in expected_header:
            if want not in cols:
                raise ParseError("MISSING_COLUMN", f"missing column {want!r}", str(path), 1)
        if cols != expected_header:
            raise ParseError(
                "MISSING_COLUMN",
                f"header must be exactly {expected_header}, got {cols}",
                str(path),
                1,
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(expected_header):
                raise ParseError(
                    "MALFORMED_ROW", f"expected {len(expected_header)} columns", str(path), lineno
                )
            yield lineno, fields


def _parse_reason(raw: str) -> UnmappedReason:
    key = raw.strip().upper().replace(" ", "_").replace("-", "_")
    try:
        return UnmappedReason[key]
    except KeyError:
        raise ValueError(raw) from None


def _load_ancestor_pairs(path):
    """concept_id -> the ids of its ancestors."""
    pairs = defaultdict(set)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or (lineno == 1 and line.startswith("concept_id")):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError("MALFORMED_ROW", "expected 2 columns", str(path), lineno)
            try:
                child, ancestor = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None
            if child == ancestor:
                raise ParseError(
                    "MALFORMED_ROW", f"self-loop ancestor for {child}", str(path), lineno
                )
            pairs[child].add(ancestor)
    return pairs


def load_concepts(
    path,
    domain: Domain | None = None,
    ancestors_path=None,
    dictionary: NormalizationDictionary | None = None,
) -> ConceptLoad:
    """Parse a concept table, optionally joining an ancestor file.

    When ``domain`` is given, rows from other domains are skipped so one
    shared extract can feed per-domain runs.  Ancestor references that do
    not resolve to a loaded concept are dropped and counted.
    """
    dictionary = dictionary or NormalizationDictionary.empty()
    rows: dict[int, dict] = {}
    for lineno, fields in _read_rows(path, CONCEPT_HEADER):
        raw = dict(zip(CONCEPT_HEADER, fields))
        try:
            concept_id = int(raw["concept_id"])
            row_domain = Domain(raw["domain"])
            used = {"0": False, "1": True}[raw["used_in_practice"]]
            record_count = int(raw["record_count"])
        except (ValueError, KeyError) as exc:
            raise ParseError("MALFORMED_ROW", f"bad field value: {exc}", str(path), lineno) from None
        if domain is not None and row_domain is not domain:
            continue
        if concept_id in rows:
            raise ParseError("DUPLICATE_ID", f"concept_id {concept_id} repeated", str(path), lineno)
        synonyms = tuple(s for s in raw["synonyms"].split("|") if s) if raw["synonyms"] else ()
        vocab = dictionary.canonical_prefix(raw["vocabulary"])
        rows[concept_id] = dict(
            concept_id=concept_id,
            vocabulary=vocab,
            code_str=raw["concept_code"].strip(),
            label=raw["label"],
            synonyms=synonyms,
            domain=row_domain,
            used_in_practice=used,
            record_count=record_count,
            lineno=lineno,
        )

    ancestor_map = {}
    if ancestors_path is not None:
        ancestor_map = _load_ancestor_pairs(ancestors_path)

    dangling = 0
    concepts: dict[int, ClinicalConcept] = {}
    for concept_id, r in rows.items():
        resolved = []
        for anc in sorted(ancestor_map.get(concept_id, ())):
            if anc in rows:
                resolved.append(anc)
            else:
                dangling += 1
        try:
            concepts[concept_id] = ClinicalConcept(
                concept_id=concept_id,
                vocabulary=r["vocabulary"],
                code=CodeRef(r["vocabulary"], r["code_str"]),
                label=r["label"],
                synonyms=r["synonyms"],
                domain=r["domain"],
                used_in_practice=r["used_in_practice"],
                record_count=r["record_count"],
                ancestors=tuple(resolved),
            )
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), r["lineno"]) from None
    return ConceptLoad(concepts=concepts, dangling_ancestors=dangling)


def load_ontology_dump(path, dictionary: NormalizationDictionary | None = None) -> dict[str, OntologyClass]:
    """Parse a JSON-Lines ontology dump, keyed by CURIE.

    Xref strings are canonicalized through the prefix dictionary.
    Deprecated classes are loaded and flagged; target indexes built
    downstream must exclude them.
    """
    dictionary = dictionary or NormalizationDictionary.empty()
    classes: dict[str, OntologyClass] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError("MALFORMED_LINE", f"bad JSON: {exc}", str(path), lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("MALFORMED_LINE", "expected a JSON object", str(path), lineno)
            for key in ("curie", "ontology", "label"):
                if key not in obj:
                    raise ParseError("MALFORMED_LINE", f"missing key {key!r}", str(path), lineno)
            curie = obj["curie"]
            if curie in classes:
                raise ParseError("DUPLICATE_CURIE", f"class {curie} repeated", str(path), lineno)
            try:
                synonyms = tuple(
                    ClassSynonym(text=s["text"], kind=SynonymKind(s.get("kind", "EXACT")))
                    for s in obj.get("synonyms", ())
                )
            except (TypeError, KeyError, ValueError) as exc:
                raise ParseError("MALFORMED_LINE", f"bad synonyms: {exc}", str(path), lineno) from None
            try:
                xrefs = tuple(
                    sorted(canonicalize_code(x, dictionary) for x in obj.get("xrefs", ()))
                )
            except (DataError, ValueError) as exc:
                raise ParseError("MALFORMED_LINE", f"bad xref: {exc}", str(path), lineno) from None
            try:
                classes[curie] = OntologyClass(
                    curie=curie,
                    ontology=str(obj["ontology"]).upper(),
                    label=obj["label"],
                    definition=obj.get("definition"),
                    synonyms=synonyms,
                    xrefs=xrefs,
                    deprecated=bool(obj.get("deprecated", False)),
                )
            except ValueError as exc:
                raise ParseError("BAD_CURIE", str(exc), str(path), lineno) from None
    return classes


def load_umls(mrconso_path, mrsty_path) -> UmlsTables:
    """Stream MRCONSO/MRSTY and retain only the bridging projections.

    Peak memory is bounded by the retained index, not file size: each
    line is processed and discarded, and a (SAB, CODE) key keeps only
    its CUIs.
    """
    cuis: dict[tuple[str, str], set[str]] = defaultdict(set)
    with open(mrconso_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("|")
            if fields and fields[-1] == "":
                fields = fields[:-1]
            if len(fields) < 15:
                raise ParseError("SHORT_ROW", f"{len(fields)} fields, need >= 15", str(mrconso_path), lineno)
            cui, sab, code = fields[0], fields[11], fields[13]
            if not _CUI_RE.match(cui):
                raise ParseError("BAD_CUI", f"bad CUI {cui!r}", str(mrconso_path), lineno)
            if not sab.strip() or not code.strip():
                raise ParseError("SHORT_ROW", "blank SAB or CODE", str(mrconso_path), lineno)
            cuis[(sab, code)].add(cui)

    sty: dict[str, set[str]] = defaultdict(set)
    with open(mrsty_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("|")
            if fields and fields[-1] == "":
                fields = fields[:-1]
            if len(fields) < 4:
                raise ParseError("SHORT_ROW", f"{len(fields)} fields, need >= 4", str(mrsty_path), lineno)
            cui, name = fields[0], fields[3]
            if not _CUI_RE.match(cui):
                raise ParseError("BAD_CUI", f"bad CUI {cui!r}", str(mrsty_path), lineno)
            sty[cui].add(name)

    return UmlsTables(
        atoms_by_code={key: tuple(sorted(group)) for key, group in cuis.items()},
        sty_by_cui={cui: tuple(sorted(names)) for cui, names in sty.items()},
    )


def load_prevalence(path) -> PrevalenceLoad:
    """Per-site concept frequencies; counts below 100 are floored to 100."""
    rows = []
    floored = 0
    for lineno, fields in _read_rows(path, ["site_id", "concept_id", "record_count"]):
        try:
            concept_id = int(fields[1])
            count = int(fields[2])
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", f"bad integer: {exc}", str(path), lineno) from None
        if count < 0:
            raise ParseError("MALFORMED_ROW", f"negative count {count}", str(path), lineno)
        if count < PREVALENCE_FLOOR:
            count = PREVALENCE_FLOOR
            floored += 1
        rows.append(SiteFrequency(site_id=fields[0], concept_id=concept_id, record_count=count))
    return PrevalenceLoad(rows=tuple(rows), floored=floored)


CURATION_HEADER = ["concept_id", "ontology", "logic", "targets", "evidence", "unmapped_reason"]


def load_curation(path, known_ontologies, known_curies=None) -> CurationLoad:
    """Parse manually-derived mapping rows.

    Target CURIEs outside ``known_curies`` (when given) are collected and
    reported, not rejected: curation may legitimately reference classes
    newer than the loaded dump.
    """
    known = {o.upper() for o in known_ontologies}
    rows = []
    unknown_targets = []
    for lineno, fields in _read_rows(path, CURATION_HEADER):
        concept_raw, ontology, logic, targets_raw, evidence, reason_raw = fields
        try:
            concept_id = int(concept_raw)
        except ValueError:
            raise ParseError("MALFORMED_ROW", f"bad concept_id {concept_raw!r}", str(path), lineno) from None
        ontology = ontology.strip().upper()
        if ontology not in known:
            raise ParseError("UNKNOWN_ONTOLOGY", f"ontology {ontology!r}", str(path), lineno)
        targets = tuple(t.strip() for t in targets_raw.split("|") if t.strip())
        reason = None
        if reason_raw.strip():
            try:
                reason = _parse_reason(reason_raw)
            except ValueError:
                raise ParseError("UNKNOWN_REASON", f"reason {reason_raw!r}", str(path), lineno) from None
        if targets and reason is not None:
            raise ParseError(
                "BOTH_TARGETS_AND_REASON", "row has targets and an unmapped reason", str(path), lineno
            )
        if not targets and reason is None:
            raise ParseError("MALFORMED_ROW", "row has neither targets nor reason", str(path), lineno)
        logic = logic.strip()
        if targets and len(targets) >= 2 and not logic:
            logic = "AND(" + ",".join(str(i) for i in range(len(targets))) + ")"
        if known_curies is not None:
            for t in targets:
                if t not in known_curies:
                    unknown_targets.append(t)
        try:
            rows.append(
                CurationRow(
                    concept_id=concept_id,
                    ontology=ontology,
                    targets=targets,
                    logic=logic,
                    evidence=evidence,
                    unmapped_reason=reason,
                )
            )
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None
    return CurationLoad(rows=tuple(rows), unknown_targets=tuple(sorted(set(unknown_targets))))


ROUTING_HEADER = ["semantic_type", "action", "value"]


def load_routing_policy(path, configured_ontologies) -> RoutingPolicy:
    """Parse routing_policy.tsv (`semantic_type  action  value`).

    ALLOW values are pipe-delimited ontology keys, EXCLUDE values an
    unmapped reason.  A semantic type may carry at most one exclusion.
    """
    allow: dict[str, frozenset[str]] = {}
    exclude: dict[str, UnmappedReason] = {}
    for lineno, fields in _read_rows(path, ROUTING_HEADER):
        sty, action, value = fields[0], fields[1].strip().upper(), fields[2]
        if action == "ALLOW":
            ontologies = frozenset(o.strip().upper() for o in value.split("|") if o.strip())
            if not ontologies:
                raise ParseError("MALFORMED_ROW", "ALLOW needs an ontology list", str(path), lineno)
            allow[sty] = allow.get(sty, frozenset()) | ontologies
        elif action == "EXCLUDE":
            try:
                reason = _parse_reason(value)
            except ValueError:
                raise ParseError("UNKNOWN_REASON", f"reason {value!r}", str(path), lineno) from None
            if sty in exclude and exclude[sty] is not reason:
                raise ParseError(
                    "CONFLICTING_RULE", f"two exclusion reasons for {sty!r}", str(path), lineno
                )
            exclude[sty] = reason
        else:
            raise ParseError("MALFORMED_ROW", f"unknown action {action!r}", str(path), lineno)
    return RoutingPolicy(
        allow=allow,
        exclude=exclude,
        default_ontologies=frozenset(o.upper() for o in configured_ontologies),
    )


SCALE_HEADER = ["concept_id", "scale", "reference_range_kind"]
TARGET_HEADER = ["concept_id", "outcome", "curie", "negated"]


def load_measurement_scales(path) -> dict[int, ScaleRow]:
    rows = {}
    for lineno, fields in _read_rows(path, SCALE_HEADER):
        try:
            row = ScaleRow(
                concept_id=int(fields[0]),
                scale=MeasurementScale(fields[1].strip().upper()),
                reference_range_kind=fields[2].strip().upper(),
            )
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None
        if row.concept_id in rows:
            raise ParseError("DUPLICATE_ID", f"concept {row.concept_id} repeated", str(path), lineno)
        rows[row.concept_id] = row
    return rows


def load_measurement_targets(path):
    """Result assignments and auxiliary targets from one file.

    A row whose second column is a result outcome is an assignment; a row
    whose second column is an ontology key is an auxiliary target (its
    negated column must be empty or 0).
    """
    outcomes = {o.value for o in MeasurementOutcome}
    assignments: dict[int, list[ResultAssignment]] = defaultdict(list)
    aux: dict[int, list[AuxTarget]] = defaultdict(list)
    for lineno, fields in _read_rows(path, TARGET_HEADER):
        concept_raw, kind_raw, curie, negated_raw = (f.strip() for f in fields)
        try:
            concept_id = int(concept_raw)
        except ValueError:
            raise ParseError("MALFORMED_ROW", f"bad concept_id {concept_raw!r}", str(path), lineno) from None
        key = kind_raw.upper()
        if key in outcomes:
            if negated_raw not in {"0", "1"}:
                raise ParseError("MALFORMED_ROW", f"negated must be 0/1, got {negated_raw!r}", str(path), lineno)
            assignments[concept_id].append(
                ResultAssignment(
                    outcome=MeasurementOutcome(key), curie=curie, negated=negated_raw == "1"
                )
            )
        else:
            if negated_raw not in {"", "0"}:
                raise ParseError(
                    "MALFORMED_ROW", "auxiliary rows cannot be negated", str(path), lineno
                )
            aux[concept_id].append(AuxTarget(ontology=key, curie=curie))
    return dict(assignments), dict(aux)


def load_mappings(path) -> list[dict[str, str]]:
    """Rows of mappings.tsv as dicts keyed by header name."""
    return [dict(zip(MAPPINGS_HEADER, fields)) for _, fields in _read_rows(path, MAPPINGS_HEADER)]


def load_id_list(path) -> set[int]:
    """Concept ids, one per line, no header."""
    ids = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ids.add(int(line))
            except ValueError:
                raise ParseError("MALFORMED_ROW", f"bad concept id {line!r}", str(path), lineno) from None
    return ids


def load_two_column(path, header, value_parser) -> list[tuple[str, object]]:
    """(key, parsed value) rows of a two-column TSV."""
    out = []
    for lineno, (key, raw) in _read_rows(path, header):
        try:
            out.append((key, value_parser(raw)))
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None
    return out


def load_cohort(path) -> dict[str, str]:
    """patient_id -> CASE or CONTROL; each patient is listed once."""
    groups = {}
    for lineno, (patient_id, group) in _read_rows(path, ["patient_id", "group"]):
        group = group.strip().upper()
        if group not in {"CASE", "CONTROL"}:
            raise ParseError("MALFORMED_ROW", f"bad group {group!r}", str(path), lineno)
        if patient_id in groups:
            raise ParseError("DUPLICATE_ID", f"patient_id {patient_id!r} repeated", str(path), lineno)
        groups[patient_id] = group
    return groups
