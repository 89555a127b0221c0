"""Parsers for every external input.

All parsers stream line by line and carry 1-based line numbers on errors.
Files are opened by ``errors.open_text``: bytes that are not UTF-8 are a
``BAD_ENCODING`` error naming the file and line.
Every TSV with a header row goes through ``_read_rows``, which checks the
header and each row's column count.  ``load_prevalence`` folds its rows
as it reads them, and ``load_mappings`` and ``load_patient_phenotypes``
yield rows, so no per-row table of those files is held; the other
loaders return immutable indexes.
File formats:

  concepts.tsv          concept_id  vocabulary  concept_code  label
                        synonyms  domain  used_in_practice  record_count
                        (synonyms pipe-delimited, booleans 0/1;
                        record_count is validated only: >= 0, and > 0
                        when used_in_practice)
  concept_ancestors.tsv concept_id  ancestor_concept_id (header optional)
  ontology.jsonl        one JSON object per class:
                        {"curie","ontology","label","definition",
                         "synonyms":[{"text","kind"}],"xrefs":[str],
                         "deprecated":bool}; a synonym's kind is EXACT
                        (the default), RELATED, BROAD or NARROW, validated
                        but not kept
  MRCONSO.RRF           pipe-delimited, >= 15 fields; uses 0 CUI, 11 SAB,
                        13 CODE; trailing pipe tolerated; every row is
                        validated, only the loaded concepts' codes are
                        kept, under their (canonical prefix, code) key
  MRSTY.RRF             pipe-delimited, >= 4 fields; uses 0 CUI, 3 STY;
                        only the kept CUIs' rows are kept
  routing_policy.tsv    semantic_type  action  value
  curation.tsv          concept_id  ontology  logic  targets  evidence
                        unmapped_reason  (targets pipe-delimited CURIEs)
  measurement_scales.tsv   concept_id  scale  reference_range_kind
  measurement_targets.tsv  concept_id  outcome  curie  negated
  mappings.tsv          the map command's output (MAPPINGS_HEADER);
                        concept_id is an integer
  prevalence.tsv        site_id  concept_id  record_count  (one row per
                        (site_id, concept_id))
  id lists              one concept id per line, no header
  weights / patients / cohort   hpo_curie  weight / patient_id  hpo_curie
                        / patient_id  group  (weights finite: no nan/inf;
                        one row per weight CURIE and per cohort patient)
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass

from .core import (
    ClinicalConcept,
    CodeRef,
    Domain,
    MeasurementOutcome,
    MeasurementScale,
    OntologyClass,
    ResultAssignment,
    UnmappedReason,
    is_code_prefix,
)
from .errors import DataError, ParseError, open_text
from .lexical import NormalizationDictionary, canonicalize_code


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
    atoms_by_code: dict[tuple[str, str], tuple[str, ...]]  # (prefix, code) -> sorted CUIs
    sty_by_cui: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class PrevalenceTable:
    """prevalence.tsv folded while it is read.

    ``pooled`` maps each concept to its post-floor record count summed
    over sites, ``site_count`` to the number of sites listing it, and
    ``sites`` maps each site to its concepts.  ``len()`` is the number of
    (site, concept) cells, one per data row.
    """

    pooled: dict[int, int]
    site_count: dict[int, int]
    sites: dict[str, set[int]]

    def __len__(self) -> int:
        return sum(self.site_count.values())


@dataclass(frozen=True)
class PrevalenceLoad:
    rows: PrevalenceTable
    floored: int


@dataclass(frozen=True)
class CurationLoad:
    rows: tuple[CurationRow, ...]
    unknown_targets: tuple[str, ...]


def is_cui(cui: str) -> bool:
    """True for a UMLS CUI: ``C`` and seven decimal digits.

    ``isdecimal`` accepts exactly what ``\\d`` does in a str pattern, so
    this agrees with ``^C\\d{7}$`` on every string without a newline,
    and lines are split on newlines before a CUI is read.
    """
    return len(cui) == 8 and cui[0] == "C" and cui[1:].isdecimal()


def _read_rows(path, expected_header):
    """Yield (lineno, fields) for a TSV with a mandatory header row.

    Every row must have exactly as many columns as the header.
    """
    with open_text(path) as fh:
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


def _load_ancestor_pairs(path, children):
    """concept_id -> the ids of its ancestors, for the ids in ``children``.

    Every row is validated; rows for other children are then skipped.
    """
    pairs = defaultdict(set)
    with open_text(path) as fh:
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
            if child in children:
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
    # concept_id -> (prefix, code, label, synonyms, domain, used, record_count, lineno)
    rows: dict[int, tuple] = {}
    for lineno, fields in _read_rows(path, CONCEPT_HEADER):
        raw_id, vocabulary, code, label, raw_synonyms, raw_domain, raw_used, raw_count = fields
        try:
            concept_id = int(raw_id)
            row_domain = Domain(raw_domain)
            used = {"0": False, "1": True}[raw_used]
            record_count = int(raw_count)
        except (ValueError, KeyError) as exc:
            raise ParseError("MALFORMED_ROW", f"bad field value: {exc}", str(path), lineno) from None
        if domain is not None and row_domain is not domain:
            continue
        if concept_id in rows:
            raise ParseError("DUPLICATE_ID", f"concept_id {concept_id} repeated", str(path), lineno)
        synonyms = tuple(s for s in raw_synonyms.split("|") if s) if raw_synonyms else ()
        rows[concept_id] = (
            dictionary.canonical_prefix(vocabulary),
            code.strip(),
            label,
            synonyms,
            row_domain,
            used,
            record_count,
            lineno,
        )

    ancestor_map = {}
    if ancestors_path is not None:
        ancestor_map = _load_ancestor_pairs(ancestors_path, rows)

    dangling = 0
    concepts: dict[int, ClinicalConcept] = {}
    for concept_id, (prefix, code, label, synonyms, row_domain, used, record_count, lineno) in rows.items():
        resolved = []
        for anc in sorted(ancestor_map.get(concept_id, ())):
            if anc in rows:
                resolved.append(anc)
            else:
                dangling += 1
        try:
            if record_count < 0:
                raise ValueError(f"record_count must be >= 0: {record_count}")
            if used and record_count == 0:
                raise ValueError(f"concept {concept_id}: record_count 0 requires used_in_practice false")
            concepts[concept_id] = ClinicalConcept(
                concept_id=concept_id,
                code=CodeRef(prefix, code),
                label=label,
                synonyms=synonyms,
                domain=row_domain,
                used_in_practice=used,
                ancestors=tuple(resolved),
            )
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None
    return ConceptLoad(concepts=concepts, dangling_ancestors=dangling)


# The ontology JSONL object's fields: key -> (accepted types, what the error says).
_CLASS_FIELDS = {
    "curie": (str, "a string"),
    "ontology": (str, "a string"),
    "label": (str, "a string"),
    "definition": ((str, type(None)), "a string or null"),
    "synonyms": (list, "a list"),
    "xrefs": (list, "a list"),
    "deprecated": (bool, "true or false"),
}

# A synonym's ``kind`` is validated but not kept: no stage reads it.  A
# tuple, so an unhashable JSON value is compared, not hashed.
_SYNONYM_KINDS = ("EXACT", "RELATED", "BROAD", "NARROW")


def load_ontology_dump(path, dictionary: NormalizationDictionary | None = None) -> dict[str, OntologyClass]:
    """Parse a JSON-Lines ontology dump, keyed by CURIE.

    Xref strings are canonicalized through the prefix dictionary.
    Deprecated classes are loaded and flagged; target indexes built
    downstream must exclude them.
    """
    dictionary = dictionary or NormalizationDictionary.empty()
    classes: dict[str, OntologyClass] = {}
    with open_text(path) as fh:
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
            for key, (types, expected) in _CLASS_FIELDS.items():
                if key in obj and not isinstance(obj[key], types):
                    raise ParseError(
                        "MALFORMED_LINE", f"field {key!r} must be {expected}", str(path), lineno
                    )
            curie = obj["curie"]
            if curie in classes:
                raise ParseError("DUPLICATE_CURIE", f"class {curie} repeated", str(path), lineno)
            raw_synonyms = obj.get("synonyms", [])
            if not all(
                isinstance(s, dict) and isinstance(s.get("text"), str) and s.get("kind", "EXACT") in _SYNONYM_KINDS
                for s in raw_synonyms
            ):
                raise ParseError(
                    "MALFORMED_LINE",
                    "field 'synonyms' must hold objects with a string 'text' and an optional 'kind'"
                    " of EXACT, RELATED, BROAD or NARROW",
                    str(path),
                    lineno,
                )
            raw_xrefs = obj.get("xrefs", [])
            if not all(isinstance(x, str) for x in raw_xrefs):
                raise ParseError("MALFORMED_LINE", "field 'xrefs' must hold strings", str(path), lineno)
            try:
                xrefs = tuple(sorted(canonicalize_code(x, dictionary) for x in raw_xrefs))
            except (DataError, ValueError) as exc:
                raise ParseError("MALFORMED_LINE", f"field 'xrefs': {exc}", str(path), lineno) from None
            try:
                classes[curie] = OntologyClass(
                    curie=curie,
                    ontology=obj["ontology"].upper(),
                    label=obj["label"],
                    definition=obj.get("definition"),
                    synonyms=tuple(s["text"] for s in raw_synonyms),
                    xrefs=xrefs,
                    deprecated=obj.get("deprecated", False),
                )
            except ValueError as exc:
                raise ParseError("BAD_CURIE", str(exc), str(path), lineno) from None
    return classes


def load_umls(
    mrconso_path, mrsty_path, codes: set[tuple[str, str]], dictionary: NormalizationDictionary
) -> UmlsTables:
    """Stream MRCONSO/MRSTY and keep only what the loaded concepts can use.

    ``codes`` holds the concepts' (canonical prefix, code) pairs.  Every
    row of both files is validated, kept or not.  A MRCONSO row is kept
    when its (canonical SAB, stripped CODE) is in ``codes``, under that
    canonical key, so rows whose SABs canonicalize alike share one entry;
    a MRSTY row is kept when its CUI came from a kept MRCONSO row.  Each
    distinct SAB is canonicalized and checked once.
    Peak memory is bounded by the kept index, not by the file size or the
    number of distinct keys in the files.
    """
    prefixes: dict[str, str] = {}
    cuis: dict[tuple[str, str], set[str]] = defaultdict(set)
    with open_text(mrconso_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            # Fields past 13 are never read: the 15th piece holds the rest.
            fields = line.split("|", 14)
            if fields and fields[-1] == "":
                fields = fields[:-1]
            if len(fields) < 15:
                raise ParseError("SHORT_ROW", f"{len(fields)} fields, need >= 15", str(mrconso_path), lineno)
            cui, sab, code = fields[0], fields[11], fields[13]
            if not is_cui(cui):
                raise ParseError("BAD_CUI", f"bad CUI {cui!r}", str(mrconso_path), lineno)
            stripped_code = code.strip()
            if not sab.strip() or not stripped_code:
                raise ParseError("SHORT_ROW", "blank SAB or CODE", str(mrconso_path), lineno)
            prefix = prefixes.get(sab)
            if prefix is None:
                prefix = dictionary.canonical_prefix(sab)
                if not is_code_prefix(prefix):
                    raise ParseError(
                        "BAD_PREFIX", f"SAB {sab!r} is not a code prefix", str(mrconso_path), lineno
                    )
                prefixes[sab] = prefix
            key = (prefix, stripped_code)
            if key in codes:
                cuis[key].add(cui)
    kept_cuis = set().union(*cuis.values())

    sty: dict[str, set[str]] = defaultdict(set)
    with open_text(mrsty_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("|", 4)
            if fields and fields[-1] == "":
                fields = fields[:-1]
            if len(fields) < 4:
                raise ParseError("SHORT_ROW", f"{len(fields)} fields, need >= 4", str(mrsty_path), lineno)
            cui, name = fields[0], fields[3]
            if not is_cui(cui):
                raise ParseError("BAD_CUI", f"bad CUI {cui!r}", str(mrsty_path), lineno)
            if cui in kept_cuis:
                sty[cui].add(name)

    return UmlsTables(
        atoms_by_code={key: tuple(sorted(group)) for key, group in cuis.items()},
        sty_by_cui={cui: tuple(sorted(names)) for cui, names in sty.items()},
    )


def load_prevalence(path) -> PrevalenceLoad:
    """Per-site concept frequencies, folded per concept and per site.

    Counts below 100 are floored to 100.  A (site, concept) pair may be
    listed once.
    """
    pooled: dict[int, int] = defaultdict(int)
    site_count: dict[int, int] = defaultdict(int)
    sites: dict[str, set[int]] = defaultdict(set)
    floored = 0
    for lineno, (site_id, concept_raw, count_raw) in _read_rows(
        path, ["site_id", "concept_id", "record_count"]
    ):
        try:
            concept_id = int(concept_raw)
            count = int(count_raw)
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", f"bad integer: {exc}", str(path), lineno) from None
        if count < 0:
            raise ParseError("MALFORMED_ROW", f"negative count {count}", str(path), lineno)
        if count < PREVALENCE_FLOOR:
            count = PREVALENCE_FLOOR
            floored += 1
        concepts = sites[site_id]
        if concept_id in concepts:
            raise ParseError(
                "DUPLICATE_ID", f"concept_id {concept_id} repeated for site {site_id!r}", str(path), lineno
            )
        concepts.add(concept_id)
        pooled[concept_id] += count
        site_count[concept_id] += 1
    table = PrevalenceTable(pooled=dict(pooled), site_count=dict(site_count), sites=dict(sites))
    return PrevalenceLoad(rows=table, floored=floored)


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


def load_mappings(path):
    """Yield the rows of mappings.tsv as dicts keyed by header name.

    ``concept_id`` is parsed to an int; every other field stays a string.
    """
    for lineno, fields in _read_rows(path, MAPPINGS_HEADER):
        row = dict(zip(MAPPINGS_HEADER, fields))
        try:
            row["concept_id"] = int(fields[0])
        except ValueError:
            raise ParseError("MALFORMED_ROW", f"bad concept_id {fields[0]!r}", str(path), lineno) from None
        yield row


def load_id_list(path) -> set[int]:
    """Concept ids, one per line, no header."""
    ids = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ids.add(int(line))
            except ValueError:
                raise ParseError("MALFORMED_ROW", f"bad concept id {line!r}", str(path), lineno) from None
    return ids


def load_weights(path) -> dict[str, float]:
    """hpo_curie -> weight; each CURIE is listed once, each weight finite."""
    weights = {}
    for lineno, (curie, raw) in _read_rows(path, ["hpo_curie", "weight"]):
        try:
            weight = float(raw)
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None
        if not math.isfinite(weight):
            raise ParseError("MALFORMED_ROW", f"{raw!r} is not a finite number", str(path), lineno)
        if curie in weights:
            raise ParseError("DUPLICATE_ID", f"hpo_curie {curie!r} repeated", str(path), lineno)
        weights[curie] = weight
    return weights


def load_patient_phenotypes(path):
    """Yield (patient_id, hpo_curie) rows; a patient may have many."""
    for _, (patient_id, curie) in _read_rows(path, ["patient_id", "hpo_curie"]):
        yield patient_id, curie


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
