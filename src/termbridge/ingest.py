"""Parsers for every external input.

All parsers stream line by line and carry 1-based line numbers on errors.
Files are opened by ``errors.open_text``: bytes that are not UTF-8 are a
``BAD_ENCODING`` error naming the file and line.

Each TSV declares its columns once, below, as ``*_COLUMNS``: (name,
parse) pairs in file order.  ``_read_rows`` checks the header against the
names and each row's column count, then converts every field whose column
declares a parser; a ``ValueError`` or ``KeyError`` from a parser is
``MALFORMED_ROW`` naming the file, the line and the column.  The loaders
read converted values and make only the checks that span fields or rows.
``load_prevalence`` folds its rows as it reads them, and ``load_mappings``
and ``load_patient_phenotypes`` yield rows, so no per-row table of those
files is held; the other loaders return immutable indexes.

The TSVs: concepts (synonyms pipe-delimited; the record count is
validated only: >= 0, and > 0 for a concept used in practice, on rows of
the domain being loaded), concept ancestors (header optional),
routing policy, curation (targets pipe-delimited CURIEs), measurement
scales and targets, ``mappings.tsv`` (the map command's output),
prevalence (one row per (site, concept); counts below 100 floored to
100), weights (finite; one row per CURIE), patient phenotypes and cohort
(one row per patient).  The other formats:

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
  id lists, stopwords   one value per line, blanks around it ignored
  code map (CSV)        raw prefix, canonical prefix; a header row
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources

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
    parse_curie,
)
from .errors import DataError, ParseError, open_text
from .lexical import NormalizationDictionary, canonicalize_code


def _key(raw: str) -> str:
    return raw.strip().upper()


def _keyword(values):
    """A parser for a field naming one of ``values`` (strings, or an Enum's
    members by value), in any case and with blanks around it."""
    table = {getattr(v, "value", v): v for v in values}
    return lambda raw: table[_key(raw)]


def _pipe_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split("|") if part.strip())


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# Column declarations: (name, parse) in file order; parse None keeps the
# field as it is.  Columns that several files share are declared once.
# The large files' parsers are builtins (``int``, a dict's ``__getitem__``):
# a Python-level call per field would cost ingest time on every row.
_CONCEPT_ID = ("concept_id", int)
_PATIENT_ID = ("patient_id", None)
_HPO_CURIE = ("hpo_curie", None)

CONCEPT_COLUMNS = (
    _CONCEPT_ID,
    ("vocabulary", None),
    ("concept_code", None),
    ("label", None),
    ("synonyms", None),
    ("domain", {d.value: d for d in Domain}.__getitem__),
    ("used_in_practice", {"0": False, "1": True}.__getitem__),
    ("record_count", int),
)
ANCESTOR_COLUMNS = (_CONCEPT_ID, ("ancestor_concept_id", int))
ROUTING_COLUMNS = (("semantic_type", None), ("action", _keyword(("ALLOW", "EXCLUDE"))), ("value", None))
CURATION_COLUMNS = (
    _CONCEPT_ID,
    ("ontology", _key),
    ("logic", str.strip),
    ("targets", _pipe_list),
    ("evidence", None),
    ("unmapped_reason", None),
)
SCALE_COLUMNS = (
    _CONCEPT_ID,
    ("scale", _keyword(MeasurementScale)),
    ("reference_range_kind", _keyword(("NUMERIC", "POS_NEG", "NONE"))),
)
# ``load_measurement_targets`` checks ``curie`` as a CURIE on result rows
# only; an auxiliary row's is kept as it is.
TARGET_COLUMNS = (_CONCEPT_ID, ("outcome", _key), ("curie", str.strip), ("negated", str.strip))
MAPPING_COLUMNS = (
    _CONCEPT_ID,
    ("domain", None),
    ("ontology", None),
    ("category", None),
    ("level", None),
    ("logic", None),
    ("targets", None),
    ("target_labels", None),
    ("score", None),
    ("evidence", None),
    ("unmapped_reason", None),
    ("outcome", None),
)
PREVALENCE_COLUMNS = (("site_id", None), _CONCEPT_ID, ("record_count", int))
WEIGHT_COLUMNS = (_HPO_CURIE, ("weight", _finite))
PATIENT_COLUMNS = (_PATIENT_ID, _HPO_CURIE)
COHORT_COLUMNS = (_PATIENT_ID, ("group", _keyword(("CASE", "CONTROL"))))


def header_line(columns) -> str:
    """The header row of a TSV declared by ``columns``."""
    return "\t".join(name for name, _ in columns)


PREVALENCE_FLOOR = 100


@dataclass(frozen=True)
class CurationRow:
    concept_id: int
    ontology: str
    targets: tuple[str, ...]
    logic: str
    evidence: str
    unmapped_reason: UnmappedReason | None = None


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


@dataclass(frozen=True)
class ScaleRow:
    concept_id: int
    scale: MeasurementScale
    reference_range_kind: str  # NUMERIC | POS_NEG | NONE


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


def _bad_field(path, lineno, name, raw) -> ParseError:
    return ParseError("MALFORMED_ROW", f"bad {name} {raw!r}", str(path), lineno)


def _read_rows(path, columns, header_optional=False):
    """Yield (lineno, fields) for the TSV that ``columns`` declares.

    The first line must be the declared names, in order; where the header
    is optional, a first line that starts with the first name is skipped
    and any other is a row.  Every row must have one field per column.
    Each field whose column declares a parser comes converted; a
    ``ValueError`` or ``KeyError`` from the parser is ``MALFORMED_ROW``
    naming the column.
    """
    names = [name for name, _ in columns]
    parsers = [(i, parse) for i, (_, parse) in enumerate(columns) if parse is not None]
    width = len(names)
    with open_text(path) as fh:
        start = 1
        if not header_optional:
            header = fh.readline()
            if not header:
                raise ParseError("MISSING_COLUMN", "empty file, header required", str(path), 1)
            cols = header.rstrip("\n").split("\t")
            for want in names:
                if want not in cols:
                    raise ParseError("MISSING_COLUMN", f"missing column {want!r}", str(path), 1)
            if cols != names:
                raise ParseError(
                    "MISSING_COLUMN", f"header must be exactly {names}, got {cols}", str(path), 1
                )
            start = 2
        # Universal newlines: a line read from ``fh`` holds no "\r".
        for lineno, line in enumerate(fh, start=start):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith(names[0])):
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError("MALFORMED_ROW", f"expected {width} columns", str(path), lineno)
            try:
                for i, parse in parsers:
                    fields[i] = parse(fields[i])
            except (ValueError, KeyError):
                raise _bad_field(path, lineno, names[i], fields[i]) from None
            yield lineno, fields


def _parse_reason(raw: str, path, lineno) -> UnmappedReason:
    key = raw.strip().upper().replace(" ", "_").replace("-", "_")
    try:
        return UnmappedReason[key]
    except KeyError:
        raise ParseError("UNKNOWN_REASON", f"reason {raw!r}", str(path), lineno) from None


def _load_ancestor_pairs(path, children):
    """concept_id -> the ids of its ancestors, for the ids in ``children``.

    Every row is validated; rows for other children are then skipped.
    """
    pairs = defaultdict(set)
    for lineno, (child, ancestor) in _read_rows(path, ANCESTOR_COLUMNS, header_optional=True):
        if child == ancestor:
            raise ParseError("MALFORMED_ROW", f"self-loop ancestor for {child}", str(path), lineno)
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
    for lineno, fields in _read_rows(path, CONCEPT_COLUMNS):
        concept_id, vocabulary, code, label, raw_synonyms, row_domain, used, record_count = fields
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
    for lineno, (site_id, concept_id, count) in _read_rows(path, PREVALENCE_COLUMNS):
        if count < PREVALENCE_FLOOR:
            if count < 0:
                raise ParseError("MALFORMED_ROW", f"negative count {count}", str(path), lineno)
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


def load_curation(path, known_ontologies, known_curies=None) -> CurationLoad:
    """Parse manually-derived mapping rows.

    Target CURIEs outside ``known_curies`` (when given) are collected and
    reported, not rejected: curation may legitimately reference classes
    newer than the loaded dump.
    """
    known = {o.upper() for o in known_ontologies}
    rows = []
    unknown_targets = []
    for lineno, fields in _read_rows(path, CURATION_COLUMNS):
        concept_id, ontology, logic, targets, evidence, reason_raw = fields
        if ontology not in known:
            raise ParseError("UNKNOWN_ONTOLOGY", f"ontology {ontology!r}", str(path), lineno)
        reason = _parse_reason(reason_raw, path, lineno) if reason_raw.strip() else None
        if targets and reason is not None:
            raise ParseError(
                "BOTH_TARGETS_AND_REASON", "row has targets and an unmapped reason", str(path), lineno
            )
        if not targets and reason is None:
            raise ParseError("MALFORMED_ROW", "row has neither targets nor reason", str(path), lineno)
        if len(targets) >= 2 and not logic:
            logic = "AND(" + ",".join(str(i) for i in range(len(targets))) + ")"
        if known_curies is not None:
            for t in targets:
                if t not in known_curies:
                    unknown_targets.append(t)
        rows.append(CurationRow(concept_id, ontology, targets, logic, evidence, reason))
    return CurationLoad(rows=tuple(rows), unknown_targets=tuple(sorted(set(unknown_targets))))


def load_routing_policy(path, configured_ontologies) -> RoutingPolicy:
    """Parse routing_policy.tsv (`semantic_type  action  value`).

    ALLOW values are pipe-delimited ontology keys, EXCLUDE values an
    unmapped reason.  A semantic type may carry at most one exclusion.
    """
    allow: dict[str, frozenset[str]] = {}
    exclude: dict[str, UnmappedReason] = {}
    for lineno, (sty, action, value) in _read_rows(path, ROUTING_COLUMNS):
        if action == "ALLOW":
            ontologies = frozenset(o.strip().upper() for o in value.split("|") if o.strip())
            if not ontologies:
                raise ParseError("MALFORMED_ROW", "ALLOW needs an ontology list", str(path), lineno)
            allow[sty] = allow.get(sty, frozenset()) | ontologies
        else:
            reason = _parse_reason(value, path, lineno)
            if sty in exclude and exclude[sty] is not reason:
                raise ParseError(
                    "CONFLICTING_RULE", f"two exclusion reasons for {sty!r}", str(path), lineno
                )
            exclude[sty] = reason
    return RoutingPolicy(
        allow=allow,
        exclude=exclude,
        default_ontologies=frozenset(o.upper() for o in configured_ontologies),
    )


def load_measurement_scales(path) -> dict[int, ScaleRow]:
    rows = {}
    for lineno, fields in _read_rows(path, SCALE_COLUMNS):
        row = ScaleRow(*fields)
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
    for lineno, (concept_id, key, curie, negated_raw) in _read_rows(path, TARGET_COLUMNS):
        if key in outcomes:
            if negated_raw not in {"0", "1"}:
                raise ParseError("MALFORMED_ROW", f"negated must be 0/1, got {negated_raw!r}", str(path), lineno)
            try:
                parse_curie(curie)
            except ValueError:
                raise _bad_field(path, lineno, TARGET_COLUMNS[2][0], curie) from None
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
    """Yield the rows of mappings.tsv as dicts keyed by column name."""
    names = [name for name, _ in MAPPING_COLUMNS]
    for _, fields in _read_rows(path, MAPPING_COLUMNS):
        yield dict(zip(names, fields))


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
    for lineno, (curie, weight) in _read_rows(path, WEIGHT_COLUMNS):
        if curie in weights:
            raise ParseError("DUPLICATE_ID", f"hpo_curie {curie!r} repeated", str(path), lineno)
        weights[curie] = weight
    return weights


def load_patient_phenotypes(path):
    """Yield (patient_id, hpo_curie) rows; a patient may have many."""
    for _, (patient_id, curie) in _read_rows(path, PATIENT_COLUMNS):
        yield patient_id, curie


def load_cohort(path) -> dict[str, str]:
    """patient_id -> CASE or CONTROL; each patient is listed once."""
    groups = {}
    for lineno, (patient_id, group) in _read_rows(path, COHORT_COLUMNS):
        if patient_id in groups:
            raise ParseError("DUPLICATE_ID", f"patient_id {patient_id!r} repeated", str(path), lineno)
        groups[patient_id] = group
    return groups


def load_code_dictionary(path) -> NormalizationDictionary:
    """The prefix dictionary in a CSV file headed raw_prefix,canonical_prefix."""
    rows = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["raw_prefix", "canonical_prefix"]:
            raise ParseError("MISSING_COLUMN", "expected header raw_prefix,canonical_prefix", str(path), 1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ParseError("MALFORMED_ROW", "expected 2 columns", str(path), lineno)
            rows.append((row[0], row[1]))
    return NormalizationDictionary(rows)


def default_code_dictionary() -> NormalizationDictionary:
    """Prefix dictionary vendored with the package (common clinical vocabularies)."""
    with resources.as_file(resources.files("termbridge.data").joinpath("source_code_vocab_map.csv")) as p:
        return load_code_dictionary(p)


def load_stopwords(path) -> frozenset[str]:
    """One token per line, lowercased; blank lines ignored."""
    with open_text(path) as fh:
        return frozenset(w.lower() for w in (line.strip() for line in fh) if w)


def default_stopwords() -> frozenset[str]:
    """The English stopword list vendored with the package."""
    with resources.as_file(resources.files("termbridge.data").joinpath("stopwords.txt")) as p:
        return load_stopwords(p)
