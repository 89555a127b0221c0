"""Parsers for every external input.

All parsers stream line by line and carry 1-based line numbers on errors.
Files are opened by ``errors.open_text``: bytes that are not UTF-8, and a
leading UTF-8 byte-order mark, are a ``BAD_ENCODING`` error naming the
file and line.

Each TSV declares its columns once, below, as ``*_COLUMNS``: (name,
parse) pairs in file order.  ``_read_rows`` checks the header against the
names and each row's column count, then converts every field whose column
declares a parser; a ``ValueError`` or ``KeyError`` from a parser is
``MALFORMED_ROW`` naming the file, the line and the column.  The loaders
read converted values and make only the checks that span fields or rows.
``mappings.tsv``, which ``map`` writes, also declares how to render each
column, so ``mapping_line`` and ``load_mappings`` are one codec.
``load_prevalence`` folds its rows as it reads them, and ``load_mappings``
and ``load_patient_phenotypes`` yield rows, so no per-row table of those
files is held; the other loaders return immutable indexes.  Ontology
keys are uppercased where they are read (a dump's ``ontology`` field, the
curation ``ontology`` column, routing ALLOW values, auxiliary-target
keys), and nothing downstream changes their case again.

The TSVs: concepts (synonyms pipe-delimited; read in one pass, each row
of the domain being loaded checked and built where it stands; the record
count is validated only: >= 0, and > 0 for a concept used in practice),
concept ancestors (header optional; read after the concepts, every row
checked, and the loaded concepts' ancestors kept in a table of their
own, ``ConceptLoad.ancestors``), routing policy, curation (targets
pipe-delimited CURIEs; one row per (concept, ontology) in any domain),
measurement scales and targets, ``mappings.tsv`` (each row one ``map``
writes), prevalence (one row per (site, concept); counts below 100
floored to 100), weights (finite; one row per CURIE), patient phenotypes
and cohort (one row per patient).  The other formats:

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
  code map (CSV)        raw prefix, canonical prefix, both non-blank; a
                        header row; one canonical prefix per raw prefix,
                        and no canonical prefix remapped
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .core import (
    CURIE_LIST_RE,
    ClinicalConcept,
    CodeRef,
    Domain,
    EvidenceKind,
    MappingCategory,
    MappingLevel,
    MeasurementOutcome,
    MeasurementScale,
    NEGATED_OUTCOMES,
    OntologyClass,
    ResultAssignment,
    UnmappedReason,
    Violation,
    and_logic,
    check_mapping,
    curie_ontology,
    is_code_prefix,
    logic_rule,
    parse_curie,
)
from .errors import ParseError, open_text
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


def _curie(raw: str) -> str:
    curie = raw.strip()
    parse_curie(curie)
    return curie


def _curie_list(raw: str) -> tuple[str, ...]:
    return tuple(_curie(part) for part in _pipe_list(raw))


def _named(members, attr="value", optional=False):
    """(parse, render) of a column holding a member of ``members`` by its
    ``attr``; an ``optional`` column is empty for None."""
    by_name = {getattr(m, attr): m for m in members}
    if optional:
        by_name[""] = None
    return by_name.__getitem__, {m: name for name, m in by_name.items()}.__getitem__


def _curies(raw: str) -> tuple[str, ...]:
    """A ``|``-separated list of CURIEs, each written exactly."""
    if raw and CURIE_LIST_RE.fullmatch(raw) is None:
        raise ValueError(raw)
    return tuple(raw.split("|")) if raw else ()


_ATOM = "(?:" + "|".join(kind.name for kind in EvidenceKind) + "):[^|]*"
#: An ``evidence`` column: atoms written as ``KIND:payload``, separated by ``|``.
_EVIDENCE_RE = re.compile(rf"{_ATOM}(?:\|{_ATOM})*")


def _evidence(raw: str) -> str:
    """An ``evidence`` column, kept as written; an empty one stays empty."""
    if raw and _EVIDENCE_RE.fullmatch(raw) is None:
        raise ValueError(raw)
    return raw


def evidence_text(atoms) -> str:
    """The ``evidence`` column of ``atoms``."""
    return "|".join([f"{kind.name}:{payload}" for kind, payload in atoms])


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# Column declarations: (name, parse) in file order; parse None keeps the
# field as it is.  Columns that several files share are declared once.
# The large files' parsers are builtins (``int``, a dict's ``__getitem__``)
# where they can be: a Python-level call per field costs time on every row.
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
    ("targets", _curie_list),
    ("evidence", None),
    ("unmapped_reason", None),
)
SCALE_COLUMNS = (
    _CONCEPT_ID,
    ("scale", _keyword(MeasurementScale)),
    ("reference_range_kind", _keyword(("NUMERIC", "POS_NEG", "NONE"))),
)
TARGET_COLUMNS = (_CONCEPT_ID, ("outcome", _key), ("curie", _curie), ("negated", str.strip))
# mappings.tsv, which ``map`` writes, declares a renderer too: (name, parse,
# render).  ``mapping_line`` writes a row and ``load_mappings`` reads one.
# ``evidence`` is read as written; ``mapping_line`` writes a record's atoms
# with ``evidence_text``.
MAPPING_COLUMNS = (
    (*_CONCEPT_ID, str),
    ("domain", *_named(Domain)),
    ("ontology", None, str),
    ("category", *_named(MappingCategory, "label")),
    ("level", *_named(MappingLevel)),
    ("logic", None, str),
    ("targets", _curies, "|".join),
    ("target_labels", lambda raw: tuple(raw.split("|")), lambda labels: "|".join(t.replace("|", "/") for t in labels)),
    ("score", lambda raw: float(raw) if raw else None, lambda score: "" if score is None else f"{score:.12g}"),
    ("evidence", _evidence, str),
    ("unmapped_reason", *_named(UnmappedReason, "label", optional=True)),
    ("outcome", *_named(MeasurementOutcome, optional=True)),
)
PREVALENCE_COLUMNS = (("site_id", None), _CONCEPT_ID, ("record_count", int))
WEIGHT_COLUMNS = (_HPO_CURIE, ("weight", _finite))
PATIENT_COLUMNS = (_PATIENT_ID, _HPO_CURIE)
COHORT_COLUMNS = (_PATIENT_ID, ("group", _keyword(("CASE", "CONTROL"))))


def header_line(columns) -> str:
    """The header row of a TSV declared by ``columns``."""
    return "\t".join(column[0] for column in columns)


PREVALENCE_FLOOR = 100


@dataclass(frozen=True)
class CurationRow:
    """One curation row, filed under its concept id and ontology key."""

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
    no allow rule fall back to the full configured ontology set.  Every
    key is uppercase: the configured keys as the dump loader settled them,
    the ALLOW values as ``load_routing_policy`` read them.
    """

    allow: dict[str, frozenset[str]]
    exclude: dict[str, UnmappedReason]
    default_ontologies: frozenset[str]

    @classmethod
    def allow_all(cls, ontologies) -> "RoutingPolicy":
        return cls(allow={}, exclude={}, default_ontologies=frozenset(ontologies))


@dataclass(frozen=True)
class ScaleRow:
    scale: MeasurementScale
    reference_range_kind: str  # NUMERIC | POS_NEG | NONE


class ConceptLoad(NamedTuple):
    concepts: dict[int, ClinicalConcept]
    ancestors: dict[int, tuple[int, ...]]  # loaded child id -> its sorted loaded ancestor ids
    dangling_ancestors: int
    unlisted_ancestor_rows: int  # ancestor rows whose child is listed in no domain
    other_domain: set[int]  # the ids of the rows skipped for another domain


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
    rows: dict[int, dict[str, CurationRow]]  # concept id -> ontology key -> its row
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
    names = [column[0] for column in columns]
    parsers = [(i, column[1]) for i, column in enumerate(columns) if column[1] is not None]
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


def load_concepts(
    path, dictionary: NormalizationDictionary, domain: Domain | None = None, ancestors_path=None
) -> ConceptLoad:
    """Parse a concept table, optionally joining an ancestor file.  Each
    vocabulary is canonicalized through the prefix ``dictionary``.

    Each kept row is checked and its concept built on that row, so the
    first bad row in file order is the one reported.  When ``domain`` is
    given, rows from other domains are skipped, and their ids kept, so one
    shared extract can feed per-domain runs.  Every ancestor row is then
    validated, and the loaded children's ancestors kept; ancestors that
    are not loaded concepts are dropped and counted, and rows whose child
    is listed in no domain are counted.
    """
    concepts: dict[int, ClinicalConcept] = {}
    other_domain = set()
    for lineno, fields in _read_rows(path, CONCEPT_COLUMNS):
        concept_id, vocabulary, code, label, synonyms, row_domain, used, record_count = fields
        if domain is not None and row_domain is not domain:
            other_domain.add(concept_id)
            continue
        if concept_id in concepts:
            raise ParseError("DUPLICATE_ID", f"concept_id {concept_id} repeated", str(path), lineno)
        try:
            if record_count < 0:
                raise ValueError(f"record_count must be >= 0: {record_count}")
            if used and record_count == 0:
                raise ValueError(f"concept {concept_id}: record_count 0 requires used_in_practice false")
            concepts[concept_id] = ClinicalConcept(
                concept_id=concept_id,
                code=CodeRef(dictionary.canonical_prefix(vocabulary), code.strip()),
                label=label,
                synonyms=tuple(s for s in synonyms.split("|") if s),
                domain=row_domain,
                used_in_practice=used,
            )
        except ValueError as exc:
            raise ParseError("MALFORMED_ROW", str(exc), str(path), lineno) from None

    listed: dict[int, list[int]] = defaultdict(list)  # loaded child -> its ancestors as listed
    unlisted = 0
    if ancestors_path is not None:
        for lineno, (child, ancestor) in _read_rows(ancestors_path, ANCESTOR_COLUMNS, header_optional=True):
            if child == ancestor:
                raise ParseError("MALFORMED_ROW", f"self-loop ancestor for {child}", str(ancestors_path), lineno)
            if child in concepts:
                listed[child].append(ancestor)
            elif child not in other_domain:
                unlisted += 1
    ancestors, dangling = {}, 0
    for child, ids in listed.items():
        distinct = set(ids)
        ancestors[child] = tuple(sorted(a for a in distinct if a in concepts))
        dangling += len(distinct) - len(ancestors[child])
    return ConceptLoad(concepts, ancestors, dangling, unlisted, other_domain)


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


def load_ontology_dump(
    path, dictionary: NormalizationDictionary, classes: dict[str, OntologyClass] | None = None
) -> dict[str, OntologyClass]:
    """Parse a JSON-Lines ontology dump into ``classes``, the classes of the
    dumps read before it (a new dict by default), keyed by CURIE, and
    return them.  A CURIE already loaded, from this dump or an earlier
    one, is ``DUPLICATE_CURIE`` naming its line.

    Xref strings are canonicalized through the prefix dictionary, and the
    classes of one ontology share one interned key string.  Deprecated
    classes are loaded and flagged; ``run_map`` aligns against none.
    """
    classes = {} if classes is None else classes
    keys: dict[str, str] = {}  # each ``ontology`` as written -> its key
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
            except ValueError as exc:
                raise ParseError("MALFORMED_LINE", f"field 'xrefs': {exc}", str(path), lineno) from None
            ontology = keys.get(obj["ontology"])
            if ontology is None:
                ontology = keys[obj["ontology"]] = sys.intern(obj["ontology"].upper())
            try:
                classes[curie] = OntologyClass(
                    curie=curie,
                    ontology=ontology,
                    label=obj["label"],
                    definition=obj.get("definition"),
                    synonyms=tuple(s["text"] for s in raw_synonyms),
                    xrefs=xrefs,
                    deprecated=obj.get("deprecated", False),
                )
            except ValueError as exc:
                raise ParseError("BAD_CURIE", str(exc), str(path), lineno) from None
    return classes


def _rrf_rows(path, width: int):
    """Yield (line number, fields) of each non-blank row of an RRF file.
    A row splits on ``|`` into ``width`` fields and one more holding the
    rest, and a trailing empty field is dropped.  Fewer than ``width``
    fields is ``SHORT_ROW``, and a field 0 that is no CUI is ``BAD_CUI``."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("|", width)
            if fields[-1] == "":
                fields.pop()
            if len(fields) < width:
                raise ParseError("SHORT_ROW", f"{len(fields)} fields, need >= {width}", str(path), lineno)
            if not is_cui(fields[0]):
                raise ParseError("BAD_CUI", f"bad CUI {fields[0]!r}", str(path), lineno)
            yield lineno, fields


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
    for lineno, fields in _rrf_rows(mrconso_path, 15):
        cui, sab, code = fields[0], fields[11], fields[13].strip()
        if not sab.strip() or not code:
            raise ParseError("SHORT_ROW", "blank SAB or CODE", str(mrconso_path), lineno)
        prefix = prefixes.get(sab)
        if prefix is None:
            prefix = dictionary.canonical_prefix(sab)
            if not is_code_prefix(prefix):
                raise ParseError("BAD_PREFIX", f"SAB {sab!r} is not a code prefix", str(mrconso_path), lineno)
            prefixes[sab] = prefix
        key = (prefix, code)
        if key in codes:
            cuis[key].add(cui)
    kept_cuis = set().union(*cuis.values())

    sty: dict[str, set[str]] = defaultdict(set)
    for _, fields in _rrf_rows(mrsty_path, 4):
        if fields[0] in kept_cuis:
            sty[fields[0]].add(fields[3])

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

    A row's ontology, uppercased, must be one of ``known_ontologies``, the
    keys the dump loader settled.  Each target must be a CURIE whose
    ontology is the row's.  Targets outside ``known_curies`` (when given,
    as the loaded classes by CURIE) are reported, not rejected: curation
    may legitimately reference classes newer than the loaded dump.  The
    logic must fit the targets as a mapping's does (``core.logic_rule``),
    so a row with a reason, which has no targets, has none.  A (concept,
    ontology) pair has one row, in any domain: a second is
    ``CONFLICTING_CURATION`` naming its line.
    """
    rows: dict[int, dict[str, CurationRow]] = {}
    unknown_targets = []
    for lineno, fields in _read_rows(path, CURATION_COLUMNS):
        concept_id, ontology, logic, targets, evidence, reason_raw = fields
        if ontology not in known_ontologies:
            raise ParseError("UNKNOWN_ONTOLOGY", f"ontology {ontology!r}", str(path), lineno)
        reason = _parse_reason(reason_raw, path, lineno) if reason_raw.strip() else None
        if targets and reason is not None:
            raise ParseError(
                "BOTH_TARGETS_AND_REASON", "row has targets and an unmapped reason", str(path), lineno
            )
        if not targets and reason is None:
            raise ParseError("MALFORMED_ROW", "row has neither targets nor reason", str(path), lineno)
        logic = logic or and_logic(len(targets))
        rule = logic_rule(logic, len(targets))
        if rule is not None:
            raise ParseError("MALFORMED_ROW", f"bad logic {logic!r}: {rule}", str(path), lineno)
        for t in targets:
            if curie_ontology(t) != ontology:
                raise ParseError("MALFORMED_ROW", f"bad targets {t!r}: not a {ontology} class", str(path), lineno)
            if known_curies is not None and t not in known_curies:
                unknown_targets.append(t)
        by_ontology = rows.setdefault(concept_id, {})
        if ontology in by_ontology:
            message = f"two curation rows for concept {concept_id} / {ontology}"
            raise ParseError("CONFLICTING_CURATION", message, str(path), lineno)
        by_ontology[ontology] = CurationRow(targets, logic, evidence, reason)
    return CurationLoad(rows=rows, unknown_targets=tuple(sorted(set(unknown_targets))))


def load_routing_policy(path, configured_ontologies) -> RoutingPolicy:
    """Parse routing_policy.tsv (`semantic_type  action  value`).

    ALLOW values are pipe-delimited ontology keys, uppercased here, and
    EXCLUDE values an unmapped reason.  A semantic type may carry at most
    one exclusion.  ``configured_ontologies`` are the keys the dump
    loader settled.
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
        default_ontologies=frozenset(configured_ontologies),
    )


def load_measurement_scales(path) -> dict[int, ScaleRow]:
    rows = {}
    for lineno, (concept_id, *fields) in _read_rows(path, SCALE_COLUMNS):
        if concept_id in rows:
            raise ParseError("DUPLICATE_ID", f"concept {concept_id} repeated", str(path), lineno)
        rows[concept_id] = ScaleRow(*fields)
    return rows


def load_measurement_targets(path):
    """Result assignments and auxiliary target CURIEs, by concept id, from one file.

    A row whose second column is a result outcome is an assignment: its
    negated column is 1 for NORMAL and NEGATIVE and 0 for the others, and
    a concept lists an outcome once.  A row whose second column is an
    ontology key is an auxiliary target (its negated column must be empty
    or 0).  Every row's ``curie`` must be a CURIE, and an auxiliary
    target's prefix its ontology key.
    """
    outcomes = {o.value for o in MeasurementOutcome}
    assignments: dict[int, list[ResultAssignment]] = defaultdict(list)
    aux: dict[int, list[str]] = defaultdict(list)
    for lineno, (concept_id, key, curie, negated_raw) in _read_rows(path, TARGET_COLUMNS):
        if key in outcomes:
            outcome = MeasurementOutcome(key)
            negated = outcome in NEGATED_OUTCOMES
            if negated_raw != str(int(negated)):
                message = f"outcome {key} needs negated {int(negated)}, got {negated_raw!r}"
                raise ParseError("MALFORMED_ROW", message, str(path), lineno)
            if any(a.outcome is outcome for a in assignments[concept_id]):
                message = f"outcome {key} repeated for concept {concept_id}"
                raise ParseError("DUPLICATE_ID", message, str(path), lineno)
            assignments[concept_id].append(ResultAssignment(outcome, curie))
        else:
            if negated_raw not in {"", "0"}:
                raise ParseError(
                    "MALFORMED_ROW", "auxiliary rows cannot be negated", str(path), lineno
                )
            if curie_ontology(curie) != key:
                raise ParseError("MALFORMED_ROW", f"bad curie {curie!r}: not a {key} class", str(path), lineno)
            aux[concept_id].append(curie)
    return dict(assignments), dict(aux)


def mapping_line(record, classes) -> str:
    """``record``'s row of mappings.tsv.  Each target's label is read from
    ``classes``, the loaded classes by CURIE, deprecated ones included (a
    curation row may name one); a target not loaded gets an empty label."""
    labels = tuple(classes[t].label if t in classes else "" for t in record.targets)
    fields = (
        record.concept_id, record.domain, record.ontology, record.category, record.category.level,
        record.logic, record.targets, labels, record.score,
        evidence_text(record.evidence), record.unmapped_reason, record.outcome,
    )
    return "\t".join([render(value) for (_, _, render), value in zip(MAPPING_COLUMNS, fields)])


def load_mappings(path):
    """Yield the fields of each mappings.tsv row, parsed, in column order.
    A row that ``map`` would not write (level not its category's, not one
    label per target, or against ``check_mapping``) is ``MALFORMED_ROW``."""
    for lineno, fields in _read_rows(path, MAPPING_COLUMNS):
        _, _, _, category, level, logic, targets, labels, score, evidence, reason, _ = fields
        if not targets and labels == ("",):  # no target, so no label
            fields[7] = labels = ()
        violation = (
            Violation("category level", "level") if level is not category.level
            else Violation("label count", "target_labels") if len(labels) != len(targets)
            else check_mapping(category, logic, targets, score, reason, evidence)
        )
        if violation is not None:
            message = f"bad {violation.field_path}: {violation.rule}"
            raise ParseError("MALFORMED_ROW", message, str(path), lineno)
        yield fields


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


def load_code_dictionary(path=None) -> NormalizationDictionary:
    """The prefix dictionary in a CSV file headed raw_prefix,canonical_prefix:
    ``path``, or the one vendored with the package (common clinical
    vocabularies) when ``path`` is None.

    A row needs both prefixes (``MALFORMED_ROW``), a raw prefix maps to one
    canonical prefix in any case (``CONFLICTING_PREFIX``), and no canonical
    prefix is itself remapped (``NOT_FIXED_POINT``); each names the line
    where the rows first break the rule.
    """
    if path is None:
        with resources.as_file(resources.files("termbridge.data").joinpath("source_code_vocab_map.csv")) as p:
            return load_code_dictionary(p)
    canonical: dict[str, str] = {}  # raw prefix, lowercased -> canonical prefix
    by_key: dict[str, set[str]] = defaultdict(set)  # lowercased -> the canonical prefixes
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["raw_prefix", "canonical_prefix"]:
            raise ParseError("MISSING_COLUMN", "expected header raw_prefix,canonical_prefix", str(path), 1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2 or not row[0].strip() or not row[1].strip():
                raise ParseError("MALFORMED_ROW", "expected a raw and a canonical prefix", str(path), lineno)
            raw, canon = row[0].strip().lower(), row[1].strip().upper()
            if canonical.setdefault(raw, canon) != canon:
                message = f"prefix {row[0]!r} mapped to both {canonical[raw]} and {canon}"
                raise ParseError("CONFLICTING_PREFIX", message, str(path), lineno)
            # This row's canonical prefix, and those it is the raw prefix of, must stay fixed points.
            for fixed in (canon, *by_key[raw]):
                if canonical.get(fixed.lower(), fixed) != fixed:
                    message = f"canonical prefix {fixed} is itself remapped to {canonical[fixed.lower()]}"
                    raise ParseError("NOT_FIXED_POINT", message, str(path), lineno)
            by_key[canon.lower()].add(canon)
    return NormalizationDictionary(canonical.items())


def load_stopwords(path) -> frozenset[str]:
    """One token per line, lowercased; blank lines ignored."""
    with open_text(path) as fh:
        return frozenset(w.lower() for w in (line.strip() for line in fh) if w)


def default_stopwords() -> frozenset[str]:
    """The English stopword list vendored with the package."""
    with resources.as_file(resources.files("termbridge.data").joinpath("stopwords.txt")) as p:
        return load_stopwords(p)
