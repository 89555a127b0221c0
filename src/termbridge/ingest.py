"""Parsers for every external input.

All parsers stream line by line, carry 1-based line numbers on errors,
and produce immutable indexes.  File formats:

  concepts.tsv          concept_id  vocabulary  concept_code  label
                        synonyms  domain  used_in_practice  record_count
                        (synonyms pipe-delimited, booleans 0/1)
  concept_ancestors.tsv concept_id  ancestor_concept_id
  ontology.jsonl        one JSON object per class:
                        {"curie","ontology","label","definition",
                         "synonyms":[{"text","kind"}],"xrefs":[str],
                         "deprecated":bool}
  class_ancestors.tsv   curie  ancestor_curie
  MRCONSO.RRF           pipe-delimited, >= 15 fields; uses 0 CUI, 11 SAB,
                        13 CODE, 14 STR; trailing pipe tolerated
  MRSTY.RRF             pipe-delimited, >= 4 fields; uses 0 CUI, 3 STY
  prevalence.tsv        site_id  concept_id  record_count
  curation.tsv          concept_id  ontology  logic  targets  evidence
                        unmapped_reason  (targets pipe-delimited CURIEs)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from collections import defaultdict

from .core import (
    ClassSynonym,
    ClinicalConcept,
    CodeRef,
    Domain,
    OntologyClass,
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

PREVALENCE_FLOOR = 100


@dataclass(frozen=True)
class UmlsAtom:
    cui: str
    sab: str
    code: str
    str_text: str

    def __post_init__(self):
        if not _CUI_RE.match(self.cui):
            raise ValueError(f"bad CUI: {self.cui!r}")
        if not self.sab or not self.code:
            raise ValueError("atom requires sab and code")


@dataclass(frozen=True)
class SemanticTypeRow:
    cui: str
    sty_name: str

    def __post_init__(self):
        if not _CUI_RE.match(self.cui):
            raise ValueError(f"bad CUI: {self.cui!r}")


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
class ConceptLoad:
    concepts: dict[int, ClinicalConcept]
    dangling_ancestors: int


@dataclass(frozen=True)
class UmlsTables:
    atoms_by_code: dict[tuple[str, str], tuple[UmlsAtom, ...]]
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
    """Yield (lineno, fields) for a TSV with a mandatory header row."""
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
            yield lineno, line.split("\t")


def _load_ancestor_pairs(path, parse_key, path_label):
    pairs = defaultdict(set)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        lineno = 1
        if first and not first.startswith(("concept_id", "curie")):
            # No header: treat the first line as data.
            fh.seek(0)
            lineno = 0
        for offset, line in enumerate(fh, start=lineno + 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError("MALFORMED_ROW", "expected 2 columns", path_label, offset)
            try:
                child, ancestor = parse_key(fields[0]), parse_key(fields[1])
            except ValueError as exc:
                raise ParseError("MALFORMED_ROW", str(exc), path_label, offset) from None
            if child == ancestor:
                raise ParseError(
                    "MALFORMED_ROW", f"self-loop ancestor for {child}", path_label, offset
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
        if len(fields) != len(CONCEPT_HEADER):
            raise ParseError(
                "MALFORMED_ROW", f"expected {len(CONCEPT_HEADER)} columns", str(path), lineno
            )
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
        ancestor_map = _load_ancestor_pairs(ancestors_path, int, str(ancestors_path))

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


def load_ontology_dump(
    path,
    dictionary: NormalizationDictionary | None = None,
    ancestors_path=None,
) -> dict[str, OntologyClass]:
    """Parse a JSON-Lines ontology dump, keyed by CURIE.

    Xref strings are canonicalized through the prefix dictionary.
    Deprecated classes are loaded and flagged; target indexes built
    downstream must exclude them.
    """
    dictionary = dictionary or NormalizationDictionary.empty()
    ancestor_map = {}
    if ancestors_path is not None:
        ancestor_map = _load_ancestor_pairs(ancestors_path, str.strip, str(ancestors_path))

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
                    ancestors=tuple(sorted(ancestor_map.get(curie, ()))),
                    deprecated=bool(obj.get("deprecated", False)),
                )
            except ValueError as exc:
                raise ParseError("BAD_CURIE", str(exc), str(path), lineno) from None
    return classes


def load_umls(mrconso_path, mrsty_path) -> UmlsTables:
    """Stream MRCONSO/MRSTY and retain only the bridging projections.

    Peak memory is bounded by the retained index size, not file size:
    each line is processed and discarded.
    """
    atoms: dict[tuple[str, str], set[UmlsAtom]] = defaultdict(set)
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
            cui, sab, code, text = fields[0], fields[11], fields[13], fields[14]
            if not _CUI_RE.match(cui):
                raise ParseError("BAD_CUI", f"bad CUI {cui!r}", str(mrconso_path), lineno)
            if not sab.strip() or not code.strip():
                raise ParseError("SHORT_ROW", "blank SAB or CODE", str(mrconso_path), lineno)
            atoms[(sab, code)].add(UmlsAtom(cui=cui, sab=sab, code=code, str_text=text))

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
        atoms_by_code={
            key: tuple(sorted(group, key=lambda a: (a.cui, a.str_text)))
            for key, group in atoms.items()
        },
        sty_by_cui={cui: tuple(sorted(names)) for cui, names in sty.items()},
    )


def load_prevalence(path) -> PrevalenceLoad:
    """Per-site concept frequencies; counts below 100 are floored to 100."""
    rows = []
    floored = 0
    for lineno, fields in _read_rows(path, ["site_id", "concept_id", "record_count"]):
        if len(fields) != 3:
            raise ParseError("MALFORMED_ROW", "expected 3 columns", str(path), lineno)
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


def _parse_reason(raw: str) -> UnmappedReason:
    key = raw.strip().upper().replace(" ", "_").replace("-", "_")
    try:
        return UnmappedReason[key]
    except KeyError:
        raise ValueError(raw) from None


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
        if len(fields) != len(CURATION_HEADER):
            raise ParseError("MALFORMED_ROW", "expected 6 columns", str(path), lineno)
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


def serialize_concepts(concepts: dict[int, ClinicalConcept]) -> str:
    """Canonical TSV rendering (sorted by concept_id); inverse of load_concepts
    minus the ancestor join, which lives in its own file."""
    lines = ["\t".join(CONCEPT_HEADER)]
    for concept_id in sorted(concepts):
        c = concepts[concept_id]
        lines.append(
            "\t".join(
                [
                    str(c.concept_id),
                    c.vocabulary,
                    c.code.code,
                    c.label,
                    "|".join(c.synonyms),
                    c.domain.value,
                    "1" if c.used_in_practice else "0",
                    str(c.record_count),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def serialize_ontology(classes: dict[str, OntologyClass]) -> str:
    """Canonical JSONL rendering (sorted by CURIE, sorted keys)."""
    lines = []
    for curie in sorted(classes):
        k = classes[curie]
        lines.append(
            json.dumps(
                {
                    "curie": k.curie,
                    "ontology": k.ontology,
                    "label": k.label,
                    "definition": k.definition,
                    "synonyms": [{"text": s.text, "kind": s.kind.value} for s in k.synonyms],
                    "xrefs": [str(x) for x in k.xrefs],
                    "deprecated": k.deprecated,
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + "\n"
