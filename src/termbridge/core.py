"""Shared domain types: concepts, ontology classes, mapping records, evidence.

All types here are immutable after construction.  Construction-time
invariants are enforced in ``__post_init__`` for the input types;
``MappingRecord`` is deliberately permissive at construction so that
:func:`validate_record` can report violations as data rather than
exceptions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class Domain(Enum):
    CONDITION = "CONDITION"
    DRUG = "DRUG"
    MEASUREMENT = "MEASUREMENT"


class MappingCategory(Enum):
    AUTO_ONE_TO_ONE_CONCEPT = "AUTO_ONE_TO_ONE_CONCEPT"
    AUTO_ONE_TO_ONE_ANCESTOR = "AUTO_ONE_TO_ONE_ANCESTOR"
    AUTO_ONE_TO_MANY_CONCEPT = "AUTO_ONE_TO_MANY_CONCEPT"
    AUTO_ONE_TO_MANY_ANCESTOR = "AUTO_ONE_TO_MANY_ANCESTOR"
    COSINE_ONE_TO_ONE_CONCEPT = "COSINE_ONE_TO_ONE_CONCEPT"
    MANUAL_ONE_TO_ONE_CONCEPT = "MANUAL_ONE_TO_ONE_CONCEPT"
    MANUAL_ONE_TO_MANY_CONCEPT = "MANUAL_ONE_TO_MANY_CONCEPT"
    UNMAPPED = "UNMAPPED"


class MappingLevel(Enum):
    CONCEPT = "CONCEPT"
    ANCESTOR = "ANCESTOR"
    NONE = "NONE"


class EvidenceKind(Enum):
    LABEL_MATCH = "LABEL_MATCH"
    SYNONYM_MATCH = "SYNONYM_MATCH"
    DEFINITION_MATCH = "DEFINITION_MATCH"
    XREF_MATCH = "XREF_MATCH"
    CUI_MATCH = "CUI_MATCH"
    COSINE_SCORE = "COSINE_SCORE"
    MANUAL_SOURCE = "MANUAL_SOURCE"
    EXCLUSION_REASON = "EXCLUSION_REASON"


class UnmappedReason(Enum):
    NONE_FOUND = "NONE_FOUND"
    NOT_YET_MAPPED = "NOT_YET_MAPPED"
    INJURY = "INJURY"
    COMPLICATION = "COMPLICATION"
    FINDING = "FINDING"
    CARRIER_STATUS = "CARRIER_STATUS"
    UNSPECIFIED_SAMPLE = "UNSPECIFIED_SAMPLE"
    NOT_MAPPED_TEST_TYPE = "NOT_MAPPED_TEST_TYPE"


class MeasurementScale(Enum):
    ORDINAL = "ORDINAL"
    NOMINAL = "NOMINAL"
    QUANTITATIVE = "QUANTITATIVE"
    QUALITATIVE = "QUALITATIVE"
    NARRATIVE = "NARRATIVE"
    DOC = "DOC"
    PANEL = "PANEL"
    UNKNOWN = "UNKNOWN"


class ResultType(Enum):
    NORMAL_LOW_HIGH = "NORMAL_LOW_HIGH"
    POSITIVE_NEGATIVE = "POSITIVE_NEGATIVE"
    UNKNOWN_RESULT_TYPE = "UNKNOWN_RESULT_TYPE"


class MeasurementOutcome(Enum):
    LOW = "LOW"
    HIGH = "HIGH"
    NORMAL = "NORMAL"
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"


# Canonical ordering of result rows in serialized output.
OUTCOME_ORDER = {o: i for i, o in enumerate(MeasurementOutcome)}

#: Outcomes each result type may carry; NORMAL and NEGATIVE entries are
#: interpreted as logically negated targets.
RESULT_TYPE_OUTCOMES = {
    ResultType.NORMAL_LOW_HIGH: frozenset(
        {MeasurementOutcome.LOW, MeasurementOutcome.HIGH, MeasurementOutcome.NORMAL}
    ),
    ResultType.POSITIVE_NEGATIVE: frozenset(
        {MeasurementOutcome.POSITIVE, MeasurementOutcome.NEGATIVE}
    ),
    ResultType.UNKNOWN_RESULT_TYPE: frozenset(),
}

NEGATED_OUTCOMES = frozenset({MeasurementOutcome.NORMAL, MeasurementOutcome.NEGATIVE})


_PREFIX_FORBIDDEN = set(":|") | set(" \t\r\n\v\f")


def is_code_prefix(prefix: str) -> bool:
    """True when ``prefix`` can head a CodeRef: non-empty, with no ``:``,
    ``|`` or whitespace."""
    return bool(prefix) and _PREFIX_FORBIDDEN.isdisjoint(prefix)


@dataclass(frozen=True, order=True, slots=True)
class CodeRef:
    """A vocabulary code under its canonical prefix, e.g. (SNOMED, 70305005)."""

    prefix: str
    code: str

    def __post_init__(self):
        if not is_code_prefix(self.prefix):
            raise ValueError(f"invalid code prefix: {self.prefix!r}")
        if not self.code:
            raise ValueError("empty code")

    def __str__(self) -> str:
        return f"{self.prefix}:{self.code}"


@dataclass(frozen=True, slots=True)
class ClinicalConcept:
    """One clinical vocabulary concept with its hierarchy and usage metadata."""

    concept_id: int
    code: CodeRef
    label: str
    synonyms: tuple[str, ...]
    domain: Domain
    used_in_practice: bool
    ancestors: tuple[int, ...] = ()
    semantic_types: tuple[str, ...] = ()
    cuis: tuple[str, ...] = ()

    def __post_init__(self):
        if self.concept_id <= 0:
            raise ValueError(f"concept_id must be positive: {self.concept_id}")
        if self.concept_id in self.ancestors:
            raise ValueError(f"concept {self.concept_id}: self-loop in ancestors")


_CURIE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*):(\S+)$")


def parse_curie(curie: str) -> tuple[str, str]:
    """Split ``PREFIX:LOCAL``; raises ValueError when malformed."""
    m = _CURIE_RE.match(curie)
    if m is None:
        raise ValueError(f"malformed CURIE: {curie!r}")
    return m.group(1), m.group(2)


def curie_ontology(curie: str) -> str:
    """Ontology key of a CURIE (its prefix, uppercased)."""
    return parse_curie(curie)[0].upper()


@dataclass(frozen=True, slots=True)
class OntologyClass:
    """One ontology class with the metadata used for alignment."""

    curie: str
    ontology: str
    label: str
    definition: str | None = None
    synonyms: tuple[str, ...] = ()
    xrefs: tuple[CodeRef, ...] = ()
    deprecated: bool = False

    def __post_init__(self):
        prefix, local = parse_curie(self.curie)
        if not local:
            raise ValueError(f"empty local id in CURIE: {self.curie!r}")
        if prefix.upper() != self.ontology.upper():
            raise ValueError(
                f"CURIE prefix {prefix!r} does not match ontology key {self.ontology!r}"
            )


@dataclass(frozen=True)
class EvidenceAtom:
    """One unit of mapping support; payload must stay pipe-free so atoms can
    be joined into the serialized evidence string (checked by validate_record,
    not here: delimiter violations are reported as data)."""

    kind: EvidenceKind
    payload: str


#: Canonical evidence ordering: code-derived atoms before string atoms,
#: machine scores and human sources last; ties broken by payload.
EVIDENCE_KIND_ORDER = {
    EvidenceKind.XREF_MATCH: 0,
    EvidenceKind.CUI_MATCH: 1,
    EvidenceKind.LABEL_MATCH: 2,
    EvidenceKind.SYNONYM_MATCH: 3,
    EvidenceKind.DEFINITION_MATCH: 4,
    EvidenceKind.COSINE_SCORE: 5,
    EvidenceKind.MANUAL_SOURCE: 6,
    EvidenceKind.EXCLUSION_REASON: 7,
}


def canonical_evidence(atoms) -> tuple[EvidenceAtom, ...]:
    """Deduplicate and sort atoms into the canonical serialization order."""
    unique = set(atoms)
    return tuple(sorted(unique, key=lambda a: (EVIDENCE_KIND_ORDER[a.kind], a.payload)))


#: Human-readable reason labels as they appear in summary reports.
REASON_DISPLAY = {
    UnmappedReason.NONE_FOUND: "None",
    UnmappedReason.NOT_YET_MAPPED: "Not Yet Mapped",
    UnmappedReason.INJURY: "Injury",
    UnmappedReason.COMPLICATION: "Complication",
    UnmappedReason.FINDING: "Finding",
    UnmappedReason.CARRIER_STATUS: "Carrier Status",
    UnmappedReason.UNSPECIFIED_SAMPLE: "Unspecified Sample",
    UnmappedReason.NOT_MAPPED_TEST_TYPE: "Not Mapped Test Type",
}

#: Evidence payload for an exclusion; NOT_YET_MAPPED keeps its legacy
#: all-caps rendering, the rest reuse the display label.
REASON_EVIDENCE = {
    reason: ("NOT YET MAPPED" if reason is UnmappedReason.NOT_YET_MAPPED else display)
    for reason, display in REASON_DISPLAY.items()
}


@dataclass(frozen=True)
class MappingRecord:
    """One synthesized mapping from a clinical concept to ontology targets.

    ``logic`` is a flat prefix expression over 0-based target indexes:
    empty for a plain single target, ``NOT(0)`` for a negated single
    target, ``AND(0,1,...)`` / ``OR(...)`` over two or more arguments
    where each argument is an index or ``NOT(index)``.
    """

    concept_id: int
    domain: Domain
    ontology: str
    category: MappingCategory
    level: MappingLevel
    logic: str
    targets: tuple[str, ...]
    score: float | None
    evidence: tuple[EvidenceAtom, ...]
    unmapped_reason: UnmappedReason | None = None
    outcome: MeasurementOutcome | None = None


@dataclass(frozen=True)
class ResultAssignment:
    outcome: MeasurementOutcome
    curie: str
    negated: bool


@dataclass(frozen=True)
class MeasurementResultSpec:
    """Scale/result typing of a measurement plus its per-outcome targets."""

    concept_id: int
    scale: MeasurementScale
    result_type: ResultType
    assignments: tuple[ResultAssignment, ...] = ()

    def __post_init__(self):
        allowed = RESULT_TYPE_OUTCOMES[self.result_type]
        for a in self.assignments:
            if a.outcome not in allowed:
                raise ValueError(
                    f"outcome {a.outcome.value} not valid for {self.result_type.value}"
                )
            if (a.outcome in NEGATED_OUTCOMES) != a.negated:
                raise ValueError(
                    f"outcome {a.outcome.value} must be "
                    f"{'negated' if a.outcome in NEGATED_OUTCOMES else 'non-negated'}"
                )
        seen = [a.outcome for a in self.assignments]
        if len(seen) != len(set(seen)):
            raise ValueError("duplicate outcome assignment")


_CATEGORY_DISPLAY = {
    (MappingCategory.AUTO_ONE_TO_ONE_CONCEPT, MappingLevel.CONCEPT): "Automatic One-to-One Concept",
    (MappingCategory.AUTO_ONE_TO_ONE_ANCESTOR, MappingLevel.ANCESTOR): "Automatic One-to-One Ancestor",
    (MappingCategory.AUTO_ONE_TO_MANY_CONCEPT, MappingLevel.CONCEPT): "Automatic One-to-Many Concept",
    (MappingCategory.AUTO_ONE_TO_MANY_ANCESTOR, MappingLevel.ANCESTOR): "Automatic One-to-Many Ancestor",
    (MappingCategory.COSINE_ONE_TO_ONE_CONCEPT, MappingLevel.CONCEPT): "Cosine Similarity One-to-One Concept",
    (MappingCategory.MANUAL_ONE_TO_ONE_CONCEPT, MappingLevel.CONCEPT): "Manual One-to-One Concept",
    (MappingCategory.MANUAL_ONE_TO_MANY_CONCEPT, MappingLevel.CONCEPT): "Manual One-to-Many Concept",
    (MappingCategory.UNMAPPED, MappingLevel.NONE): "Unmapped",
}

#: Level implied by each category; used for validation and as the second
#: half of the display key.
CATEGORY_LEVEL = {category: level for (category, level) in _CATEGORY_DISPLAY}


def render_category(category: MappingCategory, level: MappingLevel) -> str:
    """Human-readable label for a (category, level) pair in use."""
    try:
        return _CATEGORY_DISPLAY[(category, level)]
    except KeyError:
        raise ValueError(f"no display label for ({category.value}, {level.value})") from None


_ATOM_RE = re.compile(r"^(NOT\((\d+)\)|(\d+))$")
_EXPR_RE = re.compile(r"^(AND|OR)\((.+)\)$")


def parse_logic(logic: str) -> list[int]:
    """Referenced target indexes of a logic expression, in appearance order.

    Raises ValueError on anything outside the documented grammar.
    """
    if logic == "":
        return []
    m = _ATOM_RE.match(logic)
    if m is not None:
        return [int(m.group(2) if m.group(2) is not None else m.group(3))]
    m = _EXPR_RE.match(logic)
    if m is None:
        raise ValueError(f"malformed logic expression: {logic!r}")
    args = m.group(2).split(",")
    if len(args) < 2:
        raise ValueError(f"{m.group(1)} requires at least two arguments: {logic!r}")
    refs = []
    for raw in args:
        am = _ATOM_RE.match(raw.strip())
        if am is None:
            raise ValueError(f"malformed logic argument {raw!r} in {logic!r}")
        refs.append(int(am.group(2) if am.group(2) is not None else am.group(3)))
    return refs


_ONE_TO_ONE = {
    MappingCategory.AUTO_ONE_TO_ONE_CONCEPT,
    MappingCategory.AUTO_ONE_TO_ONE_ANCESTOR,
    MappingCategory.COSINE_ONE_TO_ONE_CONCEPT,
    MappingCategory.MANUAL_ONE_TO_ONE_CONCEPT,
}
_ONE_TO_MANY = {
    MappingCategory.AUTO_ONE_TO_MANY_CONCEPT,
    MappingCategory.AUTO_ONE_TO_MANY_ANCESTOR,
    MappingCategory.MANUAL_ONE_TO_MANY_CONCEPT,
}
_COSINE = {MappingCategory.COSINE_ONE_TO_ONE_CONCEPT}


@dataclass(frozen=True)
class Violation:
    """First invariant a record breaks, with the offending field path."""

    rule: str
    field_path: str


def validate_record(record: MappingRecord) -> Violation | None:
    """Check a MappingRecord against its invariants.

    Returns None when the record is valid, otherwise the first violation.
    Violations are data, not failures: callers decide whether to raise.
    """
    cat = record.category
    n = len(record.targets)

    if cat in _ONE_TO_ONE and n != 1:
        return Violation("cardinality", "targets")
    if cat in _ONE_TO_MANY and n < 2:
        return Violation("cardinality", "targets")

    unmapped = cat is MappingCategory.UNMAPPED
    if unmapped != (n == 0):
        return Violation("unmapped consistency", "targets")
    if unmapped != (record.unmapped_reason is not None):
        return Violation("unmapped consistency", "unmapped_reason")

    try:
        refs = parse_logic(record.logic)
    except ValueError:
        return Violation("logic syntax", "logic")
    if cat in _ONE_TO_MANY:
        if sorted(refs) != list(range(n)):
            return Violation("logic coverage", "logic")
    elif cat in _ONE_TO_ONE:
        if record.logic not in ("", "NOT(0)"):
            return Violation("logic coverage", "logic")
    elif record.logic != "":
        return Violation("logic coverage", "logic")

    if (record.score is not None) != (cat in _COSINE):
        return Violation("score presence", "score")
    if record.score is not None and not (0.0 <= record.score <= 1.0):
        return Violation("score range", "score")

    if CATEGORY_LEVEL[cat] is not record.level:
        return Violation("level", "level")

    if not record.evidence:
        return Violation("evidence", "evidence")
    for i, atom in enumerate(record.evidence):
        if "|" in atom.payload:
            return Violation("evidence delimiter", f"evidence[{i}].payload")

    return None
