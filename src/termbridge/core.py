"""Shared domain types: concepts, ontology classes, mapping records, evidence.

All types here are immutable after construction.  Construction-time
invariants are enforced in ``__post_init__`` for the input types;
``MappingRecord`` is deliberately permissive at construction so that
:func:`validate_record` can report violations as data rather than
exceptions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class Domain(Enum):
    CONDITION = "CONDITION"
    DRUG = "DRUG"
    MEASUREMENT = "MEASUREMENT"


class MappingLevel(Enum):
    CONCEPT = "CONCEPT"
    ANCESTOR = "ANCESTOR"
    NONE = "NONE"


class Justification(Enum):
    """SSSOM ``mapping_justification`` values (Matentzoglu et al. 2022)."""

    LEXICAL = "semapv:LexicalMatching"
    SIMILARITY = "semapv:SemanticSimilarityThresholdMatching"
    CURATION = "semapv:ManualMappingCuration"


# Short names for the levels in the category table.
_C, _A, _N = MappingLevel.CONCEPT, MappingLevel.ANCESTOR, MappingLevel.NONE


class MappingCategory(Enum):
    """Every fact read about a category: its ``label`` in ``mappings.tsv``
    and ``summary.json``, its ``level``, its ``target_count`` (0, 1, or 2
    for two or more) and its SSSOM ``justification`` (none for unmapped)."""

    AUTO_ONE_TO_ONE_CONCEPT = ("Automatic One-to-One Concept", _C, 1, Justification.LEXICAL)
    AUTO_ONE_TO_ONE_ANCESTOR = ("Automatic One-to-One Ancestor", _A, 1, Justification.LEXICAL)
    AUTO_ONE_TO_MANY_CONCEPT = ("Automatic One-to-Many Concept", _C, 2, Justification.LEXICAL)
    AUTO_ONE_TO_MANY_ANCESTOR = ("Automatic One-to-Many Ancestor", _A, 2, Justification.LEXICAL)
    COSINE_ONE_TO_ONE_CONCEPT = ("Cosine Similarity One-to-One Concept", _C, 1, Justification.SIMILARITY)
    MANUAL_ONE_TO_ONE_CONCEPT = ("Manual One-to-One Concept", _C, 1, Justification.CURATION)
    MANUAL_ONE_TO_MANY_CONCEPT = ("Manual One-to-Many Concept", _C, 2, Justification.CURATION)
    UNMAPPED = ("Unmapped", _N, 0, None)

    def __init__(self, label, level, target_count, justification):
        self.label, self.level = label, level
        self.target_count, self.justification = target_count, justification


_CATEGORY_BY_KIND = {(c.justification, c.level, c.target_count): c for c in MappingCategory}


def pick_category(justification, level, n_targets: int) -> MappingCategory:
    """The category of a record of ``n_targets`` targets found at ``level``
    with ``justification``."""
    return _CATEGORY_BY_KIND[justification, level, min(n_targets, 2)]


class EvidenceKind(Enum):
    """Evidence kinds in canonical order: code-derived atoms before string
    atoms, machine scores and human sources last.  A kind's value is its
    place in that order, and its ``group`` the ``summary.json`` evidence
    group it counts under (none for an exclusion)."""

    XREF_MATCH = "Database Cross-References"
    CUI_MATCH = "Database Cross-References"
    LABEL_MATCH = "Labels"
    SYNONYM_MATCH = "Synonyms"
    DEFINITION_MATCH = "Definitions"
    COSINE_SCORE = "Cosine Similarity"
    MANUAL_SOURCE = "Biocuration"
    EXCLUSION_REASON = None

    def __new__(cls, group):
        kind = object.__new__(cls)
        kind._value_, kind.group = len(cls.__members__), group
        return kind


class UnmappedReason(Enum):
    """Why a record is unmapped: its ``label`` in ``mappings.tsv`` and
    ``summary.json``, and the payload of its exclusion ``evidence``, which
    is the label but for NOT_YET_MAPPED's legacy all-caps form."""

    NONE_FOUND = "None"
    NOT_YET_MAPPED = ("Not Yet Mapped", "NOT YET MAPPED")
    INJURY = "Injury"
    COMPLICATION = "Complication"
    FINDING = "Finding"
    CARRIER_STATUS = "Carrier Status"
    UNSPECIFIED_SAMPLE = "Unspecified Sample"
    NOT_MAPPED_TEST_TYPE = "Not Mapped Test Type"

    def __init__(self, label, evidence=None):
        self.label, self.evidence = label, evidence or label


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
    """One clinical vocabulary concept with its usage metadata."""

    concept_id: int
    code: CodeRef
    label: str
    synonyms: tuple[str, ...]
    domain: Domain
    used_in_practice: bool
    semantic_types: tuple[str, ...] = ()
    cuis: tuple[str, ...] = ()

    def __post_init__(self):
        if self.concept_id <= 0:
            raise ValueError(f"concept_id must be positive: {self.concept_id}")


_PREFIX, _LOCAL = r"[A-Za-z][A-Za-z0-9]*", r"[^\s|]+"
_CURIE_RE = re.compile(rf"^({_PREFIX}):({_LOCAL})$")
#: A ``|``-separated list of one or more CURIEs, matched whole at once.
CURIE_LIST_RE = re.compile(rf"{_PREFIX}:{_LOCAL}(?:\|{_PREFIX}:{_LOCAL})*")


def parse_curie(curie: str) -> tuple[str, str]:
    """Split ``PREFIX:LOCAL``; raises ValueError when malformed.  The local
    id holds no whitespace and no ``|``, which separates CURIEs in lists."""
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
        prefix, _ = parse_curie(self.curie)
        if prefix.upper() != self.ontology.upper():
            raise ValueError(
                f"CURIE prefix {prefix!r} does not match ontology key {self.ontology!r}"
            )


class EvidenceAtom(NamedTuple):
    """One unit of mapping support; payload must stay pipe-free so atoms can
    be joined into the serialized evidence string (checked by validate_record,
    not here: delimiter violations are reported as data).  A named tuple:
    ``map`` builds many."""

    kind: EvidenceKind
    payload: str


def canonical_evidence(atoms) -> tuple[EvidenceAtom, ...]:
    """Deduplicate and sort atoms into the canonical serialization order:
    by kind, as ``EvidenceKind`` declares them, then by payload."""
    unique = set(atoms)
    return tuple(sorted(unique, key=lambda a: (a.kind.value, a.payload)))


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


def and_logic(n: int) -> str:
    """The default logic of ``n`` targets: ``AND`` over them all from two on."""
    return "AND(" + ",".join(str(i) for i in range(n)) + ")" if n >= 2 else ""


def logic_rule(logic: str, n: int) -> str | None:
    """The logic rule that ``logic`` over ``n`` targets breaks, or None:
    it is empty for no target, empty or ``NOT(0)`` for one, and for more
    refers to each target exactly once."""
    # "" and NOT(0) need no parse: they suit one target, and "" suits none.
    if n < 2 and logic in ("", "NOT(0)"):
        return "logic coverage" if logic and not n else None
    try:
        refs = parse_logic(logic)
    except ValueError:
        return "logic syntax"
    return "logic coverage" if n < 2 or sorted(refs) != list(range(n)) else None


@dataclass(frozen=True)
class Violation:
    """First invariant a record breaks, with the offending field path."""

    rule: str
    field_path: str


def validate_record(record: MappingRecord) -> Violation | None:
    """``map``'s check of each record it writes: ``check_mapping`` on its
    fields, then no ``|`` in an evidence payload, which would split the
    atom in the ``evidence`` column."""
    violation = check_mapping(
        record.category, record.logic, record.targets, record.score, record.unmapped_reason, record.evidence
    )
    if violation is None:
        for i, atom in enumerate(record.evidence):
            if "|" in atom.payload:
                return Violation("evidence delimiter", f"evidence[{i}].payload")
    return violation


def check_mapping(category, logic, targets, score, unmapped_reason, evidence) -> Violation | None:
    """The first rule that a mapping's fields break, or None: the category
    fixes the number of targets and whether there is an unmapped reason,
    the logic refers to each target once, only a cosine mapping has a
    score, in [0, 1], and there is evidence (atoms, or the column's text).
    Violations are data, not failures: callers decide whether to raise."""
    n, count = len(targets), category.target_count  # count: 0, 1, or 2 for two or more
    if (n if n < 2 else 2) != count:
        return Violation("cardinality" if count else "unmapped consistency", "targets")
    if (unmapped_reason is None) == (count == 0):
        return Violation("unmapped consistency", "unmapped_reason")

    rule = logic_rule(logic, n)
    if rule is not None:
        return Violation(rule, "logic")

    if (score is None) == (category.justification is Justification.SIMILARITY):
        return Violation("score presence", "score")
    if score is not None and not 0.0 <= score <= 1.0:
        return Violation("score range", "score")

    if not evidence:
        return Violation("evidence", "evidence")
    return None
