"""Fusion of exact hits, cosine scores, curation, and routing into final
MappingRecords.

Per-ontology precedence is total and deterministic, and the same for
every domain:

  1. curation row (manual categories; manual always wins)
  2. records claimed by measurement expansion (result rows, auxiliary
     targets, or a concept-level exclusion)
  3. concept-level exact hits (automatic, concept level)
  4. ancestor-level exact hits (automatic, ancestor level)
  5. best filtered cosine pair (cosine category, with score)
  6. unmapped, with the routing exclusion reason when present, else
     NOT YET MAPPED for concepts not used in practice, else none-found

Multi-target logic defaults to AND; OR and NOT only arise from curation
rows and from negated measurement result rows.  Every record is built
by ``_record``, which picks its category and puts its evidence in
canonical order, so a row joins it as it stands.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .core import (
    ClinicalConcept,
    EvidenceAtom,
    EvidenceKind,
    Justification,
    MappingLevel,
    MappingRecord,
    MeasurementOutcome,
    MeasurementScale,
    NEGATED_OUTCOMES,
    OUTCOME_ORDER,
    RESULT_TYPE_OUTCOMES,
    ResultAssignment,
    ResultType,
    UnmappedReason,
    and_logic,
    canonical_evidence,
    curie_ontology,
    pick_category,
)
from .errors import DataError
from .ingest import RoutingPolicy, ScaleRow
from .lexical import TOKEN_RE, normalize_string


@dataclass(frozen=True)
class RouteDecision:
    allowed: frozenset[str]
    exclusion: UnmappedReason | None = None


def route(concept: ClinicalConcept, policy: RoutingPolicy) -> RouteDecision:
    """Decide which ontologies a concept may target.

    Multiple semantic types union their allowed sets; an exclusion rule on
    any type short-circuits to an empty allowed set with that reason.
    """
    for sty in sorted(concept.semantic_types):
        reason = policy.exclude.get(sty)
        if reason is not None:
            return RouteDecision(allowed=frozenset(), exclusion=reason)
    allowed: set[str] = set()
    ruled = False
    for sty in concept.semantic_types:
        ontologies = policy.allow.get(sty)
        if ontologies is not None:
            allowed |= ontologies
            ruled = True
    if not ruled:
        return RouteDecision(allowed=policy.default_ontologies)
    return RouteDecision(allowed=frozenset(allowed) & policy.default_ontologies)


def _record(
    concept, ontology, justification, level, targets, evidence, logic=None, score=None, reason=None, outcome=None
) -> MappingRecord:
    """The one place a record is built: its category is picked from
    ``justification``, ``level`` and the number of ``targets``, its logic
    is AND over the targets unless given, and its evidence is put in
    canonical order."""
    return MappingRecord(
        concept_id=concept.concept_id,
        domain=concept.domain,
        ontology=ontology,
        category=pick_category(justification, level, len(targets)),
        logic=and_logic(len(targets)) if logic is None else logic,
        targets=targets,
        score=score,
        evidence=canonical_evidence(evidence),
        unmapped_reason=reason,
        outcome=outcome,
    )


def _unmapped(concept, ontology, reason, *extra_evidence) -> MappingRecord:
    atoms = (EvidenceAtom(EvidenceKind.EXCLUSION_REASON, reason.evidence), *extra_evidence)
    return _record(concept, ontology, None, MappingLevel.NONE, (), atoms, reason=reason)


def _fallback_reason(concept: ClinicalConcept, decision: RouteDecision) -> UnmappedReason:
    if decision.exclusion is not None:
        return decision.exclusion
    if not concept.used_in_practice:
        return UnmappedReason.NOT_YET_MAPPED
    return UnmappedReason.NONE_FOUND


def synthesize(
    concept: ClinicalConcept,
    exact_concept,
    exact_ancestor,
    cosine_best,
    curation,
    decision: RouteDecision,
    ontologies,
    claimed=None,
) -> list[MappingRecord]:
    """The MappingRecords of one concept, in ``mappings.tsv`` row order:
    one per configured ontology, or its claimed records.

    ``ontologies`` are the configured ontology keys, as the dump loader
    settled them.  ``exact_concept`` and ``exact_ancestor`` map
    ontology key -> CURIE -> evidence atoms, as the exact aligners return
    them; ``cosine_best`` maps ontology key -> ScoredPair; ``curation``
    maps ontology key -> this concept's curation row.
    ``claimed`` maps ontology key -> the records measurement expansion
    built for it, in row order; they stand unless a curation row covers
    that ontology.  Claimed ontologies outside the configured set are
    explicit curated data and are kept too.

    The configured and claimed keys are walked in one ascending loop, and
    each (ontology, outcome) holds at most one record, the one of no
    outcome first, so the records need no sort.
    """
    claimed = claimed or {}
    records = []
    for ontology in sorted(claimed.keys() | set(ontologies)):
        row = curation.get(ontology)
        if row is None and ontology in claimed:
            records.extend(claimed[ontology])
            continue
        if row is not None and row.unmapped_reason is not None:
            extra = [EvidenceAtom(EvidenceKind.MANUAL_SOURCE, row.evidence)] if row.evidence.strip() else []
            record = _unmapped(concept, ontology, row.unmapped_reason, *extra)
        elif row is not None:
            source = EvidenceAtom(EvidenceKind.MANUAL_SOURCE, row.evidence.strip() or "manual curation")
            record = _record(
                concept, ontology, Justification.CURATION, MappingLevel.CONCEPT, row.targets, (source,), row.logic
            )
        elif ontology in exact_concept or ontology in exact_ancestor:
            level = MappingLevel.CONCEPT if ontology in exact_concept else MappingLevel.ANCESTOR
            hits = (exact_concept if level is MappingLevel.CONCEPT else exact_ancestor)[ontology]
            evidence = chain.from_iterable(hits.values())
            record = _record(concept, ontology, Justification.LEXICAL, level, tuple(sorted(hits)), evidence)
        elif ontology in cosine_best:
            pair = cosine_best[ontology]
            evidence = (EvidenceAtom(EvidenceKind.COSINE_SCORE, f"{pair.score:.4f}"),)
            record = _record(
                concept, ontology, Justification.SIMILARITY, MappingLevel.CONCEPT, (pair.curie,), evidence,
                score=pair.score,
            )
        else:
            record = _unmapped(concept, ontology, _fallback_reason(concept, decision))
        records.append(record)
    return records


# --- measurement result expansion -----------------------------------------


def derive_result_type(concept: ClinicalConcept, scale_row: ScaleRow | None) -> ResultType:
    """Result typing, in order: explicit reference-range data, then ordinal
    scale or presence/screen synonyms, then quantitative scale, else unknown."""
    if scale_row is not None:
        if scale_row.reference_range_kind == "NUMERIC":
            return ResultType.NORMAL_LOW_HIGH
        if scale_row.reference_range_kind == "POS_NEG":
            return ResultType.POSITIVE_NEGATIVE
    scale = scale_row.scale if scale_row is not None else MeasurementScale.UNKNOWN
    if scale is MeasurementScale.ORDINAL or _has_presence_screen_synonym(concept):
        return ResultType.POSITIVE_NEGATIVE
    if scale is MeasurementScale.QUANTITATIVE:
        return ResultType.NORMAL_LOW_HIGH
    return ResultType.UNKNOWN_RESULT_TYPE


_PRESENCE_TOKENS = {"presence", "screen"}


def _has_presence_screen_synonym(concept: ClinicalConcept) -> bool:
    """Whether a synonym has the word presence or screen, as written: no
    stopword is dropped and no suffix rule applies."""
    return any(_PRESENCE_TOKENS.intersection(TOKEN_RE.findall(normalize_string(text))) for text in concept.synonyms)


def _derive_counterpart(assignments: list[ResultAssignment]) -> list[ResultAssignment]:
    """Fill the missing half of a positive/negative pair from the other."""
    present = {a.outcome for a in assignments}
    out = list(assignments)
    pos = next((a for a in assignments if a.outcome is MeasurementOutcome.POSITIVE), None)
    neg = next((a for a in assignments if a.outcome is MeasurementOutcome.NEGATIVE), None)
    if pos is not None and MeasurementOutcome.NEGATIVE not in present:
        out.append(ResultAssignment(MeasurementOutcome.NEGATIVE, pos.curie))
    if neg is not None and MeasurementOutcome.POSITIVE not in present:
        out.append(ResultAssignment(MeasurementOutcome.POSITIVE, neg.curie))
    return out


def expand_measurements(
    concept: ClinicalConcept,
    scale_row: ScaleRow | None,
    assignments,
    aux_targets,
    ontologies,
    unspecified_sample: bool = False,
) -> tuple[list[MappingRecord]]:
    """The records measurement expansion claims for one concept.

    Result rows target the assignment's ontology (one row per outcome,
    NORMAL/NEGATIVE rows logically negated).  Auxiliary targets attach
    once per concept, one record per ontology.  Unspecified-sample and
    unknown-result-type are concept-level exclusions covering every
    configured ontology, each of ``ontologies`` (keys as the dump loader
    settled them).  A result row whose outcome the result type does not
    have, and any result or auxiliary row of a measurement of unknown
    result type, is ``OUTCOME_MISMATCH``.  The caller hands these records
    to ``synthesize`` as its claimed records; any ontology this expansion
    leaves untouched goes through the standard per-ontology precedence.

    Within an ontology the records come in row order: its auxiliary
    record, which has no outcome, then its result rows in outcome order.
    """
    # The records are the only item of a tuple: perfbench's tracer reads item 0.
    if unspecified_sample:
        return ([_unmapped(concept, ontology, UnmappedReason.UNSPECIFIED_SAMPLE) for ontology in ontologies],)

    result_type = derive_result_type(concept, scale_row)
    wanted = RESULT_TYPE_OUTCOMES[result_type]
    stray = [a.outcome.value for a in assignments if a.outcome not in wanted]
    if result_type is ResultType.UNKNOWN_RESULT_TYPE:
        stray += aux_targets  # the measurement is unmapped on every ontology, so no row can target it
    if stray:
        message = f"concept {concept.concept_id}: rows {stray} not valid for {result_type.value}"
        raise DataError("OUTCOME_MISMATCH", message)
    if result_type is ResultType.UNKNOWN_RESULT_TYPE:
        return ([_unmapped(concept, ontology, UnmappedReason.NOT_MAPPED_TEST_TYPE) for ontology in ontologies],)

    rows = list(assignments)
    if result_type is ResultType.POSITIVE_NEGATIVE:
        rows = _derive_counterpart(rows)
    if not rows:
        raise DataError(
            "MISSING_TARGET_FOR_RESULT",
            f"concept {concept.concept_id} typed {result_type.value} has no result targets",
        )
    rows.sort(key=lambda a: OUTCOME_ORDER[a.outcome])

    aux_by_ontology: dict[str, set[str]] = defaultdict(set)
    for curie in aux_targets:
        aux_by_ontology[curie_ontology(curie)].add(curie)
    evidence = (EvidenceAtom(EvidenceKind.MANUAL_SOURCE, "measurement annotation"),)
    records = [
        _record(concept, ontology, Justification.CURATION, MappingLevel.CONCEPT, tuple(sorted(curies)), evidence)
        for ontology, curies in sorted(aux_by_ontology.items())
    ]
    for a in rows:
        evidence = (EvidenceAtom(EvidenceKind.MANUAL_SOURCE, f"result {a.outcome.value} assignment"),)
        logic = "NOT(0)" if a.outcome in NEGATED_OUTCOMES else None
        records.append(
            _record(
                concept, curie_ontology(a.curie), Justification.CURATION, MappingLevel.CONCEPT, (a.curie,), evidence,
                logic, outcome=a.outcome,
            )
        )
    return (records,)
