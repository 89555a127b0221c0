"""Exact alignment: string, code, and CUI channels over frozen indexes.

Indexes are built once and never change afterwards.  Every candidate
carries one evidence atom per independent source, and every atom can be
replayed against the raw inputs to reproduce the hit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .core import (
    ClinicalConcept,
    CodeRef,
    EvidenceAtom,
    EvidenceKind,
    MappingLevel,
    OntologyClass,
    canonical_evidence,
)
from .lexical import NormalizationDictionary, normalize_string


@dataclass(frozen=True)
class CandidateMatch:
    concept_id: int
    curie: str
    level: MappingLevel
    evidence: tuple[EvidenceAtom, ...]
    via_ancestor: int | None = None

    def __post_init__(self):
        if not self.evidence:
            raise ValueError("candidate requires evidence")
        if (self.level is MappingLevel.ANCESTOR) != (self.via_ancestor is not None):
            raise ValueError("via_ancestor present iff level is ANCESTOR")


class AlignmentIndexes:
    """Frozen lookup tables from non-deprecated ontology classes.

    string_index : normalized string -> frozenset of CURIEs
    definition_only : normalized string -> CURIEs reachable from that
        string only through a class definition (drives evidence kind)
    code_index : CodeRef -> frozenset of CURIEs (from xrefs)
    cui_index : CUI -> frozenset of CURIEs (from UMLS-prefixed xrefs)
    ontology_of : CURIE -> ontology key
    """

    def __init__(self, classes):
        strings: dict[str, set[str]] = defaultdict(set)
        non_definition: dict[str, set[str]] = defaultdict(set)
        codes: dict[CodeRef, set[str]] = defaultdict(set)
        cuis: dict[str, set[str]] = defaultdict(set)
        ontology_of: dict[str, str] = {}

        for cls in classes:
            if cls.deprecated:
                continue
            ontology_of[cls.curie] = cls.ontology
            for text, from_definition in self._class_strings(cls):
                key = normalize_string(text)
                if not key:
                    continue
                strings[key].add(cls.curie)
                if not from_definition:
                    non_definition[key].add(cls.curie)
            for xref in cls.xrefs:
                codes[xref].add(cls.curie)
                if xref.prefix == "UMLS":
                    cuis[xref.code].add(cls.curie)

        self.string_index = {k: frozenset(v) for k, v in strings.items()}
        self.definition_only = {
            k: frozenset(v - non_definition.get(k, set()))
            for k, v in strings.items()
            if v - non_definition.get(k, set())
        }
        self.code_index = {k: frozenset(v) for k, v in codes.items()}
        self.cui_index = {k: frozenset(v) for k, v in cuis.items()}
        self.ontology_of = ontology_of

    @staticmethod
    def _class_strings(cls: OntologyClass):
        yield cls.label, False
        for syn in cls.synonyms:
            yield syn.text, False
        if cls.definition:
            yield cls.definition, True


def build_indexes(classes) -> AlignmentIndexes:
    """Index labels, synonyms, definitions, xrefs, and UMLS xref CUIs."""
    return AlignmentIndexes(classes)


class CuiBridge:
    """Canonicalized (vocabulary, code) -> CUI lookup built from MRCONSO's
    (SAB, CODE) -> CUIs projection."""

    def __init__(self, atoms_by_code, dictionary: NormalizationDictionary):
        by_ref: dict[CodeRef, set[str]] = defaultdict(set)
        for (sab, code), cuis in atoms_by_code.items():
            ref = CodeRef(dictionary.canonical_prefix(sab), code.strip())
            by_ref[ref].update(cuis)
        self._by_ref = {ref: tuple(sorted(group)) for ref, group in by_ref.items()}

    def cuis_for(self, ref: CodeRef) -> tuple[str, ...]:
        """Every CUI whose source (SAB, CODE) canonicalizes to ``ref``."""
        return self._by_ref.get(ref, ())


def enrich_concepts(
    concepts: dict[int, ClinicalConcept],
    bridge: CuiBridge,
    sty_by_cui,
) -> dict[int, ClinicalConcept]:
    """Attach bridged CUIs and their semantic types to each concept."""
    out = {}
    for concept_id, concept in concepts.items():
        cuis = bridge.cuis_for(concept.code)
        types = sorted({name for cui in cuis for name in sty_by_cui.get(cui, ())})
        out[concept_id] = replace(concept, cuis=cuis, semantic_types=tuple(types))
    return out


def _collect_hits(concept: ClinicalConcept, indexes: AlignmentIndexes, allowed) -> dict[str, set]:
    """Union of code, CUI, and string channel hits, evidence keyed by CURIE."""
    hits: dict[str, set] = defaultdict(set)

    for curie in indexes.code_index.get(concept.code, ()):
        hits[curie].add(EvidenceAtom(EvidenceKind.XREF_MATCH, str(concept.code)))

    for cui in concept.cuis:
        for curie in indexes.cui_index.get(cui, ()):
            hits[curie].add(EvidenceAtom(EvidenceKind.CUI_MATCH, cui))

    concept_texts = [(EvidenceKind.LABEL_MATCH, concept.label)]
    concept_texts += [(EvidenceKind.SYNONYM_MATCH, s) for s in concept.synonyms]
    for kind, text in concept_texts:
        key = normalize_string(text)
        if not key:
            continue
        definition_only = indexes.definition_only.get(key, frozenset())
        for curie in indexes.string_index.get(key, ()):
            atom_kind = EvidenceKind.DEFINITION_MATCH if curie in definition_only else kind
            hits[curie].add(EvidenceAtom(atom_kind, key))

    if allowed is not None:
        hits = {
            curie: atoms
            for curie, atoms in hits.items()
            if indexes.ontology_of.get(curie) in allowed
        }
    return hits


def align_concept(
    concept: ClinicalConcept,
    indexes: AlignmentIndexes,
    allowed=None,
) -> list[CandidateMatch]:
    """Concept-level exact candidates, deduplicated by CURIE, sorted by CURIE.

    ``allowed`` optionally restricts hits to a set of ontology keys (the
    routing decision for this concept).
    """
    hits = _collect_hits(concept, indexes, allowed)
    return [
        CandidateMatch(
            concept_id=concept.concept_id,
            curie=curie,
            level=MappingLevel.CONCEPT,
            evidence=canonical_evidence(hits[curie]),
        )
        for curie in sorted(hits)
    ]


def align_via_ancestors(
    concept: ClinicalConcept,
    concept_table: dict[int, ClinicalConcept],
    indexes: AlignmentIndexes,
    allowed=None,
) -> list[CandidateMatch]:
    """Ancestor-level candidates: the concept-level logic replayed over every
    ancestor, all hits returned without prioritization among ancestors.

    Callers invoke this only for ontologies where concept-level alignment
    came back empty.
    """
    out = []
    for ancestor_id in sorted(concept.ancestors):
        ancestor = concept_table.get(ancestor_id)
        if ancestor is None:
            continue
        hits = _collect_hits(ancestor, indexes, allowed)
        for curie in sorted(hits):
            out.append(
                CandidateMatch(
                    concept_id=concept.concept_id,
                    curie=curie,
                    level=MappingLevel.ANCESTOR,
                    evidence=canonical_evidence(hits[curie]),
                    via_ancestor=ancestor_id,
                )
            )
    out.sort(key=lambda c: (c.curie, c.via_ancestor))
    return out
