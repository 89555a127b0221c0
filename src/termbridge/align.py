"""Exact alignment: string, code, and CUI channels over frozen indexes.

Indexes are built once and never change afterwards.  Both aligners return
ontology key -> CURIE -> the set of evidence atoms that tie the concept
to that class, one atom per independent source, and every atom can be
replayed against the raw inputs to reproduce the hit.  A hit's ontology
key is its CURIE's (``curie_ontology``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

from .core import ClinicalConcept, CodeRef, EvidenceAtom, EvidenceKind, curie_ontology
from .lexical import normalize_string


class AlignmentIndexes:
    """Frozen lookup tables from the classes given.

    Each table maps a key to the sorted tuple of distinct CURIEs that
    carry it:

    string_index : normalized string -> CURIEs
    definition_only : normalized string -> CURIEs reachable from that
        string only through a class definition (drives evidence kind)
    code_index : CodeRef -> CURIEs (from xrefs)
    cui_index : CUI -> CURIEs (from UMLS-prefixed xrefs)

    The classes are ``pipeline.live_classes``, in CURIE order, and a CURIE
    is appended to a key's tuple only if it is not already last, so every
    tuple is built sorted and distinct in one pass.
    """

    def __init__(self, classes):
        self.string_index: dict[str, tuple[str, ...]] = {}
        self.definition_only: dict[str, tuple[str, ...]] = {}
        self.code_index: dict[CodeRef, tuple[str, ...]] = {}
        self.cui_index: dict[str, tuple[str, ...]] = {}

        for cls in classes:
            curie = cls.curie
            named = [normalize_string(text) for text in (cls.label, *cls.synonyms)]
            for key in named:
                if key:
                    _add(self.string_index, key, curie)
            if cls.definition:
                key = normalize_string(cls.definition)
                if key and key not in named:
                    _add(self.string_index, key, curie)
                    _add(self.definition_only, key, curie)
            for xref in cls.xrefs:
                _add(self.code_index, xref, curie)
                if xref.prefix == "UMLS":
                    _add(self.cui_index, xref.code, curie)


def _add(table: dict, key, curie: str) -> None:
    """Append ``curie`` to ``key``'s tuple unless it ends it already.

    Classes arrive in CURIE order, so a repeat can only be the last.
    """
    value = table.get(key, ())
    if not value or value[-1] != curie:
        table[key] = value + (curie,)


def build_indexes(classes) -> AlignmentIndexes:
    """Index labels, synonyms, definitions, xrefs, and UMLS xref CUIs of the live ``classes``."""
    return AlignmentIndexes(classes)


class CuiBridge:
    """CodeRef -> CUI lookup over ``load_umls``'s (canonical prefix, code)
    -> sorted CUIs index."""

    def __init__(self, atoms_by_code):
        self._by_code = atoms_by_code

    def cuis_for(self, ref: CodeRef) -> tuple[str, ...]:
        """Every CUI whose source (SAB, CODE) canonicalizes to ``ref``."""
        return self._by_code.get((ref.prefix, ref.code), ())


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


def align_concept(
    concept: ClinicalConcept,
    indexes: AlignmentIndexes,
    allowed=None,
) -> dict[str, dict[str, set]]:
    """Concept-level exact hits: ontology key -> CURIE -> evidence atoms.

    The atoms are the union of the code, CUI, and string channel hits.
    ``allowed`` optionally restricts hits to a set of ontology keys (the
    routing decision for this concept).  An ontology with no hit is absent.
    """
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
        definition_only = indexes.definition_only.get(key, ())
        for curie in indexes.string_index.get(key, ()):
            atom_kind = EvidenceKind.DEFINITION_MATCH if curie in definition_only else kind
            hits[curie].add(EvidenceAtom(atom_kind, key))

    by_ontology: dict[str, dict[str, set]] = {}
    for curie, atoms in hits.items():
        ontology = curie_ontology(curie)
        if allowed is None or ontology in allowed:
            by_ontology.setdefault(ontology, {})[curie] = atoms
    return by_ontology


def align_via_ancestors(
    ancestor_ids,
    concept_table: dict[int, ClinicalConcept],
    indexes: AlignmentIndexes,
    allowed=None,
    *,
    memo: dict,
) -> dict[str, dict[str, set]]:
    """Ancestor-level exact hits, in ``align_concept``'s shape: the hits of
    each of a concept's loaded ``ancestor_ids``, with the atoms of a CURIE
    that several ancestors hit taken together and no ancestor preferred.

    ``memo`` keeps each ancestor's unfiltered hits by id across one run's
    calls, so an ancestor is aligned once; each call keeps its ``allowed``
    ontologies.  Callers invoke this only for ontologies where
    concept-level alignment came back empty.
    """
    merged: dict[str, dict[str, set]] = {}
    for ancestor_id in ancestor_ids:
        hits = memo.get(ancestor_id)
        if hits is None:
            ancestor = concept_table.get(ancestor_id)
            if ancestor is None:
                continue
            hits = memo[ancestor_id] = align_concept(ancestor, indexes)
        for ontology, curies in hits.items():
            if allowed is None or ontology in allowed:
                into = merged.setdefault(ontology, {})
                for curie, atoms in curies.items():
                    into.setdefault(curie, set()).update(atoms)
    return merged
