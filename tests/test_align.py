"""Exact-alignment channels against a brute-force nested-loop oracle."""

import random

import pytest

from termbridge.align import (
    CandidateMatch,
    CuiBridge,
    align_concept,
    align_via_ancestors,
    build_indexes,
    enrich_concepts,
)
from termbridge.core import (
    ClinicalConcept,
    CodeRef,
    Domain,
    EvidenceAtom,
    EvidenceKind,
    MappingLevel,
    OntologyClass,
    canonical_evidence,
)
from termbridge.lexical import normalize_string


def concept(cid, code, label, synonyms=(), ancestors=(), cuis=(), used=True):
    return ClinicalConcept(
        concept_id=cid,
        code=code,
        label=label,
        synonyms=tuple(synonyms),
        domain=Domain.CONDITION,
        used_in_practice=used,
        ancestors=tuple(ancestors),
        cuis=tuple(cuis),
    )


def klass(curie, label, synonyms=(), xrefs=(), definition=None, deprecated=False):
    return OntologyClass(
        curie=curie,
        ontology=curie.split(":")[0].upper(),
        label=label,
        definition=definition,
        synonyms=tuple(synonyms),
        xrefs=tuple(xrefs),
        deprecated=deprecated,
    )


OVERJET = klass(
    "HP:0011095",
    "Overjet",
    xrefs=[CodeRef("SNOMED", "70305005"), CodeRef("UMLS", "C0596028")],
)


class TestBuildIndexes:
    """Each table maps a key to the sorted tuple of distinct CURIEs."""

    def test_label_key(self):
        idx = build_indexes([OVERJET])
        assert idx.string_index["overjet"] == ("HP:0011095",)

    def test_cui_key_from_umls_xref(self):
        idx = build_indexes([OVERJET])
        assert idx.cui_index["C0596028"] == ("HP:0011095",)

    def test_code_key(self):
        idx = build_indexes([OVERJET])
        assert idx.code_index[CodeRef("SNOMED", "70305005")] == ("HP:0011095",)

    def test_empty_class_set(self):
        idx = build_indexes([])
        assert idx.string_index == {} and idx.code_index == {} and idx.cui_index == {}

    def test_deprecated_excluded_everywhere(self):
        dead = klass("HP:0000009", "Overjet", xrefs=[CodeRef("UMLS", "C0596028")], deprecated=True)
        idx = build_indexes([OVERJET, dead])
        assert idx.string_index["overjet"] == ("HP:0011095",)
        assert idx.cui_index["C0596028"] == ("HP:0011095",)

    def test_definition_only_tracking(self):
        defined = klass("HP:0000010", "Something else", definition="overjet")
        idx = build_indexes([OVERJET, defined])
        assert idx.string_index["overjet"] == ("HP:0000010", "HP:0011095")
        assert idx.definition_only["overjet"] == ("HP:0000010",)

    def test_curies_sorted_whatever_the_class_order(self):
        classes = [klass(f"HP:{k:07d}", "Overjet", xrefs=[CodeRef("UMLS", "C0596028")]) for k in (7, 2, 9)]
        idx = build_indexes(classes)
        expected = ("HP:0000002", "HP:0000007", "HP:0000009")
        assert idx.string_index["overjet"] == expected
        assert idx.cui_index["C0596028"] == expected

    def test_repeated_xref_listed_once(self):
        umls = CodeRef("UMLS", "C0596028")
        snomed = CodeRef("SNOMED", "70305005")
        twice = klass("HP:0011095", "Overjet", xrefs=[snomed, umls, snomed, umls])
        idx = build_indexes([twice])
        assert idx.code_index[snomed] == ("HP:0011095",)
        assert idx.code_index[umls] == ("HP:0011095",)
        assert idx.cui_index["C0596028"] == ("HP:0011095",)

    def test_label_equal_to_own_synonym_listed_once(self):
        same = klass("HP:0011095", "Overjet", synonyms=["overjet", "OVERJET "])
        idx = build_indexes([same, klass("HP:0000001", "Overjet")])
        assert idx.string_index["overjet"] == ("HP:0000001", "HP:0011095")

    def test_definition_equal_to_label_is_not_definition_only(self):
        defined = klass("HP:0000010", "Overjet", synonyms=["Overjet"], definition="Overjet")
        idx = build_indexes([defined])
        assert idx.string_index["overjet"] == ("HP:0000010",)
        assert "overjet" not in idx.definition_only


class TestBridgeCuis:
    def _bridge(self):
        # load_umls's index: canonical (prefix, code) keys, sorted CUIs.
        atoms = {
            ("SNOMED", "70305005"): ("C0596028",),
            ("SNOMED", "999"): ("C0000001", "C0000002"),
        }
        return CuiBridge(atoms)

    def test_fixture_atom(self):
        c = concept(22945, CodeRef("SNOMED", "70305005"), "Horizontal overbite")
        assert self._bridge().cuis_for(c.code) == ("C0596028",)

    def test_absent(self):
        c = concept(1, CodeRef("SNOMED", "404"), "missing")
        assert self._bridge().cuis_for(c.code) == ()

    def test_two_cuis_sorted(self):
        c = concept(2, CodeRef("SNOMED", "999"), "double")
        assert self._bridge().cuis_for(c.code) == ("C0000001", "C0000002")

    def test_enrich_attaches_cuis_and_types(self):
        c = concept(22945, CodeRef("SNOMED", "70305005"), "Horizontal overbite")
        out = enrich_concepts({22945: c}, self._bridge(), {"C0596028": ("Finding",)})
        assert out[22945].cuis == ("C0596028",)
        assert out[22945].semantic_types == ("Finding",)


class TestAlignConcept:
    def test_worked_example_evidence(self):
        c = concept(
            22945,
            CodeRef("SNOMED", "70305005"),
            "Horizontal overbite",
            synonyms=["Overjet"],
            cuis=["C0596028"],
        )
        idx = build_indexes([OVERJET])
        out = align_concept(c, idx)
        assert len(out) == 1
        cand = out[0]
        assert cand.curie == "HP:0011095"
        assert cand.level is MappingLevel.CONCEPT
        assert set(cand.evidence) == {
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:70305005"),
            EvidenceAtom(EvidenceKind.CUI_MATCH, "C0596028"),
            EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "overjet"),
        }
        # canonical ordering: code-derived atoms first
        assert cand.evidence[0].kind is EvidenceKind.XREF_MATCH

    def test_no_overlap(self):
        c = concept(1, CodeRef("SNOMED", "000"), "unrelated words")
        assert align_concept(c, build_indexes([OVERJET])) == []

    def test_label_matching_two_classes(self):
        k1 = klass("HP:0000001", "shared label")
        k2 = klass("HP:0000002", "Shared  Label")
        c = concept(1, CodeRef("SNOMED", "000"), "shared label")
        out = align_concept(c, build_indexes([k1, k2]))
        assert [cand.curie for cand in out] == ["HP:0000001", "HP:0000002"]
        for cand in out:
            assert cand.evidence == (EvidenceAtom(EvidenceKind.LABEL_MATCH, "shared label"),)

    def test_routing_filter(self):
        c = concept(1, CodeRef("SNOMED", "000"), "overjet")
        idx = build_indexes([OVERJET])
        assert align_concept(c, idx, allowed=frozenset({"MONDO"})) == []
        assert len(align_concept(c, idx, allowed=frozenset({"HP"}))) == 1

    def test_definition_only_hit_has_definition_kind(self):
        defined = klass("HP:0000010", "Something else", definition="deep phrase")
        c = concept(1, CodeRef("SNOMED", "000"), "deep phrase")
        out = align_concept(c, build_indexes([defined]))
        assert out[0].evidence == (EvidenceAtom(EvidenceKind.DEFINITION_MATCH, "deep phrase"),)


class TestAlignViaAncestors:
    def test_ancestor_xref_hit(self):
        salivary = klass(
            "HP:0010286",
            "Abnormal salivary gland morphology",
            xrefs=[CodeRef("SNOMED", "10890000"), CodeRef("UMLS", "C0036093")],
        )
        anc = concept(90001, CodeRef("SNOMED", "10890000"), "Disorder of salivary gland",
                      cuis=["C0036093"], used=False)
        child = concept(22722, CodeRef("SNOMED", "5055000"), "Accessory salivary gland",
                        ancestors=[90001])
        idx = build_indexes([salivary])
        out = align_via_ancestors(child, {90001: anc, 22722: child}, idx)
        assert len(out) == 1
        cand = out[0]
        assert cand.curie == "HP:0010286"
        assert cand.level is MappingLevel.ANCESTOR
        assert cand.via_ancestor == 90001
        assert cand.concept_id == 22722
        assert EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:10890000") in cand.evidence
        assert EvidenceAtom(EvidenceKind.CUI_MATCH, "C0036093") in cand.evidence

    def test_two_ancestor_hits(self):
        bone = klass("MONDO:0005315", "Bone fracture", synonyms=["Fracture of bone"])
        foot = klass("MONDO:0044989", "Foot disease", synonyms=["Disorder of foot"])
        anc1 = concept(90002, CodeRef("SNOMED", "125605004"), "Fracture of bone", used=False)
        anc2 = concept(90003, CodeRef("SNOMED", "118932009"), "Disorder of foot", used=False)
        child = concept(
            74185, CodeRef("SNOMED", "209271004"), "Open fracture of cuboid bone of foot",
            ancestors=[90002, 90003],
        )
        table = {c.concept_id: c for c in (anc1, anc2, child)}
        out = align_via_ancestors(child, table, build_indexes([bone, foot]))
        assert {(c.curie, c.via_ancestor) for c in out} == {
            ("MONDO:0005315", 90002),
            ("MONDO:0044989", 90003),
        }

    def test_no_ancestors(self):
        child = concept(1, CodeRef("SNOMED", "1"), "leaf")
        assert align_via_ancestors(child, {1: child}, build_indexes([OVERJET])) == []

    def test_missing_ancestor_skipped(self):
        child = concept(1, CodeRef("SNOMED", "1"), "leaf", ancestors=[999])
        assert align_via_ancestors(child, {1: child}, build_indexes([OVERJET])) == []

    def test_candidate_invariants(self):
        with pytest.raises(ValueError):
            CandidateMatch(1, "HP:1", MappingLevel.ANCESTOR, (EvidenceAtom(EvidenceKind.LABEL_MATCH, "x"),))
        with pytest.raises(ValueError):
            CandidateMatch(1, "HP:1", MappingLevel.CONCEPT, ())


# --- oracle equivalence ------------------------------------------------------


def oracle_align(c, classes, allowed=None):
    """Independent nested-loop reimplementation of concept-level alignment."""
    hits = {}
    for k in classes:
        if k.deprecated:
            continue
        if allowed is not None and k.ontology not in allowed:
            continue
        atoms = set()
        if c.code in k.xrefs:
            atoms.add(EvidenceAtom(EvidenceKind.XREF_MATCH, str(c.code)))
        for cui in c.cuis:
            if CodeRef("UMLS", cui) in k.xrefs:
                atoms.add(EvidenceAtom(EvidenceKind.CUI_MATCH, cui))
        non_def = {normalize_string(k.label)} | {normalize_string(s) for s in k.synonyms}
        def_string = normalize_string(k.definition) if k.definition else None
        concept_strings = [(EvidenceKind.LABEL_MATCH, normalize_string(c.label))]
        concept_strings += [(EvidenceKind.SYNONYM_MATCH, normalize_string(s)) for s in c.synonyms]
        for kind, text in concept_strings:
            if not text:
                continue
            if text in non_def:
                atoms.add(EvidenceAtom(kind, text))
            elif text == def_string:
                atoms.add(EvidenceAtom(EvidenceKind.DEFINITION_MATCH, text))
        if atoms:
            hits[k.curie] = canonical_evidence(atoms)
    return [
        CandidateMatch(c.concept_id, curie, MappingLevel.CONCEPT, hits[curie])
        for curie in sorted(hits)
    ]


def random_fixture(rng, n_concepts, n_classes, vocab_size=60):
    words = [f"w{i}" for i in range(vocab_size)]
    classes = []
    for i in range(n_classes):
        curie = f"HP:{i:07d}" if rng.random() < 0.6 else f"MONDO:{i:07d}"
        label = " ".join(rng.sample(words, rng.randint(1, 3)))
        synonyms = [" ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(rng.randint(0, 2))]
        xrefs = []
        if rng.random() < 0.4:
            xrefs.append(CodeRef("SNOMED", str(rng.randint(1, n_concepts * 2))))
        if rng.random() < 0.3:
            xrefs.append(CodeRef("UMLS", f"C{rng.randint(1, 40):07d}"))
        definition = " ".join(rng.sample(words, 2)) if rng.random() < 0.3 else None
        classes.append(
            klass(curie, label, synonyms, xrefs, definition, deprecated=rng.random() < 0.05)
        )
    concepts = []
    for i in range(1, n_concepts + 1):
        label = " ".join(rng.sample(words, rng.randint(1, 3)))
        synonyms = [" ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(rng.randint(0, 2))]
        cuis = sorted({f"C{rng.randint(1, 40):07d}" for _ in range(rng.randint(0, 2))})
        concepts.append(
            concept(i, CodeRef("SNOMED", str(rng.randint(1, n_concepts * 2))), label, synonyms, cuis=cuis)
        )
    return concepts, classes


class TestOracleEquivalence:
    def test_random_fixture_matches_nested_loop(self):
        rng = random.Random(2024)
        concepts, classes = random_fixture(rng, 60, 80)
        idx = build_indexes(classes)
        for c in concepts:
            assert align_concept(c, idx) == oracle_align(c, classes)

    def test_random_fixture_with_routing(self):
        rng = random.Random(77)
        concepts, classes = random_fixture(rng, 40, 50)
        idx = build_indexes(classes)
        allowed = frozenset({"HP"})
        for c in concepts:
            assert align_concept(c, idx, allowed) == oracle_align(c, classes, allowed)

    def test_evidence_replay(self):
        """Every emitted atom must be re-checkable against the raw inputs."""
        rng = random.Random(5)
        concepts, classes = random_fixture(rng, 50, 60)
        by_curie = {k.curie: k for k in classes}
        idx = build_indexes(classes)
        for c in concepts:
            for cand in align_concept(c, idx):
                k = by_curie[cand.curie]
                class_strings = {normalize_string(k.label)}
                class_strings |= {normalize_string(s) for s in k.synonyms}
                if k.definition:
                    class_strings.add(normalize_string(k.definition))
                concept_strings = {normalize_string(c.label)}
                concept_strings |= {normalize_string(s) for s in c.synonyms}
                for atom in cand.evidence:
                    if atom.kind is EvidenceKind.XREF_MATCH:
                        assert atom.payload == str(c.code)
                        assert c.code in k.xrefs
                    elif atom.kind is EvidenceKind.CUI_MATCH:
                        assert atom.payload in c.cuis
                        assert CodeRef("UMLS", atom.payload) in k.xrefs
                    else:
                        assert atom.payload in class_strings
                        assert atom.payload in concept_strings
