"""Domain type invariants: the category table, logic grammar, record validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termbridge.core import (
    ClinicalConcept,
    CodeRef,
    Domain,
    EvidenceAtom,
    EvidenceKind,
    Justification,
    MappingCategory,
    MappingLevel,
    MappingRecord,
    OntologyClass,
    UnmappedReason,
    canonical_evidence,
    is_code_prefix,
    parse_logic,
    pick_category,
    validate_record,
)
from termbridge.ingest import MAPPING_COLUMNS

# How mappings.tsv reads and writes a category.
_, PARSE_CATEGORY, RENDER_CATEGORY = next(c for c in MAPPING_COLUMNS if c[0] == "category")

C = MappingCategory
L = MappingLevel


#: Every category's facts as literals: its label, its level, its target
#: count (2 for two or more) and its SSSOM mapping_justification.
CATEGORY_FACTS = {
    C.AUTO_ONE_TO_ONE_CONCEPT: ("Automatic One-to-One Concept", L.CONCEPT, 1, "semapv:LexicalMatching"),
    C.AUTO_ONE_TO_ONE_ANCESTOR: ("Automatic One-to-One Ancestor", L.ANCESTOR, 1, "semapv:LexicalMatching"),
    C.AUTO_ONE_TO_MANY_CONCEPT: ("Automatic One-to-Many Concept", L.CONCEPT, 2, "semapv:LexicalMatching"),
    C.AUTO_ONE_TO_MANY_ANCESTOR: ("Automatic One-to-Many Ancestor", L.ANCESTOR, 2, "semapv:LexicalMatching"),
    C.COSINE_ONE_TO_ONE_CONCEPT: (
        "Cosine Similarity One-to-One Concept", L.CONCEPT, 1, "semapv:SemanticSimilarityThresholdMatching"
    ),
    C.MANUAL_ONE_TO_ONE_CONCEPT: ("Manual One-to-One Concept", L.CONCEPT, 1, "semapv:ManualMappingCuration"),
    C.MANUAL_ONE_TO_MANY_CONCEPT: ("Manual One-to-Many Concept", L.CONCEPT, 2, "semapv:ManualMappingCuration"),
    C.UNMAPPED: ("Unmapped", L.NONE, 0, None),
}

#: (category, level) -> label, ordered by label.
DISPLAY_TABLE = dict(sorted((((c, f[1]), f[0]) for c, f in CATEGORY_FACTS.items()), key=lambda kv: kv[1]))


class TestRenderCategory:
    """Each category's facts, as mappings.tsv, summary.json and SSSOM render them."""

    @pytest.mark.parametrize("category", list(C), ids=lambda c: c.name)
    def test_facts(self, category):
        justification = category.justification.value if category.justification else None
        facts = (category.label, category.level, category.target_count, justification)
        assert facts == CATEGORY_FACTS[category]

    @pytest.mark.parametrize("pair,expected", DISPLAY_TABLE.items())
    def test_display_strings(self, pair, expected):
        category, level = pair
        assert PARSE_CATEGORY(expected) is category and category.level is level
        assert RENDER_CATEGORY(category) == expected

    def test_bijection(self):
        assert len({c.label for c in C}) == 8
        assert {PARSE_CATEGORY(c.label) for c in C} == set(C)

    def test_pair_not_in_use_rejected(self):
        with pytest.raises(KeyError):
            pick_category(Justification.SIMILARITY, L.ANCESTOR, 1)
        with pytest.raises(KeyError):
            PARSE_CATEGORY("Automatc One-to-One Concept")

    @pytest.mark.parametrize("category", [c for c in C if c.justification], ids=lambda c: c.name)
    def test_pick_category(self, category):
        counts = (2, 3) if category.target_count == 2 else (1,)
        for n in counts:
            assert pick_category(category.justification, category.level, n) is category


class TestParseLogic:
    def test_empty(self):
        assert parse_logic("") == []

    def test_not_single(self):
        assert parse_logic("NOT(0)") == [0]

    def test_and(self):
        assert parse_logic("AND(0,1)") == [0, 1]

    def test_or_three(self):
        assert parse_logic("OR(0,1,2)") == [0, 1, 2]

    def test_nested_not_in_and(self):
        assert parse_logic("AND(NOT(0),1)") == [0, 1]

    @pytest.mark.parametrize("bad", ["AND(0)", "XOR(0,1)", "AND(0,)", "NOT(0,1)", "AND", "0 1"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_logic(bad)


def _record(**overrides):
    base = dict(
        concept_id=22945,
        domain=Domain.CONDITION,
        ontology="HP",
        category=C.AUTO_ONE_TO_ONE_CONCEPT,
        logic="",
        targets=("HP:0011095",),
        score=None,
        evidence=(EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "overjet"),),
        unmapped_reason=None,
    )
    base.update(overrides)
    return MappingRecord(**base)


class TestValidateRecord:
    def test_valid_one_to_one(self):
        assert validate_record(_record()) is None

    def test_one_to_one_with_two_targets_is_cardinality(self):
        bad = _record(targets=("HP:0000001", "HP:0000002"))
        violation = validate_record(bad)
        assert violation is not None and violation.rule == "cardinality"

    def test_unmapped_with_reason_is_ok(self):
        record = _record(
            category=C.UNMAPPED,
            targets=(),
            unmapped_reason=UnmappedReason.INJURY,
            evidence=(EvidenceAtom(EvidenceKind.EXCLUSION_REASON, "Injury"),),
        )
        assert validate_record(record) is None

    def test_evidence_delimiter(self):
        bad = _record(evidence=(EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "a|b"),))
        violation = validate_record(bad)
        assert violation is not None
        assert violation.rule == "evidence delimiter"
        assert violation.field_path == "evidence[0].payload"

    def test_unmapped_without_reason(self):
        bad = _record(category=C.UNMAPPED, targets=())
        assert validate_record(bad).rule == "unmapped consistency"

    def test_mapped_with_reason(self):
        bad = _record(unmapped_reason=UnmappedReason.INJURY)
        assert validate_record(bad).rule == "unmapped consistency"

    def test_one_to_many_logic_must_cover_targets(self):
        bad = _record(
            category=C.AUTO_ONE_TO_MANY_CONCEPT,
            targets=("HP:0000001", "HP:0000002", "HP:0000003"),
            logic="AND(0,1)",
        )
        assert validate_record(bad).rule == "logic coverage"

    def test_one_to_many_valid(self):
        good = _record(
            category=C.AUTO_ONE_TO_MANY_CONCEPT,
            targets=("HP:0000001", "HP:0000002"),
            logic="AND(0,1)",
        )
        assert validate_record(good) is None

    def test_duplicate_reference_rejected(self):
        bad = _record(
            category=C.AUTO_ONE_TO_MANY_CONCEPT,
            targets=("HP:0000001", "HP:0000002"),
            logic="AND(0,0)",
        )
        assert validate_record(bad).rule == "logic coverage"

    def test_logic_syntax(self):
        bad = _record(logic="AND(")
        assert validate_record(bad).rule == "logic syntax"

    def test_negated_single_target_allowed(self):
        good = _record(logic="NOT(0)")
        assert validate_record(good) is None

    def test_score_only_on_cosine(self):
        assert validate_record(_record(score=0.5)).rule == "score presence"
        cosine = _record(
            category=C.COSINE_ONE_TO_ONE_CONCEPT,
            score=0.66,
            evidence=(EvidenceAtom(EvidenceKind.COSINE_SCORE, "0.66"),),
        )
        assert validate_record(cosine) is None
        assert validate_record(_record(category=C.COSINE_ONE_TO_ONE_CONCEPT)).rule == "score presence"

    def test_empty_evidence(self):
        assert validate_record(_record(evidence=())).rule == "evidence"


class TestEvidenceOrdering:
    def test_xref_before_strings(self):
        atoms = [
            EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "overjet"),
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:70305005"),
        ]
        ordered = canonical_evidence(atoms)
        assert [a.kind for a in ordered] == [EvidenceKind.XREF_MATCH, EvidenceKind.SYNONYM_MATCH]

    def test_dedup_and_payload_tiebreak(self):
        atoms = [
            EvidenceAtom(EvidenceKind.CUI_MATCH, "C2"),
            EvidenceAtom(EvidenceKind.CUI_MATCH, "C1"),
            EvidenceAtom(EvidenceKind.CUI_MATCH, "C1"),
        ]
        assert [a.payload for a in canonical_evidence(atoms)] == ["C1", "C2"]


class TestCodeRef:
    def test_renders_with_colon(self):
        assert str(CodeRef("SNOMED", "70305005")) == "SNOMED:70305005"

    @pytest.mark.parametrize("prefix", ["", "SNO MED", "SNO:MED", "SNO|MED"])
    def test_bad_prefix(self, prefix):
        with pytest.raises(ValueError):
            CodeRef(prefix, "1")

    def test_empty_code(self):
        with pytest.raises(ValueError):
            CodeRef("SNOMED", "")

    @settings(derandomize=True, max_examples=500)
    @given(st.one_of(st.text(alphabet="AZaz09_-:| \t\r\n\v\f\x1c\u00a0\u2028", max_size=8), st.text(max_size=8)))
    def test_prefix_check_agrees_with_a_per_character_scan(self, prefix):
        forbidden = set(":|") | set(" \t\r\n\v\f")
        expected = bool(prefix) and not any(c in forbidden for c in prefix)
        assert is_code_prefix(prefix) == expected


class TestSlottedTypes:
    """The per-row types carry no ``__dict__``: one is made per concept, class and code."""

    @pytest.mark.parametrize(
        "value",
        [
            CodeRef("SNOMED", "1"),
            ClinicalConcept(1, CodeRef("SNOMED", "1"), "x", (), Domain.CONDITION, True),
            OntologyClass(curie="HP:0000001", ontology="HP", label="x"),
        ],
        ids=["CodeRef", "ClinicalConcept", "OntologyClass"],
    )
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")


class TestOntologyClass:
    def test_prefix_must_match_ontology(self):
        with pytest.raises(ValueError):
            OntologyClass(curie="HP:0000001", ontology="MONDO", label="x")

    def test_malformed_curie(self):
        with pytest.raises(ValueError):
            OntologyClass(curie="no-colon", ontology="HP", label="x")

    def test_case_insensitive_prefix(self):
        cls = OntologyClass(curie="NCBITaxon:9606", ontology="NCBITAXON", label="human")
        assert cls.ontology == "NCBITAXON"


