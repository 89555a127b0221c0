"""Domain type invariants: category display, logic grammar, record validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termbridge.core import (
    ClinicalConcept,
    CodeRef,
    Domain,
    EvidenceAtom,
    EvidenceKind,
    MappingCategory,
    MappingLevel,
    MappingRecord,
    MeasurementOutcome,
    MeasurementResultSpec,
    MeasurementScale,
    OntologyClass,
    ResultAssignment,
    ResultType,
    UnmappedReason,
    canonical_evidence,
    is_code_prefix,
    parse_logic,
    render_category,
    validate_record,
)

C = MappingCategory
L = MappingLevel


DISPLAY_TABLE = {
    (C.AUTO_ONE_TO_ONE_CONCEPT, L.CONCEPT): "Automatic One-to-One Concept",
    (C.AUTO_ONE_TO_ONE_ANCESTOR, L.ANCESTOR): "Automatic One-to-One Ancestor",
    (C.AUTO_ONE_TO_MANY_CONCEPT, L.CONCEPT): "Automatic One-to-Many Concept",
    (C.AUTO_ONE_TO_MANY_ANCESTOR, L.ANCESTOR): "Automatic One-to-Many Ancestor",
    (C.COSINE_ONE_TO_ONE_CONCEPT, L.CONCEPT): "Cosine Similarity One-to-One Concept",
    (C.MANUAL_ONE_TO_ONE_CONCEPT, L.CONCEPT): "Manual One-to-One Concept",
    (C.MANUAL_ONE_TO_MANY_CONCEPT, L.CONCEPT): "Manual One-to-Many Concept",
    (C.UNMAPPED, L.NONE): "Unmapped",
}


class TestRenderCategory:
    @pytest.mark.parametrize("pair,expected", sorted(DISPLAY_TABLE.items(), key=lambda kv: kv[1]))
    def test_display_strings(self, pair, expected):
        assert render_category(*pair) == expected

    def test_bijection(self):
        values = [render_category(*pair) for pair in DISPLAY_TABLE]
        assert len(set(values)) == 8

    def test_pair_not_in_use_rejected(self):
        with pytest.raises(ValueError):
            render_category(C.AUTO_ONE_TO_ONE_CONCEPT, L.ANCESTOR)


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
        level=L.CONCEPT,
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
            level=L.NONE,
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
        bad = _record(category=C.UNMAPPED, level=L.NONE, targets=())
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

    def test_level_consistency(self):
        bad = _record(level=L.ANCESTOR)
        assert validate_record(bad).rule == "level"

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


class TestClinicalConcept:
    def _concept(self, **overrides):
        base = dict(
            concept_id=1,
            code=CodeRef("SNOMED", "123"),
            label="x",
            synonyms=(),
            domain=Domain.CONDITION,
            used_in_practice=True,
        )
        base.update(overrides)
        return ClinicalConcept(**base)

    def test_no_self_loop(self):
        with pytest.raises(ValueError):
            self._concept(ancestors=(1,))


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


class TestMeasurementResultSpec:
    def test_normal_must_be_negated(self):
        with pytest.raises(ValueError):
            MeasurementResultSpec(
                1,
                MeasurementScale.QUANTITATIVE,
                ResultType.NORMAL_LOW_HIGH,
                (ResultAssignment(MeasurementOutcome.NORMAL, "HP:0011043", False),),
            )

    def test_positive_negative_outcomes_only(self):
        with pytest.raises(ValueError):
            MeasurementResultSpec(
                1,
                MeasurementScale.ORDINAL,
                ResultType.POSITIVE_NEGATIVE,
                (ResultAssignment(MeasurementOutcome.HIGH, "HP:0003154", False),),
            )

    def test_duplicate_outcome(self):
        with pytest.raises(ValueError):
            MeasurementResultSpec(
                1,
                MeasurementScale.ORDINAL,
                ResultType.POSITIVE_NEGATIVE,
                (
                    ResultAssignment(MeasurementOutcome.POSITIVE, "HP:1", False),
                    ResultAssignment(MeasurementOutcome.POSITIVE, "HP:2", False),
                ),
            )

    def test_worked_triple(self):
        spec = MeasurementResultSpec(
            3000001,
            MeasurementScale.QUANTITATIVE,
            ResultType.NORMAL_LOW_HIGH,
            (
                ResultAssignment(MeasurementOutcome.LOW, "HP:0002920", False),
                ResultAssignment(MeasurementOutcome.HIGH, "HP:0003154", False),
                ResultAssignment(MeasurementOutcome.NORMAL, "HP:0011043", True),
            ),
        )
        assert len(spec.assignments) == 3
