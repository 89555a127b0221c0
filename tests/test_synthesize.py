"""Record fusion: routing, precedence, measurement expansion, evidence text."""

import pytest

from termbridge.core import (
    CodeRef,
    Domain,
    EvidenceAtom,
    EvidenceKind,
    MappingCategory,
    MappingLevel,
    MeasurementOutcome,
    MeasurementScale,
    ResultAssignment,
    ResultType,
    UnmappedReason,
    canonical_evidence,
    validate_record,
)
from termbridge.errors import DataError, ParseError
from termbridge.ingest import (
    MAPPING_COLUMNS,
    CurationRow,
    RoutingPolicy,
    ScaleRow,
    load_routing_policy,
    mapping_line,
)
from termbridge.similarity import ScoredPair
from termbridge.synthesize import (
    RouteDecision,
    derive_result_type,
    expand_measurements,
    route,
    synthesize,
)

from test_align import concept

C = MappingCategory
ONTOLOGIES = ("HP", "MONDO")


def _concept(cid=1, styes=(), used=True, domain=Domain.CONDITION, **kw):
    c = concept(cid, CodeRef("SNOMED", str(cid)), f"label {cid}", used=used, **kw)
    object.__setattr__(c, "semantic_types", tuple(styes))
    object.__setattr__(c, "domain", domain)
    return c


def _hits(*curies, atoms=(EvidenceAtom(EvidenceKind.LABEL_MATCH, "x"),)):
    """Ontology key -> CURIE -> atoms, the shape the exact aligners return."""
    hits = {}
    for curie in curies:
        hits.setdefault(curie.split(":")[0], {})[curie] = set(atoms)
    return hits


def _canonical(records):
    """``records``, each checked to be built with canonical evidence, which
    a mapping row joins as it stands."""
    for record in records:
        assert record.evidence == canonical_evidence(record.evidence), record
    return records


def _expand(*args, **kwargs):
    (records,) = expand_measurements(*args, **kwargs)
    return _canonical(records)


def _policy(**kw):
    base = dict(allow={}, exclude={}, default_ontologies=frozenset(ONTOLOGIES))
    base.update(kw)
    return RoutingPolicy(**base)


class TestRoute:
    def test_disease_routes_to_mondo_only(self):
        policy = _policy(allow={"Disease or Syndrome": frozenset({"MONDO"})})
        decision = route(_concept(styes=["Disease or Syndrome"]), policy)
        assert decision.allowed == {"MONDO"} and decision.exclusion is None

    def test_exclusion_wins(self):
        policy = _policy(
            allow={"Injury or Poisoning": frozenset({"HP"})},
            exclude={"Injury or Poisoning": UnmappedReason.INJURY},
        )
        decision = route(_concept(styes=["Injury or Poisoning"]), policy)
        assert decision.allowed == frozenset()
        assert decision.exclusion is UnmappedReason.INJURY

    def test_no_semantic_types_default(self):
        decision = route(_concept(), _policy())
        assert decision.allowed == frozenset(ONTOLOGIES)

    def test_multiple_types_union(self):
        policy = _policy(
            allow={
                "Finding": frozenset({"HP"}),
                "Disease or Syndrome": frozenset({"MONDO"}),
            }
        )
        decision = route(_concept(styes=["Finding", "Disease or Syndrome"]), policy)
        assert decision.allowed == {"HP", "MONDO"}

    def test_unruled_types_do_not_widen(self):
        policy = _policy(allow={"Finding": frozenset({"HP"})})
        decision = route(_concept(styes=["Finding", "Neoplastic Process"]), policy)
        assert decision.allowed == {"HP"}

    def test_allow_intersected_with_configured(self):
        policy = _policy(allow={"Finding": frozenset({"HP", "CHEBI"})})
        decision = route(_concept(styes=["Finding"]), policy)
        assert decision.allowed == {"HP"}


class TestLoadRoutingPolicy:
    def test_parse(self, tmp_path):
        path = tmp_path / "routing.tsv"
        path.write_text(
            "semantic_type\taction\tvalue\n"
            "Finding\tALLOW\tHP\n"
            "Disease or Syndrome\tALLOW\tMONDO|HP\n"
            "Injury or Poisoning\tEXCLUDE\tINJURY\n"
        )
        policy = load_routing_policy(path, ONTOLOGIES)
        assert policy.allow["Disease or Syndrome"] == {"MONDO", "HP"}
        assert policy.exclude["Injury or Poisoning"] is UnmappedReason.INJURY

    def test_unknown_reason(self, tmp_path):
        path = tmp_path / "routing.tsv"
        path.write_text("semantic_type\taction\tvalue\nX\tEXCLUDE\tBOGUS\n")
        with pytest.raises(ParseError) as err:
            load_routing_policy(path, ONTOLOGIES)
        assert err.value.code == "UNKNOWN_REASON"

    def test_conflicting_exclusions(self, tmp_path):
        path = tmp_path / "routing.tsv"
        path.write_text(
            "semantic_type\taction\tvalue\nX\tEXCLUDE\tINJURY\nX\tEXCLUDE\tFINDING\n"
        )
        with pytest.raises(ParseError) as err:
            load_routing_policy(path, ONTOLOGIES)
        assert err.value.code == "CONFLICTING_RULE"


def _synth(concept_obj, exact_c=None, exact_a=None, cosine=None, curation=None, decision=None):
    return _canonical(
        synthesize(
            concept_obj,
            exact_c or {},
            exact_a or {},
            cosine or {},
            curation or {},
            decision or RouteDecision(allowed=frozenset(ONTOLOGIES)),
            ONTOLOGIES,
        )
    )


def _by_ontology(records):
    return {r.ontology: r for r in records}


class TestSynthesize:
    def test_single_exact_is_auto_one_to_one(self):
        c = _concept(22945)
        records = _by_ontology(_synth(c, exact_c=_hits("HP:0011095")))
        hp = records["HP"]
        assert hp.category is C.AUTO_ONE_TO_ONE_CONCEPT
        assert hp.targets == ("HP:0011095",)
        assert hp.logic == ""

    def test_two_exact_is_one_to_many_and(self):
        c = _concept(78854)
        records = _by_ontology(
            _synth(c, exact_c=_hits("MONDO:0008157", "MONDO:0001414"))
        )
        mondo = records["MONDO"]
        assert mondo.category is C.AUTO_ONE_TO_MANY_CONCEPT
        assert mondo.targets == ("MONDO:0001414", "MONDO:0008157")  # sorted
        assert mondo.logic == "AND(0,1)"

    def test_ancestor_candidates(self):
        c = _concept(74185)
        hits = {
            "MONDO": {
                "MONDO:0044989": {
                    EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "disorder of foot"),
                    EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:118932009"),
                },
                "MONDO:0005315": {
                    EvidenceAtom(EvidenceKind.LABEL_MATCH, "fracture of bone"),
                    EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:125605004"),
                },
            }
        }
        mondo = _by_ontology(_synth(c, exact_a=hits))["MONDO"]
        assert mondo.category is C.AUTO_ONE_TO_MANY_ANCESTOR
        assert mondo.category.level is MappingLevel.ANCESTOR
        assert mondo.targets == ("MONDO:0005315", "MONDO:0044989")
        assert mondo.logic == "AND(0,1)"
        assert mondo.evidence == (
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:118932009"),
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:125605004"),
            EvidenceAtom(EvidenceKind.LABEL_MATCH, "fracture of bone"),
            EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "disorder of foot"),
        )

    def test_cosine_fallback(self):
        c = _concept(4147326)
        pair = ScoredPair("HP:0033050", 0.66)
        hp = _by_ontology(_synth(c, cosine={"HP": pair}))["HP"]
        assert hp.category is C.COSINE_ONE_TO_ONE_CONCEPT
        assert hp.score == 0.66
        assert hp.evidence == (EvidenceAtom(EvidenceKind.COSINE_SCORE, "0.6600"),)

    def test_exact_beats_cosine(self):
        c = _concept(1)
        pair = ScoredPair("HP:0000002", 0.9)
        hp = _by_ontology(_synth(c, exact_c=_hits("HP:0000001"), cosine={"HP": pair}))["HP"]
        assert hp.category is C.AUTO_ONE_TO_ONE_CONCEPT
        assert hp.score is None

    def test_ancestor_beats_cosine(self):
        c = _concept(1)
        pair = ScoredPair("HP:0000002", 0.9)
        hp = _by_ontology(_synth(c, exact_a=_hits("HP:0000001"), cosine={"HP": pair}))["HP"]
        assert hp.category is C.AUTO_ONE_TO_ONE_ANCESTOR

    def test_concept_level_beats_ancestor(self):
        c = _concept(1)
        hp = _by_ontology(
            _synth(
                c,
                exact_c=_hits("HP:0000001"),
                exact_a=_hits("HP:0000009"),
            )
        )["HP"]
        assert hp.category is C.AUTO_ONE_TO_ONE_CONCEPT
        assert hp.targets == ("HP:0000001",)

    def test_manual_wins_over_exact(self):
        c = _concept(4070954)
        row = CurationRow(("MONDO:0008533",), "", "PMID:21998774")
        mondo = _by_ontology(
            _synth(c, exact_c=_hits("MONDO:0000001"), curation={"MONDO": row})
        )["MONDO"]
        assert mondo.category is C.MANUAL_ONE_TO_ONE_CONCEPT
        assert mondo.targets == ("MONDO:0008533",)
        assert mondo.evidence == (EvidenceAtom(EvidenceKind.MANUAL_SOURCE, "PMID:21998774"),)

    def test_manual_one_to_many_keeps_row_order(self):
        c = _concept(439140)
        row = CurationRow(("HP:0003623", "HP:0001901"), "AND(0,1)", "cited")
        hp = _by_ontology(_synth(c, curation={"HP": row}))["HP"]
        assert hp.category is C.MANUAL_ONE_TO_MANY_CONCEPT
        assert hp.targets == ("HP:0003623", "HP:0001901")

    def test_curation_unmapped_reason(self):
        c = _concept(5)
        row = CurationRow((), "", "reviewed", unmapped_reason=UnmappedReason.CARRIER_STATUS)
        hp = _by_ontology(_synth(c, curation={"HP": row}))["HP"]
        assert hp.category is C.UNMAPPED
        assert hp.unmapped_reason is UnmappedReason.CARRIER_STATUS

    def test_unmapped_reason_ladder(self):
        used = _by_ontology(_synth(_concept(1, used=True)))["HP"]
        assert used.unmapped_reason is UnmappedReason.NONE_FOUND
        unused = _by_ontology(_synth(_concept(2, used=False)))["HP"]
        assert unused.unmapped_reason is UnmappedReason.NOT_YET_MAPPED
        assert unused.evidence == (
            EvidenceAtom(EvidenceKind.EXCLUSION_REASON, "NOT YET MAPPED"),
        )
        excluded = _by_ontology(
            _synth(
                _concept(3),
                decision=RouteDecision(allowed=frozenset(), exclusion=UnmappedReason.INJURY),
            )
        )["HP"]
        assert excluded.unmapped_reason is UnmappedReason.INJURY

    def test_one_record_per_ontology(self):
        records = _synth(_concept(1))
        assert [r.ontology for r in records] == ["HP", "MONDO"]

    def test_every_record_validates(self):
        c = _concept(1)
        pair = ScoredPair("MONDO:0000008", 0.5)
        rows = {"HP": CurationRow(("HP:1", "HP:2"), "AND(0,1)", "x")}
        for record in _synth(c, cosine={"MONDO": pair}, curation=rows):
            assert validate_record(record) is None


def _scale(scale, kind="NONE"):
    return ScaleRow(scale, kind)


NLH_ASSIGNMENTS = [
    ResultAssignment(MeasurementOutcome.HIGH, "HP:0003154"),
    ResultAssignment(MeasurementOutcome.LOW, "HP:0002920"),
    ResultAssignment(MeasurementOutcome.NORMAL, "HP:0011043"),
]


class TestDeriveResultType:
    def test_numeric_range_wins(self):
        c = _concept(1, domain=Domain.MEASUREMENT)
        row = _scale(MeasurementScale.ORDINAL, "NUMERIC")
        assert derive_result_type(c, row) is ResultType.NORMAL_LOW_HIGH

    def test_pos_neg_range(self):
        c = _concept(1, domain=Domain.MEASUREMENT)
        assert (
            derive_result_type(c, _scale(MeasurementScale.QUANTITATIVE, "POS_NEG"))
            is ResultType.POSITIVE_NEGATIVE
        )

    def test_ordinal_scale(self):
        c = _concept(1, domain=Domain.MEASUREMENT)
        assert derive_result_type(c, _scale(MeasurementScale.ORDINAL)) is ResultType.POSITIVE_NEGATIVE

    def test_presence_synonym(self):
        c = _concept(1, domain=Domain.MEASUREMENT, synonyms=["Presence of thing"])
        assert derive_result_type(c, _scale(MeasurementScale.NOMINAL)) is ResultType.POSITIVE_NEGATIVE

    def test_screen_synonym(self):
        c = _concept(1, domain=Domain.MEASUREMENT, synonyms=["Drug screen panel"])
        assert derive_result_type(c, None) is ResultType.POSITIVE_NEGATIVE

    def test_presence_and_screen_read_as_written(self):
        # The words are compared raw: no suffix rule turns these into the two words.
        c = _concept(1, domain=Domain.MEASUREMENT, synonyms=["Drug screening", "Presences noted"])
        assert derive_result_type(c, None) is ResultType.UNKNOWN_RESULT_TYPE

    def test_quantitative_scale(self):
        c = _concept(1, domain=Domain.MEASUREMENT)
        assert (
            derive_result_type(c, _scale(MeasurementScale.QUANTITATIVE))
            is ResultType.NORMAL_LOW_HIGH
        )

    def test_everything_else_unknown(self):
        c = _concept(1, domain=Domain.MEASUREMENT)
        assert (
            derive_result_type(c, _scale(MeasurementScale.NARRATIVE))
            is ResultType.UNKNOWN_RESULT_TYPE
        )
        assert derive_result_type(c, None) is ResultType.UNKNOWN_RESULT_TYPE


class TestExpandMeasurements:
    def test_normal_low_high_worked_example(self):
        c = _concept(3000001, domain=Domain.MEASUREMENT)
        records = _expand(
            c, _scale(MeasurementScale.QUANTITATIVE, "NUMERIC"),
            NLH_ASSIGNMENTS, [], ("HP",),
        )
        by_outcome = {r.outcome: r for r in records if r.outcome}
        assert by_outcome[MeasurementOutcome.HIGH].targets == ("HP:0003154",)
        assert by_outcome[MeasurementOutcome.HIGH].logic == ""
        assert by_outcome[MeasurementOutcome.LOW].targets == ("HP:0002920",)
        assert by_outcome[MeasurementOutcome.NORMAL].targets == ("HP:0011043",)
        assert by_outcome[MeasurementOutcome.NORMAL].logic == "NOT(0)"
        assert [r.outcome for r in records] == [
            MeasurementOutcome.LOW, MeasurementOutcome.HIGH, MeasurementOutcome.NORMAL
        ]

    def test_positive_negative_derives_counterpart(self):
        c = _concept(3000002, domain=Domain.MEASUREMENT)
        records = _expand(
            c, _scale(MeasurementScale.ORDINAL),
            [ResultAssignment(MeasurementOutcome.POSITIVE, "HP:0500112")], [], ("HP",),
        )
        by_outcome = {r.outcome: r for r in records}
        assert by_outcome[MeasurementOutcome.POSITIVE].targets == ("HP:0500112",)
        assert by_outcome[MeasurementOutcome.POSITIVE].logic == ""
        assert by_outcome[MeasurementOutcome.NEGATIVE].targets == ("HP:0500112",)
        assert by_outcome[MeasurementOutcome.NEGATIVE].logic == "NOT(0)"
        assert {r.outcome for r in records} == {
            MeasurementOutcome.POSITIVE,
            MeasurementOutcome.NEGATIVE,
        }

    def test_unknown_type_unmaps_every_ontology(self):
        c = _concept(3000003, domain=Domain.MEASUREMENT)
        records = _expand(
            c, _scale(MeasurementScale.NARRATIVE), [], [], ("HP", "UBERON"),
        )
        assert {(r.ontology, r.unmapped_reason) for r in records} == {
            ("HP", UnmappedReason.NOT_MAPPED_TEST_TYPE),
            ("UBERON", UnmappedReason.NOT_MAPPED_TEST_TYPE),
        }

    def test_unspecified_sample_flag(self):
        c = _concept(7, domain=Domain.MEASUREMENT)
        records = _expand(
            c, _scale(MeasurementScale.QUANTITATIVE), NLH_ASSIGNMENTS, [], ("HP", "CL"),
            unspecified_sample=True,
        )
        assert {(r.ontology, r.unmapped_reason) for r in records} == {
            ("HP", UnmappedReason.UNSPECIFIED_SAMPLE),
            ("CL", UnmappedReason.UNSPECIFIED_SAMPLE),
        }
        assert records[0].evidence == (
            EvidenceAtom(EvidenceKind.EXCLUSION_REASON, "Unspecified Sample"),
        )

    def test_aux_targets_once_per_concept(self):
        c = _concept(8, domain=Domain.MEASUREMENT)
        records = _expand(
            c, _scale(MeasurementScale.QUANTITATIVE), NLH_ASSIGNMENTS,
            ["UBERON:0001969", "CHEBI:1", "CHEBI:2"],
            ("HP", "UBERON", "CHEBI"),
        )
        aux = {r.ontology: r for r in records if r.outcome is None}
        assert aux["UBERON"].targets == ("UBERON:0001969",)
        assert aux["UBERON"].category is C.MANUAL_ONE_TO_ONE_CONCEPT
        assert aux["CHEBI"].targets == ("CHEBI:1", "CHEBI:2")
        assert aux["CHEBI"].category is C.MANUAL_ONE_TO_MANY_CONCEPT
        assert aux["CHEBI"].logic == "AND(0,1)"

    def test_missing_target_for_result(self):
        c = _concept(9, domain=Domain.MEASUREMENT)
        with pytest.raises(DataError) as err:
            expand_measurements(c, _scale(MeasurementScale.QUANTITATIVE), [], [], ("HP",))
        assert err.value.code == "MISSING_TARGET_FOR_RESULT"

    def test_outcome_mismatch(self):
        c = _concept(10, domain=Domain.MEASUREMENT)
        with pytest.raises(DataError) as err:
            expand_measurements(
                c, _scale(MeasurementScale.QUANTITATIVE),
                [ResultAssignment(MeasurementOutcome.POSITIVE, "HP:1")], [], ("HP",),
            )
        assert err.value.code == "OUTCOME_MISMATCH"

    @pytest.mark.parametrize(
        "assignments, aux",
        [([ResultAssignment(MeasurementOutcome.HIGH, "HP:1")], []), ([], ["UBERON:0001969"])],
        ids=["result_row", "auxiliary_row"],
    )
    def test_row_of_unknown_result_type_is_outcome_mismatch(self, assignments, aux):
        c = _concept(12, domain=Domain.MEASUREMENT)
        with pytest.raises(DataError) as err:
            expand_measurements(c, _scale(MeasurementScale.NARRATIVE), assignments, aux, ("HP", "UBERON"))
        assert err.value.code == "OUTCOME_MISMATCH"
        assert err.value.message.startswith("concept 12: ")

    def test_expanded_records_validate(self):
        c = _concept(11, domain=Domain.MEASUREMENT)
        records = _expand(
            c, _scale(MeasurementScale.QUANTITATIVE), NLH_ASSIGNMENTS,
            ["UBERON:0001969"], ("HP", "UBERON", "CL"),
        )
        for record in records:
            assert validate_record(record) is None

    def test_records_come_in_row_order(self):
        # Grouped by ontology as run_map groups them, the claimed records
        # leave synthesize in mappings.tsv order: ontology, then the record
        # of no outcome before the result rows in outcome order.
        c = _concept(12, domain=Domain.MEASUREMENT)
        claimed = {}
        for record in expand_measurements(
            c, _scale(MeasurementScale.QUANTITATIVE), NLH_ASSIGNMENTS,
            ["HP:0000118", "CHEBI:1"], ("HP", "UBERON"),
        )[0]:
            claimed.setdefault(record.ontology, []).append(record)
        records = synthesize(
            c, {}, {}, {}, {}, RouteDecision(allowed=frozenset({"HP", "UBERON"})), ("HP", "UBERON"), claimed
        )
        O = MeasurementOutcome
        assert [(r.ontology, r.outcome) for r in records] == [
            ("CHEBI", None), ("HP", None), ("HP", O.LOW), ("HP", O.HIGH), ("HP", O.NORMAL), ("UBERON", None),
        ]
        assert records[1].targets == ("HP:0000118",) and records[-1].category is C.UNMAPPED


def parse_evidence(text: str) -> tuple[EvidenceAtom, ...]:
    """Inverse of a mapping row's evidence column."""
    if not text:
        return ()
    atoms = []
    for part in text.split("|"):
        kind_raw, _, payload = part.partition(":")
        atoms.append(EvidenceAtom(EvidenceKind[kind_raw], payload))
    return tuple(atoms)


def _evidence_column(record) -> str:
    """The evidence column of ``record``'s row in mappings.tsv."""
    names = [column[0] for column in MAPPING_COLUMNS]
    return dict(zip(names, mapping_line(record, {}).split("\t")))["evidence"]


class TestRenderEvidence:
    """The evidence column of rows built from ``synthesize``'s records."""

    def test_canonical_order(self):
        atoms = (
            EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "overjet"),
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:70305005"),
        )
        hp = _by_ontology(_synth(_concept(1), exact_c=_hits("HP:1", atoms=atoms)))["HP"]
        assert _evidence_column(hp) == "XREF_MATCH:SNOMED:70305005|SYNONYM_MATCH:overjet"

    def test_not_yet_mapped_payload(self):
        hp = _by_ontology(_synth(_concept(1, used=False)))["HP"]
        assert _evidence_column(hp) == "EXCLUSION_REASON:NOT YET MAPPED"

    def test_round_trip(self):
        atoms = (
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:70305005"),
            EvidenceAtom(EvidenceKind.CUI_MATCH, "C0596028"),
            EvidenceAtom(EvidenceKind.SYNONYM_MATCH, "overjet"),
        )
        hp = _by_ontology(_synth(_concept(1), exact_a=_hits("HP:1", atoms=atoms[::-1])))["HP"]
        assert parse_evidence(_evidence_column(hp)) == atoms

    def test_payload_with_colon_survives(self):
        assert parse_evidence("XREF_MATCH:SNOMED:70305005") == (
            EvidenceAtom(EvidenceKind.XREF_MATCH, "SNOMED:70305005"),
        )
