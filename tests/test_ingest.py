"""Parser contracts: schemas, error codes with line numbers, round-trips,
and the streaming-memory bound for the big pipe-delimited tables."""

import json
import tracemalloc

import pytest

from termbridge.core import CodeRef, Domain, SynonymKind
from termbridge.errors import ParseError
from termbridge.ingest import (
    CONCEPT_HEADER,
    load_concepts,
    load_curation,
    load_ontology_dump,
    load_prevalence,
    load_umls,
)
from termbridge.lexical import NormalizationDictionary

HEADER = "\t".join(CONCEPT_HEADER)


def serialize_concepts(concepts) -> str:
    """Canonical TSV rendering (sorted by concept_id); inverse of load_concepts
    minus the ancestor join, which lives in its own file."""
    lines = [HEADER]
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


def serialize_ontology(classes) -> str:
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


def _dict():
    return NormalizationDictionary([("SNOMEDCT_US", "SNOMED"), ("UMLS", "UMLS")])


class TestLoadConcepts:
    def test_example_row(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n22945\tSNOMED\t70305005\tHorizontal overbite\toverjet\tCONDITION\t1\t12\n"
        )
        load = load_concepts(path)
        concept = load.concepts[22945]
        assert concept.synonyms == ("overjet",)
        assert concept.code == CodeRef("SNOMED", "70305005")
        assert concept.domain is Domain.CONDITION
        assert concept.used_in_practice and concept.record_count == 12

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(HEADER + "\n")
        assert load_concepts(path).concepts == {}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.tsv"
        row = "1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n"
        path.write_text(HEADER + "\n" + row + row)
        with pytest.raises(ParseError) as err:
            load_concepts(path)
        assert err.value.code == "DUPLICATE_ID"
        assert err.value.line == 3

    def test_missing_column(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("concept_id\tlabel\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path)
        assert err.value.code == "MISSING_COLUMN"
        assert err.value.line == 1

    def test_malformed_row_has_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER
            + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tSNOMED\ty\tB\t\tBAD_DOMAIN\t1\t3\n"
        )
        with pytest.raises(ParseError) as err:
            load_concepts(path)
        assert err.value.code == "MALFORMED_ROW"
        assert err.value.line == 3

    def test_domain_filter(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER
            + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tRXNORM\ty\tB\t\tDRUG\t1\t3\n"
        )
        load = load_concepts(path, domain=Domain.DRUG)
        assert set(load.concepts) == {2}

    def test_ancestors_joined_and_dangling_counted(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tSNOMED\ty\tB\t\tCONDITION\t1\t3\n"
        )
        anc = tmp_path / "a.tsv"
        anc.write_text("concept_id\tancestor_concept_id\n1\t2\n1\t999\n")
        load = load_concepts(path, ancestors_path=anc)
        assert load.concepts[1].ancestors == (2,)
        assert load.dangling_ancestors == 1

    def test_self_loop_ancestor_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n")
        anc = tmp_path / "a.tsv"
        anc.write_text("concept_id\tancestor_concept_id\n1\t1\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path, ancestors_path=anc)
        assert err.value.code == "MALFORMED_ROW"
        assert err.value.line == 2

    def test_zero_count_used_concept_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t0\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path)
        assert err.value.code == "MALFORMED_ROW"

    def test_round_trip(self, tmp_path):
        text = (
            HEADER
            + "\n1\tSNOMED\tx\tA label\tsyn1|syn2\tCONDITION\t1\t3"
            + "\n2\tSNOMED\ty\tB label\t\tCONDITION\t0\t0\n"
        )
        path = tmp_path / "c.tsv"
        path.write_text(text)
        assert serialize_concepts(load_concepts(path).concepts) == text


class TestLoadOntologyDump:
    def test_xrefs_normalized(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_text(
            json.dumps(
                {
                    "curie": "HP:0011095",
                    "ontology": "HP",
                    "label": "Overjet",
                    "xrefs": ["SNOMEDCT_US:70305005", "UMLS:C0596028"],
                }
            )
            + "\n"
        )
        classes = load_ontology_dump(path, _dict())
        assert classes["HP:0011095"].xrefs == (
            CodeRef("SNOMED", "70305005"),
            CodeRef("UMLS", "C0596028"),
        )

    def test_three_line_fixture_matches_hand_parse(self, tmp_path):
        rows = [
            {"curie": "HP:0000001", "ontology": "HP", "label": "All"},
            {
                "curie": "HP:0000002",
                "ontology": "HP",
                "label": "Second",
                "synonyms": [{"text": "2nd", "kind": "RELATED"}],
            },
            {"curie": "MONDO:0000001", "ontology": "MONDO", "label": "disease", "deprecated": True},
        ]
        path = tmp_path / "o.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        classes = load_ontology_dump(path, _dict())
        assert set(classes) == {"HP:0000001", "HP:0000002", "MONDO:0000001"}
        assert classes["HP:0000002"].synonyms[0].kind is SynonymKind.RELATED
        assert classes["MONDO:0000001"].deprecated is True

    def test_bad_curie(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_text(json.dumps({"curie": "HP:1", "ontology": "MONDO", "label": "x"}) + "\n")
        with pytest.raises(ParseError) as err:
            load_ontology_dump(path, _dict())
        assert err.value.code == "BAD_CURIE"

    def test_duplicate_curie(self, tmp_path):
        line = json.dumps({"curie": "HP:1", "ontology": "HP", "label": "x"})
        path = tmp_path / "o.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            load_ontology_dump(path, _dict())
        assert err.value.code == "DUPLICATE_CURIE"
        assert err.value.line == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ParseError) as err:
            load_ontology_dump(path, _dict())
        assert err.value.code == "MALFORMED_LINE"
        assert err.value.line == 1

    def test_round_trip(self, tmp_path):
        rows = [
            {
                "curie": "HP:0000002",
                "definition": "A definition.",
                "deprecated": False,
                "label": "Second",
                "ontology": "HP",
                "synonyms": [{"kind": "EXACT", "text": "2nd"}],
                "xrefs": ["UMLS:C0000002"],
            }
        ]
        path = tmp_path / "o.jsonl"
        text = "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
        path.write_text(text)
        assert serialize_ontology(load_ontology_dump(path, _dict())) == text


def _mrconso_line(cui, sab, code, text):
    fields = [""] * 18
    fields[0], fields[11], fields[13], fields[14] = cui, sab, code, text
    return "|".join(fields) + "|"


class TestLoadUmls:
    def test_example_projection(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(_mrconso_line("C0596028", "SNOMEDCT_US", "70305005", "Overjet") + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("C0596028|T033|A1.2|Finding|AT001|256|\n")
        tables = load_umls(conso, sty)
        assert tables.atoms_by_code[("SNOMEDCT_US", "70305005")] == ("C0596028",)
        assert tables.sty_by_cui["C0596028"] == ("Finding",)

    def test_five_atom_fixture_matches_nested_loop_oracle(self, tmp_path):
        raw = [
            ("C0000001", "SNOMEDCT_US", "111", "one"),
            ("C0000002", "SNOMEDCT_US", "111", "one prime"),
            ("C0000002", "RXNORM", "222", "two"),
            ("C0000003", "LNC", "333-1", "three"),
            ("C0000003", "LNC", "333-1", "three"),
        ]
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("\n".join(_mrconso_line(*r) for r in raw) + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        tables = load_umls(conso, sty)

        oracle = {}
        for cui, sab, code, _ in raw:
            oracle.setdefault((sab, code), set()).add(cui)
        assert set(tables.atoms_by_code) == set(oracle)
        for key, group in oracle.items():
            assert tables.atoms_by_code[key] == tuple(sorted(group))

    def test_short_row(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("C0000001|ENG|only|four|fields|\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty)
        assert err.value.code == "SHORT_ROW"
        assert err.value.line == 1

    def test_bad_cui(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(_mrconso_line("X123", "SAB", "1", "t") + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty)
        assert err.value.code == "BAD_CUI"

    def test_mrsty_short_row(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("C0000001|T033|\n")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty)
        assert err.value.code == "SHORT_ROW"

    def test_streaming_memory_bound(self, tmp_path):
        # 60k rows over 40 retained keys: peak allocation must track the
        # retained index, not the file size.
        conso = tmp_path / "MRCONSO.RRF"
        with open(conso, "w") as fh:
            for i in range(60_000):
                fh.write(
                    _mrconso_line(f"C{i % 40:07d}", "SNOMEDCT_US", str(i % 40), "x" * 80) + "\n"
                )
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        file_size = conso.stat().st_size
        assert file_size > 5 * 1024 * 1024
        tracemalloc.start()
        load_umls(conso, sty)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < file_size / 4


class TestLoadPrevalence:
    def test_floor_and_count(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text(
            "site_id\tconcept_id\trecord_count\n"
            "siteA\t123\t40\n"
            "siteA\t124\t100\n"
            "siteB\t125\t544618\n"
        )
        load = load_prevalence(path)
        counts = {(r.site_id, r.concept_id): r.record_count for r in load.rows}
        assert counts[("siteA", 123)] == 100
        assert counts[("siteA", 124)] == 100
        assert counts[("siteB", 125)] == 544618
        assert load.floored == 1

    def test_malformed(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("site_id\tconcept_id\trecord_count\nsiteA\tx\t40\n")
        with pytest.raises(ParseError) as err:
            load_prevalence(path)
        assert err.value.code == "MALFORMED_ROW"


CURATION_HEADER = "concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason"


class TestLoadCuration:
    def test_one_to_one_row(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(
            CURATION_HEADER + "\n4070954\tMONDO\t\tMONDO:0008533\tPMID:21998774\t\n"
        )
        load = load_curation(path, {"MONDO", "HP"})
        row = load.rows[0]
        assert row.targets == ("MONDO:0008533",)
        assert row.logic == ""
        assert row.evidence == "PMID:21998774"

    def test_one_to_many_row_default_logic(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(
            CURATION_HEADER + "\n439140\tHP\t\tHP:0003623|HP:0001901\tcited\t\n"
        )
        row = load_curation(path, {"HP"}).rows[0]
        assert row.targets == ("HP:0003623", "HP:0001901")
        assert row.logic == "AND(0,1)"

    def test_both_targets_and_reason(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tHP\t\tHP:1\tx\tINJURY\n")
        with pytest.raises(ParseError) as err:
            load_curation(path, {"HP"})
        assert err.value.code == "BOTH_TARGETS_AND_REASON"

    def test_unknown_reason(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tHP\t\t\tx\tNO_SUCH_REASON\n")
        with pytest.raises(ParseError) as err:
            load_curation(path, {"HP"})
        assert err.value.code == "UNKNOWN_REASON"

    def test_reason_display_form_accepted(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tHP\t\t\tx\tNot Mapped Test Type\n")
        row = load_curation(path, {"HP"}).rows[0]
        assert row.unmapped_reason.value == "NOT_MAPPED_TEST_TYPE"

    def test_unknown_ontology(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tZZ\t\tZZ:1\tx\t\n")
        with pytest.raises(ParseError) as err:
            load_curation(path, {"HP"})
        assert err.value.code == "UNKNOWN_ONTOLOGY"

    def test_neither_targets_nor_reason(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tHP\t\t\tx\t\n")
        with pytest.raises(ParseError) as err:
            load_curation(path, {"HP"})
        assert err.value.code == "MALFORMED_ROW"

    def test_unknown_targets_reported(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tHP\t\tHP:999\tx\t\n")
        load = load_curation(path, {"HP"}, known_curies={"HP:1"})
        assert load.unknown_targets == ("HP:999",)
