"""Parser contracts: schemas, error codes with line numbers, round-trips,
the streaming-memory bound for the big pipe-delimited tables, and the
concept-first UMLS filter against a projection over every key."""

import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from termbridge.align import CuiBridge, enrich_concepts
from termbridge.core import ClinicalConcept, CodeRef, Domain
from termbridge.errors import ParseError
from termbridge.ingest import (
    CONCEPT_COLUMNS,
    header_line,
    is_cui,
    load_code_dictionary,
    load_cohort,
    load_concepts,
    load_curation,
    load_id_list,
    load_mappings,
    load_measurement_scales,
    load_measurement_targets,
    load_ontology_dump,
    load_patient_phenotypes,
    load_prevalence,
    load_routing_policy,
    load_stopwords,
    load_umls,
    load_weights,
)
from termbridge.lexical import NormalizationDictionary

HEADER = header_line(CONCEPT_COLUMNS)


def serialize_concepts(concepts, record_counts) -> str:
    """Canonical TSV rendering (sorted by concept_id); inverse of load_concepts
    minus the ancestor join, which lives in its own file.  record_count is
    validated but not kept, so ``record_counts`` supplies it by concept id."""
    lines = [HEADER]
    for concept_id in sorted(concepts):
        c = concepts[concept_id]
        lines.append(
            "\t".join(
                [
                    str(c.concept_id),
                    c.code.prefix,
                    c.code.code,
                    c.label,
                    "|".join(c.synonyms),
                    c.domain.value,
                    "1" if c.used_in_practice else "0",
                    str(record_counts[c.concept_id]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def serialize_ontology(classes) -> str:
    """Canonical JSONL rendering (sorted by CURIE, sorted keys); a synonym's
    kind is validated but not kept, so synonyms render without one."""
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
                    "synonyms": [{"text": s} for s in k.synonyms],
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
        load = load_concepts(path, _dict())
        concept = load.concepts[22945]
        assert concept.synonyms == ("overjet",)
        assert concept.code == CodeRef("SNOMED", "70305005")
        assert concept.domain is Domain.CONDITION
        assert concept.used_in_practice

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(HEADER + "\n")
        assert load_concepts(path, _dict()).concepts == {}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.tsv"
        row = "1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n"
        path.write_text(HEADER + "\n" + row + row)
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict())
        assert err.value.code == "DUPLICATE_ID"
        assert err.value.line == 3

    def test_missing_column(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("concept_id\tlabel\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict())
        assert err.value.code == "MISSING_COLUMN"
        assert err.value.line == 1

    def test_malformed_row_has_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER
            + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tSNOMED\ty\tB\t\tBAD_DOMAIN\t1\t3\n"
        )
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict())
        assert err.value.code == "MALFORMED_ROW"
        assert err.value.line == 3

    def test_domain_filter(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER
            + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tRXNORM\ty\tB\t\tDRUG\t1\t3\n"
        )
        load = load_concepts(path, _dict(), domain=Domain.DRUG)
        assert set(load.concepts) == {2}

    def test_ancestors_joined_and_dangling_counted(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tSNOMED\ty\tB\t\tCONDITION\t1\t3\n"
        )
        anc = tmp_path / "a.tsv"
        anc.write_text("concept_id\tancestor_concept_id\n1\t2\n1\t999\n")
        load = load_concepts(path, _dict(), ancestors_path=anc)
        assert load.ancestors == {1: (2,)}
        assert load.dangling_ancestors == 1

    def test_self_loop_ancestor_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n")
        anc = tmp_path / "a.tsv"
        anc.write_text("concept_id\tancestor_concept_id\n1\t1\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict(), ancestors_path=anc)
        assert err.value.code == "MALFORMED_ROW"
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "bad_row",
        ["2\t1\t5", "x\t1", "2\t", "2\t2", "999\t999"],
        ids=["three_columns", "non_integer_child", "blank_ancestor", "self_loop", "unknown_self_loop"],
    )
    def test_malformed_ancestor_row_of_unloaded_child_fails_on_its_line(self, tmp_path, bad_row):
        # Concept 2 is in another domain and 999 is in no row: their
        # ancestor rows are not kept, but each is still checked.
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tRXNORM\ty\tB\t\tDRUG\t1\t3\n"
        )
        anc = tmp_path / "a.tsv"
        anc.write_text("concept_id\tancestor_concept_id\n1\t2\n" + bad_row + "\n3\t1\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict(), domain=Domain.CONDITION, ancestors_path=anc)
        assert (err.value.code, err.value.line) == ("MALFORMED_ROW", 3)

    def test_dangling_counts_only_loaded_children(self, tmp_path):
        # Loaded: 1 and 3.  Concept 1's ancestors 2 (another domain) and 999
        # (no row; listed twice) dangle; the rows of children 2 and 999,
        # which are not loaded, are not dangling, and the one of 999, which
        # no domain lists, is counted apart.
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tRXNORM\ty\tB\t\tDRUG\t1\t3\n"
            + "3\tSNOMED\tz\tC\t\tCONDITION\t1\t3\n"
        )
        anc = tmp_path / "a.tsv"
        anc.write_text("1\t2\n1\t999\n1\t999\n2\t1\n2\t3\n3\t1\n999\t998\n")
        load = load_concepts(path, _dict(), domain=Domain.CONDITION, ancestors_path=anc)
        assert load.ancestors == {1: (), 3: (1,)}
        assert load.dangling_ancestors == 2
        assert load.unlisted_ancestor_rows == 1

    def test_zero_count_used_concept_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t0\n")
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict())
        assert err.value.code == "MALFORMED_ROW"

    @pytest.mark.parametrize(
        "bad_row",
        ["3\tSNOMED\tz\tC\t\tCONDITION\t0\t-1", "3\tSNOMED\tz\tC\t\tCONDITION\t1\t0"],
        ids=["negative", "zero_when_used"],
    )
    def test_record_count_checked_on_its_line(self, tmp_path, bad_row):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n2\tRXNORM\ty\tB\t\tDRUG\t1\t3\n"
            + bad_row + "\n"
        )
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict(), domain=Domain.CONDITION)
        assert (err.value.code, err.value.line) == ("MALFORMED_ROW", 4)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_record_count_not_checked_in_a_skipped_domain(self, tmp_path, count):
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t3\n"
            + f"2\tRXNORM\ty\tB\t\tDRUG\t1\t{count}\n"
        )
        assert set(load_concepts(path, _dict(), domain=Domain.CONDITION).concepts) == {1}

    def test_first_bad_row_reported_before_a_later_duplicate_id(self, tmp_path):
        # Each row is checked whole as it is read, so a bad record_count is
        # reported before a later duplicate id.
        path = tmp_path / "c.tsv"
        path.write_text(
            HEADER + "\n1\tSNOMED\tx\tA\t\tCONDITION\t1\t-1\n2\tSNOMED\ty\tB\t\tCONDITION\t1\t3\n"
            + "2\tSNOMED\ty\tB\t\tCONDITION\t1\t3\n"
        )
        with pytest.raises(ParseError) as err:
            load_concepts(path, _dict())
        assert (err.value.code, err.value.line) == ("MALFORMED_ROW", 2)

    def test_round_trip(self, tmp_path):
        text = (
            HEADER
            + "\n1\tSNOMED\tx\tA label\tsyn1|syn2\tCONDITION\t1\t3"
            + "\n2\tSNOMED\ty\tB label\t\tCONDITION\t0\t0\n"
        )
        path = tmp_path / "c.tsv"
        path.write_text(text)
        assert serialize_concepts(load_concepts(path, _dict()).concepts, {1: 3, 2: 0}) == text


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
        assert classes["HP:0000002"].synonyms == ("2nd",)
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

    @pytest.mark.parametrize("kind", ["EXACT", "RELATED", "BROAD", "NARROW", None])
    def test_synonym_kinds_accepted(self, tmp_path, kind):
        synonym = {"text": "2nd"} if kind is None else {"text": "2nd", "kind": kind}
        path = tmp_path / "o.jsonl"
        path.write_text(json.dumps({"curie": "HP:1", "ontology": "HP", "label": "x", "synonyms": [synonym]}) + "\n")
        assert load_ontology_dump(path, _dict())["HP:1"].synonyms == ("2nd",)

    @pytest.mark.parametrize("kind", ["exact", "SIMILAR", "", None, ["EXACT"], {"k": 1}])
    def test_unknown_synonym_kind(self, tmp_path, kind):
        lines = [
            {"curie": "HP:1", "ontology": "HP", "label": "x", "synonyms": [{"text": "a", "kind": "BROAD"}]},
            {"curie": "HP:2", "ontology": "HP", "label": "y", "synonyms": [{"text": "b", "kind": kind}]},
        ]
        path = tmp_path / "o.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ParseError) as err:
            load_ontology_dump(path, _dict())
        assert (err.value.code, err.value.line) == ("MALFORMED_LINE", 2)

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
                "synonyms": [{"text": "2nd"}],
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


_CUI_PATTERN = re.compile(r"^C\d{7}$")

# Decimal digits outside ASCII (Arabic-Indic, Devanagari, fullwidth) match
# both checks; superscript two and the vulgar fraction are digits or
# numerals without being decimal, so both reject them.
_CUI_CHARS = "C0123456789c \t|\u0663\u0967\uff15\u00b2\u00bd\u2460x"


class TestCuiCheck:
    @settings(derandomize=True, max_examples=500)
    @given(
        st.one_of(
            st.text(alphabet=_CUI_CHARS, max_size=10),
            st.text(alphabet=_CUI_CHARS[1:11] + "\u0663\u00b2", min_size=7, max_size=7).map("C".__add__),
            st.text(max_size=10),
        )
    )
    def test_agrees_with_the_pattern(self, cui):
        # A trailing newline, which ``$`` would allow, never reaches the
        # check: MRCONSO and MRSTY lines are split on newlines first.
        assume("\n" not in cui)
        assert is_cui(cui) == bool(_CUI_PATTERN.match(cui))

    @pytest.mark.parametrize(
        "cui, ok",
        [
            ("C0000001", True),
            ("C\u0661\u0662\u0663\u0664\u0665\u0666\u0667", True),
            ("C000000\u00b2", False),
            ("C000000", False),
            ("C00000001", False),
            ("c0000001", False),
            ("C000000 ", False),
        ],
    )
    def test_boundaries(self, cui, ok):
        assert is_cui(cui) is ok
        assert bool(_CUI_PATTERN.match(cui)) is ok

    @pytest.mark.parametrize("which", ["mrconso", "mrsty"])
    def test_loader_verdicts(self, tmp_path, which):
        arabic = "C\u0661\u0662\u0663\u0664\u0665\u0666\u0667"
        conso = tmp_path / "MRCONSO.RRF"
        sty = tmp_path / "MRSTY.RRF"
        if which == "mrconso":
            conso.write_text(
                _mrconso_line(arabic, "SNOMEDCT_US", "1", "kept") + "\n"
                + _mrconso_line("C000000\u00b2", "SNOMEDCT_US", "1", "t") + "\n",
                encoding="utf-8",
            )
            sty.write_text("")
        else:
            conso.write_text(_mrconso_line(arabic, "SNOMEDCT_US", "1", "kept") + "\n", encoding="utf-8")
            sty.write_text(
                arabic + "|T033|A1.2|Finding|AT001|256|\nC000000\u00b2|T033|A1.2|Finding|AT001|256|\n",
                encoding="utf-8",
            )
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        path = conso if which == "mrconso" else sty
        assert (err.value.code, err.value.path, err.value.line) == ("BAD_CUI", str(path), 2)


class TestLoadUmls:
    def test_example_projection(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(_mrconso_line("C0596028", "SNOMEDCT_US", "70305005", "Overjet") + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("C0596028|T033|A1.2|Finding|AT001|256|\n")
        tables = load_umls(conso, sty, {("SNOMED", "70305005")}, _dict())
        assert tables.atoms_by_code[("SNOMED", "70305005")] == ("C0596028",)
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
        dictionary = _dict()
        codes = {(dictionary.canonical_prefix(sab), code) for _, sab, code, _ in raw}
        tables = load_umls(conso, sty, codes, dictionary)

        oracle = {}
        for cui, sab, code, _ in raw:
            oracle.setdefault((dictionary.canonical_prefix(sab), code), set()).add(cui)
        assert set(tables.atoms_by_code) == set(oracle)
        for key, group in oracle.items():
            assert tables.atoms_by_code[key] == tuple(sorted(group))

    def test_short_row(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("C0000001|ENG|only|four|fields|\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, set(), _dict())
        assert err.value.code == "SHORT_ROW"
        assert err.value.line == 1

    def test_bad_cui(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(_mrconso_line("X123", "SAB", "1", "t") + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SAB", "1")}, _dict())
        assert err.value.code == "BAD_CUI"

    def test_mrsty_short_row(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("C0000001|T033|\n")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, set(), _dict())
        assert err.value.code == "SHORT_ROW"

    def test_sab_that_is_no_code_prefix(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(
            _mrconso_line("C0000001", "SNOMEDCT_US", "1", "kept") + "\n"
            + _mrconso_line("C0000002", "BAD SAB", "2", "not kept") + "\n"
        )
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        assert err.value.code == "BAD_PREFIX"
        assert (err.value.path, err.value.line) == (str(conso), 2)

    @pytest.mark.parametrize(
        "bad_row, code",
        [
            (_mrconso_line("X123", "SNOMEDCT_US", "9", "t"), "BAD_CUI"),
            ("C0000009|ENG|only|four|fields|", "SHORT_ROW"),
            (_mrconso_line("C0000009", "SNOMEDCT_US", "  ", "t"), "SHORT_ROW"),
            (_mrconso_line("C0000009", " ", "9", "t"), "SHORT_ROW"),
        ],
    )
    def test_rows_no_concept_uses_are_validated(self, tmp_path, bad_row, code):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(
            _mrconso_line("C0000001", "SNOMEDCT_US", "1", "kept") + "\n" + bad_row + "\n"
        )
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        assert (err.value.code, err.value.path, err.value.line) == (code, str(conso), 2)

    @pytest.mark.parametrize(
        "bad_row, code",
        [("C0000009|T033|", "SHORT_ROW"), ("X0000009|T033|A1.2|Finding|AT001|256|", "BAD_CUI")],
    )
    def test_mrsty_rows_of_cuis_not_kept_are_validated(self, tmp_path, bad_row, code):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(
            _mrconso_line("C0000001", "SNOMEDCT_US", "1", "kept") + "\n"
            + _mrconso_line("C0000009", "SNOMEDCT_US", "9", "not kept") + "\n"
        )
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("C0000001|T033|A1.2|Finding|AT001|256|\n" + bad_row + "\n")
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        assert (err.value.code, err.value.path, err.value.line) == (code, str(sty), 2)

    def test_keeps_only_concept_codes_and_their_types(self, tmp_path):
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(
            _mrconso_line("C0000001", "SNOMEDCT_US", " 1 ", "kept") + "\n"
            + _mrconso_line("C0000002", "RXNORM", "1", "other vocabulary") + "\n"
        )
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text(
            "C0000001|T033|A1.2|Finding|AT001|256|\n"
            "C0000002|T047|B2.2|Disease or Syndrome|AT002|256|\n"
        )
        tables = load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        assert tables.atoms_by_code == {("SNOMED", "1"): ("C0000001",)}
        assert tables.sty_by_cui == {"C0000001": ("Finding",)}

    @pytest.mark.parametrize(
        "n_fields, last, trailing, verdict",
        [
            (13, "x", False, 13), (13, "x", True, 13), (13, "", False, 12), (13, "", True, 13),
            (14, "1", False, 14), (14, "1", True, 14), (14, "", False, 13), (14, "", True, 14),
            (15, "x", False, "kept"), (15, "x", True, "kept"), (15, "", False, 14),
            (15, "", True, "kept"),
        ],
    )
    def test_mrconso_field_count_boundaries(self, tmp_path, n_fields, last, trailing, verdict):
        """One trailing ``|`` is a terminator, not a field: a row whose
        last field is empty and has no terminator loses that field."""
        fields = ["C0000001"] + [""] * (n_fields - 1)
        fields[11] = "SNOMEDCT_US"
        if n_fields > 13:
            fields[13] = "1"
        fields[-1] = last
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("|".join(fields) + ("|" if trailing else "") + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("")
        if verdict == "kept":
            tables = load_umls(conso, sty, {("SNOMED", "1")}, _dict())
            assert tables.atoms_by_code == {("SNOMED", "1"): ("C0000001",)}
            return
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        assert (err.value.code, err.value.line) == ("SHORT_ROW", 1)
        assert err.value.message.startswith(f"{verdict} fields, need >= 15")

    @pytest.mark.parametrize(
        "n_fields, last, trailing, verdict",
        [
            (3, "A1", False, 3), (3, "A1", True, 3), (3, "", False, 2), (3, "", True, 3),
            (4, "Finding", False, "Finding"), (4, "Finding", True, "Finding"), (4, "", False, 3),
            (4, "", True, ""),
            (5, "AT001", False, "Finding"), (5, "AT001", True, "Finding"),
            (5, "", False, "Finding"), (5, "", True, "Finding"),
        ],
    )
    def test_mrsty_field_count_boundaries(self, tmp_path, n_fields, last, trailing, verdict):
        fields = ["C0000001", "T033", "A1", "Finding", "AT001"][:n_fields]
        fields[-1] = last
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text(_mrconso_line("C0000001", "SNOMEDCT_US", "1", "kept") + "\n")
        sty = tmp_path / "MRSTY.RRF"
        sty.write_text("|".join(fields) + ("|" if trailing else "") + "\n")
        if isinstance(verdict, str):
            tables = load_umls(conso, sty, {("SNOMED", "1")}, _dict())
            assert tables.sty_by_cui == {"C0000001": (verdict,)}
            return
        with pytest.raises(ParseError) as err:
            load_umls(conso, sty, {("SNOMED", "1")}, _dict())
        assert (err.value.code, err.value.line) == ("SHORT_ROW", 1)
        assert err.value.message.startswith(f"{verdict} fields, need >= 4")

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
        load_umls(conso, sty, {("SNOMED", str(i)) for i in range(40)}, _dict())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < file_size / 4


# SABs that canonicalize to one prefix, codes with padding, CUIs shared
# across codes; C0000007 and C0000008 appear only in MRSTY.
UMLS_SABS = ("SNOMEDCT_US", "snomedct_us", "SNOMED", " SNOMED ", "LNC", "loinc", "RXNORM", "MSH")
UMLS_CODES = ("1", "2", "10", "A-1")
UMLS_PADDING = ("", " ", "  ", "\t")
UMLS_CUIS = tuple(f"C{k:07d}" for k in range(1, 7))
STY_CUIS = tuple(f"C{k:07d}" for k in range(1, 9))
STY_NAMES = ("Finding", "Disease or Syndrome", "Sign or Symptom", "Laboratory Procedure")
CONCEPT_PREFIXES = ("SNOMED", "LOINC", "RXNORM", "MESH", "LNC")


@st.composite
def umls_inputs(draw):
    padded = st.tuples(
        st.sampled_from(UMLS_PADDING), st.sampled_from(UMLS_CODES), st.sampled_from(UMLS_PADDING)
    ).map("".join)
    conso = draw(
        st.lists(
            st.tuples(st.sampled_from(UMLS_CUIS), st.sampled_from(UMLS_SABS), padded), max_size=25
        )
    )
    sty = draw(
        st.lists(st.tuples(st.sampled_from(STY_CUIS), st.sampled_from(STY_NAMES)), max_size=15)
    )
    codes = draw(
        st.lists(
            st.tuples(st.sampled_from(CONCEPT_PREFIXES), st.sampled_from(UMLS_CODES)),
            max_size=8,
            unique=True,
        )
    )
    return conso, sty, codes


class TestConceptFirstUmlsDifferential:
    """``load_umls`` keeps only the concepts' keys; bridged through
    ``CuiBridge`` and ``enrich_concepts`` they must give every concept the
    CUIs and semantic types a projection over all MRCONSO/MRSTY rows gives."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(umls_inputs())
    def test_enrichment_matches_all_keys_oracle(self, case):
        conso_rows, sty_rows, codes = case
        dictionary = load_code_dictionary()
        concepts = {
            concept_id: ClinicalConcept(
                concept_id=concept_id,
                code=CodeRef(prefix, code),
                label=f"concept {concept_id}",
                synonyms=(),
                domain=Domain.CONDITION,
                used_in_practice=True,
            )
            for concept_id, (prefix, code) in enumerate(codes, start=1)
        }
        with tempfile.TemporaryDirectory() as tmp:
            conso = Path(tmp) / "MRCONSO.RRF"
            conso.write_text("".join(_mrconso_line(*row, "t") + "\n" for row in conso_rows))
            sty = Path(tmp) / "MRSTY.RRF"
            sty.write_text("".join(f"{cui}|T000|A1.2|{name}|AT000|256|\n" for cui, name in sty_rows))
            tables = load_umls(
                conso, sty, {(c.code.prefix, c.code.code) for c in concepts.values()}, dictionary
            )
        enriched = enrich_concepts(
            concepts, CuiBridge(tables.atoms_by_code), tables.sty_by_cui
        )

        # The projection over every key, looked up concept by concept.
        for concept_id, concept in concepts.items():
            cuis = {
                cui
                for cui, sab, code in conso_rows
                if (dictionary.canonical_prefix(sab), code.strip())
                == (concept.code.prefix, concept.code.code)
            }
            types = {name for cui, name in sty_rows if cui in cuis}
            assert enriched[concept_id].cuis == tuple(sorted(cuis))
            assert enriched[concept_id].semantic_types == tuple(sorted(types))
        kept = {cui for group in tables.atoms_by_code.values() for cui in group}
        assert set(tables.sty_by_cui) <= kept


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
        assert load.rows.pooled == {123: 100, 124: 100, 125: 544618}
        assert load.rows.site_count == {123: 1, 124: 1, 125: 1}
        assert load.rows.sites == {"siteA": {123, 124}, "siteB": {125}}
        assert len(load.rows) == 3
        assert load.floored == 1

    def test_folds_a_concept_over_sites(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text(
            "site_id\tconcept_id\trecord_count\n"
            "a\t2\t100\n"
            "b\t2\t700\n"
            "b\t3\t5\n"
        )
        load = load_prevalence(path)
        assert load.rows.pooled == {2: 800, 3: 100}
        assert load.rows.site_count == {2: 2, 3: 1}
        assert len(load.rows) == 3

    def test_repeated_site_concept_is_duplicate(self, tmp_path):
        # Counting the repeat would put concept 2 in three sites with an
        # average of 300, where two sites and 400 are right.
        path = tmp_path / "p.tsv"
        path.write_text(
            "site_id\tconcept_id\trecord_count\n"
            "a\t2\t100\n"
            "a\t2\t700\n"
            "b\t2\t100\n"
        )
        with pytest.raises(ParseError) as err:
            load_prevalence(path)
        assert err.value.code == "DUPLICATE_ID"
        assert err.value.line == 3

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
        row = load.rows[4070954]["MONDO"]
        assert row.targets == ("MONDO:0008533",)
        assert row.logic == ""
        assert row.evidence == "PMID:21998774"

    def test_one_to_many_row_default_logic(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(
            CURATION_HEADER + "\n439140\tHP\t\tHP:0003623|HP:0001901\tcited\t\n"
        )
        row = load_curation(path, {"HP"}).rows[439140]["HP"]
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
        row = load_curation(path, {"HP"}).rows[1]["HP"]
        assert row.unmapped_reason.name == "NOT_MAPPED_TEST_TYPE"

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

    def test_logic_named(self, tmp_path):
        path = _write(tmp_path / "cur.tsv", CURATION_HEADER + "\n439140\tMONDO\tAND(0\tMONDO:1|MONDO:2\tx\t\n")
        with pytest.raises(ParseError) as err:
            load_curation(path, {"MONDO"})
        assert err.value.message == f"bad logic 'AND(0': logic syntax [{path}:2]"

    def test_unknown_targets_reported(self, tmp_path):
        path = tmp_path / "cur.tsv"
        path.write_text(CURATION_HEADER + "\n1\tHP\t\tHP:999\tx\t\n")
        load = load_curation(path, {"HP"}, known_curies={"HP:1"})
        assert load.unknown_targets == ("HP:999",)


# Each reader: (file name, two valid lines, a call that reads the file).
_READERS = {
    "tsv_rows": (
        "p.tsv",
        "site_id\tconcept_id\trecord_count\na\t1\t5",
        lambda p, d: load_prevalence(p),
    ),
    "ancestors": (
        "anc.tsv",
        "concept_id\tancestor_concept_id\n1\t2",
        lambda p, d: load_concepts(
            _write(d / "c.tsv", f"{HEADER}\n1\tSNOMED\t11\tA\t\tCONDITION\t1\t3\n"), _dict(), ancestors_path=p
        ),
    ),
    "ontology_dump": (
        "o.jsonl",
        '{"curie": "HP:1", "ontology": "HP", "label": "a"}\n'
        '{"curie": "HP:2", "ontology": "HP", "label": "b"}',
        lambda p, d: load_ontology_dump(p, _dict()),
    ),
    "mrconso": (
        "MRCONSO.RRF",
        _mrconso_line("C0000001", "SNOMEDCT_US", "11", "a")
        + "\n"
        + _mrconso_line("C0000002", "SNOMEDCT_US", "12", "b"),
        lambda p, d: load_umls(p, _write(d / "MRSTY.RRF", ""), {("SNOMED", "11")}, _dict()),
    ),
    "mrsty": (
        "MRSTY.RRF",
        "C0000001|T047||Disease or Syndrome|\nC0000002|T047||Disease or Syndrome|",
        lambda p, d: load_umls(_write(d / "MRCONSO.RRF", ""), p, set(), _dict()),
    ),
    "id_list": ("ids.txt", "1\n2", lambda p, d: load_id_list(p)),
    "code_map": (
        "map.csv",
        "raw_prefix,canonical_prefix\nSNOMEDCT_US,SNOMED",
        lambda p, d: load_code_dictionary(p),
    ),
    "stopwords": ("stop.txt", "the\nof", lambda p, d: load_stopwords(p)),
}


def _write(path, text):
    path.write_text(text)
    return path


class TestUndecodableInput:
    """A file whose bytes are not UTF-8 is ParseError BAD_ENCODING naming
    the file and the line that holds the bad bytes, from every reader."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_bad_bytes_on_third_line(self, reader, tmp_path):
        name, valid, read = _READERS[reader]
        path = tmp_path / name
        path.write_bytes(valid.encode() + b"\n\xff\xfe bad\n")
        with pytest.raises(ParseError) as err:
            read(path, tmp_path)
        assert (err.value.code, err.value.path, err.value.line) == ("BAD_ENCODING", str(path), 3)

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_valid_lines_still_read(self, reader, tmp_path):
        name, valid, read = _READERS[reader]
        read(_write(tmp_path / name, valid + "\n"), tmp_path)

    def test_line_found_past_the_first_decoded_chunk(self, tmp_path):
        # The decoder reads ahead in chunks of several KiB, so the line is
        # found by a second pass, not from where the reader had got to.
        path = tmp_path / "ids.txt"
        path.write_bytes(b"".join(b"%d\n" % i for i in range(5000)) + b"7\xe2\x82\n8\n")
        with pytest.raises(ParseError) as err:
            load_id_list(path)
        assert (err.value.code, err.value.line) == ("BAD_ENCODING", 5001)

    def test_carriage_returns_end_lines_as_the_readers_count_them(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\rof\r\n\xc3(\n")
        with pytest.raises(ParseError) as err:
            load_stopwords(path)
        assert err.value.line == 3


class TestLoadStopwords:
    def test_words_read_lowercase(self, tmp_path):
        assert load_stopwords(_write(tmp_path / "stop.txt", "The\nOF\n")) == {"the", "of"}


# --- one verdict per loader check ---------------------------------------------

_MAPPINGS_HEADER = (
    "concept_id\tdomain\tontology\tcategory\tlevel\tlogic\ttargets\ttarget_labels\tscore\tevidence"
    "\tunmapped_reason\toutcome"
)
_MAPPING_ROW = "1\tCONDITION\tHP\tUnmapped\tNONE\t\t\t\t\tEXCLUSION_REASON:None\tNone\t"


def _mapping(category="Automatic One-to-One Concept", level="CONCEPT", logic="", targets="HP:1", labels="a",
             score="", evidence="XREF_MATCH:SNOMED:1", reason="", outcome="", domain="CONDITION"):
    return "\t".join(["2", domain, "HP", category, level, logic, targets, labels, score, evidence, reason, outcome])


_MANY = dict(category="Manual One-to-Many Concept", targets="HP:1|HP:2|HP:3", labels="a||c")
_COSINE = dict(category="Cosine Similarity One-to-One Concept", evidence="COSINE_SCORE:0.5000")


def _ancestor_children(tmp_path):
    # Concept 1 is loaded; concept 2 is in another domain.
    return _write(
        tmp_path / "c.tsv", f"{HEADER}\n1\tSNOMED\t11\tA\t\tCONDITION\t1\t3\n2\tRXNORM\t12\tB\t\tDRUG\t1\t3\n"
    )


# Each loader: (the header its file starts with, a call that reads the file).
_VERDICT_LOADERS = {
    "concepts": (HEADER, lambda p, d: load_concepts(p, _dict(), Domain.CONDITION)),
    "ancestors": ("", lambda p, d: load_concepts(_ancestor_children(d), _dict(), Domain.CONDITION, p)),
    "curation": (CURATION_HEADER, lambda p, d: load_curation(p, {"HP", "MONDO"})),
    "routing": ("semantic_type\taction\tvalue", lambda p, d: load_routing_policy(p, ["HP"])),
    "scales": ("concept_id\tscale\treference_range_kind", lambda p, d: load_measurement_scales(p)),
    "targets": ("concept_id\toutcome\tcurie\tnegated", lambda p, d: load_measurement_targets(p)),
    "mappings": (_MAPPINGS_HEADER, lambda p, d: list(load_mappings(p))),
    "prevalence": ("site_id\tconcept_id\trecord_count", lambda p, d: load_prevalence(p)),
    "weights": ("hpo_curie\tweight", lambda p, d: load_weights(p)),
    "patients": ("patient_id\thpo_curie", lambda p, d: list(load_patient_phenotypes(p))),
    "cohort": ("patient_id\tgroup", lambda p, d: load_cohort(p)),
    "id_list": ("", lambda p, d: load_id_list(p)),
    "ontology": ("", lambda p, d: load_ontology_dump(p, _dict())),
    "code_map": ("raw_prefix,canonical_prefix", lambda p, d: load_code_dictionary(p)),
}

# Every reader that opens its file through ``open_text``: those above and
# those with no verdict case, as (a first line, a call that reads the file).
_OPEN_TEXT_READERS = {
    **_VERDICT_LOADERS,
    "stopwords": ("the", lambda p, d: load_stopwords(p)),
    "mrconso": ("", lambda p, d: load_umls(p, _write(d / "MRSTY.RRF", ""), set(), _dict())),
    "mrsty": ("", lambda p, d: load_umls(_write(d / "MRCONSO.RRF", ""), p, set(), _dict())),
}

_KEPT = "1\tSNOMED\t11\tA\t\tCONDITION\t1\t3"

# (loader, the lines after its header, expected (code, line); None when it loads).
_VERDICTS = [
    pytest.param("concepts", ["x\tSNOMED\t11\tA\t\tCONDITION\t1\t3"], ("MALFORMED_ROW", 2), id="concepts-bad_id"),
    pytest.param("concepts", [_KEPT, "2\tSNOMED\t12\tB\t\tNOPE\t1\t3"], ("MALFORMED_ROW", 3), id="concepts-bad_domain"),
    pytest.param("concepts", ["1\tSNOMED\t11\tA\t\tCONDITION\tyes\t3"], ("MALFORMED_ROW", 2), id="concepts-bad_flag"),
    pytest.param("concepts", ["1\tSNOMED\t11\tA\t\tCONDITION\t1\tmany"], ("MALFORMED_ROW", 2), id="concepts-bad_count"),
    pytest.param("concepts", ["2\tRXNORM\t12\tB\t\tDRUG\t1\tmany"], ("MALFORMED_ROW", 2), id="concepts-bad_count_skipped_row"),
    pytest.param("concepts", ["1\tSNOMED\t11\tA\t\tCONDITION\t1"], ("MALFORMED_ROW", 2), id="concepts-seven_columns"),
    pytest.param("concepts", [_KEPT, "", _KEPT], ("DUPLICATE_ID", 4), id="concepts-duplicate"),
    pytest.param("concepts", ["2\tRXNORM\t12\tB\t\tDRUG\t1\t3"] * 2, None, id="concepts-duplicate_skipped_row"),
    pytest.param("concepts", ["1\tSNOMED\t11\tA\t\tCONDITION\t1\t0"], ("MALFORMED_ROW", 2), id="concepts-zero_count_used_kept_row"),
    pytest.param("concepts", [_KEPT, "3\tSNOMED\t13\tC\t\tCONDITION\t0\t-1"], ("MALFORMED_ROW", 3), id="concepts-negative_count_kept_row"),
    pytest.param("concepts", ["2\tRXNORM\t12\tB\t\tDRUG\t1\t0"], None, id="concepts-zero_count_used_skipped_row"),
    pytest.param("concepts", ["2\tRXNORM\t12\tB\t\tDRUG\t0\t-1"], None, id="concepts-negative_count_skipped_row"),
    pytest.param("ancestors", ["1\t2\t5"], ("MALFORMED_ROW", 1), id="ancestors-three_columns"),
    pytest.param("ancestors", ["1\t2", "x\t1"], ("MALFORMED_ROW", 2), id="ancestors-non_integer"),
    pytest.param("ancestors", ["999\t999"], ("MALFORMED_ROW", 1), id="ancestors-self_loop_unloaded_child"),
    pytest.param("ancestors", ["concept_id\tancestor_concept_id", "1\t2"], None, id="ancestors-header"),
    pytest.param("ancestors", ["concept_id\tparent", "1\t2"], None, id="ancestors-header_of_other_names"),
    pytest.param("ancestors", ["1\t2", "2\t1"], None, id="ancestors-no_header"),
    pytest.param("ancestors", ["1\t2", "concept_id\tancestor_concept_id"], ("MALFORMED_ROW", 2), id="ancestors-header_on_line_2"),
    pytest.param("curation", ["x\tHP\t\tHP:1\te\t"], ("MALFORMED_ROW", 2), id="curation-bad_concept_id"),
    pytest.param("curation", ["1\tZZ\t\tZZ:1\te\t"], ("UNKNOWN_ONTOLOGY", 2), id="curation-unknown_ontology"),
    pytest.param("curation", ["1\tHP\t\t\te\tNO_SUCH_REASON"], ("UNKNOWN_REASON", 2), id="curation-unknown_reason"),
    pytest.param("curation", ["1\tHP\t\tHP:1\te\tINJURY"], ("BOTH_TARGETS_AND_REASON", 2), id="curation-both"),
    pytest.param("curation", ["1\tHP\t\t | \te\t "], ("MALFORMED_ROW", 2), id="curation-neither"),
    pytest.param("curation", ["1\thp\t\t\te\tnot mapped test type", "1\tMONDO\t\tMONDO:1|MONDO:2\te\t"], None, id="curation-accepted"),
    pytest.param("curation", ["1\thp\t\thp:1\te\t", "1\tHP\t\tHP:1|MONDO:1\te\t"], ("MALFORMED_ROW", 3), id="curation-target_in_another_ontology"),
    pytest.param("curation", ["1\tHP\t\tHP:1\te\t", "2\tHP\t\tHP:2|HP:\te\t"], ("MALFORMED_ROW", 3), id="curation-target_without_local_id"),
    pytest.param("curation", ["5\tHP\t\tHP:1\ta\t", "5\tMONDO\t\tMONDO:1\ta\t", "6\tHP\t\tHP:1\ta\t", "5\thp\t\t\tb\tINJURY"],
                 ("CONFLICTING_CURATION", 5), id="curation-conflicting"),
    pytest.param("curation", ["1\tHP\t\tHP:1\te\t", "439140\tMONDO\tAND(0\tMONDO:0001414|MONDO:0008157\tx\t"],
                 ("MALFORMED_ROW", 3), id="curation-logic_syntax"),
    pytest.param("curation", ["1\tHP\tAND(0,1)\tHP:1|HP:2|HP:3\te\t"], ("MALFORMED_ROW", 2), id="curation-logic_misses_a_target"),
    pytest.param("curation", ["1\tHP\tOR(0,1)\tHP:1\te\t"], ("MALFORMED_ROW", 2), id="curation-logic_over_one_target"),
    pytest.param("curation", ["1\tHP\tNOT(0)\t\te\tINJURY"], ("MALFORMED_ROW", 2), id="curation-logic_with_a_reason"),
    pytest.param("curation", ["1\tHP\tNOT(0)\tHP:1\te\t", "1\tMONDO\t OR(1,NOT(0)) \tMONDO:1|MONDO:2\te\t",
                              "2\tHP\t\tHP:1|HP:2\te\t", "3\tHP\t\t\te\tINJURY"], None, id="curation-logic_accepted"),
    pytest.param("routing", ["T047\tMAYBE\tHP"], ("MALFORMED_ROW", 2), id="routing-unknown_action"),
    pytest.param("routing", ["T047\tALLOW\t | "], ("MALFORMED_ROW", 2), id="routing-empty_allow"),
    pytest.param("routing", ["T047\tEXCLUDE\tNO_SUCH_REASON"], ("UNKNOWN_REASON", 2), id="routing-unknown_reason"),
    pytest.param("routing", ["T047\texclude\tINJURY", "T047\tEXCLUDE\tinjury", "T047\tEXCLUDE\tFINDING"], ("CONFLICTING_RULE", 4), id="routing-conflicting_exclude"),
    pytest.param("scales", ["x\tORDINAL\tNONE"], ("MALFORMED_ROW", 2), id="scales-bad_concept_id"),
    pytest.param("scales", ["1\tINTERVAL\tNONE"], ("MALFORMED_ROW", 2), id="scales-bad_scale"),
    pytest.param("scales", ["1\tORDINAL\tRATIO"], ("MALFORMED_ROW", 2), id="scales-bad_range_kind"),
    pytest.param("scales", ["1\tordinal\t numeric ", "1\tNOMINAL\tNONE"], ("DUPLICATE_ID", 3), id="scales-duplicate"),
    pytest.param("targets", ["x\tHIGH\tHP:1\t0"], ("MALFORMED_ROW", 2), id="targets-bad_concept_id"),
    pytest.param("targets", ["1\tHIGH\tHP:1\tyes"], ("MALFORMED_ROW", 2), id="targets-bad_negated"),
    pytest.param("targets", ["1\tUBERON\tUBERON:1\t1"], ("MALFORMED_ROW", 2), id="targets-negated_auxiliary"),
    pytest.param("targets", ["1\thigh\tHP:1\t0", "1\tNORMAL\tHP:2\t1", "1\tUBERON\tUBERON:1\t"], None, id="targets-accepted"),
    pytest.param("targets", ["1\tHIGH\tHP:1\t0", "1\tLOW\tnotacurie\t0"], ("MALFORMED_ROW", 3), id="targets-malformed_result_curie"),
    pytest.param("targets", ["1\tHIGH\tHP:1\t0", "1\tUBERON\tnotacurie\t0"], ("MALFORMED_ROW", 3), id="targets-malformed_auxiliary_curie"),
    pytest.param("targets", ["1\tuberon\tUBERON:1\t0", "1\tUBERON\tHP:1\t0"], ("MALFORMED_ROW", 3), id="targets-auxiliary_curie_in_another_ontology"),
    pytest.param("targets", ["1\tHIGH\tHP:1\t0", "1\tLOW\tHP:0001|HP:0002\t0"], ("MALFORMED_ROW", 3), id="targets-pipe_in_curie"),
    pytest.param("targets", ["1\tHIGH\tHP:1\t0", "1\tNORMAL\tHP:2\t0"], ("MALFORMED_ROW", 3), id="targets-normal_not_negated"),
    pytest.param("targets", ["1\tHIGH\tHP:1\t1"], ("MALFORMED_ROW", 2), id="targets-high_negated"),
    pytest.param("targets", ["1\tnegative\tHP:1\t0"], ("MALFORMED_ROW", 2), id="targets-negative_not_negated"),
    pytest.param("targets", ["1\tPOSITIVE\tHP:1\t1"], ("MALFORMED_ROW", 2), id="targets-positive_negated"),
    pytest.param("targets", ["1\tPOSITIVE\tHP:1\t0", "2\tPOSITIVE\tHP:1\t0", "1\tpositive\tHP:2\t0"], ("DUPLICATE_ID", 4), id="targets-repeated_outcome"),
    pytest.param("targets", ["1\tPOSITIVE\tHP:1\t0", "1\tNEGATIVE\tHP:1\t1", "2\tPOSITIVE\tHP:1\t0"], None, id="targets-one_row_per_concept_and_outcome"),
    pytest.param("mappings", ["4x" + _MAPPING_ROW[1:]], ("MALFORMED_ROW", 2), id="mappings-bad_concept_id"),
    pytest.param("mappings", [_MAPPING_ROW, _MAPPING_ROW + "\textra"], ("MALFORMED_ROW", 3), id="mappings-thirteen_columns"),
    pytest.param("mappings", [_MAPPING_ROW, _MAPPING_ROW.replace("Unmapped", "unmapped")], ("MALFORMED_ROW", 3), id="mappings-unknown_category"),
    pytest.param("mappings", [_MAPPING_ROW, _mapping(), _mapping(logic="NOT(0)", outcome="NORMAL", domain="MEASUREMENT"),
                              _mapping(**_MANY, logic="OR(2,NOT(0),1)"), _mapping(**_COSINE, score="0.25"),
                              _mapping(labels="")], None, id="mappings-accepted"),
    pytest.param("mappings", [_mapping(domain="condition")], ("MALFORMED_ROW", 2), id="mappings-unknown_domain"),
    pytest.param("mappings", [_mapping(level="ANCESTOR")], ("MALFORMED_ROW", 2), id="mappings-level_of_another_category"),
    pytest.param("mappings", [_mapping(targets="HP:1|HP:2|HP:3", labels="a|b|c")], ("MALFORMED_ROW", 2), id="mappings-one_to_one_with_three_targets"),
    pytest.param("mappings", [_mapping(targets="HP 1")], ("MALFORMED_ROW", 2), id="mappings-target_not_a_curie"),
    pytest.param("mappings", [_mapping(targets="", labels="")], ("MALFORMED_ROW", 2), id="mappings-mapped_without_target"),
    pytest.param("mappings", [_MAPPING_ROW.replace("\t\t\t\t\tEX", "\t\tHP:1\ta\t\tEX")], ("MALFORMED_ROW", 2), id="mappings-unmapped_with_a_target"),
    pytest.param("mappings", [_MAPPING_ROW.replace("None\t", "\t")], ("MALFORMED_ROW", 2), id="mappings-unmapped_without_reason"),
    pytest.param("mappings", [_mapping(reason="Injury")], ("MALFORMED_ROW", 2), id="mappings-mapped_with_reason"),
    pytest.param("mappings", [_mapping(labels="a|b")], ("MALFORMED_ROW", 2), id="mappings-two_labels_for_one_target"),
    pytest.param("mappings", [_mapping(**_MANY, logic="AND(0,1)")], ("MALFORMED_ROW", 2), id="mappings-logic_misses_a_target"),
    pytest.param("mappings", [_mapping(logic="AND(0,")], ("MALFORMED_ROW", 2), id="mappings-logic_syntax"),
    pytest.param("mappings", [_MAPPING_ROW, _MAPPING_ROW.replace("NONE\t\t", "NONE\tNOT(0)\t")], ("MALFORMED_ROW", 3), id="mappings-logic_without_target"),
    pytest.param("mappings", [_mapping(logic="0")], ("MALFORMED_ROW", 2), id="mappings-one_target_logic_not_plain"),
    pytest.param("mappings", [_mapping(score="0.5")], ("MALFORMED_ROW", 2), id="mappings-score_off_cosine"),
    pytest.param("mappings", [_mapping(**_COSINE)], ("MALFORMED_ROW", 2), id="mappings-cosine_without_score"),
    pytest.param("mappings", [_mapping(**_COSINE, score="1.5")], ("MALFORMED_ROW", 2), id="mappings-score_above_one"),
    pytest.param("mappings", [_mapping(**_COSINE, score="nan")], ("MALFORMED_ROW", 2), id="mappings-score_nan"),
    pytest.param("mappings", [_mapping(evidence="")], ("MALFORMED_ROW", 2), id="mappings-no_evidence"),
    pytest.param("mappings", [_mapping(evidence="XREF_MATCH:SNOMED:1|PMID:1")], ("MALFORMED_ROW", 2), id="mappings-unknown_evidence_kind"),
    pytest.param("mappings", [_mapping(evidence="LABEL_MATCH")], ("MALFORMED_ROW", 2), id="mappings-evidence_without_payload"),
    pytest.param("mappings", [_mapping(outcome="SEVERE")], ("MALFORMED_ROW", 2), id="mappings-unknown_outcome"),
    pytest.param("ontology", ['{"curie": "HP:0001|HP:0002", "ontology": "HP", "label": "x"}'], ("BAD_CURIE", 1), id="ontology-pipe_in_curie"),
    pytest.param("prevalence", ["a\t1\t-5"], ("MALFORMED_ROW", 2), id="prevalence-negative"),
    pytest.param("prevalence", ["a\t1\t5.0"], ("MALFORMED_ROW", 2), id="prevalence-bad_count"),
    pytest.param("prevalence", ["a\t1\t5", "b\t1\t5", "a\t1\t700"], ("DUPLICATE_ID", 4), id="prevalence-duplicate"),
    pytest.param("weights", ["HP:1\tnan"], ("MALFORMED_ROW", 2), id="weights-nan"),
    pytest.param("weights", ["HP:1\t-inf"], ("MALFORMED_ROW", 2), id="weights-infinite"),
    pytest.param("weights", ["HP:1\theavy"], ("MALFORMED_ROW", 2), id="weights-not_a_number"),
    pytest.param("weights", ["HP:1\t1.5", "HP:1\t2"], ("DUPLICATE_ID", 3), id="weights-duplicate"),
    pytest.param("patients", ["p1\tHP:1", "p1"], ("MALFORMED_ROW", 3), id="patients-one_column"),
    pytest.param("cohort", ["p1\tSIBLING"], ("MALFORMED_ROW", 2), id="cohort-bad_group"),
    pytest.param("cohort", ["p1\t case ", "p1\tCONTROL"], ("DUPLICATE_ID", 3), id="cohort-duplicate"),
    pytest.param("cohort", ["p1\tCASE\tx"], ("MALFORMED_ROW", 2), id="cohort-three_columns"),
    pytest.param("id_list", ["12\t", "   ", " 13 "], None, id="id_list-whitespace_accepted"),
    pytest.param("id_list", ["12", "", "twelve"], ("MALFORMED_ROW", 3), id="id_list-bad_id"),
    pytest.param("code_map", ["foo,BAR", "snomed,"], ("MALFORMED_ROW", 3), id="code_map-blank_canonical_prefix"),
    pytest.param("code_map", [" ,SNOMED"], ("MALFORMED_ROW", 2), id="code_map-blank_raw_prefix"),
    pytest.param("code_map", ["snomed"], ("MALFORMED_ROW", 2), id="code_map-one_column"),
    pytest.param("code_map", ["bar,BAZ", "foo,BAR"], ("NOT_FIXED_POINT", 3), id="code_map-remapped_made_canonical_later"),
    pytest.param("code_map", ["foo,BAR", "FOO, bar ", "", "bar,BAR"], None, id="code_map-accepted"),
]


class TestLoaderVerdicts:
    """Each loader's (code, line) for one case of every check it makes."""

    @pytest.mark.parametrize("loader, lines, verdict", _VERDICTS)
    def test_verdict(self, tmp_path, loader, lines, verdict):
        header, read = _VERDICT_LOADERS[loader]
        text = "\n".join(([header] if header else []) + lines) + "\n"
        path = _write(tmp_path / f"{loader}.tsv", text)
        if verdict is None:
            read(path, tmp_path)
            return
        with pytest.raises(ParseError) as err:
            read(path, tmp_path)
        assert (err.value.code, err.value.line) == verdict

    @pytest.mark.parametrize("loader", sorted(_OPEN_TEXT_READERS))
    def test_byte_order_mark_named(self, tmp_path, loader):
        header, read = _OPEN_TEXT_READERS[loader]
        with pytest.raises(ParseError) as err:
            read(_write(tmp_path / f"{loader}.tsv", f"\ufeff{header}\n"), tmp_path)
        assert (err.value.code, err.value.line) == ("BAD_ENCODING", 1)
        assert "the file starts with a UTF-8 byte-order mark" in err.value.message

    @pytest.mark.parametrize("loader", sorted(set(_VERDICT_LOADERS) - {"ancestors", "id_list", "code_map", "ontology"}))
    def test_header_checked(self, tmp_path, loader):
        header, read = _VERDICT_LOADERS[loader]
        for text in ("", header.replace("\t", "\tx", 1) + "\n", header.rsplit("\t", 1)[0] + "\n"):
            with pytest.raises(ParseError) as err:
                read(_write(tmp_path / f"{loader}.tsv", text), tmp_path)
            assert (err.value.code, err.value.line) == ("MISSING_COLUMN", 1)
