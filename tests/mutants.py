"""The mutation catalogue: named faults in ``src/termbridge``, each with the
tests that catch it.

A mutant names a file under ``src/termbridge``, an exact snippet of it,
the snippet's replacement and the ids of the tests expected to fail once
the replacement is made.  ``tests/test_mutants.py`` checks on every run
that each snippet occurs exactly once in its file, so a refactor that
rewrites guarded code must port or retire the mutant with it.  With
``TERMBRIDGE_MUTANTS=1`` it also applies each mutant to a copy of
``src/`` and runs the mutant's tests against the copy, which must fail.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/termbridge
    old: str
    new: str
    tests: tuple[str, ...]


_ROW_ORDER = "tests/test_synthesize.py::TestExpandMeasurements::test_records_come_in_row_order"
_BOM = "tests/test_ingest.py::TestLoaderVerdicts::test_byte_order_mark_named"
_VERDICT = "tests/test_ingest.py::TestLoaderVerdicts::test_verdict"
_LIVE = "return sorted((cls for cls in classes if not cls.deprecated), key=lambda cls: cls.curie)"
_SPELLED = "tests/test_cli.py::TestExportSssom::test_subject_id_spelled_as_map_spells_it"
_UNKNOWN_TYPE = "tests/test_synthesize.py::TestExpandMeasurements::test_row_of_unknown_result_type_is_outcome_mismatch"
_UNKNOWN_TYPE_CLI = "tests/test_cli.py::TestMeasurementCommand::test_row_for_unknown_result_type_is_data_error"
_RENUMBERING = "tests/test_metamorphic.py::test_id_renumbering_changes_only_concept_ids"

MUTANTS = [
    Mutant(
        "synthesize-walks-configured-ontologies-only",
        "synthesize.py",
        "for ontology in sorted(claimed.keys() | set(ontologies)):",
        "for ontology in sorted(ontologies):",
        (_ROW_ORDER,),
    ),
    Mutant(
        "expand-puts-auxiliary-records-last",
        "synthesize.py",
        "return (records,)",
        "return (records[len(aux_by_ontology):] + records[:len(aux_by_ontology)],)",
        (_ROW_ORDER,),
    ),
    Mutant(
        "curation-logic-unchecked",
        "ingest.py",
        "rule = logic_rule(logic, len(targets))",
        "rule = None",
        (
            f"{_VERDICT}[curation-logic_syntax]",
            f"{_VERDICT}[curation-logic_misses_a_target]",
            f"{_VERDICT}[curation-logic_over_one_target]",
            f"{_VERDICT}[curation-logic_with_a_reason]",
            "tests/test_ingest.py::TestLoadCuration::test_logic_named",
        ),
    ),
    Mutant(
        "byte-order-mark-read-as-text",
        "errors.py",
        'if fh.buffer.peek(3).startswith(b"\\xef\\xbb\\xbf"):',
        "if False:",
        (f"{_BOM}[stopwords]", f"{_BOM}[concepts]", f"{_BOM}[ontology]", f"{_BOM}[mrconso]"),
    ),
    Mutant(
        "dump-ontology-key-kept-as-written",
        "ingest.py",
        'sys.intern(obj["ontology"].upper())',
        'sys.intern(obj["ontology"])',
        (
            "tests/test_metamorphic.py::test_key_case_leaves_map_outputs_unchanged[golden]",
            "tests/test_metamorphic.py::test_key_case_leaves_map_outputs_unchanged[measurement]",
        ),
    ),
    Mutant(
        "live-classes-keep-deprecated",
        "pipeline.py",
        _LIVE,
        "return sorted(classes, key=lambda cls: cls.curie)",
        ("tests/test_cli.py::TestMapCommand::test_deprecated_class_is_a_curation_target_only",),
    ),
    Mutant(
        "live-classes-unsorted",
        "pipeline.py",
        _LIVE,
        "return [cls for cls in classes if not cls.deprecated]",
        ("tests/test_align.py::TestBuildIndexes::test_curies_sorted_whatever_the_class_order",),
    ),
    Mutant(
        "evidence-pattern-misses-a-kind",
        "ingest.py",
        '"|".join(kind.name for kind in EvidenceKind)',
        '"|".join(kind.name for kind in EvidenceKind if kind is not EvidenceKind.MANUAL_SOURCE)',
        (
            "tests/test_mapping_codec.py::test_records_come_back_from_their_rows",
            "tests/test_mapping_codec.py::test_rows_render_as_they_were_read",
            "tests/test_cli.py::TestExportSssom::test_flattening",
        ),
    ),
    Mutant(
        "export-reads-concepts-with-an-empty-dictionary",
        "pipeline.py",
        "load_concepts(cfg.concepts, load_code_dictionary(cfg.code_map))",
        'load_concepts(cfg.concepts, importlib.import_module(".lexical", __package__).NormalizationDictionary(()))',
        (f"{_SPELLED}[vendored_map]", f"{_SPELLED}[run_map]"),
    ),
    Mutant(
        "validate-record-without-delimiter-rule",
        "core.py",
        'if "|" in atom.payload:',
        "if False:",
        (
            "tests/test_core.py::TestValidateRecord::test_evidence_delimiter",
            "tests/test_cli.py::TestMapCommand::test_delimiter_in_curation_evidence_is_data_error",
            "tests/test_errors.py::TestEveryCodeFromTheCommandLine::test_code[INVALID_RECORD]",
        ),
    ),
    Mutant(
        "unknown-result-type-rows-dropped",
        "synthesize.py",
        "stray += aux_targets",
        "stray = []",
        (
            f"{_UNKNOWN_TYPE}[result_row]",
            f"{_UNKNOWN_TYPE}[auxiliary_row]",
            f"{_UNKNOWN_TYPE_CLI}[result]",
            f"{_UNKNOWN_TYPE_CLI}[auxiliary]",
        ),
    ),
    Mutant(
        "ancestor-self-loop-checked-for-loaded-children-only",
        "ingest.py",
        "if child == ancestor:",
        "if child == ancestor and child in concepts:",
        (
            f"{_VERDICT}[ancestors-self_loop_unloaded_child]",
            "tests/test_ingest.py::TestLoadConcepts::test_malformed_ancestor_row_of_unloaded_child_fails_on_its_line"
            "[unknown_self_loop]",
        ),
    ),
    Mutant(
        "concepts-of-every-domain-loaded",
        "ingest.py",
        "if domain is not None and row_domain is not domain:",
        "if False:",
        ("tests/test_metamorphic.py::test_other_domain_rows_leave_map_outputs_unchanged[golden]",),
    ),
    Mutant(
        "ancestor-memo-keeps-filtered-hits",
        "align.py",
        "hits = memo[ancestor_id] = align_concept(ancestor, indexes)",
        "hits = memo[ancestor_id] = align_concept(ancestor, indexes, allowed)",
        ("tests/test_align.py::TestAlignViaAncestors::test_memo_keeps_each_ancestor_unfiltered",),
    ),
    # Only the id-renumbering relation catches it: the oracles' ids, and
    # the fixtures', all lie below 2**31.
    Mutant(
        "corpus-concept-ids-int32",
        "similarity.py",
        "concept_ids=np.array(concept_ids, dtype=np.int64)",
        "concept_ids=np.array(concept_ids, dtype=np.int32)",
        (f"{_RENUMBERING}[golden]", f"{_RENUMBERING}[measurement]", f"{_RENUMBERING}[map-ladder]"),
    ),
]
