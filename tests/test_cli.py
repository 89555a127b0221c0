"""Command-line behavior: golden outputs, determinism, exit codes, formats."""

import gc
import importlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import termbridge
from termbridge import pipeline
from termbridge.cli import main
from termbridge.core import OUTCOME_ORDER, MappingRecord, MeasurementOutcome, Violation
from termbridge.stats import midranks

from fixtures import CODE_MAP_CSV


def map_args(paths, out_dir, extra=()):
    args = [
        "map",
        "--concepts", paths["concepts"],
        "--ontology", paths["ontology"],
        "--code-map", paths["code_map"],
        "--out", str(out_dir),
        "--domain", "CONDITION",
    ]
    if "ancestors" in paths:
        args += ["--ancestors", paths["ancestors"]]
    if "mrconso" in paths:
        args += ["--umls-mrconso", paths["mrconso"], "--umls-mrsty", paths["mrsty"]]
    if "routing" in paths:
        args += ["--routing", paths["routing"]]
    if "curation" in paths:
        args += ["--curation", paths["curation"]]
    if "stopwords" in paths:
        args += ["--stopwords", paths["stopwords"]]
    return args + list(extra)


def measurement_args(paths, out_dir):
    return [
        "map",
        "--concepts", paths["concepts"],
        "--ontology", paths["ontology"],
        "--code-map", paths["code_map"],
        "--measurement-scales", paths["scales"],
        "--measurement-targets", paths["targets"],
        "--domain", "MEASUREMENT",
        "--out", str(out_dir),
    ]


def run_map_cli(paths, out_dir, extra=()):
    return main(map_args(paths, out_dir, extra))


def subprocess_env(**extra):
    """This environment plus ``extra``, with the package's source directory
    first on PYTHONPATH."""
    src = str(Path(termbridge.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def outputs_under_hash_seeds(tmp_path, make_argv, names):
    """Bytes of the named outputs of ``make_argv(out)`` run as a subprocess
    under PYTHONHASHSEED 1 and 2, one list per seed."""
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        subprocess.run(
            [sys.executable, "-m", "termbridge.cli", *make_argv(out)],
            env=subprocess_env(PYTHONHASHSEED=seed), check=True, timeout=60,
        )
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def files_under(root):
    """Names of the files below ``root``; none when it does not exist."""
    root = Path(root)
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestMapCommand:
    def test_golden_categories(self, condition_fixture, tmp_path):
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out) == 0
        rows = read_rows(out / "mappings.tsv")
        by_key = {(r["concept_id"], r["ontology"]): r for r in rows}
        assert by_key[("22945", "HP")]["category"] == "Automatic One-to-One Concept"
        assert by_key[("22722", "HP")]["category"] == "Automatic One-to-One Ancestor"
        assert by_key[("78854", "MONDO")]["category"] == "Automatic One-to-Many Concept"
        assert by_key[("74185", "MONDO")]["category"] == "Automatic One-to-Many Ancestor"
        assert by_key[("4070954", "MONDO")]["category"] == "Manual One-to-One Concept"
        assert by_key[("439140", "HP")]["category"] == "Manual One-to-Many Concept"
        assert by_key[("4147326", "HP")]["category"] == "Cosine Similarity One-to-One Concept"
        assert by_key[("432498", "HP")]["unmapped_reason"] == "Injury"
        assert by_key[("4056963", "MONDO")]["unmapped_reason"] == "Finding"

    def test_summary_counts(self, condition_fixture, tmp_path):
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        used_hp = summary["mapping_categories"]["HP"]["used_in_practice"]
        assert used_hp["Automatic One-to-One Concept"] == 1
        assert used_hp["Automatic One-to-One Ancestor"] == 1
        assert used_hp["Manual One-to-Many Concept"] == 1
        assert used_hp["Cosine Similarity One-to-One Concept"] == 1
        assert summary["unmapped"]["HP"]["used_in_practice"]["Injury"] == 1
        assert summary["similarity"]["filter_scope"] == "per_ontology"
        assert summary["ontologies"] == ["HP", "MONDO"]

    def test_rerun_is_byte_identical(self, condition_fixture, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_map_cli(condition_fixture, out1) == 0
        assert run_map_cli(condition_fixture, out2) == 0
        assert (out1 / "mappings.tsv").read_bytes() == (out2 / "mappings.tsv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_jobs_do_not_change_output(self, condition_fixture, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j8"
        assert run_map_cli(condition_fixture, out1, extra=["--jobs", "1"]) == 0
        assert run_map_cli(condition_fixture, out2, extra=["--jobs", "8"]) == 0
        assert (out1 / "mappings.tsv").read_bytes() == (out2 / "mappings.tsv").read_bytes()

    def test_ancestor_fallback_is_per_ontology(self, tmp_path):
        """Ancestor-level hits fill only ontologies the concept level missed."""
        src = tmp_path / "in"
        src.mkdir()
        (src / "concepts.tsv").write_text(
            "concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count\n"
            "1\tSNOMED\tc1\talpha phrase\t\tCONDITION\t1\t3\n"
            "2\tSNOMED\tc2\tbeta phrase\t\tCONDITION\t0\t0\n"
        )
        (src / "ancestors.tsv").write_text("concept_id\tancestor_concept_id\n1\t2\n")
        (src / "ontology.jsonl").write_text(
            "\n".join(
                [
                    json.dumps({"curie": "HP:0000001", "ontology": "HP", "label": "alpha phrase"}),
                    # the ancestor's label hits both ontologies
                    json.dumps({"curie": "HP:0000002", "ontology": "HP", "label": "beta phrase"}),
                    json.dumps({"curie": "MONDO:0000001", "ontology": "MONDO", "label": "beta phrase"}),
                ]
            )
            + "\n"
        )
        (src / "map.csv").write_text(CODE_MAP_CSV)
        out = tmp_path / "out"
        code = main(
            [
                "map",
                "--concepts", str(src / "concepts.tsv"),
                "--ancestors", str(src / "ancestors.tsv"),
                "--ontology", str(src / "ontology.jsonl"),
                "--code-map", str(src / "map.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = {(r["concept_id"], r["ontology"]): r for r in read_rows(out / "mappings.tsv")}
        # HP had a concept-level hit: the ancestor HP hit must not surface.
        assert rows[("1", "HP")]["category"] == "Automatic One-to-One Concept"
        assert rows[("1", "HP")]["targets"] == "HP:0000001"
        # MONDO had none: the ancestor hit fills it at ancestor level.
        assert rows[("1", "MONDO")]["category"] == "Automatic One-to-One Ancestor"
        assert rows[("1", "MONDO")]["targets"] == "MONDO:0000001"

    def test_empty_concepts_file(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "concepts.tsv").write_text(
            "concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count\n"
        )
        (src / "ontology.jsonl").write_text(
            '{"curie": "HP:1", "ontology": "HP", "label": "x"}\n'
        )
        (src / "map.csv").write_text(CODE_MAP_CSV)
        out = tmp_path / "out"
        code = main(
            [
                "map",
                "--concepts", str(src / "concepts.tsv"),
                "--ontology", str(src / "ontology.jsonl"),
                "--code-map", str(src / "map.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "mappings.tsv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("concept_id\t")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mapping_categories"] == {}

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(
            [
                "map",
                "--concepts", str(tmp_path / "nope.tsv"),
                "--ontology", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "error[" in capsys.readouterr().err

    def test_malformed_concepts_is_parse_error(self, tmp_path, condition_fixture):
        bad = tmp_path / "bad.tsv"
        bad.write_text("concept_id\tnot_the_schema\n")
        paths = dict(condition_fixture)
        paths["concepts"] = str(bad)
        assert run_map_cli(paths, tmp_path / "out") == 2

    def test_blank_mrconso_code_is_parse_error(self, tmp_path, condition_fixture, capsys):
        lines = Path(condition_fixture["mrconso"]).read_text().splitlines()
        fields = lines[0].split("|")
        fields[13] = " "
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("\n".join([lines[0], "|".join(fields), *lines[1:]]) + "\n")
        paths = dict(condition_fixture, mrconso=str(conso))
        assert run_map_cli(paths, tmp_path / "out") == 2
        assert f"error[SHORT_ROW]: blank SAB or CODE [{conso}:2]" in capsys.readouterr().err

    def test_mrconso_sab_that_is_no_code_prefix_is_parse_error(
        self, tmp_path, condition_fixture, capsys
    ):
        lines = Path(condition_fixture["mrconso"]).read_text().splitlines()
        conso = tmp_path / "MRCONSO.RRF"
        conso.write_text("\n".join([*lines, "C9999999|ENG||||||||||BAD SAB|PT|x1|text||||"]) + "\n")
        paths = dict(condition_fixture, mrconso=str(conso))
        assert run_map_cli(paths, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error[BAD_PREFIX]: SAB 'BAD SAB' is not a code prefix [{conso}:{len(lines) + 1}]" in err

    @pytest.mark.parametrize(
        "field, value", [("xrefs", [5]), ("label", None), ("deprecated", "yes"), ("synonyms", "abc")]
    )
    def test_ontology_field_of_wrong_type_is_parse_error(
        self, tmp_path, condition_fixture, capsys, field, value
    ):
        lines = Path(condition_fixture["ontology"]).read_text().splitlines()
        row = json.loads(lines[1])
        row[field] = value
        lines[1] = json.dumps(row)
        ontology = tmp_path / "ontology.jsonl"
        ontology.write_text("\n".join(lines) + "\n")
        assert run_map_cli(dict(condition_fixture, ontology=str(ontology)), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[MALFORMED_LINE]: field {field!r} ")
        assert f"[{ontology}:2]" in err

    def test_conflicting_curation_is_data_error(self, tmp_path, condition_fixture):
        dup = tmp_path / "curation.tsv"
        dup.write_text(
            "concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason\n"
            "22945\tHP\t\tHP:0011095\ta\t\n"
            "22945\tHP\t\tHP:0033050\tb\t\n"
        )
        paths = dict(condition_fixture)
        paths["curation"] = str(dup)
        assert run_map_cli(paths, tmp_path / "out") == 3

    def test_bad_threshold_is_config_error(self, condition_fixture, tmp_path):
        assert run_map_cli(condition_fixture, tmp_path / "out", extra=["--tau", "2.0"]) == 1

    def test_config_file_supplies_flags(self, condition_fixture, tmp_path):
        config = {
            "concepts": condition_fixture["concepts"],
            "ontology": [condition_fixture["ontology"]],
            "code_map": condition_fixture["code_map"],
            "out": str(tmp_path / "from_config"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["map", "--config", str(config_path)]) == 0
        assert (tmp_path / "from_config" / "mappings.tsv").exists()

    @pytest.mark.parametrize(
        "bad", [{"tau": "abc"}, {"jobs": [1]}, {"ontology": 5}], ids=["tau", "jobs", "ontology"]
    )
    def test_bad_config_value_is_config_error(self, condition_fixture, tmp_path, capsys, bad):
        config = {
            "concepts": condition_fixture["concepts"],
            "ontology": [condition_fixture["ontology"]],
            "out": str(tmp_path / "out"),
            **bad,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["map", "--config", str(config_path)]) == 1
        assert "error[BAD_CONFIG]" in capsys.readouterr().err

    def test_flags_override_config(self, condition_fixture, tmp_path):
        config = {
            "concepts": condition_fixture["concepts"],
            "ontology": [condition_fixture["ontology"]],
            "code_map": condition_fixture["code_map"],
            "out": str(tmp_path / "config_out"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        flag_out = tmp_path / "flag_out"
        assert main(["map", "--config", str(config_path), "--out", str(flag_out)]) == 0
        assert (flag_out / "mappings.tsv").exists()
        assert not (tmp_path / "config_out").exists()


class TestMeasurementCommand:
    def test_worked_examples(self, measurement_fixture, tmp_path):
        out = tmp_path / "out"
        assert main(measurement_args(measurement_fixture, out)) == 0
        rows = read_rows(out / "mappings.tsv")
        by_key = {(r["concept_id"], r["ontology"], r["outcome"]): r for r in rows}
        acth_high = by_key[("3000001", "HP", "HIGH")]
        assert acth_high["targets"] == "HP:0003154" and acth_high["logic"] == ""
        assert by_key[("3000001", "HP", "LOW")]["targets"] == "HP:0002920"
        normal = by_key[("3000001", "HP", "NORMAL")]
        assert normal["targets"] == "HP:0011043" and normal["logic"] == "NOT(0)"
        assert by_key[("3000002", "HP", "POSITIVE")]["logic"] == ""
        negative = by_key[("3000002", "HP", "NEGATIVE")]
        assert negative["targets"] == "HP:0500112" and negative["logic"] == "NOT(0)"
        narrative = by_key[("3000003", "HP", "")]
        assert narrative["category"] == "Unmapped"
        assert narrative["unmapped_reason"] == "Not Mapped Test Type"

    @staticmethod
    def _run_curated(fixture, tmp_path, curation_rows, extra_targets=()):
        """``map --domain MEASUREMENT`` on the worked examples plus a curation
        file; returns the exit code and concept 3000001's rows by ontology."""
        curation = tmp_path / "curation.tsv"
        curation.write_text(
            "concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason\n"
            + "".join(row + "\n" for row in curation_rows)
        )
        targets = tmp_path / "measurement_targets.tsv"
        targets.write_text(
            Path(fixture["targets"]).read_text() + "".join(row + "\n" for row in extra_targets)
        )
        out = tmp_path / "out"
        code = main(
            [
                "map",
                "--concepts", fixture["concepts"],
                "--ontology", fixture["ontology"],
                "--code-map", fixture["code_map"],
                "--measurement-scales", fixture["scales"],
                "--measurement-targets", str(targets),
                "--curation", str(curation),
                "--domain", "MEASUREMENT",
                "--out", str(out),
            ]
        )
        by_ontology = {}
        if code == 0:
            for r in read_rows(out / "mappings.tsv"):
                if r["concept_id"] == "3000001":
                    by_ontology.setdefault(r["ontology"], []).append(r)
        return code, by_ontology

    def test_malformed_result_curie_is_parse_error(self, measurement_fixture, tmp_path, capsys):
        targets = tmp_path / "measurement_targets.tsv"
        lines = Path(measurement_fixture["targets"]).read_text().splitlines()
        assert lines[1].startswith("3000001\tHIGH\t")
        lines[1] = "3000001\tHIGH\tnotacurie\t0"
        targets.write_text("\n".join(lines) + "\n")
        argv = measurement_args(dict(measurement_fixture, targets=str(targets)), tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad curie 'notacurie' [{targets}:2]" in err
        assert files_under(tmp_path / "out") == []

    def test_curated_targets_replace_result_rows(self, measurement_fixture, tmp_path):
        code, rows = self._run_curated(
            measurement_fixture, tmp_path, ["3000001\tHP\t\tHP:0011043\tcurator\t"]
        )
        assert code == 0
        [hp] = rows["HP"]
        assert hp["category"] == "Manual One-to-One Concept"
        assert hp["targets"] == "HP:0011043" and hp["outcome"] == ""
        assert hp["evidence"] == "MANUAL_SOURCE:curator"
        assert [r["targets"] for r in rows["UBERON"]] == ["UBERON:0001969"]

    def test_unspecified_sample_unmaps_every_ontology(self, measurement_fixture, tmp_path):
        code, rows = self._run_curated(
            measurement_fixture, tmp_path, ["3000001\tHP\t\t\t\tUNSPECIFIED_SAMPLE"]
        )
        assert code == 0
        assert sorted(rows) == ["CHEBI", "HP", "UBERON"]
        for ontology_rows in rows.values():
            [row] = ontology_rows
            assert row["category"] == "Unmapped" and row["outcome"] == ""
            assert row["unmapped_reason"] == "Unspecified Sample"
            assert row["evidence"] == "EXCLUSION_REASON:Unspecified Sample"

    def test_curation_on_fallback_ontology_wins(self, measurement_fixture, tmp_path):
        code, rows = self._run_curated(
            measurement_fixture, tmp_path, ["3000001\tCHEBI\t\tCHEBI:2679\tcurator\t"]
        )
        assert code == 0
        [chebi] = rows["CHEBI"]
        assert chebi["category"] == "Manual One-to-One Concept"
        assert chebi["targets"] == "CHEBI:2679"
        assert sorted(r["outcome"] for r in rows["HP"]) == ["HIGH", "LOW", "NORMAL"]

    def test_aux_target_on_unloaded_ontology_kept(self, measurement_fixture, tmp_path):
        code, rows = self._run_curated(
            measurement_fixture,
            tmp_path,
            ["3000001\tCHEBI\t\tCHEBI:2679\tcurator\t"],
            extra_targets=["3000001\tGO\tGO:0000001\t0"],
        )
        assert code == 0
        [go] = rows["GO"]
        assert go["category"] == "Manual One-to-One Concept"
        assert go["targets"] == "GO:0000001"
        assert go["evidence"] == "MANUAL_SOURCE:measurement annotation"

    def test_conflicting_curation_on_fallback_ontology(self, measurement_fixture, tmp_path, capsys):
        code, _ = self._run_curated(
            measurement_fixture,
            tmp_path,
            ["3000001\tCHEBI\t\tCHEBI:2679\ta\t", "3000001\tCHEBI\t\t\tb\tFINDING"],
        )
        assert code == 3
        assert "error[CONFLICTING_CURATION]" in capsys.readouterr().err

    def test_curated_reason_on_claimed_ontology(self, measurement_fixture, tmp_path):
        code, rows = self._run_curated(
            measurement_fixture, tmp_path, ["3000001\tHP\t\t\tnote\tFINDING"]
        )
        assert code == 0
        [hp] = rows["HP"]
        assert hp["category"] == "Unmapped" and hp["outcome"] == ""
        assert hp["unmapped_reason"] == "Finding"
        assert hp["evidence"] == "MANUAL_SOURCE:note|EXCLUSION_REASON:Finding"

    def test_conflicting_curation_on_claimed_ontology(self, measurement_fixture, tmp_path, capsys):
        code, _ = self._run_curated(
            measurement_fixture,
            tmp_path,
            ["3000001\tHP\t\tHP:0003154\ta\t", "3000001\tHP\t\tHP:0002920\tb\t"],
        )
        assert code == 3
        assert "error[CONFLICTING_CURATION]" in capsys.readouterr().err


def _write_prevalence(path, rows):
    lines = ["site_id\tconcept_id\trecord_count"]
    lines += [f"{s}\t{c}\t{n}" for s, c, n in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _small_mappings(path):
    header = (
        "concept_id\tdomain\tontology\tcategory\tlevel\tlogic\ttargets\ttarget_labels"
        "\tscore\tevidence\tunmapped_reason\toutcome"
    )
    rows = [
        "1\tCONDITION\tHP\tAutomatic One-to-One Concept\tCONCEPT\t\tHP:1\tx\t\tLABEL_MATCH:x\t\t",
        "2\tCONDITION\tHP\tManual One-to-One Concept\tCONCEPT\t\tHP:2\ty\t\tMANUAL_SOURCE:c\t\t",
        "3\tCONDITION\tHP\tUnmapped\tNONE\t\t\t\t\tEXCLUSION_REASON:Injury\tInjury\t",
    ]
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n")


class TestCoverageCommand:
    def test_partition_and_outputs(self, tmp_path):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(
            prevalence,
            [("a", 1, 500), ("a", 2, 100), ("a", 9, 100), ("b", 1, 300), ("b", 8, 100)],
        )
        out = tmp_path / "out"
        code = main(
            [
                "coverage",
                "--mappings", str(mappings),
                "--prevalence", str(prevalence),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "coverage.json").read_text())
        # mapped {1,2}; site {1,2,8,9}: overlap 2, site-only 2
        assert payload["counts"]["overlap"] == 2
        assert payload["counts"]["site_only"] == 2
        assert payload["unweighted_coverage_pct"] == pytest.approx(50.0)
        # weighted: (500+300+100) / 1100
        assert payload["weighted_coverage_pct"] == pytest.approx(100 * 900 / 1100)
        buckets = (out / "buckets.tsv").read_text().splitlines()
        assert buckets[0] == "concept_id\tbucket"
        assert {line.split("\t")[1] for line in buckets[1:]} == {"TRULY_MISSING"}

    def test_single_site_pairwise_is_header_only(self, tmp_path):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("solo", 1, 100), ("solo", 9, 100)])
        out = tmp_path / "out"
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence), "--out", str(out)]
        ) == 0
        lines = (out / "pairwise.tsv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("site_a\t")
        assert json.loads((out / "coverage.json").read_text())["omnibus"] is None

    def test_buckets_respect_aux_lists(self, tmp_path):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 8, 100), ("a", 9, 100), ("a", 10, 100), ("a", 1, 100)])
        newer = tmp_path / "newer.txt"
        newer.write_text("8\n")
        excluded = tmp_path / "excluded.txt"
        excluded.write_text("8\n9\n")
        out = tmp_path / "out"
        assert main(
            [
                "coverage",
                "--mappings", str(mappings),
                "--prevalence", str(prevalence),
                "--newer-cdm", str(newer),
                "--excluded", str(excluded),
                "--out", str(out),
            ]
        ) == 0
        rows = dict(
            line.split("\t") for line in (out / "buckets.tsv").read_text().splitlines()[1:]
        )
        assert rows == {"8": "RECOVERED_NEWER_CDM", "9": "PURPOSEFULLY_EXCLUDED", "10": "TRULY_MISSING"}

    def test_repeated_site_concept_is_parse_error(self, tmp_path, capsys):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 2, 100), ("a", 2, 700), ("b", 2, 100)])
        out = tmp_path / "out"
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence), "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "error[DUPLICATE_ID]: concept_id 2 repeated for site 'a'" in err
        assert f"[{prevalence}:3]" in err
        assert files_under(out) == []

    def test_non_integer_concept_id_is_parse_error(self, tmp_path, capsys):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        with open(mappings, "a") as fh:
            fh.write("4x\tCONDITION\tHP\tUnmapped\tNONE\t\t\t\t\tEXCLUSION_REASON:None\tNone\t\n")
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 1, 100), ("b", 9, 100)])
        out = tmp_path / "out"
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence), "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "error[MALFORMED_ROW]: bad concept_id '4x'" in err and f"[{mappings}:5]" in err
        assert files_under(out) == []

    @pytest.mark.parametrize("alpha", ["-1", "0", "1", "5", "nan", "inf"])
    def test_alpha_outside_unit_interval_is_config_error(self, tmp_path, capsys, alpha):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 1, 100), ("b", 9, 100)])
        out = tmp_path / "out"
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence),
             "--out", str(out), f"--alpha={alpha}"]
        ) == 1
        assert "error[BAD_THRESHOLD]" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_from_config_is_range_checked(self, tmp_path, capsys):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 1, 100), ("b", 9, 100)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 5}))
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence),
             "--out", str(tmp_path / "out"), "--config", str(config)]
        ) == 1
        assert "error[BAD_THRESHOLD]" in capsys.readouterr().err


def _write_phers_inputs(root, cohort_rows, phenotype_rows, weight_rows):
    weights = root / "weights.tsv"
    weights.write_text(
        "hpo_curie\tweight\n" + "".join(f"{c}\t{w}\n" for c, w in weight_rows)
    )
    patients = root / "patients.tsv"
    patients.write_text(
        "patient_id\thpo_curie\n" + "".join(f"{p}\t{c}\n" for p, c in phenotype_rows)
    )
    cohort = root / "cohort.tsv"
    cohort.write_text(
        "patient_id\tgroup\n" + "".join(f"{p}\t{g}\n" for p, g in cohort_rows)
    )
    return weights, patients, cohort


class TestPhersCommand:
    def test_three_patient_standardization(self, tmp_path):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CONTROL"), ("p2", "CONTROL"), ("p3", "CASE")],
            [("p1", "HP:1"), ("p2", "HP:1"), ("p2", "HP:2"), ("p3", "HP:1"), ("p3", "HP:2"), ("p3", "HP:3")],
            [("HP:1", 1.0), ("HP:2", 1.0), ("HP:3", 1.0)],
        )
        out = tmp_path / "out"
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(out)]
        ) == 0
        rows = read_rows(out / "phers.tsv")
        z = {r["patient_id"]: float(r["standardized"]) for r in rows}
        assert z["p1"] == pytest.approx(-1.0)
        assert z["p2"] == pytest.approx(0.0)
        assert z["p3"] == pytest.approx(1.0)
        payload = json.loads((out / "test.json").read_text())
        assert payload["cases"]["count"] == 1 and payload["controls"]["count"] == 2

    def test_output_independent_of_hash_seed(self, tmp_path):
        rng = random.Random(3)
        curies = [f"HP:{i:07d}" for i in range(60)]
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [(f"p{j:02d}", "CASE" if j % 2 else "CONTROL") for j in range(20)],
            [(f"p{j:02d}", c) for j in range(20) for c in rng.sample(curies, 25)],
            [(c, rng.uniform(0.0, 10.0) * 10.0 ** rng.randint(-6, 6)) for c in curies],
        )
        outputs = outputs_under_hash_seeds(
            tmp_path,
            lambda out: ["phers", "--weights", str(weights), "--patients", str(patients),
                         "--cohort", str(cohort), "--out", str(out)],
            ("phers.tsv", "test.json"),
        )
        assert outputs[0] == outputs[1]

    def test_repeated_patient_is_parse_error(self, tmp_path, capsys):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CASE"), ("p2", "CONTROL"), ("p3", "CONTROL"), ("p1", "CASE")],
            [("p1", "HP:1"), ("p2", "HP:2")],
            [("HP:1", 1.0), ("HP:2", 2.0)],
        )
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err
        assert "error[DUPLICATE_ID]" in err and f"[{cohort}:5]" in err

    def test_repeated_weight_curie_is_parse_error(self, tmp_path, capsys):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CASE"), ("p2", "CONTROL"), ("p3", "CONTROL")],
            [("p1", "HP:1"), ("p2", "HP:2")],
            [("HP:1", 1.0), ("HP:2", 2.0), ("HP:1", 5.0)],
        )
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err
        assert "error[DUPLICATE_ID]: hpo_curie 'HP:1' repeated" in err and f"[{weights}:4]" in err

    def test_bad_group_error_has_line(self, tmp_path, capsys):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CASE"), ("p2", "SIBLING"), ("p3", "CONTROL")],
            [("p1", "HP:1")],
            [("HP:1", 1.0)],
        )
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err
        assert "error[MALFORMED_ROW]: bad group 'SIBLING'" in err and f"[{cohort}:3]" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_is_parse_error(self, tmp_path, capsys, weight):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CASE"), ("p2", "CONTROL"), ("p3", "CONTROL")],
            [("p1", "HP:1"), ("p2", "HP:2"), ("p3", "HP:1")],
            [("HP:1", 1.0), ("HP:2", weight)],
        )
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err
        assert "error[MALFORMED_ROW]" in err and f"[{weights}:3]" in err

    def test_rows_outside_cohort_are_counted(self, tmp_path):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CONTROL"), ("p2", "CONTROL"), ("p3", "CASE")],
            [("p1", "HP:1"), ("p9", "HP:1"), ("p2", "HP:1"), ("p2", "HP:2"), ("p9", "HP:1"),
             ("p3", "HP:1"), ("p3", "HP:2"), ("p3", "HP:3"), ("p8", "HP:3")],
            [("HP:1", 1.0), ("HP:2", 1.0), ("HP:3", 1.0)],
        )
        out = tmp_path / "out"
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(out)]
        ) == 0
        assert json.loads((out / "test.json").read_text())["out_of_cohort_rows"] == 3
        assert [r["patient_id"] for r in read_rows(out / "phers.tsv")] == ["p1", "p2", "p3"]

    def test_empty_group_is_data_error(self, tmp_path):
        weights, patients, cohort = _write_phers_inputs(
            tmp_path,
            [("p1", "CASE"), ("p2", "CASE")],
            [("p1", "HP:1")],
            [("HP:1", 1.0)],
        )
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(tmp_path / "o")]
        ) == 3

    def test_shifted_cases_significant_with_permutation_oracle(self, tmp_path):
        # 10 cases uniformly above 10 controls; oracle = full enumeration.
        case_ids = [f"c{i}" for i in range(10)]
        control_ids = [f"k{i}" for i in range(10)]
        cohort_rows = [(p, "CASE") for p in case_ids] + [(p, "CONTROL") for p in control_ids]
        phenotype_rows = []
        weight_rows = [(f"HP:{i}", 1.0) for i in range(25)]
        for i, p in enumerate(case_ids):
            for k in range(i + 8):
                phenotype_rows.append((p, f"HP:{k}"))
        for i, p in enumerate(control_ids):
            for k in range(i):
                phenotype_rows.append((p, f"HP:{k}"))
        weights, patients, cohort = _write_phers_inputs(
            tmp_path, cohort_rows, phenotype_rows, weight_rows
        )
        out = tmp_path / "out"
        assert main(
            ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort), "--out", str(out)]
        ) == 0
        payload = json.loads((out / "test.json").read_text())
        assert payload["p_value"] < 0.05

        rows = read_rows(out / "phers.tsv")
        cases = [float(r["standardized"]) for r in rows if r["group"] == "CASE"]
        controls = [float(r["standardized"]) for r in rows if r["group"] == "CONTROL"]
        ranks = midranks(cases + controls)
        observed = sum(ranks[: len(cases)])
        hits = total = 0
        for subset in combinations(range(len(ranks)), len(cases)):
            total += 1
            hits += sum(ranks[i] for i in subset) >= observed
        assert hits / total < 0.05  # oracle agrees the shift is significant


class TestExportSssom:
    def test_flattening(self, condition_fixture, tmp_path):
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out) == 0
        target = tmp_path / "sssom.tsv"
        code = main(
            [
                "export-sssom",
                "--mappings", str(out / "mappings.tsv"),
                "--concepts", condition_fixture["concepts"],
                "--out", str(tmp_path),
                "--sssom-out", str(target),
            ]
        )
        assert code == 0
        rows = read_rows(target)
        mapping_rows = read_rows(out / "mappings.tsv")
        expected = sum(len([t for t in r["targets"].split("|") if t]) for r in mapping_rows)
        assert len(rows) == expected

        one_to_one = [r for r in rows if r["subject_id"] == "SNOMED:70305005"]
        assert len(one_to_one) == 1
        assert one_to_one[0]["object_id"] == "HP:0011095"
        assert one_to_one[0]["mapping_justification"] == "semapv:LexicalMatching"

        many = [r for r in rows if r["subject_id"] == "SNOMED:9147009"]
        assert len(many) == 2
        assert len({r["mapping_set_id"] for r in many}) == 1

        manual = [r for r in rows if r["subject_id"] == "SNOMED:37693003"]
        assert manual[0]["mapping_justification"] == "semapv:ManualMappingCuration"

        cosine = [r for r in rows if r["subject_id"] == "SNOMED:162397003"]
        assert cosine[0]["mapping_justification"] == "semapv:SemanticSimilarityThresholdMatching"


    def test_non_integer_concept_id_is_parse_error(self, condition_fixture, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_map_cli(condition_fixture, run) == 0
        mappings = run / "mappings.tsv"
        lines = mappings.read_text().splitlines()
        # The bad row comes last, after rows that are rendered and written.
        bad = lines[1].split("\t")
        bad[0] = "12.5"
        mappings.write_text("\n".join(lines + ["\t".join(bad)]) + "\n")
        out = tmp_path / "out"
        assert main(
            ["export-sssom", "--mappings", str(mappings), "--concepts", condition_fixture["concepts"],
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "error[MALFORMED_ROW]: bad concept_id '12.5'" in err
        assert f"[{mappings}:{len(lines) + 1}]" in err
        assert files_under(out) == []


class TestWholeOutputs:
    """An output file is written whole or not at all."""

    def test_failed_write_keeps_earlier_output(self, tmp_path):
        out = tmp_path / "mappings.tsv"
        pipeline._write_text(out, ["earlier"])
        # A lone surrogate cannot be encoded: the write fails part way.
        with pytest.raises(UnicodeEncodeError):
            pipeline._write_text(out, ["row"] * 10_000 + ["\ud800"])
        assert out.read_text() == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["mappings.tsv"]

    def test_failed_write_of_new_file_leaves_nothing(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            pipeline._write_text(tmp_path / "out" / "summary.json", ["{"] * 10_000 + ["\ud800"])
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_replace_keeps_earlier_output(self, tmp_path, monkeypatch, condition_fixture):
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.os, "replace", refuse)
        assert run_map_cli(condition_fixture, out) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestStreamedMap:
    """``map`` validates, writes and tallies one concept's records at a time."""

    def _fail_halfway(self, monkeypatch, out, total):
        """Make ``validate_record`` report a violation at its middle call,
        after checking that rows are already being written there."""
        calls = []
        original = pipeline.validate_record

        def validate(record):
            calls.append(record)
            if len(calls) == total // 2:
                assert any(p.name.endswith(".tmp") for p in out.iterdir())
                return Violation("injected", "targets")
            return original(record)

        monkeypatch.setattr(pipeline, "validate_record", validate)
        return calls

    def test_invalid_record_mid_stream_leaves_no_outputs(self, condition_fixture, tmp_path, monkeypatch, capsys):
        reference = tmp_path / "reference"
        assert run_map_cli(condition_fixture, reference) == 0
        total = len((reference / "mappings.tsv").read_text().splitlines()) - 1
        assert total >= 4

        out = tmp_path / "fresh"
        calls = self._fail_halfway(monkeypatch, out, total)
        assert run_map_cli(condition_fixture, out) == 3
        assert len(calls) == total // 2
        assert "error[INVALID_RECORD]" in capsys.readouterr().err
        assert files_under(out) == []

    def test_invalid_record_mid_stream_keeps_earlier_outputs(self, condition_fixture, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out) == 0
        before = {name: (out / name).read_bytes() for name in files_under(out)}
        total = len((out / "mappings.tsv").read_text().splitlines()) - 1

        self._fail_halfway(monkeypatch, out, total)
        assert run_map_cli(condition_fixture, out, extra=["--tau", "0.5"]) == 3
        assert {name: (out / name).read_bytes() for name in files_under(out)} == before

    def test_rows_in_global_order(self, tmp_path, monkeypatch):
        """Rows sort by (concept id, ontology, outcome order, targets) on the
        generated ladder inputs, whose measurement records need the
        per-concept sort: auxiliary targets on an ontology that was not
        loaded come last out of ``synthesize``."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        gen = importlib.import_module("gen")
        workloads = importlib.import_module("workloads")
        gen.generate("map-ladder", tmp_path / "in", 1, "tiny")
        for argv, out, _ in workloads.commands("map-ladder", tmp_path / "in" / "program", tmp_path / "out"):
            assert main(argv) == 0
            keys = [
                (
                    int(r["concept_id"]),
                    r["ontology"],
                    OUTCOME_ORDER[MeasurementOutcome(r["outcome"])] if r["outcome"] else -1,
                    tuple(r["targets"].split("|")) if r["targets"] else (),
                )
                for r in read_rows(out / "mappings.tsv")
            ]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("fixture", ["condition_fixture", "measurement_fixture"])
    def test_live_records_stay_within_one_concept(self, fixture, request, tmp_path, monkeypatch):
        paths = request.getfixturevalue(fixture)
        out = tmp_path / "out"
        args = map_args(paths, out) if fixture == "condition_fixture" else measurement_args(paths, out)
        gc.collect()
        already = sum(isinstance(o, MappingRecord) for o in gc.get_objects())
        live = []
        original = pipeline.validate_record

        def validate(record):
            live.append(sum(isinstance(o, MappingRecord) for o in gc.get_objects()) - already)
            return original(record)

        monkeypatch.setattr(pipeline, "validate_record", validate)
        assert main(args) == 0
        per_concept = Counter(r["concept_id"] for r in read_rows(out / "mappings.tsv"))
        assert len(per_concept) > 1 and len(live) == sum(per_concept.values())
        assert max(live) <= max(per_concept.values()), (max(live), per_concept)


class TestHashSeed:
    """Outputs are byte-identical under two PYTHONHASHSEED values (``phers``
    is covered in TestPhersCommand)."""

    @pytest.mark.parametrize("command", ["map", "coverage", "export-sssom"])
    def test_output_independent_of_hash_seed(self, command, condition_fixture, tmp_path):
        mapped = tmp_path / "mapped"
        assert run_map_cli(condition_fixture, mapped) == 0
        mappings = str(mapped / "mappings.tsv")
        if command == "map":
            make_argv = lambda out: map_args(condition_fixture, out)
            names = ("mappings.tsv", "summary.json")
        elif command == "coverage":
            rng = random.Random(5)
            extra_ids = list(range(900000, 900040))
            ids = sorted({int(r["concept_id"]) for r in read_rows(mappings)} | set(extra_ids))
            prevalence = tmp_path / "prevalence.tsv"
            _write_prevalence(
                prevalence,
                [(f"site{s}", cid, rng.randint(1, 5000)) for s in range(5) for cid in rng.sample(ids, 20)],
            )
            newer = tmp_path / "newer.txt"
            newer.write_text("".join(f"{i}\n" for i in extra_ids[:10]))
            excluded = tmp_path / "excluded.txt"
            excluded.write_text("".join(f"{i}\n" for i in extra_ids[5:15]))
            make_argv = lambda out: [
                "coverage", "--mappings", mappings, "--prevalence", str(prevalence),
                "--newer-cdm", str(newer), "--excluded", str(excluded), "--out", str(out),
            ]
            names = ("coverage.json", "pairwise.tsv", "buckets.tsv")
        else:
            make_argv = lambda out: [
                "export-sssom", "--mappings", mappings, "--concepts", condition_fixture["concepts"],
                "--out", str(out),
            ]
            names = ("mappings_sssom.tsv",)
        outputs = outputs_under_hash_seeds(tmp_path, make_argv, names)
        assert outputs[0] == outputs[1]


_MODULE_PROBE = """
import json, sys

def loaded():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] == "termbridge" or name in ("numpy", "scipy", "statistics")
    )

import termbridge.cli

report = [loaded()]
for argv in json.loads(sys.argv[1]):
    report += [termbridge.cli.main(argv), loaded()]
print(json.dumps(report))
"""


def modules_after(*commands):
    """The termbridge modules, and which of numpy, scipy and statistics, are
    loaded after importing termbridge.cli in a fresh interpreter, then each
    command's exit code and the same list after it."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
        env=subprocess_env(), check=True, capture_output=True, text=True, timeout=60,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _evaluate_commands(paths, tmp_path):
    mappings = tmp_path / "mappings.tsv"
    _small_mappings(mappings)
    prevalence = tmp_path / "prevalence.tsv"
    _write_prevalence(prevalence, [("a", 1, 500), ("a", 9, 100), ("b", 1, 300), ("b", 8, 100)])
    weights, patients, cohort = _write_phers_inputs(
        tmp_path,
        [("p1", "CONTROL"), ("p2", "CONTROL"), ("p3", "CASE")],
        [("p1", "HP:1"), ("p2", "HP:2"), ("p3", "HP:1"), ("p3", "HP:2")],
        [("HP:1", 1.0), ("HP:2", 2.0)],
    )
    return [
        ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence),
         "--out", str(tmp_path / "coverage")],
        ["phers", "--weights", str(weights), "--patients", str(patients),
         "--cohort", str(cohort), "--out", str(tmp_path / "phers")],
        ["export-sssom", "--mappings", str(mappings), "--concepts", paths["concepts"],
         "--out", str(tmp_path / "sssom")],
    ]


_MAP_MODULES = {"termbridge.align", "termbridge.similarity", "termbridge.synthesize", "numpy"}
_EVALUATE_MODULES = {"termbridge.evaluate", "termbridge.stats", "statistics"}


class TestImportCost:
    """Importing ``termbridge.cli`` loads only ``core`` and ``errors``; each
    command loads only its own modules.  Only ``map`` loads numpy, and
    nothing loads scipy.  Each command runs in its own fresh interpreter."""

    def test_import_loads_core_and_errors_only(self):
        assert modules_after() == [
            ["termbridge", "termbridge.cli", "termbridge.core", "termbridge.errors"]
        ]

    def test_evaluate_commands_load_neither(self, condition_fixture, tmp_path):
        for argv in _evaluate_commands(condition_fixture, tmp_path):
            _, code, modules = modules_after(argv)
            assert code == 0, argv[0]
            assert not (_MAP_MODULES | {"scipy"}) & set(modules), (argv[0], modules)
            assert "termbridge.pipeline" in modules

    def test_map_loads_numpy_only(self, condition_fixture, tmp_path):
        imported, code, modules = modules_after(map_args(condition_fixture, tmp_path / "out"))
        assert code == 0
        assert "numpy" not in imported
        assert _MAP_MODULES <= set(modules)
        assert not (_EVALUATE_MODULES | {"scipy"}) & set(modules), modules

    def test_replacements_set_before_the_first_command_are_kept(self, condition_fixture, tmp_path):
        """A function set on ``termbridge.pipeline`` or ``termbridge.cli``
        before a command has loaded its modules is the one the command
        calls, and is still in place once they have loaded."""
        script = """
import json, sys
import termbridge.cli as cli
import termbridge.pipeline as pipeline

calls = []

def replacement(name, module):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return getattr(__import__(module, fromlist=[name]), name)(*args, **kwargs)
    return wrapper

wrappers = {
    (pipeline, "fit"): replacement("fit", "termbridge.similarity"),
    (pipeline, "partition_coverage"): replacement("partition_coverage", "termbridge.evaluate"),
    (cli, "run_coverage"): replacement("run_coverage", "termbridge.pipeline"),
}
loaded_before = sorted(m for m in sys.modules if m.startswith("termbridge."))
for (module, name), wrapper in wrappers.items():
    setattr(module, name, wrapper)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
kept = [getattr(module, name) is wrapper for (module, name), wrapper in wrappers.items()]
print(json.dumps([loaded_before, codes, calls, kept]))
"""
        coverage = _evaluate_commands(condition_fixture, tmp_path)[0]
        commands = [map_args(condition_fixture, tmp_path / "map"), coverage]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            env=subprocess_env(), check=True, capture_output=True, text=True, timeout=60,
        )
        loaded_before, codes, calls, kept = json.loads(proc.stdout.splitlines()[-1])
        assert not {"termbridge.similarity", "termbridge.evaluate"} & set(loaded_before)
        assert codes == [0, 0]
        assert calls == ["fit", "run_coverage", "partition_coverage"]
        assert kept == [True, True, True]


class TestExitCodes:
    def test_internal_error_exits_4_with_its_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("stage fault")

        monkeypatch.setattr(pipeline, "partition_coverage", broken)
        argv = _evaluate_commands({"concepts": ""}, tmp_path)[0]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[INTERNAL]: RuntimeError: stage fault\n")
        assert "Traceback (most recent call last):" in err and "in broken" in err

    def test_keyboard_interrupt_is_not_caught(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "partition_coverage", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(_evaluate_commands({"concepts": ""}, tmp_path)[0])

    def test_runs_under_cprofile(self, tmp_path):
        # cProfile runs the module through runpy, in a namespace that is not
        # the module ``termbridge.cli``.
        argv = _evaluate_commands({"concepts": ""}, tmp_path)[0]
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile"), "-m", "termbridge.cli", *argv],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "coverage" / "coverage.json").is_file()


class TestUndecodableInput:
    """An input file that is not UTF-8 ends in a coded error, never a traceback."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("map", "--concepts"),
            ("map", "--ontology"),
            ("coverage", "--mappings"),
            ("coverage", "--prevalence"),
            ("phers", "--weights"),
        ],
    )
    def test_input_file_is_parse_error(self, command, flag, condition_fixture, tmp_path, capsys):
        if command == "map":
            argv = map_args(condition_fixture, tmp_path / "out")
        else:
            argv = next(a for a in _evaluate_commands(condition_fixture, tmp_path) if a[0] == command)
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff\xfe bad\n")
        argv[argv.index(flag) + 1] = str(bad)
        assert main(argv) == 2
        assert f"error[BAD_ENCODING]: not UTF-8: invalid start byte [{bad}:1]" in capsys.readouterr().err

    def test_config_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"out": "\xff\xfe"}\n')
        assert main(["map", "--config", str(config)]) == 1
        assert "error[BAD_CONFIG]: --config:" in capsys.readouterr().err
