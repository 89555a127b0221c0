"""Command-line behavior: golden outputs, determinism, exit codes, formats."""

import gc
import importlib
import json
import os
import random
import re
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
from termbridge.ingest import CONCEPT_COLUMNS, MAPPING_COLUMNS, header_line
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

    def test_rows_for_unlisted_concepts_are_reported(self, condition_fixture, measurement_fixture, tmp_path, capsys):
        # Concepts 999999 and 999998 are in no domain of concepts.tsv; their
        # rows make no record and change no output, and each input says so.
        # An ancestor row's child 999999 is listed in no domain either.
        assert run_map_cli(condition_fixture, tmp_path / "golden") == 0
        assert main(measurement_args(measurement_fixture, tmp_path / "measurement")) == 0
        assert capsys.readouterr().err == ""
        added = {}
        for paths, key, rows in (
            (condition_fixture, "ancestors", ["999999\t22945"]),
            (condition_fixture, "curation", ["999999\tHP\t\tHP:0011095\tx\t"]),
            (measurement_fixture, "scales", ["999998\tQUANTITATIVE\tNUMERIC"]),
            (measurement_fixture, "targets", ["999998\tHIGH\tHP:0003154\t0", "999998\tUBERON\tUBERON:0001969\t0"]),
        ):
            added[key] = tmp_path / Path(paths[key]).name
            added[key].write_text(Path(paths[key]).read_text() + "".join(row + "\n" for row in rows))
        paths = dict(condition_fixture, ancestors=str(added["ancestors"]), curation=str(added["curation"]))
        assert run_map_cli(paths, tmp_path / "golden-added") == 0
        assert capsys.readouterr().err == (
            "warning: concept_ancestors.tsv: 1 row names a concept that concepts.tsv does not list\n"
            "warning: curation.tsv: 1 row names a concept that concepts.tsv does not list\n"
        )
        paths = dict(measurement_fixture, scales=str(added["scales"]), targets=str(added["targets"]))
        assert main(measurement_args(paths, tmp_path / "measurement-added")) == 0
        assert capsys.readouterr().err == (
            "warning: measurement_scales.tsv: 1 row names a concept that concepts.tsv does not list\n"
            "warning: measurement_targets.tsv: 2 rows name a concept that concepts.tsv does not list\n"
        )
        for run in ("golden", "measurement"):
            for name in ("mappings.tsv", "summary.json"):
                assert (tmp_path / f"{run}-added" / name).read_bytes() == (tmp_path / run / name).read_bytes()

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

    def test_conflicting_curation_is_parse_error(self, tmp_path, condition_fixture, capsys):
        dup = tmp_path / "curation.tsv"
        dup.write_text(
            "concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason\n"
            "22945\tHP\t\tHP:0011095\ta\t\n"
            "22945\tHP\t\tHP:0033050\tb\t\n"
        )
        paths = dict(condition_fixture)
        paths["curation"] = str(dup)
        assert run_map_cli(paths, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error[CONFLICTING_CURATION]: two curation rows for concept 22945 / HP [{dup}:3]" in err
        assert not (tmp_path / "out").exists()

    def test_class_in_two_dumps_is_parse_error(self, tmp_path, condition_fixture, capsys):
        """The second dump's line that repeats a class is named."""
        lines = Path(condition_fixture["ontology"]).read_text().splitlines()
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_text("\n".join(lines[:4]) + "\n")
        second.write_text("\n".join(lines[4:] + [lines[2]]) + "\n")
        argv = map_args(dict(condition_fixture, ontology=str(first)), tmp_path / "out", ["--ontology", str(second)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[DUPLICATE_CURIE]: ")
        assert err.rstrip().endswith(f" [{second}:{len(lines) - 3}]"), err
        assert not (tmp_path / "out").exists()

    def test_deprecated_class_is_a_curation_target_only(self, tmp_path, condition_fixture):
        """MONDO:0099999 is deprecated and shares its label with MONDO:0001414:
        a curation row may target it and gets its label, but no exact or
        cosine record does."""
        curation = tmp_path / "curation.tsv"
        lines = Path(condition_fixture["curation"]).read_text().splitlines()
        curation.write_text("\n".join([*lines, "22945\tMONDO\t\tMONDO:0099999\tnote\t"]) + "\n")
        out = tmp_path / "out"
        assert run_map_cli(dict(condition_fixture, curation=str(curation)), out) == 0
        by_key = {(r["concept_id"], r["ontology"]): r for r in read_rows(out / "mappings.tsv")}
        curated = by_key[("22945", "MONDO")]
        assert (curated["category"], curated["targets"]) == ("Manual One-to-One Concept", "MONDO:0099999")
        assert curated["target_labels"] == "Osteopoikilosis"
        assert by_key[("78854", "MONDO")]["targets"] == "MONDO:0001414|MONDO:0008157"
        aligned = [r for r in by_key.values() if r["category"].startswith(("Automatic", "Cosine"))]
        assert len(aligned) == 9
        assert not [r for r in aligned if "MONDO:0099999" in r["targets"]]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ingest_warnings"]["unknown_curation_targets"] == []

    def test_delimiter_in_curation_evidence_is_data_error(self, tmp_path, condition_fixture, capsys):
        curation = tmp_path / "curation.tsv"
        curation.write_text(
            "concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason\n"
            "22945\tHP\t\tHP:0011095\tPMID:1|PMID:2\t\n"
        )
        out = tmp_path / "out"
        assert run_map_cli(dict(condition_fixture, curation=str(curation)), out) == 3
        err = capsys.readouterr().err
        assert "error[INVALID_RECORD]: concept 22945/HP: evidence delimiter at evidence[0].payload" in err
        assert not out.exists()

    def test_curation_target_in_another_ontology_is_parse_error(self, tmp_path, condition_fixture, capsys):
        curation = tmp_path / "curation.tsv"
        lines = Path(condition_fixture["curation"]).read_text().splitlines()
        curation.write_text("\n".join([*lines, "22945\tHP\t\tMONDO:0001414\tx\t"]) + "\n")
        out = tmp_path / "out"
        assert run_map_cli(dict(condition_fixture, curation=str(curation)), out) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad targets 'MONDO:0001414': not a HP class [{curation}:{len(lines) + 1}]" in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["439140\tMONDO\tAND(0\tMONDO:0001414|MONDO:0008157\tx\t",
                                     "9999999\tHP\tNOT(0)\t\tx\tINJURY"])
    def test_curation_logic_that_does_not_fit_is_parse_error(self, row, tmp_path, condition_fixture, capsys):
        # Checked where the file is read, also on a row no concept of the run reads.
        curation = tmp_path / "curation.tsv"
        lines = Path(condition_fixture["curation"]).read_text().splitlines()
        curation.write_text("\n".join([*lines, row]) + "\n")
        out = tmp_path / "out"
        assert run_map_cli(dict(condition_fixture, curation=str(curation)), out) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad logic '{row.split(chr(9))[2]}': " in err
        assert f"[{curation}:{len(lines) + 1}]" in err
        assert not out.exists()

    def test_curation_target_without_local_id_is_parse_error(self, tmp_path, condition_fixture, capsys):
        curation = tmp_path / "curation.tsv"
        lines = Path(condition_fixture["curation"]).read_text().splitlines()
        curation.write_text("\n".join([*lines, "22945\tHP\t\tHP:\tx\t"]) + "\n")
        out = tmp_path / "out"
        assert run_map_cli(dict(condition_fixture, curation=str(curation)), out) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad targets 'HP:' [{curation}:{len(lines) + 1}]" in err
        assert not out.exists()

    def test_bad_threshold_is_config_error(self, condition_fixture, tmp_path):
        assert run_map_cli(condition_fixture, tmp_path / "out", extra=["--tau", "2.0"]) == 1

    @pytest.mark.parametrize(
        "flag, value, interval",
        [("--tau", "-0.1", "[0, 1]"), ("--tau", "1.5", "[0, 1]"), ("--tau", "nan", "[0, 1]"),
         ("--rho", "0", "(0, 1]"), ("--rho", "1.5", "(0, 1]"), ("--rho", "nan", "(0, 1]")],
        ids=["tau-negative", "tau-above_one", "tau-nan", "rho-zero", "rho-above_one", "rho-nan"],
    )
    def test_threshold_outside_its_interval_is_config_error(
        self, condition_fixture, tmp_path, capsys, flag, value, interval
    ):
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out, extra=[f"{flag}={value}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error[BAD_THRESHOLD]: {flag} must lie in {interval}, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("tau", 2), ("rho", 0.0)])
    def test_threshold_from_config_is_range_checked(self, condition_fixture, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run_map_cli(condition_fixture, out, extra=["--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error[BAD_THRESHOLD]: --{key} must lie in ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, error",
        [("concepts", "error[NO_SUCH_FILE]: --concepts: "),
         ("mrsty", "error[MISSING_INPUT]: MRCONSO and MRSTY must be supplied together")],
    )
    def test_input_error_reported_before_bad_threshold(self, condition_fixture, tmp_path, capsys, change, error):
        out = tmp_path / "out"
        args = map_args(condition_fixture, out, ["--tau", "2"])
        if change == "concepts":
            args[args.index("--concepts") + 1] = str(tmp_path / "absent.tsv")
        else:
            i = args.index("--umls-mrsty")
            del args[i:i + 2]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(error)
        assert not out.exists()

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

    def test_null_config_value_is_unset(self, condition_fixture, tmp_path):
        config = {
            "concepts": condition_fixture["concepts"],
            "ontology": [condition_fixture["ontology"]],
            "code_map": condition_fixture["code_map"],
            "out": str(tmp_path / "out"),
            "ancestors": None,
            "tau": None,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["map", "--config", str(config_path)]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["similarity"]["score_floor"] == 0.25

    @pytest.mark.parametrize(
        "bad",
        [{"tau": "abc"}, {"jobs": [1]}, {"ontology": 5}, {"tau": True}, {"tau": "0.3"}, {"jobs": 2.9}],
        ids=["tau", "jobs", "ontology", "tau_bool", "tau_string", "jobs_float"],
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

    @pytest.mark.parametrize(
        "row", ["3000003\tHIGH\tHP:0003154\t0", "3000003\tUBERON\tUBERON:0001969\t0"], ids=["result", "auxiliary"]
    )
    def test_row_for_unknown_result_type_is_data_error(self, measurement_fixture, tmp_path, capsys, row):
        # 3000003 is NARRATIVE: it is Not Mapped Test Type on every ontology, so no row can target it.
        targets = tmp_path / "measurement_targets.tsv"
        targets.write_text(Path(measurement_fixture["targets"]).read_text() + row + "\n")
        paths = dict(measurement_fixture, targets=str(targets))
        assert main(measurement_args(paths, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[OUTCOME_MISMATCH]: concept 3000003: "), err
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    def test_malformed_auxiliary_curie_is_parse_error(self, measurement_fixture, tmp_path, capsys):
        targets = tmp_path / "measurement_targets.tsv"
        lines = Path(measurement_fixture["targets"]).read_text().splitlines()
        assert lines[5].startswith("3000001\tUBERON\t")
        lines[5] = "3000001\tUBERON\tnotacurie\t0"
        targets.write_text("\n".join(lines) + "\n")
        argv = measurement_args(dict(measurement_fixture, targets=str(targets)), tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad curie 'notacurie' [{targets}:6]" in err
        assert not (tmp_path / "out").exists()

    def test_auxiliary_target_in_another_ontology_is_parse_error(self, measurement_fixture, tmp_path, capsys):
        targets = tmp_path / "measurement_targets.tsv"
        lines = Path(measurement_fixture["targets"]).read_text().splitlines()
        targets.write_text("\n".join([*lines, "3000001\tUBERON\tHP:0003154\t0"]) + "\n")
        argv = measurement_args(dict(measurement_fixture, targets=str(targets)), tmp_path / "out")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad curie 'HP:0003154': not a UBERON class [{targets}:{len(lines) + 1}]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, row, verdict",
        [
            (4, "3000001\tNORMAL\tHP:0011043\t0", "MALFORMED_ROW"),
            (2, "3000001\tHIGH\tHP:0003154\t1", "MALFORMED_ROW"),
            (5, "3000002\tNEGATIVE\tHP:0500112\t0", "MALFORMED_ROW"),
            (9, "3000001\tLOW\tHP:0003154\t0", "DUPLICATE_ID"),
        ],
        ids=["normal_not_negated", "high_negated", "lone_negative_not_negated", "second_low"],
    )
    def test_inconsistent_result_row_is_parse_error(self, measurement_fixture, tmp_path, capsys, line, row, verdict):
        """A result row's negated column is 1 exactly for NORMAL and NEGATIVE,
        and a concept lists an outcome once."""
        targets = tmp_path / "measurement_targets.tsv"
        lines = Path(measurement_fixture["targets"]).read_text().splitlines()
        lines[line - 1:line] = [row]
        targets.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(measurement_args(dict(measurement_fixture, targets=str(targets)), out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{verdict}]: outcome ") and f"[{targets}:{line}]" in err
        assert not out.exists()

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
        assert code == 2
        err = capsys.readouterr().err
        assert f"error[CONFLICTING_CURATION]: two curation rows for concept 3000001 / CHEBI [{tmp_path}" in err
        assert err.rstrip().endswith("curation.tsv:3]")

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
        assert code == 2
        err = capsys.readouterr().err
        assert f"error[CONFLICTING_CURATION]: two curation rows for concept 3000001 / HP [{tmp_path}" in err
        assert err.rstrip().endswith("curation.tsv:3]")


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


def _small_concepts(path):
    """A concepts.tsv listing concepts 1 to 4: those of ``_small_mappings``
    and of the rows appended to it."""
    rows = [f"{cid}\tSNOMED\t{cid}{cid}\tconcept {cid}\t\tCONDITION\t1\t3" for cid in range(1, 5)]
    Path(path).write_text(header_line(CONCEPT_COLUMNS) + "\n" + "\n".join(rows) + "\n")


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

    @pytest.mark.parametrize("category", ["Automatic One-to-One Concept", "Unmapped"], ids=["all", "none"])
    def test_every_or_no_site_concept_covered(self, tmp_path, category):
        # No site table has an uncovered (or a covered) concept: no test has a statistic.
        mappings = tmp_path / "mappings.tsv"
        rows = [
            f"{c}\tCONDITION\tHP\tAutomatic One-to-One Concept\tCONCEPT\t\tHP:{c}\tx\t\tLABEL_MATCH:x\t\t"
            if category != "Unmapped"
            else f"{c}\tCONDITION\tHP\tUnmapped\tNONE\t\t\t\t\tEXCLUSION_REASON:None\tNone\t"
            for c in (1, 2)
        ]
        mappings.write_text("\n".join([header_line(MAPPING_COLUMNS), *rows]) + "\n")
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 1, 100), ("b", 2, 100)])
        out = tmp_path / "out"
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence), "--out", str(out)]
        ) == 0
        payload = json.loads((out / "coverage.json").read_text())
        assert payload["omnibus"] is None and payload["pairwise_fraction_significant"] == 0.0
        assert payload["counts"]["overlap"] == (2 if category != "Unmapped" else 0)
        assert (out / "pairwise.tsv").read_text().splitlines()[1:] == ["a\tb\t\t\t\t0.05\t0"]

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
        assert not out.exists()

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
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, label", [(2, "Automatc One-to-One Concept"), (4, "unmapped")], ids=["misspelt", "lower_case"]
    )
    def test_unknown_category_is_parse_error(self, tmp_path, capsys, line, label):
        mappings = tmp_path / "mappings.tsv"
        _small_mappings(mappings)
        lines = mappings.read_text().splitlines()
        fields = lines[line - 1].split("\t")
        fields[3] = label
        lines[line - 1] = "\t".join(fields)
        mappings.write_text("\n".join(lines) + "\n")
        prevalence = tmp_path / "prevalence.tsv"
        _write_prevalence(prevalence, [("a", 1, 100), ("a", 3, 100), ("b", 9, 100)])
        out = tmp_path / "out"
        assert main(
            ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence), "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad category {label!r} [{mappings}:{line}]" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("code_map", [False, True], ids=["vendored_map", "run_map"])
    def test_subject_id_spelled_as_map_spells_it(self, condition_fixture, tmp_path, code_map):
        # A concepts.tsv that writes SNOMEDCT_US maps as one that writes
        # SNOMED, and the export spells the subject as map spells the code.
        assert run_map_cli(condition_fixture, tmp_path / "canonical") == 0
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text(Path(condition_fixture["concepts"]).read_text().replace("\tSNOMED\t", "\tSNOMEDCT_US\t"))
        assert run_map_cli(dict(condition_fixture, concepts=str(concepts)), tmp_path / "raw") == 0
        for name in ("mappings.tsv", "summary.json"):
            assert (tmp_path / "raw" / name).read_bytes() == (tmp_path / "canonical" / name).read_bytes()
        argv = ["export-sssom", "--mappings", str(tmp_path / "raw" / "mappings.tsv"), "--concepts", str(concepts),
                "--out", str(tmp_path / "sssom")]
        assert main(argv + (["--code-map", condition_fixture["code_map"]] if code_map else [])) == 0
        rows = read_rows(tmp_path / "sssom" / "mappings_sssom.tsv")
        overjet = [r for r in rows if r["object_id"] == "HP:0011095"]
        assert [(r["subject_id"], r["comment"]) for r in overjet] == [
            ("SNOMED:70305005", "XREF_MATCH:SNOMED:70305005|CUI_MATCH:C0596028|SYNONYM_MATCH:overjet")
        ]
        assert all(r["subject_id"].startswith("SNOMED:") for r in rows)

    def test_sssom_out_without_out(self, condition_fixture, tmp_path):
        run = tmp_path / "run"
        assert run_map_cli(condition_fixture, run) == 0
        target = tmp_path / "sssom.tsv"
        assert main(
            ["export-sssom", "--mappings", str(run / "mappings.tsv"), "--concepts", condition_fixture["concepts"],
             "--sssom-out", str(target)]
        ) == 0
        assert read_rows(target)

    def test_row_for_an_unlisted_concept_is_data_error(self, condition_fixture, tmp_path, capsys):
        # Concept 22945 maps in the run, but the concepts.tsv given to the
        # export does not list it: the row names no subject.
        run = tmp_path / "run"
        assert run_map_cli(condition_fixture, run) == 0
        concepts = tmp_path / "concepts.tsv"
        lines = Path(condition_fixture["concepts"]).read_text().splitlines(keepends=True)
        concepts.write_text("".join(line for line in lines if not line.startswith("22945\t")))
        out = tmp_path / "out"
        argv = ["export-sssom", "--mappings", str(run / "mappings.tsv"), "--concepts", str(concepts), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error[UNKNOWN_CONCEPT]: a mapping row names concept 22945, which concepts.tsv does not list\n"
        assert not out.exists()

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
        assert not out.exists()


    def test_unmapped_row_is_not_exported(self, condition_fixture, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_map_cli(condition_fixture, run) == 0
        mappings = run / "mappings.tsv"
        lines = mappings.read_text().splitlines()
        # An Unmapped row given a target is not a row map writes: nothing is exported.
        i = next(i for i, line in enumerate(lines) if line.split("\t")[3] == "Unmapped")
        fields = lines[i].split("\t")
        fields[6], fields[7] = "HP:0011095", "x"
        lines[i] = "\t".join(fields)
        mappings.write_text("\n".join(lines) + "\n")
        target = tmp_path / "sssom.tsv"
        assert main(
            ["export-sssom", "--mappings", str(mappings), "--concepts", condition_fixture["concepts"],
             "--sssom-out", str(target)]
        ) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad targets: unmapped consistency [{mappings}:{i + 1}]" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "category, label",
        [("Automatic One-to-One Concept", "Automatc One-to-One Concept"), ("Unmapped", "unmapped")],
        ids=["misspelt", "lower_case"],
    )
    def test_unknown_category_is_parse_error(self, condition_fixture, tmp_path, capsys, category, label):
        run = tmp_path / "run"
        assert run_map_cli(condition_fixture, run) == 0
        mappings = run / "mappings.tsv"
        lines = mappings.read_text().splitlines()
        # The relabelled row comes last, after rows that are rendered and written.
        bad = next(line for line in lines if line.split("\t")[3] == category)
        lines.remove(bad)
        fields = bad.split("\t")
        fields[3] = label
        mappings.write_text("\n".join([*lines, "\t".join(fields)]) + "\n")
        out = tmp_path / "out"
        assert main(
            ["export-sssom", "--mappings", str(mappings), "--concepts", condition_fixture["concepts"],
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert f"error[MALFORMED_ROW]: bad category {label!r} [{mappings}:{len(lines) + 1}]" in err
        assert not out.exists()


# Rows that break the rules map writes rows by; each follows the valid rows of ``_small_mappings``.
_BROKEN_ROWS = {
    "one_to_one_with_three_targets": (
        "4\tCONDITION\tHP\tAutomatic One-to-One Concept\tCONCEPT\t\tHP:4|HP:5|HP:6\ta|b|c\t\tLABEL_MATCH:a\t\t",
        "targets: cardinality",
    ),
    "unmapped_with_a_target": (
        "4\tCONDITION\tHP\tUnmapped\tNONE\t\tHP:4\ta\t\tEXCLUSION_REASON:None\tNone\t",
        "targets: unmapped consistency",
    ),
}


@pytest.mark.parametrize("row", sorted(_BROKEN_ROWS))
@pytest.mark.parametrize("command", ["coverage", "export-sssom"])
def test_broken_mapping_row_is_parse_error(tmp_path, capsys, command, row):
    line, message = _BROKEN_ROWS[row]
    mappings = tmp_path / "mappings.tsv"
    _small_mappings(mappings)
    with open(mappings, "a") as fh:
        fh.write(line + "\n")
    inputs = tmp_path / "inputs"
    if command == "coverage":
        _write_prevalence(inputs, [("a", 1, 100), ("b", 4, 100)])
    else:
        _small_concepts(inputs)
    flag = "--prevalence" if command == "coverage" else "--concepts"
    out = tmp_path / "out"
    assert main([command, "--mappings", str(mappings), flag, str(inputs), "--out", str(out)]) == 2
    assert f"error[MALFORMED_ROW]: bad {message} [{mappings}:5]" in capsys.readouterr().err
    assert not out.exists()


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
            pipeline._write_text(tmp_path / "out" / "run" / "summary.json", ["{"] * 10_000 + ["\ud800"])
        assert list(tmp_path.iterdir()) == []

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
        assert not out.exists()

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


def _evaluate_commands(tmp_path):
    mappings, concepts = tmp_path / "mappings.tsv", tmp_path / "concepts.tsv"
    _small_mappings(mappings)
    _small_concepts(concepts)
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
        ["export-sssom", "--mappings", str(mappings), "--concepts", str(concepts), "--out", str(tmp_path / "sssom")],
    ]


_MAP_MODULES = {"termbridge.align", "termbridge.similarity", "termbridge.synthesize", "numpy"}
_EVALUATE_MODULES = {"termbridge.evaluate", "termbridge.stats", "statistics"}


class TestImportCost:
    """Importing ``termbridge.cli`` loads only ``errors``; each command
    loads only its own modules.  Only ``map`` loads numpy, and
    nothing loads scipy.  Each command runs in its own fresh interpreter."""

    def test_import_loads_errors_only(self):
        assert modules_after() == [["termbridge", "termbridge.cli", "termbridge.errors"]]

    def test_evaluate_commands_load_neither(self, tmp_path):
        for argv in _evaluate_commands(tmp_path):
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

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the thread count from /proc")
    def test_map_ends_with_one_thread(self, condition_fixture, tmp_path):
        script = (
            "import re, sys\n"
            "from termbridge.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, re.search(r'^Threads:\\s+(\\d+)', status, re.M).group(1))\n"
        )
        env = subprocess_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, *map_args(condition_fixture, tmp_path / "out")],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout.split()[-2:] == ["0", "1"]

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
        coverage = _evaluate_commands(tmp_path)[0]
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
        argv = _evaluate_commands(tmp_path)[0]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[INTERNAL]: RuntimeError: stage fault\n")
        assert "Traceback (most recent call last):" in err and "in broken" in err

    def test_keyboard_interrupt_is_not_caught(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "partition_coverage", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(_evaluate_commands(tmp_path)[0])

    def test_runs_under_cprofile(self, tmp_path):
        # cProfile runs the module through runpy, in a namespace that is not
        # the module ``termbridge.cli``.
        argv = _evaluate_commands(tmp_path)[0]
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile"), "-m", "termbridge.cli", *argv],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "coverage" / "coverage.json").is_file()

    def test_runs_as_main_without_importing_itself(self, tmp_path):
        # ``python -m termbridge.cli`` runs this code once, as ``__main__``: the
        # module ``termbridge.cli`` is never imported beside it.
        script = (
            "import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('termbridge.cli', run_name='__main__')\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code\n"
            "assert 'termbridge.cli' not in sys.modules\n"
        )
        argv = _evaluate_commands(tmp_path)[0]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=subprocess_env(), capture_output=True, text=True, timeout=60,
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
            argv = next(a for a in _evaluate_commands(tmp_path) if a[0] == command)
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


# Every command's flags as ``--help`` lists them: (flag, metavar, help).
_FLAGS = {
    "map": [
        ("--out", "OUT", "output directory"),
        ("--concepts", "CONCEPTS", "concept table (TSV)"),
        ("--ancestors", "ANCESTORS", "concept ancestor pairs (TSV)"),
        ("--ontology", "ONTOLOGY", "ontology dump (JSONL); repeatable"),
        ("--umls-mrconso", "UMLS_MRCONSO", "MRCONSO.RRF"),
        ("--umls-mrsty", "UMLS_MRSTY", "MRSTY.RRF"),
        ("--code-map", "CODE_MAP", "prefix normalization dictionary (CSV)"),
        ("--stopwords", "STOPWORDS", "stopword list, one per line"),
        ("--routing", "ROUTING", "semantic-type routing policy (TSV)"),
        ("--curation", "CURATION", "manual curation rows (TSV)"),
        ("--measurement-scales", "MEASUREMENT_SCALES", "measurement scale table (TSV)"),
        ("--measurement-targets", "MEASUREMENT_TARGETS", "measurement result/auxiliary targets (TSV)"),
        ("--domain", "{CONDITION,DRUG,MEASUREMENT}", ""),
        ("--tau", "TAU", "cosine score floor (default 0.25); must lie in [0, 1]"),
        ("--rho", "RHO", "kept fraction of survivors (default 0.75); must lie in (0, 1]"),
        ("--jobs", "JOBS", "accepted and ignored; runs are single-threaded"),
    ],
    "coverage": [
        ("--out", "OUT", "output directory"),
        ("--mappings", "MAPPINGS", "mappings.tsv from the map command"),
        ("--prevalence", "PREVALENCE", "per-site concept frequencies (TSV)"),
        ("--newer-cdm", "NEWER_CDM", "concept ids recovered in a newer CDM, one per line"),
        ("--excluded", "EXCLUDED", "purposefully excluded concept ids, one per line"),
        ("--alpha", "ALPHA", "family-wise alpha (default 0.05); must lie in (0, 1)"),
    ],
    "phers": [
        ("--out", "OUT", "output directory"),
        ("--weights", "WEIGHTS", "phenotype weight table (TSV)"),
        ("--patients", "PATIENTS", "patient phenotype rows (TSV)"),
        ("--cohort", "COHORT", "patient group assignments (TSV)"),
    ],
    "export-sssom": [
        ("--out", "OUT", "output directory"),
        ("--mappings", "MAPPINGS", "mappings.tsv from the map command"),
        ("--concepts", "CONCEPTS", "concept table used for the run"),
        ("--code-map", "CODE_MAP", "prefix normalization dictionary (CSV)"),
        ("--sssom-out", "SSSOM_OUT", "output file path (default <out>/mappings_sssom.tsv)"),
    ],
}
_REQUIRED = {
    "map": ("--out", "--concepts", "--ontology"),
    "coverage": ("--out", "--mappings", "--prevalence"),
    "phers": ("--out", "--weights", "--patients", "--cohort"),
    "export-sssom": ("--out", "--mappings", "--concepts"),
}
# A config value of the right type for each flag that is not an input file.
_VALUES = {"--out": "out", "--domain": "DRUG", "--tau": 0.5, "--rho": 0.5, "--jobs": 1, "--alpha": 0.5,
           "--sssom-out": "sssom.tsv", "--ontology": ["x"]}
_ALL_FLAGS = {flag for flags in _FLAGS.values() for flag, _, _ in flags}


def _input_flags(command):
    return [flag for flag, _, _ in _FLAGS[command] if flag not in _VALUES or flag == "--ontology"]


def _flag_cases():
    for command, flags in _FLAGS.items():
        for flag in _REQUIRED[command]:
            yield pytest.param(command, "omit", flag, ("MISSING_INPUT",), id=f"{command}-omit{flag}")
        for flag in _input_flags(command):
            yield pytest.param(command, "absent", flag, ("NO_SUCH_FILE",), id=f"{command}-absent{flag}")
        yield pytest.param(command, "config", {"nope": 1}, ("BAD_CONFIG",), id=f"{command}-unknown_config_key")
        foreign = sorted(_ALL_FLAGS - {flag for flag, _, _ in flags})
        for flag in foreign:
            yield pytest.param(command, "extra", flag, ("USAGE",), id=f"{command}-foreign{flag}")
        # The other commands' keys are accepted in a config file: the run
        # gets as far as the input check.
        keys = {flag[2:].replace("-", "_"): _VALUES.get(flag, "x") for flag in foreign}
        yield pytest.param(command, "config", keys, ("MISSING_INPUT", _REQUIRED[command][1]),
                           id=f"{command}-foreign_config_keys")


class TestFlagVerdicts:
    """Each command's exit code and error code for every flag it takes left
    out, naming a missing file, or taken from another command, and its
    ``--help``."""

    def _argv(self, command, root):
        argv = [command]
        for flag in _input_flags(command):
            path = root / flag[2:]
            path.touch()
            argv += [flag, str(path)]
        return argv + ["--out", str(root / "out")]

    @pytest.mark.parametrize("command, change, what, expected", _flag_cases())
    def test_verdict(self, command, change, what, expected, tmp_path, capsys):
        argv = self._argv(command, tmp_path)
        if change == "omit":
            i = argv.index(what)
            del argv[i:i + 2]
        elif change == "absent":
            argv[argv.index(what) + 1] = str(tmp_path / "absent")
        elif change == "extra":
            argv += [what, "x"]
        else:
            if len(expected) > 1:
                i = argv.index(expected[1])
                del argv[i:i + 2]
            config = tmp_path / "run.json"
            config.write_text(json.dumps(what))
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error[{expected[0]}]: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_help(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        listed = set(re.findall(r"(--[a-z][a-z-]*)", text))
        assert listed == {"--help", "--config"} | {flag for flag, _, _ in _FLAGS[command]}
        for flag, metavar, help_text in _FLAGS[command]:
            assert f" {flag} {metavar} {help_text}".rstrip() in text, flag
