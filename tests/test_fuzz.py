"""Fuzzing from the column declarations: every loader, and every command
that reads a declared TSV, ends in a value or a coded error on any input
built from the declarations, never in another exception."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from termbridge import ingest
from termbridge.cli import main

import ingest_fuzz

_SETTINGS = dict(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _write(path, loader, rnd):
    path.write_text(ingest_fuzz.text(loader, rnd, getattr(ingest, ingest_fuzz.DECLARATIONS[loader][0])))
    return path


@pytest.mark.parametrize("loader", sorted(ingest_fuzz.DECLARATIONS))
@settings(max_examples=80, **_SETTINGS)
@given(rnd=st.randoms(use_true_random=False))
def test_loader_returns_or_raises_a_coded_error(tmp_path, loader, rnd):
    path = _write(tmp_path / f"{loader}.tsv", loader, rnd)
    kind, code, line, message = ingest_fuzz.verdict(loader, path, tmp_path)
    assert kind in ("ok", "ParseError", "DataError"), (kind, message, path.read_text())


@settings(max_examples=80, **_SETTINGS)
@given(rnd=st.randoms(use_true_random=False))
def test_umls_returns_or_raises_a_coded_error(tmp_path, rnd):
    path = ingest_fuzz.umls_files(rnd, tmp_path)
    kind, code, line, message = ingest_fuzz.verdict("umls", path, tmp_path)
    assert kind in ("ok", "ParseError"), (kind, message, path.read_text())


def _map(tmp_path, fixture, rnd):
    domain = rnd.choice(["CONDITION", "MEASUREMENT"])
    argv = [
        "map", "--ontology", fixture["ontology"], "--code-map", fixture["code_map"], "--domain", domain,
        "--concepts", str(_write(tmp_path / "concepts.tsv", "concepts", rnd)),
    ]
    # Each optional input is left out as often as not, so runs get past ingest.
    for flag, loader in [
        ("--ancestors", "ancestors"),
        ("--routing", "routing"),
        ("--curation", "curation"),
        ("--measurement-scales", "scales"),
        ("--measurement-targets", "targets"),
    ]:
        if rnd.random() < 0.5:
            argv += [flag, str(_write(tmp_path / f"{loader}.tsv", loader, rnd))]
    return argv


def _coverage(tmp_path, fixture, rnd):
    return [
        "coverage",
        "--mappings", str(_write(tmp_path / "mappings.tsv", "mappings", rnd)),
        "--prevalence", str(_write(tmp_path / "prevalence.tsv", "prevalence", rnd)),
    ]


def _phers(tmp_path, fixture, rnd):
    return [
        "phers",
        "--weights", str(_write(tmp_path / "weights.tsv", "weights", rnd)),
        "--patients", str(_write(tmp_path / "patients.tsv", "patients", rnd)),
        "--cohort", str(_write(tmp_path / "cohort.tsv", "cohort", rnd)),
    ]


def _export_sssom(tmp_path, fixture, rnd):
    return [
        "export-sssom",
        "--mappings", str(_write(tmp_path / "mappings.tsv", "mappings", rnd)),
        "--concepts", str(_write(tmp_path / "concepts.tsv", "concepts", rnd)),
    ]


_COMMANDS = {"map": _map, "coverage": _coverage, "phers": _phers, "export-sssom": _export_sssom}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=25, **_SETTINGS)
@given(rnd=st.randoms(use_true_random=False))
def test_command_exits_0_2_or_3(tmp_path, measurement_fixture, capsys, command, rnd):
    argv = _COMMANDS[command](tmp_path, measurement_fixture, rnd) + ["--out", str(tmp_path / "out")]
    code = main(argv)
    assert code in (0, 2, 3), capsys.readouterr().err
