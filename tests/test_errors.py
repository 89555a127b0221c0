"""The error-code census: each code is declared once, on the class whose
exit code it ends in; every ``raise`` in the package names a code its
class declares; every declared code comes out of the command line, with
that exit code and, for a parse error, the file and line at fault; and
README's error table lists exactly the declared codes."""

import ast
import json
import re
from pathlib import Path

import pytest

import termbridge
from termbridge import pipeline
from termbridge.cli import main
from termbridge.errors import ConfigError, DataError, ParseError, TermbridgeError

from test_cli import _small_mappings, _write_phers_inputs, _write_prevalence, map_args, measurement_args

SRC = Path(termbridge.__file__).parent
README = SRC.parents[1] / "README.md"
CLASSES = (ConfigError, ParseError, DataError)
DECLARED = {code: cls for cls in CLASSES for code in cls.codes}


def _error_calls():
    """(class name, first argument, place) of each call of an error class
    in the package's source."""
    names = {cls.__name__ for cls in CLASSES}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                yield node.func.id, node.args[0], f"{path.name}:{node.lineno}"


class TestDeclarations:
    def test_each_code_on_one_class(self):
        assert sum(len(cls.codes) for cls in CLASSES) == len(DECLARED)
        assert [cls.exit_code for cls in CLASSES] == [1, 2, 3]

    def test_every_raise_names_a_code_of_its_class(self):
        calls = list(_error_calls())
        assert len(calls) > 50
        for name, code, place in calls:
            assert isinstance(code, ast.Constant), f"{place}: the code must be a literal"
            assert DECLARED.get(code.value, type(None)).__name__ == name, f"{place}: {name}({code.value!r})"

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_undeclared_code_is_a_type_error(self, cls):
        other = sorted(set(DECLARED) - cls.codes)[0]
        with pytest.raises(TypeError, match=f"{other} is not a {cls.__name__} code"):
            cls(other, "message")
        with pytest.raises(TypeError):
            TermbridgeError(other, "message")

    def test_undeclared_code_exits_4(self, tmp_path, monkeypatch, capsys):
        def wrong_class(*args, **kwargs):
            raise DataError("MALFORMED_ROW", "a parse error's code under the data error class")

        monkeypatch.setattr(pipeline, "partition_coverage", wrong_class)
        argv, _, _ = _coverage(tmp_path, [("a", 1, 100)])
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("error[INTERNAL]: TypeError: MALFORMED_ROW is not a DataError code\n")


def _with_lines(tmp_path, source, name, edit):
    """A copy of ``source`` named ``name`` with its lines passed through
    ``edit``; returns its path and the number of lines it has."""
    lines = edit(Path(source).read_text().splitlines())
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path), len(lines)


def _map_with(cond, tmp_path, key, name, edit):
    """``map`` on the condition inputs with ``key``'s file edited, and the
    edited file's path and last line."""
    path, last = _with_lines(tmp_path, cond[key], name, edit)
    return map_args(dict(cond, **{key: path}), tmp_path / "out"), path, last


def _append(*rows):
    return lambda lines: [*lines, *rows]


def _mrconso_row(cui="C9999999", sab="SNOMEDCT_US"):
    return f"{cui}|ENG||||||||||{sab}|PT|x1|text||||"


def _measurement_with(meas, tmp_path, edit):
    path, _ = _with_lines(tmp_path, meas["targets"], "measurement_targets.tsv", edit)
    return measurement_args(dict(meas, targets=path), tmp_path / "out"), None, None


def _coverage(tmp_path, sites):
    mappings, prevalence = tmp_path / "mappings.tsv", tmp_path / "prevalence.tsv"
    _small_mappings(mappings)
    _write_prevalence(prevalence, sites)
    argv = ["coverage", "--mappings", str(mappings), "--prevalence", str(prevalence), "--out", str(tmp_path / "out")]
    return argv, None, None


def _export_unlisted(cond, tmp_path):
    """``export-sssom`` of mapping rows for concepts 1 to 3, which the
    condition inputs' concepts.tsv does not list."""
    mappings = tmp_path / "mappings.tsv"
    _small_mappings(mappings)
    argv = ["export-sssom", "--mappings", str(mappings), "--concepts", cond["concepts"]]
    return argv + ["--out", str(tmp_path / "out")], None, None


def _phers(tmp_path, cohort_rows, phenotype_rows, weight_rows):
    weights, patients, cohort = _write_phers_inputs(tmp_path, cohort_rows, phenotype_rows, weight_rows)
    argv = ["phers", "--weights", str(weights), "--patients", str(patients), "--cohort", str(cohort)]
    return argv + ["--out", str(tmp_path / "out")], None, None


def _without_out(cond, tmp_path):
    argv = map_args(cond, tmp_path / "out")
    i = argv.index("--out")
    return argv[:i] + argv[i + 2:], None, None


def _config(cond, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"nope": 1}))
    return map_args(cond, tmp_path / "out") + ["--config", str(config)], None, None


def _undecodable(cond, tmp_path):
    concepts = tmp_path / "concepts.tsv"
    concepts.write_bytes(Path(cond["concepts"]).read_bytes() + b"\xff\n")
    last = len(concepts.read_bytes().splitlines())
    return map_args(dict(cond, concepts=str(concepts)), tmp_path / "out"), str(concepts), last


def _ontology_class(curie, ontology):
    return json.dumps({"curie": curie, "ontology": ontology, "label": "x"})


# One command line per declared code: (tmp_path, condition inputs,
# measurement inputs) -> (argv, the file and line a parse error names).
CASES = {
    "USAGE": lambda t, c, m: (map_args(c, t / "out", ["--nope"]), None, None),
    "BAD_CONFIG": lambda t, c, m: _config(c, t),
    "NO_SUCH_FILE": lambda t, c, m: (map_args(dict(c, concepts=str(t / "absent.tsv")), t / "out"), None, None),
    "MISSING_INPUT": lambda t, c, m: _without_out(c, t),
    "BAD_THRESHOLD": lambda t, c, m: (map_args(c, t / "out", ["--tau", "2"]), None, None),
    "BAD_CUI": lambda t, c, m: _map_with(c, t, "mrconso", "MRCONSO.RRF", _append(_mrconso_row(cui="C12"))),
    "BAD_CURIE": lambda t, c, m: _map_with(c, t, "ontology", "o.jsonl", _append(_ontology_class("HP:9", "MONDO"))),
    "BAD_ENCODING": lambda t, c, m: _undecodable(c, t),
    "BAD_PREFIX": lambda t, c, m: _map_with(c, t, "mrconso", "MRCONSO.RRF", _append(_mrconso_row(sab="BAD SAB"))),
    "BOTH_TARGETS_AND_REASON": lambda t, c, m: _map_with(
        c, t, "curation", "curation.tsv", _append("22945\tHP\t\tHP:0011095\tx\tINJURY")
    ),
    "CONFLICTING_CURATION": lambda t, c, m: _map_with(
        c, t, "curation", "curation.tsv", _append("4070954\tMONDO\t\tMONDO:0008533\tagain\t")
    ),
    "CONFLICTING_PREFIX": lambda t, c, m: _map_with(c, t, "code_map", "map.csv", _append("foo,BAR", "FOO,BAZ")),
    "CONFLICTING_RULE": lambda t, c, m: _map_with(
        c, t, "routing", "routing.tsv", _append("Finding\tEXCLUDE\tINJURY", "Finding\tEXCLUDE\tFINDING")
    ),
    "DUPLICATE_CURIE": lambda t, c, m: _map_with(c, t, "ontology", "o.jsonl", lambda lines: [*lines, lines[0]]),
    "DUPLICATE_ID": lambda t, c, m: _map_with(c, t, "concepts", "concepts.tsv", lambda lines: [*lines, lines[1]]),
    "MALFORMED_LINE": lambda t, c, m: _map_with(c, t, "ontology", "o.jsonl", _append("{")),
    "MALFORMED_ROW": lambda t, c, m: _map_with(c, t, "code_map", "map.csv", _append("snomed,")),
    "MISSING_COLUMN": lambda t, c, m: _map_with(
        c, t, "concepts", "concepts.tsv", lambda lines: [lines[0].replace("label", "name")]
    ),
    "NOT_FIXED_POINT": lambda t, c, m: _map_with(c, t, "code_map", "map.csv", _append("foo,BAR", "bar,BAZ")),
    "SHORT_ROW": lambda t, c, m: _map_with(c, t, "mrconso", "MRCONSO.RRF", _append("C9999999|ENG")),
    "UNKNOWN_ONTOLOGY": lambda t, c, m: _map_with(c, t, "curation", "curation.tsv", _append("22945\tZZ\t\tZZ:1\tx\t")),
    "UNKNOWN_REASON": lambda t, c, m: _map_with(c, t, "routing", "routing.tsv", _append("Finding\tEXCLUDE\tNOPE")),
    "INVALID_RECORD": lambda t, c, m: _map_with(
        c, t, "curation", "curation.tsv", _append("22945\tHP\t\tHP:0011095\tPMID:1|PMID:2\t")
    ),
    "MISSING_TARGET_FOR_RESULT": lambda t, c, m: _measurement_with(
        m, t, lambda lines: [line for line in lines if not re.match(r"3000001\t(HIGH|LOW|NORMAL)\t", line)]
    ),
    "OUTCOME_MISMATCH": lambda t, c, m: _measurement_with(m, t, _append("3000001\tPOSITIVE\tHP:0003154\t0")),
    "UNKNOWN_CONCEPT": lambda t, c, m: _export_unlisted(c, t),
    "EMPTY_SITE_DATA": lambda t, c, m: _coverage(t, []),
    "NEGATIVE_WEIGHT": lambda t, c, m: _phers(
        t, [("p1", "CASE"), ("p2", "CONTROL")], [("p1", "HP:1")], [("HP:1", 1.0), ("HP:2", -1.0)]
    ),
    "TOO_FEW_PATIENTS": lambda t, c, m: _phers(t, [("p1", "CASE")], [("p1", "HP:1")], [("HP:1", 1.0)]),
    "DEGENERATE_COHORT": lambda t, c, m: _phers(t, [("p1", "CASE"), ("p2", "CONTROL")], [], [("HP:1", 1.0)]),
    "EMPTY_GROUP": lambda t, c, m: _phers(t, [("p1", "CASE"), ("p2", "CASE")], [("p1", "HP:1")], [("HP:1", 1.0)]),
}


class TestEveryCodeFromTheCommandLine:
    def test_cases_cover_the_declared_codes(self):
        assert set(CASES) == set(DECLARED)

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_code(self, code, tmp_path, condition_fixture, measurement_fixture, capsys):
        argv, path, line = CASES[code](tmp_path, condition_fixture, measurement_fixture)
        assert main(argv) == DECLARED[code].exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]: "), err
        if DECLARED[code] is ParseError:
            assert err.rstrip().endswith(f" [{path}:{line}]"), err
        assert not (tmp_path / "out").exists()


def _readme_table():
    """Code -> (class name, exit code) from README's error table."""
    rows = re.findall(r"^\| `([A-Z_]+)` \| `(\w+)` \| (\d) \|", README.read_text(encoding="utf-8"), re.M)
    return {code: (cls, int(exit_code)) for code, cls, exit_code in rows}, len(rows)


def test_readme_table_lists_the_declared_codes():
    table, rows = _readme_table()
    assert rows == len(table)
    assert table == {code: (cls.__name__, cls.exit_code) for code, cls in DECLARED.items()}
