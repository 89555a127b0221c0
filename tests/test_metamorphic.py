"""Metamorphic relations of ``map``: changes to its inputs that must leave
``mappings.tsv`` and ``summary.json`` byte for byte as they were.

Row order: each input file of a ``map`` run is rewritten with its data
rows in a seeded random order, any header kept first: a TSV or CSV whose
first line does not start with a digit has one (the ancestor file may
not).  Dumps, MRCONSO/MRSTY rows and stopwords are shuffled whole.  The
inputs are the golden and measurement fixtures and perfbench's tiny
map-cosine and map-ladder inputs.

Dump grouping: the classes of a run's ontology dumps are pooled, shuffled
and written as two dumps, and, where the run reads several (map-ladder's
``hp.jsonl`` with ``mondo.jsonl`` or ``uberon.jsonl``), as one.  Which
dump holds a class is no fact of the class.

Another domain's rows: valid rows for concepts outside the domain being
mapped are added to the golden (CONDITION) and measurement (MEASUREMENT)
fixtures: the concepts, ancestor rows of which they are the child, one
curation row per (concept, ontology) with targets in the loaded dumps,
and, for the measurement run, scale and target rows.  The measurement
fixture has no ancestor or curation file, so its run on the added rows
is given files that hold only those.

Key case: the ontology keys that a run's inputs write are written in
lowercase: every dump's ``ontology`` field, the curation ``ontology``
column, the routing ALLOW values and the auxiliary-target keys of the
measurement targets.  The loaders settle each key's case as they read
it.  The inputs are the golden and measurement fixtures and perfbench's
tiny map-ladder inputs.

Id renumbering: every concept id that a run's inputs name (concepts,
ancestor pairs, curation, measurement scales and targets) is replaced by
a new id, in an order-preserving way, past 2**31: a concept id is any
positive integer.  Then ``summary.json`` stays as it was, and
``mappings.tsv`` and the ``export-sssom`` file change only in the
concept id, which heads ``concept_id`` and ``mapping_set_id``.  The
inputs are the golden and measurement fixtures and perfbench's tiny
map-ladder inputs.
"""

import importlib
import json
import random
from pathlib import Path

import pytest

from termbridge.cli import main
from termbridge.core import MeasurementOutcome

from test_cli import map_args, measurement_args

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OUTPUTS = ("mappings.tsv", "summary.json")


def _shuffled(path: Path, to: Path, rnd: random.Random) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    keep = 1 if path.suffix in (".tsv", ".csv") and lines and not lines[0][:1].isdigit() else 0
    rows = lines[keep:]
    rnd.shuffle(rows)
    to.write_text("\n".join(lines[:keep] + rows) + "\n", encoding="utf-8")
    return str(to)


def _fixture_runs(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch):
    """Each ``map`` of one input set: a function of a directory that gives
    its argv and the directory it writes to."""
    if name == "golden":
        return [lambda out: (map_args(condition_fixture, out), out)]
    if name == "measurement":
        return [lambda out: (measurement_args(measurement_fixture, out), out)]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    gen.generate(name, tmp_path / "inputs", 11, "tiny")
    program = tmp_path / "inputs" / "program"
    count = len(workloads.commands(name, program, tmp_path))
    return [lambda out, i=i: workloads.commands(name, program, out)[i][:2] for i in range(count)]


@pytest.mark.parametrize("name", ["golden", "measurement", "map-cosine", "map-ladder"])
def test_row_order_leaves_map_outputs_unchanged(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch):
    runs = _fixture_runs(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch)
    for i, run in enumerate(runs):
        argv, before = run(tmp_path / f"before{i}")
        assert main(argv) == 0
        rnd = random.Random(f"{name}:{i}")
        shuffled = tmp_path / f"shuffled{i}"
        shuffled.mkdir()
        argv, after = run(tmp_path / f"after{i}")
        moved = [
            _shuffled(Path(arg), shuffled / f"{k}-{Path(arg).name}", rnd) if Path(arg).is_file() else arg
            for k, arg in enumerate(argv)
        ]
        assert moved != argv
        assert main(moved) == 0
        for output in OUTPUTS:
            assert (after / output).read_bytes() == (before / output).read_bytes(), (name, i, output)


def _regrouped(argv, to: Path, files: int, rnd: random.Random) -> list[str]:
    """``argv`` with the classes of its ``--ontology`` dumps pooled, shuffled
    and written to ``files`` new dumps under ``to``, which it names instead."""
    rest, dumps, args = [], [], iter(argv)
    for arg in args:
        if arg == "--ontology":
            dumps.append(next(args))
        else:
            rest.append(arg)
    lines = [line for dump in dumps for line in Path(dump).read_text(encoding="utf-8").splitlines() if line]
    rnd.shuffle(lines)
    for k in range(files):
        dump = to / f"dump{k}.jsonl"
        group = lines[k * len(lines) // files:(k + 1) * len(lines) // files]
        dump.write_text("\n".join(group) + "\n", encoding="utf-8")
        rest += ["--ontology", str(dump)]
    return rest


@pytest.mark.parametrize("name", ["golden", "measurement", "map-cosine", "map-ladder"])
def test_dump_grouping_leaves_map_outputs_unchanged(
    name, tmp_path, condition_fixture, measurement_fixture, monkeypatch
):
    runs = _fixture_runs(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch)
    for i, run in enumerate(runs):
        argv, before = run(tmp_path / f"before{i}")
        assert main(argv) == 0
        for files in (2, 1) if argv.count("--ontology") > 1 else (2,):
            regrouped = tmp_path / f"regrouped{i}-{files}"
            regrouped.mkdir()
            argv, after = run(tmp_path / f"after{i}-{files}")
            assert main(_regrouped(argv, regrouped, files, random.Random(f"{name}:{i}:{files}"))) == 0
            for output in OUTPUTS:
                assert (after / output).read_bytes() == (before / output).read_bytes(), (name, i, files, output)


_HEADERS = {
    "ancestors": "concept_id\tancestor_concept_id",
    "curation": "concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason",
}

# Each fixture's added rows, by input.  The concepts' labels and synonyms
# are those of the dumps' classes, so a row that reached the mapped
# domain would add cosine scores, exact hits or records.
_OTHER_DOMAIN = {
    "golden": {
        "concepts": [
            "5000001\tRXNORM\t1191\tOverjet\tSore throat|Polycythemia\tDRUG\t1\t8",
            "5000002\tLOINC\t12460-2\tOsteopoikilosis\t\tMEASUREMENT\t0\t0",
        ],
        "ancestors": ["5000001\t22945", "5000002\t5000001", "5000002\t90002"],
        "curation": [
            "5000001\tHP\t\tHP:0011095\tnote\t",
            "5000001\tMONDO\tOR(0,1)\tMONDO:0001414|MONDO:0008157\tnote\t",
            "5000002\tHP\t\t\tnote\tFINDING",
        ],
    },
    "measurement": {
        "concepts": [
            "22945\tSNOMED\t70305005\tIncreased circulating ACTH level\tAmphetamine screen\tCONDITION\t1\t12",
            "5000003\tRXNORM\t1191\tAmphetamine\t\tDRUG\t1\t8",
        ],
        "ancestors": ["22945\t3000001", "5000003\t22945"],
        "curation": [
            "22945\tHP\t\tHP:0003154\tnote\t",
            "22945\tUBERON\t\tUBERON:0001969|UBERON:0001088\tnote\t",
            "5000003\tCHEBI\t\t\tnote\tUNSPECIFIED_SAMPLE",
        ],
        "scales": ["22945\tQUANTITATIVE\tNUMERIC", "5000003\tORDINAL\tNONE"],
        "targets": [
            "22945\tHIGH\tHP:0003154\t0",
            "22945\tNORMAL\tHP:0011043\t1",
            "22945\tUBERON\tUBERON:0001969\t0",
            "5000003\tPOSITIVE\tHP:0500112\t0",
            "5000003\tCHEBI\tCHEBI:2679\t0",
        ],
    },
}


@pytest.mark.parametrize("name", ["golden", "measurement"])
def test_other_domain_rows_leave_map_outputs_unchanged(
    name, tmp_path, condition_fixture, measurement_fixture, capsys
):
    paths, args = (condition_fixture, map_args) if name == "golden" else (measurement_fixture, measurement_args)
    assert main(args(paths, tmp_path / "before")) == 0
    added = dict(paths)
    for key, rows in _OTHER_DOMAIN[name].items():
        lines = Path(paths[key]).read_text(encoding="utf-8").splitlines() if key in paths else [_HEADERS[key]]
        added[key] = str(tmp_path / f"added-{key}.tsv")
        Path(added[key]).write_text("\n".join(lines + rows) + "\n", encoding="utf-8")
    argv = args(added, tmp_path / "after")
    if name == "measurement":
        argv += ["--ancestors", added["ancestors"], "--curation", added["curation"]]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""  # another domain's rows are not reported
    for output in OUTPUTS:
        assert (tmp_path / "after" / output).read_bytes() == (tmp_path / "before" / output).read_bytes(), output


_OUTCOMES = {outcome.value for outcome in MeasurementOutcome}


def _lower_dump(line: str) -> str:
    obj = json.loads(line)
    obj["ontology"] = obj["ontology"].lower()
    return json.dumps(obj)


def _lower_field(column: int, when=lambda fields: True):
    """A row rewrite that lowercases field ``column`` of the rows ``when`` holds for."""
    def rewrite(line: str) -> str:
        fields = line.split("\t")
        if when(fields):
            fields[column] = fields[column].lower()
        return "\t".join(fields)
    return rewrite


# Flag -> (whether its file has a header, the rewrite of each data line).
_KEY_CASE = {
    "--ontology": (False, _lower_dump),
    "--curation": (True, _lower_field(1)),
    "--routing": (True, _lower_field(2, lambda fields: fields[1].strip().upper() == "ALLOW")),
    "--measurement-targets": (True, _lower_field(1, lambda fields: fields[1].strip().upper() not in _OUTCOMES)),
}


def _lowercased_keys(argv, to: Path) -> list[str]:
    """``argv`` with each file that writes ontology keys rewritten under ``to``
    with those keys in lowercase."""
    moved = list(argv)
    for k, (flag, path) in enumerate(zip(argv, argv[1:])):
        if flag not in _KEY_CASE:
            continue
        header, rewrite = _KEY_CASE[flag]
        lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
        rewritten = lines[:header] + [rewrite(line) for line in lines[header:]]
        assert rewritten != lines, (flag, path)
        moved[k + 1] = str(to / f"{k}-{Path(path).name}")
        Path(moved[k + 1]).write_text("\n".join(rewritten) + "\n", encoding="utf-8")
    return moved


@pytest.mark.parametrize("name", ["golden", "measurement", "map-ladder"])
def test_key_case_leaves_map_outputs_unchanged(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch):
    runs = _fixture_runs(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch)
    for i, run in enumerate(runs):
        argv, before = run(tmp_path / f"before{i}")
        assert main(argv) == 0
        lowered = tmp_path / f"lowered{i}"
        lowered.mkdir()
        argv, after = run(tmp_path / f"after{i}")
        assert main(_lowercased_keys(argv, lowered)) == 0
        for output in OUTPUTS:
            assert (after / output).read_bytes() == (before / output).read_bytes(), (name, i, output)


# Flag -> the columns of its file that hold concept ids.
_ID_COLUMNS = {
    "--concepts": (0,),
    "--ancestors": (0, 1),
    "--curation": (0,),
    "--measurement-scales": (0,),
    "--measurement-targets": (0,),
}


def _renumbered(argv, to: Path, rnd: random.Random):
    """``argv`` with each file that names concept ids rewritten under ``to``
    with every id replaced, order kept, by one past 2**31; and the map from
    each new id back to the id it replaced."""
    files = {k + 1: _ID_COLUMNS[flag] for k, flag in enumerate(argv[:-1]) if flag in _ID_COLUMNS}
    tables = {k: [line.split("\t") for line in Path(argv[k]).read_text(encoding="utf-8").splitlines()] for k in files}
    ids = {
        int(row[c]) for k, columns in files.items() for row in tables[k] for c in columns if row[c].strip().isdigit()
    }
    new, last = {}, 2**31
    for old in sorted(ids):
        last = new[old] = last + rnd.randint(1, 10**6)
    moved = list(argv)
    for k, columns in files.items():
        for row in tables[k]:
            for c in columns:
                if row[c].strip().isdigit():
                    row[c] = str(new[int(row[c])])
        moved[k] = str(to / f"{k}-{Path(argv[k]).name}")
        Path(moved[k]).write_text("".join("\t".join(row) + "\n" for row in tables[k]), encoding="utf-8")
    return moved, {n: old for old, n in new.items()}


def _ids_back(path: Path, column: int, back) -> str:
    """A TSV output's text with the concept id that heads field ``column``
    of each data row mapped through ``back``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        concept_id, colon, rest = fields[column].partition(":")
        fields[column] = f"{back[int(concept_id)]}{colon}{rest}"
        lines[i] = "\t".join(fields)
    return "".join(lines)


def _export(argv, out: Path) -> int:
    """``export-sssom`` of the ``map`` run ``argv``, which wrote to ``out``."""
    given = {flag: argv[argv.index(flag) + 1] for flag in ("--concepts", "--code-map") if flag in argv}
    return main(["export-sssom", "--mappings", str(out / "mappings.tsv"), "--out", str(out),
                 *(part for item in given.items() for part in item)])


@pytest.mark.parametrize("name", ["golden", "measurement", "map-ladder"])
def test_id_renumbering_changes_only_concept_ids(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch):
    runs = _fixture_runs(name, tmp_path, condition_fixture, measurement_fixture, monkeypatch)
    for i, run in enumerate(runs):
        argv, before = run(tmp_path / f"before{i}")
        assert main(argv) == 0 and _export(argv, before) == 0
        renumbered = tmp_path / f"renumbered{i}"
        renumbered.mkdir()
        argv, after = run(tmp_path / f"after{i}")
        argv, back = _renumbered(argv, renumbered, random.Random(f"{name}:{i}"))
        assert main(argv) == 0 and _export(argv, after) == 0
        assert (after / "summary.json").read_bytes() == (before / "summary.json").read_bytes(), (name, i)
        for output, column in (("mappings.tsv", 0), ("mappings_sssom.tsv", 5)):
            assert _ids_back(after / output, column, back) == (before / output).read_text(encoding="utf-8"), (
                name, i, output
            )
