"""Metamorphic relation: the order of input rows does not change ``map``.

Each input file of a ``map`` run is rewritten with its data rows in a
seeded random order, any header kept first: a TSV or CSV whose first
line does not start with a digit has one (the ancestor file may not).
Dumps, MRCONSO/MRSTY rows and stopwords are shuffled whole.  The run on
the shuffled files must write ``mappings.tsv`` and ``summary.json``
byte for byte as the run on the originals.  The inputs are the golden
and measurement fixtures and perfbench's tiny map-cosine and map-ladder
inputs.
"""

import importlib
import random
from pathlib import Path

import pytest

from termbridge.cli import main

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
