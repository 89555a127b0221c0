#!/usr/bin/env python3
"""Compare the output bytes of two termbridge source trees on the same inputs.

Each tree runs every command of each input set as
``python -m termbridge.cli`` with its ``src/`` first on ``PYTHONPATH``,
and every output file is compared byte for byte.  The input sets are:

* ``golden`` and ``measurement``: the fixtures of ``tests/fixtures.py``,
  each mapped and then exported with ``export-sssom``;
* one set per ``--workload NAME:SEED[:SIZE]``: the inputs perfbench's
  ``gen.py`` writes for that workload, run through the commands of
  ``workloads.py``, with every ``map`` followed by ``export-sssom`` on its
  mappings.  SIZE is one of ``gen.SIZES`` (default ``bench``), or
  ``abstract`` for map-ladder at the paper abstract's sizes (90,000
  conditions, 10,000 measurements, 5*10^4 classes, 10^6 MRCONSO rows).

With ``--jobs``, each ``map`` runs once per value given.  For every output
the script prints both sha256 digests and, where they differ, the first
differing line of each.

Usage: python scripts/output_differential.py OLD_SRC NEW_SRC
           [--workload map-ladder:11] [--jobs 1 --jobs 8] [--work DIR]

Exits 0 when every output is identical, 1 otherwise (a command failing in
either tree counts as a difference).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import fixtures  # noqa: E402  (tests/fixtures.py)
import gen  # noqa: E402  (perfbench/gen.py)
import workloads  # noqa: E402  (perfbench/workloads.py)

ABSTRACT = dict(
    n_condition=90_000, n_measurement=10_000, n_classes=50_000, n_mrconso=1_000_000, vocab=50_000
)


def _fixture_commands(name: str, inputs: Path, jobs_flag):
    """Write one fixture of ``tests/fixtures.py``; return the function of an
    output directory that gives its [(argv, out_dir, output names)]."""
    if name == "golden":
        p = fixtures.write_condition_fixture(inputs)
        argv = [
            "map", "--concepts", p["concepts"], "--ontology", p["ontology"], "--code-map", p["code_map"],
            "--ancestors", p["ancestors"], "--umls-mrconso", p["mrconso"], "--umls-mrsty", p["mrsty"],
            "--routing", p["routing"], "--curation", p["curation"], "--stopwords", p["stopwords"],
            "--domain", "CONDITION",
        ]
    else:
        p = fixtures.write_measurement_fixture(inputs)
        argv = [
            "map", "--concepts", p["concepts"], "--ontology", p["ontology"], "--code-map", p["code_map"],
            "--measurement-scales", p["scales"], "--measurement-targets", p["targets"],
            "--domain", "MEASUREMENT",
        ]
    return lambda out: [(argv + ["--out", str(out / "map")] + jobs_flag, out / "map", workloads.MAP_OUTPUTS)]


def _workload_commands(spec: str, inputs: Path, jobs):
    """Generate one workload's inputs; return its commands as ``_fixture_commands`` does."""
    name, seed, *size = spec.split(":")
    size = size[0] if size else "bench"
    if size == "abstract":
        gen.write_map_ladder(inputs, int(seed), **ABSTRACT)
    else:
        gen.generate(name, inputs, int(seed), size)
    return lambda out: workloads.commands(name, inputs / "program", out, jobs)


def _with_exports(commands):
    """``commands`` with an ``export-sssom`` after each ``map``."""
    out = []
    for argv, out_dir, names in commands:
        out.append((argv, out_dir, names))
        if argv[0] == "map":
            concepts = argv[argv.index("--concepts") + 1]
            sssom = out_dir / "sssom"
            out.append(
                (
                    ["export-sssom", "--mappings", str(out_dir / "mappings.tsv"), "--concepts", concepts,
                     "--out", str(sssom)],
                    sssom,
                    workloads.SSSOM_OUTPUTS,
                )
            )
    return out


def _run(src: Path, argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, "-m", "termbridge.cli", *argv], env=env, capture_output=True, text=True
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _first_difference(old: Path, new: Path) -> str:
    with open(old, "rb") as a, open(new, "rb") as b:
        for lineno, (x, y) in enumerate(zip(a, b), start=1):
            if x != y:
                return f"line {lineno}:\n      old {x!r}\n      new {y!r}"
    return "one file is a prefix of the other"


def compare(label: str, prepare, work: Path, trees) -> int:
    """Run one input set's commands in both trees; the number of differences."""
    inputs = work / label / "inputs"
    inputs.mkdir(parents=True)
    commands_for = prepare(inputs)
    runs = {}
    for tree, src in trees.items():
        commands = _with_exports(commands_for(work / label / tree))
        for argv, out_dir, names in commands:
            proc = _run(src, argv)
            if proc.returncode != 0:
                print(f"{label}: {tree} exited {proc.returncode} on {argv[0]}: {proc.stderr.strip()}")
                return 1
        runs[tree] = [out_dir / name for _, out_dir, names in commands for name in names]
    differences = 0
    for old, new in zip(runs["old"], runs["new"]):
        a, b = _sha256(old), _sha256(new)
        name = new.relative_to(work / label / "new")
        print(f"{label}/{name}  {a[:16]}  {b[:16]}  {'same' if a == b else 'DIFFERENT'}")
        if a != b:
            differences += 1
            print("    " + _first_difference(old, new))
    return differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", action="append", default=[], help="NAME:SEED[:SIZE]; repeatable")
    parser.add_argument("--jobs", action="append", type=int, default=[], help="map's --jobs; repeatable")
    parser.add_argument(
        "--work", type=Path, help="directory for inputs and outputs, made if missing (default: a temporary one)"
    )
    args = parser.parse_args()
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    jobs_values = args.jobs or [None]

    sets = []
    for jobs in jobs_values:
        flag = [] if jobs is None else ["--jobs", str(jobs)]
        suffix = "" if jobs is None else f"-jobs{jobs}"
        for name in ("golden", "measurement"):
            sets.append((name + suffix, lambda inputs, n=name, f=flag: _fixture_commands(n, inputs, f)))
        for spec in args.workload:
            label = spec.replace(":", "-") + suffix
            sets.append((label, lambda inputs, s=spec, j=jobs: _workload_commands(s, inputs, j)))

    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="output-differential-", dir=args.work) as tmp:
        differences = sum(compare(label, prepare, Path(tmp), trees) for label, prepare in sets)
    print(f"{differences} output(s) differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
