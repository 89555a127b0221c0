#!/usr/bin/env python3
"""Compare the loader verdicts of two termbridge source trees.

Generates inputs for every declared TSV loader with ``tests/ingest_fuzz.py``
(from the column declarations of this repository's ``src/``), reads each
one with each tree's loaders in a subprocess, and reports every input
whose (exception type, code, line) differs between the trees.  A
difference where the second tree rejects a row that the first let
through is counted apart, as the ``expected`` case: a second
``curation.tsv`` row for one (concept, ontology), which the loader now
rejects where ``map`` rejected it only for the mapped domain's concepts
(``two curation rows``).

Usage: python scripts/ingest_differential.py OLD_SRC NEW_SRC [--inputs N] [--seed S]

Exits 0 when no difference falls outside the ``expected`` case, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

# Per loader, how the second tree's message starts in the expected case.
_EXPECTED = {"curation": "two curation rows "}

# Run in each tree: the verdict of every input file listed in argv[1].
_VERDICT_SCRIPT = """
import json, sys
from pathlib import Path
import ingest_fuzz

inputs = json.loads(Path(sys.argv[1]).read_text())
print(json.dumps([ingest_fuzz.verdict(loader, Path(path), Path(path).parent) for loader, path in inputs]))
"""


def _generate(work: Path, count: int, seed: int) -> list[tuple[str, str]]:
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    import ingest_fuzz
    from termbridge import ingest

    inputs = []
    for loader, (declaration, _) in sorted(ingest_fuzz.DECLARATIONS.items()):
        columns = getattr(ingest, declaration)
        rnd = random.Random(f"{seed}:{loader}")
        for i in range(count):
            directory = work / loader / str(i)
            directory.mkdir(parents=True)
            path = directory / "input.tsv"
            path.write_text(ingest_fuzz.text(loader, rnd, columns), encoding="utf-8")
            inputs.append((loader, str(path)))
    return inputs


def _verdicts(src: Path, manifest: Path) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-c", _VERDICT_SCRIPT, str(manifest)], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--inputs", type=int, default=2000, help="inputs per loader (default 2000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="ingest-differential-") as tmp:
        work = Path(tmp)
        inputs = _generate(work, args.inputs, args.seed)
        manifest = work / "inputs.json"
        manifest.write_text(json.dumps(inputs))
        old = _verdicts(args.old_src.resolve(), manifest)
        new = _verdicts(args.new_src.resolve(), manifest)

        summary: dict[str, dict[str, int]] = {}
        other = 0
        for (loader, path), before, after in zip(inputs, old, new):
            row = summary.setdefault(loader, {"inputs": 0, "differ": 0, "expected": 0})
            row["inputs"] += 1
            if before[:3] == after[:3]:
                continue
            row["differ"] += 1
            if loader in _EXPECTED and after[3].startswith(_EXPECTED[loader]):
                row["expected"] += 1
                continue
            other += 1
            print(f"{loader} {Path(path).parent.name}: {before} -> {after}")
            print("    " + Path(path).read_text(encoding="utf-8").replace("\n", "\n    ").rstrip())

    print(json.dumps({"seed": args.seed, "loaders": summary, "differences_outside_expected": other}, indent=1))
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
