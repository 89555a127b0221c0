#!/usr/bin/env python3
"""Compare the loader verdicts of two termbridge source trees.

Generates inputs for every declared TSV loader with ``tests/ingest_fuzz.py``
(from the column declarations of this repository's ``src/``), and
MRCONSO.RRF/MRSTY.RRF pairs for ``load_umls`` (the ``umls`` family), reads
each one with each tree's loaders in a subprocess, and reports every input
whose (exception type, code, line) differs between the trees, or, for a
pair both trees load, whose UMLS tables differ.  Each difference is
classed: both trees raise a ParseError in the same file and the new one
names an earlier line (``earlier_line``), the same line (``same_line``) or
a later line (``later_line``) than the old one, or the outcome differs in
another way (``other``).  The summary counts each class per family.

Usage: python scripts/ingest_differential.py OLD_SRC NEW_SRC [--inputs N] [--seed S]

Exits 0 when no input differs, 1 otherwise.
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
    rnd = random.Random(f"{seed}:umls")
    for i in range(count):
        directory = work / "umls" / str(i)
        directory.mkdir(parents=True)
        inputs.append(("umls", str(ingest_fuzz.umls_files(rnd, directory))))
    return inputs


_KINDS = ("earlier_line", "same_line", "later_line", "other")


def _file(verdict) -> str:
    """The file a ParseError verdict names: its message ends ``[file:line]``."""
    return verdict[3].rsplit(" [", 1)[-1].rsplit(":", 1)[0]


def _kind(before, after) -> str:
    """The class of a differing verdict pair, one of ``_KINDS``."""
    if any(v[0] != "ParseError" or v[2] is None for v in (before, after)) or _file(before) != _file(after):
        return "other"
    old, new = before[2], after[2]
    return "earlier_line" if new < old else "same_line" if new == old else "later_line"


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
    parser.add_argument("--inputs", type=int, default=2000, help="inputs per loader or family (default 2000)")
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
        differ = 0
        for (loader, path), before, after in zip(inputs, old, new):
            row = summary.setdefault(loader, {"inputs": 0, "differ": 0, **dict.fromkeys(_KINDS, 0)})
            row["inputs"] += 1
            # A load's tables are compared; an error's message is not.
            if before[:3] == after[:3] and (before[0] != "ok" or before[3] == after[3]):
                continue
            kind = _kind(before, after)
            row["differ"] += 1
            row[kind] += 1
            differ += 1
            print(f"{loader} {Path(path).parent.name} ({kind}): {before} -> {after}")
            for name in ("MRCONSO.RRF", "MRSTY.RRF") if loader == "umls" else (Path(path).name,):
                text = (Path(path).parent / name).read_text(encoding="utf-8")
                print(f"    {name}:\n    " + text.replace("\n", "\n    ").rstrip())

    print(json.dumps({"seed": args.seed, "loaders": summary, "differences": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
