#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that:

* the same seed gives the same input bytes and a new seed new bytes;
* map-cosine at seed 7 and criterion-8 size is the criterion-8 fixture;
* each workload, untraced and traced, goes through run.py's own code
  path, passes its checks and emits exactly the metric names listed in
  BENCHMARK.json;
* the checks flag a broken output (a dropped or altered row).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run
from checks import Checker
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.WORK / "selftest"


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_generators(failures: list) -> None:
    for workload in WORKLOADS:
        digests = []
        for label, seed in (("a", 5), ("b", 5), ("c", 6)):
            root = WORKDIR / f"gen-{workload}-{label}"
            shutil.rmtree(root, ignore_errors=True)
            gen.generate(workload, root, seed, "tiny")
            digests.append(_digest(root))
        if digests[0] != digests[1]:
            failures.append(f"{workload}: same seed gave different bytes")
        if digests[0] == digests[2]:
            failures.append(f"{workload}: a new seed gave the same bytes")

    root = WORKDIR / "criterion8"
    shutil.rmtree(root, ignore_errors=True)
    gen.generate("map-cosine", root, 7, "criterion8")
    for name, want in gen.CRITERION8_SHA256.items():
        got = hashlib.sha256((root / "program" / name).read_bytes()).hexdigest()
        if got != want:
            failures.append(f"map-cosine seed 7 {name} is not the criterion-8 fixture")


def check_runs(failures: list) -> None:
    expected = {
        0: sorted(m["name"] for m in BENCHMARK["end_to_end"]),
        1: sorted(m["name"] for m in BENCHMARK["per_layer"]),
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} --trace {trace}"
            before = len(failures)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} failed iterations")
            if sorted(result["metrics"]) != expected[trace]:
                missing = set(expected[trace]) ^ set(result["metrics"])
                failures.append(f"{label}: metric names differ from BENCHMARK.json: {sorted(missing)}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def check_checks(failures: list) -> None:
    """Each workload's checks pass on a real output and flag broken ones."""
    breakers = {
        "map-cosine": [("condition/mappings.tsv", lambda ls: ls[:-1])],
        "map-ladder": [
            ("measurement/mappings.tsv", lambda ls: [l.replace("\tNOT(0)\t", "\t\t") for l in ls]),
            ("condition/mappings.tsv", lambda ls: [l.replace("Manual One-to-One", "Automatic One-to-One") for l in ls]),
        ],
        "evaluate": [
            ("coverage/pairwise.tsv", lambda ls: ls[:-1]),
            ("sssom/mappings_sssom.tsv", lambda ls: ls[:-1]),
        ],
    }
    for workload, edits in breakers.items():
        inputs, _ = run.prepare_inputs(workload, 5, "tiny")
        out = WORKDIR / f"out-{workload}"
        record = run.iteration(workload, inputs / "program", out, run.program_env(5))
        checker = Checker(workload, inputs)
        problems = record["problems"] or checker.check(out)
        if problems:
            failures.append(f"{workload}: checks fail on a real output: {problems[0]}")
            continue
        before = len(failures)
        for name, edit in edits:
            broken = WORKDIR / f"broken-{workload}"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(out, broken)
            _rewrite(broken / name, edit)
            if not checker.check(broken):
                failures.append(f"{workload}: checks missed a broken {name}")
        print(f"{workload} checks: {'ok' if len(failures) == before else 'FAILED'}", flush=True)


def main() -> int:
    if not (run.SRC / "termbridge" / "cli.py").is_file():
        print(f"error: no termbridge package under {run.SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    try:
        check_generators(failures)
        check_checks(failures)
        check_runs(failures)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
