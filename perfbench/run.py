#!/usr/bin/env python3
"""termbridge benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload map-cosine --seed 1 --seconds 25 --trace 0

Run it from the repository root; it runs the package under ``src/`` and
keeps its inputs, outputs and results under ``.perfbench/``.

Untraced (``--trace 0``): a closed loop with one client.  Each iteration
starts the workload's ``termbridge`` subprocesses one after another, and
the next starts when the previous has exited.  Before each iteration a
set-up probe times a subprocess that only imports ``termbridge.cli``.
Every iteration's outputs are checked (checks.py) against the generated
ground truth and against an untimed reference iteration at ``--jobs 1``.
The last stdout line is one JSON object with the medians of ``wall_s``,
``peak_rss_mib`` and ``setup_s``.

Traced (``--trace 1``): tracer.py runs the workload in process, alternating
untraced and traced iterations, and reports the per-layer metrics; one
more untimed iteration under another hash seed gives
``determinism.hashseed_changed_outputs``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import hostinfo
from checks import Checker, compare_outputs
from workloads import WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_ITERATIONS = 3
MIN_SETUP_PROBES = 5
# A run must end within 180 s however slow the program is: no iteration
# starts that would end after this budget, even below MIN_ITERATIONS.
RUN_BUDGET_S = 150.0
PROCESS_TIMEOUT_S = 150.0
CACHED_INPUTS_PER_WORKLOAD = 3
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def hash_seed(seed: int) -> int:
    return seed % 2**32


def program_env(seed_for_hash: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = str(seed_for_hash)
    return env


def prepare_inputs(workload: str, seed: int, size: str) -> tuple[Path, float]:
    """Generated inputs, cached per (workload, size, seed, generator digest)."""
    cache = WORK / "inputs"
    root = cache / f"{workload}-{size}-s{seed}-{gen.generator_digest()}"
    started = time.perf_counter()
    if not (root / "complete").is_file():
        partial = root.with_name(f"{root.name}.partial{os.getpid()}")
        shutil.rmtree(partial, ignore_errors=True)
        gen.generate(workload, partial, seed, size)
        (partial / "complete").write_text("")
        shutil.rmtree(root, ignore_errors=True)
        partial.rename(root)
    os.utime(root)
    cached = sorted(
        (p for p in cache.iterdir() if p.name.startswith(f"{workload}-") and ".partial" not in p.name),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in cached[CACHED_INPUTS_PER_WORKLOAD:]:
        shutil.rmtree(stale, ignore_errors=True)
    return root, time.perf_counter() - started


def spawn(argv, env, stderr_path: Path, stdout=subprocess.DEVNULL):
    """Run one subprocess to completion; (exit code, wall seconds, rusage)."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def iteration(workload: str, program: Path, out: Path, env, jobs=None) -> dict:
    """One iteration: the workload's subprocesses in turn, with host noise."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    steal0 = hostinfo.steal_seconds()
    record = {"wall_s": 0.0, "peak_rss_mib": 0.0, "cpu_s": 0.0, "commands": [], "problems": []}
    for argv, _, _ in commands(workload, program, out, jobs):
        stderr = out / f"{argv[0]}.stderr"
        code, wall, usage = spawn([sys.executable, "-m", "termbridge.cli", *argv], env, stderr)
        record["wall_s"] += wall
        record["cpu_s"] += usage.ru_utime + usage.ru_stime
        record["peak_rss_mib"] = max(record["peak_rss_mib"], usage.ru_maxrss / 1024)
        record["commands"].append({"command": argv[0], "wall_s": wall, "rss_mib": usage.ru_maxrss / 1024})
        if code != 0:
            record["problems"].append(f"{argv[0]} exited {code}: {_stderr_tail(stderr)}")
            break
    steal1 = hostinfo.steal_seconds()
    record["steal_s"] = None if steal0 is None or steal1 is None else round(steal1 - steal0, 3)
    record["loadavg"] = hostinfo.loadavg()
    return record


def setup_probe(env, run_dir: Path) -> float:
    code, wall, _ = spawn(
        [sys.executable, "-c", "import termbridge.cli"], env, run_dir / "setup.stderr"
    )
    if code != 0:
        raise RuntimeError(f"importing termbridge.cli failed: {_stderr_tail(run_dir / 'setup.stderr')}")
    return wall


def _line(label: str, rec: dict) -> str:
    status = "ok" if not rec["problems"] else "FAILED " + rec["problems"][0]
    return (
        f"{label}: wall_s={rec['wall_s']:.4f} steal_s={rec['steal_s']} "
        f"peak_rss_mib={rec['peak_rss_mib']:.1f} cpu_s={rec['cpu_s']:.3f} "
        f"loadavg={rec['loadavg'][0]} {status}"
    )


def reference_iteration(workload, program, run_dir, env, checker) -> dict:
    """Untimed iteration at --jobs 1 that later iterations must match."""
    ref = iteration(workload, program, run_dir / "reference", env, jobs=1)
    if not ref["problems"]:
        ref["problems"] = checker.check(run_dir / "reference")
    print(_line("reference (--jobs 1, untimed)", ref), flush=True)
    return ref


def measure(args, inputs: Path, run_dir: Path, results: dict) -> dict:
    """Untraced closed loop; returns the final result object."""
    env = program_env(hash_seed(args.seed))
    program = inputs / "program"
    checker = Checker(args.workload, inputs)
    ref = reference_iteration(args.workload, program, run_dir, env, checker)
    setup_probe(env, run_dir)  # warm the page cache and bytecode, untimed

    records, probes = [], []
    started = time.perf_counter()
    while len(records) < MIN_ITERATIONS or time.perf_counter() - started < args.seconds:
        if records and time.perf_counter() + probes[-1] + records[-1]["wall_s"] > args.deadline:
            break
        probes.append(setup_probe(env, run_dir))
        rec = iteration(args.workload, program, run_dir / "iteration", env)
        if not rec["problems"]:
            rec["problems"] = checker.check(run_dir / "iteration", run_dir / "reference")
        rec["setup_s"] = probes[-1]
        records.append(rec)
        print(_line(f"iteration {len(records)}", rec), flush=True)
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(setup_probe(env, run_dir))

    results.update(reference=ref, iterations=records, setup_probes=probes)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
        "setup_s": statistics.median(probes),
    }
    print(
        f"medians over {len(records)} iterations and {len(probes)} set-up probes: "
        + " ".join(f"{k}={v:.4f}" for k, v in metrics.items()),
        flush=True,
    )
    failed = sum(1 for r in [ref, *records] if r["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(records) + 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def measure_traced(args, inputs: Path, run_dir: Path, results: dict) -> dict:
    """Per-layer run through tracer.py, plus the hash-seed determinism check."""
    env = program_env(hash_seed(args.seed))
    program = inputs / "program"
    checker = Checker(args.workload, inputs)
    ref = reference_iteration(args.workload, program, run_dir, env, checker)

    trace_file = run_dir / "trace.json"
    code, wall, _ = spawn(
        [sys.executable, str(HERE / "tracer.py"), "--workload", args.workload,
         "--inputs", str(inputs), "--reference", str(run_dir / "reference"),
         "--work", str(run_dir / "traced"), "--seconds", str(args.seconds),
         "--out", str(trace_file), "--spans", results["spans_file"],
         # leave time for the hash-seed iteration below
         "--budget", str(args.deadline - time.perf_counter() - ref["wall_s"])],
        env, run_dir / "tracer.stderr", stdout=None,
    )
    if code != 0:
        raise RuntimeError(f"tracer exited {code}: {_stderr_tail(run_dir / 'tracer.stderr')}")
    trace = json.loads(trace_file.read_text())

    other = program_env(hash_seed(args.seed + 1_000_003))
    again = iteration(args.workload, program, run_dir / "hashseed", other)
    changed = len(compare_outputs(args.workload, run_dir / "hashseed", run_dir / "reference"))
    if not again["problems"]:
        again["problems"] = checker.check(run_dir / "hashseed")
    print(_line("other hash seed (untimed)", again) + f" changed_outputs={changed}", flush=True)

    metrics = trace["metrics"]
    metrics["determinism.hashseed_changed_outputs"]["value"] = changed
    results.update(reference=ref, hashseed_iteration=again, trace=trace)
    failed = trace["failed"] + sum(1 for r in (ref, again) if r["problems"])
    return {
        "correct": failed == 0,
        "attempted": trace["attempted"] + 2,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="input size; tiny is for selftest.py")
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_BUDGET_S

    if not (SRC / "termbridge" / "cli.py").is_file():
        print(f"error: no termbridge package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    inputs, generate_s = prepare_inputs(args.workload, args.seed, args.size)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = WORK / "runs" / stem
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seed": hash_seed(args.seed),
        "inputs": inputs.name,
        "generate_s": generate_s,
        "host": hostinfo.describe(),
        "loadavg_start": hostinfo.loadavg(),
    }
    if args.trace:
        results["spans_file"] = str(results_dir / f"{stem}-spans.jsonl")
    try:
        measured = measure_traced if args.trace else measure
        outcome = measured(args, inputs, run_dir, results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results["result"] = outcome
    (results_dir / f"{stem}.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(json.dumps(outcome, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
