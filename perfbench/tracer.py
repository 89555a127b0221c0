"""Traced in-process run: per-layer times and counts, measured from outside.

    python3 perfbench/tracer.py --workload W --inputs DIR --reference DIR \
        --work DIR --seconds S --budget S --out FILE --spans FILE

``run.py --trace 1`` starts this with ``PYTHONPATH`` pointing at the
package and ``PYTHONHASHSEED`` pinned.  It calls ``termbridge.cli.main``
in process, alternating untraced and traced iterations.  For a traced
iteration it replaces the public functions under the names
``termbridge.pipeline`` (and ``cli``, ``similarity``, ``stats``) looks them
up by, and puts the originals back afterwards, so untraced iterations run
unwrapped code.

Two kinds of wrapper:

* a *span* records (id, name, start, end, parent, thread, iteration) for
  a stage-level call; a span's self time is its duration minus the union
  of its child spans and minus the same-thread per-item calls made
  directly under it;
* an *aggregate* wraps a per-item function (per string, per concept, per
  record) and only sums wall time, thread CPU time and calls per thread,
  so no span object is made per item.  Per-pair functions such as
  ``curie_ontology`` are never wrapped; counts come from return values.

A wrapped name that no longer exists is reported as absent, with the
entry point it names, and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from checks import Checker
from workloads import commands, output_files

# (module, attribute, span name, {count metric: function of the return value})
SPANS = [
    ("termbridge.cli", "run_map", "pipeline.run_map", {}),
    ("termbridge.cli", "run_coverage", "pipeline.run_coverage", {}),
    ("termbridge.cli", "run_phers", "pipeline.run_phers", {}),
    ("termbridge.cli", "export_sssom", "pipeline.export_sssom", {}),
    ("termbridge.pipeline", "load_concepts", "ingest.load_concepts", {}),
    ("termbridge.pipeline", "load_ontology_dump", "ingest.load_ontology_dump", {}),
    ("termbridge.pipeline", "load_umls", "ingest.load_umls",
     {"ingest.umls_keys": lambda r: len(r.atoms_by_code)}),
    ("termbridge.pipeline", "load_curation", "ingest.load_curation", {}),
    ("termbridge.pipeline", "load_prevalence", "ingest.load_prevalence",
     {"ingest.prevalence_rows": lambda r: len(r.rows)}),
    ("termbridge.pipeline", "CuiBridge", "align.cui_bridge", {}),
    ("termbridge.pipeline", "enrich_concepts", "align.cui_bridge", {}),
    ("termbridge.pipeline", "build_indexes", "align.build_indexes", {}),
    ("termbridge.pipeline", "load_routing_policy", "synthesize.load_inputs", {}),
    ("termbridge.pipeline", "load_measurement_scales", "synthesize.load_inputs", {}),
    ("termbridge.pipeline", "load_measurement_targets", "synthesize.load_inputs", {}),
    ("termbridge.pipeline", "build_corpus", "similarity.build_corpus", {"similarity.documents": len}),
    ("termbridge.pipeline", "fit", "similarity.fit", {
        "similarity.vocabulary": lambda m: len(m.vocabulary),
        "similarity.matrix_nnz": lambda m: int(m.matrix.nnz),
    }),
    ("termbridge.pipeline", "score_concept_pairs", "similarity.score", {"similarity.candidate_pairs": len}),
    ("termbridge.pipeline", "filter_pairs", "similarity.filter", {"similarity.kept_pairs": len}),
    ("termbridge.pipeline", "best_per_concept", "similarity.best", {"similarity.winners": len}),
    ("termbridge.pipeline", "partition_coverage", "evaluate.partition", {}),
    ("termbridge.pipeline", "bucket_errors", "evaluate.buckets", {}),
    ("termbridge.pipeline", "phers", "evaluate.phers", {}),
    ("termbridge.pipeline", "group_stats", "evaluate.group_stats", {}),
    ("termbridge.pipeline", "chi_square_yates", "stats.omnibus", {}),
    ("termbridge.pipeline", "bonferroni_pairwise", "stats.pairwise",
     {"stats.pairwise_tests": lambda r: len(r.tests)}),
    # run_phers imports the rank-sum test from the stats module at call time.
    ("termbridge.stats", "wilcoxon_rank_sum_one_sided", "stats.rank_sum", {}),
]

# (module, attribute, aggregate name, {count metric: function of the return value})
AGGREGATES = [
    ("termbridge.similarity", "tokenize", "lexical.tokenize", {}),
    ("termbridge.pipeline", "route", "synthesize.route", {}),
    ("termbridge.pipeline", "align_concept", "align.concept", {}),
    ("termbridge.pipeline", "align_via_ancestors", "align.ancestor", {"align.ancestor_candidates": len}),
    ("termbridge.pipeline", "synthesize", "synthesize.synthesize", {}),
    ("termbridge.pipeline", "expand_measurements", "synthesize.expand",
     {"synthesize.result_rows": lambda r: sum(1 for rec in r[0] if rec.outcome is not None)}),
    ("termbridge.pipeline", "validate_record", "core.validate", {}),
]

# The per-concept thread pool: a span around the pool, an aggregate per item.
POOL = ("termbridge.pipeline", "_parallel_map")

# Reported metric -> (unit, where it comes from).  Span metrics are self
# seconds; aggregate metrics are busy seconds (thread CPU time) or calls.
PER_LAYER = {
    "ingest.load_umls_s": ("s", "span:ingest.load_umls"),
    "ingest.umls_keys": ("count", "count"),
    "ingest.load_concepts_s": ("s", "span:ingest.load_concepts"),
    "ingest.load_curation_s": ("s", "span:ingest.load_curation"),
    "ingest.load_ontology_dump_s": ("s", "span:ingest.load_ontology_dump"),
    "ingest.load_prevalence_s": ("s", "span:ingest.load_prevalence"),
    "ingest.prevalence_rows": ("count", "count"),
    "lexical.tokenize_s": ("s", "busy:lexical.tokenize"),
    "lexical.tokenize_calls": ("count", "calls:lexical.tokenize"),
    "similarity.build_corpus_s": ("s", "span:similarity.build_corpus"),
    "similarity.documents": ("count", "count"),
    "similarity.fit_s": ("s", "span:similarity.fit"),
    "similarity.vocabulary": ("count", "count"),
    "similarity.matrix_nnz": ("count", "count"),
    "similarity.score_s": ("s", "span:similarity.score"),
    "similarity.candidate_pairs": ("count", "count"),
    "similarity.filter_s": ("s", "span:similarity.filter"),
    "similarity.kept_pairs": ("count", "count"),
    "similarity.best_s": ("s", "span:similarity.best"),
    "similarity.winners": ("count", "count"),
    "similarity.winner_ratio": ("ratio", "derived"),
    "align.cui_bridge_s": ("s", "span:align.cui_bridge"),
    "align.build_indexes_s": ("s", "span:align.build_indexes"),
    "align.concept_s": ("s", "busy:align.concept"),
    "align.concept_calls": ("count", "calls:align.concept"),
    "align.ancestor_s": ("s", "busy:align.ancestor"),
    "align.ancestor_calls": ("count", "calls:align.ancestor"),
    "align.ancestor_candidates": ("count", "count"),
    "synthesize.route_s": ("s", "busy:synthesize.route"),
    "synthesize.synthesize_s": ("s", "busy:synthesize.synthesize"),
    "synthesize.calls": ("count", "calls:synthesize.synthesize"),
    "synthesize.expand_s": ("s", "busy:synthesize.expand"),
    "synthesize.result_rows": ("count", "count"),
    "synthesize.load_inputs_s": ("s", "span:synthesize.load_inputs"),
    "core.validate_s": ("s", "busy:core.validate"),
    "core.records": ("count", "calls:core.validate"),
    "pipeline.run_map_self_s": ("s", "span:pipeline.run_map"),
    "pipeline.run_map_wall_s": ("s", "wall:pipeline.run_map"),
    "pipeline.per_concept_busy_s": ("s", "busy:pipeline.per_concept"),
    "pipeline.per_concept_wall_s": ("s", "wall:pipeline.per_concept_pool"),
    "pipeline.pool_speedup": ("ratio", "derived"),
    "pipeline.jobs1_wall_s": ("s", "derived"),
    "pipeline.rows_written": ("count", "derived"),
    "pipeline.run_coverage_self_s": ("s", "span:pipeline.run_coverage"),
    "pipeline.run_phers_self_s": ("s", "span:pipeline.run_phers"),
    "pipeline.export_sssom_s": ("s", "span:pipeline.export_sssom"),
    "pipeline.sssom_rows": ("count", "derived"),
    "evaluate.partition_s": ("s", "span:evaluate.partition"),
    "evaluate.buckets_s": ("s", "span:evaluate.buckets"),
    "evaluate.phers_s": ("s", "span:evaluate.phers"),
    "evaluate.group_stats_s": ("s", "span:evaluate.group_stats"),
    "stats.omnibus_s": ("s", "span:stats.omnibus"),
    "stats.pairwise_s": ("s", "span:stats.pairwise"),
    "stats.pairwise_tests": ("count", "count"),
    "stats.rank_sum_s": ("s", "span:stats.rank_sum"),
    "cli.self_s": ("s", "span:cli.main"),
    "process.untraced_wall_s": ("s", "derived"),
    "process.traced_wall_s": ("s", "derived"),
    "process.cpu_s": ("s", "derived"),
    "process.trace_overhead_s": ("s", "derived"),
    "trace.unaccounted_s": ("s", "derived"),
    "determinism.hashseed_changed_outputs": ("count", "derived"),
}

# Metrics that need another metric's entry point, for absence reporting.
_DERIVED_FROM = {
    "similarity.winner_ratio": ("similarity.best", "similarity.score"),
    "pipeline.pool_speedup": ("pipeline.per_concept_pool",),
}


class _ThreadState:
    __slots__ = ("stack", "acc", "counts")

    def __init__(self):
        self.stack = []
        self.acc = {}  # (aggregate name, parent) -> [wall, cpu, calls]
        self.counts = defaultdict(int)


class Tracer:
    """Span and aggregate recorder; all state lives on the instance."""

    def __init__(self):
        self.iteration = 0
        self.spans = []  # (id, name, start, end, parent, thread, iteration)
        self.absent = {}  # wrapped name -> missing entry point
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = defaultdict(list)  # iteration -> thread states
        self._originals = []

    # --- per-thread state -----------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None or getattr(self._local, "iteration", None) != self.iteration:
            state = _ThreadState()
            self._local.state = state
            self._local.iteration = self.iteration
            with self._lock:
                self._states[self.iteration].append(state)
        return state

    # --- wrappers ---------------------------------------------------------

    def span(self, name, fn, counters=None):
        counters = counters or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            sid = next(self._ids)
            parent = state.stack[-1] if state.stack else None
            state.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident(), self.iteration))
            for metric, count in counters.items():
                state.counts[metric] += count(result)
            return result

        return wrapper

    def aggregate(self, name, fn, counters=None):
        counters = counters or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            parent = state.stack[-1] if state.stack else None
            state.stack.append(name)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                cpu = time.thread_time() - cpu0
                state.stack.pop()
            slot = state.acc.get((name, parent))
            if slot is None:
                slot = state.acc[(name, parent)] = [0.0, 0.0, 0]
            slot[0] += wall
            slot[1] += cpu
            slot[2] += 1
            for metric, count in counters.items():
                state.counts[metric] += count(result)
            return result

        return wrapper

    def pool(self, fn):
        span = self.span("pipeline.per_concept_pool", fn)

        @functools.wraps(fn)
        def wrapper(item_fn, items, jobs):
            return span(self.aggregate("pipeline.per_concept", item_fn), items, jobs)

        return wrapper

    # --- installation -----------------------------------------------------

    def _patch(self, module_name, attr, make, names):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            for name in names:
                self.absent[name] = f"{module_name}.{attr}"
            return
        setattr(module, attr, make(original))
        self._originals.append((module, attr, original))

    @contextlib.contextmanager
    def installed(self):
        for module, attr, name, counters in SPANS:
            self._patch(module, attr, lambda f, n=name, c=counters: self.span(n, f, c), [name, *counters])
        for module, attr, name, counters in AGGREGATES:
            self._patch(module, attr, lambda f, n=name, c=counters: self.aggregate(n, f, c), [name, *counters])
        self._patch(*POOL, self.pool, ["pipeline.per_concept_pool", "pipeline.per_concept"])
        try:
            yield
        finally:
            for module, attr, original in reversed(self._originals):
                setattr(module, attr, original)
            self._originals.clear()

    # --- per-iteration analysis ---------------------------------------------

    def analyse(self, iteration: int, wall: float) -> dict:
        """Self, busy and call totals of one traced iteration."""
        spans = [s for s in self.spans if s[6] == iteration]
        children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        acc = defaultdict(lambda: [0.0, 0.0, 0])
        under_span = defaultdict(float)  # span id -> same-thread aggregate wall
        counts = defaultdict(int)
        with self._lock:
            states = self._states.pop(iteration, [])
        for state in states:
            for (name, parent), (w, cpu, calls) in state.acc.items():
                total = acc[name]
                total[0] += w
                total[1] += cpu
                total[2] += calls
                if isinstance(parent, int):
                    under_span[parent] += w
            for metric, value in state.counts.items():
                counts[metric] += value

        self_s = defaultdict(float)
        wall_s = defaultdict(float)
        for sid, name, start, end, _, _, _ in spans:
            covered = _union(children.get(sid, ()), start, end)
            self_s[name] += (end - start) - covered - under_span.get(sid, 0.0)
            wall_s[name] += end - start
        return {
            "self": dict(self_s),
            "wall": dict(wall_s),
            "busy": {name: v[1] for name, v in acc.items()},
            "calls": {name: v[2] for name, v in acc.items()},
            "counts": dict(counts),
            "unaccounted": wall - sum(self_s.values()) - sum(under_span.values()),
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, iteration in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "iteration": iteration,
                }) + "\n")


def _union(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _iteration(main, tracer, workload, program, out, traced, jobs=None):
    """One in-process iteration: (wall seconds, CPU seconds, failed commands)."""
    gc.collect()
    cmds = commands(workload, program, out, jobs)
    sink = io.StringIO()
    cpu0 = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        if traced:
            with tracer.installed():
                call = tracer.span("cli.main", main)
                codes = [call(argv) for argv, _, _ in cmds]
        else:
            codes = [main(argv) for argv, _, _ in cmds]
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    failed = [argv[0] for (argv, _, _), code in zip(cmds, codes) if code != 0]
    return wall, cpu, failed


def _metric_value(name: str, source: str, analysis: dict):
    kind, _, key = source.partition(":")
    if kind == "span":
        return analysis["self"].get(key, 0.0)
    if kind == "count":
        return analysis["counts"].get(name, 0)
    if kind == "derived":
        return analysis["derived"].get(name, 0.0)
    return analysis[kind].get(key, 0)


def _derived(analysis: dict, outputs: list) -> dict:
    """Ratios and output row counts of one traced iteration."""
    busy = analysis["busy"].get("pipeline.per_concept", 0.0)
    pool_wall = analysis["wall"].get("pipeline.per_concept_pool", 0.0)
    winners = analysis["counts"].get("similarity.winners", 0)
    candidates = analysis["counts"].get("similarity.candidate_pairs", 0)
    return {
        "pipeline.pool_speedup": busy / pool_wall if pool_wall else 0.0,
        "similarity.winner_ratio": winners / candidates if candidates else 0.0,
        "pipeline.rows_written": sum(_count_rows(p) for p in outputs if p.name == "mappings.tsv"),
        "pipeline.sssom_rows": sum(_count_rows(p) for p in outputs if p.name == "mappings_sssom.tsv"),
        "trace.unaccounted_s": analysis["unaccounted"],
    }


def _shares(workload: str, m: dict) -> dict:
    """The layer shares each workload is built to show (see README.md)."""
    def get(name):
        return m.get(name) or 0.0

    run_map = get("pipeline.run_map_wall_s")
    similarity = sum(get(f"similarity.{n}_s") for n in ("build_corpus", "fit", "score", "filter", "best"))
    if workload.startswith("map-") and not run_map:
        return {}
    if workload == "map-cosine":
        return {
            "similarity_plus_run_map_self": (similarity + get("pipeline.run_map_self_s")) / run_map,
            "align_ancestor": get("align.ancestor_s") / run_map,
        }
    if workload == "map-ladder":
        layers = {
            "umls_ingest_plus_bridge": get("ingest.load_umls_s") + get("align.cui_bridge_s"),
            "ingest_other": sum(
                get(f"ingest.{n}_s") for n in ("load_concepts", "load_ontology_dump", "load_curation")
            ),
            "lexical": get("lexical.tokenize_s"),
            "similarity": similarity,
            "align_other": get("align.build_indexes_s") + get("align.concept_s") + get("align.ancestor_s"),
            "synthesize": sum(
                get(f"synthesize.{n}_s") for n in ("route", "synthesize", "expand", "load_inputs")
            ),
            "core": get("core.validate_s"),
            "pipeline_self": get("pipeline.run_map_self_s"),
        }
        return {
            "layers_s": layers,
            "largest_layer": max(layers, key=layers.get),
            "similarity_score": get("similarity.score_s") / run_map,
        }
    spans = {n: get(n) for n, (_, source) in PER_LAYER.items() if source.startswith("span:")}
    return {"largest_span": max(spans, key=spans.get)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--reference", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--budget", required=True, type=float,
                        help="seconds after which no iteration may start that would overrun")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    args = parser.parse_args(argv)

    from termbridge import cli

    checker = Checker(args.workload, args.inputs)
    program = args.inputs / "program"
    tracer = Tracer()
    untraced, traced, analyses, problems = [], [], [], []
    attempted = failed = 0

    def checked(out, failed_cmds):
        nonlocal attempted, failed
        found = [f"{c} exited non-zero" for c in failed_cmds] or checker.check(out, args.reference)
        attempted += 1
        failed += bool(found)
        problems.extend(found)
        return found

    start = time.perf_counter()
    deadline = start + args.budget

    def fits(seconds):
        return time.perf_counter() + seconds < deadline

    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        if traced and not fits(traced[-1] + untraced[-1][0]):
            break
        out = args.work / "untraced"
        wall, cpu, bad = _iteration(cli.main, tracer, args.workload, program, out, traced=False)
        checked(out, bad)
        untraced.append((wall, cpu))

        tracer.iteration += 1
        out = args.work / "traced"
        wall, _, bad = _iteration(cli.main, tracer, args.workload, program, out, traced=True)
        found = checked(out, bad)
        analysis = tracer.analyse(tracer.iteration, wall)
        analysis["derived"] = _derived(analysis, output_files(args.workload, out))
        traced.append(wall)
        analyses.append(analysis)
        print(f"traced iteration {len(traced)}: untraced_wall_s={untraced[-1][0]:.4f} "
              f"traced_wall_s={wall:.4f} {'ok' if not found else found[0]}", flush=True)

    jobs1 = 0.0  # evaluate has no worker pool
    if args.workload.startswith("map-"):
        jobs1 = None
        if fits(untraced[-1][0]):
            out = args.work / "jobs1"
            jobs1, _, bad = _iteration(cli.main, tracer, args.workload, program, out, traced=False, jobs=1)
            checked(out, bad)

    untraced_wall = statistics.median(w for w, _ in untraced)
    traced_wall = statistics.median(traced)
    metrics = {
        name: {"value": statistics.median(_metric_value(name, source, a) for a in analyses), "unit": unit}
        for name, (unit, source) in PER_LAYER.items()
    }
    metrics["pipeline.jobs1_wall_s"]["value"] = jobs1
    metrics["process.untraced_wall_s"]["value"] = untraced_wall
    metrics["process.traced_wall_s"]["value"] = traced_wall
    metrics["process.cpu_s"]["value"] = statistics.median(c for _, c in untraced)
    # Each traced iteration runs right after an untraced one, so the
    # median of the paired differences cancels most host drift.
    metrics["process.trace_overhead_s"]["value"] = statistics.median(
        t - u for t, (u, _) in zip(traced, untraced)
    )

    absent = {}
    for name, (_, source) in PER_LAYER.items():
        key = source.partition(":")[2]
        needs = _DERIVED_FROM.get(name, (key,) if key else ())
        missing = [tracer.absent[k] for k in needs if k in tracer.absent]
        if name in tracer.absent:
            missing.append(tracer.absent[name])
        if name == "pipeline.jobs1_wall_s" and jobs1 is None:
            missing.append("skipped: run time budget")
        if missing:
            absent[name] = missing[0]
            metrics[name] = {"value": None, "unit": metrics[name]["unit"], "absent": missing[0]}

    tracer.write_spans(args.spans)
    shares = _shares(args.workload, {k: v["value"] for k, v in metrics.items()})
    result = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "absent": absent,
        "shares": shares,
        "traced_iterations": len(traced),
    }
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, entry in sorted(absent.items()):
        print(f"absent: {name} ({entry})", flush=True)
    print(f"layer shares: {json.dumps(shares, sort_keys=True)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
