"""The entry points perfbench's tracer wraps stay where it looks for them.

``perfbench/tracer.py`` replaces functions under the names
``termbridge.pipeline`` (and ``cli``, ``similarity``, ``stats``) looks them
up by, and reads per-layer counts from their return values.  A name that
moves or disappears, or a stage that stops calling through it, leaves the
traced benchmark run with absent (null) metrics.  This test runs every
benchmark workload's commands in process, on the generator's tiny inputs,
with the tracer installed.
"""

import importlib
from pathlib import Path

from termbridge import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COUNTERS = (
    "similarity.candidate_pairs",
    "similarity.kept_pairs",
    "similarity.winners",
    "similarity.documents",
    "similarity.vocabulary",
    "similarity.matrix_nnz",
    "ingest.umls_keys",
    "ingest.prevalence_rows",
    "stats.pairwise_tests",
)


def test_traced_workloads_find_every_entry_point(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    trace = tracer.Tracer()
    trace.iteration = 1
    codes = []
    with trace.installed():
        for workload in workloads.WORKLOADS:
            root = tmp_path / workload
            gen.generate(workload, root, 1, "tiny")
            for argv, _, _ in workloads.commands(workload, root / "program", tmp_path / "out" / workload):
                codes.append(cli.main(argv))

    assert codes == [0] * len(codes)
    assert trace.absent == {}
    analysis = trace.analyse(1, 0.0)
    for name in COUNTERS:
        value = analysis["counts"].get(name)
        assert type(value) is int and value > 0, (name, value)

    wrapped = {name for _, _, name, _ in tracer.SPANS + tracer.AGGREGATES}
    wrapped |= {"pipeline.per_concept_pool", "pipeline.per_concept"}
    recorded = {span[1] for span in trace.spans} | set(analysis["calls"])
    assert wrapped <= recorded, sorted(wrapped - recorded)
