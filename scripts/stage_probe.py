#!/usr/bin/env python3
"""Seconds and memory per pipeline stage of one termbridge command.

Usage (from the repository root, Linux only):

    PYTHONPATH=src python3 scripts/stage_probe.py map --concepts C --ontology O --out DIR

The arguments after the script name are a ``termbridge`` command line.
The first line gives the seconds and the VmRSS before and after that
``import termbridge.cli`` costs.  The command then runs in this
interpreter with each stage function that ``termbridge.pipeline`` looks
up wrapped; a stage from a module the command has not loaded yet is
looked up there on its first call, so the wrapping loads no module the
command would not.  Once it returns, one line per stage, in the order of
first call, gives the calls, the seconds spent inside them, VmRSS before
the first call and after the last, and VmHWM (the peak RSS so far) after
the last, both read from ``/proc/self/status``.  ``_write_text`` is
reported per output file.  Then a line gives the command's seconds and
the process's peak, and the last line lists the termbridge modules
loaded.

``_parallel_map`` runs once per concept, so its memory is read only on
its first call and at the next read made for another stage.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

STAGES = (
    "load_concepts",
    "load_ontology_dump",
    "load_umls",
    "CuiBridge",
    "enrich_concepts",
    "load_routing_policy",
    "load_curation",
    "load_measurement_scales",
    "load_measurement_targets",
    "build_corpus",
    "fit",
    "score_concept_pairs",
    "filter_pairs",
    "best_per_concept",
    "build_indexes",
    "_parallel_map",
    "load_prevalence",
    "partition_coverage",
    "chi_square_yates",
    "bonferroni_pairwise",
    "bucket_errors",
    "load_weights",
    "load_cohort",
    "phers",
    "group_stats",
    "_write_text",
)
PER_ITEM = {"_parallel_map"}


def memory_mib() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MiB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) / 1024
    return fields["VmRSS"], fields["VmHWM"]


@dataclass
class Stage:
    rss_before: float
    calls: int = 0
    seconds: float = 0.0
    rss_after: float = 0.0
    hwm: float = 0.0


class Probe:
    def __init__(self):
        self.stages: dict[str, Stage] = {}
        self.unread: list[Stage] = []  # per-item stages waiting for their after-read

    def read(self) -> tuple[float, float]:
        rss, hwm = memory_mib()
        for stage in self.unread:
            stage.rss_after, stage.hwm = rss, hwm
        self.unread = []
        return rss, hwm

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}({Path(args[0]).name})" if name == "_write_text" else name
            stage = self.stages.get(label)
            if stage is None:
                stage = self.stages[label] = Stage(rss_before=self.read()[0])
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stage.calls += 1
                stage.seconds += time.perf_counter() - started
                if name in PER_ITEM:
                    if stage not in self.unread:
                        self.unread.append(stage)
                else:
                    stage.rss_after, stage.hwm = self.read()

        return wrapper


def stage(pipeline, name):
    """The function ``pipeline`` calls under ``name``, found without
    loading a module that the command has not loaded."""
    for module, names in pipeline.STAGE_NAMES.items():
        if name in names and name not in vars(pipeline):
            return lambda *args, **kwargs: getattr(
                importlib.import_module(f"termbridge.{module}"), name
            )(*args, **kwargs)
    return getattr(pipeline, name)


def main(argv: list[str]) -> int:
    rss_before, _ = memory_mib()
    started = time.perf_counter()
    from termbridge import cli

    elapsed = time.perf_counter() - started
    print(f"import {elapsed:.3f}s rss {rss_before:.1f} -> {memory_mib()[0]:.1f} MiB")
    from termbridge import pipeline

    probe = Probe()
    for name in STAGES:
        setattr(pipeline, name, probe.wrap(name, stage(pipeline, name)))
    started = time.perf_counter()
    status = cli.main(argv)
    elapsed = time.perf_counter() - started
    _, peak = probe.read()
    for label, s in probe.stages.items():
        print(
            f"{label} calls {s.calls} {s.seconds:.2f}s rss {s.rss_before:.1f} -> {s.rss_after:.1f} MiB"
            f" peak so far {s.hwm:.1f}"
        )
    print(f"total {elapsed:.2f}s peak {peak:.1f} MiB")
    print("modules", " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "termbridge")))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
