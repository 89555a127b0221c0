"""The termbridge command lines one iteration of each workload runs.

``commands`` returns argv lists without the interpreter prefix, so the
runner can start them as ``python -m termbridge.cli ...`` subprocesses and
the tracer can pass them to ``termbridge.cli.main`` in process.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("map-cosine", "map-ladder", "evaluate")

# Output files each command writes, relative to its --out directory.
MAP_OUTPUTS = ("mappings.tsv", "summary.json")
COVERAGE_OUTPUTS = ("coverage.json", "pairwise.tsv", "buckets.tsv")
PHERS_OUTPUTS = ("phers.tsv", "test.json")
SSSOM_OUTPUTS = ("mappings_sssom.tsv",)


def commands(workload: str, program: Path, out: Path, jobs: int | None = None):
    """[(argv, out_dir, output names)] for one iteration, in order.

    ``jobs`` is passed to ``map`` only when given; otherwise ``map`` runs
    at its default worker count.
    """
    p = Path(program)
    out = Path(out)
    jobs_flag = [] if jobs is None else ["--jobs", str(jobs)]
    if workload == "map-cosine":
        return [
            (
                ["map", "--concepts", str(p / "concepts.tsv"), "--ontology", str(p / "ontology.jsonl"),
                 "--domain", "CONDITION", "--out", str(out / "condition")] + jobs_flag,
                out / "condition",
                MAP_OUTPUTS,
            )
        ]
    if workload == "map-ladder":
        shared = [
            "--concepts", str(p / "concepts.tsv"),
            "--ancestors", str(p / "concept_ancestors.tsv"),
            "--umls-mrconso", str(p / "MRCONSO.RRF"),
            "--umls-mrsty", str(p / "MRSTY.RRF"),
            "--routing", str(p / "routing_policy.tsv"),
            "--ontology", str(p / "hp.jsonl"),
        ]
        return [
            (
                ["map"] + shared + [
                    "--ontology", str(p / "mondo.jsonl"),
                    "--curation", str(p / "curation_condition.tsv"),
                    "--domain", "CONDITION", "--out", str(out / "condition"),
                ] + jobs_flag,
                out / "condition",
                MAP_OUTPUTS,
            ),
            (
                ["map"] + shared + [
                    "--ontology", str(p / "uberon.jsonl"),
                    "--curation", str(p / "curation_measurement.tsv"),
                    "--measurement-scales", str(p / "measurement_scales.tsv"),
                    "--measurement-targets", str(p / "measurement_targets.tsv"),
                    "--domain", "MEASUREMENT", "--out", str(out / "measurement"),
                ] + jobs_flag,
                out / "measurement",
                MAP_OUTPUTS,
            ),
        ]
    if workload == "evaluate":
        return [
            (
                ["coverage", "--mappings", str(p / "mappings.tsv"), "--prevalence", str(p / "prevalence.tsv"),
                 "--newer-cdm", str(p / "newer_cdm.txt"), "--excluded", str(p / "excluded.txt"),
                 "--out", str(out / "coverage")],
                out / "coverage",
                COVERAGE_OUTPUTS,
            ),
            (
                ["phers", "--weights", str(p / "weights.tsv"), "--patients", str(p / "patient_phenotypes.tsv"),
                 "--cohort", str(p / "cohort.tsv"), "--out", str(out / "phers")],
                out / "phers",
                PHERS_OUTPUTS,
            ),
            (
                ["export-sssom", "--mappings", str(p / "mappings.tsv"), "--concepts", str(p / "concepts.tsv"),
                 "--out", str(out / "sssom")],
                out / "sssom",
                SSSOM_OUTPUTS,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def output_files(workload: str, out: Path) -> list[Path]:
    """Every file one iteration writes, for byte comparison."""
    return [
        out_dir / name
        for _, out_dir, names in commands(workload, Path("."), out)
        for name in names
    ]
