"""The mappings.tsv codec both ways: ``load_mappings`` gives back the
fields of each record ``map`` writes, and rendering what it reads gives
back each line ``map`` wrote.

Records come from the ladder oracle's generated cases, taken as
``map`` validates them; a score comes back to the 12 significant digits
the file holds.  Lines come from the golden and measurement fixtures and
from perfbench's generated inputs at seeds 11 and 37: ``map`` outputs for
map-cosine and map-ladder, and evaluate's own ``mappings.tsv``.
"""

import importlib
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings

from termbridge import pipeline
from termbridge.cli import main
from termbridge.ingest import MAPPING_COLUMNS, evidence_text, load_mappings
from termbridge.pipeline import run_map

from test_cli import map_args, measurement_args
from test_ladder_oracle import _write_inputs, ladder_inputs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _render(fields) -> str:
    return "\t".join(render(value) for (_, _, render), value in zip(MAPPING_COLUMNS, fields))


@settings(derandomize=True, max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ladder_inputs())
def test_records_come_back_from_their_rows(case):
    written = []
    validate = pipeline.validate_record

    def recorded(record):
        written.append(record)
        return validate(record)

    labels = {k.curie: k.label for k in case.classes}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(pipeline, "validate_record", recorded):
        run_map(_write_inputs(Path(tmp), case))
        rows = list(load_mappings(Path(tmp) / "out" / "mappings.tsv"))
    assert len(rows) == len(written)
    for r, fields in zip(written, rows):
        score = None if r.score is None else float(f"{r.score:.12g}")
        assert fields == [
            r.concept_id, r.domain, r.ontology, r.category, r.category.level, r.logic, r.targets,
            tuple(labels.get(t, "") for t in r.targets), score, evidence_text(r.evidence), r.unmapped_reason, r.outcome,
        ]


def _map_outputs(tmp_path, condition_fixture, measurement_fixture):
    yield map_args(condition_fixture, tmp_path / "golden"), tmp_path / "golden"
    yield measurement_args(measurement_fixture, tmp_path / "measurement"), tmp_path / "measurement"
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    for seed in (11, 37):
        for workload in workloads.WORKLOADS:
            root = tmp_path / f"{workload}-{seed}"
            gen.generate(workload, root, seed, "tiny")
            if workload == "evaluate":
                yield None, root / "program"
            for argv, out, _ in workloads.commands(workload, root / "program", root / "out"):
                if argv[0] == "map":
                    yield argv, out


def test_rows_render_as_they_were_read(tmp_path, condition_fixture, measurement_fixture, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    files = 0
    for argv, out in _map_outputs(tmp_path, condition_fixture, measurement_fixture):
        assert argv is None or main(argv) == 0
        lines = (out / "mappings.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert lines
        assert [_render(fields) for fields in load_mappings(out / "mappings.tsv")] == lines, out
        files += 1
    assert files == 2 + 2 * 4

