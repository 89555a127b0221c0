"""perfbench's tracer finds every entry point when it is installed into a
fresh interpreter, before anything has imported ``termbridge.pipeline``.

``tests/test_perfbench_contract.py`` runs in the pytest process, where
other tests may already have loaded every termbridge module; a name that
is only found once something else has loaded its module would pass there.
Here a subprocess installs the tracer first, then runs every command of
each workload on the generator's tiny inputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import gen, tracer, workloads

root = Path(sys.argv[2])
for workload in workloads.WORKLOADS:
    gen.generate(workload, root / workload, 1, "tiny")
loaded_before = sorted(m for m in sys.modules if m.startswith("termbridge"))

trace = tracer.Tracer()
trace.iteration = 1
codes = []
with trace.installed():
    import termbridge.cli as cli

    for workload in workloads.WORKLOADS:
        for argv, _, _ in workloads.commands(workload, root / workload / "program", root / "out" / workload):
            codes.append(cli.main(argv))
analysis = trace.analyse(1, 0.0)
recorded = {span[1] for span in trace.spans} | set(analysis["calls"])
wrapped = {name for _, _, name, _ in tracer.SPANS + tracer.AGGREGATES}
wrapped |= {"pipeline.per_concept_pool", "pipeline.per_concept"}
print(json.dumps([loaded_before, codes, trace.absent, sorted(wrapped - recorded)]))
"""


def test_tracer_installs_before_the_pipeline_loads(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    loaded_before, codes, absent, unrecorded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded_before == []
    assert codes and codes == [0] * len(codes)
    assert absent == {}
    assert unrecorded == []
