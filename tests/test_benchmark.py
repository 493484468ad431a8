"""The benchmark in perfbench/ still runs against this tree.

One traced call runs a round of every workload and splits the import with
`-X importtime`, so it reaches every name the benchmark reads or patches
(`distance.minimize`, `diffusion.value_batch`, the `delta_t` slot of
`heat_equation_report`, `scipy.optimize` under `import heislab.cli`, ...),
which no other test does.  It takes about 5 s on 2 CPUs.

The result line must be strict JSON with a finite value for every metric: a
per-layer span that never ran (a renamed function the benchmark patches)
averages to NaN, which `json.dumps` writes as a bare `NaN`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# the scan workload writes its artifacts under this directory
SCAN_TMP = os.path.join(ROOT, ".perfbench-tmp")


def test_traced_benchmark_round_is_correct():
    created = not os.path.exists(SCAN_TMP)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "group-laws", "--seed", "1",
             "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
    finally:
        if created:
            shutil.rmtree(SCAN_TMP, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr[-2000:]
    bad = {name: metric["value"] for name, metric in result["metrics"].items()
           if type(metric["value"]) not in (int, float) or not math.isfinite(metric["value"])}
    assert not bad, f"metrics that are not finite numbers: {bad}"


def _reject_constant(name):
    raise ValueError(f"the result line is not strict JSON: it holds {name}")
