"""heislab benchmark: one workload per call, end to end or per layer.

    python3 perfbench/run.py --workload scan|heat|geodesic|group-laws \
        --seed N --seconds S --trace 0|1

Run from the root of a heislab checkout; heislab is imported from its
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``): one worker process runs whole rounds of the
workload until S seconds have passed.  Before each round the worker sits
idle while a fresh interpreter imports heislab and builds the inputs; the
median of those cold starts is ``setup_s``.  Rounds and set-up samples thus
alternate over the whole run instead of bunching up (see README).

Traced (``--trace 1``): the workload's rounds alternate untraced and traced,
and ``trace.overhead_s`` is the difference of their median times.  Every
other workload then runs one traced round in its own process, so that every
per-layer metric is printed, and ``python -X importtime`` splits the import.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from names import CALC_FS, WORKLOADS, short_name

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# One process per workload on a 2-CPU machine: no BLAS or OpenMP threads,
# whose pool start-up would also add to every import.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_ms.p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_numpy_ms": "ms",
    "setup.import_scipy_optimize_ms": "ms",
    "setup.import_heislab_ms": "ms",
    **{f"group.{op}_us": "us" for op in ("multiply", "multiply_reduced", "quotient", "wrap_angle", "bracket")},
    "group.calls": "count",
    "model.form_build_us": "us",
    "model.project_element_us": "us",
    **{f"calculus.{kind}_ns.{short_name(sel)}": "ns" for kind in ("value", "grad", "sublap") for sel in CALC_FS},
    "calculus.point_grad_us": "us",
    "calculus.point_sublap_us": "us",
    **{f"diffusion.sample_us.n{n}": "us" for n in range(1, 9)},
    "diffusion.sample_us.heat": "us",
    "diffusion.samples": "count",
    "diffusion.normals": "count",
    "diffusion.heat_report_ms": "ms",
    "lsi.cell_ms": "ms",
    "lsi.quotient_report_ms": "ms",
    "lsi.cells_ok": "count",
    "lsi.cells_undefined": "count",
    "lsi.cells_error": "count",
    "distance.solve_ms.full": "ms",
    "distance.solve_ms.reduced": "ms",
    "distance.solve_ms.p90": "ms",
    "distance.minimize_calls": "count",
    "distance.minimize_nfev": "count",
    "distance.fiber_solved": "count",
    "distance.fiber_pruned": "count",
    "distance.rel_gap_max": "ratio",
    "config.parse_us": "us",
    "cli.write_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# counted by both sampling workloads; the traced run reports their sum
SUMMED = ("diffusion.samples", "diffusion.normals")


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_probe(root, workload, seed):
    """Wall time of a fresh interpreter importing heislab and building inputs."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall


def import_split(root):
    """Cumulative import times (ms) of numpy, scipy.optimize and heislab from
    one `python -X importtime -c "import heislab.cli"`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import heislab.cli"],
                          cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"import of heislab.cli failed: {proc.stderr.strip()[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if cum.isdigit():
            cumulative.setdefault(name, int(cum) / 1e3)
    # heislab.cli is the outermost import: it holds the package and everything below
    return {
        "setup.import_numpy_ms": cumulative["numpy"],
        "setup.import_scipy_optimize_ms": cumulative["scipy.optimize"],
        "setup.import_heislab_ms": cumulative["heislab.cli"],
    }


class Worker:
    """A workload process driven over stdin/stdout, one JSON line each way."""

    def __init__(self, root, workload, seed):
        self.name = workload
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)],
            cwd=root, env=child_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.problems = list(self._recv()["problems"])

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.name} worker exited with {self.proc.wait()}")
        return json.loads(line)

    def _ask(self, **request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def round(self, traced):
        out = self._ask(op="round", traced=traced)
        self.problems.extend(out["problems"])
        return out

    def quit(self):
        out = self._ask(op="quit")
        self.proc.wait(timeout=60)
        return out["peak_rss_mb"]

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_untraced(root, workload, seed, seconds):
    setup_probe(root, workload, seed)  # untimed: compiles bytecode, fills the file cache
    worker = Worker(root, workload, seed)
    try:
        setup, rounds = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            setup.append(setup_probe(root, workload, seed))
            rounds.append(worker.round(traced=False))
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(setup_probe(root, workload, seed))
        rss = worker.quit()
    finally:
        worker.close()
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(sum(r["seg_ms"]) for r in rounds) / 1e3,
        "op_ms.p50": statistics.median(r["seg_ms"][i] for r in rounds for i in r["ops"]),
        "peak_rss_mb": rss,
    }
    units = END_TO_END_UNITS
    return rounds, worker.problems, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_traced(root, workload, seed, seconds):
    problems, layers = [], {}
    splits = [import_split(root) for _ in range(IMPORTTIME_SAMPLES)]
    for key in splits[0]:
        layers[key] = statistics.median(s[key] for s in splits)
    rounds = []
    for name in (workload,) + tuple(w for w in WORKLOADS if w != workload):
        worker = Worker(root, name, seed)
        try:
            if name == workload:
                plain, traced = [], []
                start = time.perf_counter()
                while not traced or time.perf_counter() - start < seconds:
                    plain.append(worker.round(traced=False))
                    traced.append(worker.round(traced=True))
                rounds = plain + traced
                layers["trace.overhead_s"] = (statistics.median(sum(r["seg_ms"]) for r in traced)
                                              - statistics.median(sum(r["seg_ms"]) for r in plain)) / 1e3
                found = [r["layers"] for r in traced]
            else:
                found = [worker.round(traced=True)["layers"]]
            worker.quit()
        finally:
            worker.close()
        problems.extend(worker.problems)
        for key in found[0]:
            value = statistics.median(f[key] for f in found)
            layers[key] = layers.get(key, 0) + value if key in SUMMED else value
    missing = sorted(set(PER_LAYER_UNITS) - set(layers))
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
    metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items() if k in layers}
    return rounds, problems, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heislab", "__init__.py")):
        print(f"no heislab sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_untraced
    try:
        rounds, problems, metrics = runner(root, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
