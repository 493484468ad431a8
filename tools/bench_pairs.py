"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage: python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S \
           --pairs N --seconds T

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from the checkout's root; odd pairs run
PARENT first and even pairs CHANGE first, so a drift in the machine's load
falls on both sides alike.  The script prints every run's end-to-end
metrics as it finishes, then one line per metric: each side's median and
quartiles, how many pairs CHANGE won (ties count for neither side), and
whether the gap between the medians exceeds PARENT's interquartile range.
A gain is claimed when CHANGE wins at least nine tenths of the pairs and the
medians differ by more than PARENT's interquartile range.

The metrics and which direction is better are read from CHANGE's
BENCHMARK.json.  The exit code is 1 when a run fails or reports
`correct: false`, else 0.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def _run(root, args):
    """The result object that one untraced benchmark run in `root` prints."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the parent commit's checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {name: [] for name in metrics} for side in sides}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = _run(sides[side], args)
            except RuntimeError as exc:
                print(f"pair {pair + 1} {side}: {exc}", file=sys.stderr)
                return 1
            ok = ok and bool(result["correct"])
            got = {name: result["metrics"][name]["value"] for name in metrics}
            for name, value in got.items():
                values[side][name].append(value)
            shown = "  ".join(f"{name} {value:.4g}" for name, value in got.items())
            print(f"pair {pair + 1} {side:6}  correct {str(result['correct']).lower()}  "
                  f"failed {result['failed']}/{result['attempted']}  {shown}", flush=True)
    for name, better in metrics.items():
        old, new = values["parent"][name], values["change"][name]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        o1, om, o3 = statistics.quantiles(old, n=4, method="inclusive")
        n1, nm, n3 = statistics.quantiles(new, n=4, method="inclusive")
        iqr, gain = o3 - o1, sign * (om - nm)
        change = (nm - om) / om if om else math.nan
        print(f"{name}: parent {om:.4g} [{o1:.4g}, {o3:.4g}]  change {nm:.4g} [{n1:.4g}, {n3:.4g}]"
              f" ({change:+.1%})  change wins {wins}, loses {losses} of {args.pairs};"
              f" its gain {'exceeds' if gain > iqr else 'does not exceed'} parent IQR {iqr:.3g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
