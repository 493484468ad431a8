"""Print the sha256 of every artifact the pinned configs write.

Usage: python3 tools/pinned_bytes.py [--keep DIR]

Each pinned config runs through `heislab.cli.run` in a temporary directory,
one output directory per config; `--keep DIR` writes them under DIR instead
and leaves them there, so two trees' artifacts can be compared with
`diff -r`.  The script prints one sorted
`sha256  config/file` line per artifact except `manifest.json`, which holds
wall-clock times.  Two trees write the same bytes when their outputs are
identical, so a change meant to keep the bytes is checked by running the
script on both and comparing.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from heislab.cli import run  # noqa: E402
from heislab.config import parse_config  # noqa: E402

BASE = "m = 2000\nt = 0.5, 1\n"
# the trace-class form: weights 1, 0.5 are the eigenvalues of Q
TRACE_CLASS = BASE + "weights = 1, 0.5"
TRACE_CLASS_DISTANCE = "weights = 1, 0.5\ntarget_w = 1.5, 0.5, -0.8, 1.2\ntarget_c = 2.5\nK = 16"
LSI_ERRORS = "m = 600\ndims = 1, 3\nf = exp_linear(1000), cos_theta, vertical_sq, poly_radial"
# one cell per verdict: passed, failed (c_ref = 1 sits below exp_linear(0.5)'s
# ratio) and ratio_undefined (exp_linear(3)'s energy has a heavy tail)
LSI_VERDICTS = (
    BASE + "m = 1000\ndims = 1\nscan_forms = isotropic\nc_ref = 1\n"
    "f = poly_radial, exp_linear(0.5), exp_linear(3)"
)
# 24 weights j^-2: their Frobenius sum 2 sum_j a_j^2 shows its last bit
WEIGHTS_24 = "weights = " + ", ".join(repr(1.0 / (j * j)) for j in range(1, 25))
# six unequal weights with a target in every block
DISTANCE_6 = (
    "weights = 3, 1, 2.5, 0.5, 1.5, 0.25\n"
    "target_w = 1.5, -0.5, 0.8, 1.2, -2, 0.3, 0.7, -1.1, 0.25, 0.9, -0.6, 1.4\n"
    "target_c = 2.5\nK = 16"
)

# name -> (subcommand, config text, --dump-endpoints)
PINNED = {
    "simulate": ("simulate", BASE, True),
    "heat-check": ("heat-check", BASE, False),
    "heat-check-n4": ("heat-check", BASE + "n = 4", False),
    "heat-check-n8": ("heat-check", BASE + "n = 8", False),
    "lsi-scan": ("lsi-scan", BASE + "m = 1000\ndims = 1, 2", False),
    "lsi-scan-errors": ("lsi-scan", LSI_ERRORS, False),
    "lsi-scan-Gtilde": (
        "lsi-scan",
        BASE + "m = 1000\ndims = 1, 2\nspace = Gtilde\nf = poly_radial, exp_linear(0.5), cos_theta",
        False,
    ),
    "quotient-check": ("quotient-check", BASE, False),
    # functions built at n = 4: the only quotient-check above n = 1
    "quotient-check-n4": ("quotient-check", BASE + "n = 4\nf = poly_radial, cos_theta", False),
    "distance-G": ("distance", "target_c = 1.5\nK = 16", False),
    "distance-Gtilde": ("distance", "target_c = 1.5\nK = 16\nspace = Gtilde", False),
    "distance-Gtilde-unwind": ("distance", "target_c = 5.5\nK = 16\nspace = Gtilde", False),
    "levy-cf": ("levy-cf", BASE, False),
    # at t = 1 the truncation allowance of lambda = 100 passes 2: a null row
    "levy-cf-null": ("levy-cf", BASE + "lambdas = 0.5, 100", False),
    "heat-check-fail": ("heat-check", BASE + "f = poly_radial, exp_linear(3)", False),
    "lsi-scan-verdicts": ("lsi-scan", LSI_VERDICTS, False),
    "trace-class-simulate": ("simulate", TRACE_CLASS, False),
    "trace-class-heat-check": ("heat-check", TRACE_CLASS, False),
    "trace-class-levy-cf": ("levy-cf", TRACE_CLASS, False),
    "trace-class-distance-G": ("distance", TRACE_CLASS_DISTANCE, False),
    "trace-class-distance-Gtilde": ("distance", TRACE_CLASS_DISTANCE + "\nspace = Gtilde", False),
    "simulate-24-weights": ("simulate", BASE + WEIGHTS_24, False),
    "lsi-scan-n24": ("lsi-scan", BASE + "m = 600\ndims = 24", False),
    "distance-6-weights": ("distance", DISTANCE_6, False),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", metavar="DIR", help="write the artifacts under DIR and keep them")
    args = ap.parse_args()
    lines = []
    with contextlib.ExitStack() as stack:
        root = args.keep or stack.enter_context(tempfile.TemporaryDirectory())
        for name, (subcommand, text, dump) in PINNED.items():
            out = os.path.join(root, name)
            with contextlib.redirect_stdout(sys.stderr):
                code = run(subcommand, parse_config(text), out=out, dump_endpoints=dump)
            if code not in (0, 1):
                print(f"{name}: exit {code}", file=sys.stderr)
                return code
            for file in sorted(os.listdir(out)):
                if file != "manifest.json":
                    with open(os.path.join(out, file), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    lines.append(f"{digest}  {name}/{file}")
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
