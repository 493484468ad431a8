"""One benchmark workload in its own process.

    python3 perfbench/worker.py --workload NAME --seed S [--probe]

The process imports heislab from ``src/`` of the checkout and builds the
workload's inputs (from the seed for scan and group-laws; heat and geodesic
have fixed inputs).  With ``--probe`` it exits there: that is
the set-up every CLI call pays, timed from outside by ``run.py``.  Otherwise
it serves ``run.py`` over stdin/stdout, one JSON line per request:

    {"op": "round", "traced": false}  -> one round of the workload's operations
    {"op": "quit"}                    -> peak resident memory, then exit

A round is a fixed amount of work; its operations are timed one by one and
checked against ``reference.py`` or against properties the method must have
after the clock stops.  In a traced round the calls into heislab are wrapped
in spans (see ``spans.py``) and the round also reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import numpy as np  # noqa: E402

import heislab  # noqa: E402
from heislab import calculus, cli, config, diffusion, distance, group, lsi, model  # noqa: E402

import reference  # noqa: E402
from names import CALC_FS, WORKLOADS, short_name  # noqa: E402
from spans import Tracer  # noqa: E402

# Allowance for a statistical estimate against its exact value, in standard
# errors.  Fixed before any run; at 5 se a correct estimator misses about
# once in 1.7 million checks.
Z_EXACT = 5.0
# Floating-point slack for exact relations (rounding of sums of a few
# dozen terms), relative.
ROUNDING = 1e-9


def _mean(xs):
    return sum(xs) / len(xs) if xs else float("nan")


def _traced(fn, name, tracer=None, info=None):
    """`fn` itself, or `fn` inside a span when the round is traced."""
    return tracer.span(name, fn, info) if tracer else fn


class _CountedStream:
    """A random generator that adds the size of every normal draw to `drawn`."""

    def __init__(self, gen, drawn):
        self._gen, self._drawn = gen, drawn

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._drawn[0] += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_normals(tracer):
    """Count the normals heislab draws, through the per-sample stream factory
    that `heislab.diffusion` looks up; returns the one-element counter."""
    drawn = [0]
    tracer.replace(diffusion, "_stream",
                   lambda stream: lambda *a, **k: _CountedStream(stream(*a, **k), drawn))
    return drawn


# the dimension of a sampler call and the number of samples it returned
_sample_info = lambda a, k, r: (a[0][0].n, r[0].m)  # noqa: E731


class Round:
    """Timings, failures and check problems of one round.

    Every timed call is a segment; the operations are the segments that
    `op` timed, and the rest (heat's sampling) is work between them.
    """

    def __init__(self):
        self.seg_ms = []
        self.ops = []
        self.failed = 0
        self.problems = []
        self.layers = {}

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seg_ms.append(1e3 * (time.perf_counter() - t0))
        return out

    def op(self, fn, *args, **kwargs):
        self.ops.append(len(self.seg_ms))
        return self.timed(fn, *args, **kwargs)

    def check(self, ok, what):
        if not ok and len(self.problems) < 20:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# scan: lsi-scan through the CLI entry point, one dimension per operation

SCAN_DIMS = tuple(range(1, 9))
SCAN_T = (0.125, 0.25, 0.5)
SCAN_STEPS = 200
SCAN_M = 3000
SCAN_TMP = os.path.join(ROOT, ".perfbench-tmp")


class Scan:
    def __init__(self, seed):
        t_list = ", ".join(repr(t) for t in SCAN_T)
        self.texts = [
            f"dims = {n}\nscan_forms = isotropic, ascending_weights\nt = {t_list}\n"
            f"N = {SCAN_STEPS}\nm = {SCAN_M}\nseed = {seed}\n"
            for n in SCAN_DIMS
        ]

    def run(self, rnd: Round, tracer=None):
        if tracer:
            drawn = _count_normals(tracer)
            tracer.patch(lsi, "sample_unit_endpoints", "diffusion.sample", _sample_info)
            tracer.patch(lsi, "lsi_ratio", "lsi.cell")
            tracer.patch(lsi, "value_batch", "calculus.value")
            tracer.patch(lsi, "grad_norm_sq_batch", "calculus.grad")
            tracer.patch(cli, "lsi_scan", "lsi.scan")
        parse = _traced(config.parse_config, "config.parse", tracer)
        run = _traced(cli.run, "cli.run", tracer)
        os.makedirs(SCAN_TMP, exist_ok=True)
        statuses = {"ok": 0, "ratio_undefined": 0, "error": 0}
        written = 0
        try:
            for n, text in zip(SCAN_DIMS, self.texts):
                out = tempfile.mkdtemp(prefix=f"scan-n{n}-", dir=SCAN_TMP)
                try:
                    code = rnd.op(lambda: run("lsi-scan", parse(text), workers=1, out=out))
                    written += self._check(rnd, n, code, out, statuses)
                finally:
                    shutil.rmtree(out, ignore_errors=True)
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            self._layers(rnd, tracer, statuses, written, drawn[0])

    @staticmethod
    def _check(rnd, n, code, out, statuses):
        rnd.check(code == 0, f"scan n={n}: lsi-scan exit code {code}")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            cells = json.load(fh)["results"]["cells"]
        rnd.check(len(cells) == 2 * 5 * len(SCAN_T), f"scan n={n}: {len(cells)} cells")
        for cell in cells:
            where = f"scan n={n} {cell['form_name']} {cell['f_name']} t={cell['t']}"
            statuses[cell["status"]] = statuses.get(cell["status"], 0) + 1
            rnd.check(cell["status"] == "ok", f"{where}: status {cell['status']}")
            if cell["status"] != "ok":
                continue
            ratio, se = cell["ratio"], cell["ratio_se"]
            rnd.check(ratio <= 4.0 * cell["t"] + 3.0 * se and cell["passed"] is True,
                      f"{where}: ratio {ratio} above 4t + 3se")
            if cell["f_name"].startswith("exp_linear"):
                exact = reference.exp_linear_exact(0.5, cell["t"])
                for key, got, err in (("entropy", cell["entropy"], cell["entropy_se"]),
                                      ("energy", cell["energy"], cell["energy_se"]),
                                      ("ratio", ratio, se)):
                    rnd.check(abs(got - exact[key]) <= Z_EXACT * err,
                              f"{where}: {key} {got} vs exact {exact[key]} (se {err})")
        return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))

    @staticmethod
    def _layers(rnd, tracer, statuses, written, normals):
        L = rnd.layers
        samples = 0
        for wall, _, (n, m) in tracer.spans["diffusion.sample"]:
            L[f"diffusion.sample_us.n{n}"] = 1e6 * wall / m
            samples += m
        L["diffusion.samples"] = samples
        L["diffusion.normals"] = normals
        L["lsi.cell_ms"] = 1e3 * _mean(tracer.selfs("lsi.cell"))
        L["lsi.cells_ok"] = statuses["ok"]
        L["lsi.cells_undefined"] = statuses["ratio_undefined"]
        L["lsi.cells_error"] = statuses["error"]
        L["config.parse_us"] = 1e6 * _mean(tracer.walls("config.parse"))
        L["cli.write_ms"] = 1e3 * _mean(tracer.selfs("cli.run"))
        L["cli.bytes_written"] = written


# ---------------------------------------------------------------------------
# heat: one endpoint batch at n = 8, heat and quotient reports over a t grid

HEAT_BLOCKS = 8
HEAT_STEPS = 20
HEAT_M = 20000
# Fixed, not drawn from --seed: the heat-check verdicts that fail (see
# README) must fail in every run, whatever the seed.
HEAT_SEED = 20251203
HEAT_T = tuple(0.25 * k for k in range(1, 11))
HEAT_DELTA_T = 0.05
HEAT_FS = ("poly_radial", "vertical_sq", "gauss_bump(1.0)")
QUOTIENT_FS = ("cos_theta", "poly_radial", "exp_linear(0.5)")


class Heat:
    def __init__(self, seed):
        self.form = model.make_isotropic_form(HEAT_BLOCKS)
        dim = self.form.dim
        self.heat_fs = [calculus.make_registry_function(s, dim) for s in HEAT_FS]
        self.quot_fs = [calculus.make_registry_function(s, dim) for s in QUOTIENT_FS]
        self.calc_fs = [calculus.make_registry_function(s, dim) for s in CALC_FS]
        self.cfgs = [diffusion.PathConfig(t=t, steps=HEAT_STEPS, base_seed=HEAT_SEED) for t in HEAT_T]

    def run(self, rnd: Round, tracer=None):
        if tracer:
            drawn = _count_normals(tracer)
            # child spans, so that the reports' self time leaves the kernels out
            tracer.patch(diffusion, "value_batch", "calculus.value")
            tracer.patch(diffusion, "sub_laplacian_batch", "calculus.sublap")
            tracer.patch(lsi, "value_batch", "calculus.value")
            tracer.patch(lsi, "grad_norm_sq_batch", "calculus.grad")
        sample = _traced(diffusion.sample_unit_endpoints, "diffusion.sample", tracer, _sample_info)
        heat_report = _traced(diffusion.heat_equation_report, "diffusion.heat_report", tracer)
        quot_report = _traced(lsi.quotient_invariance_report, "lsi.quotient_report", tracer)
        form = self.form
        heat, quot = [], []
        try:
            batch = rnd.timed(sample, [form], HEAT_STEPS, HEAT_SEED, HEAT_M)[0]
            for cfg in self.cfgs:
                for f in self.heat_fs:
                    rep = rnd.op(heat_report, form, cfg, f, HEAT_M, HEAT_DELTA_T, 1, batch)
                    heat.append((cfg.t, f.name, rep))
                for f in self.quot_fs:
                    rep = rnd.op(quot_report, form, cfg, f, HEAT_M, 1, batch)
                    quot.append((cfg.t, f.name, rep))
        finally:
            if tracer:
                tracer.restore()
        self._check(rnd, heat, quot)
        if tracer:
            self._layers(rnd, tracer, batch, drawn[0])

    def _check(self, rnd, heat, quot):
        n, frob = self.form.n, self.form.frobenius_sq()
        for t, name, rep in heat:
            # the program's own verdict, as heat-check prints it
            if not rep.residual <= 3.0 * rep.std_error:
                rnd.failed += 1
            where = f"heat {name} t={t}"
            for est in (rep.ddt, rep.half_generator):
                rnd.check(math.isfinite(est.mean) and est.std_error >= 0.0, f"{where}: {est}")
            if name not in ("poly_radial", "vertical_sq"):
                continue
            exact = reference.heat_moments(name, n, frob, t, HEAT_STEPS)
            for key, est in (("ddt", rep.ddt), ("half_generator", rep.half_generator)):
                err = Z_EXACT * est.std_error + ROUNDING * abs(exact[key])
                rnd.check(abs(est.mean - exact[key]) <= err,
                          f"{where}: {key} {est.mean} vs exact {exact[key]} (se {est.std_error})")
        for t, name, rep in quot:
            rnd.check(rep.bitwise_equal, f"quotient {name} t={t}: reduced and lifted differ")

    def _layers(self, rnd, tracer, batch, normals):
        L = rnd.layers
        (wall, _, (_, m)), = tracer.spans["diffusion.sample"]
        L["diffusion.sample_us.heat"] = 1e6 * wall / m
        L["diffusion.samples"] = m
        L["diffusion.normals"] = normals
        L["diffusion.heat_report_ms"] = 1e3 * _mean(tracer.selfs("diffusion.heat_report"))
        L["lsi.quotient_report_ms"] = 1e3 * _mean(tracer.walls("lsi.quotient_report"))
        # per-sample cost of each batched kernel, called directly on the batch
        w, c = batch.w_at(1.0), batch.c_at(1.0)
        kernels = (("value", lambda f: calculus.value_batch(f, w, c)),
                   ("grad", lambda f: calculus.grad_norm_sq_batch(self.form, f, w, c)),
                   ("sublap", lambda f: calculus.sub_laplacian_batch(self.form, f, w, c)))
        for f, sel in zip(self.calc_fs, CALC_FS):
            short = short_name(sel)
            for kind, call in kernels:
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    call(f)
                    times.append(time.perf_counter() - t0)
                L[f"calculus.{kind}_ns.{short}"] = 1e9 * sorted(times)[1] / HEAT_M


# ---------------------------------------------------------------------------
# geodesic: the polygon distance solver on fixed targets

GEO_K = 64
GEO_K_WINDOW = 3
GEO_SEED = 20251204
# A returned path must meet the target's c to this share of 1 + |c|.
GEO_C_TOL_REL = 1e-6
# Target shapes per form: (kind, w, c) for full solves, (kind, w, theta) for
# reduced ones, (kind, (w1, c1), (w2, c2)) for distance_between.  Every block
# of every target is turned by its own angle, drawn once from GEO_SEED, so
# that no target lies along the coordinate axes the solver starts from.  The
# targets do not follow --seed: the solver's work depends on how a target
# sits against those axes, and seed-drawn turns spread op_ms.p50 by 17%
# across seeds (README, "Steadiness").  One purely vertical target (w = 0,
# c = 2 on weights (1)) is kept; other vertical and near-vertical targets
# are left out, as the solver misses the K-gon bound on some of them
# (README, "Known failures").
GEO_SHAPES = (
    ((1.0,), (
        ("full", (2.4, 0.0), 2.0),
        ("full", (0.0, 0.0), 2.0),
        ("full", (2.0, 0.0), -3.5),
        ("full", (3.0, 0.0), 0.0),
        ("reduced", (2.0, 0.0), 2.0),
        ("between", ((1.0, 0.0), 0.5), ((0.6, 1.3), -1.0)),
    )),
    ((1.0, 2.5), (
        ("full", (1.5, 0.0, 1.2, 0.0), 2.5),
        ("full", (1.0, 0.0, 1.6, 0.0), -4.0),
        ("full", (2.0, 0.0, 2.0, 0.0), 0.0),
        ("reduced", (1.5, 0.0, 1.0, 0.0), 4.0),
        ("between", ((0.8, 0.0, 0.6, 0.0), 1.0), ((0.5, 1.0, -0.4, 0.8), -0.5)),
    )),
    ((0.5, 1.0, 2.0), (
        ("full", (1.5, 0.0, 1.0, 0.0, 1.0, 0.0), 3.0),
        ("full", (1.0, 0.0, 1.5, 0.0, 0.8, 0.0), -2.0),
        ("full", (1.7, 0.0, 1.7, 0.0, 1.7, 0.0), 0.0),
        ("reduced", (1.2, 0.0, 1.0, 0.0, 0.8, 0.0), 1.0),
        ("between", ((0.7, 0.0, 0.5, 0.0, 0.6, 0.0), -0.8), ((0.2, 0.9, 0.8, -0.3, 0.1, 0.7), 1.2)),
    )),
)


def _turn_blocks(w, angles):
    out = np.array(w, dtype=float)
    for j, phi in enumerate(angles):
        x, y = out[2 * j], out[2 * j + 1]
        out[2 * j] = math.cos(phi) * x - math.sin(phi) * y
        out[2 * j + 1] = math.sin(phi) * x + math.cos(phi) * y
    return out


class Geodesic:
    def __init__(self, seed):
        rng = np.random.default_rng(GEO_SEED)
        self.ops = []
        for ws, shapes in GEO_SHAPES:
            form = model.make_nonisotropic_form(ws)
            for kind, *shape in shapes:
                turn = rng.uniform(0.0, 2.0 * math.pi, size=len(ws))
                if kind == "full":
                    target = group.GroupElement(_turn_blocks(shape[0], turn), shape[1])
                elif kind == "reduced":
                    target = group.ReducedElement(_turn_blocks(shape[0], turn), shape[1])
                else:
                    target = tuple(group.GroupElement(_turn_blocks(w, turn), c) for w, c in shape)
                self.ops.append((kind, ws, form, target))
        self._exact = {}

    def exact(self, ws, w, c):
        key = (ws, tuple(float(x) for x in w), float(c))
        if key not in self._exact:
            self._exact[key] = reference.gaveau_distance(ws, w, c)
        return self._exact[key]

    def run(self, rnd: Round, tracer=None):
        if tracer:
            tracer.patch(distance, "cc_distance", "distance.solve")
            tracer.patch(distance, "minimize", "distance.minimize", lambda a, k, r: int(r.nfev))
        full = distance.cc_distance
        reduced = _traced(distance.cc_distance_reduced, "distance.reduced", tracer)
        between = distance.distance_between
        results = []
        try:
            for kind, ws, form, target in self.ops:
                if kind == "full":
                    res = rnd.op(full, form, target, K=GEO_K)
                elif kind == "reduced":
                    res = rnd.op(reduced, form, target, K=GEO_K, k_window=GEO_K_WINDOW)
                else:
                    res = rnd.op(between, form, target[0], target[1], K=GEO_K)
                results.append(res)
        finally:
            if tracer:
                tracer.restore()
        gaps, fibers = self._check(rnd, results)
        if tracer:
            self._layers(rnd, tracer, gaps, fibers)

    def _check(self, rnd, results):
        gap_k = reference.polygon_gap(GEO_K)
        gaps, fibers = [], [0, 0]
        for (kind, ws, form, target), res in zip(self.ops, results):
            if kind == "between":
                g1, g2 = target
                rel = group.multiply(form, group.inverse(form, g1), g2)
                w, c = rel.w, rel.c
            elif kind == "full":
                w, c = target.w, target.c
            else:
                w, c = target.w, target.theta + 2.0 * math.pi * res.winning_k
            where = f"geodesic {kind} weights={ws} w={np.round(w, 3).tolist()} c={c:.4f}"
            lifted = distance.lift(form, res.path)
            end_c = float(lifted.vertical[-1])
            residual = abs(res.c_residual)
            rnd.check(np.max(np.abs(lifted.nodes[-1] - w)) <= ROUNDING * (1.0 + np.max(np.abs(w))),
                      f"{where}: path ends at w = {lifted.nodes[-1]}")
            rnd.check(abs(end_c - c - res.c_residual) <= ROUNDING * (1.0 + abs(c)),
                      f"{where}: path ends at c = {end_c}, residual {res.c_residual}")
            rnd.check(res.converged and residual <= GEO_C_TOL_REL * (1.0 + abs(c)),
                      f"{where}: residual {res.c_residual}, converged {res.converged}")
            # The exact distance grows with |c|, so a path that meets c
            # within the residual is no shorter than the exact distance to
            # |c| - residual; and the regular K-gon gap bounds the best
            # K-segment polygon from above, to |c| + residual.
            below = self.exact(ws, w, max(0.0, abs(c) - residual))
            above = self.exact(ws, w, abs(c) + residual) * (1.0 + gap_k)
            rnd.check(res.estimate >= below * (1.0 - ROUNDING),
                      f"{where}: estimate {res.estimate} below exact {below}")
            rnd.check(res.estimate <= above * (1.0 + ROUNDING),
                      f"{where}: estimate {res.estimate} above exact by more than the {GEO_K}-gon gap")
            # the same bounds against the path's own endpoint
            exact_end = self.exact(ws, w, end_c)
            rnd.check(exact_end * (1.0 - ROUNDING) <= res.estimate
                      <= exact_end * (1.0 + gap_k) * (1.0 + ROUNDING),
                      f"{where}: estimate {res.estimate} outside the {GEO_K}-gon bounds of "
                      f"its endpoint's exact {exact_end}")
            gaps.append(res.estimate / self.exact(ws, w, c) - 1.0)
            if kind != "reduced":
                continue
            for k, est in res.candidates:
                fibers[est is None] += 1
                c_k = target.theta + 2.0 * math.pi * k
                rnd.check(res.estimate <= (1.0 + gap_k) * (1.0 + ROUNDING) * self.exact(ws, w, c_k),
                          f"{where}: reduced estimate above fiber k={k}")
                if est is not None:
                    rnd.check(res.estimate <= est, f"{where}: reduced estimate above fiber k={k} solve {est}")
        return gaps, fibers

    @staticmethod
    def _layers(rnd, tracer, gaps, fibers):
        L = rnd.layers
        solves = tracer.walls("distance.solve")
        L["distance.solve_ms.full"] = 1e3 * float(np.median(solves))
        L["distance.solve_ms.reduced"] = 1e3 * float(np.median(tracer.walls("distance.reduced")))
        L["distance.solve_ms.p90"] = 1e3 * float(np.percentile(solves, 90))
        L["distance.minimize_calls"] = len(tracer.spans["distance.minimize"]) / len(solves)
        L["distance.minimize_nfev"] = sum(tracer.infos("distance.minimize")) / len(solves)
        L["distance.fiber_solved"], L["distance.fiber_pruned"] = fibers
        L["distance.rel_gap_max"] = max(gaps)
        # form construction, called directly: SVD-checked block-diagonal forms
        times = []
        for ws, _ in GEO_SHAPES * 20:
            t0 = time.perf_counter()
            model.make_nonisotropic_form(ws)
            times.append(time.perf_counter() - t0)
        L["model.form_build_us"] = 1e6 * _mean(times)


# ---------------------------------------------------------------------------
# group-laws: scalar group operations and pointwise calculus, one case per op

GROUP_WEIGHTS = (1.0, 2.0)
GROUP_CASES = 2000
GROUP_TOL = 1e-12


class GroupLaws:
    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])
        self.form = model.make_nonisotropic_form(GROUP_WEIGHTS)
        dim = self.form.dim
        self.proj = model.Projection((1, 2))
        self.f = calculus.make_registry_function("poly_radial", dim)
        self.e = group.identity(dim)
        self.W = rng.normal(size=(GROUP_CASES, 3, dim)) * 3.0
        self.C = rng.normal(size=(GROUP_CASES, 3)) * 20.0
        self.A = rng.normal(size=(GROUP_CASES, 3, dim))
        self.a = rng.normal(size=(GROUP_CASES, 3))

    def run(self, rnd: Round, tracer=None):
        if tracer:
            tracer.patch(group, "wrap_angle", "group.wrap_angle")
        mul = _traced(group.multiply, "group.multiply", tracer)
        inv = _traced(group.inverse, "group.inverse", tracer)
        quo = _traced(group.quotient, "group.quotient", tracer)
        mulr = _traced(group.multiply_reduced, "group.multiply_reduced", tracer)
        brk = _traced(group.bracket, "group.bracket", tracer)
        proj_el = _traced(model.project_element, "model.project_element", tracer)
        grad = _traced(calculus.horizontal_gradient, "calculus.point_grad", tracer)
        lap = _traced(calculus.sub_laplacian, "calculus.point_sublap", tracer)
        GE, LV = group.GroupElement, group.LieVector
        form, proj, f, e = self.form, self.proj, self.f, self.e

        def case(W, C, A, a):
            g1, g2, g3 = GE(W[0], C[0]), GE(W[1], C[1]), GE(W[2], C[2])
            return (
                mul(form, mul(form, g1, g2), g3), mul(form, g1, mul(form, g2, g3)),
                mul(form, g1, e), mul(form, e, g1), mul(form, g1, inv(form, g1)),
                quo(mul(form, g1, g2)), mulr(form, quo(g1), quo(g2)),
                quo(proj_el(proj, g1)), proj_el(proj, quo(g1)),
                brk(form, brk(form, LV(A[0], a[0]), LV(A[1], a[1])), LV(A[2], a[2])),
                grad(form, f, g1), lap(form, f, g1),
            )

        try:
            for i in range(GROUP_CASES):
                out = rnd.op(case, self.W[i], self.C[i], self.A[i], self.a[i])
                self._check(rnd, i, out)
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            L = rnd.layers
            for name in ("multiply", "multiply_reduced", "quotient", "wrap_angle", "bracket"):
                L[f"group.{name}_us"] = 1e6 * _mean(tracer.walls(f"group.{name}"))
            L["group.calls"] = sum(len(v) for k, v in tracer.spans.items() if k.startswith("group."))
            L["model.project_element_us"] = 1e6 * _mean(tracer.walls("model.project_element"))
            L["calculus.point_grad_us"] = 1e6 * _mean(tracer.walls("calculus.point_grad"))
            L["calculus.point_sublap_us"] = 1e6 * _mean(tracer.walls("calculus.point_sublap"))

    def _check(self, rnd, i, out):
        left, right, id_r, id_l, inv_prod, down, up, pa, pb, double, grad, lap = out
        W, C = self.W[i], self.C[i]
        g1w, g1c = W[0], C[0]

        def gap(x, y):
            scale = 1.0 + max(float(np.max(np.abs(x.w))), abs(x.c)) ** 2
            return max(float(np.max(np.abs(x.w - y.w))), abs(x.c - y.c)) / scale

        def circle(x, y):
            d = abs(x - y) % (2.0 * math.pi)
            return min(d, 2.0 * math.pi - d)

        g1 = group.GroupElement(g1w, g1c)
        theta_scale = 1.0 + abs(C[0]) + abs(C[1]) + float(np.max(np.abs(g1w))) ** 2
        laws = {
            "associativity": gap(left, right),
            "identity": max(gap(id_r, g1), gap(id_l, g1)),
            "inverse": gap(inv_prod, self.e),
            "homomorphism": max(float(np.max(np.abs(down.w - up.w))),
                                circle(down.theta, up.theta)) / theta_scale,
            "projection": max(float(np.max(np.abs(pa.w - pb.w))),
                              circle(pa.theta, pb.theta)) / theta_scale,
            "nilpotency": max(float(np.max(np.abs(double.A))), abs(double.a)),
            # poly_radial = |w|^2 has grad_H = 2w and L_H = 2 dim exactly
            "gradient": float(np.max(np.abs(grad - 2.0 * g1w))) / (1.0 + float(np.max(np.abs(g1w)))),
            "sub-Laplacian": abs(lap - 2.0 * self.form.dim) / (2.0 * self.form.dim),
        }
        for law, err in laws.items():
            rnd.check(err <= GROUP_TOL, f"group-laws case {i}: {law} off by {err:.3e}")


BUILDERS = {"scan": Scan, "heat": Heat, "geodesic": Geodesic, "group-laws": GroupLaws}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--probe", action="store_true", help="build the inputs and exit")
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src", "heislab")
    if os.path.realpath(os.path.dirname(heislab.__file__)) != os.path.realpath(src):
        sys.exit(f"heislab was imported from {heislab.__file__}, not from {src}")
    work = BUILDERS[args.workload](args.seed)
    if args.probe:
        return 0

    # cli.run reports on stdout; keep the protocol on a private copy of it
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    send({"ready": True, "problems": reference.self_check()})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "quit":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send({"peak_rss_mb": rss_kb / 1024.0})
            return 0
        rnd = Round()
        work.run(rnd, Tracer() if req["traced"] else None)
        send({"seg_ms": rnd.seg_ms, "ops": rnd.ops, "failed": rnd.failed,
              "problems": rnd.problems, "layers": rnd.layers})
    return 1


if __name__ == "__main__":
    sys.exit(main())
