"""End-to-end acceptance gate for the package.

Eight checks: group laws, horizontal-calculus identities, endpoint
statistics of the simulated diffusion, the closed-form entropy/energy
ratio, the dimension scan, bitwise quotient invariance, the distance
solver, and byte-level reproducibility of the CLI artifacts.

Each test prints exactly one ``ACCEPTANCE <k> <name>: PASS|FAIL (...)``
line *before* asserting, so the verdict is visible even when the
assertion fires.  Tolerances and runtime caps are pinned as constants.
"""

import functools
import math
import time

import numpy as np
from click.testing import CliRunner

from heislab import (
    GroupElement,
    LieVector,
    PathConfig,
    Projection,
    ReducedElement,
    SymplecticForm,
    angle_distance,
    bracket,
    cc_distance,
    cc_distance_reduced,
    compose_with_quotient,
    distance_between,
    endpoint_moments,
    grad_norm_sq,
    heat_equation_report,
    horizontal_gradient,
    identity,
    inverse,
    lsi_ratio,
    lsi_scan,
    make_isotropic_form,
    make_nonisotropic_form,
    make_registry_function,
    multiply,
    multiply_functions,
    multiply_reduced,
    project_element,
    quotient,
    quotient_invariance_report,
    sample_unit_endpoints,
    sub_laplacian,
    REGISTRY_DEFAULT_SELECTION,
)
from heislab.cli import _worst_cells, main

from helpers import exact_skew, random_orthogonal, rotated_function

GROUP_CASES = 10_000
GROUP_TOL = 1e-12          # relative, all six group laws
FRAME_ROTATIONS = 50
CALC_TOL = 1e-8            # relative, frame invariance and product rule
QUOTIENT_TOL = 1e-12       # relative, pointwise quotient relations
MC_SAMPLES = 200_000       # criterion batch: n=1, t=1, the exact law
HEAT_FUNCTIONS = ("poly_radial", "vertical_sq", "gauss_bump(1.0)")
RATIO_T_GRID = (0.5, 1.0, 2.0)
SCAN_DIMS = tuple(range(1, 9))
SCAN_M = 60_000
SCAN_SPREAD_FRACTION = 0.10
CHORD_TOL = 1e-3
FIBER_PAIRS = 100
FIBER_SLACK = 1e-6
INVARIANCE_TOL = 2e-3
DISTANCE_K = 64

TIME_CAPS = {1: 5.0, 2: 10.0, 3: 180.0, 4: 180.0, 5: 900.0, 7: 300.0}


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _within_cap(num, elapsed):
    cap = TIME_CAPS.get(num)
    return True if cap is None else elapsed <= cap


@functools.lru_cache(maxsize=None)
def _n1_setup():
    form = make_isotropic_form(1)
    batch = sample_unit_endpoints([form], steps=None, base_seed=42, m=MC_SAMPLES)[0]
    return form, batch


@functools.lru_cache(maxsize=None)
def _n4_setup():
    form = make_isotropic_form(4)
    batch = sample_unit_endpoints([form], steps=None, base_seed=42, m=100_000)[0]
    return form, batch


def _element_gap(a, b):
    """Relative gap between two full-group elements."""
    scale = 1.0 + max(float(np.max(np.abs(a.w))), abs(a.c)) ** 2
    return max(float(np.max(np.abs(a.w - b.w))), abs(a.c - b.c)) / scale


def test_01_group_laws():
    t0 = time.perf_counter()
    form = make_nonisotropic_form((1.0, 2.0))
    dim = form.dim
    e = identity(dim)
    proj = Projection((1, 2))
    rng = np.random.default_rng(1001)
    W = rng.normal(size=(GROUP_CASES, 3, dim)) * 3.0
    C = rng.normal(size=(GROUP_CASES, 3)) * 20.0
    A = rng.normal(size=(GROUP_CASES, 3, dim))
    a = rng.normal(size=(GROUP_CASES, 3))

    worst = dict.fromkeys(
        ("assoc", "identity", "inverse", "hom", "diagram", "nilpotent"), 0.0
    )
    for i in range(GROUP_CASES):
        g1 = GroupElement(W[i, 0], C[i, 0])
        g2 = GroupElement(W[i, 1], C[i, 1])
        g3 = GroupElement(W[i, 2], C[i, 2])

        left = multiply(form, multiply(form, g1, g2), g3)
        right = multiply(form, g1, multiply(form, g2, g3))
        worst["assoc"] = max(worst["assoc"], _element_gap(left, right))

        worst["identity"] = max(
            worst["identity"],
            _element_gap(multiply(form, g1, e), g1),
            _element_gap(multiply(form, e, g1), g1),
        )

        prod = multiply(form, g1, inverse(form, g1))
        worst["inverse"] = max(worst["inverse"], _element_gap(prod, e))

        # The circle-valued coordinate of a product agrees with the
        # product of the wrapped factors.
        down = quotient(multiply(form, g1, g2))
        up = multiply_reduced(form, quotient(g1), quotient(g2))
        theta_scale = 1.0 + abs(g1.c) + abs(g2.c) + float(np.max(np.abs(g1.w))) ** 2
        worst["hom"] = max(
            worst["hom"],
            float(np.max(np.abs(down.w - up.w))) / theta_scale,
            angle_distance(down.theta, up.theta) / theta_scale,
        )

        # Restricting coordinates commutes with wrapping the vertical part.
        pa = quotient(project_element(proj, g1))
        pb = project_element(proj, quotient(g1))
        worst["diagram"] = max(
            worst["diagram"],
            float(np.max(np.abs(pa.w - pb.w))) / theta_scale,
            angle_distance(pa.theta, pb.theta) / theta_scale,
        )

        X = LieVector(A[i, 0], a[i, 0])
        Y = LieVector(A[i, 1], a[i, 1])
        Z = LieVector(A[i, 2], a[i, 2])
        double = bracket(form, bracket(form, X, Y), Z)
        worst["nilpotent"] = max(
            worst["nilpotent"], float(np.max(np.abs(double.A))), abs(double.a)
        )

    elapsed = time.perf_counter() - t0
    worst_all = max(worst.values())
    ok = worst_all <= GROUP_TOL and _within_cap(1, elapsed)
    detail = (
        f"{GROUP_CASES} cases/law, worst rel err {worst_all:.2e} "
        f"[{', '.join(f'{k}={v:.1e}' for k, v in worst.items())}], "
        f"tol {GROUP_TOL}, {elapsed:.1f}s < {TIME_CAPS[1]}s"
    )
    assert _verdict(1, "group-laws", ok, detail), detail


def test_02_calculus_identities():
    t0 = time.perf_counter()
    form = make_isotropic_form(2)
    rng = np.random.default_rng(2002)

    # (a) Horizontal energy and generator do not depend on the chosen
    # orthonormal frame of the flat layer.
    worst_frame = 0.0
    functions = [make_registry_function(s, 4) for s in ("poly_radial", "gauss_bump(0.8)")]
    for _ in range(FRAME_ROTATIONS):
        R = random_orthogonal(rng, 4)
        form_rot = SymplecticForm.from_matrix(exact_skew(R.T @ form.omega @ R))
        for f in functions:
            f_rot = rotated_function(f, R)
            for _ in range(4):
                g = GroupElement(rng.standard_normal(4) * 1.5, rng.standard_normal() * 2.0)
                g_rot = GroupElement(R.T @ g.w, g.c)
                for val, val_rot in (
                    (grad_norm_sq(form, f, g), grad_norm_sq(form_rot, f_rot, g_rot)),
                    (sub_laplacian(form, f, g), sub_laplacian(form_rot, f_rot, g_rot)),
                ):
                    worst_frame = max(worst_frame, abs(val - val_rot) / (1.0 + abs(val)))

    # (b) Product rule / carre du champ: L(fg) = f Lg + g Lf + 2 <grad f, grad g>.
    f1 = make_registry_function("poly_radial", 4)
    f2 = make_registry_function("gauss_bump(1.0)", 4)
    f12 = multiply_functions(f1, f2)
    worst_product = 0.0
    for _ in range(100):
        g = GroupElement(rng.standard_normal(4) * 1.2, rng.standard_normal() * 2.0)
        v1 = f1.value(g.w, g.c)
        v2 = f2.value(g.w, g.c)
        lhs = sub_laplacian(form, f12, g)
        cross = float(
            np.dot(horizontal_gradient(form, f1, g), horizontal_gradient(form, f2, g))
        )
        rhs = v1 * sub_laplacian(form, f2, g) + v2 * sub_laplacian(form, f1, g) + 2.0 * cross
        worst_product = max(worst_product, abs(lhs - rhs) / (1.0 + abs(lhs)))

    # (c) Pointwise quotient relations: evaluating/differentiating the lift
    # equals evaluating/differentiating downstairs at the wrapped point.
    worst_quotient = 0.0
    for sel in ("cos_theta", "exp_linear(0.5)", "poly_radial"):
        f = make_registry_function(sel, 4)
        lifted = compose_with_quotient(f)
        for _ in range(100):
            g = GroupElement(rng.standard_normal(4) * 1.5, rng.standard_normal() * 30.0)
            r = quotient(g)
            pairs = (
                (lifted.value(g.w, g.c), f.value(r.w, r.theta)),
                (grad_norm_sq(form, lifted, g), grad_norm_sq(form, f, r)),
                (sub_laplacian(form, lifted, g), sub_laplacian(form, f, r)),
            )
            for up, down in pairs:
                worst_quotient = max(worst_quotient, abs(up - down) / (1.0 + abs(down)))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_frame <= CALC_TOL
        and worst_product <= CALC_TOL
        and worst_quotient <= QUOTIENT_TOL
        and _within_cap(2, elapsed)
    )
    detail = (
        f"frame {worst_frame:.2e}<=?{CALC_TOL} over {FRAME_ROTATIONS} rotations, "
        f"product rule {worst_product:.2e}<=?{CALC_TOL}, "
        f"quotient {worst_quotient:.2e}<=?{QUOTIENT_TOL}, "
        f"{elapsed:.1f}s < {TIME_CAPS[2]}s"
    )
    assert _verdict(2, "calculus-identities", ok, detail), detail


def test_03_endpoint_statistics():
    t0 = time.perf_counter()
    form, batch = _n1_setup()
    cfg = PathConfig(t=1.0, base_seed=42)

    moments = endpoint_moments(batch, 1.0)
    h = moments["hnorm_sq"]
    c2 = moments["c_sq"]
    gap_h = abs(h.mean - 2.0)
    gap_c = abs(c2.mean - 0.25)
    ok_h = gap_h <= 3.0 * h.std_error
    ok_c = gap_c <= 3.0 * c2.std_error

    residuals = []
    for sel in HEAT_FUNCTIONS:
        f = make_registry_function(sel, form.dim)
        rep = heat_equation_report(form, cfg, f, m=MC_SAMPLES, batch=batch)
        residuals.append((sel, rep.residual, 3.0 * rep.std_error))
    ok_heat = all(res <= bound for _, res, bound in residuals)

    elapsed = time.perf_counter() - t0
    ok = ok_h and ok_c and ok_heat and _within_cap(3, elapsed)
    heat_str = ", ".join(f"{s}:{r:.1e}<=?{b:.1e}" for s, r, b in residuals)
    detail = (
        f"m={MC_SAMPLES} exact law: |E|w|^2-2|={gap_h:.1e}<=?{3 * h.std_error:.1e}, "
        f"|E c^2-0.25|={gap_c:.1e}<=?{3 * c2.std_error:.1e}, "
        f"heat({heat_str}), {elapsed:.1f}s < {TIME_CAPS[3]}s"
    )
    assert _verdict(3, "endpoint-statistics", ok, detail), detail


def test_04_closed_form_ratio():
    t0 = time.perf_counter()
    cells = []
    for form, batch in (_n1_setup(), _n4_setup()):
        f = make_registry_function("exp_linear(0.5)", form.dim)
        for t in RATIO_T_GRID:
            cfg = PathConfig(t=t, base_seed=42)
            rep = lsi_ratio(form, cfg, f, m=batch.m, batch=batch)
            cells.append((form.n, t, rep))
    ok_cells = all(
        abs(rep.ratio - 2.0 * t) <= 3.0 * rep.ratio_se and rep.passed
        for _, t, rep in cells
    )
    elapsed = time.perf_counter() - t0
    ok = ok_cells and _within_cap(4, elapsed)
    cell_str = ", ".join(
        f"n={n} t={t}: {rep.ratio:.4f} (target {2 * t}, 3se {3 * rep.ratio_se:.1e})"
        for n, t, rep in cells
    )
    detail = f"{cell_str}, {elapsed:.1f}s < {TIME_CAPS[4]}s"
    assert _verdict(4, "closed-form-ratio", ok, detail), detail


def test_05_dimension_scan():
    t0 = time.perf_counter()
    scan = lsi_scan(
        ("isotropic", "ascending_weights"),
        dims=SCAN_DIMS,
        t_list=(1.0,),
        f_registry=REGISTRY_DEFAULT_SELECTION,
        m=SCAN_M,
        base_seed=42,
    )
    n_cells = len(scan)
    ok_shape = n_cells == len(SCAN_DIMS) * 2 * len(REGISTRY_DEFAULT_SELECTION)
    ok_status = all(rep.status == "ok" for rep in scan)
    ok_bound = all(
        rep.ratio is not None and rep.ratio <= 4.0 * rep.t + 3.0 * rep.ratio_se and rep.passed
        for rep in scan
    )

    by_dim = _worst_cells(scan, 1.0, "n")
    ok_cover = sorted(by_dim) == list(SCAN_DIMS)
    tops = [by_dim[n] for n in sorted(by_dim)]
    hi = max(tops, key=lambda r: r.ratio)
    lo = min(tops, key=lambda r: r.ratio)
    combined_se = math.hypot(hi.ratio_se, lo.ratio_se)
    budget = SCAN_SPREAD_FRACTION * hi.ratio + 3.0 * combined_se
    ok_spread = (hi.ratio - lo.ratio) <= budget

    elapsed = time.perf_counter() - t0
    ok = ok_shape and ok_status and ok_bound and ok_cover and ok_spread and _within_cap(5, elapsed)
    detail = (
        f"{n_cells} cells (dims 1..8 x 2 families x {len(REGISTRY_DEFAULT_SELECTION)} fs), "
        f"all ok={ok_status}, bound 4t+3se holds={ok_bound}, "
        f"per-dim max spread {hi.ratio - lo.ratio:.4f}<=?{budget:.4f} "
        f"(max {hi.ratio:.4f}@n={hi.n}, min {lo.ratio:.4f}@n={lo.n}), "
        f"{elapsed:.0f}s < {TIME_CAPS[5]}s"
    )
    assert _verdict(5, "dimension-scan", ok, detail), detail


def test_06_quotient_bitwise():
    t0 = time.perf_counter()
    form, batch = _n1_setup()
    checks = []
    for t in (1.0, 1.7):
        cfg = PathConfig(t=t, base_seed=42)
        for sel in ("poly_radial", "exp_linear(0.5)", "cos_theta"):
            f = make_registry_function(sel, form.dim)
            rep = quotient_invariance_report(form, cfg, f, m=MC_SAMPLES, batch=batch)
            checks.append(
                rep.bitwise_equal
                and rep.value_max_abs_diff == 0.0
                and rep.grad_sq_max_abs_diff == 0.0
                and rep.entropy_reduced == rep.entropy_lifted
                and rep.energy_reduced == rep.energy_lifted
                and rep.l2_reduced == rep.l2_lifted
            )
    elapsed = time.perf_counter() - t0
    ok = all(checks)
    detail = (
        f"{len(checks)} (f, t) pairs at m={MC_SAMPLES}: entropy/energy/L2 and all "
        f"pointwise values bitwise identical={ok}, zero tolerance, {elapsed:.1f}s"
    )
    assert _verdict(6, "quotient-bitwise", ok, detail), detail


def test_07_distance_suite():
    t0 = time.perf_counter()
    form = make_isotropic_form(1)

    chord = cc_distance(form, GroupElement(np.array([3.0, 4.0]), 0.0), K=DISTANCE_K)
    gap_chord = abs(chord.estimate - 5.0)
    ok_chord = gap_chord <= CHORD_TOL

    # Wrapped distance never exceeds the distance to any fiber representative.
    rng = np.random.default_rng(2026)
    violations = 0
    worst_excess = -math.inf
    for _ in range(FIBER_PAIRS):
        w = rng.normal(size=2) * 1.5
        theta = rng.uniform(0.0, 2.0 * math.pi)
        k = int(rng.integers(-2, 3))
        full = cc_distance(form, GroupElement(w, theta + 2.0 * math.pi * k), K=DISTANCE_K)
        red = cc_distance_reduced(form, ReducedElement(w, theta), K=DISTANCE_K)
        excess = red.estimate - full.estimate
        worst_excess = max(worst_excess, excess)
        if excess > FIBER_SLACK:
            violations += 1
    ok_fiber = violations == 0

    worst_sym = 0.0
    worst_left = 0.0
    for _ in range(10):
        g1 = GroupElement(rng.normal(size=2) * 1.2, rng.normal() * 1.5)
        g2 = GroupElement(rng.normal(size=2) * 1.2, rng.normal() * 1.5)
        h = GroupElement(rng.normal(size=2) * 1.2, rng.normal() * 1.5)
        d12 = distance_between(form, g1, g2, K=DISTANCE_K).estimate
        d21 = distance_between(form, g2, g1, K=DISTANCE_K).estimate
        dh = distance_between(
            form, multiply(form, h, g1), multiply(form, h, g2), K=DISTANCE_K
        ).estimate
        worst_sym = max(worst_sym, abs(d12 - d21) / (1.0 + d12))
        worst_left = max(worst_left, abs(d12 - dh) / (1.0 + d12))
    ok_invariance = worst_sym <= INVARIANCE_TOL and worst_left <= INVARIANCE_TOL

    elapsed = time.perf_counter() - t0
    ok = ok_chord and ok_fiber and ok_invariance and _within_cap(7, elapsed)
    detail = (
        f"K={DISTANCE_K}: |d(3,4;0)-5|={gap_chord:.1e}<=?{CHORD_TOL}, "
        f"wrapped<=full+{FIBER_SLACK} on {FIBER_PAIRS} pairs "
        f"(violations={violations}, worst excess {worst_excess:.1e}), "
        f"symmetry {worst_sym:.1e} and left-invariance {worst_left:.1e} <=? {INVARIANCE_TOL}, "
        f"{elapsed:.0f}s < {TIME_CAPS[7]}s"
    )
    assert _verdict(7, "distance-suite", ok, detail), detail


def test_08_reproducibility(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()

    def run_cli(args, out):
        # exit 1 is a row failing by chance (simulate's c_sq row at m = 512
        # does so 0.7% of the time); the runs must agree on the code and bytes
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code in (0, 1), result.output
        body = [(out / "report.json").read_bytes(), (out / "summary.csv").read_bytes()]
        for extra in sorted(out.glob("*.dat")):
            body.append(extra.read_bytes())
        return result.exit_code, body

    sim = ["simulate", "--set", "m = 512", "--set", "N = 20"]
    sim_a = run_cli(sim, tmp_path / "sim_a")
    sim_b = run_cli(sim, tmp_path / "sim_b")
    sim_w = run_cli(sim + ["--workers", "8"], tmp_path / "sim_w")
    ok_sim = sim_a == sim_b
    ok_workers = sim_a == sim_w

    scan = [
        "lsi-scan",
        "--set", "m = 500",
        "--set", "N = 50",
        "--set", "dims = 1, 2",
        "--set", "f = exp_linear(0.5)",
        "--set", "t = 1.0",
    ]
    scan_a = run_cli(scan, tmp_path / "scan_a")
    scan_b = run_cli(scan, tmp_path / "scan_b")
    ok_scan = scan_a == scan_b

    elapsed = time.perf_counter() - t0
    ok = ok_sim and ok_workers and ok_scan
    detail = (
        f"simulate rerun identical={ok_sim}, 8 workers == serial={ok_workers}, "
        f"lsi-scan rerun identical={ok_scan} "
        f"(exit code, report.json + summary.csv + *.dat bytes), {elapsed:.1f}s"
    )
    assert _verdict(8, "reproducibility", ok, detail), detail
