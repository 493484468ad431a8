"""Horizontal paths, exact lifts, and the closed-form optimal polygon."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize

from heislab import (
    GroupElement,
    HorizontalPath,
    ReducedElement,
    SymplecticForm,
    cc_distance,
    cc_distance_reduced,
    distance_between,
    identity,
    lift,
    make_isotropic_form,
    make_nonisotropic_form,
    multiply,
    wrap_angle,
)
from heislab import distance
from heislab.distance import C_TOL_REL
from heislab.group import TWO_PI

SQUARE_LOOP = np.array(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
)


class TestHorizontalPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            HorizontalPath(np.zeros(4))
        with pytest.raises(ValueError):
            HorizontalPath(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            HorizontalPath([[0.0, 0.0], [np.inf, 0.0]])
        with pytest.raises(ValueError):
            HorizontalPath([[0.5, 0.0], [1.0, 0.0]])

    def test_length_and_segments(self):
        p = HorizontalPath([[0.0, 0.0], [3.0, 4.0], [3.0, 5.0]])
        assert p.segments == 2
        assert p.length() == 6.0


class TestLift:
    def test_unit_square_loop_area(self, iso1):
        lp = lift(iso1, HorizontalPath(SQUARE_LOOP))
        end = lp.endpoint
        assert np.array_equal(end.w, [0.0, 0.0])
        assert end.c == 1.0
        assert np.array_equal(lp.vertical, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_orientation_flips_sign(self, iso1):
        lp = lift(iso1, HorizontalPath(SQUARE_LOOP[::-1] - SQUARE_LOOP[-1]))
        assert lp.endpoint.c == -1.0

    def test_dimension_mismatch(self, iso2):
        with pytest.raises(ValueError):
            lift(iso2, HorizontalPath(SQUARE_LOOP))

    def test_lift_agrees_with_group_product(self, iso2):
        rng = np.random.default_rng(51)
        nodes = np.vstack([np.zeros(4), np.cumsum(rng.standard_normal((6, 4)), axis=0)])
        lp = lift(iso2, HorizontalPath(nodes))
        g = identity(4)
        for k in range(1, nodes.shape[0]):
            g = multiply(iso2, g, GroupElement(nodes[k] - nodes[k - 1], 0.0))
        assert np.allclose(g.w, lp.endpoint.w, rtol=0, atol=1e-12)
        assert g.c == pytest.approx(lp.endpoint.c, rel=1e-12, abs=1e-12)


class TestCcDistance:
    def test_straight_chord_is_exact(self, iso1):
        res = cc_distance(iso1, GroupElement([3.0, 4.0], 0.0), K=64)
        assert res.converged
        assert res.c_residual == 0.0
        assert res.estimate == 5.0
        assert np.array_equal(res.path.nodes[-1], [3.0, 4.0])
        assert res.path.segments == 64
        # only reduced solves name a winding offset and fiber candidates
        assert res.winning_k is None and res.candidates == ()

    def test_zero_target_shortcut(self, iso1):
        res = cc_distance(iso1, GroupElement([0.0, 0.0], 0.0), K=16)
        assert res.estimate == 0.0 and res.converged
        assert res.path.segments == 16 and not np.any(res.path.nodes)

    def test_bad_inputs(self, iso1):
        with pytest.raises(ValueError):
            cc_distance(iso1, GroupElement([1.0, 2.0], 0.0), K=1)
        with pytest.raises(ValueError):
            cc_distance(iso1, GroupElement([1.0, 2.0, 3.0, 4.0], 0.0), K=8)

    def test_vertical_target_matches_circle_law(self, iso1):
        # the geodesic to (0, c) is a circle of area |c|
        ref = gaveau_distance((1.0,), [0.0, 0.0], 1.0)
        assert ref == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
        res = cc_distance(iso1, GroupElement([0.0, 0.0], 1.0), K=64)
        assert res.converged
        # a polygon cannot beat the smooth circle, and a regular 64-gon
        # exceeds it by the isoperimetric gap
        assert ref * (1.0 - 1e-12) <= res.estimate <= (1.0 + polygon_gap(64)) * ref * (1.0 + 1e-12)
        assert lift(iso1, res.path).endpoint.c == pytest.approx(1.0, abs=2e-6)

    def test_refinement_never_hurts(self, iso1):
        target = GroupElement([1.2, -0.7], 0.8)
        coarse = cc_distance(iso1, target, K=16)
        fine = cc_distance(iso1, target, K=64)
        assert fine.converged and coarse.converged
        assert fine.estimate <= coarse.estimate + 1e-6

    def test_returned_path_realizes_the_target(self, iso1):
        target = GroupElement([0.9, 0.4], -0.6)
        res = cc_distance(iso1, target, K=32)
        end = lift(iso1, res.path).endpoint
        assert np.allclose(end.w, target.w, atol=1e-12)
        assert abs(end.c - target.c) <= 1e-6 * (1.0 + abs(target.c))
        assert res.path.length() == res.estimate


class TestReducedDistance:
    def test_unwinds_near_full_turn(self, iso1):
        theta = 2.0 * math.pi - 0.05
        res = cc_distance_reduced(iso1, ReducedElement([0.0, 0.0], theta), K=32)
        assert res.winning_k == -1
        assert res.converged
        ref = gaveau_distance((1.0,), [0.0, 0.0], theta - TWO_PI)
        assert ref == pytest.approx(2.0 * math.sqrt(math.pi * 0.05), rel=1e-12)
        assert ref * (1.0 - 1e-12) <= res.estimate <= (1.0 + polygon_gap(32)) * ref * (1.0 + 1e-12)
        assert res.path.length() == res.estimate
        # every offset is reported; only the nearest fiber is solved
        assert res.candidates == tuple((k, res.estimate if k == -1 else None) for k in range(-3, 4))

    def test_never_exceeds_full_distance(self, iso1):
        rng = np.random.default_rng(53)
        for _ in range(3):
            w = rng.standard_normal(2)
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            red = cc_distance_reduced(iso1, ReducedElement(w, theta), K=16, k_window=2)
            for c in (theta, theta - 2.0 * math.pi):
                full = cc_distance(iso1, GroupElement(w, c), K=16)
                assert red.estimate <= full.estimate + 1e-6

    def test_zero_window_is_plain_distance(self, iso1):
        target = ReducedElement([0.5, 0.3], 1.2)
        red = cc_distance_reduced(iso1, target, K=16, k_window=0)
        full = cc_distance(iso1, GroupElement([0.5, 0.3], 1.2), K=16)
        assert red.winning_k == 0
        assert red.estimate == full.estimate
        assert red.candidates == ((0, full.estimate),)
        assert full.winning_k is None and full.candidates == ()

    def test_zero_window_still_takes_the_nearest_fiber(self, iso1):
        # theta > pi, so fiber -1 is nearer than fiber 0 whatever the window
        theta = 2.0 * math.pi - 0.05
        red = cc_distance_reduced(iso1, ReducedElement([0.0, 0.0], theta), K=16, k_window=0)
        near = cc_distance(iso1, GroupElement([0.0, 0.0], theta - 2.0 * math.pi), K=16)
        assert red.winning_k == -1
        assert red.estimate == near.estimate == pytest.approx(0.7978, abs=1e-4)
        assert red.candidates == ((-1, red.estimate), (0, None))

    def test_negative_window_rejected(self, iso1):
        with pytest.raises(ValueError):
            cc_distance_reduced(iso1, ReducedElement([0.0, 0.0], 1.0), k_window=-1)


@st.composite
def fiber_cases(draw):
    """(form, w, K) over 1-3 blocks, w sometimes exactly 0, K from 3 to 64."""
    ws = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, 2.5)), min_size=1, max_size=3))
    coord = st.floats(-3.0, 3.0)
    w = draw(st.one_of(st.just([0.0] * (2 * len(ws))), st.lists(coord, min_size=2 * len(ws),
                                                                max_size=2 * len(ws))))
    return make_nonisotropic_form(tuple(ws)), np.array(w), draw(st.integers(3, 64))


FIBER_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestNearestFiber:
    """The K-gon estimate is even in c and nondecreasing in |c|, so the
    reduced distance is one solve at the nearest fiber."""

    @FIBER_SETTINGS
    @given(fiber_cases(), st.floats(-20.0, 20.0))
    def test_estimate_is_even_in_c(self, case, c):
        form, w, K = case
        plus = cc_distance(form, GroupElement(w, c), K=K)
        minus = cc_distance(form, GroupElement(w, -c), K=K)
        assert minus.estimate == pytest.approx(plus.estimate, rel=1e-12, abs=0.0)

    @FIBER_SETTINGS
    @given(fiber_cases(), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    def test_estimate_is_nondecreasing_in_abs_c(self, case, c1, c2):
        form, w, K = case
        near, far = sorted((c1, c2), key=abs)
        r_near = cc_distance(form, GroupElement(w, near), K=K)
        r_far = cc_distance(form, GroupElement(w, far), K=K)
        if r_near.converged and r_far.converged:
            assert r_near.estimate <= r_far.estimate * (1.0 + 1e-12)

    @FIBER_SETTINGS
    @given(fiber_cases(), st.floats(0.0, TWO_PI, exclude_max=True), st.integers(0, 3))
    def test_reduced_is_the_least_fiber_in_one_solve(self, case, theta, k_window):
        form, w, K = case
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cc_distance(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "cc_distance", counted)
            red = cc_distance_reduced(form, ReducedElement(w, theta), K=K, k_window=k_window)
        assert len(calls) == 1

        # the least fiber over [-3, 3], whatever the window
        fibers = {k: cc_distance(form, GroupElement(w, theta + TWO_PI * k), K=K) for k in range(-3, 4)}
        least = min(res.estimate for res in fibers.values() if res.converged)
        # fibers within rounding of the least one: at theta = pi, k = 0 and -1
        tied = [k for k, res in fibers.items() if res.converged and res.estimate <= least * (1.0 + 1e-12)]
        assert red.converged and red.winning_k in tied
        assert red.estimate == fibers[red.winning_k].estimate
        window = range(min(-k_window, red.winning_k), k_window + 1)
        assert red.candidates == tuple((k, red.estimate if k == red.winning_k else None) for k in window)


class TestBetweenPoints:
    def test_identity_base_matches_cc_distance(self, iso1):
        g = GroupElement([0.8, -0.3], 0.4)
        a = distance_between(iso1, identity(2), g, K=16)
        b = cc_distance(iso1, g, K=16)
        assert a.estimate == b.estimate

    def test_left_invariance_and_symmetry(self, iso1):
        g1 = GroupElement([0.6, 0.1], -0.2)
        g2 = GroupElement([-0.4, 0.8], 0.5)
        h = GroupElement([0.3, -0.9], 0.7)
        d12 = distance_between(iso1, g1, g2, K=32).estimate
        d21 = distance_between(iso1, g2, g1, K=32).estimate
        dh = distance_between(
            iso1, multiply(iso1, h, g1), multiply(iso1, h, g2), K=32
        ).estimate
        assert abs(d12 - d21) <= 2e-3 * (1.0 + d12)
        assert abs(d12 - dh) <= 2e-3 * (1.0 + d12)


def polygon_gap(K):
    """Relative excess sqrt((K / pi) tan(pi / K)) - 1 of the regular K-gon
    over the circle of the same area."""
    return math.sqrt(K / math.pi * math.tan(math.pi / K)) - 1.0


def gaveau_distance(weights, w, c):
    """Continuum distance from the identity to (w, c) on the block form.

    A normal geodesic with vertical covector mu runs, in block j, along a
    circular arc over the chord w_j that turns by a_j mu; it sweeps area
    a_j |w_j|^2 (t - sin t) / (8 sin^2(t/2)) and has length |w_j| (t/2) /
    sin(t/2), t = a_j mu.  The swept area increases on 0 <= mu < 2 pi /
    a_max.  When the top-weight blocks stay still and that is not enough, a
    full circle in a top block carries the rest.
    """
    a = np.asarray(weights, dtype=float)
    w = np.asarray(w, dtype=float)
    r2 = w[0::2] ** 2 + w[1::2] ** 2
    if c == 0.0:
        return math.sqrt(float(r2.sum()))
    a_max = float(a.max())
    live = r2 > 0.0

    def area(mu):
        t = a[live] * mu
        seg = np.where(t < 1e-4, t / 12.0, (t - np.sin(t)) / (8.0 * np.sin(0.5 * np.maximum(t, 1e-4)) ** 2))
        return float(np.sum(a[live] * r2[live] * seg))

    def length_sq(mu):
        t = a[live] * mu
        arc = np.where(t < 1e-4, 1.0, 0.5 * t / np.sin(0.5 * np.maximum(t, 1e-4)))
        return float(np.sum(r2[live] * arc**2))

    mu_end = 2.0 * math.pi / a_max
    if not np.any(live & (a == a_max)) and area(mu_end) <= abs(c):
        return math.sqrt(length_sq(mu_end) + 4.0 * math.pi * (abs(c) - area(mu_end)) / a_max)
    k = 1
    while area(mu_end * (1.0 - 0.5**k)) < abs(c):
        k += 1
    mu = brentq(lambda m: area(m) - abs(c), 0.0, mu_end * (1.0 - 0.5**k), xtol=1e-15)
    return math.sqrt(length_sq(mu))


def brute_force_distance(form, w, c, K, starts=6, seed=0):
    """Shortest K-gon found by SLSQP over the interior nodes from random starts."""
    rng = np.random.default_rng(seed)
    dim = form.dim

    def nodes(x):
        return np.vstack([np.zeros(dim), x.reshape(K - 1, dim), w])

    def length(x):
        return float(np.sum(np.linalg.norm(np.diff(nodes(x), axis=0), axis=1)))

    def area_gap(x):
        n = nodes(x)
        return 0.5 * np.einsum("kd,kd->", n[:-1] @ form.omega, n[1:]) - c

    scale = 1.0 + np.linalg.norm(w) + math.sqrt(abs(c))
    best = math.inf
    for _ in range(starts):
        res = minimize(
            length,
            rng.standard_normal((K - 1) * dim) * scale,
            method="SLSQP",
            constraints=[{"type": "eq", "fun": area_gap}],
            options={"ftol": 1e-14, "maxiter": 1000},
        )
        if res.success and abs(area_gap(res.x)) < 1e-9:
            best = min(best, length(res.x))
    return best


WEIGHTINGS = ((1.0,), (1.0, 2.5), (0.5, 1.0, 2.0), (1.0, 1.0), (2.0, 1.0, 2.0))

# Targets the earlier numerical polygon search landed far above (weights, w, c).
HARD_TARGETS = (
    ((0.5, 1.0, 2.0), (0.0,) * 6, 0.5),
    ((1.0,), (0.0, 0.0), 0.5),
    ((1.0,), (0.0, 0.0), -0.5),
    ((1.0,), (0.0, 0.0), 1.0),
    ((1.0,), (0.0, 0.0), -1.0),
    ((1.0,), (0.0, 0.0), 2.2),
    ((1.0,), (-0.575, -0.106), 0.606),
)


def random_targets(seed, count):
    """(weights, w, c) over every weighting; some targets leave the
    top-weight blocks or the whole horizontal part at zero."""
    rng = np.random.default_rng(seed)
    out = []
    for ws in WEIGHTINGS:
        for i in range(count):
            w = rng.standard_normal(2 * len(ws)) * rng.uniform(0.1, 2.0)
            if i % 4 == 1:
                for j in np.flatnonzero(np.asarray(ws) == max(ws)):
                    w[2 * j: 2 * j + 2] = 0.0
            if i % 4 == 2:
                w[:] = 0.0
            out.append((ws, w, float(rng.standard_normal() * 3.0)))
    return out


class TestClosedFormPolygon:
    @pytest.mark.parametrize("K", [8, 64])
    def test_estimate_within_polygon_gap_of_exact(self, K):
        for ws, w, c in HARD_TARGETS + tuple(random_targets(54, 8)):
            res = cc_distance(make_nonisotropic_form(ws), GroupElement(w, c), K=K)
            exact = gaveau_distance(ws, w, c)
            assert exact * (1.0 - 1e-12) <= res.estimate, (ws, w, c)
            assert res.estimate <= (1.0 + polygon_gap(K)) * exact * (1.0 + 1e-12), (ws, w, c)

    def test_vertical_target_found_in_the_strongest_plane(self):
        form = make_nonisotropic_form((0.5, 1.0, 2.0))
        res = cc_distance(form, GroupElement(np.zeros(6), 0.5), K=64)
        exact = 2.0 * math.sqrt(math.pi * 0.5 / 2.0)
        assert exact == pytest.approx(1.772, abs=1e-3)
        assert exact <= res.estimate <= (1.0 + polygon_gap(64)) * exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("K", [3, 4, 16, 64])
    def test_vertical_target_is_the_regular_polygon(self, K):
        for ws in WEIGHTINGS:
            form = make_nonisotropic_form(ws)
            for c in (0.5, -1.0, 7.25):
                res = cc_distance(form, GroupElement(np.zeros(form.dim), c), K=K)
                law = 2.0 * math.sqrt(K * math.tan(math.pi / K) * abs(c) / max(ws))
                assert res.estimate == pytest.approx(law, rel=1e-12, abs=0.0)

    def test_rotated_form_gives_the_block_form_estimate(self):
        rng = np.random.default_rng(55)
        for ws, w, c in random_targets(56, 4):
            block = make_nonisotropic_form(ws)
            Q, _ = np.linalg.qr(rng.standard_normal((block.dim, block.dim)))
            turned = Q @ block.omega @ Q.T
            rotated = SymplecticForm(0.5 * (turned - turned.T))
            # omega'(x, y) = omega(Q^T x, Q^T y): target Q w there is w here
            res = cc_distance(rotated, GroupElement(Q @ w, c), K=32)
            ref = cc_distance(block, GroupElement(w, c), K=32)
            assert res.estimate == pytest.approx(ref.estimate, rel=1e-9)
            assert abs(res.c_residual) <= 1e-12 * (1.0 + abs(c))
            assert np.array_equal(res.path.nodes[-1], Q @ w)

    @pytest.mark.parametrize("K", [2, 3])
    def test_few_segments_match_a_direct_search(self, K):
        rng = np.random.default_rng(57)
        for ws in ((1.0,), (1.0, 2.5)):
            form = make_nonisotropic_form(ws)
            for _ in range(2):
                w = rng.standard_normal(form.dim)
                c = float(rng.standard_normal() * 2.0)
                res = cc_distance(form, GroupElement(w, c), K=K)
                assert res.converged and res.path.segments == K
                searched = brute_force_distance(form, w, c, K)
                assert res.estimate == pytest.approx(searched, rel=1e-8)
                assert res.estimate >= gaveau_distance(ws, w, c) * (1.0 - 1e-12)

    def test_paths_end_at_the_target_with_rounding_residual(self):
        for K in (2, 3, 64):
            for ws, w, c in random_targets(58, 4):
                if K == 2 and not np.any(w):
                    continue  # a closed 2-gon sweeps no area
                form = make_nonisotropic_form(ws)
                res = cc_distance(form, GroupElement(w, c), K=K)
                lifted = lift(form, res.path)
                assert np.array_equal(lifted.nodes[-1], w)
                assert res.c_residual == float(lifted.vertical[-1]) - c
                assert abs(res.c_residual) <= 1e-12 * (1.0 + abs(c))
                assert res.estimate == res.path.length()

    def test_converged_follows_the_tolerance(self, iso1):
        assert C_TOL_REL == 1e-6
        for w, c, K in (([0.3, -0.2], 1.5, 16), ([0.0, 0.0], 1.0, 2), ([1.0, 0.0], -0.4, 2)):
            res = cc_distance(iso1, GroupElement(w, c), K=K)
            assert res.converged == (abs(res.c_residual) <= C_TOL_REL * (1.0 + abs(c)))
        # no closed 2-gon reaches (0, c): the residual says by how much
        res = cc_distance(iso1, GroupElement([0.0, 0.0], 1.0), K=2)
        assert not res.converged and res.c_residual == -1.0
