"""Endpoint sampling, moment identities, heat-equation and area-law checks."""

import math

import numpy as np
import pytest

from heislab import (
    PathConfig,
    SPACE_FULL,
    SPACE_REDUCED,
    endpoint_moments,
    heat_equation_report,
    levy_area_char_function,
    make_isotropic_form,
    make_nonisotropic_form,
    make_registry_function,
    sample_unit_endpoints,
    wrap_angle,
)
from heislab.diffusion import McEstimate


class TestValidation:
    def test_path_config(self):
        with pytest.raises(ValueError):
            PathConfig(t=0.0)
        with pytest.raises(ValueError):
            PathConfig(t=float("inf"))
        with pytest.raises(ValueError):
            PathConfig(steps=0)
        with pytest.raises(ValueError):
            PathConfig(base_seed=-1)

    def test_mc_estimate_needs_two_samples(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=0.0, m=1)

    def test_batch_inputs(self, iso1, iso2):
        with pytest.raises(ValueError):
            sample_unit_endpoints([iso1], steps=100, base_seed=1, m=0)
        with pytest.raises(ValueError):
            sample_unit_endpoints([iso1, iso2], steps=100, base_seed=1, m=4)
        for workers in (0, -1):
            with pytest.raises(ValueError):
                sample_unit_endpoints([iso1], steps=100, base_seed=1, m=4, workers=workers)
        for steps in (0, -3):
            with pytest.raises(ValueError, match="steps"):
                sample_unit_endpoints([iso1], steps=steps, base_seed=1, m=4)
        with pytest.raises(ValueError, match="forms"):
            sample_unit_endpoints([], steps=100, base_seed=1, m=4)

    def test_vertical_space_names(self, iso1):
        b = sample_unit_endpoints([iso1], steps=16, base_seed=3, m=4)[0]
        with pytest.raises(ValueError):
            b.vertical_at(1.0, "H")


class TestDeterminismAndStreams:
    def test_same_seed_is_bitwise_stable(self, iso1):
        a = sample_unit_endpoints([iso1], steps=64, base_seed=9, m=50)[0]
        b = sample_unit_endpoints([iso1], steps=64, base_seed=9, m=50)[0]
        assert np.array_equal(a.w_hat, b.w_hat)
        assert np.array_equal(a.c_hat, b.c_hat)

    def test_seed_changes_output(self, iso1):
        a = sample_unit_endpoints([iso1], steps=64, base_seed=9, m=50)[0]
        b = sample_unit_endpoints([iso1], steps=64, base_seed=10, m=50)[0]
        assert not np.array_equal(a.c_hat, b.c_hat)

    def test_per_sample_streams_are_prefix_stable(self, iso1):
        # enlarging m must not change the endpoints already drawn
        small = sample_unit_endpoints([iso1], steps=64, base_seed=9, m=20)[0]
        large = sample_unit_endpoints([iso1], steps=64, base_seed=9, m=100)[0]
        assert np.array_equal(small.w_hat, large.w_hat[:20])
        assert np.array_equal(small.c_hat, large.c_hat[:20])

    def test_single_path_matches_batch_row(self):
        # sample i is the walk driven by the Philox stream keyed (base_seed, i);
        # a step-by-step reference walk reproduces every row up to rounding
        form = make_nonisotropic_form((1.0, 3.0))
        steps, seed = 64, 11
        batch = sample_unit_endpoints([form], steps=steps, base_seed=seed, m=8)[0]
        for i in range(8):
            key = np.array([seed, i], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal((steps, 4))
            position, area = np.zeros(4), 0.0
            for dz in z:
                area += 0.5 * (position @ form.omega @ dz)
                position = position + dz
            assert np.allclose(batch.w_hat[i], position / math.sqrt(steps), rtol=1e-12, atol=0)
            assert batch.c_hat[i] == pytest.approx(area / steps, rel=1e-12, abs=1e-14)

    def test_worker_split_is_bitwise_equal(self, iso1):
        serial = sample_unit_endpoints([iso1], steps=32, base_seed=5, m=512, workers=1)[0]
        threaded = sample_unit_endpoints([iso1], steps=32, base_seed=5, m=512, workers=4)[0]
        assert np.array_equal(serial.w_hat, threaded.w_hat)
        assert np.array_equal(serial.c_hat, threaded.c_hat)

    def test_forms_share_draws(self, iso1):
        double = make_nonisotropic_form((2.0,))
        b_iso, b_dbl = sample_unit_endpoints([iso1, double], steps=64, base_seed=7, m=40)
        assert b_iso.w_hat is b_dbl.w_hat
        # the area is linear in the form, and scaling by 2 is exact
        assert np.array_equal(b_dbl.c_hat, 2.0 * b_iso.c_hat)
        alone = sample_unit_endpoints([iso1], steps=64, base_seed=7, m=40)[0]
        assert np.array_equal(alone.c_hat, b_iso.c_hat)


class TestRescaling:
    def test_endpoint_scaling_is_exact_for_dyadic_ratios(self, iso1):
        b = sample_unit_endpoints([iso1], steps=64, base_seed=13, m=30)[0]
        assert np.array_equal(b.w_at(4.0), 2.0 * b.w_at(1.0))
        assert np.array_equal(b.c_at(2.0), 4.0 * b.c_at(0.5))
        assert np.array_equal(b.w_at(1.0), b.w_hat)
        assert np.array_equal(b.theta_at(3.0), wrap_angle(b.c_at(3.0)))

    def test_vertical_at_dispatch(self, iso1):
        b = sample_unit_endpoints([iso1], steps=64, base_seed=13, m=30)[0]
        assert np.array_equal(b.vertical_at(1.5, SPACE_FULL), b.c_at(1.5))
        th = b.vertical_at(1.5, SPACE_REDUCED)
        assert np.array_equal(th, b.theta_at(1.5))
        assert np.all((th >= 0.0) & (th < 2.0 * math.pi))


class TestMomentIdentities:
    def test_horizontal_norm_and_area_variance(self, iso1, batch_iso1):
        for t in (0.5, 1.0, 2.0):
            mom = endpoint_moments(batch_iso1, t)
            assert mom["hnorm_sq_expected"] == 2.0 * t
            h = mom["hnorm_sq"]
            assert abs(h.mean - 2.0 * t) <= 3.0 * h.std_error
            c2 = mom["c_sq"]
            expected = (t * t / 8.0) * iso1.frobenius_sq() * (1.0 - 1.0 / 400)
            assert mom["c_sq_expected_discrete"] == pytest.approx(expected, rel=1e-15)
            assert abs(c2.mean - expected) <= 3.0 * c2.std_error

    def test_two_step_area_variance_closed_form(self, iso1):
        # with two increments the area is omega(Z1, Z2)/4, whose second
        # moment is 2/16 = 0.125 -- an independent check of the 1-1/N factor
        b = sample_unit_endpoints([iso1], steps=2, base_seed=17, m=40000)[0]
        mom = endpoint_moments(b, 1.0)
        assert mom["c_sq_expected_discrete"] == 0.125
        assert abs(mom["c_sq"].mean - 0.125) <= 3.0 * mom["c_sq"].std_error

    def test_moment_subset(self, batch_iso1):
        mom_all = endpoint_moments(batch_iso1, 1.0)
        mom_sub = endpoint_moments(batch_iso1, 1.0, m=5000)
        assert mom_sub["hnorm_sq"].m == 5000
        assert mom_all["hnorm_sq"].m == batch_iso1.m


class TestHeatEquation:
    def test_delta_t_validation(self, iso1, batch_iso1):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        f = make_registry_function("poly_radial", 2)
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                heat_equation_report(iso1, cfg, f, m=100, delta_t=bad, batch=batch_iso1)

    @pytest.mark.parametrize("selector", ["poly_radial", "vertical_sq", "gauss_bump(1.0)"])
    def test_residual_within_noise(self, iso1, batch_iso1, selector):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        f = make_registry_function(selector, 2)
        rep = heat_equation_report(iso1, cfg, f, m=batch_iso1.m, delta_t=0.05, batch=batch_iso1)
        # 3 SE of the correlated difference plus an O(delta_t^2) truncation pad
        assert rep.residual <= 3.0 * rep.std_error + 0.01
        assert rep.residual == pytest.approx(
            abs(rep.ddt.mean - rep.half_generator.mean), rel=1e-9, abs=1e-12
        )

    def test_batch_from_another_form_is_rejected(self, iso1, batch_iso1):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        other = make_nonisotropic_form((3.0,))
        f = make_registry_function("vertical_sq", 2)
        with pytest.raises(ValueError, match="different form"):
            heat_equation_report(other, cfg, f, m=100, delta_t=0.05, batch=batch_iso1)
        with pytest.raises(ValueError, match="different form"):
            levy_area_char_function(other, cfg, m=100, lambdas=(1.0,), batch=batch_iso1)

    def test_non_integrable_observable_raises(self, iso1):
        # no batch given: the report samples its own, then rejects the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            f = make_registry_function("exp_linear(1000)", 2)
            cfg = PathConfig(t=1.0, steps=16, base_seed=42)
            with pytest.raises(RuntimeError):
                heat_equation_report(iso1, cfg, f, m=200, delta_t=0.05)

    def test_coarse_difference_breaks_for_curved_profile(self, iso1, batch_iso1):
        # gauss_bump has genuine curvature in t; a huge delta_t must show it
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        f = make_registry_function("gauss_bump(1.0)", 2)
        rep = heat_equation_report(iso1, cfg, f, m=batch_iso1.m, delta_t=0.95, batch=batch_iso1)
        assert rep.residual > 10.0 * rep.std_error


class TestAreaCharFunction:
    def test_matches_sech_law(self, iso1, batch_iso1):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        pts = levy_area_char_function(iso1, cfg, m=batch_iso1.m,
                                      lambdas=(0.0, 0.5, 1.0, 2.0), batch=batch_iso1)
        assert pts[0].lam == 0.0 and pts[0].cos_mean == 1.0 and pts[0].cos_se == 0.0
        for p in pts[1:]:
            ref = 1.0 / math.cosh(0.5 * p.lam)  # continuum law at t = 1, n = 1
            allowance = (p.lam ** 2) * iso1.frobenius_sq() / (16.0 * 400)
            assert abs(p.cos_mean - ref) <= 3.0 * p.cos_se + allowance
            assert abs(p.sin_mean) <= 3.0 * p.sin_se + 1e-12

    def test_small_lambda_curvature_gives_area_variance(self, iso1, batch_iso1):
        # (1 - E cos(lam c)) / (lam^2/2) -> E[c^2] = t^2/4 as lam -> 0
        lam = 0.05
        (p,) = levy_area_char_function(iso1, PathConfig(t=1.0, steps=400, base_seed=42),
                                       m=batch_iso1.m, lambdas=(lam,), batch=batch_iso1)
        curvature = (1.0 - p.cos_mean) / (0.5 * lam * lam)
        tol = 3.0 * p.cos_se / (0.5 * lam * lam) + 1.0 / 400 + 1e-3
        assert abs(curvature - 0.25) <= tol
