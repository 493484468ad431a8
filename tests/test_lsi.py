"""Entropy/energy functionals, the ratio verdicts, grid scans, and the
reduced-vs-lifted consistency report."""

import math

import numpy as np
import pytest

from heislab import (
    ASCENDING_WEIGHTS_FAMILY,
    DEFAULT_C_REF,
    ISOTROPIC_FAMILY,
    PathConfig,
    SPACE_REDUCED,
    compose_with_quotient,
    family_from_name,
    make_nonisotropic_form,
    lsi_ratio,
    lsi_scan,
    make_isotropic_form,
    make_registry_function,
    multiply_functions,
    quotient_invariance_report,
    sample_unit_endpoints,
)
from heislab.lsi import STATUS_ERROR, STATUS_OK, STATUS_UNDEFINED

from helpers import constant_function, linear_coordinate, zero_function

CFG = PathConfig(t=1.0, steps=400, base_seed=42)


class TestClosedForm:
    """f = exp(lambda * w_1): both sides are explicit Gaussian integrals.

    Ent(f^2) = 2 lambda^2 t exp(2 lambda^2 t), E|grad f|^2 = lambda^2
    exp(2 lambda^2 t), so the ratio is exactly 2t at every lambda -- the
    equality case used to pin estimator correctness.
    """

    LAM = 0.5

    def _refs(self, t):
        s = 2.0 * self.LAM * self.LAM * t
        return s * math.exp(s), self.LAM * self.LAM * math.exp(s)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_entropy_and_energy(self, iso1, batch_iso1, t):
        f = make_registry_function(f"exp_linear({self.LAM})", 2)
        cfg = PathConfig(t=t, steps=400, base_seed=42)
        ent_ref, en_ref = self._refs(t)
        rep = lsi_ratio(iso1, cfg, f, m=batch_iso1.m, batch=batch_iso1)
        assert abs(rep.entropy - ent_ref) <= 3.0 * rep.entropy_se
        assert abs(rep.energy - en_ref) <= 3.0 * rep.energy_se
        assert rep.entropy_se > 0.0 and rep.energy_se > 0.0

    def test_ratio_is_twice_t(self, iso1, batch_iso1):
        f = make_registry_function("exp_linear(0.5)", 2)
        rep = lsi_ratio(iso1, CFG, f, m=batch_iso1.m, batch=batch_iso1)
        assert rep.status == STATUS_OK
        assert abs(rep.ratio - 2.0) <= 3.0 * rep.ratio_se
        assert rep.bound == DEFAULT_C_REF * 1.0
        assert rep.passed is True
        assert rep.space == "G" and rep.base_seed == 42
        row = rep.row()
        assert row["form"] == "custom" and row["f"] == "exp_linear(0.5)"
        assert row["pass"] is True and row["ratio"] == rep.ratio

    def test_ratio_independent_of_dimension(self):
        iso4 = make_isotropic_form(4)
        b = sample_unit_endpoints([iso4], steps=200, base_seed=7, m=8000)[0]
        f = make_registry_function("exp_linear(0.5)", 8)
        cfg = PathConfig(t=2.0, steps=200, base_seed=7)
        rep = lsi_ratio(iso4, cfg, f, m=8000, batch=b)
        assert abs(rep.ratio - 4.0) <= 3.0 * rep.ratio_se

    def test_failing_verdict_with_tight_reference(self, iso1, batch_iso1):
        f = make_registry_function("exp_linear(0.5)", 2)
        rep = lsi_ratio(iso1, CFG, f, m=batch_iso1.m, batch=batch_iso1, c_ref=1.0)
        assert rep.status == STATUS_OK and rep.passed is False
        assert rep.bound == 1.0


class TestDegenerateInputs:
    def test_zero_function_has_no_ratio(self, iso1, batch_iso1):
        rep = lsi_ratio(iso1, CFG, zero_function(2), m=1000, batch=batch_iso1)
        assert rep.entropy == 0.0 and rep.energy == 0.0
        assert rep.status == STATUS_UNDEFINED and rep.ratio is None

    def test_constant_has_no_entropy_and_no_energy(self, iso1, batch_iso1):
        rep = lsi_ratio(iso1, CFG, constant_function(2, 3.5), m=1000, batch=batch_iso1)
        assert abs(rep.entropy) <= 1e-12 and rep.entropy_se <= 1e-12
        assert rep.energy == 0.0 and rep.energy_se == 0.0

    def test_ratio_undefined_when_energy_is_noise(self, iso1, batch_iso1):
        rep = lsi_ratio(iso1, CFG, constant_function(2, 3.5), m=1000, batch=batch_iso1)
        assert rep.status == STATUS_UNDEFINED
        assert rep.ratio is None and rep.ratio_se is None and rep.passed is None
        assert "noise floor" in rep.message
        assert rep.row()["ratio"] is None

    def test_m_and_batch_validation(self, iso1, batch_iso1):
        f = make_registry_function("poly_radial", 2)
        with pytest.raises(ValueError):
            lsi_ratio(iso1, CFG, f, m=1, batch=batch_iso1)
        with pytest.raises(ValueError):
            lsi_ratio(iso1, CFG, f, m=batch_iso1.m + 1, batch=batch_iso1)
        with pytest.raises(ValueError, match="different form"):
            lsi_ratio(make_nonisotropic_form((3.0,)), CFG, f, m=100, batch=batch_iso1)
        with pytest.raises(ValueError):
            lsi_ratio(iso1, CFG, make_registry_function("vertical_sq", 2),
                      m=100, space=SPACE_REDUCED, batch=batch_iso1)

    @pytest.mark.parametrize("selector", ["cos_theta", "vertical_sq"])
    def test_unknown_space_is_rejected(self, iso1, batch_iso1, selector):
        f = make_registry_function(selector, 2)
        with pytest.raises(ValueError, match="unknown space 'H'"):
            lsi_ratio(iso1, CFG, f, m=100, space="H", batch=batch_iso1)


class TestScaleInvariance:
    @pytest.mark.parametrize("alpha", [1e-3, 1e3])
    def test_ratio_ignores_function_scale(self, iso1, batch_iso1, alpha):
        f = make_registry_function("exp_linear(0.5)", 2)
        scaled = multiply_functions(constant_function(2, alpha), f)
        a = lsi_ratio(iso1, CFG, f, m=5000, batch=batch_iso1)
        b = lsi_ratio(iso1, CFG, scaled, m=5000, batch=batch_iso1)
        # the two sides both scale by alpha^2; the ratio agrees to rounding
        assert b.ratio == pytest.approx(a.ratio, rel=1e-10)

    def test_energy_scales_quadratically(self, iso1, batch_iso1):
        f = linear_coordinate(2)
        scaled = multiply_functions(constant_function(2, 2.0), f)
        a = lsi_ratio(iso1, CFG, f, m=2000, batch=batch_iso1)
        b = lsi_ratio(iso1, CFG, scaled, m=2000, batch=batch_iso1)
        assert b.energy == 4.0 * a.energy

    def test_unit_linear_energy_is_exact(self, iso1, batch_iso1):
        # |grad w_1|^2 = 1 on every sample: mean exactly 1, no spread
        rep = lsi_ratio(iso1, CFG, linear_coordinate(2), m=3000, batch=batch_iso1)
        assert rep.energy == 1.0 and rep.energy_se == 0.0


class TestFamilies:
    def test_lookup(self):
        assert family_from_name("isotropic") is ISOTROPIC_FAMILY
        assert family_from_name("ascending_weights") is ASCENDING_WEIGHTS_FAMILY
        with pytest.raises(ValueError):
            family_from_name("diagonal")

    def test_ascending_weights_layout(self):
        form = ASCENDING_WEIGHTS_FAMILY.form(3)
        assert form.n == 3
        assert form.omega[0, 1] == 2.0 and form.omega[2, 3] == 3.0 and form.omega[4, 5] == 4.0
        assert ISOTROPIC_FAMILY.form(2).frobenius_sq() == 4.0


def _cells(scan, **match):
    return [r for r in scan if all(getattr(r, k) == v for k, v in match.items())]


@pytest.fixture(scope="module")
def scan():
    return lsi_scan(
        [ISOTROPIC_FAMILY, ASCENDING_WEIGHTS_FAMILY],
        dims=(1, 2),
        t_list=(0.5, 1.0),
        f_registry=("poly_radial", "exp_linear(0.5)"),
        m=2000,
        steps=100,
        base_seed=42,
    )


class TestScan:
    def test_grid_shape_and_order(self, scan):
        assert len(scan) == 2 * 2 * 2 * 2
        first = scan[0]
        assert (first.form_name, first.f_name, first.n, first.t) == (
            "isotropic", "poly_radial", 1, 0.5)
        names = {r.form_name for r in scan}
        assert names == {"isotropic", "ascending_weights"}
        assert isinstance(scan, tuple)
        assert len(_cells(scan, n=1, form_name="isotropic")) == 4
        assert not _cells(scan, passed=False) and scan.all_pass

    def test_common_draws_across_families(self, scan):
        # poly_radial ignores the vertical coordinate and its gradient does
        # not involve the form, so cells differing only in family coincide
        for n in (1, 2):
            for t in (0.5, 1.0):
                a, = _cells(scan, n=n, t=t, form_name="isotropic", f_name="poly_radial")
                b, = _cells(scan, n=n, t=t, form_name="ascending_weights", f_name="poly_radial")
                assert a.entropy == b.entropy and a.energy == b.energy

    def test_scan_matches_standalone_call(self, scan):
        iso1 = make_isotropic_form(1)
        batch = sample_unit_endpoints([iso1], steps=100, base_seed=42, m=2000)[0]
        f = make_registry_function("exp_linear(0.5)", 2)
        cfg = PathConfig(t=1.0, steps=100, base_seed=42)
        rep = lsi_ratio(iso1, cfg, f, m=2000, batch=batch, form_name="isotropic")
        cell, = _cells(scan, n=1, t=1.0, form_name="isotropic", f_name="exp_linear(0.5)")
        assert cell.entropy == rep.entropy and cell.energy == rep.energy
        assert cell.ratio == rep.ratio and cell.ratio_se == rep.ratio_se

    def test_max_summaries(self, scan):
        by_dim = scan.max_ratio_by_dim(1.0)
        assert set(by_dim) == {1, 2}
        for n, cell in by_dim.items():
            ratios = [r.ratio for r in _cells(scan, n=n, t=1.0) if r.ratio is not None]
            assert cell.ratio == max(ratios)
        by_f = scan.max_ratio_by_function(1.0)
        assert set(by_f) == {"poly_radial", "exp_linear(0.5)"}
        for name, cell in by_f.items():
            ratios = [r.ratio for r in _cells(scan, f_name=name, t=1.0) if r.ratio is not None]
            assert cell.ratio == max(ratios)

    def test_error_cells_do_not_abort(self):
        with np.errstate(over="ignore", invalid="ignore"):
            scan = lsi_scan(
                [ISOTROPIC_FAMILY],
                dims=(1,),
                t_list=(1.0,),
                f_registry=("poly_radial", "exp_linear(1000)"),
                m=500,
                steps=50,
                base_seed=42,
            )
        ok, bad = scan[0], scan[1]
        assert ok.status == STATUS_OK
        assert bad.status == STATUS_ERROR
        assert bad.f_name == "exp_linear(1000)" and bad.message
        assert math.isnan(bad.entropy) and bad.ratio is None and bad.passed is None
        assert scan.all_pass  # error cells carry no verdict
        assert scan.max_ratio_by_dim(1.0)[1].f_name == "poly_radial"

    def test_empty_family_list_rejected(self):
        with pytest.raises(ValueError):
            lsi_scan([], dims=(1,), t_list=(1.0,), f_registry=("poly_radial",), m=10)


class TestQuotientInvariance:
    def test_periodic_function_is_bitwise_invariant(self, iso1, batch_iso1):
        f = make_registry_function("cos_theta", 2)
        rep = quotient_invariance_report(iso1, CFG, f, m=4000, batch=batch_iso1)
        assert rep.values_bitwise_equal and rep.grads_bitwise_equal
        assert rep.value_max_abs_diff == 0.0 and rep.grad_sq_max_abs_diff == 0.0
        assert rep.mean_reduced == rep.mean_lifted
        assert rep.l2_reduced == rep.l2_lifted
        assert rep.entropy_reduced == rep.entropy_lifted
        assert rep.energy_reduced == rep.energy_lifted
        assert rep.bitwise_equal

    def test_reduced_entropy_equals_lifted_entropy(self, iso1, batch_iso1):
        f = make_registry_function("cos_theta", 2)
        lifted = compose_with_quotient(f)
        er = lsi_ratio(iso1, CFG, f, m=3000, space=SPACE_REDUCED, batch=batch_iso1)
        el = lsi_ratio(iso1, CFG, lifted, m=3000, batch=batch_iso1)
        assert er.entropy == el.entropy and er.entropy_se == el.entropy_se

    def test_requires_periodic_function(self, iso1, batch_iso1):
        with pytest.raises(ValueError):
            quotient_invariance_report(
                iso1, CFG, make_registry_function("vertical_sq", 2),
                m=100, batch=batch_iso1)

    def test_batch_size_guard(self, iso1, batch_iso1):
        f = make_registry_function("cos_theta", 2)
        with pytest.raises(ValueError):
            quotient_invariance_report(iso1, CFG, f, m=batch_iso1.m + 1, batch=batch_iso1)

    def test_small_time_collapses_to_value_at_identity(self, iso1):
        f = make_registry_function("exp_linear(0.5)", 2)
        t = 1e-4
        cfg = PathConfig(t=t, steps=50, base_seed=21)
        rep = quotient_invariance_report(iso1, cfg, f, m=4000)
        # without a batch the report samples the same endpoints a caller would
        batch = sample_unit_endpoints([iso1], steps=50, base_seed=21, m=4000)[0]
        assert rep == quotient_invariance_report(iso1, cfg, f, m=4000, batch=batch)
        # E[f] -> f(identity) = 1 with O(t) defect
        se = math.sqrt(max(rep.l2_reduced - rep.mean_reduced ** 2, 0.0) / rep.m)
        assert abs(rep.mean_reduced - 1.0) <= 3.0 * se + 2.0 * t
