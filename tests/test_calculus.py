"""Left-invariant calculus: derivatives, gradients, the generator, combinators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from heislab import (
    CylinderFunction,
    GroupElement,
    LieVector,
    PathConfig,
    Projection,
    ReducedElement,
    REGISTRY_DEFAULT_SELECTION,
    SPACE_FULL,
    SPACE_REDUCED,
    SymplecticForm,
    compose_with_quotient,
    grad_norm_sq,
    heat_equation_report,
    horizontal_gradient,
    left_invariant_derivative,
    lsi_ratio,
    make_isotropic_form,
    make_nonisotropic_form,
    make_registry_function,
    multiply,
    multiply_functions,
    quotient,
    quotient_invariance_report,
    registry_names,
    sample_unit_endpoints,
    sub_laplacian,
)
from heislab import diffusion, lsi
from heislab.calculus import grad_norm_sq_batch, sub_laplacian_batch, value_batch

from helpers import densified, exact_skew, random_orthogonal, rotated_function


def _point(rng, dim, c_scale=3.0):
    return GroupElement(rng.standard_normal(dim), c_scale * rng.standard_normal())


def _shifted(form, g, X, h):
    """The curve point g * exp(h X), evaluated through the group law; exp is
    the identity on coordinates in a step-2 group."""
    return multiply(form, g, GroupElement(h * X.A, h * X.a))


# the default registry plus one function built by each combinator
ORACLE_FUNCTIONS = {
    **{
        sel: (lambda dim, sel=sel: make_registry_function(sel, dim))
        for sel in REGISTRY_DEFAULT_SELECTION
    },
    "poly_radial*gauss_bump(1.0)": lambda dim: multiply_functions(
        make_registry_function("poly_radial", dim), make_registry_function("gauss_bump(1.0)", dim)
    ),
    "cos_theta_lifted": lambda dim: compose_with_quotient(make_registry_function("cos_theta", dim)),
}


class TestRegistry:
    def test_names(self):
        assert registry_names() == (
            "cos_theta",
            "exp_linear",
            "gauss_bump",
            "poly_radial",
            "vertical_sq",
        )

    def test_default_selection_builds_everywhere(self):
        assert len(REGISTRY_DEFAULT_SELECTION) == 5
        for dim in (2, 8):
            for sel in REGISTRY_DEFAULT_SELECTION:
                f = make_registry_function(sel, dim)
                assert int(f.projection.zero_based.max()) < dim

    def test_parameter_formatting(self):
        assert make_registry_function("gauss_bump(1.0)", 2).name == "gauss_bump(1)"
        assert make_registry_function("exp_linear(0.5)", 2).name == "exp_linear(0.5)"
        assert make_registry_function("exp_linear", 2).name == "exp_linear(0.5)"

    @pytest.mark.parametrize(
        "selector",
        [
            "nope", "exp_linear(", "exp_linear(a)", "cos_theta(1)", "gauss_bump(1,2)",
            "gauss_bump(inf)", "gauss_bump(nan)", "exp_linear(inf)", "exp_linear(nan)",
            # sigma**4 underflows to 0 / overflows to inf
            "gauss_bump(1e-170)", "gauss_bump(1e200)",
        ],
    )
    def test_bad_selectors(self, selector):
        with pytest.raises(ValueError):
            make_registry_function(selector, 2)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            make_registry_function("poly_radial", 3)
        with pytest.raises(ValueError):
            make_registry_function("poly_radial", 0)

    def test_gauss_bump_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            make_registry_function("gauss_bump(0)", 2)

    def test_periodicity_flags(self):
        assert make_registry_function("poly_radial", 2).periodic
        assert make_registry_function("cos_theta", 2).periodic
        assert make_registry_function("exp_linear(0.5)", 2).periodic
        assert not make_registry_function("vertical_sq", 2).periodic
        assert not make_registry_function("gauss_bump(1.0)", 2).periodic


class TestExactValues:
    def test_poly_radial(self, iso1):
        f = make_registry_function("poly_radial", 2)
        g = GroupElement([1.0, 2.0], -3.0)
        assert float(f.value(g.w, g.c)) == 5.0
        # L_H |w|^2 = 2 * dim exactly, independent of the base point
        assert sub_laplacian(iso1, f, g) == 2.0 * iso1.dim

    def test_vertical_sq_generator(self, iso1):
        f = make_registry_function("vertical_sq", 2)
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = _point(rng, 2)
            u = iso1.pair_with_basis(g.w)
            expected = 0.5 * float(u @ u)
            assert sub_laplacian(iso1, f, g) == pytest.approx(expected, rel=1e-14)

    def test_exp_linear_generator(self, iso1):
        lam = 0.5
        f = make_registry_function(f"exp_linear({lam})", 2)
        g = GroupElement([0.7, -0.2], 1.0)
        assert sub_laplacian(iso1, f, g) == pytest.approx(
            lam * lam * math.exp(lam * 0.7), rel=1e-14
        )

    def test_cos_theta_gradient_is_pure_coupling(self, iso2):
        f = make_registry_function("cos_theta", 4)
        rng = np.random.default_rng(32)
        g = _point(rng, 4)
        grad = horizontal_gradient(iso2, f, g)
        assert grad.shape == (4,)
        expected = -0.5 * math.sin(g.c) * iso2.pair_with_basis(g.w)
        assert np.allclose(grad, expected, rtol=1e-14, atol=1e-15)

    def test_gradient_has_full_length_despite_sub_projection(self, iso2):
        # the function reads only (w1, w2) but couples to all four directions
        f = make_registry_function("cos_theta", 4)
        g = GroupElement([0.0, 0.0, 1.0, 2.0], 0.5)
        grad = horizontal_gradient(iso2, f, g)
        assert grad.shape == (4,)
        assert np.any(grad[2:] != 0.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("selector", list(REGISTRY_DEFAULT_SELECTION))
    def test_first_derivative_matches_curve_difference(self, iso2, selector):
        f = make_registry_function(selector, 4)
        rng = np.random.default_rng(33)
        h = 1e-5
        for _ in range(10):
            g = _point(rng, 4, c_scale=1.0)
            X = LieVector(rng.standard_normal(4), rng.standard_normal())
            exact = left_invariant_derivative(iso2, f, X, g)
            up = _shifted(iso2, g, X, h)
            dn = _shifted(iso2, g, X, -h)
            ix = f.projection.zero_based
            numeric = (
                float(f.value(up.w[ix], up.c)) - float(f.value(dn.w[ix], dn.c))
            ) / (2.0 * h)
            assert exact == pytest.approx(numeric, rel=1e-6, abs=1e-7)

    @pytest.mark.parametrize("case", list(ORACLE_FUNCTIONS))
    def test_second_derivative_matches_curve_difference(self, iso2, case):
        # the sub-Laplacian L_H = sum_j X~_j^2, each squared field a second
        # difference of f.value along the curve g * exp(h e_j)
        f = ORACLE_FUNCTIONS[case](4)
        ix = f.projection.zero_based
        rng = np.random.default_rng(34)
        h = 1e-4
        for _ in range(10):
            g = _point(rng, 4, c_scale=1.0)
            numeric = 0.0
            for e in np.eye(4):
                up = _shifted(iso2, g, LieVector(e, 0.0), h)
                dn = _shifted(iso2, g, LieVector(e, 0.0), -h)
                numeric += (
                    float(f.value(up.w[ix], up.c))
                    - 2.0 * float(f.value(g.w[ix], g.c))
                    + float(f.value(dn.w[ix], dn.c))
                ) / (h * h)
            assert sub_laplacian(iso2, f, g) == pytest.approx(numeric, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("case", list(ORACLE_FUNCTIONS))
    def test_second_partials_by_differences(self, case):
        # a vanishing partial is read as its zeros, which the differences check too
        f = densified(ORACLE_FUNCTIONS[case](4))
        rng = np.random.default_rng(36)
        h = 1e-5
        for _ in range(10):
            wp = rng.standard_normal(f.projection.size)
            v = float(rng.standard_normal())
            lap, hwc, hcc = f.second_derivs(wp, v)
            numeric_lap = 0.0
            for i, e in enumerate(h * np.eye(wp.size)):
                up, dn = f.first_derivs(wp + e, v)[0], f.first_derivs(wp - e, v)[0]
                numeric_lap += (up[i] - dn[i]) / (2.0 * h)
            gw_up, gv_up = f.first_derivs(wp, v + h)
            gw_dn, gv_dn = f.first_derivs(wp, v - h)
            assert float(lap) == pytest.approx(numeric_lap, rel=1e-4, abs=1e-4)
            assert hwc == pytest.approx((gw_up - gw_dn) / (2.0 * h), rel=1e-4, abs=1e-4)
            assert float(hcc) == pytest.approx((gv_up - gv_dn) / (2.0 * h), rel=1e-4, abs=1e-4)

    def test_gradient_entries_are_basis_derivatives(self, iso2):
        f = make_registry_function("gauss_bump(1.0)", 4)
        rng = np.random.default_rng(35)
        g = _point(rng, 4)
        grad = horizontal_gradient(iso2, f, g)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            d = left_invariant_derivative(iso2, f, LieVector(e, 0.0), g)
            assert grad[j] == pytest.approx(d, rel=1e-13, abs=1e-15)

    def test_grad_norm_sq_definition(self, iso2):
        f = make_registry_function("cos_theta", 4)
        rng = np.random.default_rng(37)
        g = _point(rng, 4)
        grad = horizontal_gradient(iso2, f, g)
        assert grad_norm_sq(iso2, f, g) == pytest.approx(float(grad @ grad), rel=1e-14)


class TestBatchedEvaluation:
    @pytest.mark.parametrize("selector", list(REGISTRY_DEFAULT_SELECTION))
    def test_batched_matches_pointwise(self, iso2, selector):
        f = make_registry_function(selector, 4)
        rng = np.random.default_rng(40)
        w = rng.standard_normal((20, 4))
        v = rng.standard_normal(20)
        vals = value_batch(f, w, v)
        gsq = grad_norm_sq_batch(iso2, f, w, v)
        lap = sub_laplacian_batch(iso2, f, w, v)
        for i in range(20):
            g = GroupElement(w[i], v[i])
            ix = f.projection.zero_based
            assert vals[i] == pytest.approx(float(f.value(w[i][ix], v[i])), rel=1e-14)
            assert gsq[i] == pytest.approx(grad_norm_sq(iso2, f, g), rel=1e-12, abs=1e-15)
            assert lap[i] == pytest.approx(sub_laplacian(iso2, f, g), rel=1e-12, abs=1e-14)

    @staticmethod
    def _cloud(n, rows=50):
        rng = np.random.default_rng(43)
        form = make_nonisotropic_form(tuple(range(1, n + 1)))
        return form, rng.standard_normal((rows, 2 * n)), rng.standard_normal(rows)

    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("selector", ["poly_radial", "gauss_bump(1.0)"])
    def test_full_projection_has_no_complement_term(self, selector, n):
        # u_P is all of u = w Omega, so the complement term is exactly zero
        form, w, v = self._cloud(n)
        f = make_registry_function(selector, 2 * n)
        gw, gv = densified(f).first_derivs(w, v)
        inner = gw + 0.5 * gv[:, None] * (w @ form.omega)
        want = np.einsum("ij,ij->i", inner, inner)
        assert np.array_equal(grad_norm_sq_batch(form, f, w, v), want)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("selector", ["exp_linear(0.5)", "cos_theta"])
    def test_partial_projection_matches_pointwise(self, selector, n):
        form, w, v = self._cloud(n)
        f = make_registry_function(selector, 2 * n)
        assert f.projection.size < 2 * n
        want = [grad_norm_sq(form, f, GroupElement(wi, vi)) for wi, vi in zip(w, v)]
        np.testing.assert_allclose(grad_norm_sq_batch(form, f, w, v), want, rtol=1e-12, atol=0)


class TestBasisInvariance:
    @pytest.mark.parametrize("selector", ["poly_radial", "gauss_bump(1.0)"])
    def test_gradient_norm_and_generator_are_basis_free(self, iso2, selector):
        f = make_registry_function(selector, 4)
        rng = np.random.default_rng(41)
        for _ in range(5):
            R = random_orthogonal(rng, 4)
            form_rot = SymplecticForm(exact_skew(R.T @ iso2.omega @ R))
            f_rot = rotated_function(f, R)
            for _ in range(10):
                g = _point(rng, 4)
                g_rot = GroupElement(R.T @ g.w, g.c)
                a = grad_norm_sq(iso2, f, g)
                b = grad_norm_sq(form_rot, f_rot, g_rot)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a))
                la = sub_laplacian(iso2, f, g)
                lb = sub_laplacian(form_rot, f_rot, g_rot)
                assert abs(la - lb) <= 1e-8 * (1.0 + abs(la))


class TestCombinators:
    def test_product_rule(self, iso2):
        f1 = make_registry_function("poly_radial", 4)
        f2 = make_registry_function("gauss_bump(1.0)", 4)
        prod = multiply_functions(f1, f2)
        assert prod.name == "poly_radial*gauss_bump(1)"
        rng = np.random.default_rng(42)
        for _ in range(30):
            g = _point(rng, 4)
            ix = prod.projection.zero_based
            lhs = sub_laplacian(iso2, prod, g)
            v1, v2 = float(f1.value(g.w[ix], g.c)), float(f2.value(g.w[ix], g.c))
            g1 = horizontal_gradient(iso2, f1, g)
            g2 = horizontal_gradient(iso2, f2, g)
            rhs = (
                v1 * sub_laplacian(iso2, f2, g)
                + v2 * sub_laplacian(iso2, f1, g)
                + 2.0 * float(g1 @ g2)
            )
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_product_value_and_gradient(self, iso1):
        f1 = make_registry_function("exp_linear(0.5)", 2)
        f2 = make_registry_function("cos_theta", 2)
        prod = multiply_functions(f1, f2)
        g = GroupElement([0.4, -1.1], 0.9)
        assert float(prod.value(g.w, g.c)) == pytest.approx(
            math.exp(0.2) * math.cos(0.9), rel=1e-14
        )
        grad = horizontal_gradient(iso1, prod, g)
        expected = math.cos(0.9) * horizontal_gradient(
            iso1, f1, g
        ) + math.exp(0.2) * horizontal_gradient(iso1, f2, g)
        assert np.allclose(grad, expected, rtol=1e-12, atol=1e-14)

    def test_product_requires_matching_projections(self):
        f1 = make_registry_function("poly_radial", 4)
        f2 = make_registry_function("cos_theta", 4)
        with pytest.raises(ValueError):
            multiply_functions(f1, f2)


class TestVanishingPartials:
    """The registry returns None for a partial that vanishes identically, and
    the reports' kernels skip its terms: they keep every bit of a twin that
    returns arrays of zeros, and form the pairing w Omega only for a vertical
    partial."""

    @pytest.fixture(scope="class", params=[1, 4, 8], ids=lambda n: f"n{n}")
    def cloud(self, request):
        n = request.param
        form = make_nonisotropic_form(tuple(range(1, n + 1)))
        return form, sample_unit_endpoints([form], None, 29, 300)[0]

    @staticmethod
    def _run_reports(form, b, f):
        """The heat report on G, the LSI report on G and, for a periodic f,
        on G~, and the quotient report of G~ against G."""
        cfg = PathConfig(t=1.3, base_seed=29)
        heat_equation_report(form, cfg, f, b.m, batch=b)
        for space in (SPACE_FULL, SPACE_REDUCED) if f.periodic else (SPACE_FULL,):
            lsi_ratio(form, cfg, f, b.m, space=space, batch=b)
        if f.periodic:
            quotient_invariance_report(form, cfg, f, b.m, batch=b)

    @pytest.mark.parametrize("selector", REGISTRY_DEFAULT_SELECTION)
    def test_dense_zeros_give_the_same_bits(self, monkeypatch, cloud, selector):
        form, b = cloud
        f = make_registry_function(selector, form.dim)
        real, outputs = diffusion._per_sample, []

        def spy(*args):
            outs = real(*args)
            outputs.append([x.tobytes() for x in outs])
            return outs

        monkeypatch.setattr(diffusion, "_per_sample", spy)
        monkeypatch.setattr(lsi, "_per_sample", spy)
        self._run_reports(form, b, f)
        got, outputs[:] = outputs[:], []
        self._run_reports(form, b, densified(f))
        # heat: 3 vectors; each LSI space: 2; quotient: 4
        assert len(got) == (4 if f.periodic else 2)
        assert sum(map(len, got)) == (11 if f.periodic else 5)
        assert got == outputs

    @staticmethod
    def _count_pairings(monkeypatch):
        """A list that gets the row count of every `pair_with_basis` call."""
        rows, real = [], SymplecticForm.pair_with_basis

        def counted(self, w):
            rows.append(np.shape(w)[0])
            return real(self, w)

        monkeypatch.setattr(SymplecticForm, "pair_with_basis", counted)
        return rows

    @pytest.mark.parametrize("selector", ["poly_radial", "exp_linear(0.5)"])
    def test_no_pairing_without_a_vertical_partial(self, monkeypatch, cloud, selector):
        form, b = cloud
        f = make_registry_function(selector, form.dim)
        assert f.first_derivs(np.zeros((2, f.projection.size)), np.zeros(2))[1] is None
        rows = self._count_pairings(monkeypatch)
        self._run_reports(form, b, f)
        assert rows == []

    def test_each_row_is_paired_once_per_report(self, monkeypatch, cloud):
        # cos_theta: the generator reads d2F/dc2 and the gradient dF/dc, and
        # the quotient report shares one pairing between f and its lift
        form, b = cloud
        f = make_registry_function("cos_theta", form.dim)
        cfg = PathConfig(t=1.3, base_seed=29)
        rows = self._count_pairings(monkeypatch)
        for report in (
            lambda: heat_equation_report(form, cfg, f, b.m, batch=b),
            lambda: lsi_ratio(form, cfg, f, b.m, space=SPACE_FULL, batch=b),
            lambda: lsi_ratio(form, cfg, f, b.m, space=SPACE_REDUCED, batch=b),
            lambda: quotient_invariance_report(form, cfg, f, b.m, batch=b),
        ):
            rows.clear()
            report()
            assert sum(rows) == b.m


class TestQuotientComposition:
    def test_rejects_aperiodic(self):
        for sel in ("vertical_sq", "gauss_bump(1.0)"):
            with pytest.raises(ValueError):
                compose_with_quotient(make_registry_function(sel, 2))

    def test_periodicity_probe_rejects_lies(self):
        honest = make_registry_function("cos_theta", 2)
        with pytest.raises(ValueError):
            replace(honest, name="liar", F=lambda wp, v: np.asarray(v, float) * 1.0)

    def test_periodicity_probe_is_not_blinded_by_overflow(self):
        # F is infinite at some probe points and aperiodic at the others
        honest = make_registry_function("cos_theta", 2)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            replace(honest, name="liar",
                    F=lambda wp, v: np.asarray(v, float) + np.exp(1000.0 * wp[..., 0]))
        with pytest.raises(ValueError):
            replace(honest, name="nan_liar", F=lambda wp, v: np.full(np.shape(v), np.nan))

    def test_periodicity_probe_runs_once(self, iso1, batch_iso1, monkeypatch):
        # the lift of a checked function is periodic, so neither it nor a
        # quotient report, which builds one, probes again
        probed = []
        probe = CylinderFunction._check_periodicity
        monkeypatch.setattr(CylinderFunction, "_check_periodicity",
                            lambda self: (probed.append(self.name), probe(self)))
        f = make_registry_function("cos_theta", 2)
        assert compose_with_quotient(f).periodic
        quotient_invariance_report(iso1, PathConfig(), f, m=100, batch=batch_iso1)
        assert probed == ["cos_theta"]

    def test_pointwise_identity_is_bitwise(self, iso1):
        f = make_registry_function("cos_theta", 2)
        lifted = compose_with_quotient(f)
        assert lifted.name == "cos_theta_lifted"
        rng = np.random.default_rng(45)
        for _ in range(100):
            g = _point(rng, 2, c_scale=50.0)
            r = quotient(g)
            assert float(f.value(r.w, r.theta)) == float(lifted.value(g.w, g.c))

    def test_generator_and_gradient_commute_with_quotient(self, iso1):
        # the two displayed relations: applying the operator downstairs and
        # lifting equals lifting first and applying the operator upstairs
        rng = np.random.default_rng(46)
        for sel in ("cos_theta", "exp_linear(0.5)", "poly_radial"):
            f = make_registry_function(sel, 2)
            lifted = compose_with_quotient(f)
            for _ in range(30):
                g = _point(rng, 2, c_scale=50.0)
                r = quotient(g)
                assert sub_laplacian(iso1, f, r) == sub_laplacian(iso1, lifted, g)
                assert np.array_equal(
                    horizontal_gradient(iso1, f, r),
                    horizontal_gradient(iso1, lifted, g),
                )
                X = LieVector(rng.standard_normal(2), rng.standard_normal())
                assert left_invariant_derivative(
                    iso1, f, X, r
                ) == left_invariant_derivative(iso1, lifted, X, g)


class TestCompatibilityChecks:
    def test_element_dimension_mismatch(self, iso2):
        f = make_registry_function("poly_radial", 4)
        for op in (grad_norm_sq, horizontal_gradient, sub_laplacian):
            with pytest.raises(ValueError):
                op(iso2, f, GroupElement([1.0, 2.0], 0.0))

    def test_projection_exceeds_form(self, iso1):
        f = make_registry_function("poly_radial", 4)
        with pytest.raises(ValueError):
            sub_laplacian(iso1, f, GroupElement([1.0, 2.0], 0.0))

    def test_lie_vector_mismatch(self, iso1):
        f = make_registry_function("poly_radial", 2)
        g = GroupElement([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            left_invariant_derivative(iso1, f, LieVector(np.zeros(4), 0.0), g)

    def test_partials_are_required(self):
        with pytest.raises(TypeError):
            CylinderFunction(
                name="half-built",
                projection=Projection((1, 2)),
                F=lambda wp, v: wp[..., 0],
            )

    @pytest.mark.parametrize(
        "op",
        [
            lambda form, f, g: left_invariant_derivative(form, f, LieVector([1.0, -1.0], 0.5), g),
            horizontal_gradient,
            grad_norm_sq,
            sub_laplacian,
        ],
        ids=["left_invariant", "gradient", "grad_norm_sq", "sub_laplacian"],
    )
    def test_reduced_group_needs_periodic_function(self, iso1, op):
        f = make_registry_function("vertical_sq", 2)
        op(iso1, f, GroupElement([0.3, 0.4], 6.0))
        with pytest.raises(ValueError):
            op(iso1, f, ReducedElement([0.3, 0.4], 6.0))
