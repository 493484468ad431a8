"""Endpoint sampling, moment identities, heat-equation and area-law checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    multiply_functions,
    sample_unit_endpoints,
    SymplecticForm,
    wrap_angle,
)
from heislab import diffusion
from heislab.config import build_form, parse_config
from heislab.diffusion import McEstimate

from helpers import exact_skew, random_orthogonal


def reference_walk(forms, steps, seed, m):
    """The walk one sample at a time, each from a fresh Philox stream keyed
    (seed, i): the per-sample formula the blocked walk must reproduce bit
    for bit, rescaled to unit time as sample_unit_endpoints does."""
    dim = forms[0].dim
    w_hat = np.empty((m, dim))
    c_hats = [np.empty(m) for _ in forms]
    zero_row = np.zeros((1, dim))
    for i in range(m):
        key = np.array([seed, i], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((steps, dim))
        s = np.cumsum(z, axis=0)
        s_prev = np.concatenate([zero_row, s[:-1]], axis=0)
        for ch, fm in zip(c_hats, forms):
            ch[i] = 0.5 * np.einsum("kj,kj->", s_prev @ fm.omega, z)
        w_hat[i] = s[-1]
    return w_hat * (1.0 / math.sqrt(steps)), [ch / steps for ch in c_hats]


def assert_walk_is_reference(forms, steps, seed, m, workers=1):
    batches = sample_unit_endpoints(forms, steps=steps, base_seed=seed, m=m, workers=workers)
    w_ref, c_refs = reference_walk(forms, steps, seed, m)
    for b, c_ref in zip(batches, c_refs):
        for i in range(m):
            assert np.array_equal(b.w_hat[i], w_ref[i]), (steps, m, workers, i)
            assert np.array_equal(b.c_hat[i], c_ref[i]), (steps, m, workers, i)


def dense_form(n, seed, weights=None):
    """A skew form with no zero entries: a random rotation of a block form."""
    q = random_orthogonal(np.random.default_rng(seed), 2 * n)
    weights = np.linspace(1.0, 2.0, n) if weights is None else weights
    return SymplecticForm(exact_skew(q @ make_nonisotropic_form(weights).omega @ q.T))


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
        assert PathConfig(steps=None).steps is None  # the exact scheme

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


# every determinism test runs on the walk (steps = 64) and the exact scheme
SCHEMES = (64, None)


class TestDeterminismAndStreams:
    def test_same_seed_is_bitwise_stable(self, iso1):
        for steps in SCHEMES:
            a = sample_unit_endpoints([iso1], steps=steps, base_seed=9, m=50)[0]
            b = sample_unit_endpoints([iso1], steps=steps, base_seed=9, m=50)[0]
            assert a.steps == steps
            assert np.array_equal(a.w_hat, b.w_hat)
            assert np.array_equal(a.c_hat, b.c_hat)

    def test_seed_changes_output(self, iso1):
        for steps in SCHEMES:
            a = sample_unit_endpoints([iso1], steps=steps, base_seed=9, m=50)[0]
            b = sample_unit_endpoints([iso1], steps=steps, base_seed=10, m=50)[0]
            assert not np.array_equal(a.c_hat, b.c_hat)

    def test_per_sample_streams_are_prefix_stable(self, iso2):
        # enlarging m must not change the endpoints already drawn, also when
        # the smaller run ends inside or at the end of an exact-scheme chunk
        for steps in SCHEMES:
            large = sample_unit_endpoints([iso2], steps=steps, base_seed=9, m=700)[0]
            for small in (20, 256, 300):
                b = sample_unit_endpoints([iso2], steps=steps, base_seed=9, m=small)[0]
                assert np.array_equal(b.w_hat, large.w_hat[:small]), (steps, small)
                assert np.array_equal(b.c_hat, large.c_hat[:small]), (steps, small)

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

    def test_worker_split_is_bitwise_equal(self):
        # 1000 samples are four exact-scheme chunks, the last one partial;
        # the rotated form maps W through a frame that is not the identity
        forms = [make_isotropic_form(2), dense_form(2, seed=4)]
        for steps in SCHEMES:
            serial = sample_unit_endpoints(forms, steps=steps, base_seed=5, m=1000, workers=1)
            for workers in (2, 3, 8):
                threaded = sample_unit_endpoints(forms, steps=steps, base_seed=5, m=1000,
                                                 workers=workers)
                for a, b in zip(serial, threaded):
                    assert np.array_equal(a.w_hat, b.w_hat), (steps, workers)
                    assert np.array_equal(a.c_hat, b.c_hat), (steps, workers)

    def test_forms_share_draws(self, iso1):
        double = make_nonisotropic_form((2.0,))
        for steps in SCHEMES:
            b_iso, b_dbl = sample_unit_endpoints([iso1, double], steps=steps, base_seed=7, m=40)
            assert b_iso.w_hat is b_dbl.w_hat
            # the area is linear in the form, and scaling by 2 is exact
            assert np.array_equal(b_dbl.c_hat, 2.0 * b_iso.c_hat)
            alone = sample_unit_endpoints([iso1], steps=steps, base_seed=7, m=40)[0]
            assert np.array_equal(alone.c_hat, b_iso.c_hat)


class TestBlockedWalk:
    """Blocks of samples share arrays and NumPy calls but change no sample:
    every row equals the per-sample formula bit for bit."""

    STEPS = 64

    def block(self, dim, steps=STEPS):
        return diffusion._BLOCK_ELEMENTS // (steps * dim)

    def test_one_sample(self, iso1):
        assert_walk_is_reference([iso1], self.STEPS, 3, 1)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 37])
    def test_around_one_block(self, offset):
        form = make_nonisotropic_form((1.0, 3.0))
        size = self.block(form.dim)
        assert size > 37
        assert_walk_is_reference([form], self.STEPS, 21, size + offset)

    def test_several_blocks_and_a_part(self, iso1):
        size = self.block(iso1.dim)
        assert_walk_is_reference([iso1], self.STEPS, 22, 2 * size + 37)

    def test_worker_chunks_end_mid_block(self, iso1):
        # three workers cut 700 samples into 12 chunks of about 58, each
        # shorter than a block, so every chunk ends inside its first block
        assert self.block(iso1.dim) > 59
        assert_walk_is_reference([iso1], self.STEPS, 23, 700, workers=3)

    def test_two_forms_share_one_draw(self, iso2):
        forms = [iso2, make_nonisotropic_form((0.5, 4.0))]
        assert_walk_is_reference(forms, self.STEPS, 24, self.block(4) + 5)

    def test_dense_form(self):
        form = dense_form(3, seed=5)
        assert np.count_nonzero(form.omega) == 30
        assert_walk_is_reference([form, make_isotropic_form(3)], 20, 25, 300)

    def test_trace_class_config_form(self):
        cfg = parse_config("form = trace_class\nweights = 1, 0.25, 0.0625\n")
        assert_walk_is_reference([build_form(cfg)], 40, 26, 150)

    @pytest.mark.parametrize("steps", [4096, 4097])
    def test_samples_beyond_the_einsum_buffer(self, iso1, steps):
        # a sample of more than np.getbufsize() elements is reduced alone
        assert_walk_is_reference([iso1], steps, 27, 9)


class TestBlockedWalkProperties:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        steps=st.integers(1, 64),
        m=st.integers(1, 200),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**64 - 1),
        dense=st.booleans(),
    )
    def test_blocked_walk_is_the_per_sample_walk(self, n, steps, m, workers, seed, dense):
        # below 256 samples a batch runs in one chunk whatever the worker
        # count; TestBlockedWalk covers chunks that end mid-block
        forms = [make_isotropic_form(n)]
        if dense:
            forms.append(dense_form(n, seed=n))
        assert_walk_is_reference(forms, steps, seed, m, workers)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 1),
        other=st.integers(0, 2**64 - 1),
        used=st.integers(0, 9),
        size=st.integers(1, 9),
    )
    def test_rekeyed_stream_is_a_fresh_stream(self, seed, index, other, used, size):
        gen = np.random.Generator(np.random.Philox(0))
        # use the generator for another sample first, leaving its buffer and
        # a spare 32-bit word behind
        diffusion._stream(seed, other, gen).standard_normal(used)
        gen.integers(0, 2**32, size=2 * used + 1, dtype=np.uint32)
        got = diffusion._stream(seed, index, gen)
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        assert np.array_equal(got.standard_normal(size), fresh.standard_normal(size))
        assert np.array_equal(got.integers(0, 2**32, size=3, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=3, dtype=np.uint32))


def _planes(form, w):
    """|W_j|^2 per plane j of the form's normal frame, for endpoints w."""
    u = w @ form.frame
    return u[:, 0::2] ** 2 + u[:, 1::2] ** 2


class TestExactScheme:
    """The exact scheme against the continuum law's closed forms, within
    4 standard errors plus the derived truncation bound."""

    T = 0.7
    LAMBDAS = (0.5, 1.0, 2.0)

    @pytest.fixture(
        scope="class",
        params=["isotropic", "ascending", "trace_class_rotated"],
    )
    def batch(self, request):
        form = {
            "isotropic": lambda: make_isotropic_form(3),
            "ascending": lambda: make_nonisotropic_form((2.0, 3.0, 4.0)),
            # trace-class weights j^-2 in a random frame, so frame != I
            "trace_class_rotated": lambda: dense_form(3, seed=8, weights=(1.0, 0.25, 1.0 / 9.0)),
        }[request.param]()
        rotated = request.param == "trace_class_rotated"
        assert np.array_equal(form.frame, np.eye(6)) != rotated
        return sample_unit_endpoints([form], steps=None, base_seed=31, m=60000)[0]

    @staticmethod
    def within(values, expected, bound=0.0):
        est = _mc_from(values)
        assert abs(est.mean - expected) <= 4.0 * est.std_error + bound, (est, expected, bound)

    def test_second_moments(self, batch):
        t, form = self.T, batch.form
        w, c = batch.w_at(t), batch.c_at(t)
        self.within(np.einsum("ij,ij->i", w, w), form.dim * t)
        self.within(c * c, (t * t / 8.0) * form.frobenius_sq())

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_characteristic_function(self, batch, lam):
        t, form = self.T, batch.form
        phi = float(np.prod(1.0 / np.cosh(form.weights * lam * t / 2.0)))
        bound = diffusion._cf_allowance(form, None, lam, t)
        self.within(np.cos(lam * batch.c_at(t)), phi, bound)
        self.within(np.sin(lam * batch.c_at(t)), 0.0)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_joint_law_with_the_planes(self, batch, lam):
        # E[cos(lam c) |W_j|^2] = phi(lam) 2t tanh(x_j)/x_j, x_j = a_j lam t/2;
        # the truncation error, weighted by |W_j|^2 <= E|W_i|^2 |W_j|^2 / E|W_i|^2,
        # is at most 4t times that of E cos(lam c)
        t, form = self.T, batch.form
        x = form.weights * lam * t / 2.0
        phi = float(np.prod(1.0 / np.cosh(x)))
        bound = 4.0 * t * diffusion._cf_allowance(form, None, lam, t)
        r = _planes(form, batch.w_at(t))
        cos = np.cos(lam * batch.c_at(t))
        for j in range(form.n):
            self.within(cos * r[:, j], phi * 2.0 * t * math.tanh(x[j]) / x[j], bound)

    def test_one_stream_per_chunk(self, monkeypatch):
        keys = []
        stream = diffusion._stream

        def recording(seed, index, gen):
            keys.append((seed, index))
            return stream(seed, index, gen)

        monkeypatch.setattr(diffusion, "_stream", recording)
        m = 2 * diffusion._EXACT_CHUNK + 1
        sample_unit_endpoints([make_isotropic_form(2)], steps=None, base_seed=6, m=m, workers=2)
        assert sorted(keys) == [(6, 0), (6, 1), (6, 2)]

    def test_forms_with_other_frames_get_their_own_w(self):
        rotated = dense_form(2, seed=3)
        b_iso, b_rot = sample_unit_endpoints(
            [make_isotropic_form(2), rotated], steps=None, base_seed=4, m=300)
        # the isotropic form's frame is the identity, so its w is W itself
        np.testing.assert_allclose(b_rot.w_hat, b_iso.w_hat @ rotated.frame.T,
                                   rtol=0, atol=1e-13)


def _mc_from(values):
    return McEstimate(mean=float(np.mean(values)),
                      std_error=float(np.std(values, ddof=1) / math.sqrt(values.size)),
                      m=values.size)


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
            assert mom["c_sq_expected"] == pytest.approx(expected, rel=1e-15)
            assert abs(c2.mean - expected) <= 3.0 * c2.std_error

    def test_two_step_area_variance_closed_form(self, iso1):
        # with two increments the area is omega(Z1, Z2)/4, whose second
        # moment is 2/16 = 0.125 -- an independent check of the 1-1/N factor
        b = sample_unit_endpoints([iso1], steps=2, base_seed=17, m=40000)[0]
        mom = endpoint_moments(b, 1.0)
        assert mom["c_sq_expected"] == 0.125
        assert abs(mom["c_sq"].mean - 0.125) <= 3.0 * mom["c_sq"].std_error

    def test_exact_reference_has_no_step_factor(self, iso2):
        b = sample_unit_endpoints([iso2], steps=None, base_seed=17, m=10)[0]
        assert endpoint_moments(b, 2.0)["c_sq_expected"] == (4.0 / 8.0) * iso2.frobenius_sq()

    def test_moment_subset(self, batch_iso1):
        mom_all = endpoint_moments(batch_iso1, 1.0)
        mom_sub = endpoint_moments(batch_iso1, 1.0, m=5000)
        assert mom_sub["hnorm_sq"].m == 5000
        assert mom_all["hnorm_sq"].m == batch_iso1.m


def _closed_form_ddt(selector, w_hat, c_hat, t):
    """d/dt f(sqrt(t) w_hat, t c_hat) of a registry function, by hand."""
    hsq = np.einsum("ij,ij->i", w_hat, w_hat)
    if selector == "poly_radial":
        return hsq
    if selector == "vertical_sq":
        return 2.0 * t * c_hat ** 2
    if selector == "cos_theta":
        return -c_hat * np.sin(t * c_hat)
    if selector == "exp_linear(0.7)":
        return 0.7 * w_hat[:, 0] / (2.0 * math.sqrt(t)) * np.exp(0.7 * math.sqrt(t) * w_hat[:, 0])
    if selector == "gauss_bump(1.5)":
        r2 = t * hsq + (t * c_hat) ** 2
        return -(hsq + 2.0 * t * c_hat ** 2) / (2.0 * 1.5 ** 2) * np.exp(-r2 / (2.0 * 1.5 ** 2))
    raise KeyError(selector)


class TestHeatEquation:
    SELECTORS = ("poly_radial", "vertical_sq", "cos_theta", "exp_linear(0.7)", "gauss_bump(1.5)")

    @pytest.fixture(scope="class")
    def batch_iso2(self):
        return sample_unit_endpoints([make_isotropic_form(2)], steps=10, base_seed=5, m=64)[0]

    @pytest.mark.parametrize("selector", SELECTORS)
    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_ddt_matches_closed_form(self, batch_iso2, selector, t):
        f = make_registry_function(selector, 4)
        b = batch_iso2
        got = diffusion._ddt_along_dilation(f, b.w_at(t), b.c_at(t), t)
        want = _closed_form_ddt(selector, b.w_hat, b.c_hat, t)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_ddt_of_product_is_leibniz(self, batch_iso2, t):
        f1 = make_registry_function("poly_radial", 4)
        f2 = make_registry_function("gauss_bump(1.5)", 4)
        b = batch_iso2
        got = diffusion._ddt_along_dilation(multiply_functions(f1, f2), b.w_at(t), b.c_at(t), t)
        v1, v2 = (fi.value(b.w_at(t), b.c_at(t)) for fi in (f1, f2))  # full projections
        d1, d2 = (_closed_form_ddt(s, b.w_hat, b.c_hat, t) for s in ("poly_radial", "gauss_bump(1.5)"))
        # the two Leibniz terms differ in sign, so the error is relative to their sizes
        scale = np.abs(d1 * v2) + np.abs(v1 * d2)
        assert np.all(np.abs(got - (d1 * v2 + v1 * d2)) <= 1e-12 * scale)

    @pytest.mark.parametrize("selector", ["poly_radial", "vertical_sq", "gauss_bump(1.0)"])
    def test_residual_within_noise(self, iso1, batch_iso1, selector):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        f = make_registry_function(selector, 2)
        rep = heat_equation_report(iso1, cfg, f, m=batch_iso1.m, batch=batch_iso1)
        assert rep.passed and rep.residual <= 3.0 * rep.std_error
        assert rep.residual == pytest.approx(
            abs(rep.ddt.mean - rep.half_generator.mean), rel=1e-9, abs=1e-12
        )
        ddt = diffusion._ddt_along_dilation(f, batch_iso1.w_at(1.0), batch_iso1.c_at(1.0), 1.0)
        assert rep.ddt.mean == float(np.mean(ddt))

    def test_walk_bias_fails_at_two_steps(self, iso1):
        # the 2-step walk's E c^2 is half the continuum one, so d/dt E[c^2] is
        # half of 0.5 E[L c^2], far beyond the noise; the exact law passes
        f = make_registry_function("vertical_sq", 2)
        for steps, passed in ((2, False), (None, True)):
            rep = heat_equation_report(iso1, PathConfig(t=1.0, steps=steps), f, m=2000)
            assert rep.passed is passed

    def test_batch_from_another_form_is_rejected(self, iso1, batch_iso1):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        other = make_nonisotropic_form((3.0,))
        f = make_registry_function("vertical_sq", 2)
        with pytest.raises(ValueError, match="different form"):
            heat_equation_report(other, cfg, f, m=100, batch=batch_iso1)
        with pytest.raises(ValueError, match="different form"):
            levy_area_char_function(other, cfg, m=100, lambdas=(1.0,), batch=batch_iso1)

    def test_non_integrable_observable_raises(self, iso1):
        # no batch given: the report samples its own, then rejects the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            f = make_registry_function("exp_linear(1000)", 2)
            cfg = PathConfig(t=1.0, steps=16, base_seed=42)
            with pytest.raises(RuntimeError, match="exp_linear"):
                heat_equation_report(iso1, cfg, f, m=200)


class TestAreaCharFunction:
    def test_matches_sech_law(self, iso1, batch_iso1):
        cfg = PathConfig(t=1.0, steps=400, base_seed=42)
        pts = levy_area_char_function(iso1, cfg, m=batch_iso1.m,
                                      lambdas=(0.0, 0.5, 1.0, 2.0), batch=batch_iso1)
        assert pts[0].lam == 0.0 and pts[0].cos_mean == 1.0 and pts[0].cos_se == 0.0
        for p in pts[1:]:
            ref = 1.0 / math.cosh(0.5 * p.lam)  # continuum law at t = 1, n = 1
            assert p.allowance == (p.lam ** 2) * iso1.frobenius_sq() / (16.0 * 400)
            assert abs(p.cos_mean - ref) <= 3.0 * p.cos_se + p.allowance
            assert abs(p.sin_mean) <= 3.0 * p.sin_se + 1e-12

    def test_exact_scheme_needs_no_step_allowance(self):
        form = make_nonisotropic_form((1.0, 2.5))
        cfg = PathConfig(t=0.8, steps=None, base_seed=42)
        pts = levy_area_char_function(form, cfg, m=40000, lambdas=(0.5, 1.0, 2.0))
        for p in pts:
            ref = float(np.prod(1.0 / np.cosh(form.weights * p.lam * 0.8 / 2.0)))
            assert 0.0 < p.allowance < 0.01 * p.cos_se
            assert abs(p.cos_mean - ref) <= 3.0 * p.cos_se + p.allowance
            assert abs(p.sin_mean) <= 3.0 * p.sin_se

    def test_small_lambda_curvature_gives_area_variance(self, iso1, batch_iso1):
        # (1 - E cos(lam c)) / (lam^2/2) -> E[c^2] = t^2/4 as lam -> 0
        lam = 0.05
        (p,) = levy_area_char_function(iso1, PathConfig(t=1.0, steps=400, base_seed=42),
                                       m=batch_iso1.m, lambdas=(lam,), batch=batch_iso1)
        curvature = (1.0 - p.cos_mean) / (0.5 * lam * lam)
        tol = 3.0 * p.cos_se / (0.5 * lam * lam) + 1.0 / 400 + 1e-3
        assert abs(curvature - 0.25) <= tol
