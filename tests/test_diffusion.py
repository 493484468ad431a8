"""Endpoint sampling, moment identities, heat-equation and area-law checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heislab import (
    HeatCheckReport,
    PathConfig,
    QuotientInvarianceReport,
    REGISTRY_DEFAULT_SELECTION,
    SPACE_FULL,
    SPACE_REDUCED,
    compose_with_quotient,
    endpoint_moments,
    heat_equation_report,
    levy_area_char_function,
    lsi_ratio,
    make_isotropic_form,
    make_nonisotropic_form,
    make_registry_function,
    multiply_functions,
    quotient_invariance_report,
    sample_unit_endpoints,
    SymplecticForm,
    wrap_angle,
)
from heislab import cli, diffusion, lsi
from heislab.calculus import grad_norm_sq_batch, sub_laplacian_batch, value_batch
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
            diffusion._vertical(b.c_at(1.0), "H")


# every determinism test runs on the walk (steps = 64) and the exact scheme
SCHEMES = (64, None)


class TestDeterminismAndStreams:
    def test_same_seed_is_bitwise_stable(self, iso1):
        for steps in SCHEMES:
            a = sample_unit_endpoints([iso1], steps=steps, base_seed=9, m=50)[0]
            b = sample_unit_endpoints([iso1], steps=steps, base_seed=9, m=50)[0]
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
        cfg = parse_config("weights = 1, 0.25, 0.0625\n")
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
        bound = diffusion._cf_allowance(form, lam, t)
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
        bound = 4.0 * t * diffusion._cf_allowance(form, lam, t)
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


class TestJumpVariance:
    """The compound-Poisson jump sum against its law given r = |W_j|^2.
    Without the tail's r * _TAIL_SQ, V is sum_{k <= K} G_k / k^2 with
    G_k ~ Gamma(Poisson(r)) independent, so E[e^{-uV} | r] is
    exp(-r sum_k u / (k^2 + u)) and E[V | r] is r sum_k k^-2; within 4
    standard errors."""

    M = 20000
    K = np.arange(1, diffusion._LEVY_TERMS + 1, dtype=float)

    @pytest.fixture(scope="class", params=[0.5, 2.0, 8.0])
    def jumps(self, request):
        r = request.param
        gen = np.random.Generator(np.random.Philox(key=np.array([19, int(4 * r)], dtype=np.uint64)))
        v = diffusion._jump_variance(gen, np.full(self.M, r))
        return r, v - r * diffusion._TAIL_SQ

    def test_mean(self, jumps):
        r, v = jumps
        TestExactScheme.within(v, r * np.sum(self.K ** -2.0))

    @pytest.mark.parametrize("u", (0.3, 3.0))
    def test_laplace_transform(self, jumps, u):
        r, v = jumps
        TestExactScheme.within(np.exp(-u * v), math.exp(-r * np.sum(u / (self.K ** 2 + u))))


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

    def test_vertical_dispatch(self, iso1):
        b = sample_unit_endpoints([iso1], steps=64, base_seed=13, m=30)[0]
        assert np.array_equal(diffusion._vertical(b.c_at(1.5), SPACE_FULL), b.c_at(1.5))
        th = diffusion._vertical(b.c_at(1.5), SPACE_REDUCED)
        assert np.array_equal(th, b.theta_at(1.5))
        assert np.all((th >= 0.0) & (th < 2.0 * math.pi))


class TestMomentIdentities:
    def test_horizontal_norm_and_area_variance(self, iso1, batch_iso1):
        # the references are the continuum law's; batch_iso1 is the 400-step
        # walk, whose E c^2 is (1 - 1/N) of the continuum one
        for t in (0.5, 1.0, 2.0):
            mom = endpoint_moments(batch_iso1, t)
            assert mom["hnorm_sq_expected"] == 2.0 * t
            h = mom["hnorm_sq"]
            assert abs(h.mean - 2.0 * t) <= 3.0 * h.std_error
            c2 = mom["c_sq"]
            assert mom["c_sq_expected"] == (t * t / 8.0) * iso1.frobenius_sq()
            walk = mom["c_sq_expected"] * (1.0 - 1.0 / 400)
            assert abs(c2.mean - walk) <= 3.0 * c2.std_error

    def test_two_step_area_variance_closed_form(self, iso1):
        # with two increments the area is omega(Z1, Z2)/4, whose second
        # moment is 2/16 = 0.125, half the continuum 0.25 -- an independent
        # check of the walk's 1-1/N factor
        b = sample_unit_endpoints([iso1], steps=2, base_seed=17, m=40000)[0]
        mom = endpoint_moments(b, 1.0)
        assert mom["c_sq_expected"] == 0.25
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

    @staticmethod
    def _passed(z, skew):
        est = McEstimate(0.0, 1.0, 2)
        return HeatCheckReport(abs(z), 1.0, est, est, z, skew).passed

    def test_verdict_band(self):
        # skew 0: |z| <= 3; skew 0.5: z in [-10.89, 2.10], from
        # ((1 + a z)^3 - 1) / (3 a) + skew / 6 = -3 and 3 at a = skew / 3
        assert self._passed(3.0, 0.0) and self._passed(-3.0, 0.0)
        assert not self._passed(3.0 + 1e-9, 0.0) and not self._passed(-3.0 - 1e-9, 0.0)
        assert self._passed(-10.88, 0.5) and self._passed(2.09, 0.5)
        assert not self._passed(-10.9, 0.5) and not self._passed(2.1, 0.5)
        for z in (math.inf, -math.inf, 1e200, -1e200):
            for skew in (0.0, 0.5, -0.5):
                assert not self._passed(z, skew)

    @given(st.floats(-60.0, 60.0), st.floats(-2.0, 2.0), st.floats(-60.0, 60.0))
    def test_verdict_is_monotone_in_z(self, z1, skew, z2):
        # the statistic is increasing in z, so the passing z form one interval
        lo, hi = sorted((z1, z2))
        assume(lo < hi)
        if self._passed(lo, skew) and self._passed(hi, skew):
            assert self._passed(0.5 * (lo + hi), skew)

    def test_heavy_right_tail_skews_the_band(self):
        # gauss_bump(1) on n = 8 at t = 2.5: rare samples near the origin carry
        # the mean, so the band of z reaches far below -3 and stops short of 3
        form = make_isotropic_form(8)
        f = make_registry_function("gauss_bump(1.0)", form.dim)
        rep = heat_equation_report(form, PathConfig(t=2.5, base_seed=42), f, m=20000)
        assert rep.skew > 0.3
        assert rep.passed and rep.z < -3.0
        assert not self._passed(2.9, rep.skew)

    @pytest.mark.parametrize("extra", ["", "n = 4", "n = 8", "weights = 1, 0.5"])
    def test_skew_is_the_third_moment(self, extra):
        # the pinned heat-check configs (tools/pinned_bytes.py): each row's
        # skew against a third moment summed exactly over Python floats
        cfg = parse_config("m = 2000\nt = 0.5, 1\n" + extra)
        form, m = build_form(cfg), cfg.m
        b = sample_unit_endpoints([form], None, cfg.seed, m)[0]
        for t in cfg.t:
            w, c = b.w_at(t), b.c_at(t)
            for sel in cli.HEAT_DEFAULT_FS:
                f = make_registry_function(sel, form.dim)
                rep = heat_equation_report(form, PathConfig(t=t, base_seed=cfg.seed), f, m, batch=b)
                ddt = diffusion._ddt_along_dilation(f, w, c, t)
                xs = [float(x) for x in ddt - 0.5 * sub_laplacian_batch(form, f, w, c)]
                mean = math.fsum(xs) / m
                dev = [x - mean for x in xs]
                s = math.sqrt(math.fsum(d * d for d in dev) / (m - 1))
                want = math.fsum(d ** 3 for d in dev) / m / s ** 3 / math.sqrt(m)
                # a sum of m terms rounds by at most m eps times the sum of
                # their sizes: the third moment's, and the mean's, which
                # shifts every deviation and enters three times
                abs3 = math.fsum(abs(d) ** 3 for d in dev) / m / s ** 3
                abs1 = math.fsum(abs(x) for x in xs) / m / s
                tol = m * np.finfo(float).eps * (4.0 * abs3 + 3.0 * abs1) / math.sqrt(m)
                assert abs(rep.skew - want) <= tol, (sel, t, rep.skew, want, tol)
                # the verdict does not depend on the skew's last bits
                exact = HeatCheckReport(rep.residual, rep.std_error, rep.ddt,
                                        rep.half_generator, rep.z, want)
                assert exact.passed is rep.passed, (sel, t)

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
        cfg = PathConfig(t=1.0, base_seed=42)
        pts = levy_area_char_function(iso1, cfg, m=batch_iso1.m,
                                      lambdas=(0.0, 0.5, 1.0, 2.0), batch=batch_iso1)
        assert pts[0].lam == 0.0 and pts[0].cos_mean == 1.0 and pts[0].cos_se == 0.0
        for p in pts[1:]:
            ref = 1.0 / math.cosh(0.5 * p.lam)  # continuum law at t = 1, n = 1
            assert p.allowance == diffusion._cf_allowance(iso1, p.lam, 1.0)
            # batch_iso1 is the 400-step walk: first order in its area
            # variance deficit, E cos(lam c) sits up to this above the law
            walk_bias = (p.lam ** 2) * iso1.frobenius_sq() / (16.0 * 400)
            assert abs(p.cos_mean - ref) <= 3.0 * p.cos_se + p.allowance + walk_bias
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
        (p,) = levy_area_char_function(iso1, PathConfig(t=1.0, base_seed=42),
                                       m=batch_iso1.m, lambdas=(lam,), batch=batch_iso1)
        curvature = (1.0 - p.cos_mean) / (0.5 * lam * lam)
        # 1/400: the 400-step walk's E c^2 deficit, 0.25/N, with room to spare
        tol = 3.0 * p.cos_se / (0.5 * lam * lam) + 1.0 / 400 + 1e-3
        assert abs(curvature - 0.25) <= tol


# -- the reports' per-sample kernels, block by block of rows ----------------
#
# The whole-array formulas below are the reports' definitions: every
# per-sample quantity on all m rows of w_at(t) and c_at(t) at once, then the
# reductions.  The reports must reproduce them bit for bit.


def whole_heat(form, f, b, t, m):
    w, c = b.w_at(t)[:m], b.c_at(t)[:m]
    ddt = diffusion._ddt_along_dilation(f, w, c, t)
    lap = sub_laplacian_batch(form, f, w, c)
    diff = ddt - 0.5 * lap
    est = _mc_from(diff)
    d = (diff - est.mean) / (est.std_error * math.sqrt(m))
    skew = float(np.mean(d * d * d)) / math.sqrt(m)
    return HeatCheckReport(abs(est.mean), est.std_error, _mc_from(ddt),
                           _mc_from(0.5 * lap), est.mean / est.std_error, skew)


def whole_lsi(form, f, b, t, m, space):
    """(entropy, entropy_se, energy, energy_se, ratio, ratio_se)."""
    w = b.w_at(t)[:m]
    v = b.c_at(t)[:m] if space == SPACE_FULL else b.theta_at(t)[:m]
    vals, gsq = value_batch(f, w, v), grad_norm_sq_batch(form, f, w, v)
    fsq = vals * vals
    ylog = lsi._xlogx(fsq)
    a, bb, c = float(np.mean(ylog)), float(np.mean(fsq)), float(np.mean(gsq))
    cov = np.cov(np.stack([ylog, fsq, gsq]), ddof=1)
    h = lsi._entropy_from_moments(a, bb)
    d_b = -(1.0 + math.log(bb)) if bb > lsi._TINY else 0.0

    def se(grad):
        return math.sqrt(max(float(np.array(grad) @ cov @ np.array(grad)), 0.0) / m)

    return (h, se([1.0, d_b, 0.0]), c, math.sqrt(max(float(cov[2, 2]), 0.0) / m),
            h / c, se([1.0 / c, d_b / c, -h / (c * c)]))


def whole_quotient(form, f, b, t, m):
    w, c, theta = b.w_at(t)[:m], b.c_at(t)[:m], b.theta_at(t)[:m]
    lifted = compose_with_quotient(f)
    vr, vl = value_batch(f, w, theta), value_batch(lifted, w, c)
    gr, gl = grad_norm_sq_batch(form, f, w, theta), grad_norm_sq_batch(form, lifted, w, c)
    fr, fl = vr * vr, vl * vl
    return QuotientInvarianceReport(
        f.name, m, t, float(np.max(np.abs(vr - vl))), float(np.max(np.abs(gr - gl))),
        float(np.mean(fr)), float(np.mean(fl)),
        lsi._entropy_from_moments(float(np.mean(lsi._xlogx(fr))), float(np.mean(fr))),
        lsi._entropy_from_moments(float(np.mean(lsi._xlogx(fl))), float(np.mean(fl))),
        float(np.mean(gr)), float(np.mean(gl)),
        bool(np.array_equal(vr, vl) and np.array_equal(gr, gl)),
    )


def whole_moments(b, t, m):
    w, c = b.w_at(t)[:m], b.c_at(t)[:m]
    return _mc_from(np.einsum("ij,ij->i", w, w)), _mc_from(c * c)


def default_rows(form):
    return diffusion._BLOCK_ELEMENTS // form.dim


class TestPerSampleBlocks:
    """The reports run their per-sample kernels block by block of rows and
    reduce the joined vectors, so block sizes change no bit."""

    T = 1.7

    @pytest.fixture(scope="class")
    def batches(self):
        dense = dense_form(3, 61, weights=(1.0, 2.0, 3.5))
        assert not np.array_equal(dense.frame, np.eye(dense.dim))  # the Schur path
        out = {}
        for name, form, steps in (("iso8_walk", make_isotropic_form(8), 8),
                                  ("aniso_exact", make_nonisotropic_form((1.0, 2.0, 3.5)), None),
                                  ("dense_exact", dense, None)):
            m = 3 * default_rows(form) + 5
            out[name] = (form, sample_unit_endpoints([form], steps, 17, m)[0])
        return out

    @pytest.mark.parametrize("case", ["iso8_walk", "aniso_exact", "dense_exact"])
    @pytest.mark.parametrize("block", ["default", "one_row", "whole"])
    def test_reports_equal_the_whole_array_formulas(self, batches, monkeypatch, case, block):
        form, b = batches[case]
        t, m = self.T, b.m  # m = 3 default blocks + 5 samples
        if block == "one_row":
            # asks for one-row blocks; an odd m leaves a lone row at the end
            monkeypatch.setattr(diffusion, "_BLOCK_ELEMENTS", 1)
            m = 101
        elif block == "whole":
            monkeypatch.setattr(diffusion, "_BLOCK_ELEMENTS", form.dim * m)
        cfg = PathConfig(t=t, base_seed=17)
        mom = endpoint_moments(b, t, m)
        assert (repr(mom["hnorm_sq"]), repr(mom["c_sq"])) == tuple(map(repr, whole_moments(b, t, m)))
        for sel in REGISTRY_DEFAULT_SELECTION:
            f = make_registry_function(sel, form.dim)
            rep = heat_equation_report(form, cfg, f, m, batch=b)
            assert repr(rep) == repr(whole_heat(form, f, b, t, m)), sel
            spaces = (SPACE_FULL, SPACE_REDUCED) if f.periodic else (SPACE_FULL,)
            for space in spaces:
                r = lsi_ratio(form, cfg, f, m, space=space, batch=b)
                got = (r.entropy, r.entropy_se, r.energy, r.energy_se, r.ratio, r.ratio_se)
                want = whole_lsi(form, f, b, t, m, space)
                if r.ratio is None:
                    want = want[:4] + (None, None)
                assert repr(got) == repr(want), (sel, space)
            if f.periodic:
                rep = quotient_invariance_report(form, cfg, f, m, batch=b)
                assert rep.bitwise_equal
                assert repr(rep) == repr(whole_quotient(form, f, b, t, m)), sel

    @pytest.mark.parametrize("elements, m", [(1, 2), (1, 7), (8, 9), (8, 10), (8, 12), (8, 13)])
    def test_blocks_cover_the_rows_and_never_leave_one_alone(self, iso1, monkeypatch, elements, m):
        # rows per block = elements // dim, at least 2; dim = 2 here
        monkeypatch.setattr(diffusion, "_BLOCK_ELEMENTS", elements)
        b = sample_unit_endpoints([iso1], None, 3, m)[0]
        seen = []

        def kernel(w, c):
            seen.append(c.shape[0])
            return np.arange(c.shape[0]), w[:, 0], c

        index, w0, c = diffusion._per_sample(b, 2.0, m, kernel)
        rows = max(2, elements // 2)
        assert sum(seen) == m and min(seen) >= min(2, m) and max(seen) <= rows + 1
        assert all(k == rows for k in seen[:-1])
        assert np.array_equal(index, np.concatenate([np.arange(k) for k in seen]))
        assert np.array_equal(w0, b.w_at(2.0)[:, 0]) and np.array_equal(c, b.c_at(2.0))


class TestReportMemory:
    """Neither the sampler nor any report builds a whole-batch (m, 2n)
    temporary: each one's traced peak, less what it returns, stays below the
    size of one such array."""

    N, M = 8, 20000

    @pytest.fixture(scope="class")
    def heat_batch(self):
        form = make_isotropic_form(self.N)
        return form, sample_unit_endpoints([form], None, 20251203, self.M)[0]

    def test_sampler_peak_is_per_chunk(self):
        form = make_isotropic_form(self.N)
        tracemalloc.start()
        try:
            b = sample_unit_endpoints([form], None, 20251203, self.M)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - b.w_hat.nbytes - b.c_hat.nbytes < self.M * form.dim * 8, peak

    @pytest.mark.parametrize("report", ["heat", "lsi", "quotient"])
    def test_peak_below_one_batch_array(self, heat_batch, report):
        form, b = heat_batch
        cfg = PathConfig(t=1.25, steps=None, base_seed=20251203)
        one_array = self.M * form.dim * 8
        calls = []
        for sel in REGISTRY_DEFAULT_SELECTION:
            f = make_registry_function(sel, form.dim)
            if report == "heat":
                calls.append(lambda f=f: heat_equation_report(form, cfg, f, self.M, batch=b))
            elif report == "lsi":
                for space in (SPACE_FULL, SPACE_REDUCED) if f.periodic else (SPACE_FULL,):
                    calls.append(lambda f=f, s=space: lsi_ratio(form, cfg, f, self.M, space=s, batch=b))
            elif f.periodic:
                calls.append(lambda f=f: quotient_invariance_report(form, cfg, f, self.M, batch=b))
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < one_array, (report, peak)
