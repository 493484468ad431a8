"""Hypoelliptic Brownian motion and Monte-Carlo expectation machinery.

Two schemes sample the unit-time endpoint (w_hat, c_hat); the endpoint at
time t is exactly (sqrt(t) * w_hat, t * c_hat), so one simulated batch serves
a whole t grid with common random numbers, and d/dt of an observable along
the path of endpoints is exact per sample.

The exact scheme (`steps=None`) draws the continuum law plane by plane in
each form's normal frame Q: with w = Q W, the area is c = sum_j a_j A_j,
where A_j is the Levy area of the planar Brownian motion W_j.  Given W_j,
Levy's formula makes A_j a logistic(s) bridge area, s = 1/(2 pi), plus for
every k >= 1 Poisson(|W_j|^2) many Laplace(s/k) jumps (Levy 1951;
Wiktorsson 2001).  N Laplace(b) jumps sum to b sqrt(2 G) Z with
G ~ Gamma(N), so the terms k <= _LEVY_TERMS enter through one normal of
variance 2 s^2 V, V = sum_k G_k / k^2; the terms k > _LEVY_TERMS through a
Gaussian of the same variance, the only approximation.  V is drawn as one
compound-Poisson sum per plane (`_jump_variance`): Poisson(K |W_j|^2) jumps,
each with a uniform label k, one raw Philox byte, and an Exp(1) size, adding
size / k^2 to its plane's segment.  By Poisson thinning the label-k jumps
are Poisson(|W_j|^2) many, and N Exp(1) sizes sum to Gamma(N), so that is
the law above.  The cost does not depend on N.  Chunk j of _EXACT_CHUNK
samples draws from the Philox stream keyed (base_seed, j), in the order W,
the logistic bridge areas, the jump counts, labels and sizes, and the final
normals, and every chunk is drawn whole, so the bits depend on neither the
worker count nor m beyond its prefix.

The walk (`steps=N`) takes N Gaussian increments dB_k ~ Normal(0, (t/N)
I_{2n}); the endpoint carries the horizontal sum and the discrete area

    w = sum_k dB_k,      c = 0.5 * sum_k omega(B_{k-1}, dB_k)

(left-point rule; the midpoint correction 0.5*omega(dB, dB) vanishes because
omega is skew), whose E c^2 is (1 - 1/N) of the continuum one.  Every
report checks a batch against the continuum law whichever scheme drew it,
so a walk batch fails on its 1/N bias once the sample resolves it.  Stream
contract: sample i draws from a Philox stream keyed by (base_seed, i),
starting at counter 0, so results are bit-identical regardless of execution
order or worker count; per-sample values land in index-addressed slots and
are reduced in a fixed order.

The walk runs in chunks of consecutive samples, one chunk per task.  A chunk
builds one Philox generator and re-keys it for each sample, instead of
constructing a generator per sample.  It draws a block of samples' normals
into one (B, N, 2n) array, then takes the partial sums, each form's pairing
with them and the area reductions once per block.  Every operation acts on
each sample alone, in the order a single sample would use, so the block size
changes no sample's bits.

The per-sample kernels of the reports run the same way, block by block of
rows (`_per_sample`): each block's (w, c) are bitwise those rows of
`w_at(t)` and `c_at(t)`, the outputs join into (m,) vectors, and every
reduction runs on the joined vectors, so no block size changes a bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# `value_batch` is not called here.  It stays bound because the traced
# benchmark (perfbench/worker.py, `Heat.run`) patches it by name.  It patches
# `sub_laplacian_batch` too, so the heat report's kernel calls it by this
# module's name, once per block.
from .calculus import CylinderFunction, _projected, _sum, sub_laplacian_batch, value_batch
from .group import wrap_angle
from .model import SymplecticForm

__all__ = [
    "PathConfig",
    "McEstimate",
    "EndpointBatch",
    "sample_unit_endpoints",
    "heat_equation_report",
    "HeatCheckReport",
    "levy_area_char_function",
    "CharFunctionPoint",
    "endpoint_moments",
    "SPACE_FULL",
    "SPACE_REDUCED",
]

SPACE_FULL = "G"
SPACE_REDUCED = "Gtilde"
_SPACES = (SPACE_FULL, SPACE_REDUCED)


@dataclass(frozen=True)
class PathConfig:
    """Terminal time, step count (None: the exact scheme), and the base seed."""

    t: float = 1.0
    steps: Optional[int] = None
    base_seed: int = 42

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError("t must be positive and finite")
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (0 <= self.base_seed < 2 ** 64):
            raise ValueError("base_seed must fit in 64 bits")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("an estimate needs at least 2 samples")


# Bound on the elements of one block, samples x steps x 2n for the walk and
# samples x 2n for the per-sample kernels, so that their working arrays stay
# small whatever m is.
_BLOCK_ELEMENTS = 1 << 15

# Samples per stream of the exact scheme; its working arrays are (chunk, n).
_EXACT_CHUNK = 256
# Scale of the unit-time bridge area's logistic law, and of its Laplace jumps.
_S = 1.0 / (2.0 * math.pi)
# Laplace jump terms drawn exactly.  The Gaussian that replaces the rest
# misses their fourth cumulant, |W_j|^2 * 24 * sum_{k>K} (s/k)^4, which
# bounds the error of E cos(lam c) by `_cf_allowance`: at K = 16,
# 9.5e-8 * (lam a t)^4 per plane, 1.5e-6 at lam a t = 2, against a 3-se
# band of about 3e-3 there at the default m = 200000.
_LEVY_TERMS = 16
_TAIL_SQ = math.pi ** 2 / 6.0 - sum(k ** -2.0 for k in range(1, _LEVY_TERMS + 1))
_TAIL_4TH = math.pi ** 4 / 90.0 - sum(k ** -4.0 for k in range(1, _LEVY_TERMS + 1))


def _stream(base_seed: int, index: int, gen: np.random.Generator) -> np.random.Generator:
    """`gen`, re-keyed to the Philox stream with key (base_seed, index),
    counter 0 and an empty buffer.  The walk keys one stream per sample, the
    exact scheme one per chunk."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [base_seed, index]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class EndpointBatch:
    """Unit-time endpoints of m paths; rescale to any t on demand."""

    form: SymplecticForm
    w_hat: np.ndarray  # (m, 2n)
    c_hat: np.ndarray  # (m,)

    @property
    def m(self) -> int:
        return self.w_hat.shape[0]

    def w_at(self, t: float) -> np.ndarray:
        return math.sqrt(t) * self.w_hat

    def c_at(self, t: float) -> np.ndarray:
        return t * self.c_hat

    def theta_at(self, t: float) -> np.ndarray:
        return wrap_angle(self.c_at(t))


def _vertical(c: np.ndarray, space: str) -> np.ndarray:
    """The vertical coordinate in `space`: c itself on G, wrapped on G~."""
    if space == SPACE_FULL:
        return c
    if space == SPACE_REDUCED:
        return wrap_angle(c)
    raise ValueError(f"unknown space {space!r}; expected one of {_SPACES}")


def _per_sample(batch: EndpointBatch, t: float, m: int, kernel) -> list:
    """kernel(w, c) -> per-sample arrays, over row blocks of the first m
    endpoints at time t, joined into one (m,) vector per output.

    Each block's w and c are bitwise its rows of `w_at(t)` and `c_at(t)`.  A
    block has at least two rows: a lone row takes other numpy paths (a gemv
    for a framed `w @ Omega`, einsum's SIMD-order sum) and may round otherwise.
    """
    rows = max(2, _BLOCK_ELEMENTS // batch.form.dim)
    root = math.sqrt(t)
    outs = None
    lo = 0
    while lo < m:
        # a tail of one row joins the block before it
        hi = m if m - lo < rows + 2 else lo + rows
        with np.errstate(over="ignore", invalid="ignore"):
            vals = kernel(root * batch.w_hat[lo:hi], t * batch.c_hat[lo:hi])
        if outs is None:
            outs = [np.empty(m) for _ in vals]
        for out, v in zip(outs, vals):
            out[lo:hi] = v
        lo = hi
    return outs


def _fill_chunk(forms, steps, base_seed, lo, hi, w_hat, c_hats):
    dim = forms[0].dim
    gen = np.random.Generator(np.random.Philox(0))
    size = min(hi - lo, max(1, _BLOCK_ELEMENTS // (steps * dim)))
    z = np.empty((size, steps, dim))
    # partial sums: s[j, k] = z[j, 0] + ... + z[j, k - 1], with row 0 zero
    s = np.zeros((size, steps + 1, dim))
    # einsum reduces a sample in one pass only while it fits einsum's buffer;
    # past that, each sample is reduced on its own, as a lone sample would be
    whole_block = steps * dim <= np.getbufsize()
    for a in range(lo, hi, size):
        b = min(a + size, hi)
        zb, sb = z[: b - a], s[: b - a]
        for j in range(b - a):
            _stream(base_seed, a + j, gen).standard_normal(out=zb[j])
        np.cumsum(zb, axis=1, out=sb[:, 1:])
        for k, fm in enumerate(forms):
            p = fm.pair_with_basis(sb[:, :-1])
            if whole_block:
                c_hats[k][a:b] = 0.5 * np.einsum("bkj,bkj->b", p, zb)
            else:
                c_hats[k][a:b] = [0.5 * np.einsum("kj,kj->", pj, zj) for pj, zj in zip(p, zb)]
        w_hat[a:b] = sb[:, -1]


def _jump_variance(g: np.random.Generator, r: np.ndarray) -> np.ndarray:
    """Each plane's jump variance V given r = |W_j|^2, shaped like r: one
    compound-Poisson sum of size / k^2 over Poisson(K r) jumps, plus the
    mean r * _TAIL_SQ of the terms k > K.

    The labels are `g.integers(1, K + 1, total, dtype=np.uint8)`'s, whose
    Lemire draw never rejects for a range of 16: label - 1 is the high half
    of each raw byte, little-endian, and the stream moves on by the same
    words.  Jumps come plane by plane, so each plane sums one segment."""
    counts = g.poisson(_LEVY_TERMS * r).ravel()
    total = int(counts.sum())
    raw = g.bit_generator.random_raw(-(-total // 8)).astype("<u8", copy=False)
    k = (raw.view(np.uint8)[:total] >> 4).astype(float) + 1.0
    # a trailing 0 lets the planes without jumps at the end start in bounds
    sizes = np.zeros(total + 1)
    g.standard_exponential(out=sizes[:total])
    sizes[:total] /= np.square(k, out=k)
    var = np.add.reduceat(sizes, np.cumsum(counts) - counts)
    var[counts == 0] = 0.0  # reduceat gives an empty segment its next element
    return var.reshape(r.shape) + _TAIL_SQ * r


def _fill_exact(forms, frames, base_seed, chunks, m, c_hats):
    """Chunks `chunks` of the exact scheme: (W_j, A_j) per plane of the
    normal frame, then w = Q W through one form of each distinct frame and
    c = sum_j a_j A_j for each form."""
    n, size = forms[0].n, _EXACT_CHUNK
    gen = np.random.Generator(np.random.Philox(0))
    for chunk in chunks:
        g = _stream(base_seed, chunk, gen)
        W = g.standard_normal((size, n, 2))
        r = W[..., 0] ** 2 + W[..., 1] ** 2
        area = g.logistic(0.0, _S, (size, n))
        area += _S * np.sqrt(2.0 * _jump_variance(g, r)) * g.standard_normal((size, n))
        lo, hi = chunk * size, min(chunk * size + size, m)
        W = W.reshape(size, 2 * n)
        for fm, w_hat in frames:
            w_hat[lo:hi] = fm.from_normal(W)[: hi - lo]
        for fm, c_hat in zip(forms, c_hats):
            # summed plane by plane, an order no BLAS kernel can change
            c = fm.weights[0] * area[:, 0]
            for j in range(1, n):
                c += fm.weights[j] * area[:, j]
            c_hat[lo:hi] = c[: hi - lo]


def _cf_allowance(form: SymplecticForm, lam: float, t: float) -> float:
    """How far the exact scheme's E cos(lam c_t) may sit from its continuum
    value: per plane, E|W_j|^2 * (lam a_j t)^4 / 24 times the omitted
    fourth-cumulant sum 24 * sum_{k>K} (s/k)^4."""
    x = np.asarray(form.weights, dtype=float) * (lam * t)
    return float(2.0 * _S ** 4 * _TAIL_4TH * np.sum(x ** 4))


def _run_tasks(fill, count: int, workers: int) -> None:
    """fill(lo, hi) over [0, count), in contiguous tasks over the workers,
    at most one task per unit; the pool starts no more threads than the
    process may run on, whatever the requested count."""
    if workers == 1:
        fill(0, count)
        return
    bounds = np.linspace(0, count, min(workers * 4, count) + 1).astype(int)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(workers, cpus or 1)) as pool:
        futs = [pool.submit(fill, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        for fut in futs:
            fut.result()


def sample_unit_endpoints(
    forms: Sequence[SymplecticForm],
    steps: Optional[int],
    base_seed: int,
    m: int,
    workers: int = 1,
) -> list:
    """Simulate m unit-time endpoints, one area per supplied form.

    `steps=None` draws the continuum law exactly; an integer draws the
    `steps`-step walk.  Forms share the same draws (they only weight the
    area), so scanning several form families costs one set of draws.
    Returns one EndpointBatch per form.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if steps is not None and steps < 1:
        raise ValueError("steps must be >= 1")
    if not forms:
        raise ValueError("forms must not be empty")
    dim = forms[0].dim
    for fm in forms:
        if fm.dim != dim:
            raise ValueError("all forms in one batch must share a dimension")
    c_hats = [np.empty(m) for _ in forms]
    workers = workers if m >= 256 else 1

    if steps is None:
        # forms with one frame share one w array
        frames, w_hats = {}, []
        for fm in forms:
            key = None if fm.frame is None else fm.frame.tobytes()
            w_hats.append(frames.setdefault(key, (fm, np.empty((m, dim))))[1])
        chunks = -(-m // _EXACT_CHUNK)
        _run_tasks(
            lambda lo, hi: _fill_exact(forms, frames.values(), base_seed, range(lo, hi), m, c_hats),
            chunks, workers,
        )
        return [EndpointBatch(fm, w, ch) for fm, w, ch in zip(forms, w_hats, c_hats)]

    w_hat = np.empty((m, dim))
    _run_tasks(
        lambda lo, hi: _fill_chunk(forms, steps, base_seed, lo, hi, w_hat, c_hats), m, workers
    )
    w_hat *= 1.0 / math.sqrt(steps)
    out = []
    for fm, ch in zip(forms, c_hats):
        ch /= steps
        out.append(EndpointBatch(form=fm, w_hat=w_hat, c_hat=ch))
    return out


def _require_finite(values: np.ndarray, what: str,
                    why: str = "the values overflowed or turned NaN") -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise RuntimeError(
            f"{what} produced {finite.size - np.count_nonzero(finite)} non-finite values out of "
            f"{finite.size}; {why} at these parameters"
        )


class _Estimator:
    """Means of per-sample columns over one batch and their errors: np.std's
    for one column, else the covariance's, which gives delta-method errors
    too; `mc` and `skew` read the first column.  A non-finite value raises
    RuntimeError naming `what`: a lone column's samples are checked, joined
    columns through their moments, and a gradient with its error."""

    def __init__(self, what: str, *columns: np.ndarray):
        m = columns[0].shape[0]
        self.what, self.columns, self.m = what, columns, m
        with np.errstate(over="ignore", invalid="ignore"):  # the squares overflow first
            if len(columns) == 1:
                self.means = [float(np.mean(columns[0]))]
                _require_finite(columns[0], what)
                self.std_errors = [float(np.std(columns[0], ddof=1) / math.sqrt(m))]
                checked, name = self.means + self.std_errors, "mean and standard error"
            else:
                # np.cov's own steps, whose row means are each column's np.mean
                x = np.stack(columns)
                means = x.mean(axis=1)
                self.means = means.tolist()
                x -= means[:, None]
                self.cov = np.dot(x, x.T.conj()) * np.true_divide(1, m - 1)
                self.std_errors = [math.sqrt(max(float(v), 0.0) / m) for v in np.diag(self.cov)]
                checked, name = np.append(self.cov, self.means), "moments"
        _require_finite(np.asarray(checked), f"the {name} of {what}")

    def mc(self) -> McEstimate:
        return McEstimate(self.means[0], self.std_errors[0], self.m)

    def delta_se(self, grad: np.ndarray, name: str) -> float:
        """The error of `name`, a function of the means with gradient `grad`."""
        with np.errstate(over="ignore", invalid="ignore"):
            se = math.sqrt(max(float(grad @ self.cov @ grad), 0.0) / self.m)
        _require_finite(np.append(grad, se), f"the gradient and error of {name} of {self.what}",
                        "a term overflowed or divided by a value that underflowed to 0")
        return se

    def skew(self) -> float:
        """The skewness of the mean, the per-sample one over sqrt(m)."""
        se, root = self.std_errors[0], math.sqrt(self.m)
        if se == 0.0:
            return 0.0
        d = (self.columns[0] - self.means[0]) / (se * root)
        return float(np.mean(d * d * d)) / root


def _z(gap: float, se: float) -> float:
    """gap / se; at se = 0, 0 for no gap and an infinity of its sign else."""
    return gap / se if se > 0.0 else math.copysign(math.inf, gap) if gap != 0.0 else 0.0


def _verdict(estimate: float, se: float, reference: float, allowance: float = 0.0,
             skew: float = 0.0, upper: bool = False, span: float = math.inf) -> Optional[bool]:
    """Whether |estimate - reference|, or with `upper` estimate - reference,
    is within the band 3 se + allowance; None once the band reaches `span`,
    the width of a range holding every estimate and reference.  NaN fails.

    A nonzero `skew` of the estimate takes Hall's correction (JRSS B 1992):
    rare large samples that carry a mean skew its z = gap / se, as a sample
    holding fewer has both a lower mean and a smaller se.  The band then
    holds se times z + a z^2 + a^2 z^3 / 3 + skew / 6, a = skew / 3, which
    increases with z; as z (1 + u (1 + u / 3)), u = a z, it never turns NaN.
    """
    band = 3.0 * se + allowance
    if band >= span:
        return None
    if not skew:
        return estimate <= reference + band if upper else abs(estimate - reference) <= band
    gap = estimate - reference
    u = skew * _z(gap, se) / 3.0
    gap = gap * (1.0 + u * (1.0 + u / 3.0)) + skew / 6.0 * se
    return gap <= band if upper else abs(gap) <= band


def _ensure_batch(
    form: SymplecticForm,
    cfg: PathConfig,
    m: int,
    workers: int,
    batch: Optional[EndpointBatch],
) -> EndpointBatch:
    if batch is not None:
        if batch.m < m:
            raise ValueError("supplied batch has fewer samples than requested")
        if not (np.array_equal(batch.form.weights, form.weights)
                and np.array_equal(batch.form.frame, form.frame)):
            raise ValueError("supplied batch was sampled for a different form")
        return batch
    return sample_unit_endpoints([form], cfg.steps, cfg.base_seed, m, workers)[0]


def _ddt_along_dilation(f: CylinderFunction, w: np.ndarray, c: np.ndarray, t: float):
    """d/dt f(sqrt(t) w_hat, t c_hat) per sample, given w = sqrt(t) w_hat and
    c = t c_hat: (<w_P, dF/dw> + 2 c dF/dc) / (2 t)."""
    wp = _projected(f, w)
    gw, gv = f.first_derivs(wp, c)
    return _sum(None if gw is None else np.einsum("ij,ij->i", wp, gw),
                None if gv is None else 2.0 * c * gv) / (2.0 * t)


@dataclass(frozen=True)
class HeatCheckReport:
    """Heat-equation check with common random numbers.

    `z` is the mean per-sample difference over its standard error, `skew`
    the skewness of that mean; the verdict takes Hall's correction of z by
    the skew (`_verdict`).
    """

    residual: float
    std_error: float
    ddt: McEstimate
    half_generator: McEstimate
    z: float
    skew: float

    @property
    def passed(self) -> bool:
        return _verdict(self.z, 1.0, 0.0, skew=self.skew)


def heat_equation_report(
    form: SymplecticForm,
    cfg: PathConfig,
    f: CylinderFunction,
    m: int,
    # `delta_t` is not read.  The slot stays because the benchmark
    # (perfbench/worker.py) still passes the old central-difference step
    # positionally, before `workers` and `batch`.
    delta_t: Optional[float] = None,
    workers: int = 1,
    batch: Optional[EndpointBatch] = None,
) -> HeatCheckReport:
    """Compare d/dt E[f] with 0.5 E[L_H f].

    The endpoint at time t is the dilation (sqrt(t) w_hat, t c_hat) of the
    unit-time one, so each sample's d/dt f is exact (`_ddt_along_dilation`).
    Both sides are computed per sample on the same draws, and the standard
    error and skewness are those of their difference (`HeatCheckReport`).
    """
    b = _ensure_batch(form, cfg, m, workers, batch)
    t = cfg.t

    def kernel(w, c):
        ddt, half_lap = _ddt_along_dilation(f, w, c, t), 0.5 * sub_laplacian_batch(form, f, w, c)
        return ddt, half_lap, ddt - half_lap

    ddt_vals, half_vals, diff = _per_sample(b, t, m, kernel)
    ddt = _Estimator(f"d/dt {f.name} at t = {t:g}", ddt_vals).mc()
    half_generator = _Estimator(f"L_H {f.name} at t = {t:g}", half_vals).mc()
    gap = _Estimator(f"d/dt {f.name} - L_H {f.name} / 2 at t = {t:g}", diff)
    est = gap.mc()
    return HeatCheckReport(abs(est.mean), est.std_error, ddt, half_generator,
                           _z(est.mean, est.std_error), gap.skew())


@dataclass(frozen=True)
class CharFunctionPoint:
    lam: float
    cos_mean: float
    cos_se: float
    sin_mean: float
    sin_se: float
    allowance: float  # the exact scheme's truncation bound on cos_mean


def levy_area_char_function(
    form: SymplecticForm,
    cfg: PathConfig,
    m: int,
    lambdas: Sequence[float],
    workers: int = 1,
    batch: Optional[EndpointBatch] = None,
) -> list:
    """Empirical E[cos(lambda c_t)] per lambda, with the exact scheme's
    truncation bound as its allowance against the continuum law; the sine
    channel is a symmetry diagnostic and should vanish within noise."""
    b = _ensure_batch(form, cfg, m, workers, batch)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        c = b.c_at(cfg.t)[:m]
        for lam in lambdas:
            lam = float(lam)
            if lam == 0.0:
                out.append(CharFunctionPoint(0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
                continue
            cos_est, sin_est = (
                _Estimator(f"{name}({lam:g} c) at t = {cfg.t:g}", fn(lam * c)).mc()
                for name, fn in (("cos", np.cos), ("sin", np.sin)))
            out.append(CharFunctionPoint(lam, cos_est.mean, cos_est.std_error, sin_est.mean,
                                         sin_est.std_error, _cf_allowance(form, lam, cfg.t)))
    return out


def endpoint_moments(batch: EndpointBatch, t: float, m: Optional[int] = None) -> dict:
    """Second moments used by the simulate diagnostics, with the continuum
    law's references E[|w|^2] = 2n t and E[c^2] = (t^2/4) sum_j a_j^2.
    """
    mm = batch.m if m is None else min(m, batch.m)
    hnorm_sq, c_sq = _per_sample(batch, t, mm, lambda w, c: (np.einsum("ij,ij->i", w, w), c * c))
    return {
        "hnorm_sq": _Estimator(f"|w|^2 at t = {t:g}", hnorm_sq).mc(),
        "c_sq": _Estimator(f"c^2 at t = {t:g}", c_sq).mc(),
        "hnorm_sq_expected": batch.form.dim * t,
        "c_sq_expected": (t * t / 8.0) * batch.form.frobenius_sq(),
    }
