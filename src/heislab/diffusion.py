"""Hypoelliptic Brownian motion and Monte-Carlo expectation machinery.

A path is N Gaussian increments dB_k ~ Normal(0, (t/N) I_{2n}); the endpoint
carries the horizontal sum and the discrete area integral

    w = sum_k dB_k,      c = 0.5 * sum_k omega(B_{k-1}, dB_k)

(left-point rule; the midpoint correction 0.5*omega(dB, dB) vanishes because
omega is skew).  Increments are sqrt(t/N) * Z with Z standard normal, so the
endpoint at time t is exactly (sqrt(t) * w_hat, t * c_hat) where (w_hat,
c_hat) is the unit-time endpoint of the same draws.  One simulated batch
therefore serves a whole t grid with common random numbers, which the
heat-equation residual requires.

Determinism contract: sample i draws from a Philox stream keyed by
(base_seed, i), starting at counter 0, so results are bit-identical
regardless of execution order or worker count; per-sample values land in
index-addressed slots and are reduced in a fixed order.

The walk runs in chunks of consecutive samples, one chunk per task.  A chunk
builds one Philox generator and re-keys it for each sample, instead of
constructing a generator per sample.  It draws a block of samples' normals
into one (B, N, 2n) array, then takes the partial sums, the products with
each Omega and the area reductions once per block.  Every operation acts on
each sample alone, in the order a single sample would use, so the block size
changes no sample's bits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import CylinderFunction, sub_laplacian_batch, value_batch
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
    """Terminal time, step count, and the base seed of the run."""

    t: float = 1.0
    steps: int = 1000
    base_seed: int = 42

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError("t must be positive and finite")
        if self.steps < 1:
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


# Bound on the elements (samples x steps x 2n) of one block of the walk, so
# its working arrays stay small whatever m is.
_BLOCK_ELEMENTS = 1 << 15


def _stream(base_seed: int, sample_index: int, gen: np.random.Generator) -> np.random.Generator:
    """`gen`, re-keyed to sample `sample_index`'s Philox stream: key
    (base_seed, sample_index), counter 0, empty buffer."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [base_seed, sample_index]},
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
    steps: int
    base_seed: int
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

    def vertical_at(self, t: float, space: str) -> np.ndarray:
        if space == SPACE_FULL:
            return self.c_at(t)
        if space == SPACE_REDUCED:
            return self.theta_at(t)
        raise ValueError(f"unknown space {space!r}; expected one of {_SPACES}")


def _fill_chunk(omegas, steps, base_seed, lo, hi, w_hat, c_hats):
    dim = omegas[0].shape[0]
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
        for k, om in enumerate(omegas):
            p = sb[:, :-1] @ om
            if whole_block:
                c_hats[k][a:b] = 0.5 * np.einsum("bkj,bkj->b", p, zb)
            else:
                c_hats[k][a:b] = [0.5 * np.einsum("kj,kj->", pj, zj) for pj, zj in zip(p, zb)]
        w_hat[a:b] = sb[:, -1]


def sample_unit_endpoints(
    forms: Sequence[SymplecticForm],
    steps: int,
    base_seed: int,
    m: int,
    workers: int = 1,
) -> list:
    """Simulate m unit-time endpoints, one area per supplied form.

    Forms share the same Gaussian draws (they only weight the area), so
    scanning several form families costs one set of normals.  Returns one
    EndpointBatch per form.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not forms:
        raise ValueError("forms must not be empty")
    dim = forms[0].dim
    for fm in forms:
        if fm.dim != dim:
            raise ValueError("all forms in one batch must share a dimension")
    omegas = [fm.omega for fm in forms]
    w_hat = np.empty((m, dim))
    c_hats = [np.empty(m) for _ in forms]

    if workers == 1 or m < 256:
        _fill_chunk(omegas, steps, base_seed, 0, m, w_hat, c_hats)
    else:
        bounds = np.linspace(0, m, workers * 4 + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(_fill_chunk, omegas, steps, base_seed, lo, hi, w_hat, c_hats)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for fut in futs:
                fut.result()

    inv_sqrt_n = 1.0 / math.sqrt(steps)
    w_hat *= inv_sqrt_n
    out = []
    for fm, ch in zip(forms, c_hats):
        ch /= steps
        out.append(
            EndpointBatch(form=fm, steps=steps, base_seed=base_seed, w_hat=w_hat, c_hat=ch)
        )
    return out


def _mc_from_values(values: np.ndarray) -> McEstimate:
    m = values.shape[0]
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(m))
    return McEstimate(mean=mean, std_error=se, m=m)


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise RuntimeError(
            f"{what} produced {int(bad.sum())} non-finite values out of {values.size}; "
            "the observable is not integrable at these parameters"
        )


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
        if not np.array_equal(batch.form.omega, form.omega):
            raise ValueError("supplied batch was sampled for a different form")
        return batch
    return sample_unit_endpoints([form], cfg.steps, cfg.base_seed, m, workers)[0]


@dataclass(frozen=True)
class HeatCheckReport:
    """Two-sided heat-equation check with common random numbers."""

    residual: float
    std_error: float
    ddt: McEstimate
    half_generator: McEstimate
    # the smallest d/dt E[f] the central difference resolves: one ulp of
    # the largest |f| at each end, over 2 delta_t
    resolution: float

    @property
    def passed(self) -> bool:
        return self.residual <= 3.0 * self.std_error + self.resolution


def heat_equation_report(
    form: SymplecticForm,
    cfg: PathConfig,
    f: CylinderFunction,
    m: int,
    delta_t: float,
    workers: int = 1,
    batch: Optional[EndpointBatch] = None,
) -> HeatCheckReport:
    """Compare d/dt E[f] (central difference) with 0.5 E[L_H f].

    All three time points reuse the same unit-time draws, so the difference
    is computed per sample and its standard error reflects the correlated
    estimator actually used.  The check passes within 3 standard errors plus
    the difference's rounding resolution.
    """
    if not (0.0 < delta_t < cfg.t):
        raise ValueError("delta_t must lie in (0, t)")
    b = _ensure_batch(form, cfg, m, workers, batch)
    t0, tp, tm = cfg.t, cfg.t + delta_t, cfg.t - delta_t
    f_plus = value_batch(f, b.w_at(tp)[:m], b.c_at(tp)[:m])
    f_minus = value_batch(f, b.w_at(tm)[:m], b.c_at(tm)[:m])
    _require_finite(f_plus, f"{f.name} at t = {cfg.t:g}")
    _require_finite(f_minus, f"{f.name} at t = {cfg.t:g}")
    ddt_vals = (f_plus - f_minus) / (2.0 * delta_t)
    lap_vals = sub_laplacian_batch(form, f, b.w_at(t0)[:m], b.c_at(t0)[:m])
    _require_finite(lap_vals, f"L_H {f.name} at t = {cfg.t:g}")
    diff = ddt_vals - 0.5 * lap_vals
    est = _mc_from_values(diff)
    peak = max(np.max(np.abs(f_plus)), np.max(np.abs(f_minus)))
    return HeatCheckReport(
        residual=abs(est.mean),
        std_error=est.std_error,
        ddt=_mc_from_values(ddt_vals),
        half_generator=_mc_from_values(0.5 * lap_vals),
        resolution=float(np.spacing(peak)) / delta_t,
    )


@dataclass(frozen=True)
class CharFunctionPoint:
    lam: float
    cos_mean: float
    cos_se: float
    sin_mean: float
    sin_se: float


def levy_area_char_function(
    form: SymplecticForm,
    cfg: PathConfig,
    m: int,
    lambdas: Sequence[float],
    workers: int = 1,
    batch: Optional[EndpointBatch] = None,
) -> list:
    """Empirical E[cos(lambda c_t)] per lambda; the sine channel is a
    symmetry diagnostic and should vanish within noise."""
    b = _ensure_batch(form, cfg, m, workers, batch)
    c = b.c_at(cfg.t)[:m]
    out = []
    for lam in lambdas:
        lam = float(lam)
        if lam == 0.0:
            out.append(CharFunctionPoint(0.0, 1.0, 0.0, 0.0, 0.0))
            continue
        cos_est = _mc_from_values(np.cos(lam * c))
        sin_est = _mc_from_values(np.sin(lam * c))
        out.append(
            CharFunctionPoint(lam, cos_est.mean, cos_est.std_error, sin_est.mean, sin_est.std_error)
        )
    return out


def endpoint_moments(batch: EndpointBatch, t: float, m: Optional[int] = None) -> dict:
    """Second moments used by the simulate diagnostics.

    Exact references for N steps: E[|w|^2] = 2n t and
    E[c^2] = (t^2/8) ||Omega||_F^2 (1 - 1/N)  (partial-sum isometry).
    """
    mm = batch.m if m is None else m
    w = batch.w_at(t)[:mm]
    c = batch.c_at(t)[:mm]
    return {
        "hnorm_sq": _mc_from_values(np.einsum("ij,ij->i", w, w)),
        "c_sq": _mc_from_values(c * c),
        "hnorm_sq_expected": batch.form.dim * t,
        "c_sq_expected_discrete": (t * t / 8.0)
        * batch.form.frobenius_sq()
        * (1.0 - 1.0 / batch.steps),
        "c_sq_expected_continuum": (t * t / 8.0) * batch.form.frobenius_sq(),
    }
