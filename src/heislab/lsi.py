"""Log-Sobolev functionals under the heat-kernel measure.

For a function f and the time-t endpoint law, the two sides of the
inequality are estimated from one batch of endpoints:

    entropy  Ent(f^2) = E[f^2 log f^2] - E[f^2] log E[f^2]
    energy   E[ |grad_H f|^2 ]

and the ratio entropy/energy is compared against c_ref * t.  Standard
errors propagate through the nonlinearities by the delta method using the
sample covariance of the three underlying averages, which matters because
entropy and energy are computed from the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import (
    CylinderFunction,
    compose_with_quotient,
    grad_norm_sq_batch,
    make_registry_function,
    value_batch,
)
from .diffusion import (
    SPACE_FULL,
    SPACE_REDUCED,
    EndpointBatch,
    PathConfig,
    _ensure_batch,
    _per_sample,
    _require_finite,
    _vertical,
    sample_unit_endpoints,
)
from .model import SymplecticForm, make_isotropic_form, make_nonisotropic_form

__all__ = [
    "DEFAULT_C_REF",
    "LsiReport",
    "lsi_ratio",
    "FormFamily",
    "ISOTROPIC_FAMILY",
    "ASCENDING_WEIGHTS_FAMILY",
    "family_from_name",
    "ScanResult",
    "lsi_scan",
    "QuotientInvarianceReport",
    "quotient_invariance_report",
]

DEFAULT_C_REF = 4.0
_TINY = 1e-300
# The ratio is only quoted when the energy mean clears its own noise floor.
_ENERGY_SNR = 5.0

STATUS_OK = "ok"
STATUS_UNDEFINED = "ratio_undefined"
STATUS_ERROR = "error"


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = x > _TINY
    out[mask] = x[mask] * np.log(x[mask])
    return out


@dataclass(frozen=True)
class LsiReport:
    form_name: str
    f_name: str
    n: int
    t: float
    m: int
    entropy: float
    entropy_se: float
    energy: float
    energy_se: float
    ratio: Optional[float]
    ratio_se: Optional[float]
    c_ref: float
    bound: float
    passed: Optional[bool]
    status: str
    message: str = ""
    space: str = SPACE_FULL
    base_seed: int = 42

    def row(self) -> dict:
        """Flat mapping used by the CSV/JSON emitters."""
        return {
            "n": self.n,
            "t": self.t,
            "form": self.form_name,
            "f": self.f_name,
            "entropy": self.entropy,
            "entropy_se": self.entropy_se,
            "energy": self.energy,
            "energy_se": self.energy_se,
            "ratio": self.ratio,
            "ratio_se": self.ratio_se,
            "bound": self.bound,
            "pass": self.passed,
        }


def _entropy_from_moments(a: float, b: float) -> float:
    if b <= _TINY:
        return 0.0
    return a - b * math.log(b)


def _cell(form_name: str, f: CylinderFunction, n: int, cfg: PathConfig, m: int,
          c_ref: float, space: str) -> dict:
    """The LsiReport fields that name a cell, shared by every status."""
    return dict(form_name=form_name, f_name=f.name, n=n, t=cfg.t, m=m, c_ref=c_ref,
                bound=c_ref * cfg.t, space=space, base_seed=cfg.base_seed)


def lsi_ratio(
    form: SymplecticForm,
    cfg: PathConfig,
    f: CylinderFunction,
    m: int,
    space: str = SPACE_FULL,
    c_ref: float = DEFAULT_C_REF,
    workers: int = 1,
    batch: Optional[EndpointBatch] = None,
    form_name: str = "custom",
) -> LsiReport:
    """Both sides of the inequality, their ratio, and the pass verdict.

    The estimator core: the means of f^2 log f^2, f^2 and |grad_H f|^2 over
    one batch, their joint sample covariance, and the delta-method errors
    from it.  The verdict compares ratio against c_ref * t with a
    3-standard-error allowance.  When the energy mean does not exceed 5 of
    its standard errors the ratio is statistically meaningless and is
    reported as undefined rather than as a huge noisy number.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if space == SPACE_REDUCED and not f.periodic:
        raise ValueError(f"{f.name}: reduced-space functionals need a periodic function")
    batch = _ensure_batch(form, cfg, m, workers, batch)

    def kernel(w, c):
        v = _vertical(c, space)
        return value_batch(f, w, v), grad_norm_sq_batch(form, f, w, v)

    vals, gsq = _per_sample(batch, cfg.t, m, kernel)
    _require_finite(vals, f"{f.name} at t = {cfg.t:g}")
    _require_finite(gsq, f"grad_H {f.name} at t = {cfg.t:g}")
    fsq = vals * vals
    ylog = _xlogx(fsq)
    a, b, c = float(np.mean(ylog)), float(np.mean(fsq)), float(np.mean(gsq))
    cov = np.cov(np.stack([ylog, fsq, gsq]), ddof=1)
    h = _entropy_from_moments(a, b)
    d_b = -(1.0 + math.log(b)) if b > _TINY else 0.0

    def se(grad):
        return math.sqrt(max(float(grad @ cov @ grad), 0.0) / m)

    energy_se = math.sqrt(max(float(cov[2, 2]), 0.0) / m)
    base = dict(
        _cell(form_name, f, form.n, cfg, m, c_ref, space),
        entropy=h,
        entropy_se=se(np.array([1.0, d_b, 0.0])),
        energy=c,
        energy_se=energy_se,
    )
    if not (c > _ENERGY_SNR * energy_se and c > 0.0):
        return LsiReport(
            ratio=None,
            ratio_se=None,
            passed=None,
            status=STATUS_UNDEFINED,
            message="energy mean below its noise floor; ratio not quoted",
            **base,
        )
    ratio, ratio_se = h / c, se(np.array([1.0 / c, d_b / c, -h / (c * c)]))
    passed = ratio <= base["bound"] + 3.0 * ratio_se
    return LsiReport(ratio=ratio, ratio_se=ratio_se, passed=passed, status=STATUS_OK, **base)


@dataclass(frozen=True)
class FormFamily:
    """A named rule producing one symplectic form per dimension."""

    name: str
    builder: Callable[[int], SymplecticForm]

    def form(self, n: int) -> SymplecticForm:
        return self.builder(n)


ISOTROPIC_FAMILY = FormFamily("isotropic", make_isotropic_form)
ASCENDING_WEIGHTS_FAMILY = FormFamily(
    "ascending_weights", lambda n: make_nonisotropic_form(tuple(range(2, n + 2)))
)

_FAMILIES = {
    "isotropic": ISOTROPIC_FAMILY,
    "ascending_weights": ASCENDING_WEIGHTS_FAMILY,
}


def family_from_name(name: str) -> FormFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown form family {name!r}; expected one of {sorted(_FAMILIES)}"
        ) from None


class ScanResult(tuple):
    """The grid of reports, in scan order, with its worst-cell summaries."""

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self if r.passed is not None)

    def max_ratio_by_dim(self, t: float) -> dict:
        """Per-dimension worst cell (largest defined ratio) at a fixed t."""
        return self._max_ratio_by(t, "n")

    def max_ratio_by_function(self, t: float) -> dict:
        """Per-function worst cell (largest defined ratio) at a fixed t."""
        return self._max_ratio_by(t, "f_name")

    def _max_ratio_by(self, t: float, key: str) -> dict:
        out: dict = {}
        for r in self:
            if r.t != t or r.ratio is None:
                continue
            k = getattr(r, key)
            if k not in out or r.ratio > out[k].ratio:
                out[k] = r
        return out


def lsi_scan(
    families: Sequence[FormFamily],
    dims: Sequence[int],
    t_list: Sequence[float],
    f_registry: Sequence[str],
    m: int,
    steps: Optional[int] = None,
    base_seed: int = 42,
    c_ref: float = DEFAULT_C_REF,
    space: str = SPACE_FULL,
    workers: int = 1,
) -> ScanResult:
    """Grid of lsi_ratio cells over (family, dimension, t, function).

    All families at one dimension share the same draws (only the area
    weighting differs; `steps=None` samples the exact law, an integer the
    walk) and the whole t grid reuses them through exact
    Brownian scaling, so the scan cost is one batch per dimension.  A cell
    whose values overflow or turn NaN is reported with status "error"
    instead of aborting the scan.
    """
    if not families:
        raise ValueError("need at least one form family")
    reports = []
    for n in dims:
        forms = [fam.form(n) for fam in families]
        batches = sample_unit_endpoints(forms, steps, base_seed, m, workers)
        fs = [make_registry_function(sel, 2 * n) for sel in f_registry]
        for fam, form, batch in zip(families, forms, batches):
            for f in fs:
                for t in t_list:
                    cfg = PathConfig(t=float(t), steps=steps, base_seed=base_seed)
                    try:
                        rep = lsi_ratio(
                            form,
                            cfg,
                            f,
                            m,
                            space=space,
                            c_ref=c_ref,
                            batch=batch,
                            form_name=fam.name,
                        )
                    except (RuntimeError, ValueError) as exc:
                        rep = LsiReport(
                            **_cell(fam.name, f, n, cfg, m, c_ref, space),
                            entropy=math.nan,
                            entropy_se=math.nan,
                            energy=math.nan,
                            energy_se=math.nan,
                            ratio=None,
                            ratio_se=None,
                            passed=None,
                            status=STATUS_ERROR,
                            message=str(exc),
                        )
                    reports.append(rep)
    return ScanResult(reports)


@dataclass(frozen=True)
class QuotientInvarianceReport:
    """Compares reduced-space evaluation with the lifted full-space one.

    Both paths wrap the vertical coordinate through the same function, so
    values agree bit for bit; the exact partials make the gradients and
    every downstream estimate inherit that equality.
    """

    f_name: str
    m: int
    t: float
    value_max_abs_diff: float
    grad_sq_max_abs_diff: float
    mean_reduced: float
    mean_lifted: float
    l2_reduced: float
    l2_lifted: float
    entropy_reduced: float
    entropy_lifted: float
    energy_reduced: float
    energy_lifted: float
    values_bitwise_equal: bool
    grads_bitwise_equal: bool

    @property
    def bitwise_equal(self) -> bool:
        return (
            self.values_bitwise_equal
            and self.grads_bitwise_equal
            and self.mean_reduced == self.mean_lifted
            and self.l2_reduced == self.l2_lifted
            and self.entropy_reduced == self.entropy_lifted
            and self.energy_reduced == self.energy_lifted
        )


def quotient_invariance_report(
    form: SymplecticForm,
    cfg: PathConfig,
    f: CylinderFunction,
    m: int,
    workers: int = 1,
    batch: Optional[EndpointBatch] = None,
) -> QuotientInvarianceReport:
    """Evaluate f on wrapped endpoints vs its lift on raw endpoints."""
    if not f.periodic:
        raise ValueError(f"{f.name}: quotient comparison needs a periodic function")
    batch = _ensure_batch(form, cfg, m, workers, batch)
    lifted = compose_with_quotient(f)

    def kernel(w, c):
        theta = _vertical(c, SPACE_REDUCED)
        return (value_batch(f, w, theta), value_batch(lifted, w, c),
                grad_norm_sq_batch(form, f, w, theta), grad_norm_sq_batch(form, lifted, w, c))

    vals_r, vals_l, gsq_r, gsq_l = _per_sample(batch, cfg.t, m, kernel)
    for vals in (vals_r, vals_l, gsq_r, gsq_l):
        _require_finite(vals, f"{f.name} at t = {cfg.t:g}")

    fsq_r, fsq_l = vals_r * vals_r, vals_l * vals_l
    ent_r = _entropy_from_moments(float(np.mean(_xlogx(fsq_r))), float(np.mean(fsq_r)))
    ent_l = _entropy_from_moments(float(np.mean(_xlogx(fsq_l))), float(np.mean(fsq_l)))

    return QuotientInvarianceReport(
        f_name=f.name,
        m=m,
        t=cfg.t,
        value_max_abs_diff=float(np.max(np.abs(vals_r - vals_l))),
        grad_sq_max_abs_diff=float(np.max(np.abs(gsq_r - gsq_l))),
        mean_reduced=float(np.mean(vals_r)),
        mean_lifted=float(np.mean(vals_l)),
        l2_reduced=float(np.mean(fsq_r)),
        l2_lifted=float(np.mean(fsq_l)),
        entropy_reduced=ent_r,
        entropy_lifted=ent_l,
        energy_reduced=float(np.mean(gsq_r)),
        energy_lifted=float(np.mean(gsq_l)),
        values_bitwise_equal=bool(np.array_equal(vals_r, vals_l)),
        grads_bitwise_equal=bool(np.array_equal(gsq_r, gsq_l)),
    )
