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

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    CylinderFunction,
    compose_with_quotient,
    grad_norm_sq_batch,
    make_registry_function,
    value_batch,
)
from .calculus import _grad_norm_sq, _pairing, _projected
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
    "FORM_FAMILIES",
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
    np.log(x, out=out, where=mask)
    return np.multiply(x, out, out=out, where=mask)


@dataclass(frozen=True)
class LsiReport:
    form_name: str
    f_name: str
    n: int
    t: float
    entropy: float
    entropy_se: float
    energy: float
    energy_se: float
    ratio: Optional[float]
    ratio_se: Optional[float]
    bound: float
    passed: Optional[bool]
    status: str
    message: str = ""

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


def _cell(form_name: str, f: CylinderFunction, n: int, t: float, c_ref: float) -> dict:
    """The LsiReport fields that name a cell, shared by every status."""
    return dict(form_name=form_name, f_name=f.name, n=n, t=t, bound=c_ref * t)


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
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        fsq = vals * vals
        ylog = _xlogx(fsq)
        a, b, c = float(np.mean(ylog)), float(np.mean(fsq)), float(np.mean(gsq))
        cov = np.cov(np.stack([ylog, fsq, gsq]), ddof=1)
    _require_finite(np.append(cov, (a, b, c)), f"the moments of {f.name} at t = {cfg.t:g}")
    h = _entropy_from_moments(a, b)
    d_b = -(1.0 + math.log(b)) if b > _TINY else 0.0

    def se(grad):
        return math.sqrt(max(float(grad @ cov @ grad), 0.0) / m)

    energy_se = math.sqrt(max(float(cov[2, 2]), 0.0) / m)
    base = dict(
        _cell(form_name, f, form.n, cfg.t, c_ref),
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


# lsi-scan's form families: name -> the form at n blocks
FORM_FAMILIES = {
    "isotropic": make_isotropic_form,
    "ascending_weights": lambda n: make_nonisotropic_form(tuple(range(2, n + 2))),
}


def lsi_scan(
    families: Sequence[str],
    dims: Sequence[int],
    t_list: Sequence[float],
    f_registry: Sequence[str],
    m: int,
    base_seed: int = 42,
    c_ref: float = DEFAULT_C_REF,
    space: str = SPACE_FULL,
    workers: int = 1,
) -> list:
    """Grid of lsi_ratio cells over (family, dimension, t, function), in
    that nesting order, families named as in FORM_FAMILIES.

    All families at one dimension share the same draws of the exact law
    (only the area weighting differs) and the whole t grid reuses them
    through exact Brownian scaling, so the scan cost is one batch per
    dimension.  A cell whose values overflow or turn NaN is reported with
    status "error" instead of aborting the scan.
    """
    if not families or any(name not in FORM_FAMILIES for name in families):
        raise ValueError(
            f"need one or more form families from {sorted(FORM_FAMILIES)}, got {list(families)}"
        )
    reports = []
    for n in dims:
        forms = [FORM_FAMILIES[name](n) for name in families]
        batches = sample_unit_endpoints(forms, None, base_seed, m, workers)
        fs = [make_registry_function(sel, 2 * n) for sel in f_registry]
        for name, form, batch in zip(families, forms, batches):
            for f in fs:
                for t in t_list:
                    cfg = PathConfig(t=float(t), base_seed=base_seed)
                    try:
                        rep = lsi_ratio(
                            form,
                            cfg,
                            f,
                            m,
                            space=space,
                            c_ref=c_ref,
                            batch=batch,
                            form_name=name,
                        )
                    except (RuntimeError, ValueError) as exc:
                        rep = LsiReport(
                            **_cell(name, f, n, cfg.t, c_ref),
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
    return reports


@dataclass(frozen=True)
class QuotientInvarianceReport:
    """Compares reduced-space evaluation with the lifted full-space one.

    Both paths wrap the vertical coordinate through the same function, so
    values agree bit for bit, and the exact partials make the gradients
    inherit that equality.  `bitwise_equal` says both per-sample arrays are
    equal; every estimate reduced from equal arrays is then equal too.
    """

    f_name: str
    m: int
    t: float
    value_max_abs_diff: float
    grad_sq_max_abs_diff: float
    l2_reduced: float
    l2_lifted: float
    entropy_reduced: float
    entropy_lifted: float
    energy_reduced: float
    energy_lifted: float
    bitwise_equal: bool


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
        # the pairing reads w only: computed once for both, if either reads it
        theta = _vertical(c, SPACE_REDUCED)
        wp, pairing = _projected(f, w), functools.cache(lambda: _pairing(form, f, w))
        return (f.value(wp, theta), lifted.value(wp, c),
                _grad_norm_sq(f, wp, theta, pairing), _grad_norm_sq(lifted, wp, c, pairing))

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
        l2_reduced=float(np.mean(fsq_r)),
        l2_lifted=float(np.mean(fsq_l)),
        entropy_reduced=ent_r,
        entropy_lifted=ent_l,
        energy_reduced=float(np.mean(gsq_r)),
        energy_lifted=float(np.mean(gsq_l)),
        bitwise_equal=bool(np.array_equal(vals_r, vals_l) and np.array_equal(gsq_r, gsq_l)),
    )
