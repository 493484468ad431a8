"""Cylinder functions and left-invariant differential calculus.

A cylinder function reads only a coordinate block of the horizontal part
plus the vertical coordinate: f(g) = F(P w, c).  Differentiating the group
law along g * exp(t X) for X = (A, a) gives the left-invariant derivative

    X~ f (w, c) = <grad_w F, A> + (a + 0.5*omega(w, A)) * dF/dc,

from which the horizontal gradient and the sub-Laplacian follow:

    (grad_H f)_j = dF/dw_j + 0.5*omega(w, e_j) * dF/dc          (j = 1..2n)
    L_H f       = sum_j [ d2F/dw_j2 + omega(w, e_j) * d2F/dw_j dc
                          + 0.25*omega(w, e_j)^2 * d2F/dc2 ].

Note the omega(w, e_j) coupling runs over all 2n directions even when F
only reads a sub-block, so gradients have full length 2n.  The same
formulas hold on the reduced group with theta in place of c.  An observable
is F plus two callables: `first` gives the partials the gradient reads and
`second` the ones the sub-Laplacian reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .group import GroupElement, LieVector, ReducedElement, wrap_angle
from .model import Projection, SymplecticForm, full_projection

__all__ = [
    "CylinderFunction",
    "left_invariant_derivative",
    "horizontal_gradient",
    "grad_norm_sq",
    "sub_laplacian",
    "compose_with_quotient",
    "multiply_functions",
    "make_registry_function",
    "registry_names",
    "REGISTRY_DEFAULT_SELECTION",
]

# tolerance of the construction-time periodicity probe
_PERIODICITY_TOL = 1e-10


@dataclass(frozen=True)
class CylinderFunction:
    """F over a coordinate projection plus the vertical coordinate, with its
    exact partials.

    F, first and second must be vectorized: wp has shape (..., 2m) (the
    projected coordinates in index order), v has shape (...), and every
    callable returns arrays with matching leading axes.  F returns (...),
    first returns (dF/dw (..., 2m), dF/dc (...)) and second returns
    (lap_w (...), d2F/dwdc (..., 2m), d2F/dc2 (...)).  lap_w is the flat
    Laplacian sum_i d2F/dw_i2, the only part of the flat Hessian that the
    sub-Laplacian reads.  A partial that vanishes identically is None, not
    an array of zeros, and the operators skip every term it multiplies; each
    callable returns at least one array.

    periodic=True declares 2*pi-periodicity in the vertical argument (checked
    at construction on a probe grid); only periodic functions may be read on
    the reduced group.
    """

    name: str
    projection: Projection
    F: Callable
    first: Callable
    second: Callable
    periodic: bool = False

    def __post_init__(self):
        if self.periodic:
            self._check_periodicity()

    def _check_periodicity(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 11], dtype=np.uint64)))
        wp = rng.standard_normal((8, self.projection.size))
        th = rng.uniform(0.0, 2.0 * math.pi, size=8)
        # equal values match, infinities included; finite ones may differ by
        # rounding relative to their own size; a NaN matches nothing
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.asarray(self.F(wp, th), float)
            b = np.asarray(self.F(wp, th + 2.0 * math.pi), float)
            diff = np.abs(a - b)
        close = (a == b) | (np.isfinite(diff) & (diff <= _PERIODICITY_TOL * (1.0 + np.abs(a))))
        if not np.all(close):
            raise ValueError(f"{self.name}: F is not 2*pi-periodic in the vertical argument")

    # -- evaluation ---------------------------------------------------------

    def value(self, wp, v):
        return np.asarray(self.F(np.asarray(wp, float), np.asarray(v, float)), float)

    def first_derivs(self, wp, v):
        """(dF/dw (..., 2m), dF/dc (...)) at the given points."""
        return tuple([None if p is None else np.asarray(p, float)
                      for p in self.first(np.asarray(wp, float), np.asarray(v, float))])

    def second_derivs(self, wp, v):
        """(sum_i d2F/dw_i2 (...), d2F/dwc (..., 2m), d2F/dcc (...))."""
        return tuple([None if p is None else np.asarray(p, float)
                      for p in self.second(np.asarray(wp, float), np.asarray(v, float))])


# -- helpers ---------------------------------------------------------------


def _sum(*terms):
    """The terms that are not None, added left to right; None if all are."""
    present = [x for x in terms if x is not None]
    return sum(present[1:], present[0]) if present else None


def _times(*factors):
    """The factors multiplied left to right; None if one of them is."""
    return None if any(x is None for x in factors) else functools.reduce(np.multiply, factors)


def _vertical_of(f: CylinderFunction, g) -> float:
    if isinstance(g, GroupElement):
        return g.c
    if isinstance(g, ReducedElement):
        if not f.periodic:
            raise ValueError(f"{f.name}: the reduced group needs a periodic function")
        return g.theta
    raise TypeError(f"not a group element: {type(g).__name__}")


def _check_compat(form: SymplecticForm, f: CylinderFunction, g) -> np.ndarray:
    if g.w.shape[0] != form.dim:
        raise ValueError("element dimension does not match the form")
    if f.projection.indices[-1] > form.dim:  # indices are sorted and 1-based
        raise ValueError("function projection exceeds the form dimension")
    return f.projection.zero_based


# -- point operations -------------------------------------------------------


def left_invariant_derivative(
    form: SymplecticForm, f: CylinderFunction, X: LieVector, g
) -> float:
    """(d/dt)|_0 f(g * exp(t X)) = <grad_w F, A> + (a + 0.5*omega(w,A)) dF/dc."""
    ix = _check_compat(form, f, g)
    if X.A.shape[0] != form.dim:
        raise ValueError("Lie vector dimension mismatch")
    v = _vertical_of(f, g)
    gw, gv = f.first_derivs(g.w[ix], v)
    return float(_sum(None if gw is None else np.dot(gw, X.A[ix]),
                      None if gv is None else (X.a + 0.5 * form.pair(g.w, X.A)) * gv))


def horizontal_gradient(form: SymplecticForm, f: CylinderFunction, g) -> np.ndarray:
    """Vector of length 2n with entries (e_j,0)~ f at g."""
    ix = _check_compat(form, f, g)
    v = _vertical_of(f, g)
    wp = _projected(f, g.w)
    gw, gv = f.first_derivs(wp, v)
    out = np.zeros(form.dim) if gv is None else 0.5 * gv * form.pair_with_basis(g.w)
    if wp is g.w:  # a full projection: out[ix] is all of out
        return _sum(out, gw)
    out[ix] = _sum(out[ix], gw)
    return out


def grad_norm_sq(form: SymplecticForm, f: CylinderFunction, g) -> float:
    grad = horizontal_gradient(form, f, g)
    return float(np.dot(grad, grad))


def sub_laplacian(form: SymplecticForm, f: CylinderFunction, g) -> float:
    """Sum over the 2n basis directions of the squared horizontal fields."""
    _check_compat(form, f, g)
    v = _vertical_of(f, g)
    lap, hwc, hcc = f.second_derivs(_projected(f, g.w), v)
    u = None if hwc is None and hcc is None else form.pair_with_basis(g.w)
    return float(_sum(lap, None if hwc is None else np.dot(_projected(f, u), hwc),
                      None if hcc is None else 0.25 * np.dot(u, u) * hcc))


# -- batched evaluation over endpoint clouds --------------------------------
# A full projection is read in place and has no complement term, which is
# exactly zero for it; a partial projection is gathered, an F-ordered copy.


def _projected(f: CylinderFunction, x: np.ndarray) -> np.ndarray:
    """The coordinates of x, one point or stacked, that f reads: x itself for a
    full projection, else a gathered copy in F's order."""
    idx = f.projection.indices  # sorted, distinct and 1-based: 1..k if the last is k
    return x if len(idx) == idx[-1] == x.shape[-1] else x[..., f.projection.zero_based]


def _pairing(form: SymplecticForm, f: CylinderFunction, w: np.ndarray):
    """u_P and the complement norm ||u||^2 - ||u_P||^2 of u = w Omega."""
    u = form.pair_with_basis(w)
    up = _projected(f, u)
    return up, None if up is u else np.einsum("ij,ij->i", u, u) - np.einsum("ij,ij->i", up, up)


def _grad_norm_sq(f: CylinderFunction, wp, v, pairing) -> np.ndarray:
    """||gw + 0.5 gv u_P||^2 + 0.25 gv^2 tail: the projected block plus the complement, pure
    vertical coupling.  pairing() gives (u_P, tail); it is called only if dF/dc is not None."""
    gw, gv = f.first_derivs(wp, v)
    if gv is None:
        return np.einsum("ij,ij->i", gw, gw)
    up, tail = pairing()
    inner = _sum(gw, 0.5 * gv[:, None] * up)
    full = np.einsum("ij,ij->i", inner, inner)
    return full if tail is None else full + 0.25 * gv * gv * tail


def value_batch(f: CylinderFunction, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return f.value(_projected(f, w), v)


def grad_norm_sq_batch(
    form: SymplecticForm, f: CylinderFunction, w: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """||grad_H f||^2 at stacked points; w is (m, 2n), v is (m,)."""
    return _grad_norm_sq(f, _projected(f, w), v, lambda: _pairing(form, f, w))


def sub_laplacian_batch(
    form: SymplecticForm, f: CylinderFunction, w: np.ndarray, v: np.ndarray
) -> np.ndarray:
    lap, hwc, hcc = f.second_derivs(_projected(f, w), v)
    u = None if hwc is None and hcc is None else form.pair_with_basis(w)
    return _sum(lap, None if hwc is None else np.einsum("ij,ij->i", _projected(f, u), hwc),
                None if hcc is None else 0.25 * np.einsum("ij,ij->i", u, u) * hcc)


# -- combinators ------------------------------------------------------------


def compose_with_quotient(f: CylinderFunction) -> CylinderFunction:
    """Lift a periodic function to the full group: (f o phi)(w, c) = F(w, wrap(c)).

    Because the lift wraps its vertical argument with the same wrap used for
    reduced endpoints, the per-sample identity (f o phi)(g) = f(phi(g)) holds
    bit for bit, and likewise for every derivative.
    """
    if not f.periodic:
        raise ValueError(f"{f.name}: only periodic functions factor through the quotient")

    def lift(call):
        return lambda wp, v: call(wp, wrap_angle(np.asarray(v, float)))

    out = replace(f, name=f.name + "_lifted", F=lift(f.F), first=lift(f.first),
                  second=lift(f.second), periodic=False)
    # f passed the periodicity probe, and the lift wraps first: no second probe
    object.__setattr__(out, "periodic", True)
    return out


def multiply_functions(f1: CylinderFunction, f2: CylinderFunction) -> CylinderFunction:
    """Pointwise product with Leibniz partials; projections must coincide."""
    if f1.projection != f2.projection:
        raise ValueError("product requires identical projections")

    def F(wp, v):
        return f1.F(wp, v) * f2.F(wp, v)

    def first(wp, v):
        a, b = f1.value(wp, v), f2.value(wp, v)
        (ga, va), (gb, vb) = f1.first_derivs(wp, v), f2.first_derivs(wp, v)
        return (_sum(_times(ga, b[..., None]), _times(a[..., None], gb)),
                _sum(_times(va, b), _times(a, vb)))

    def second(wp, v):
        a, b = f1.value(wp, v), f2.value(wp, v)
        (ga, va), (gb, vb) = f1.first_derivs(wp, v), f2.first_derivs(wp, v)
        (la, hwa, hca), (lb, hwb, hcb) = f1.second_derivs(wp, v), f2.second_derivs(wp, v)
        dot = None if ga is None or gb is None else np.einsum("...i,...i->...", ga, gb)
        va_col, vb_col = (None if x is None else x[..., None] for x in (va, vb))
        return (
            _sum(_times(la, b), _times(2.0, dot), _times(a, lb)),
            _sum(_times(hwa, b[..., None]), _times(ga, vb_col), _times(gb, va_col),
                 _times(a[..., None], hwb)),
            _sum(_times(hca, b), _times(2.0, va, vb), _times(a, hcb)),
        )

    return CylinderFunction(
        name=f"{f1.name}*{f2.name}",
        projection=f1.projection,
        F=F,
        first=first,
        second=second,
        periodic=f1.periodic and f2.periodic,
    )


# -- named registry ----------------------------------------------------------

REGISTRY_DEFAULT_SELECTION = (
    "poly_radial",
    "vertical_sq",
    "exp_linear(0.5)",
    "cos_theta",
    "gauss_bump(1.0)",
)


def _make_poly_radial(dim: int) -> CylinderFunction:
    return CylinderFunction(
        name="poly_radial",
        projection=full_projection(dim),
        F=lambda wp, v: np.einsum("...i,...i->...", wp, wp),
        first=lambda wp, v: (2.0 * wp, None),
        second=lambda wp, v: (np.full(wp.shape[:-1], 2.0 * wp.shape[-1]), None, None),
        periodic=True,  # no vertical dependence
    )


def _vertical_only(name: str, F, dF, d2F, periodic: bool) -> CylinderFunction:
    """F(v) of the vertical coordinate alone; dF and d2F are its derivatives."""
    return CylinderFunction(
        name=name,
        projection=Projection((1, 2)),  # any even block works; F ignores wp
        F=lambda wp, v: F(np.asarray(v, float)),
        first=lambda wp, v: (None, dF(np.asarray(v, float))),
        second=lambda wp, v: (None, None, d2F(np.asarray(v, float))),
        periodic=periodic,
    )


def _make_vertical_sq(dim: int) -> CylinderFunction:
    return _vertical_only(
        "vertical_sq", lambda v: v ** 2, lambda v: 2.0 * v, lambda v: np.full(v.shape, 2.0),
        periodic=False,
    )


def _make_cos_theta(dim: int) -> CylinderFunction:
    return _vertical_only(
        "cos_theta", np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v), periodic=True
    )


def _make_exp_linear(dim: int, lam: float = 0.5) -> CylinderFunction:
    lam = float(lam)

    def F(wp, v):
        return np.exp(lam * wp[..., 0])

    def first(wp, v):
        gw = np.zeros(wp.shape)
        gw[..., 0] = lam * F(wp, v)
        return gw, None

    return CylinderFunction(
        name=f"exp_linear({lam:g})",
        projection=Projection((1, 2)),
        F=F,
        first=first,
        second=lambda wp, v: (lam * lam * F(wp, v), None, None),
        periodic=True,
    )


def _make_gauss_bump(dim: int, sigma: float = 1.0) -> CylinderFunction:
    sigma = float(sigma)
    s2 = sigma * sigma
    s4 = s2 * s2
    # the partials divide by sigma**4, and where it overflows F is the constant 1
    if not (sigma > 0 and 0.0 < s4 < math.inf):
        raise ValueError("gauss_bump needs sigma > 0 with 0 < sigma**4 < inf")

    def F(wp, v):
        r2 = np.einsum("...i,...i->...", wp, wp) + np.asarray(v, float) ** 2
        return np.exp(-r2 / (2.0 * s2))

    def first(wp, v):
        f = F(wp, v)
        return -(wp / s2) * f[..., None], -(np.asarray(v, float) / s2) * f

    def second(wp, v):
        f = F(wp, v)
        vv = np.asarray(v, float)
        return (
            # term by term: the closed form (|wp|^2/s4 - k/s2) F rounds differently
            ((wp * wp / s4 - 1.0 / s2) * f[..., None]).sum(-1),
            (wp * vv[..., None] / s4) * f[..., None],
            (vv * vv / s4 - 1.0 / s2) * f,
        )

    return CylinderFunction(
        name=f"gauss_bump({sigma:g})",
        projection=full_projection(dim),
        F=F,
        first=first,
        second=second,
        periodic=False,
    )


_REGISTRY = {
    "poly_radial": (_make_poly_radial, 0),
    "vertical_sq": (_make_vertical_sq, 0),
    "exp_linear": (_make_exp_linear, 1),
    "cos_theta": (_make_cos_theta, 0),
    "gauss_bump": (_make_gauss_bump, 1),
}


def registry_names():
    return tuple(sorted(_REGISTRY))


def make_registry_function(selector: str, dim: int) -> CylinderFunction:
    """Build a named test function, e.g. "poly_radial" or "exp_linear(0.5)".

    dim is the full horizontal dimension 2n of the model the function will
    be evaluated on.
    """
    sel = selector.strip()
    args = ()
    if "(" in sel:
        if not sel.endswith(")"):
            raise ValueError(f"malformed function selector: {selector!r}")
        head, inner = sel[:-1].split("(", 1)
        sel = head.strip()
        inner = inner.strip()
        if inner:
            try:
                args = tuple(float(tok) for tok in inner.split(","))
            except ValueError:
                raise ValueError(f"malformed parameters in selector: {selector!r}") from None
            if not all(math.isfinite(a) for a in args):
                raise ValueError(f"non-finite parameter in selector: {selector!r}")
    if sel not in _REGISTRY:
        raise ValueError(f"unknown function {sel!r}; known: {', '.join(registry_names())}")
    factory, nargs = _REGISTRY[sel]
    if len(args) > nargs:
        raise ValueError(f"{sel} takes at most {nargs} parameter(s)")
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be an even integer >= 2")
    return factory(dim, *args)
