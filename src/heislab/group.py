"""Group elements and group laws.

The full group lives on R^{2n} x R with product

    (w1, c1) * (w2, c2) = (w1 + w2, c1 + c2 + 0.5*omega(w1, w2)),

which is step-2 nilpotent: the only surviving bracket is the vertical one.
The reduced group keeps the vertical coordinate on the circle, stored as the
canonical representative theta in [0, 2*pi).

Elements are checked once, when they are built.  Results that cannot leave
the valid set are not checked again: the inverse, the quotient, and the
bracket's zero horizontal part.  Products and brackets are checked, because
w1 + w2 and omega(w1, w2) can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import SymplecticForm

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "GroupElement",
    "ReducedElement",
    "LieVector",
    "wrap_angle",
    "angle_distance",
    "identity",
    "multiply",
    "inverse",
    "multiply_reduced",
    "quotient",
    "bracket",
]


def wrap_angle(c):
    """Canonical representative of c mod 2*pi in [0, 2*pi).

    Exact floating remainder (fmod) followed by a single correction.  The
    correction can round back up to exactly 2*pi for tiny negative inputs,
    so that endpoint is folded to 0.  Works elementwise on arrays; finite
    Python numbers take the same steps in ``math`` and give the same bits.
    """
    if isinstance(c, (float, int)) and -math.inf < c < math.inf:
        r = math.fmod(c, TWO_PI)
        if r < 0.0:
            r += TWO_PI
            if r >= TWO_PI:
                r -= TWO_PI
        return r
    r = np.fmod(c, TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    r = np.where(r >= TWO_PI, r - TWO_PI, r)
    if np.ndim(c) == 0:
        return float(r)
    return r


def angle_distance(a: float, b: float) -> float:
    """Distance on the circle: min(|d|, 2*pi - |d|) for d = a - b mod 2*pi."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


def _as_vector(w) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1:
        raise ValueError("horizontal part must be a 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError("horizontal part has non-finite entries")
    return arr


def _as_finite(x, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite")
    return x


def _valid(cls, w: np.ndarray, v: float):
    """`cls`(w, v) without the constructor's checks: w and v are known valid."""
    el = object.__new__(cls)
    hname, vname = cls.__match_args__
    object.__setattr__(el, hname, w)
    object.__setattr__(el, vname, v)
    return el


@dataclass(frozen=True)
class GroupElement:
    """Point (w, c) of the full group; w has length 2n."""

    w: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w))
        object.__setattr__(self, "c", _as_finite(self.c, "vertical coordinate"))


@dataclass(frozen=True)
class ReducedElement:
    """Point (w, theta) of the reduced group; theta canonical in [0, 2*pi)."""

    w: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w))
        th = _as_finite(self.theta, "theta")
        if not 0.0 <= th < TWO_PI:
            raise ValueError("theta must lie in [0, 2*pi); use quotient/wrap_angle")
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True)
class LieVector:
    """Tangent vector (A, a): horizontal part A plus vertical rate a."""

    A: np.ndarray
    a: float

    def __post_init__(self):
        object.__setattr__(self, "A", _as_vector(self.A))
        object.__setattr__(self, "a", _as_finite(self.a, "vertical rate"))


def identity(dim: int) -> GroupElement:
    return GroupElement(np.zeros(dim), 0.0)


def _check_dim(form: "SymplecticForm", *elements) -> None:
    for el in elements:
        if el.w.shape[0] != form.dim:
            raise ValueError(
                f"dimension mismatch: element has {el.w.shape[0]} horizontal "
                f"coordinates, form expects {form.dim}"
            )


def multiply(form: "SymplecticForm", g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product (w1+w2, c1+c2+0.5*omega(w1,w2))."""
    _check_dim(form, g1, g2)
    return GroupElement(g1.w + g2.w, g1.c + g2.c + 0.5 * form.pair(g1.w, g2.w))


def inverse(form: "SymplecticForm", g: GroupElement) -> GroupElement:
    """Group inverse (-w, -c); omega(w, -w) = 0 makes this exact."""
    _check_dim(form, g)
    return _valid(GroupElement, -g.w, -g.c)


def multiply_reduced(
    form: "SymplecticForm", r1: ReducedElement, r2: ReducedElement
) -> ReducedElement:
    """Reduced product: same law with the vertical part wrapped into [0, 2*pi)."""
    _check_dim(form, r1, r2)
    theta = wrap_angle(r1.theta + r2.theta + 0.5 * form.pair(r1.w, r2.w))
    return ReducedElement(r1.w + r2.w, theta)


def quotient(g: GroupElement) -> ReducedElement:
    """Project to the reduced group: (w, c) -> (w, c mod 2*pi)."""
    return _valid(ReducedElement, g.w, wrap_angle(g.c))


def bracket(form: "SymplecticForm", X: LieVector, Y: LieVector) -> LieVector:
    """Lie bracket [(A1,a1),(A2,a2)] = (0, omega(A1, A2))."""
    if X.A.shape[0] != form.dim or Y.A.shape[0] != form.dim:
        raise ValueError("dimension mismatch in bracket")
    a = _as_finite(form.pair(X.A, Y.A), "vertical rate")
    return _valid(LieVector, np.zeros(form.dim), a)
