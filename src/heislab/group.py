"""Group elements and group laws.

The full group lives on R^{2n} x R with product

    (w1, c1) * (w2, c2) = (w1 + w2, c1 + c2 + 0.5*omega(w1, w2)),

which is step-2 nilpotent: the only surviving bracket is the vertical one.
The reduced group keeps the vertical coordinate on the circle, stored as the
canonical representative theta in [0, 2*pi).
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
    "exp_group",
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("horizontal part has non-finite entries")
    return arr


@dataclass(frozen=True)
class GroupElement:
    """Point (w, c) of the full group; w has length 2n."""

    w: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w))
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c):
            raise ValueError("vertical coordinate must be finite")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class ReducedElement:
    """Point (w, theta) of the reduced group; theta canonical in [0, 2*pi)."""

    w: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w))
        th = float(self.theta)
        if not math.isfinite(th):
            raise ValueError("theta must be finite")
        if not 0.0 <= th < TWO_PI:
            raise ValueError("theta must lie in [0, 2*pi); use quotient/wrap_angle")
        object.__setattr__(self, "theta", th)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class LieVector:
    """Tangent vector (A, a): horizontal part A plus vertical rate a."""

    A: np.ndarray
    a: float

    def __post_init__(self):
        object.__setattr__(self, "A", _as_vector(self.A))
        object.__setattr__(self, "a", float(self.a))
        if not math.isfinite(self.a):
            raise ValueError("vertical rate must be finite")


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
    return GroupElement(-g.w, -g.c)


def multiply_reduced(
    form: "SymplecticForm", r1: ReducedElement, r2: ReducedElement
) -> ReducedElement:
    """Reduced product: same law with the vertical part wrapped into [0, 2*pi)."""
    _check_dim(form, r1, r2)
    theta = wrap_angle(r1.theta + r2.theta + 0.5 * form.pair(r1.w, r2.w))
    return ReducedElement(r1.w + r2.w, theta)


def quotient(g: GroupElement) -> ReducedElement:
    """Project to the reduced group: (w, c) -> (w, c mod 2*pi)."""
    return ReducedElement(g.w, wrap_angle(g.c))


def exp_group(X: LieVector) -> GroupElement:
    """Exponential map; the identity on coordinates for a step-2 group."""
    return GroupElement(X.A.copy(), X.a)


def bracket(form: "SymplecticForm", X: LieVector, Y: LieVector) -> LieVector:
    """Lie bracket [(A1,a1),(A2,a2)] = (0, omega(A1, A2))."""
    if X.A.shape[0] != form.dim or Y.A.shape[0] != form.dim:
        raise ValueError("dimension mismatch in bracket")
    return LieVector(np.zeros(form.dim), form.pair(X.A, Y.A))

