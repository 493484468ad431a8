"""Horizontal-space model: symplectic forms, projections, Hormander check.

All computation happens in an orthonormal coordinate basis of R^{2n}.  A
group variant is a skew nondegenerate form, kept as its normal form: weights
a_j > 0 and an orthogonal frame Q with Q^T Omega Q = (+)_j a_j [[0, 1],
[-1, 0]].  The model builds block forms, Q = I, held as their n weights and
paired in O(n); a user matrix goes through `SymplecticForm.from_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .group import GroupElement, ReducedElement, _valid

# Relative floor for the smallest weight.
NONDEGENERACY_RTOL = 1e-12

__all__ = [
    "SymplecticForm",
    "Projection",
    "full_projection",
    "make_isotropic_form",
    "make_nonisotropic_form",
    "check_hormander",
    "project_element",
]


@dataclass(frozen=True)
class SymplecticForm:
    """Skew nondegenerate bilinear form omega(x, y) = x^T Omega y, Omega = Q B Q^T
    with B = (+)_j a_j [[0, 1], [-1, 0]]: read-only `weights` (n,) a and orthogonal
    `frame` (2n, 2n) Q, None meaning Q = I, which only this module reads as such;
    `to_normal` and `from_normal` change frames for the others."""

    weights: np.ndarray
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.array(self.weights, dtype=float)
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
            raise ValueError("weights must be a nonempty vector of finite values")
        if a.min() <= NONDEGENERACY_RTOL * a.max():
            raise ValueError(f"the form is degenerate: weights span {a.max():.3e}..{a.min():.3e}")
        q = None if self.frame is None else np.array(self.frame, dtype=float)
        if q is not None and not (q.shape == (2 * a.size,) * 2 and np.all(np.isfinite(q))
                                  and np.allclose(q.T @ q, np.eye(2 * a.size), rtol=0, atol=1e-12)):
            raise ValueError("frame must be a finite orthogonal (2n, 2n) matrix")
        for name, arr in (("weights", a), ("frame", q)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrix(cls, omega) -> SymplecticForm:
        """The form of a skew nondegenerate matrix, in normal form by the real
        Schur decomposition, its 2x2 blocks oriented by swapping columns."""
        om = np.array(omega, dtype=float)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ValueError("omega must be a square matrix")
        if om.shape[0] % 2 != 0 or om.shape[0] == 0:
            raise ValueError("omega must act on an even-dimensional space")
        if not (np.all(np.isfinite(om)) and np.array_equal(om.T, -om)):
            raise ValueError("omega must be finite and exactly skew; build it as A - A.T")
        from scipy.linalg import schur

        T, Q = schur(om, output="real")
        a = 0.5 * (np.diagonal(T, 1)[0::2] - np.diagonal(T, -1)[0::2])
        for j in np.flatnonzero(a < 0.0):
            Q[:, [2 * j, 2 * j + 1]] = Q[:, [2 * j + 1, 2 * j]]
        return cls(np.abs(a), Q)

    @cached_property
    def dim(self) -> int:
        return 2 * self.weights.size

    @cached_property
    def n(self) -> int:
        return self.weights.size

    @cached_property
    def omega(self) -> np.ndarray:
        """The dense (2n, 2n) Omega, read-only, built on first use, exactly skew."""
        q = np.eye(self.dim) if self.frame is None else self.frame
        x = (q[:, 0::2] * self.weights) @ q[:, 1::2].T
        om = x - x.T
        om.setflags(write=False)
        return om

    @cached_property
    def _turn(self) -> np.ndarray:
        return 1j * self.weights

    def to_normal(self, w) -> np.ndarray:
        """Rows w in the normal frame, w @ Q."""
        return w if self.frame is None else w @ self.frame

    def from_normal(self, u) -> np.ndarray:
        """Rows u of the normal frame in the basis, u @ Q^T."""
        return u if self.frame is None else u @ self.frame.T

    def pair(self, x, y) -> float:
        """omega(x, y) of two vectors."""
        return float(self.pair_with_basis(x) @ y)

    def pair_with_basis(self, w) -> np.ndarray:
        """Vector of omega(w, e_j) over all 2n basis directions, w @ Omega;
        accepts stacked w.  A block form turns each plane z_j = w_2j + i w_2j+1
        into i a_j z_j, the dense product's bits for finite w, signed zeros too."""
        if self.frame is not None:
            return w @ self.omega
        w = np.asarray(w, dtype=float)
        if w.shape[-1:] != (self.dim,):
            raise ValueError(f"w of shape {w.shape} does not act on {self.dim} coordinates")
        z = (w if w.strides[-1] == w.itemsize else w.copy()).view(complex)  # a contiguous last axis
        u = (z * self._turn).view(float)
        u += 0.0  # x * 0 - y * a may be -0, where the dense product's sums give +0
        return u

    def frobenius_sq(self) -> float:
        """||Omega||_F^2 = 2 sum_j a_j^2."""
        return 2.0 * float(np.sum(self.weights * self.weights))


@dataclass(frozen=True)
class Projection:
    """Coordinate-subset projection; indices are 1-based positions in 1..2n."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("projection needs at least two indices")
        if len(idx) % 2 != 0:
            raise ValueError("projection must select an even number of coordinates")
        if len(set(idx)) != len(idx):
            raise ValueError("projection indices must be distinct")
        if any(i < 1 for i in idx):
            raise ValueError("projection indices are 1-based")
        if tuple(sorted(idx)) != idx:
            raise ValueError("projection indices must be sorted ascending")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def zero_based(self) -> np.ndarray:
        """The indices as a read-only 0-based array, built on first use."""
        ix = np.asarray(self.indices, dtype=int) - 1
        ix.setflags(write=False)
        return ix


def full_projection(dim: int) -> Projection:
    return Projection(tuple(range(1, dim + 1)))


def make_isotropic_form(n: int) -> SymplecticForm:
    """Block-diagonal form with n >= 1 canonical blocks [[0,1],[-1,0]]."""
    return SymplecticForm(np.ones(n))


def make_nonisotropic_form(weights: Sequence[float]) -> SymplecticForm:
    """Block-diagonal form; block j is [[0,a_j],[-a_j,0]], each a_j > 0."""
    return SymplecticForm(weights)


def check_hormander(form: SymplecticForm, p: Projection) -> bool:
    """True iff the restricted form has a nonzero entry.

    A nonzero restricted entry means the selected coordinates bracket-generate
    the vertical direction.
    """
    ix = p.zero_based
    if ix[-1] >= form.dim:  # indices are sorted
        raise ValueError(f"projection index {ix[-1] + 1} exceeds dimension {form.dim}")
    if form.frame is None:  # omega(e_i, e_j) != 0 iff i, j are one plane's, adjacent in ix
        return bool(np.any(ix[1:] // 2 == ix[:-1] // 2))
    return bool(np.any(form.omega[np.ix_(ix, ix)] != 0.0))


def project_element(p: Projection, g):
    """Zero the coordinates outside the projection; vertical part unchanged.

    Works on both element kinds (the reduced version keeps theta).
    """
    if not isinstance(g, (GroupElement, ReducedElement)):
        raise TypeError(f"not a group element: {type(g).__name__}")
    ix = p.zero_based
    if ix[-1] >= g.w.shape[0]:  # indices are sorted
        raise ValueError("projection indices exceed the element dimension")
    w = np.zeros(g.w.shape[0])
    w[ix] = g.w[ix]
    if isinstance(g, GroupElement):
        return _valid(GroupElement, w, g.c)
    return _valid(ReducedElement, w, g.theta)
