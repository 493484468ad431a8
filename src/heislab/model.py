"""Horizontal-space model: symplectic forms, projections, Hormander check.

All computation happens in an orthonormal coordinate basis of R^{2n}; a
group variant is determined by a single skew nondegenerate matrix Omega.
Each form computes its normal form Q^T Omega Q = (+)_j a_j [[0, 1], [-1, 0]]
once, when it is built: the weights a_j > 0 and the orthogonal frame Q,
which every reader of the spectrum (distance, levy-cf) uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .group import GroupElement, ReducedElement, _valid

# Relative floor for the smallest weight; constructed forms are exact,
# this guards only user-supplied matrices.
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


def _normal_form(omega: np.ndarray):
    """Orthogonal Q and weights a >= 0 with Q^T Omega Q = (+)_j a_j [[0, 1], [-1, 0]].

    Forms built by the model already are in normal form (Q = I, so nothing
    is rounded); any other skew form goes through the real Schur
    decomposition, whose 2x2 blocks are oriented by swapping columns.
    """
    a = np.diagonal(omega[0::2, 1::2]).copy()
    if np.all(a > 0.0) and np.array_equal(omega, _block_diag_form(a)):
        return np.eye(omega.shape[0]), a
    from scipy.linalg import schur

    T, Q = schur(omega, output="real")
    a = 0.5 * (np.diagonal(T, 1)[0::2] - np.diagonal(T, -1)[0::2])
    for j in np.flatnonzero(a < 0.0):
        Q[:, [2 * j, 2 * j + 1]] = Q[:, [2 * j + 1, 2 * j]]
    return Q, np.abs(a)


@dataclass(frozen=True)
class SymplecticForm:
    """Skew nondegenerate bilinear form omega(x, y) = x^T Omega y.

    `weights` (n,) and `frame` (2n, 2n) are its normal form, read-only.
    """

    omega: np.ndarray

    def __post_init__(self):
        om = np.array(self.omega, dtype=float)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ValueError("omega must be a square matrix")
        if om.shape[0] % 2 != 0 or om.shape[0] == 0:
            raise ValueError("omega must act on an even-dimensional space")
        if not np.all(np.isfinite(om)):
            raise ValueError("omega has non-finite entries")
        if not np.array_equal(om.T, -om):
            raise ValueError("omega must be exactly skew; build it as A - A.T")
        frame, weights = _normal_form(om)
        if weights.min() <= NONDEGENERACY_RTOL * weights.max():
            raise ValueError(
                f"omega is degenerate: weights span {weights.max():.3e}..{weights.min():.3e}"
            )
        for name, arr in (("omega", om), ("weights", weights), ("frame", frame)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.omega.shape[0]

    @property
    def n(self) -> int:
        return self.omega.shape[0] // 2

    def pair(self, x, y) -> float:
        """omega(x, y) of two vectors."""
        return float(x @ self.omega @ y)

    def pair_with_basis(self, w) -> np.ndarray:
        """Vector of omega(w, e_j) over all 2n basis directions.

        Equals (Omega^T w)_j = (w @ Omega)_j; accepts stacked w.
        """
        return w @ self.omega

    def frobenius_sq(self) -> float:
        return float(np.sum(self.omega * self.omega))


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


def _block_diag_form(weights: Sequence[float]) -> np.ndarray:
    n = len(weights)
    om = np.zeros((2 * n, 2 * n))
    for j, a in enumerate(weights):
        om[2 * j, 2 * j + 1] = a
        om[2 * j + 1, 2 * j] = -a
    return om


def make_isotropic_form(n: int) -> SymplecticForm:
    """Block-diagonal form with n canonical blocks [[0,1],[-1,0]]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymplecticForm(_block_diag_form([1.0] * n))


def make_nonisotropic_form(weights: Sequence[float]) -> SymplecticForm:
    """Block-diagonal form; block j is [[0,a_j],[-a_j,0]]."""
    ws = [float(a) for a in weights]
    if len(ws) == 0:
        raise ValueError("weights must be nonempty")
    if any(a <= 0 for a in ws):
        raise ValueError("weights must be positive")
    return SymplecticForm(_block_diag_form(ws))


def check_hormander(form: SymplecticForm, p: Projection) -> bool:
    """True iff the restricted form has a nonzero entry.

    A nonzero restricted entry means the selected coordinates bracket-generate
    the vertical direction.
    """
    ix = p.zero_based
    if ix[-1] >= form.dim:  # indices are sorted
        raise ValueError("projection indices exceed the form dimension")
    sub = form.omega[np.ix_(ix, ix)]
    return bool(np.any(sub != 0.0))


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
