"""Carnot-Caratheodory distance by the optimal polygon, in closed form.

A horizontal path is a polygon in the horizontal space starting at the
origin; its lift gains vertical coordinate 0.5 * omega(sigma_{k-1},
delta sigma_k) per segment, which is exact for piecewise-linear paths.
The K-segment estimate of the distance to (w, c) is the least length of a
K-gon whose endpoint is w and whose accumulated area is c.

That polygon is built directly, the discrete analogue of the geodesics of
Gaveau (1977) and Beals-Gaveau-Greiner (J. Math. Pures Appl. 2000).  At a
stationary polygon every segment has the same length and consecutive
segments satisfy delta_{k+1} = (I - beta Omega)^{-1} (I + beta Omega)
delta_k.  In the normal form Q^T Omega Q = (+)_j a_j [[0, 1], [-1, 0]],
with block j read as a complex number z_j = |z_j| e^{i arg z_j}, each
step turns block j by psi_j = 2 arctan(beta a_j), and the segments that
sum to z_j start at

    delta_{1,j} = z_j e^{-i (K-1) psi_j / 2} sin(psi_j / 2) / sin(K psi_j / 2).

Their swept area is a_j |delta_{1,j}|^2 (K sin psi_j - sin K psi_j) /
(8 sin^2(psi_j / 2)), and the total increases with beta until the top-weight
blocks close up at K psi = 2 pi.  The one root find solves area = |c| in
eps = pi - K psi_top / 2, which keeps the closing sine sin(eps) exact for
top blocks that barely move; the sign of c sets the turning direction.
When no top-weight block moves and even the closed-up turn falls short, a
regular K-gon carries the rest of the area in one top block.  Vertical
targets thus cost exactly (1 + g_K) 2 sqrt(pi |c| / sigma_max), g_K the
regular K-gon's isoperimetric gap, and c = 0 gives the straight chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import schur

# `minimize` is not called here.  The name stays bound because the traced
# benchmark run (perfbench/worker.py) wraps heislab.distance.minimize to count
# optimizer calls, and perfbench/run.py reads the scipy.optimize import time
# out of `import heislab.cli`.
from scipy.optimize import brentq, minimize  # noqa: F401

from .group import GroupElement, ReducedElement, TWO_PI, inverse, multiply
from .model import SymplecticForm, _block_diag_form

# A returned path is converged when it meets c to this share of 1 + |c|.
C_TOL_REL = 1e-6

__all__ = [
    "C_TOL_REL",
    "HorizontalPath",
    "LiftedPath",
    "lift",
    "DistanceResult",
    "ReducedDistanceResult",
    "cc_distance",
    "cc_distance_reduced",
    "distance_between",
    "vertical_distance_reference",
    "fiber_lower_bound",
]


@dataclass(frozen=True)
class HorizontalPath:
    """Polygonal horizontal path; node 0 is the origin."""

    nodes: np.ndarray  # (K+1, 2n)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] < 2:
            raise ValueError("a path needs a (K+1, 2n) node array with K >= 1")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("path nodes must be finite")
        if np.any(nodes[0] != 0.0):
            raise ValueError("paths start at the origin of the horizontal space")
        object.__setattr__(self, "nodes", nodes)

    @property
    def segments(self) -> int:
        return self.nodes.shape[0] - 1

    def length(self) -> float:
        deltas = np.diff(self.nodes, axis=0)
        return float(np.sum(np.sqrt(np.einsum("kd,kd->k", deltas, deltas))))

    def subdivide(self) -> "HorizontalPath":
        """Insert segment midpoints; length and lifted area are unchanged."""
        nodes = self.nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        out = np.empty((2 * self.segments + 1, nodes.shape[1]))
        out[0::2] = nodes
        out[1::2] = mids
        return HorizontalPath(out)

    def resample(self, segments: int) -> "HorizontalPath":
        """Linear re-interpolation onto a new uniform node index grid."""
        if segments < 1:
            raise ValueError("segments must be >= 1")
        old = np.linspace(0.0, 1.0, self.nodes.shape[0])
        new = np.linspace(0.0, 1.0, segments + 1)
        cols = [np.interp(new, old, self.nodes[:, j]) for j in range(self.nodes.shape[1])]
        return HorizontalPath(np.stack(cols, axis=1))


@dataclass(frozen=True)
class LiftedPath:
    """Horizontal nodes together with the accumulated vertical coordinate."""

    nodes: np.ndarray  # (K+1, 2n)
    vertical: np.ndarray  # (K+1,)

    @property
    def endpoint(self) -> GroupElement:
        return GroupElement(self.nodes[-1].copy(), float(self.vertical[-1]))


def lift(form: SymplecticForm, path: HorizontalPath) -> LiftedPath:
    """Horizontal lift through the group identity (exact for polygons)."""
    nodes = path.nodes
    if nodes.shape[1] != form.dim:
        raise ValueError("path dimension does not match the form")
    incr = 0.5 * np.einsum("kd,kd->k", nodes[:-1] @ form.omega, nodes[1:])
    vertical = np.concatenate([[0.0], np.cumsum(incr)])
    return LiftedPath(nodes=nodes, vertical=vertical)


@dataclass(frozen=True)
class DistanceResult:
    estimate: float
    path: HorizontalPath
    c_residual: float
    converged: bool

    def __iter__(self):
        return iter((self.estimate, self.path))


@dataclass(frozen=True)
class ReducedDistanceResult:
    estimate: float
    winning_k: int
    path: HorizontalPath
    c_residual: float
    converged: bool
    candidates: Tuple[Tuple[int, Optional[float]], ...] = field(default=())

    def __iter__(self):
        return iter((self.estimate, self.winning_k))


def _normal_form(omega: np.ndarray):
    """Orthogonal Q and weights a > 0 with Q^T Omega Q = (+)_j a_j [[0, 1], [-1, 0]].

    Forms built by the model already are in normal form (Q = I, so nothing
    is rounded); any other skew form goes through the real Schur
    decomposition, whose 2x2 blocks are oriented by swapping columns.
    """
    a = np.diagonal(omega[0::2, 1::2]).copy()
    if np.all(a > 0.0) and np.array_equal(omega, _block_diag_form(a)):
        return np.eye(omega.shape[0]), a
    T, Q = schur(omega, output="real")
    a = 0.5 * (np.diagonal(T, 1)[0::2] - np.diagonal(T, -1)[0::2])
    for j in np.flatnonzero(a < 0.0):
        Q[:, [2 * j, 2 * j + 1]] = Q[:, [2 * j + 1, 2 * j]]
    return Q, np.abs(a)


def _optimal_segments(a: np.ndarray, z: np.ndarray, K: int, c: float) -> np.ndarray:
    """The K segments, one complex number per block, of the optimal polygon
    from 0 to the chords z with swept area c != 0, in normal form."""
    a_max = float(a.max())
    top = a == a_max
    r = np.abs(z)
    moves = r * r > 0.0  # a chord whose square underflows is left to the endpoint pin
    m = np.arange(1, K)
    lever = 0.5 * (K - m)  # area of unit segments turning by m psi

    def shape(eps):
        """Turning angles and segment lengths r sin(psi/2) / sin(K psi/2)."""
        theta = math.pi - eps
        psi = np.where(top, 2.0 * theta / K, 2.0 * np.arctan(math.tan(theta / K) * a / a_max))
        closing = np.where(top, math.sin(eps), np.sin(0.5 * K * psi))
        amp = np.divide(r, closing, out=np.zeros_like(r), where=moves) * np.sin(0.5 * psi)
        return psi, amp

    def area(eps):
        if eps >= math.pi:
            return 0.0
        psi, amp = shape(eps)
        return float(amp**2 @ (a * (np.sin(np.outer(psi, m)) @ lever)))

    target = abs(c)
    extra = 0.0  # area of the regular K-gon added to the first top block
    if not np.any(moves & top) and area(0.0) <= target:
        eps = 0.0
        extra = target - area(0.0)
    else:
        # the area grows without bound as eps -> 0 when a top block moves,
        # and otherwise tends to area(0.0) > target, so the halving ends
        lo, hi = 0.5 * math.pi, math.pi
        while area(lo) < target:
            lo, hi = 0.5 * lo, lo
        # below the least representable turn, pi - eps rounds to a straight line
        eps = min(brentq(lambda e: area(e) - target, lo, hi, xtol=math.ulp(lo)),
                  math.nextafter(math.pi, 0.0))

    psi, amp = shape(eps)
    turn = math.copysign(1.0, c) * psi
    first = amp * np.exp(1j * (np.angle(z) - 0.5 * (K - 1) * turn))
    if extra > 0.0 and K > 2:  # a closed 2-gon sweeps no area
        j = int(np.flatnonzero(top)[0])
        first[j] = math.sqrt(extra * 4.0 * math.tan(math.pi / K) / (K * a_max))
    return first[None, :] * np.exp(1j * np.arange(K)[:, None] * turn[None, :])


def cc_distance(form: SymplecticForm, target: GroupElement, K: int = 64) -> DistanceResult:
    """Distance from the identity to target, with the realizing polygon.

    Unpacks as (estimate, path); the full result also carries the area
    residual of the returned path, from its lift, and a convergence flag.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    w = np.asarray(target.w, dtype=float)
    if w.shape != (form.dim,):
        raise ValueError("target dimension does not match the form")
    c = float(target.c)

    if c == 0.0:
        nodes = np.linspace(0.0, 1.0, K + 1)[:, None] * w[None, :]
    else:
        Q, a = _normal_form(form.omega)
        u = Q.T @ w
        segs = _optimal_segments(a, u[0::2] + 1j * u[1::2], K, c)
        normal = np.zeros((K + 1, form.dim))
        normal[1:, 0::2] = np.cumsum(segs.real, axis=0)
        normal[1:, 1::2] = np.cumsum(segs.imag, axis=0)
        nodes = normal @ Q.T
        nodes[-1] = w
    path = HorizontalPath(nodes)
    residual = float(lift(form, path).vertical[-1]) - c
    return DistanceResult(path.length(), path, residual, abs(residual) <= C_TOL_REL * (1.0 + abs(c)))


def _better(len_a, res_a, len_b, res_b, tol):
    """True when candidate a beats b: feasibility first, then length."""
    feas_a, feas_b = abs(res_a) <= tol, abs(res_b) <= tol
    if feas_a != feas_b:
        return feas_a
    if feas_a:
        return len_a < len_b
    return abs(res_a) < abs(res_b) or (res_a == res_b and len_a < len_b)


def fiber_lower_bound(form: SymplecticForm, w_norm: float, c: float) -> float:
    """Valid lower bound for the distance to (w, c).

    Any path to (w, c) closed by the straight chord back to the origin
    bounds a loop of length L = len + |w| whose omega-area is exactly c,
    and |c| <= sigma_max * L^2 / (4 pi) by the isoperimetric inequality for
    the minimal spanning surface.  Hence len >= sqrt(4 pi |c| / sigma_max)
    - |w|, and trivially len >= |w|.
    """
    iso = math.sqrt(4.0 * math.pi * abs(c) / form.sv_max) - w_norm
    return max(w_norm, iso, 0.0)


def cc_distance_reduced(
    form: SymplecticForm,
    target: ReducedElement,
    K: int = 64,
    k_window: int = 3,
) -> ReducedDistanceResult:
    """Distance on the reduced group: minimum over fiber representatives.

    Each winding offset k in [-k_window, k_window] names the full-group
    target (w, theta + 2 pi k); candidates are solved in order of their
    lower bound and skipped once the bound cannot beat the incumbent, so
    typically only one to three solves run.
    """
    if k_window < 0:
        raise ValueError("k_window must be >= 0")
    w = np.asarray(target.w, dtype=float)
    w_norm = float(np.linalg.norm(w))

    cands = []
    for k in range(-k_window, k_window + 1):
        c_k = float(target.theta + TWO_PI * k)
        cands.append((fiber_lower_bound(form, w_norm, c_k), k, c_k))
    cands.sort(key=lambda item: (item[0], abs(item[1])))

    best: Optional[DistanceResult] = None
    best_k = 0
    evaluated = []
    for bound, k, c_k in cands:
        if best is not None and bound >= best.estimate:
            evaluated.append((k, None))
            continue
        res = cc_distance(form, GroupElement(w, c_k), K=K)
        evaluated.append((k, res.estimate))
        if best is None or _better(
            res.estimate,
            res.c_residual,
            best.estimate,
            best.c_residual,
            C_TOL_REL * (1.0 + abs(c_k)),
        ):
            best, best_k = res, k

    evaluated.sort(key=lambda item: item[0])
    return ReducedDistanceResult(
        estimate=best.estimate,
        winning_k=best_k,
        path=best.path,
        c_residual=best.c_residual,
        converged=best.converged,
        candidates=tuple(evaluated),
    )


def distance_between(
    form: SymplecticForm,
    g1: GroupElement,
    g2: GroupElement,
    K: int = 64,
) -> DistanceResult:
    """Left-invariant distance d(g1, g2) = d(e, g1^{-1} g2)."""
    return cc_distance(form, multiply(form, inverse(form, g1), g2), K=K)


def vertical_distance_reference(form: SymplecticForm, c: float) -> float:
    """Smooth-geodesic distance to the purely vertical point (0, c).

    The optimal path is a circle of area |c| / sigma_max in the most
    area-efficient conjugate plane; its perimeter is 2 sqrt(pi |c| /
    sigma_max).  A K-segment polygon exceeds this by the regular-polygon
    isoperimetric gap (about +0.08% at K = 64).
    """
    return 2.0 * math.sqrt(math.pi * abs(c) / form.sv_max)
