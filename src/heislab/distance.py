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
delta_k.  In the normal form Q^T Omega Q = (+)_j a_j [[0, 1], [-1, 0]]
(`form.to_normal` and `form.weights` a), with block j read as a complex
number z_j = |z_j| e^{i arg z_j}, each step turns block j by psi_j =
2 arctan(beta a_j), and the segments that sum to z_j start at

    delta_{1,j} = z_j e^{-i (K-1) psi_j / 2} sin(psi_j / 2) / sin(K psi_j / 2).

Their swept area is a_j |delta_{1,j}|^2 (K sin psi_j - sin K psi_j) /
(8 sin^2(psi_j / 2)), and the total increases with beta until the top-weight
blocks close up at K psi = 2 pi.  The one root find solves area = |c| in
eps = pi - K psi_top / 2, and the top blocks' closing sine sin(eps) is taken
as the sine of the smaller of eps and pi - eps, exact for blocks that barely
move or barely turn; the sign of c sets the turning direction.
When no top-weight block moves and even the closed-up turn falls short, a
regular K-gon carries the rest of the area in one top block.  Vertical
targets thus cost exactly (1 + g_K) 2 sqrt(pi |c| / a_max), g_K the
regular K-gon's isoperimetric gap, and c = 0 gives the straight chord.
The reduced distance is this one at the centred representative of theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

# `minimize` is not called here.  The name stays bound because the traced
# benchmark run (perfbench/worker.py) wraps heislab.distance.minimize to count
# optimizer calls, and perfbench/run.py reads the scipy.optimize import time
# out of `import heislab.cli`.
from scipy.optimize import brentq, minimize  # noqa: F401

from .group import GroupElement, ReducedElement, TWO_PI, inverse, multiply
from .model import SymplecticForm

# A returned path is converged when it meets c to this share of 1 + |c|.
C_TOL_REL = 1e-6

__all__ = [
    "C_TOL_REL",
    "HorizontalPath",
    "LiftedPath",
    "lift",
    "DistanceResult",
    "cc_distance",
    "cc_distance_reduced",
    "distance_between",
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
    nodes = path.nodes  # the pairing rejects a path of another dimension
    incr = 0.5 * np.einsum("kd,kd->k", form.pair_with_basis(nodes[:-1]), nodes[1:])
    vertical = np.concatenate([[0.0], np.cumsum(incr)])
    return LiftedPath(nodes=nodes, vertical=vertical)


@dataclass(frozen=True)
class DistanceResult:
    """A solve's estimate and polygon; reduced solves also name the winning
    winding offset and list every (k, estimate) in the window, the estimate
    None at every offset but the solved one."""

    estimate: float
    path: HorizontalPath
    c_residual: float
    converged: bool
    winning_k: Optional[int] = None
    candidates: Tuple[Tuple[int, Optional[float]], ...] = ()


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
        # sin(eps) = sin(theta): take the smaller angle, exact where it is tiny
        closing = np.where(top, math.sin(min(eps, theta)), np.sin(0.5 * K * psi))
        amp = np.divide(r, closing, out=np.zeros_like(r), where=moves) * np.sin(0.5 * psi)
        return psi, amp

    def area(eps):
        if eps >= math.pi:
            return 0.0
        psi, amp = shape(eps)
        with np.errstate(over="ignore"):  # inf as eps -> 0, which ends the halving below
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
        # 2 sqrt(x) is sqrt(4 x) to the bit, and does not overflow as 4 x may
        first[j] = 2.0 * math.sqrt(extra * math.tan(math.pi / K) / (K * a_max))
    return first[None, :] * np.exp(1j * np.arange(K)[:, None] * turn[None, :])


def cc_distance(form: SymplecticForm, target: GroupElement, K: int = 64) -> DistanceResult:
    """Distance from the identity to target, with the realizing polygon.

    The result also carries the area residual of the returned path, from
    its lift, and a convergence flag.
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
        u = form.to_normal(w)
        segs = _optimal_segments(form.weights, u[0::2] + 1j * u[1::2], K, c)
        normal = np.zeros((K + 1, form.dim))
        normal[1:] = np.cumsum(segs, axis=0).view(float)
        nodes = form.from_normal(normal)
        nodes[-1] = w
    path = HorizontalPath(nodes)
    residual = float(lift(form, path).vertical[-1]) - c
    return DistanceResult(path.length(), path, residual, abs(residual) <= C_TOL_REL * (1.0 + abs(c)))


def cc_distance_reduced(
    form: SymplecticForm,
    target: ReducedElement,
    K: int = 64,
    k_window: int = 3,
) -> DistanceResult:
    """Distance on the reduced group, min over k of d(w, theta + 2 pi k).

    One solve, at the nearest fiber: k = -1 when theta > pi, else k = 0.
    The least-length K-gon is even in c, since the polygon run backwards
    from w, with nodes w - sigma_{K-i}, sweeps -c at the same length; and
    nondecreasing in |c|, since the nodes (1 - s) chord + s polygon sweep
    every area between 0 and c and are never longer than the polygon.  So
    no farther fiber is shorter.

    `k_window` and the result's `candidates`, every offset in [-k_window,
    k_window] and the winner's, with the estimate at the winner only, do not
    change that answer.  They remain because the benchmark
    (perfbench/worker.py) passes the one and reads the other; the CLI passes
    neither.
    """
    if k_window < 0:
        raise ValueError("k_window must be >= 0")
    k = -1 if target.theta > math.pi else 0
    res = cc_distance(form, GroupElement(target.w, target.theta + TWO_PI * k), K=K)
    candidates = tuple(
        (j, res.estimate if j == k else None) for j in range(min(-k_window, k), k_window + 1)
    )
    return replace(res, winning_k=k, candidates=candidates)


def distance_between(
    form: SymplecticForm,
    g1: GroupElement,
    g2: GroupElement,
    K: int = 64,
) -> DistanceResult:
    """Left-invariant distance d(g1, g2) = d(e, g1^{-1} g2)."""
    return cc_distance(form, multiply(form, inverse(form, g1), g2), K=K)

