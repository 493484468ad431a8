"""Exact references the benchmark checks heislab against.

Written from the formulas, not from heislab's code, and self-checked on
textbook cases by ``self_check()``.  Only the standard library is used, so a
fault in the program cannot leak into its own reference.

Conventions are those of heislab: the form is block-diagonal with block j
equal to a_j [[0, 1], [-1, 0]], the group law is
(w1, c1)(w2, c2) = (w1 + w2, c1 + c2 + omega(w1, w2) / 2), and the walk has
N Gaussian steps per path.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
_SERIES_BELOW = 1e-3


def _segment_area(theta: float) -> float:
    """(theta - sin theta) / (8 sin^2(theta/2)): area of the circular segment
    over a unit chord whose arc turns by theta, for 0 <= theta < 2 pi."""
    if theta < _SERIES_BELOW:
        return theta / 12.0 + theta ** 3 / 720.0
    s = math.sin(0.5 * theta)
    return (theta - math.sin(theta)) / (8.0 * s * s)


def _arc_over_chord(theta: float) -> float:
    """(theta/2) / sin(theta/2): arc length over a unit chord."""
    if theta < _SERIES_BELOW:
        return 1.0 + theta * theta / 24.0
    return 0.5 * theta / math.sin(0.5 * theta)


def gaveau_distance(weights, w, c: float) -> float:
    """Sub-Riemannian distance from the identity to (w, c).

    Normal geodesics with vertical covector mu turn block j by
    theta_j = a_j mu; the block's projection is a circular arc over the chord
    r_j = |w_j|.  The area they sweep is
        c(mu) = sum_j a_j r_j^2 (theta_j - sin theta_j) / (8 sin^2(theta_j/2)),
    and their length squared is
        d(mu)^2 = sum_j r_j^2 ((theta_j/2) / sin(theta_j/2))^2.
    c(mu) increases on 0 <= mu < 2 pi / a_max, where geodesics stop
    minimizing; solve c(mu) = |c| there.  When every top-weight block has
    r = 0, c stays bounded on that interval; the area left over goes into one
    full circle in a top block, adding 4 pi (|c| - c(2 pi / a_max)) / a_max.
    References: Gaveau 1977; Beals, Gaveau and Greiner, J. Math. Pures Appl.
    2000; Monti 2000.
    """
    a = [float(x) for x in weights]
    if len(w) != 2 * len(a):
        raise ValueError("w must have two coordinates per block")
    r2 = [float(w[2 * j]) ** 2 + float(w[2 * j + 1]) ** 2 for j in range(len(a))]
    target = abs(float(c))
    if target == 0.0:
        return math.sqrt(sum(r2))
    a_max = max(a)
    mu_end = TWO_PI / a_max

    def area(mu):
        return sum(aj * rj * _segment_area(aj * mu) for aj, rj in zip(a, r2) if rj > 0.0)

    def length_sq(mu):
        return sum(rj * _arc_over_chord(aj * mu) ** 2 for aj, rj in zip(a, r2) if rj > 0.0)

    top_moves = any(rj > 0.0 for aj, rj in zip(a, r2) if aj == a_max)
    if not top_moves:
        cap = area(mu_end)
        if target >= cap:
            return math.sqrt(length_sq(mu_end) + 4.0 * math.pi * (target - cap) / a_max)
    # bracket the root below mu_end, then bisect to the last representable mu
    lo, hi, k = 0.0, 0.5 * mu_end, 1
    while area(hi) < target:
        lo = hi
        k += 1
        hi = mu_end * (1.0 - 0.5 ** k)
        if k > 1000:
            raise ArithmeticError("area does not reach the target below 2 pi / a_max")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if area(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(length_sq(0.5 * (lo + hi)))


def vertical_distance(a_max: float, c: float) -> float:
    """Distance to (0, c): a circle of area |c| / a_max, 2 sqrt(pi |c| / a_max)."""
    return 2.0 * math.sqrt(math.pi * abs(c) / a_max)


def polygon_gap(K: int) -> float:
    """Relative excess of a K-segment polygon over the smooth geodesic,
    sqrt((K / pi) tan(pi / K)) - 1: the regular K-gon's isoperimetric gap."""
    return math.sqrt(K / math.pi * math.tan(math.pi / K)) - 1.0


def exp_linear_exact(lam: float, t: float) -> dict:
    """f = exp(lam w_1) under the time-t law; w_1 ~ N(0, t) exactly for the walk.

    Ent(f^2) = 2 lam^2 t e^{2 lam^2 t}, E|grad_H f|^2 = lam^2 e^{2 lam^2 t},
    and their ratio is 2t in every dimension, form and step count.
    """
    e = math.exp(2.0 * lam * lam * t)
    return {"entropy": 2.0 * lam * lam * t * e, "energy": lam * lam * e, "ratio": 2.0 * t}


def heat_moments(name: str, n: int, frobenius_sq: float, t: float, steps: int) -> dict:
    """d/dt E f for the N-step walk and (1/2) E L_H f, both exact.

    poly_radial: E|w_t|^2 = 2n t, so both sides are 2n.
    vertical_sq: E c_t^2 = (t^2 / 8) |Omega|_F^2 (1 - 1/N) for the left-point
    area sum, so d/dt E c_t^2 = (t / 4) |Omega|_F^2 (1 - 1/N), while
    (1/2) E L_H c^2 = (1/4) E|Omega^T w_t|^2 = (t / 4) |Omega|_F^2.
    """
    if name == "poly_radial":
        return {"ddt": 2.0 * n, "half_generator": 2.0 * n}
    if name == "vertical_sq":
        cont = 0.25 * t * frobenius_sq
        return {"ddt": cont * (1.0 - 1.0 / steps), "half_generator": cont}
    raise KeyError(name)


def _gauss_mean(fn, var: float, points: int = 20001, width: float = 40.0) -> float:
    """E fn(X) for X ~ N(0, var) by the midpoint rule on +-width standard deviations."""
    sd = math.sqrt(var)
    h = 2.0 * width / points
    total = 0.0
    for i in range(points):
        z = -width + (i + 0.5) * h
        total += fn(sd * z) * math.exp(-0.5 * z * z)
    return total * h / math.sqrt(TWO_PI)


def self_check() -> list:
    """Textbook cases; returns the failures (empty when the references hold)."""
    bad = []

    def near(label, got, want, rel=1e-12):
        if not abs(got - want) <= rel * max(1.0, abs(want)):
            bad.append(f"{label}: {got!r} != {want!r}")

    # straight line: c = 0 gives |w|
    near("line", gaveau_distance((1.0, 2.0), (3.0, 4.0, 0.0, 0.0), 0.0), 5.0)
    # pure vertical: the circle law, for any weights
    for weights in ((1.0,), (1.0, 3.0), (2.0, 2.0, 0.5)):
        dim = 2 * len(weights)
        near(f"vertical {weights}", gaveau_distance(weights, (0.0,) * dim, 7.0),
             vertical_distance(max(weights), 7.0), rel=1e-10)
    # semicircle over a chord r in the standard plane: c = pi r^2 / 8, d = pi r / 2
    r = 2.0
    near("semicircle", gaveau_distance((1.0,), (r, 0.0), math.pi * r * r / 8.0),
         0.5 * math.pi * r, rel=1e-10)
    # dilation: d(s w, s^2 c) = s d(w, c)
    base = gaveau_distance((1.0, 2.5), (0.3, -1.2, 0.7, 0.1), 1.9)
    near("dilation", gaveau_distance((1.0, 2.5), (0.9, -3.6, 2.1, 0.3), 1.9 * 9.0), 3.0 * base,
         rel=1e-10)
    # scaling the form by s scales areas, so d_{s a}(w, s c) = d_a(w, c)
    near("form scaling", gaveau_distance((2.0, 5.0), (0.3, -1.2, 0.7, 0.1), 3.8), base, rel=1e-10)
    # the vertical sign does not matter
    near("reflection", gaveau_distance((1.0, 2.5), (0.3, -1.2, 0.7, 0.1), -1.9), base)
    # the distance is squeezed between |w| and the straight-line-plus-circle path
    if not math.hypot(0.3, 1.2, 0.7, 0.1) < base < math.hypot(0.3, 1.2, 0.7, 0.1) + \
            vertical_distance(2.5, 1.9):
        bad.append(f"bounds: {base!r}")
    near("K-gon gap at 64", polygon_gap(64), 4.0156e-4, rel=1e-3)
    # exp_linear against a direct quadrature over w_1 ~ N(0, t)
    for lam, t in ((0.5, 1.0), (0.5, 0.25), (1.3, 0.7)):
        ex = exp_linear_exact(lam, t)
        f2 = _gauss_mean(lambda x: math.exp(2.0 * lam * x), t)
        f2_log = _gauss_mean(lambda x: 2.0 * lam * x * math.exp(2.0 * lam * x), t)
        near(f"exp_linear({lam}) entropy t={t}", ex["entropy"], f2_log - f2 * math.log(f2), rel=1e-9)
        near(f"exp_linear({lam}) energy t={t}", ex["energy"], lam * lam * f2, rel=1e-9)
        near(f"exp_linear({lam}) ratio t={t}", ex["ratio"], ex["entropy"] / ex["energy"])
    # vertical_sq in the standard plane (|Omega|_F^2 = 2): one step sweeps no
    # area; two steps give c = (t / 4)(z1_x z2_y - z1_y z2_x), so E c^2 = t^2 / 8
    # and d/dt E c^2 = t / 4; the generator side is t / 2 for any N
    for steps, ddt in ((1, 0.0), (2, 0.25 * 1.5)):
        hm = heat_moments("vertical_sq", 1, 2.0, 1.5, steps)
        near(f"vertical_sq walk N={steps}", hm["ddt"], ddt)
        near(f"vertical_sq generator N={steps}", hm["half_generator"], 0.75)
    return bad

