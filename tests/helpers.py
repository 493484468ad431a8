"""Hand-built observables and basis-rotation utilities shared by the tests."""

import numpy as np

from heislab import CylinderFunction, full_projection


def _zeros_scalar(wp, v):
    return np.zeros(np.broadcast(wp[..., 0], v).shape)


def _zero_first(wp, v):
    return np.zeros(wp.shape), _zeros_scalar(wp, v)


def _zero_second(wp, v):
    return _zeros_scalar(wp, v), np.zeros(wp.shape), _zeros_scalar(wp, v)


def constant_function(dim, value=1.0):
    """f(g) = value everywhere, with exact (zero) partials."""
    value = float(value)
    return CylinderFunction(
        name=f"const({value:g})",
        projection=full_projection(dim),
        F=lambda wp, v: np.full(np.broadcast(wp[..., 0], v).shape, value),
        first=_zero_first,
        second=_zero_second,
        periodic=True,
    )


def linear_coordinate(dim, axis=0):
    """f(g) = w_{axis+1}; the horizontal gradient is the constant e_{axis+1}."""

    def first(wp, v):
        gw = np.zeros(wp.shape)
        gw[..., axis] = 1.0
        return gw, _zeros_scalar(wp, v)

    return CylinderFunction(
        name=f"coord_{axis + 1}",
        projection=full_projection(dim),
        F=lambda wp, v: np.array(wp[..., axis], float),
        first=first,
        second=_zero_second,
        periodic=True,
    )


def zero_function(dim):
    """f identically zero (degenerate input for the entropy estimator)."""

    return CylinderFunction(
        name="zero",
        projection=full_projection(dim),
        F=_zeros_scalar,
        first=_zero_first,
        second=_zero_second,
        periodic=True,
    )


def random_orthogonal(rng, dim):
    """Haar-ish orthogonal matrix with a deterministic sign convention."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def exact_skew(matrix):
    """Project onto skew matrices so that M.T == -M holds entry for entry."""
    return 0.5 * (matrix - matrix.T)


def rotated_function(f, rotation):
    """Express a full-projection analytic f in the rotated basis.

    If new coordinates are w' = R^T w, the same point function reads
    F'(w', v) = F(R w', v); the partials transform by the chain rule.
    """
    if not f.projection.is_full(rotation.shape[0]):
        raise ValueError("basis rotation needs a full-projection function")
    R = np.asarray(rotation, float)

    def to_old(wp):
        return wp @ R.T

    def first(wp, v):
        gw, gv = f.first(to_old(wp), v)
        return np.asarray(gw, float) @ R, gv

    def second(wp, v):
        # the flat Laplacian commutes with orthogonal changes of variables
        lap, hwc, hcc = f.second(to_old(wp), v)
        return lap, np.asarray(hwc, float) @ R, hcc

    return CylinderFunction(
        name=f.name + "_rotated",
        projection=f.projection,
        F=lambda wp, v: f.F(to_old(wp), v),
        first=first,
        second=second,
        periodic=f.periodic,
    )
