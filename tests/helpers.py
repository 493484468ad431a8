"""Hand-built observables and basis-rotation utilities shared by the tests."""

import numpy as np

from heislab import CylinderFunction, full_projection


def _zeros_like_wp(wp):
    return np.zeros(wp.shape)


def _zeros_scalar(wp, v):
    return np.zeros(np.broadcast(wp[..., 0], v).shape)


def constant_function(dim, value=1.0):
    """f(g) = value everywhere, with exact (zero) partials."""
    value = float(value)
    return CylinderFunction(
        name=f"const({value:g})",
        projection=full_projection(dim),
        F=lambda wp, v: np.full(np.broadcast(wp[..., 0], v).shape, value),
        periodic=True,
        dF_dw=lambda wp, v: _zeros_like_wp(wp),
        dF_dc=_zeros_scalar,
        lap_w=_zeros_scalar,
        d2F_dwc=lambda wp, v: _zeros_like_wp(wp),
        d2F_dcc=_zeros_scalar,
    )


def linear_coordinate(dim, axis=0):
    """f(g) = w_{axis+1}; the horizontal gradient is the constant e_{axis+1}."""

    def dF_dw(wp, v):
        out = np.zeros(wp.shape)
        out[..., axis] = 1.0
        return out

    return CylinderFunction(
        name=f"coord_{axis + 1}",
        projection=full_projection(dim),
        F=lambda wp, v: np.array(wp[..., axis], float),
        periodic=True,
        dF_dw=dF_dw,
        dF_dc=_zeros_scalar,
        lap_w=_zeros_scalar,
        d2F_dwc=lambda wp, v: _zeros_like_wp(wp),
        d2F_dcc=_zeros_scalar,
    )


def zero_function(dim):
    """f identically zero (degenerate input for the entropy estimator)."""

    return CylinderFunction(
        name="zero",
        projection=full_projection(dim),
        F=lambda wp, v: np.zeros(np.broadcast(wp[..., 0], v).shape),
        periodic=True,
        dF_dw=lambda wp, v: _zeros_like_wp(wp),
        dF_dc=_zeros_scalar,
        lap_w=_zeros_scalar,
        d2F_dwc=lambda wp, v: _zeros_like_wp(wp),
        d2F_dcc=_zeros_scalar,
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

    return CylinderFunction(
        name=f.name + "_rotated",
        projection=f.projection,
        F=lambda wp, v: f.F(to_old(wp), v),
        periodic=f.periodic,
        dF_dw=lambda wp, v: np.asarray(f.dF_dw(to_old(wp), v), float) @ R,
        dF_dc=lambda wp, v: f.dF_dc(to_old(wp), v),
        # the flat Laplacian commutes with orthogonal changes of variables
        lap_w=lambda wp, v: f.lap_w(to_old(wp), v),
        d2F_dwc=lambda wp, v: np.asarray(f.d2F_dwc(to_old(wp), v), float) @ R,
        d2F_dcc=lambda wp, v: f.d2F_dcc(to_old(wp), v),
    )
