"""Scalar group and calculus operations: bits, valid results, and the checks.

Every operation on single elements must equal its defining numpy
expression bit for bit, on block forms and on framed ones, and return an
element that its public constructor accepts unchanged; products and brackets
that overflow must still raise, and finite elements whose squares overflow
must still be accepted.  The input checks are tested beside each operation's
other tests.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import (
    TWO_PI,
    GroupElement,
    LieVector,
    Projection,
    ReducedElement,
    REGISTRY_DEFAULT_SELECTION,
    SymplecticForm,
    bracket,
    horizontal_gradient,
    identity,
    inverse,
    make_isotropic_form,
    make_registry_function,
    multiply,
    multiply_reduced,
    project_element,
    quotient,
    sub_laplacian,
    wrap_angle,
)

from helpers import exact_skew

# signed zeros often: x * 0 - y * a is -0 for x < 0 = y, where the dense product has +0
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e3, max_value=1e3))
_VERTICAL = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_THETA = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


@st.composite
def _cases(draw):
    """A random form on R^dim, dim in 2..16, two points on it, a projection
    and a registry function read through that projection.  The form is a block
    form with random positive weights (frame None, as the model's makers and
    the config build it) or the normal form of a random exact-skew matrix."""
    dim = 2 * draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        form = SymplecticForm(np.exp(rng.uniform(-3.0, 3.0, size=dim // 2)))
    else:
        form = SymplecticForm.from_matrix(exact_skew(rng.standard_normal((dim, dim))))
    size = 2 * draw(st.integers(1, dim // 2))
    proj = Projection(tuple(sorted(int(i) + 1 for i in rng.choice(dim, size, replace=False))))
    f = replace(make_registry_function(draw(st.sampled_from(REGISTRY_DEFAULT_SELECTION)), dim),
                projection=proj)
    coords = st.lists(_COORD, min_size=dim, max_size=dim)
    w = [np.array(draw(coords)) for _ in range(2)]
    return form, proj, f, w, [draw(_VERTICAL) for _ in range(2)], [draw(_THETA) for _ in range(2)]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_valid(el):
    """The public constructor accepts el and keeps every bit and type."""
    again = replace(el)
    for field in fields(el):
        assert _bits(getattr(again, field.name)) == _bits(getattr(el, field.name))
    h, v = (getattr(el, field.name) for field in fields(el))
    assert type(h) is np.ndarray and h.dtype == np.float64 and h.ndim == 1
    assert type(v) is float


def _assert_element(el, w, v):
    _assert_valid(el)
    h, got = (getattr(el, field.name) for field in fields(el))
    assert _bits(h) == _bits(w) and _bits(got) == _bits(v)


def _pair(form, x, y):
    return float(x @ form.omega @ y)


class TestBitsAndValidity:
    """Each operation equals its defining numpy expression, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_cases())
    def test_group_laws(self, case):
        form, _, _, (w1, w2), (c1, c2), (th1, th2) = case
        g1, g2 = GroupElement(w1, c1), GroupElement(w2, c2)
        r1, r2 = ReducedElement(w1, th1), ReducedElement(w2, th2)
        _assert_element(multiply(form, g1, g2), w1 + w2, c1 + c2 + 0.5 * _pair(form, w1, w2))
        _assert_element(inverse(form, g1), -w1, -c1)
        # wrap_angle of a 0-d array takes numpy's fmod path
        theta = wrap_angle(np.array(th1 + th2 + 0.5 * _pair(form, w1, w2)))
        _assert_element(multiply_reduced(form, r1, r2), w1 + w2, theta)
        _assert_element(quotient(g1), w1, wrap_angle(np.array(c1)))
        X, Y = LieVector(w1, c1), LieVector(w2, c2)
        _assert_element(bracket(form, X, Y), np.zeros(form.dim), _pair(form, w1, w2))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_cases())
    def test_projection(self, case):
        form, proj, _, (w1, _), (c1, _), (th1, _) = case
        keep = np.isin(np.arange(form.dim), np.array(proj.indices) - 1)
        _assert_element(project_element(proj, GroupElement(w1, c1)), np.where(keep, w1, 0.0), c1)
        _assert_element(project_element(proj, ReducedElement(w1, th1)), np.where(keep, w1, 0.0), th1)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_cases())
    def test_calculus(self, case):
        form, proj, f, (w1, _), (c1, _), (th1, _) = case
        ix = np.array(proj.indices) - 1
        points = [(GroupElement(w1, c1), c1)]
        if f.periodic:
            points.append((ReducedElement(w1, th1), th1))
        for g, v in points:
            u = w1 @ form.omega  # omega(w, e_j) over all j
            # a partial that vanishes identically is None, and its terms are left out
            gw, gv = f.first_derivs(w1[ix], v)
            grad = np.zeros(form.dim) if gv is None else 0.5 * gv * u
            if gw is not None:
                grad[ix] += gw
            assert _bits(horizontal_gradient(form, f, g)) == _bits(grad)
            lap, hwc, hcc = f.second_derivs(w1[ix], v)
            terms = [lap, None if hwc is None else np.dot(u[ix], hwc),
                     None if hcc is None else 0.25 * np.dot(u, u) * hcc]
            present = [x for x in terms if x is not None]
            sublap = sub_laplacian(form, f, g)
            assert type(sublap) is float
            assert _bits(sublap) == _bits(sum(present[1:], present[0]))


class TestLargeFiniteElements:
    """A finite entry is valid however large: the check must not square it."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [[1e200, 1e200], [1.7e308, 0.0], [-1.7e308, 1.7e308]])
    def test_accepted_without_warning(self, w):
        form = make_isotropic_form(1)
        g = GroupElement(w, 1.0)
        _assert_element(g, np.array(w), 1.0)
        _assert_element(ReducedElement(w, 1.0), np.array(w), 1.0)
        _assert_element(LieVector(w, 1.0), np.array(w), 1.0)
        _assert_element(multiply(form, g, identity(2)), np.array(w), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        for cls in (GroupElement, ReducedElement, LieVector):
            with pytest.raises(ValueError, match="horizontal part has non-finite entries"):
                cls([1e200, bad], 1.0)


class TestOverflowStillRaises:
    # numpy warns about the overflow before the element check raises
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "w1, c1, w2, c2",
        [
            ([1e308, 0.0], 0.0, [1e308, 0.0], 0.0),    # w1 + w2
            ([0.0, 0.0], 1e308, [0.0, 0.0], 1e308),    # c1 + c2
            ([1e200, 0.0], 0.0, [0.0, 1e200], 0.0),    # omega(w1, w2)
        ],
        ids=["w", "c", "pairing"],
    )
    def test_product_overflow(self, w1, c1, w2, c2):
        form = make_isotropic_form(1)
        with pytest.raises(ValueError):
            multiply(form, GroupElement(w1, c1), GroupElement(w2, c2))
        if abs(c1) < TWO_PI:  # the reduced factors need a valid theta
            with pytest.raises(ValueError):
                multiply_reduced(form, ReducedElement(w1, c1), ReducedElement(w2, c2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bracket_overflow(self):
        form = make_isotropic_form(1)
        with pytest.raises(ValueError):
            bracket(form, LieVector([1e200, 0.0], 0.0), LieVector([0.0, 1e200], 0.0))
