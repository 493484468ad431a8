"""Group laws and the circle quotient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import (
    TWO_PI,
    GroupElement,
    LieVector,
    ReducedElement,
    SymplecticForm,
    bracket,
    identity,
    inverse,
    multiply,
    multiply_reduced,
    quotient,
    wrap_angle,
)
from heislab.group import angle_distance

from helpers import exact_skew


class TestWrapAngle:
    def test_fixed_points_and_endpoints(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(TWO_PI) == 0.0
        assert wrap_angle(-TWO_PI) == 0.0
        # a tiny negative input rounds back up to 2*pi and must fold to 0
        assert wrap_angle(-1e-18) == 0.0

    def test_negative_representative(self):
        assert wrap_angle(-0.5) == pytest.approx(TWO_PI - 0.5, rel=1e-15)

    def test_range_and_congruence_property(self):
        rng = np.random.default_rng(21)
        c = rng.uniform(-1e3, 1e3, size=10000)
        r = wrap_angle(c)
        assert np.all(r >= 0.0) and np.all(r < TWO_PI)
        k = np.round((c - r) / TWO_PI)
        assert np.max(np.abs(c - (r + k * TWO_PI))) <= 1e-9

    def test_scalar_and_array_types(self):
        assert isinstance(wrap_angle(7.0), float)
        out = wrap_angle(np.array([0.0, 7.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_scalar_path_matches_array_path_bitwise(self):
        rng = np.random.default_rng(22)
        values = list(rng.uniform(-1e3, 1e3, size=2000))
        values += list(-(10.0 ** rng.uniform(-300, -1, size=200)))
        values += [0.0, -0.0, 5e-324, -5e-324, -1e-18, math.pi, -math.pi]
        values += [k * TWO_PI for k in range(-50, 51)]
        values += [math.nextafter(k * TWO_PI, d) for k in (-3, -1, 1, 3) for d in (-math.inf, math.inf)]
        values += [7, -7, 0, 10**17]
        array = wrap_angle(np.array(values, dtype=float))
        for v, expected in zip(values, array):
            got = wrap_angle(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == expected.tobytes(), v

    def test_angle_distance(self):
        assert angle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, rel=1e-12)
        assert angle_distance(1.0, 1.0) == 0.0
        assert angle_distance(0.0, math.pi) == pytest.approx(math.pi, rel=1e-15)


class TestElements:
    def test_group_element_validation(self):
        with pytest.raises(ValueError):
            GroupElement(np.array([[1.0, 2.0]]), 0.0)  # not 1-d
        with pytest.raises(ValueError):
            GroupElement([1.0, np.inf], 0.0)
        with pytest.raises(ValueError):
            GroupElement([1.0, 2.0], float("nan"))
        # the reduced element and the Lie vector run the same checks
        for cls in (ReducedElement, LieVector):
            for w, v in (([[1.0, 2.0]], 0.0), ([1.0, -np.inf], 0.0),
                         ([np.nan, 2.0], 0.0), ([1.0, 2.0], np.nan), ([1.0, 2.0], np.inf)):
                with pytest.raises(ValueError):
                    cls(w, v)

    def test_reduced_element_range(self):
        ReducedElement([0.0, 0.0], 0.0)
        ReducedElement([0.0, 0.0], TWO_PI - 1e-9)
        with pytest.raises(ValueError):
            ReducedElement([0.0, 0.0], TWO_PI)
        for theta in (-0.1, -1e-300, 7.0):
            with pytest.raises(ValueError):
                ReducedElement([0.0, 0.0], theta)

    def test_identities(self):
        e = identity(4)
        assert np.array_equal(e.w, np.zeros(4)) and e.c == 0.0

    def test_dim_property(self):
        assert GroupElement([1.0, 2.0], 0.0).dim == 2
        assert LieVector(np.zeros(6), 1.0).A.shape == (6,)


def _random_element(rng, dim, c_scale=5.0):
    return GroupElement(rng.standard_normal(dim), c_scale * rng.standard_normal())


class TestGroupLaws:
    def test_associativity(self, iso2):
        rng = np.random.default_rng(22)
        for _ in range(300):
            g1, g2, g3 = (_random_element(rng, 4) for _ in range(3))
            left = multiply(iso2, multiply(iso2, g1, g2), g3)
            right = multiply(iso2, g1, multiply(iso2, g2, g3))
            scale = 1.0 + float(np.max(np.abs(left.w)))
            assert np.max(np.abs(left.w - right.w)) <= 1e-12 * scale
            assert abs(left.c - right.c) <= 1e-12 * (1.0 + abs(left.c))

    def test_identity_is_exact(self, iso2):
        rng = np.random.default_rng(23)
        e = identity(4)
        for _ in range(100):
            g = _random_element(rng, 4)
            for prod in (multiply(iso2, g, e), multiply(iso2, e, g)):
                assert np.array_equal(prod.w, g.w) and prod.c == g.c

    def test_inverse(self, iso2):
        rng = np.random.default_rng(24)
        for _ in range(100):
            g = _random_element(rng, 4)
            prod = multiply(iso2, g, inverse(iso2, g))
            assert np.array_equal(prod.w, np.zeros(4))
            assert abs(prod.c) <= 1e-12 * (1.0 + float(g.w @ g.w))

    def test_left_translation_inverts(self, iso2):
        rng = np.random.default_rng(25)
        for _ in range(100):
            g, h = _random_element(rng, 4), _random_element(rng, 4)
            back = multiply(iso2, inverse(iso2, g), multiply(iso2, g, h))
            assert np.allclose(back.w, h.w, rtol=0.0, atol=1e-12)
            assert abs(back.c - h.c) <= 1e-12 * (1.0 + abs(h.c))

    def test_dimension_mismatch(self, iso1):
        with pytest.raises(ValueError):
            multiply(iso1, identity(4), identity(4))
        with pytest.raises(ValueError):
            inverse(iso1, identity(4))
        with pytest.raises(ValueError):
            r = ReducedElement(np.zeros(4), 0.0)
            multiply_reduced(iso1, r, r)

    def test_noncommutativity_measures_the_form(self, iso1):
        # g1 g2 and g2 g1 differ vertically by exactly omega(w1, w2)
        g1 = GroupElement([1.0, 0.0], 0.0)
        g2 = GroupElement([0.0, 1.0], 0.0)
        a = multiply(iso1, g1, g2)
        b = multiply(iso1, g2, g1)
        assert a.c - b.c == iso1.pair(g1.w, g2.w) == 1.0


_COORD = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def _form_and_elements(draw):
    """A random exact-skew form on R^2n and three elements of its group."""
    dim = 2 * draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    form = SymplecticForm(exact_skew(np.random.default_rng(seed).standard_normal((dim, dim))))
    coords = st.lists(_COORD, min_size=dim, max_size=dim)
    return form, [GroupElement(draw(coords), draw(_COORD)) for _ in range(3)]


def _size(form, elements):
    """Bound on every term of the products: |c| plus the largest pairing."""
    w1 = sum(float(np.abs(g.w).sum()) for g in elements)
    return 1.0 + sum(abs(g.c) for g in elements) + float(np.abs(form.omega).max()) * w1 * w1


class TestGroupLawProperties:
    """Group laws on random exact-skew forms, to 1e-12 relative."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_form_and_elements())
    def test_laws(self, case):
        form, (g1, g2, g3) = case
        tol = 1e-12 * _size(form, (g1, g2, g3))
        left = multiply(form, multiply(form, g1, g2), g3)
        right = multiply(form, g1, multiply(form, g2, g3))
        assert np.max(np.abs(left.w - right.w)) <= tol and abs(left.c - right.c) <= tol
        prod = multiply(form, g1, inverse(form, g1))
        assert np.array_equal(prod.w, np.zeros(form.dim)) and abs(prod.c) <= tol
        via_full = quotient(multiply(form, g1, g2))
        via_reduced = multiply_reduced(form, quotient(g1), quotient(g2))
        assert np.array_equal(via_full.w, via_reduced.w)
        assert angle_distance(via_full.theta, via_reduced.theta) <= tol


class TestQuotient:
    def test_quotient_wraps(self):
        g = GroupElement([1.0, 2.0], 7.0)
        r = quotient(g)
        assert np.array_equal(r.w, g.w)
        assert r.theta == wrap_angle(7.0)

    def test_homomorphism(self, iso2):
        rng = np.random.default_rng(26)
        for _ in range(300):
            g1, g2 = _random_element(rng, 4, 20.0), _random_element(rng, 4, 20.0)
            via_full = quotient(multiply(iso2, g1, g2))
            via_reduced = multiply_reduced(iso2, quotient(g1), quotient(g2))
            assert np.array_equal(via_full.w, via_reduced.w)
            assert angle_distance(via_full.theta, via_reduced.theta) <= 1e-12

    def test_reduced_product_stays_canonical(self, iso1):
        r1 = ReducedElement([1.0, 0.0], 6.0)
        r2 = ReducedElement([0.0, 1.0], 6.0)
        out = multiply_reduced(iso1, r1, r2)
        assert 0.0 <= out.theta < TWO_PI


class TestExponentialAndBracket:
    def test_bracket_is_vertical(self, iso2):
        rng = np.random.default_rng(27)
        X = LieVector(rng.standard_normal(4), 1.0)
        Y = LieVector(rng.standard_normal(4), -2.0)
        Z = bracket(iso2, X, Y)
        assert np.array_equal(Z.A, np.zeros(4))
        assert Z.a == pytest.approx(iso2.pair(X.A, Y.A), rel=1e-15)

    def test_step_two_nilpotency_is_exact(self, iso2):
        rng = np.random.default_rng(28)
        for _ in range(100):
            X = LieVector(rng.standard_normal(4), rng.standard_normal())
            Y = LieVector(rng.standard_normal(4), rng.standard_normal())
            W = LieVector(rng.standard_normal(4), rng.standard_normal())
            inner = bracket(iso2, X, Y)
            outer = bracket(iso2, inner, W)
            assert outer.a == 0.0
            assert np.array_equal(outer.A, np.zeros(4))

    def test_bracket_dimension_mismatch(self, iso1):
        with pytest.raises(ValueError):
            bracket(iso1, LieVector(np.zeros(4), 0.0), LieVector(np.zeros(4), 0.0))
