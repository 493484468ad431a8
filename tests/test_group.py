"""Group laws, the circle quotient, and serialization."""

import math

import numpy as np
import pytest

from heislab import (
    TWO_PI,
    GroupElement,
    LieVector,
    ReducedElement,
    bracket,
    exp_group,
    exp_reduced,
    identity,
    inverse,
    multiply,
    multiply_reduced,
    quotient,
    reduced_identity,
    wrap_angle,
)
from heislab.group import angle_distance, element_from_csv, element_to_csv


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

    def test_reduced_element_range(self):
        ReducedElement([0.0, 0.0], 0.0)
        ReducedElement([0.0, 0.0], TWO_PI - 1e-9)
        with pytest.raises(ValueError):
            ReducedElement([0.0, 0.0], TWO_PI)
        with pytest.raises(ValueError):
            ReducedElement([0.0, 0.0], -0.1)

    def test_identities(self):
        e = identity(4)
        assert np.array_equal(e.w, np.zeros(4)) and e.c == 0.0
        er = reduced_identity(2)
        assert np.array_equal(er.w, np.zeros(2)) and er.theta == 0.0

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

    def test_noncommutativity_measures_the_form(self, iso1):
        # g1 g2 and g2 g1 differ vertically by exactly omega(w1, w2)
        g1 = GroupElement([1.0, 0.0], 0.0)
        g2 = GroupElement([0.0, 1.0], 0.0)
        a = multiply(iso1, g1, g2)
        b = multiply(iso1, g2, g1)
        assert a.c - b.c == iso1.pair(g1.w, g2.w) == 1.0


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
    def test_exp_is_coordinate_identity(self):
        X = LieVector([1.0, -2.0], 3.0)
        g = exp_group(X)
        assert np.array_equal(g.w, X.A) and g.c == X.a

    def test_exp_reduced_wraps(self):
        X = LieVector([1.0, -2.0], 7.0)
        r = exp_reduced(X)
        assert r.theta == wrap_angle(7.0)

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


class TestCsv:
    def test_roundtrip_full(self):
        g = GroupElement([0.1, -2.5, 1e-17, 3.0], -7.25)
        back = element_from_csv(element_to_csv(g))
        assert isinstance(back, GroupElement)
        assert np.array_equal(back.w, g.w) and back.c == g.c

    def test_roundtrip_reduced(self):
        r = ReducedElement([1.0, 2.0], 0.5)
        back = element_from_csv(element_to_csv(r), reduced=True)
        assert isinstance(back, ReducedElement)
        assert np.array_equal(back.w, r.w) and back.theta == r.theta

    def test_malformed_rows(self):
        with pytest.raises(ValueError):
            element_from_csv("1.0,2.0")  # no vertical coordinate
        with pytest.raises(ValueError):
            element_from_csv("1.0,2.0,3.0,4.0")  # odd w-count
        with pytest.raises(TypeError):
            element_to_csv((1.0, 2.0))
