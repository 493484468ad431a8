"""Forms, projections, and the bracket-generation check."""

import numpy as np
import pytest

from heislab import (
    GroupElement,
    Projection,
    ReducedElement,
    SymplecticForm,
    check_hormander,
    full_projection,
    make_isotropic_form,
    make_nonisotropic_form,
    project_element,
)


class TestSymplecticForm:
    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            SymplecticForm(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SymplecticForm(np.zeros((3, 3)))  # odd dimension
        with pytest.raises(ValueError):
            SymplecticForm(np.array([[0.0, 1.0], [-1.0, np.nan]]))
        with pytest.raises(ValueError):
            SymplecticForm(np.eye(2))  # not skew
        # skew but degenerate: one canonical block padded with zeros
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = 1.0, -1.0
        with pytest.raises(ValueError):
            SymplecticForm(om)

    def test_matrix_is_frozen(self):
        form = make_isotropic_form(1)
        with pytest.raises(ValueError):
            form.omega[0, 1] = 7.0

    def test_antisymmetry_property(self):
        rng = np.random.default_rng(11)
        form = make_nonisotropic_form((1.0, 2.5, 0.3))
        for _ in range(200):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            scale = 1.0 + abs(form.pair(x, y))
            assert abs(form.pair(x, y) + form.pair(y, x)) <= 1e-12 * scale
            assert abs(form.pair(x, x)) <= 1e-12 * (1.0 + float(x @ x))

    def test_batched_pair_matches_scalar(self):
        rng = np.random.default_rng(12)
        form = make_isotropic_form(2)
        xs = rng.standard_normal((50, 4))
        ys = rng.standard_normal((50, 4))
        batched = form.pair(xs, ys)
        assert batched.shape == (50,)
        for i in range(50):
            assert batched[i] == pytest.approx(form.pair(xs[i], ys[i]), rel=1e-12, abs=1e-14)

    def test_pair_with_basis(self):
        rng = np.random.default_rng(13)
        form = make_nonisotropic_form((2.0, 5.0))
        w = rng.standard_normal(4)
        u = form.pair_with_basis(w)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            assert u[j] == pytest.approx(form.pair(w, e), rel=1e-12, abs=1e-14)
        stacked = form.pair_with_basis(np.stack([w, 2 * w]))
        assert stacked.shape == (2, 4)
        assert np.allclose(stacked[0], u)

    def test_exact_constants(self):
        iso = make_isotropic_form(3)
        assert iso.dim == 6 and iso.n == 3
        assert iso.frobenius_sq() == 6.0
        assert iso.sv_max == pytest.approx(1.0, rel=1e-12)
        weighted = make_nonisotropic_form((2.0, 3.0))
        assert weighted.frobenius_sq() == 26.0
        assert weighted.sv_max == pytest.approx(3.0, rel=1e-12)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            make_isotropic_form(0)
        with pytest.raises(ValueError):
            make_nonisotropic_form(())
        with pytest.raises(ValueError):
            make_nonisotropic_form((1.0, 0.0))

    def test_block_layout(self):
        form = make_nonisotropic_form((4.0,))
        assert np.array_equal(form.omega, np.array([[0.0, 4.0], [-4.0, 0.0]]))


def _random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def _block_form(weights):
    om = np.zeros((2 * len(weights), 2 * len(weights)))
    for j, a in enumerate(weights):
        om[2 * j, 2 * j + 1], om[2 * j + 1, 2 * j] = a, -a
    return om


class TestNormalForm:
    @pytest.mark.parametrize("weights", [None, (0.25, 1.0, 4.0), (1.3, 0.7, 2.9)])
    def test_model_forms_are_their_own_normal_form(self, weights):
        form = make_isotropic_form(3) if weights is None else make_nonisotropic_form(weights)
        weights = weights or (1.0, 1.0, 1.0)
        assert np.array_equal(form.frame, np.eye(6))
        assert np.array_equal(form.weights, weights)
        assert form.sv_max == max(weights)
        for arr in (form.weights, form.frame):
            with pytest.raises(ValueError):
                arr[0] = 7.0

    def test_rotated_form_is_brought_back_to_blocks(self):
        rng = np.random.default_rng(14)
        for weights in ((1.0, 2.0), (0.5, 0.5, 3.0), (1.3, 0.7, 2.9)):
            q = _random_rotation(rng, 2 * len(weights))
            om = q @ _block_form(weights) @ q.T
            form = SymplecticForm(0.5 * (om - om.T))
            frame, a = form.frame, form.weights
            assert np.allclose(frame.T @ frame, np.eye(form.dim), rtol=0, atol=1e-12)
            assert np.allclose(frame.T @ form.omega @ frame, _block_form(a), rtol=0, atol=1e-12)
            assert np.allclose(np.sort(a), np.sort(weights), rtol=0, atol=1e-12)
            assert form.sv_max == a.max()

    def test_rotated_degenerate_form_is_rejected(self):
        rng = np.random.default_rng(15)
        for weights in ((1.0, 0.0), (2.0, 0.0, 0.5), (0.0, 0.0, 1.0)):
            q = _random_rotation(rng, 2 * len(weights))
            om = q @ _block_form(weights) @ q.T
            with pytest.raises(ValueError, match="degenerate"):
                SymplecticForm(0.5 * (om - om.T))


class TestProjection:
    @pytest.mark.parametrize(
        "indices",
        [(), (1,), (1, 1), (0, 1), (2, 1), (1, 2, 3)],
    )
    def test_rejects_bad_indices(self, indices):
        with pytest.raises(ValueError):
            Projection(indices)

    def test_accessors(self):
        p = Projection((1, 2, 5, 6))
        assert p.size == 4
        assert np.array_equal(p.zero_based, [0, 1, 4, 5])
        assert not p.is_full(6)
        assert full_projection(6).is_full(6)
        assert not full_projection(4).is_full(6)


class TestHormander:
    def test_full_projection_passes(self, iso2):
        assert check_hormander(iso2, full_projection(4))

    def test_cross_block_projection_fails(self, iso2):
        # coordinates 1 and 3 sit in different blocks; the restricted form is 0
        assert not check_hormander(iso2, Projection((1, 3)))

    def test_single_block_passes(self, iso2):
        assert check_hormander(iso2, Projection((3, 4)))

    def test_out_of_range_raises(self, iso1):
        with pytest.raises(ValueError):
            check_hormander(iso1, Projection((3, 4)))


class TestProjectElement:
    def test_full_group(self):
        g = GroupElement([1.0, 2.0, 3.0, 4.0], 5.0)
        proj = project_element(Projection((1, 2)), g)
        assert isinstance(proj, GroupElement)
        assert np.array_equal(proj.w, [1.0, 2.0, 0.0, 0.0])
        assert proj.c == 5.0

    def test_reduced_group(self):
        r = ReducedElement([1.0, 2.0, 3.0, 4.0], 0.25)
        proj = project_element(Projection((3, 4)), r)
        assert isinstance(proj, ReducedElement)
        assert np.array_equal(proj.w, [0.0, 0.0, 3.0, 4.0])
        assert proj.theta == 0.25

    def test_errors(self):
        g = GroupElement([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            project_element(Projection((3, 4)), g)
        with pytest.raises(TypeError):
            project_element(Projection((1, 2)), "not an element")
