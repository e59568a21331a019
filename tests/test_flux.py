"""Flux evaluation, Jacobians and randomized structure probes."""

import numpy as np
import pytest

from sgdm.flux import (
    FluxModel,
    custom_flux,
    eval_flux,
    eval_flux_jacobian,
    linear_diffusion,
    p_laplace,
    probe_assumptions,
    regularized_p_laplace,
)


class TestEval:
    def test_linear_is_identity(self):
        y = np.array([[3.0, -1.0]])
        np.testing.assert_array_equal(eval_flux(linear_diffusion(), 0.0, y), y)

    def test_p_laplace_unit_gradient(self):
        out = eval_flux(p_laplace(4.0), 0.0, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_p_laplace_p3_doubles(self):
        out = eval_flux(p_laplace(3.0), 0.0, np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(out, [[4.0, 0.0]])

    def test_p_laplace_zero_gradient(self):
        out = eval_flux(p_laplace(1.5), 0.0, np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            eval_flux(p_laplace(2.0), np.nan, np.array([[1.0, 0.0]]))

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            FluxModel("p_laplace", 1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("p", float("inf")),
            ("c1", float("nan")),
            ("c1", float("inf")),
            ("c2", float("nan")),
            ("c2", 0.0),
            ("newton_epsilon", -1.0),
            ("newton_epsilon", float("nan")),
            ("newton_epsilon", float("inf")),
        ],
    )
    def test_bad_constant_rejected_by_name(self, name, value):
        kwargs = {"kind": "p_laplace", "p": 3.0, name: value}
        with pytest.raises(ValueError, match=name):
            FluxModel(**kwargs)


BUILT_IN = {
    "p3": p_laplace(3.0),
    "p1.5_eps": p_laplace(1.5),
    "regularized_p3": regularized_p_laplace(3.0),
    "regularized_p1.5": regularized_p_laplace(1.5),
    "linear": linear_diffusion(),
}


class TestComponentLayout:
    """The stepper passes gradients as an F-ordered (n, d) view of (d, n)
    memory; the kernels compute on component rows either way."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(BUILT_IN))
    def test_f_ordered_gradients_give_the_same_bits(self, name, d):
        model = BUILT_IN[name]
        y = np.random.default_rng(4).uniform(-2.0, 2.0, (200, d))
        y[::5] = 0.0  # rows where y = 0
        y[1::7, 0] = -0.0
        x = np.zeros(len(y))
        y_f = np.asfortranarray(y)
        for evaluate in (eval_flux, eval_flux_jacobian):
            c, f = evaluate(model, x, y), evaluate(model, x, y_f)
            assert c.shape == f.shape
            assert np.ascontiguousarray(c).tobytes() == np.ascontiguousarray(f).tobytes()
        assert eval_flux(model, x, y_f).T.flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(BUILT_IN) + ["finite_difference"])
    def test_jacobian_held_component_major(self, name, d):
        model = BUILT_IN.get(name) or custom_flux(3.0, lambda x, y: np.abs(y) * y)
        y = np.random.default_rng(5).uniform(-2.0, 2.0, (50, d))
        J = eval_flux_jacobian(model, np.zeros(len(y)), np.asfortranarray(y))
        assert J.shape == (50, d, d)
        assert J.transpose(1, 2, 0).flags.c_contiguous  # (d, d, n) memory


class TestJacobian:
    def test_linear_identity_matrix(self):
        J = eval_flux_jacobian(linear_diffusion(), 0.0, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(J[0], np.eye(2))

    def test_p2_identity(self):
        J = eval_flux_jacobian(p_laplace(2.0), 0.0, np.array([[0.7, -0.3]]))
        np.testing.assert_allclose(J[0], np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("model", [p_laplace(3.0), regularized_p_laplace(2.5), p_laplace(4.0)])
    def test_finite_difference_oracle(self, model):
        rng = np.random.default_rng(0)
        y = rng.uniform(-2, 2, (50, 2))
        y = y[np.linalg.norm(y, axis=1) > 0.1]
        J = eval_flux_jacobian(model, np.zeros(len(y)), y)
        h = 1e-6
        for k in range(2):
            dy = np.zeros_like(y)
            dy[:, k] = h
            fd = (eval_flux(model, 0.0, y + dy) - eval_flux(model, 0.0, y - dy)) / (2 * h)
            np.testing.assert_allclose(J[:, :, k], fd, atol=1e-6)

    def test_jacobian_symmetric(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(-3, 3, (100, 2))
        for model in (p_laplace(3.0), regularized_p_laplace(1.7), linear_diffusion()):
            J = eval_flux_jacobian(model, np.zeros(len(y)), y)
            np.testing.assert_allclose(J, np.swapaxes(J, 1, 2), atol=1e-12)

    def test_smoothed_at_origin_for_p_below_two(self):
        model = p_laplace(1.5)  # default epsilon 1e-6
        J = eval_flux_jacobian(model, 0.0, np.array([[0.0, 0.0]]))
        assert np.all(np.isfinite(J))


class TestProbes:
    @pytest.mark.parametrize("model", [p_laplace(1.5), p_laplace(2.0), p_laplace(3.0), linear_diffusion()])
    def test_p_laplace_family_clean(self, model):
        rep = probe_assumptions(model, 100_000, rng_seed=7)
        assert rep.passed
        assert rep.tight_c1 >= 1.0 - 1e-9

    def test_regularized_clean_with_declared_constants(self):
        # the naive bound c2 = 1 is false for p > 2 (check: |y| = 10 gives
        # (1+r)^0.5 r = 33.2 > 32.6 = 1 + r^1.5); the model declares 2^(p-2)
        model = regularized_p_laplace(2.5)
        rep = probe_assumptions(model, 100_000, rng_seed=7)
        assert rep.passed
        assert rep.tight_c2 <= model.c2 + 1e-9
        assert rep.tight_c2 > 1.0  # witnesses that c2 = 1 would fail

    def test_anti_monotone_detected(self):
        bad = custom_flux(2.0, lambda x, y: -y)
        rep = probe_assumptions(bad, 1000, rng_seed=3)
        assert rep.monotonicity_violations > 0
        assert not rep.passed

    def test_continuity_probe(self):
        rng = np.random.default_rng(5)
        for model in (p_laplace(2.0), p_laplace(3.0)):
            y = rng.uniform(-3, 3, (10_000, 2))
            d = rng.standard_normal((len(y), 2))
            d *= 1e-8 / np.linalg.norm(d, axis=1)[:, None]
            J = eval_flux_jacobian(model, np.zeros(len(y)), y)
            jn = np.linalg.norm(J, axis=(1, 2))
            diff = np.linalg.norm(
                eval_flux(model, 0.0, y + d) - eval_flux(model, 0.0, y), axis=1
            )
            assert np.all(diff <= 10.0 * jn * 1e-8 + 1e-10)

    def test_continuity_probe_singular_range(self):
        # p < 2: restrict to gradients away from the Jacobian singularity
        model = p_laplace(1.5)
        rng = np.random.default_rng(6)
        y = rng.uniform(-3, 3, (10_000, 2))
        y = y[np.linalg.norm(y, axis=1) >= 0.1]
        d = rng.standard_normal((len(y), 2))
        d *= 1e-8 / np.linalg.norm(d, axis=1)[:, None]
        J = eval_flux_jacobian(model, np.zeros(len(y)), y)
        jn = np.linalg.norm(J, axis=(1, 2))
        diff = np.linalg.norm(eval_flux(model, 0.0, y + d) - eval_flux(model, 0.0, y), axis=1)
        assert np.all(diff <= 10.0 * jn * 1e-8 + 1e-10)

    def test_sample_count_required(self):
        with pytest.raises(ValueError):
            probe_assumptions(p_laplace(2.0), 0)
