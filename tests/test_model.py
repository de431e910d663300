import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle
from sgaflow.model import (d_matrix, feature_matrix, loss_gradient,
                           loss_hvp, loss_value, phi_gradient, phi_value)
from sgaflow.verify import fd_gradient

from conftest import linear_problem, mlp_problem, quadratic_datasets


class TestLossValue:
    def test_scalar_linear_case(self):
        # h(x) = theta*x, theta=2, point (1, 0), squared loss -> 4
        o = ModelOracle("linear_features", 1)
        z = Dataset([[1.0]], [0.0], "train")
        assert loss_value(o, [2.0], z) == 4.0

    def test_interpolating_theta_gives_zero(self):
        o, data = linear_problem(seed=2)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(o.param_dim)
        z = Dataset(data.z_train.x, o.predict(theta, data.z_train.x), "train")
        assert loss_value(o, theta, z) == pytest.approx(0.0, abs=1e-28)

    def test_mlp_matches_naive_loop(self):
        o, data = mlp_problem(seed=5)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(o.param_dim)
        z = data.z_train
        naive = 0.0
        for i in range(z.m):
            naive += (o.predict(theta, z.x[i:i + 1])[0] - z.y[i]) ** 2
        naive /= z.m
        assert loss_value(o, theta, z) == pytest.approx(naive, rel=1e-12)

    def test_dimension_mismatch(self):
        o = ModelOracle("linear_features", 2)
        z = Dataset([[1.0]], [0.0], "train")
        with pytest.raises(ValueError):
            loss_value(o, [1.0, 2.0], z)
        with pytest.raises(ValueError):
            loss_value(o, [1.0], Dataset([[1.0, 2.0]], [0.0], "train"))


class TestLossGradient:
    def test_identity_gradient_on_quadratic(self):
        z1, _, _ = quadratic_datasets(2)
        o = ModelOracle("linear_features", 2)
        np.testing.assert_allclose(loss_gradient(o, [1.0, -2.0], z1),
                                   [1.0, -2.0], rtol=1e-14)

    def test_zero_residual_is_stationary(self):
        o, data = linear_problem(seed=3)
        theta = np.random.default_rng(2).standard_normal(o.param_dim)
        z = Dataset(data.z_train.x, o.predict(theta, data.z_train.x), "train")
        np.testing.assert_allclose(loss_gradient(o, theta, z),
                                   np.zeros(o.param_dim), atol=1e-14)

    @pytest.mark.parametrize("family,tol", [("linear", 1e-6), ("mlp", 1e-4)])
    def test_matches_finite_differences(self, family, tol):
        o, data = (linear_problem() if family == "linear" else mlp_problem())
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.standard_normal(o.param_dim)
            step = 1e-6 * (1.0 + np.linalg.norm(theta))
            fd = fd_gradient(lambda t: loss_value(o, t, data.z_train),
                             theta, step)
            g = loss_gradient(o, theta, data.z_train)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(g - fd)) / scale <= tol


class TestLossGradientStack:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_stack_equals_row_by_row(self, family):
        if family == "linear":
            _, data = linear_problem(d=2, seed=8)
            o = ModelOracle("linear_features", 2, degree=2, include_bias=True)
        else:
            o, data = mlp_problem(d=2, seed=8)
        thetas = np.random.default_rng(3).standard_normal((6, o.param_dim))
        stacked = loss_gradient(o, thetas, data.z_train)
        assert stacked.shape == (6, o.param_dim)
        for b in range(6):
            np.testing.assert_array_equal(
                stacked[b], loss_gradient(o, thetas[b], data.z_train))
        assert loss_gradient(o, thetas[:1], data.z_train).shape == (
            1, o.param_dim)
        # a strided view, as Trajectory.theta_nodes is, stacks the same way
        np.testing.assert_array_equal(
            loss_gradient(o, thetas[::2], data.z_train), stacked[::2])

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_wrong_last_axis_rejected(self, family):
        if family == "linear":
            o, data = linear_problem(d=2, seed=9)
        else:
            o, data = mlp_problem(d=2, seed=9)
        with pytest.raises(ValueError):
            loss_gradient(o, np.ones((4, o.param_dim + 1)), data.z_train)


class TestFeatureMatrix:
    def test_one_dataset_serves_two_feature_maps(self):
        _, data = linear_problem(d=2, seed=12)
        z = data.z_train
        oracles = (ModelOracle("linear_features", 2),
                   ModelOracle("linear_features", 2, degree=2,
                               include_bias=True))
        rng = np.random.default_rng(10)
        thetas = [rng.standard_normal(o.param_dim) for o in oracles]
        v = [rng.standard_normal(o.param_dim) for o in oracles]

        def oracle_calls(o, theta, v, z):
            return (loss_value(o, theta, z), loss_gradient(o, theta, z),
                    loss_hvp(o, theta, z, v))

        shared = [oracle_calls(o, th, w, z)
                  for o, th, w in zip(oracles, thetas, v)]
        for o, th, w, got in zip(oracles, thetas, v, shared):
            # a dataset of its own, so no other oracle's features are stored
            alone = oracle_calls(o, th, w, Dataset(z.x, z.y, z.tag))
            for a, b in zip(got, alone):
                np.testing.assert_array_equal(a, b)
            phi = feature_matrix(o, z)
            assert phi.shape == (z.m, o.param_dim)
            np.testing.assert_array_equal(phi, o.features(z.x))
            assert feature_matrix(o, z) is phi
            with pytest.raises(ValueError):
                phi[0, 0] = 1.0


class TestLossHvp:
    def test_identity_hessian(self):
        z1, _, _ = quadratic_datasets(2)
        o = ModelOracle("linear_features", 2)
        np.testing.assert_allclose(loss_hvp(o, [0.3, 0.4], z1, [3.0, 4.0]),
                                   [3.0, 4.0], rtol=1e-14)

    def test_linearity_in_v(self):
        o, data = linear_problem(seed=9)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(o.param_dim)
        v = rng.standard_normal(o.param_dim)
        hv = loss_hvp(o, theta, data.z_train, v)
        hv3 = loss_hvp(o, theta, data.z_train, 3.0 * v)
        np.testing.assert_allclose(hv3, 3.0 * hv, rtol=1e-10)

    def test_zero_direction(self):
        o, data = linear_problem()
        theta = np.zeros(o.param_dim)
        np.testing.assert_array_equal(
            loss_hvp(o, theta, data.z_train, np.zeros(o.param_dim)),
            np.zeros(o.param_dim))

    def test_mlp_stacked_difference_equals_two_calls(self):
        o, data = mlp_problem(d=2, seed=14)
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(o.param_dim)
        v = rng.standard_normal(o.param_dim)
        h = (np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(theta))
             / np.linalg.norm(v))
        gp = loss_gradient(o, theta + h * v, data.z_train)
        gm = loss_gradient(o, theta - h * v, data.z_train)
        np.testing.assert_array_equal(loss_hvp(o, theta, data.z_train, v),
                                      (gp - gm) / (2.0 * h))

    @pytest.mark.parametrize("family,tol", [("linear", 1e-8), ("mlp", 1e-4)])
    def test_symmetry(self, family, tol):
        o, data = (linear_problem() if family == "linear" else mlp_problem())
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(o.param_dim)
        u = rng.standard_normal(o.param_dim)
        v = rng.standard_normal(o.param_dim)
        uhv = u @ loss_hvp(o, theta, data.z_train, v)
        vhu = v @ loss_hvp(o, theta, data.z_train, u)
        assert abs(uhv - vhu) / max(abs(uhv), 1e-12) <= tol


class TestDMatrix:
    def test_is_squared_gradient_bitwise_for_linear(self):
        o, data = linear_problem()
        theta = np.random.default_rng(5).standard_normal(o.param_dim)
        g = loss_gradient(o, theta, data.z_dith)
        np.testing.assert_array_equal(d_matrix(o, theta, data.z_dith), g * g)

    def test_stationary_point_gives_zero(self):
        z1, zd, _ = quadratic_datasets(2)
        o = ModelOracle("linear_features", 2)
        np.testing.assert_array_equal(d_matrix(o, [0.0, 0.0], zd),
                                      np.zeros(2))

    def test_entries_nonnegative(self):
        o, data = linear_problem(seed=8)
        theta = np.random.default_rng(6).standard_normal(o.param_dim)
        assert np.all(d_matrix(o, theta, data.z_dith) >= 0.0)

    def test_warns_on_undithered_dataset(self):
        o, data = linear_problem()
        with pytest.warns(UserWarning, match="dithered"):
            d_matrix(o, np.zeros(o.param_dim), data.z_train)


class TestPhi:
    def test_equals_training_loss_on_same_data(self):
        o, data = linear_problem()
        theta = np.random.default_rng(7).standard_normal(o.param_dim)
        assert phi_value(o, theta, data.z_train) == loss_value(
            o, theta, data.z_train)

    def test_gradient_matches_finite_differences(self):
        o, data = linear_problem()
        theta = np.random.default_rng(8).standard_normal(o.param_dim)
        fd = fd_gradient(lambda t: phi_value(o, t, data.z_val), theta, 1e-6)
        g = phi_gradient(o, theta, data.z_val)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_perfect_fit_gives_zero_value_and_gradient(self):
        o, data = linear_problem()
        theta = np.random.default_rng(9).standard_normal(o.param_dim)
        zv = Dataset(data.z_val.x, o.predict(theta, data.z_val.x),
                     "validation")
        assert phi_value(o, theta, zv) == pytest.approx(0.0, abs=1e-28)
        np.testing.assert_allclose(phi_gradient(o, theta, zv),
                                   np.zeros(o.param_dim), atol=1e-13)
