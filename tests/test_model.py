import numpy as np
import pytest

from sgaflow import Dataset, ModelOracle
from sgaflow.model import (flow_plan, loss_gradient, loss_hvp, loss_plan,
                           loss_value, phi_value)

from conftest import (complex_step_hvp, fd_gradient, fd_hvp, linear_problem,
                      mlp_problem, quadratic_datasets)


def complex_step_gradient(oracle, theta, z, h=1e-30):
    """The gradient of the mean squared error on z, Im MSE(theta + i h e_k)
    / h for each k, with the model output taken by oracle.predict: exact to
    rounding, as no difference is taken."""
    return np.array([np.mean((oracle.predict(theta + 1j * h * e, z.x) - z.y)
                             ** 2).imag / h for e in np.eye(theta.size)])


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

    @pytest.mark.parametrize("case", ["single", "stack", "flow"])
    def test_mlp_matches_complex_step_of_the_loss(self, case):
        # the plan's gradient against the loss's own derivative through
        # oracle.predict, not the plan: no difference step, so the two
        # agree to rounding, for a (p,) theta, a (B, p) stack and the
        # flow plan's two targets
        o, data = mlp_problem(d=2, seed=17)
        z1, zd = data.z_train, data.z_dith
        thetas = np.random.default_rng(18).standard_normal((3, o.param_dim))
        if case == "single":
            got = loss_plan(o, z1).grad(thetas[0])
            want = complex_step_gradient(o, thetas[0], z1)
        elif case == "stack":
            got = loss_plan(o, z1).grad(thetas)
            want = [complex_step_gradient(o, th, z1) for th in thetas]
        else:
            got = flow_plan(o, z1, zd).grads(thetas[0])
            want = [complex_step_gradient(o, thetas[0], z) for z in (z1, zd)]
        want = np.asarray(want)
        assert np.shape(got) == want.shape
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-13


class TestLossGradientStack:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_stack_equals_row_by_row(self, family):
        # the integrators step (B, p) stacks through a plan, and the
        # stacked costate's p(T) through loss_gradient
        if family == "linear":
            _, data = linear_problem(d=2, seed=8)
            o = ModelOracle("linear_features", 2, degree=2, include_bias=True)
        else:
            o, data = mlp_problem(d=2, seed=8)
        thetas = np.random.default_rng(3).standard_normal((6, o.param_dim))
        plan = loss_plan(o, data.z_train)
        stacked = plan.grad(thetas)
        assert stacked.shape == (6, o.param_dim)
        for b in range(6):
            np.testing.assert_array_equal(stacked[b], plan.grad(thetas[b]))
            # and each row is loss_gradient's one-shot result
            np.testing.assert_array_equal(
                stacked[b], loss_gradient(o, thetas[b], data.z_train))
        np.testing.assert_array_equal(
            loss_gradient(o, thetas, data.z_train), stacked)
        assert plan.grad(thetas[:1]).shape == (1, o.param_dim)
        # a strided view, as Trajectory.theta_nodes is, stacks the same way
        np.testing.assert_array_equal(plan.grad(thetas[::2]), stacked[::2])

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_wrong_last_axis_rejected(self, family):
        if family == "linear":
            o, data = linear_problem(d=2, seed=9)
        else:
            o, data = mlp_problem(d=2, seed=9)
        with pytest.raises(ValueError):
            loss_gradient(o, np.ones((4, o.param_dim + 1)), data.z_train)
        # loss_gradient keeps a stack's rows: a (p, 1) column is p states
        # of dimension 1, not one (p,) theta
        with pytest.raises(ValueError):
            loss_gradient(o, np.ones((o.param_dim, 1)), data.z_train)


class TestLossPlan:
    def test_linear_matches_residual_form_and_central_difference(self):
        _, data = linear_problem(d=3, seed=12)
        o = ModelOracle("linear_features", 3, degree=2, include_bias=True)
        z = data.z_train
        plan = loss_plan(o, z)
        phi = o.features(z.x)
        rng = np.random.default_rng(10)
        e = np.eye(o.param_dim)

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        for _ in range(5):
            theta, v = rng.standard_normal((2, o.param_dim))
            g, hv = plan.grad(theta), plan.hessian(theta) @ v
            assert rel(g, (2.0 / z.m) * phi.T @ (phi @ theta - z.y)) <= 1e-12
            assert rel(hv, (2.0 / z.m) * phi.T @ (phi @ v)) <= 1e-12
            # the loss is quadratic, so a central difference of step 1 has
            # no truncation error
            fd = np.array([plan.value(theta + e[i]) - plan.value(theta - e[i])
                           for i in range(o.param_dim)]) / 2.0
            assert rel(g, fd) <= 1e-12
            assert rel(hv, (plan.grad(theta + v) - plan.grad(theta - v))
                       / 2.0) <= 1e-12

    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected_with_its_tag(self, where, bad):
        o, data = linear_problem(d=2, seed=13)
        x, y = data.z_dith.x.copy(), data.z_dith.y.copy()
        (x if where == "x" else y)[3, ...] = bad
        z = Dataset(x, y, "dithered")
        for oracle in (o, ModelOracle("mlp_tanh", 2)):
            with pytest.raises(ValueError, match="dithered dataset"):
                loss_plan(oracle, z)


class TestFlowPlan:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_equals_per_dataset_plans_bitwise(self, family):
        if family == "linear":
            _, data = linear_problem(d=2, seed=15)
            o = ModelOracle("linear_features", 2, degree=2, include_bias=True)
        else:
            o, data = mlp_problem(d=2, seed=15)
        train, dith = loss_plan(o, data.z_train), loss_plan(o, data.z_dith)
        plan = flow_plan(o, data.z_train, data.z_dith)
        # the family's own plan class, on the targets (y, y~)
        assert type(plan) is type(train)
        np.testing.assert_array_equal(plan.y, [data.z_train.y, data.z_dith.y])
        rng = np.random.default_rng(12)
        thetas = rng.standard_normal((5, o.param_dim))
        # a (B, p) stack, a strided view of one, and single (p,) states
        for th in (thetas, thetas[::2], *thetas):
            g, gt = plan.grads(th)
            np.testing.assert_array_equal(g, train.grad(th))
            np.testing.assert_array_equal(gt, dith.grad(th))
        for th in thetas:
            h, ht = plan.hessians(th)
            if family == "linear":
                want = train.a, dith.a
            else:
                want = train.hessian(th), dith.hessian(th)
            np.testing.assert_array_equal(h, want[0])
            np.testing.assert_array_equal(ht, want[1])
        # the targets differ, so both results are checked; the mlp's
        # Hessians differ with them, the linear family's are both A
        assert np.all(g != gt)
        assert np.any(h != ht) == (family == "mlp")

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_linear_grads_equal_the_per_row_product_bitwise(self, p):
        # grad and grads form A theta in one np.matvec; each row must be
        # the (p, p) @ (p, 1) product bit for bit, on one state, a stack,
        # a strided view of one and a stack strided along its last axis
        rng = np.random.default_rng(20 + p)
        x = rng.standard_normal((9, p))
        z1 = Dataset(x, rng.standard_normal(9), "train")
        zd = Dataset(x, rng.standard_normal(9), "dithered")
        o = ModelOracle("linear_features", p)
        plan, train = flow_plan(o, z1, zd), loss_plan(o, z1)
        wide = rng.standard_normal((7, 2 * p))
        for th in (wide[0, :p], wide[:, :p], wide[::2, :p], wide[1::3, ::2]):
            at = (plan.a @ th[..., None])[..., 0]
            g, gt = plan.grads(th)
            np.testing.assert_array_equal(g, at - plan.b[0])
            np.testing.assert_array_equal(gt, at - plan.b[1])
            np.testing.assert_array_equal(
                train.grad(th), (train.a @ th[..., None])[..., 0] - train.b)

    def test_mlp_hessians_of_a_stack_equal_per_row_calls(self):
        # the stacked costate sweep forms K at a (B, p) stack of states
        o, data = mlp_problem(d=2, seed=15)
        plan = flow_plan(o, data.z_train, data.z_dith)
        thetas = np.random.default_rng(13).standard_normal((4, o.param_dim))
        for stack in (thetas, thetas[:1], thetas[::2]):
            h, ht = plan.hessians(stack)
            assert h.shape == ht.shape == stack.shape + (o.param_dim,)
            for b, th in enumerate(stack):
                np.testing.assert_array_equal(h[b], plan.hessians(th)[0])
                np.testing.assert_array_equal(ht[b], plan.hessians(th)[1])
        assert np.any(h != ht)

    def test_checks_both_datasets(self):
        o, data = linear_problem(d=2, seed=16)
        z1, zd = data.z_train, data.z_dith
        x = zd.x.copy()
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match="dithered dataset holds nan"):
            flow_plan(o, z1, Dataset(x, zd.y, "dithered"))
        with pytest.raises(ValueError, match="input_dim"):
            flow_plan(ModelOracle("linear_features", 3), z1, zd)
        with pytest.raises(ValueError, match="dithered dataset's inputs"):
            flow_plan(o, z1, Dataset(zd.x + 1.0, zd.y, "dithered"))


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

    @staticmethod
    def mlp_hvp_case(stacked):
        """An mlp loss plan, theta, direction(s) v and the plan's exact
        product: one direction on the training set, or a stack of two on
        the training and dithered targets, as the flow plan takes them."""
        o, data = mlp_problem(d=2, seed=14)
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(o.param_dim)
        v = rng.standard_normal((2, o.param_dim))
        if stacked:
            plan = flow_plan(o, data.z_train, data.z_dith)
        else:
            plan, v = loss_plan(o, data.z_train), v[0]
        # row k of a stacked product: target k's Hessian times v[k]
        return plan, theta, v, (plan.hessian(theta) @ v[..., None])[..., 0]

    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["single", "stacked"])
    def test_mlp_matches_complex_step(self, stacked):
        plan, theta, v, hv = self.mlp_hvp_case(stacked)
        ref = complex_step_hvp(plan.grad, theta, v)
        assert np.max(np.abs(hv - ref)) / np.max(np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["single", "stacked"])
    def test_mlp_hessian_matches_complex_step_columns(self, stacked):
        plan, theta, _, _ = self.mlp_hvp_case(stacked)
        hs = plan.hessian(theta)
        lead = plan.y.shape[:-1]
        ref = np.stack([complex_step_hvp(plan.grad, theta,
                                         np.broadcast_to(e, lead + e.shape))
                        for e in np.eye(theta.size)], axis=-1)
        assert hs.shape == lead + 2 * theta.shape
        assert np.max(np.abs(hs - ref)) / np.max(np.abs(ref)) <= 1e-13
        assert (np.max(np.abs(hs - hs.swapaxes(-1, -2)))
                <= 1e-15 * np.max(np.abs(hs)))

    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["single", "stacked"])
    def test_mlp_matches_fourth_order_difference(self, stacked):
        plan, theta, v, hv = self.mlp_hvp_case(stacked)
        ref = fd_hvp(plan.grad, theta, v, 1e-4)
        assert np.max(np.abs(hv - ref)) / np.max(np.abs(ref)) <= 1e-9

    @pytest.mark.parametrize("family,tol", [("linear", 1e-8), ("mlp", 1e-12)])
    def test_symmetry(self, family, tol):
        o, data = (linear_problem() if family == "linear" else mlp_problem())
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(o.param_dim)
        u = rng.standard_normal(o.param_dim)
        v = rng.standard_normal(o.param_dim)
        uhv = u @ loss_hvp(o, theta, data.z_train, v)
        vhu = v @ loss_hvp(o, theta, data.z_train, u)
        assert abs(uhv - vhu) / max(abs(uhv), 1e-12) <= tol


class TestPhi:
    def test_equals_training_loss_on_same_data(self):
        o, data = linear_problem()
        theta = np.random.default_rng(7).standard_normal(o.param_dim)
        assert phi_value(o, theta, data.z_train) == loss_value(
            o, theta, data.z_train)

    def test_gradient_matches_finite_differences(self):
        # grad Phi, the costate's final value, is loss_gradient on z_val
        o, data = linear_problem()
        theta = np.random.default_rng(8).standard_normal(o.param_dim)
        fd = fd_gradient(lambda t: phi_value(o, t, data.z_val), theta, 1e-6)
        g = loss_gradient(o, theta, data.z_val)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_perfect_fit_gives_zero_value_and_gradient(self):
        o, data = linear_problem()
        theta = np.random.default_rng(9).standard_normal(o.param_dim)
        zv = Dataset(data.z_val.x, o.predict(theta, data.z_val.x),
                     "validation")
        assert phi_value(o, theta, zv) == pytest.approx(0.0, abs=1e-28)
        np.testing.assert_allclose(loss_gradient(o, theta, zv),
                                   np.zeros(o.param_dim), atol=1e-13)


class TestModelOracleBounds:
    @pytest.mark.parametrize("kwargs,match", [
        ({"family": "quadratic", "input_dim": 1}, "unknown model family"),
        ({"family": "linear_features", "input_dim": 0},
         "input_dim must be >= 1"),
        ({"family": "linear_features", "input_dim": 2, "degree": 0},
         "degree must be >= 1"),
        ({"family": "mlp_tanh", "input_dim": 2, "hidden": 0},
         r"hidden width must be in \[1, 32\]"),
        ({"family": "mlp_tanh", "input_dim": 2, "hidden": 33},
         r"hidden width must be in \[1, 32\]")])
    def test_out_of_range_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ModelOracle(**kwargs)

    def test_bounds_are_inclusive(self):
        assert ModelOracle("mlp_tanh", 1, hidden=1).param_dim == 4
        assert ModelOracle("mlp_tanh", 1, hidden=32).param_dim == 97
        # the degree bound applies to the linear family only
        assert ModelOracle("mlp_tanh", 1, degree=0).param_dim == 13
