"""Tests for the two kernel optimizers.

The workhorse check: minimize the quadratic ``||W - diag(3, 1)||_F^2``
from the identity.  The target sits exactly on the parameterized set
(t = (1, 0), s = 0), so both update rules must drive the iterates onto it
and agree with each other.
"""

import re

import numpy as np
import pytest

from lcv.cayley import DiagParams, OrthogonalMatrix, SkewParams, unpack_skew, cayley_forward
from lcv.kernel import KernelGradient, assemble_kernel, identity_kernel, kernel_grad
from lcv.optim import (
    OptimizerConfig,
    cayley_sgd_step,
    finite_difference_oracle,
    step_benchmark,
    stiefel_project,
    stiefel_retract,
    stiefel_sgd_step,
)

TARGET = np.diag([3.0, 1.0])


def quad_loss(W):
    return float(np.sum((W - TARGET) ** 2))


def quad_grad(W):
    return 2.0 * (W - TARGET)


def run_cayley(steps, lr):
    kernel = identity_kernel(2)
    losses = []
    for _ in range(steps):
        losses.append(quad_loss(kernel.W))
        kernel = cayley_sgd_step(kernel, kernel_grad(kernel, quad_grad(kernel.W)), lr)
    return kernel, losses


def run_stiefel(steps, lr):
    from lcv.kernel import kernel_factor_grads
    from lcv.cayley import dlambda_dt

    kernel = identity_kernel(2)
    losses = []
    for _ in range(steps):
        losses.append(quad_loss(kernel.W))
        dL_dP, dL_dlam = kernel_factor_grads(kernel, quad_grad(kernel.W))
        d_diag = dL_dlam * dlambda_dt(kernel.diag_params)
        kernel = stiefel_sgd_step(kernel, dL_dP, lr, d_diag=d_diag)
    return kernel, losses


class TestCayleyStep:
    def test_zero_gradient_is_bitwise_noop(self):
        kernel = identity_kernel(3)
        g = KernelGradient(d_skew=np.zeros(3), d_diag=np.zeros(3))
        after = cayley_sgd_step(kernel, g, 0.1)
        np.testing.assert_array_equal(after.W, kernel.W)
        np.testing.assert_array_equal(after.skew_params.entries, kernel.skew_params.entries)

    def test_quadratic_loss_decreases_monotonically(self):
        _, losses = run_cayley(11, lr=0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_converges_to_target_spectrum(self):
        kernel, _ = run_cayley(400, lr=0.05)
        np.testing.assert_allclose(np.sort(kernel.lam), [1.0, 3.0], atol=1e-3)
        assert quad_loss(kernel.W) < 1e-5

    def test_small_lr_descends(self):
        kernel = identity_kernel(2)
        g = kernel_grad(kernel, quad_grad(kernel.W))
        after = cayley_sgd_step(kernel, g, 1e-3)
        assert quad_loss(after.W) < quad_loss(kernel.W)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cayley_sgd_step(identity_kernel(3), KernelGradient(d_skew=np.zeros(1), d_diag=np.zeros(3)), 0.1)

    def test_bad_lr_rejected(self):
        g = KernelGradient(d_skew=np.zeros(1), d_diag=np.zeros(2))
        for lr in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                cayley_sgd_step(identity_kernel(2), g, lr)


class TestStiefelGeometry:
    def test_projection_lands_in_tangent_space(self):
        rng = np.random.default_rng(19)
        s = SkewParams(entries=rng.uniform(-1, 1, 10), dim=5)
        X = cayley_forward(unpack_skew(s))
        Z = stiefel_project(X, rng.standard_normal((5, 5)))
        XtZ = X.values.T @ Z
        np.testing.assert_allclose(XtZ, -XtZ.T, atol=1e-10)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(21)
        X = cayley_forward(unpack_skew(SkewParams(entries=rng.uniform(-1, 1, 6), dim=4)))
        Z = rng.standard_normal((4, 4))
        once = stiefel_project(X, Z)
        np.testing.assert_allclose(stiefel_project(X, once), once, atol=1e-12)

    def test_retraction_at_zero_is_exact(self):
        rng = np.random.default_rng(23)
        X = cayley_forward(unpack_skew(SkewParams(entries=rng.uniform(-1, 1, 3), dim=3)))
        back = stiefel_retract(X, np.zeros((3, 3)))
        assert np.array_equal(back.values, X.values)

    def test_retraction_stays_orthogonal(self):
        rng = np.random.default_rng(25)
        X = OrthogonalMatrix(np.eye(6))
        for _ in range(100):
            Z = stiefel_project(X, 0.1 * rng.standard_normal((6, 6)))
            X = stiefel_retract(X, Z)
            err = np.max(np.abs(X.values.T @ X.values - np.eye(6)))
            assert err < 1e-8
        # no drift accumulates over the whole walk
        assert np.max(np.abs(X.values.T @ X.values - np.eye(6))) < 1e-7

    @pytest.mark.parametrize("c", [16, 64, 128])
    def test_retraction_stays_orthogonal_at_large_steps(self, c):
        # The polar factor is orthonormal to rounding however long the step.
        rng = np.random.default_rng(c)
        X = cayley_forward(unpack_skew(SkewParams(entries=rng.standard_normal(c * (c - 1) // 2), dim=c)))
        Z = stiefel_project(X, rng.standard_normal((c, c)))
        for size in (1e2, 1e3, 1e4, 1e5):
            Y = stiefel_retract(X, Z * (size / np.max(np.abs(Z)))).values
            assert np.max(np.abs(Y.T @ Y - np.eye(c))) < 1e-14


class TestStiefelStep:
    def test_zero_gradients_are_bitwise_noop(self):
        kernel = identity_kernel(3)
        after = stiefel_sgd_step(kernel, np.zeros((3, 3)), 0.1, d_diag=np.zeros(3))
        np.testing.assert_array_equal(after.W, kernel.W)
        np.testing.assert_array_equal(after.P.values, kernel.P.values)

    def test_iterates_remain_factored(self):
        _, _ = run_stiefel(5, lr=0.05)  # SPDKernel validates on every build

    def test_quadratic_loss_decreases_monotonically(self):
        _, losses = run_stiefel(11, lr=0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_matches_cayley_optimizer_limit(self):
        cay, _ = run_cayley(400, lr=0.05)
        sti, _ = run_stiefel(400, lr=0.05)
        gap = np.linalg.norm(cay.W - sti.W)
        assert gap < 1e-2

    def test_skew_parameters_track_the_factor(self):
        # After a step, the stored free parameters regenerate the kernel
        # bit for bit.
        sti, _ = run_stiefel(3, lr=0.05)
        rebuilt = assemble_kernel(sti.skew_params, sti.diag_params)
        np.testing.assert_array_equal(rebuilt.W, sti.W)


class TestFiniteDifferenceOracle:
    def test_quadratic_in_t(self):
        s = SkewParams(entries=np.zeros(1), dim=2)
        t = DiagParams(t=np.array([0.3, -0.2]))

        def loss(sp, tp):
            return float(np.sum(tp.t**2))

        g = finite_difference_oracle(loss, s, t)
        np.testing.assert_allclose(g.d_diag, 2 * t.t, atol=1e-8)
        np.testing.assert_allclose(g.d_skew, 0.0, atol=1e-10)

    def test_agrees_with_analytic_kernel_grad(self):
        rng = np.random.default_rng(29)
        dim = 3
        s = SkewParams(entries=rng.uniform(-0.5, 0.5, 3), dim=dim)
        t = DiagParams(t=rng.uniform(-0.5, 0.5, dim))
        A = rng.standard_normal((dim, dim))

        def loss(sp, tp):
            return float(np.sum(A * assemble_kernel(sp, tp).W))

        kernel = assemble_kernel(s, t)
        analytic = kernel_grad(kernel, A)
        fd = finite_difference_oracle(loss, s, t)
        np.testing.assert_allclose(analytic.d_skew, fd.d_skew, atol=1e-7)
        np.testing.assert_allclose(analytic.d_diag, fd.d_diag, atol=1e-7)

    def test_eps_bounds_enforced(self):
        s = SkewParams(entries=np.zeros(1), dim=2)
        t = DiagParams(t=np.zeros(2))
        for eps in (1e-8, 1e-2):
            with pytest.raises(ValueError):
                finite_difference_oracle(lambda sp, tp: 0.0, s, t, eps=eps)

    def test_non_finite_loss_rejected(self):
        s = SkewParams(entries=np.zeros(1), dim=2)
        t = DiagParams(t=np.zeros(2))
        with pytest.raises(ValueError):
            finite_difference_oracle(lambda sp, tp: float("nan"), s, t)


X2 = OrthogonalMatrix(np.eye(2))
NAN2 = np.array([[np.nan, 0.0], [0.0, 0.0]])


class TestValidation:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: OptimizerConfig(learning_rate=0.0),
                     "OptimizerConfig: learning_rate must be positive and finite", id="config-lr"),
        pytest.param(lambda: OptimizerConfig(max_steps=0),
                     "OptimizerConfig: max_steps must be at least 1", id="config-max-steps"),
        pytest.param(lambda: stiefel_project(X2, np.zeros((3, 3))),
                     "stiefel_project: shapes disagree", id="project-shape"),
        pytest.param(lambda: stiefel_project(X2, NAN2),
                     "stiefel_project: values must be finite", id="project-finite"),
        pytest.param(lambda: stiefel_retract(X2, np.zeros((3, 3))),
                     "stiefel_retract: shapes disagree", id="retract-shape"),
        pytest.param(lambda: stiefel_retract(X2, NAN2),
                     "stiefel_retract: values must be finite", id="retract-finite"),
        pytest.param(lambda: stiefel_sgd_step(identity_kernel(2), np.zeros((2, 2)), 0.0, np.zeros(2)),
                     "stiefel_sgd_step: lr must be positive and finite", id="step-lr"),
        pytest.param(lambda: stiefel_sgd_step(identity_kernel(2), np.zeros((2, 2)), 0.1, np.zeros(3)),
                     "stiefel_sgd_step: d_diag shape disagrees", id="step-d-diag-shape"),
        pytest.param(lambda: stiefel_sgd_step(identity_kernel(2), np.zeros((2, 2)), 0.1, [np.nan, 0.0]),
                     "stiefel_sgd_step: values must be finite", id="step-d-diag-finite"),
        pytest.param(lambda: step_benchmark(8, "stiefel", iters=0),
                     "step_benchmark: iters must be at least 1", id="benchmark-iters-zero"),
        pytest.param(lambda: step_benchmark(8, "cayley", iters=-1),
                     "step_benchmark: iters must be at least 1", id="benchmark-iters-negative"),
    ])
    def test_invalid_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestConfigAndBenchmark:
    def test_config_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.mode == "cayley"
        assert cfg.max_steps == 500

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="adam")

    @pytest.mark.parametrize("mode", ["cayley", "stiefel"])
    def test_benchmark_returns_positive_ms(self, mode):
        ms = step_benchmark(8, mode, iters=3)
        assert ms > 0.0

    def test_benchmark_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            step_benchmark(8, "newton")
