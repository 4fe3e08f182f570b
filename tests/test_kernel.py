"""Tests for the structured positive-definite kernel.

Frozen gradient values: with the identity kernel (s = 0, t = 0) and the
trace loss L = <I, W>, the chain rule collapses to d_skew = 0 and
d_diag = 4/pi per channel (the diagonal map's slope at zero).
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcv.cayley import DiagParams, SkewParams, lambda_from_t, t_from_lambda, unpack_skew
from lcv.kernel import (
    KernelGradient,
    SPDKernel,
    assemble_kernel,
    identity_kernel,
    kernel_factor_grads,
    kernel_grad,
    load_kernel,
    param_count,
    save_kernel,
    whitening_pca,
    whitening_zca,
)
from lcv.harness import SyntheticSpec, experiment_instances, train_kernel
from lcv.optim import OptimizerConfig, stiefel_sgd_step


def random_kernel(rng, dim, scale=1.0):
    s = SkewParams(entries=rng.uniform(-scale, scale, dim * (dim - 1) // 2), dim=dim)
    t = DiagParams(t=rng.uniform(-scale, scale, dim))
    return assemble_kernel(s, t)


class TestAssembly:
    def test_identity_kernel_is_exact(self):
        k = identity_kernel(3)
        np.testing.assert_array_equal(k.W, np.eye(3))
        np.testing.assert_array_equal(k.P.values, np.eye(3))
        np.testing.assert_array_equal(k.lam, np.ones(3))

    def test_pure_diagonal(self):
        # s = 0 keeps P = I, so W is just the mapped eigenvalues.
        k = assemble_kernel(
            SkewParams(entries=np.zeros(1), dim=2),
            DiagParams(t=np.array([1.0, 0.0])),
        )
        np.testing.assert_allclose(k.W, np.diag([3.0, 1.0]), atol=1e-15)

    def test_factorization_holds(self, tmp_path):
        # Assembled, after a Stiefel step, and after a checkpoint round trip.
        rng = np.random.default_rng(5)
        kernels = [random_kernel(rng, dim, scale=2.0) for dim in (2, 4, 16)]
        G = rng.standard_normal((4, 4))
        kernels.append(stiefel_sgd_step(kernels[1], G, 0.05, d_diag=rng.standard_normal(4)))
        save_kernel(tmp_path / "k.lcvk", kernels[2])
        kernels.append(load_kernel(tmp_path / "k.lcvk"))
        for k in kernels:
            np.testing.assert_array_equal(k.lam, lambda_from_t(k.diag_params.t))
            W_rebuilt = k.P.values.T @ np.diag(k.lam) @ k.P.values
            np.testing.assert_allclose(k.W, W_rebuilt, atol=1e-12)
            np.testing.assert_allclose(k.W, k.W.T, atol=1e-15)

    def test_always_positive_definite(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = random_kernel(rng, 8, scale=4.0)
            assert np.linalg.eigvalsh(k.W).min() > 0

    @pytest.mark.parametrize("t_max, resolved", [(1e15, True), (1.5e15, False), (1e300, False)])
    def test_lam_spreads_past_1_over_eps_rejected(self, t_max, resolved):
        # lam = pi t_max against lam = 1: past 1 / eps = 4.5e15 the rounded W
        # of a rotated kernel is more often indefinite than not.
        make = lambda: assemble_kernel(SkewParams(entries=np.array([0.3]), dim=2),
                                       DiagParams(t=np.array([t_max, 0.0])))
        if resolved:
            assert np.linalg.eigvalsh(make().W).min() > 0
        else:
            with pytest.raises(ValueError, match="spread float64 resolves"):
                make()

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(2, 128), seed=st.integers(0, 2**32 - 1),
           log_spread=st.floats(0.0, np.log10(1.0 / np.finfo(float).eps)))
    # Half of lam at 1.05 eps, which the spread rule accepts; this draw's
    # rounded W fails Cholesky, so the kernel must be refused.
    @example(c=128, seed=6, log_spread=-np.log10(1.05 * np.finfo(float).eps))
    def test_every_accepted_kernel_passes_cholesky(self, c, seed, log_spread):
        rng = np.random.default_rng(seed)
        lam = np.ones(c)
        lam[rng.permutation(c)[: c // 2]] = 10.0 ** -log_spread
        s = SkewParams(entries=2.0 * rng.standard_normal(c * (c - 1) // 2), dim=c)
        try:
            kernel = assemble_kernel(s, t_from_lambda(lam))
        except ValueError as err:
            assert "positive" in str(err)
            return
        np.linalg.cholesky(kernel.W)

    def test_eigenvalues_match_diag_map(self):
        rng = np.random.default_rng(31)
        t = rng.uniform(-2, 2, 6)
        k = assemble_kernel(SkewParams(entries=rng.uniform(-1, 1, 15), dim=6), DiagParams(t=t))
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(k.W)), np.sort(lambda_from_t(t)), atol=1e-10
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_kernel(SkewParams(entries=np.zeros(1), dim=2), DiagParams(t=np.zeros(3)))

    def test_w_is_not_an_input(self):
        # P, lam and W are derived from (s, t), so a caller cannot supply them.
        k = identity_kernel(2)
        for derived in ("P", "lam", "W"):
            with pytest.raises(TypeError):
                SPDKernel(skew_params=k.skew_params, diag_params=k.diag_params,
                          **{derived: getattr(k, derived)})


class TestWhitening:
    def test_pca_factor_reproduces_kernel(self):
        rng = np.random.default_rng(41)
        k = random_kernel(rng, 5)
        Q = whitening_pca(k)
        np.testing.assert_allclose(Q.T @ Q, k.W, atol=1e-12)

    def test_zca_factor_is_symmetric_square_root(self):
        rng = np.random.default_rng(43)
        k = random_kernel(rng, 5)
        R = whitening_zca(k)
        np.testing.assert_allclose(R, R.T, atol=1e-12)
        np.testing.assert_allclose(R @ R, k.W, atol=1e-12)

    def test_identity_kernel_gives_identity_factors(self):
        k = identity_kernel(4)
        np.testing.assert_allclose(whitening_pca(k), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(whitening_zca(k), np.eye(4), atol=1e-15)

    def test_factors_agree_on_inner_products(self):
        # Both factors realize the same bilinear form.
        rng = np.random.default_rng(47)
        k = random_kernel(rng, 6)
        Q, R = whitening_pca(k), whitening_zca(k)
        x, y = rng.standard_normal((2, 6))
        expected = x @ k.W @ y
        assert (Q @ x) @ (Q @ y) == pytest.approx(expected, rel=1e-10)
        assert (R @ x) @ (R @ y) == pytest.approx(expected, rel=1e-10)


# Sizes and skew scales for the closed-form pullback checks; scale 1e3
# puts eigenvalues of ``P`` close to -1.
PULLBACK_DIMS = (2, 16, 64, 128)
PULLBACK_SCALES = (0.1, 1.0, 5.0, 50.0, 1e3)


def solve_based_skew_grad(kernel, dL_dP):
    """``dL/dP`` pulled onto the skew entries through ``S``, applying
    ``(I + S)^{-T}`` by a solve: the formula the closed form replaced."""
    n = kernel.dim
    S = unpack_skew(kernel.skew_params)
    eye = np.eye(n)
    B = (eye + kernel.P.values).T @ dL_dP
    M = -np.linalg.solve((eye - S).T, B.T).T
    rows, cols = np.tril_indices(n, -1)
    return (M - M.T)[rows, cols]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestGradients:
    def test_trace_loss_at_identity_frozen(self):
        k = identity_kernel(2)
        g = kernel_grad(k, np.eye(2))
        np.testing.assert_allclose(g.d_skew, [0.0], atol=1e-15)
        np.testing.assert_allclose(g.d_diag, [4.0 / np.pi, 4.0 / np.pi], atol=1e-15)

    def test_gradient_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"kernel_factor_grads: gradient shape \(3, 3\)"):
            kernel_grad(identity_kernel(2), np.zeros((3, 3)))

    def test_factor_grads_shapes(self):
        rng = np.random.default_rng(53)
        k = random_kernel(rng, 4)
        dL_dP, dL_dlam = kernel_factor_grads(k, rng.standard_normal((4, 4)))
        assert dL_dP.shape == (4, 4)
        assert dL_dlam.shape == (4,)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        dim = 5
        s = rng.uniform(-0.7, 0.7, dim * (dim - 1) // 2)
        t = rng.uniform(-0.7, 0.7, dim)
        A = rng.standard_normal((dim, dim))

        def loss(s_vec, t_vec):
            k = assemble_kernel(SkewParams(entries=s_vec, dim=dim), DiagParams(t=t_vec))
            return float(np.sum(A * k.W))

        k = assemble_kernel(SkewParams(entries=s, dim=dim), DiagParams(t=t))
        g = kernel_grad(k, A)

        eps = 1e-6
        fd_s = np.empty_like(s)
        for i in range(s.size):
            hi, lo = s.copy(), s.copy()
            hi[i] += eps
            lo[i] -= eps
            fd_s[i] = (loss(hi, t) - loss(lo, t)) / (2 * eps)
        fd_t = np.empty_like(t)
        for i in range(t.size):
            hi, lo = t.copy(), t.copy()
            hi[i] += eps
            lo[i] -= eps
            fd_t[i] = (loss(s, hi) - loss(s, lo)) / (2 * eps)

        np.testing.assert_allclose(g.d_skew, fd_s, atol=1e-7)
        np.testing.assert_allclose(g.d_diag, fd_t, atol=1e-7)

    @pytest.mark.parametrize("dim", PULLBACK_DIMS)
    def test_skew_pullback_matches_the_solve(self, dim):
        rng = np.random.default_rng(dim)
        for scale in PULLBACK_SCALES:
            s = SkewParams(entries=rng.uniform(-scale, scale, dim * (dim - 1) // 2), dim=dim)
            k = assemble_kernel(s, DiagParams(t=rng.uniform(-1, 1, dim)))
            G = rng.standard_normal((dim, dim))
            reference = solve_based_skew_grad(k, kernel_factor_grads(k, G)[0])
            assert rel_err(kernel_grad(k, G).d_skew, reference) < 1e-10, scale

    @pytest.mark.parametrize("dim", PULLBACK_DIMS)
    def test_lam_pullback_matches_the_triple_einsum(self, dim):
        rng = np.random.default_rng(dim)
        for scale in PULLBACK_SCALES:
            k = random_kernel(rng, dim, scale)
            G = rng.standard_normal((dim, dim))
            reference = np.einsum("ij,kj,ik->i", k.P.values, G, k.P.values)
            assert rel_err(kernel_factor_grads(k, G)[1], reference) < 1e-13, scale

    def test_grad_runs_no_solve(self, monkeypatch):
        rng = np.random.default_rng(67)
        k = random_kernel(rng, 8, scale=2.0)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel_grad called np.linalg.solve")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        g = kernel_grad(k, rng.standard_normal((8, 8)))
        assert g.d_skew.shape == (28,)

    def test_max_norm(self):
        g = KernelGradient(d_skew=np.array([1.0, -3.0]), d_diag=np.array([2.0]))
        assert g.max_norm() == 3.0

    def test_symmetric_loss_kills_skew_direction_at_identity(self):
        # At P = I with equal eigenvalues, rotating the frame cannot
        # change <A, W> for symmetric A: the skew gradient vanishes.
        rng = np.random.default_rng(61)
        A = rng.standard_normal((3, 3))
        g = kernel_grad(identity_kernel(3), A + A.T)
        np.testing.assert_allclose(g.d_skew, 0.0, atol=1e-12)


class TestParamCount:
    def test_five_level_pyramid_layout(self):
        full, free = param_count([64, 64, 128, 128, 128])
        assert full == 57344
        assert free == 28928

    def test_single_level(self):
        assert param_count([4]) == (16, 10)
        assert param_count([1]) == (1, 1)

    def test_free_is_skew_plus_diag(self):
        dims = [3, 7, 12]
        full, free = param_count(dims)
        assert full == sum(c * c for c in dims)
        assert free == sum(c * (c - 1) // 2 + c for c in dims)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            param_count([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            param_count([4, 0])


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(67)
        k = random_kernel(rng, 6, scale=3.0)
        path = tmp_path / "k.lcvk"
        save_kernel(path, k)
        k2 = load_kernel(path)
        assert np.array_equal(k2.skew_params.entries, k.skew_params.entries)
        assert np.array_equal(k2.diag_params.t, k.diag_params.t)
        assert np.array_equal(k2.W, k.W)

    @pytest.mark.parametrize("mode", ["cayley", "stiefel"])
    def test_trained_kernel_reloads_bitwise(self, tmp_path, mode):
        # Every trained kernel is the image of its free parameters, so the
        # checkpoint of (s, t) gives back the W and P that training scored.
        spec = SyntheticSpec(height=16, width=16, signal_channels=2, noise_channels=4,
                             max_displacement=1, seed=3)
        data, _ = experiment_instances(spec, 4)
        opt = OptimizerConfig(learning_rate=0.05, max_steps=30, mode=mode)
        k, _ = train_kernel(data, opt, (3, 3))
        assert not np.array_equal(k.W, np.eye(6))
        path = tmp_path / "k.lcvk"
        save_kernel(path, k)
        k2 = load_kernel(path)
        assert np.array_equal(k2.W, k.W)
        assert np.array_equal(k2.P.values, k.P.values)

    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "id.lcvk"
        save_kernel(path, identity_kernel(3))
        np.testing.assert_array_equal(load_kernel(path).W, np.eye(3))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lcvk"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_kernel(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(71)
        path = tmp_path / "t.lcvk"
        save_kernel(path, random_kernel(rng, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            load_kernel(path)

    @pytest.mark.parametrize("dim", [2**32 - 1, 2**31, 2**20])
    def test_header_larger_than_file_rejected(self, tmp_path, dim):
        path = tmp_path / "big.lcvk"
        path.write_bytes(struct.pack("<4sBI", b"LCVK", 1, dim))
        with pytest.raises(ValueError, match="big.lcvk"):
            load_kernel(path)

    def test_unbounded_lam_rejected_before_forming_w(self, tmp_path):
        # t = 1e300 maps to lam = 3.1e300 against lam = 1, a spread float64
        # does not resolve; the kernel must refuse it before forming W, and
        # the arctan map must not warn on the way.
        path = tmp_path / "huge.lcvk"
        path.write_bytes(struct.pack("<4sBI3d", b"LCVK", 1, 2, 0.0, 1e300, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="huge.lcvk"):
                load_kernel(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.lcvk"
        save_kernel(path, identity_kernel(2))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            load_kernel(path)


@st.composite
def lcvk_bytes(draw):
    """An LCVK file that may be cut short, declare a channel count near
    2**31 or 2**32, or carry a payload of the wrong length or of
    arbitrary float64 bit patterns.  Returns the bytes and whether the
    payload length matches the declared count."""
    dim = draw(st.one_of(st.integers(0, 5), st.integers(2**31 - 2, 2**31 + 2),
                         st.integers(2**32 - 8, 2**32 - 1)))
    header = struct.pack("<4sBI", draw(st.sampled_from([b"LCVK", b"LCVK", b"LCVT"])),
                         draw(st.sampled_from([1, 1, 2])), dim)
    declared = 8 * (dim * (dim - 1) // 2 + dim)
    cut = draw(st.one_of(st.none(), st.integers(0, len(header) - 1)))
    if cut is not None:
        return header[:cut], False
    length = draw(st.one_of(st.integers(0, 160), st.just(declared if declared <= 160 else 0)))
    return header + draw(st.binary(min_size=length, max_size=length)), length == declared


class TestCheckpointFuzz:
    @settings(max_examples=400, deadline=None)
    @given(lcvk_bytes())
    # Correctly sized, but I + S is too ill-conditioned for cayley_forward.
    @example(case=(struct.pack("<4sBI6d", b"LCVK", 1, 3, 2.0**81, 2.0**81, 2.0**97, 0, 0, 0), True))
    def test_malformed_files_raise_only_value_error(self, tmp_path_factory, case):
        data, sized = case
        path = tmp_path_factory.getbasetemp() / "fuzz.lcvk"
        path.write_bytes(data)
        try:
            with np.errstate(all="ignore"):
                kernel = load_kernel(path)
        except ValueError:
            return
        assert sized and data[:5] == b"LCVK\x01"
        assert np.all(np.isfinite(kernel.W))

