"""Tests for the synthetic-flow experiment harness.

Small frames and short optimizer budgets keep everything fast; the
statistical checks (noise level, improvement under corruption) use
tolerances wide enough to be seed-robust but tight enough to catch a
broken implementation.
"""

import csv
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcv import costvolume, harness
from lcv.cayley import DiagParams, NumericalError, SkewParams, dlambda_dt
from lcv.costvolume import (
    _TILE,
    FeatureMap,
    FlowField,
    cost_volume_bilinear,
    decode_flow_argmax,
    epe,
    fl_all,
    vanilla_cost_volume,
)
from lcv.harness import (
    ExperimentResult,
    PerturbSpec,
    SyntheticSpec,
    _MatchingProblem,
    _perturb_in_place,
    _Workspace,
    experiment_instances,
    generate,
    matching_loss,
    perturb,
    report,
    run_experiment,
    run_gradcheck,
    run_sweep,
    score_pair,
    train_kernel,
)
from lcv.kernel import assemble_kernel, identity_kernel, kernel_factor_grads, kernel_grad
from lcv.optim import (
    OptimizerConfig,
    cayley_sgd_step,
    finite_difference_oracle,
    stiefel_project,
    stiefel_sgd_step,
)

TINY = SyntheticSpec(height=12, width=12, signal_channels=2, noise_channels=2,
                     max_displacement=1, seed=3)
FAST_OPT = OptimizerConfig(learning_rate=5e-3, max_steps=8, grad_tolerance=1e-9)


class TestGenerate:
    def test_deterministic_bitwise(self):
        a1, a2, af = generate(TINY)
        b1, b2, bf = generate(TINY)
        np.testing.assert_array_equal(a1.data, b1.data)
        np.testing.assert_array_equal(a2.data, b2.data)
        np.testing.assert_array_equal(af.data, bf.data)

    def test_different_seeds_differ(self):
        a = generate(TINY)[0].data
        b = generate(replace(TINY, seed=4))[0].data
        assert not np.array_equal(a, b)

    def test_flow_is_integer_and_bounded(self):
        _, _, flow = generate(TINY)
        assert np.array_equal(flow.data, np.rint(flow.data))
        assert np.max(np.abs(flow.data)) <= TINY.max_displacement

    def test_flow_targets_stay_inside_frame(self):
        spec = SyntheticSpec(height=6, width=9, signal_channels=1,
                             noise_channels=0, max_displacement=4, seed=0)
        _, _, flow = generate(spec)
        ii = np.arange(6)[:, None] + flow.data[1]
        jj = np.arange(9)[None, :] + flow.data[0]
        assert ii.min() >= 0 and ii.max() <= 5
        assert jj.min() >= 0 and jj.max() <= 8

    def test_first_frame_resamples_the_second(self):
        f1, f2, flow = generate(TINY)
        cs = TINY.signal_channels
        ii = np.arange(TINY.height)[:, None] + flow.data[1].astype(int)
        jj = np.arange(TINY.width)[None, :] + flow.data[0].astype(int)
        np.testing.assert_array_equal(f1.data[:cs], f2.data[:cs, ii, jj])

    def test_signal_is_unit_norm_per_pixel(self):
        _, f2, _ = generate(TINY)
        norms = np.linalg.norm(f2.data[: TINY.signal_channels], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_clean_instances_decode_exactly(self):
        spec = SyntheticSpec(height=16, width=16, signal_channels=3,
                             noise_channels=0, max_displacement=2, seed=7)
        f1, f2, gt = generate(spec)
        flow = decode_flow_argmax(vanilla_cost_volume(f1, f2, 5, 5))
        assert epe(flow, gt) == 0.0

    def test_mixing_commutes_with_generation(self):
        rng = np.random.default_rng(31)
        c = TINY.channels
        M = rng.standard_normal((c, c))
        plain1, plain2, pf = generate(TINY)
        mixed1, mixed2, mf = generate(replace(TINY, mixing=M))
        np.testing.assert_allclose(
            mixed1.data, (M @ plain1.data.reshape(c, -1)).reshape(plain1.data.shape), atol=1e-12
        )
        np.testing.assert_allclose(
            mixed2.data, (M @ plain2.data.reshape(c, -1)).reshape(plain2.data.shape), atol=1e-12
        )
        np.testing.assert_array_equal(mf.data, pf.data)

    @pytest.mark.parametrize("spec", [
        TINY,
        SyntheticSpec(height=5, width=9, signal_channels=3, noise_channels=0,
                      max_displacement=2, seed=11),
        SyntheticSpec(height=7, width=4, signal_channels=1, noise_channels=3,
                      max_displacement=1, seed=12, mixing=np.arange(16.0).reshape(4, 4) / 7),
    ])
    def test_matches_the_concatenating_reference_bitwise(self, spec):
        # The frames are filled in place; every draw and every value must
        # be those of drawing each block on its own and joining them.
        h, w, m = spec.height, spec.width, spec.max_displacement
        cs, cn = spec.signal_channels, spec.noise_channels
        rng = np.random.default_rng(spec.seed)
        sig2 = rng.standard_normal((cs, h, w))
        sig2 /= np.maximum(np.linalg.norm(sig2, axis=0, keepdims=True), 1e-300)
        ii = np.broadcast_to(np.arange(h)[:, None], (h, w))
        jj = np.broadcast_to(np.arange(w)[None, :], (h, w))
        dy = rng.integers(np.maximum(-m, -ii), np.minimum(m, h - 1 - ii) + 1)
        dx = rng.integers(np.maximum(-m, -jj), np.minimum(m, w - 1 - jj) + 1)
        scale = 1.0 / np.sqrt(cs)
        frame1 = np.concatenate([sig2[:, ii + dy, jj + dx], scale * rng.standard_normal((cn, h, w))])
        frame2 = np.concatenate([sig2, scale * rng.standard_normal((cn, h, w))])
        if spec.mixing is not None:
            frame1 = (spec.mixing @ frame1.reshape(cs + cn, -1)).reshape(frame1.shape)
            frame2 = (spec.mixing @ frame2.reshape(cs + cn, -1)).reshape(frame2.shape)

        f1, f2, flow = generate(spec)
        assert f1.data.tobytes() == frame1.tobytes()
        assert f2.data.tobytes() == frame2.tobytes()
        assert flow.data.tobytes() == np.stack([dx, dy]).astype(float).tobytes()

    def test_oversized_displacement_rejected(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec(height=4, width=8, signal_channels=1,
                                   noise_channels=0, max_displacement=4))

    def test_mixing_shape_validated(self):
        with pytest.raises(ValueError):
            SyntheticSpec(signal_channels=2, noise_channels=0, mixing=np.eye(3))


def _ref_perturb(f, p, seed, signal_channels=None):
    """The earlier formulation of :func:`perturb`: copy, gamma curve, then
    ``+= rng.normal(0, s)``, then the disc."""
    data = np.array(f)
    c, h, w = data.shape
    cs = c if signal_channels is None else signal_channels
    rng = np.random.default_rng(seed)
    if p.gamma != 1.0:
        for ch in range(cs):
            lo = data[ch].min()
            hi = data[ch].max()
            if hi > lo:
                x = (data[ch] - lo) / (hi - lo)
                data[ch] = lo + (hi - lo) * x**p.gamma
    if p.noise_std > 0.0:
        data += rng.normal(0.0, p.noise_std, data.shape)
    if p.patch_radius > 0:
        r = p.patch_radius
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        yy, xx = np.ogrid[:h, :w]
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        data[:, mask] = rng.standard_normal((c, int(mask.sum())))
    return data


class TestPerturb:
    def setup_method(self):
        self.f = generate(TINY)[1]

    def test_identity_spec_is_bitwise_noop(self):
        out = perturb(self.f, PerturbSpec(), seed=5)
        np.testing.assert_array_equal(out.data, self.f.data)

    def test_input_never_mutated(self):
        before = self.f.data.copy()
        perturb(self.f, PerturbSpec(gamma=0.4, noise_std=0.2, patch_radius=2), seed=5)
        np.testing.assert_array_equal(self.f.data, before)

    def test_gamma_curve_on_normalized_channel(self):
        # A channel spanning exactly [0, 1]: value 1/4 at gamma 1/2 -> 1/2.
        data = np.zeros((1, 1, 3))
        data[0, 0] = [0.0, 0.25, 1.0]
        out = perturb(FeatureMap(data), PerturbSpec(gamma=0.5), seed=0)
        np.testing.assert_allclose(out.data[0, 0], [0.0, 0.5, 1.0], atol=1e-12)

    def test_gamma_preserves_channel_range(self):
        out = perturb(self.f, PerturbSpec(gamma=0.3), seed=0,
                      signal_channels=TINY.signal_channels)
        for ch in range(TINY.signal_channels):
            assert out.data[ch].min() == pytest.approx(self.f.data[ch].min(), abs=1e-12)
            assert out.data[ch].max() == pytest.approx(self.f.data[ch].max(), abs=1e-12)

    def test_gamma_skips_noise_channels(self):
        out = perturb(self.f, PerturbSpec(gamma=0.3), seed=0,
                      signal_channels=TINY.signal_channels)
        np.testing.assert_array_equal(
            out.data[TINY.signal_channels:], self.f.data[TINY.signal_channels:]
        )

    def test_noise_hits_every_channel_at_stated_level(self):
        rng_spec = SyntheticSpec(height=64, width=64, signal_channels=2,
                                 noise_channels=1, max_displacement=1, seed=9)
        f = generate(rng_spec)[1]
        out = perturb(f, PerturbSpec(noise_std=0.25), seed=11)
        delta = out.data - f.data
        assert abs(delta.std() - 0.25) / 0.25 < 0.02
        assert np.all(delta[-1] != 0.0)

    def test_patch_replaces_exactly_one_disc(self):
        out = perturb(self.f, PerturbSpec(patch_radius=2), seed=13)
        changed = np.any(out.data != self.f.data, axis=0)
        ys, xs = np.nonzero(changed)
        cy, cx = (ys.min() + ys.max()) // 2, (xs.min() + xs.max()) // 2
        yy, xx = np.ogrid[: TINY.height, : TINY.width]
        disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= 4
        np.testing.assert_array_equal(changed, disc)

    def test_patch_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            perturb(self.f, PerturbSpec(patch_radius=6), seed=0)

    def test_deterministic_in_seed(self):
        p = PerturbSpec(gamma=0.5, noise_std=0.1, patch_radius=2)
        a = perturb(self.f, p, seed=21).data
        b = perturb(self.f, p, seed=21).data
        c = perturb(self.f, p, seed=22).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("gamma", [1.0, 0.4, 2.5])
    @pytest.mark.parametrize("noise_std", [0.0, 0.3])
    @pytest.mark.parametrize("patch_radius", [0, 2])
    @pytest.mark.parametrize("signal_channels", [None, 0, 2, 5])
    def test_bitwise_the_reference_formulation(self, gamma, noise_std, patch_radius,
                                               signal_channels):
        # Negative and positive zeros, and a flat channel the curve skips.
        rng = np.random.default_rng(31)
        data = rng.standard_normal((5, 9, 11))
        data[rng.random(data.shape) < 0.2] = -0.0
        data[rng.random(data.shape) < 0.1] = 0.0
        data[3] = -0.0
        p = PerturbSpec(gamma=gamma, noise_std=noise_std, patch_radius=patch_radius)
        want = _bits(_ref_perturb(data, p, seed=17, signal_channels=signal_channels))
        got = perturb(FeatureMap(data), p, seed=17, signal_channels=signal_channels).data
        assert _bits(got) == want
        # The in-place routine that ``lcv eval`` runs on the frame it read.
        frame = data.copy()
        _perturb_in_place(frame, p, seed=17, signal_channels=signal_channels)
        assert _bits(frame) == want

    def test_a_paper_scale_call_peaks_below_1_1_frames_above_its_input(self):
        # c=64, 64x64: the result is the one working frame; the noise is
        # drawn one (h, w) channel at a time.
        f = FeatureMap(np.random.default_rng(0).standard_normal((64, 64, 64)))
        p = PerturbSpec(gamma=0.7, noise_std=0.1, patch_radius=3)
        perturb(f, p, seed=1, signal_channels=8)
        tracemalloc.start()
        try:
            out = perturb(f, p, seed=1, signal_channels=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * f.data.nbytes
        assert not np.shares_memory(out.data, f.data)

    def test_a_disc_that_does_not_fit_leaves_the_frame_unchanged(self):
        frame = self.f.data.copy()
        with pytest.raises(ValueError, match="fit"):
            _perturb_in_place(frame, PerturbSpec(noise_std=0.1, patch_radius=6), seed=0)
        np.testing.assert_array_equal(frame, self.f.data)

    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0)])
    def test_a_frame_with_no_pixels_comes_back_empty(self, shape):
        out = perturb(FeatureMap(np.zeros(shape)), PerturbSpec(gamma=0.5, noise_std=0.1), seed=1)
        assert out.data.shape == shape

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PerturbSpec(gamma=0.0)
        with pytest.raises(ValueError):
            PerturbSpec(noise_std=-1.0)
        with pytest.raises(ValueError):
            PerturbSpec(patch_radius=-1)


def _adopted(a: np.ndarray) -> bool:
    """Whether ``a`` is read-only and owns its buffer, so lcv stored the
    array it made rather than a view or a copy of it."""
    return not a.flags.writeable and a.flags.owndata and a.base is None


class TestAdoption:
    # Arrays lcv makes itself go into their containers without a copy; the
    # public constructors still copy (test_container_copies_its_data).

    def test_generate_adopts_its_frames_and_flow(self):
        f1, f2, flow = generate(TINY)
        assert all(_adopted(a) for a in (f1.data, f2.data, flow.data))

    def test_perturb_adopts_its_result(self):
        f = generate(TINY)[1]
        out = perturb(f, PerturbSpec(gamma=0.5, noise_std=0.1, patch_radius=2), seed=3)
        assert _adopted(out.data)
        assert not np.shares_memory(out.data, f.data)

    def test_decode_adopts_its_flow(self):
        f1, f2, gt = generate(TINY)
        assert _adopted(decode_flow_argmax(vanilla_cost_volume(f1, f2, 3, 3)).data)
        assert _adopted(_MatchingProblem(f1, f2, gt, (3, 3)).decode(None).data)

    def test_adopted_arrays_pass_the_constructors_checks(self):
        # Non-finite entries: TestContainers::test_every_non_finite_entry_is_rejected.
        with pytest.raises(ValueError, match="FlowField: expected shape"):
            costvolume._adopt(FlowField, np.zeros((3, 2, 2)))
        data = np.zeros((2, 2, 2))
        assert costvolume._adopt(FlowField, data).data is data
        assert not data.flags.writeable


class TestMatchingLoss:
    def test_uniform_costs_give_log_window_size(self):
        from lcv.costvolume import CostVolume
        cv = CostVolume(np.zeros((3, 5, 4, 4)))
        gt = FlowField(np.zeros((2, 4, 4)))
        loss, dC = matching_loss(cv, gt)
        assert loss == pytest.approx(np.log(15.0), abs=1e-12)
        assert dC.shape == (3, 5, 4, 4)

    def test_gradient_sums_to_zero_per_pixel(self):
        rng = np.random.default_rng(37)
        from lcv.costvolume import CostVolume
        cv = CostVolume(rng.standard_normal((3, 3, 5, 5)))
        gt = FlowField(rng.integers(-1, 2, (2, 5, 5)).astype(float))
        _, dC = matching_loss(cv, gt)
        np.testing.assert_allclose(dC.sum(axis=(0, 1)), 0.0, atol=1e-14)

    def test_confident_correct_prediction_has_low_loss(self):
        from lcv.costvolume import CostVolume
        data = np.zeros((3, 3, 1, 1))
        data[1, 1] = 50.0
        loss, _ = matching_loss(CostVolume(data), FlowField(np.zeros((2, 1, 1))))
        assert loss < 1e-12

    def test_out_of_window_flow_rejected(self):
        from lcv.costvolume import CostVolume
        cv = CostVolume(np.zeros((3, 3, 2, 2)))
        gt = np.zeros((2, 2, 2))
        gt[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="window"):
            matching_loss(cv, FlowField(gt))

    def test_grad_w_matches_directional_derivative(self):
        rng = np.random.default_rng(41)
        c = 3
        f1 = FeatureMap(rng.standard_normal((c, 4, 4)))
        f2 = FeatureMap(rng.standard_normal((c, 4, 4)))
        gt = FlowField(rng.integers(-1, 2, (2, 4, 4)).astype(float))
        k = identity_kernel(c)
        loss0, dW, _ = _MatchingProblem(f1, f2, gt, (3, 3)).loss_grad(k.W)
        D = rng.standard_normal((c, c))
        eps = 1e-6

        def loss_at(W):
            cv = cost_volume_bilinear(f1, f2, W, 3, 3)
            return matching_loss(cv, gt)[0]

        fd = (loss_at(k.W + eps * D) - loss_at(k.W - eps * D)) / (2 * eps)
        assert float(np.sum(dW * D)) == pytest.approx(fd, abs=1e-7)


# Reference implementation of the matching chain as it was written before
# the engine: one correlation per window cell, a dense per-cell backward
# and a where/argmin decode.  The engine sums in another order, so it
# matches the reference byte for byte only where every sum is exact.

def _ref_costs(f1, f2, W, u, v):
    c, h, w = f1.shape
    ru, rv = (u - 1) // 2, (v - 1) // 2
    g2 = (W @ f2.reshape(c, -1)).reshape(f2.shape)
    f2p = np.zeros((c, h + u - 1, w + v - 1))
    f2p[:, ru : ru + h, rv : rv + w] = g2
    out = np.empty((u, v, h, w))
    for k in range(u):
        for l in range(v):
            out[k, l] = np.einsum("chw,chw->hw", f1, f2p[:, k : k + h, l : l + w])
    return out


def _ref_loss(costs, gt):
    u, v, h, w = costs.shape
    ru, rv = (u - 1) // 2, (v - 1) // 2
    labels = (np.rint(gt[1]).astype(int) + ru) * v + (np.rint(gt[0]).astype(int) + rv)
    Z = costs.reshape(u * v, h, w)
    Zs = Z - Z.max(axis=0)
    E = np.exp(Zs)
    denom = E.sum(axis=0)
    logp = np.take_along_axis(Zs, labels[None], axis=0)[0] - np.log(denom)
    dC = E / denom
    hit = np.take_along_axis(dC, labels[None], axis=0) - 1.0
    np.put_along_axis(dC, labels[None], hit, axis=0)
    dC /= h * w
    return float(-logp.mean()), dC.reshape(u, v, h, w)


def _ref_grad_w(f1, f2, dC):
    u, v = dC.shape[:2]
    c, h, w = f1.shape
    ru, rv = (u - 1) // 2, (v - 1) // 2
    f2p = np.zeros((c, h + u - 1, w + v - 1))
    f2p[:, ru : ru + h, rv : rv + w] = f2
    B = np.zeros((c, h, w))
    for k in range(u):
        for l in range(v):
            B += dC[k, l] * f2p[:, k : k + h, l : l + w]
    return f1.reshape(c, -1) @ B.reshape(c, -1).T


def _ref_decode(costs):
    u, v, h, w = costs.shape
    ru, rv = (u - 1) // 2, (v - 1) // 2
    flat = costs.reshape(u * v, h, w)
    mag2 = ((np.arange(u) - ru)[:, None] ** 2 + (np.arange(v) - rv)[None, :] ** 2).reshape(-1)
    ranked = np.where(flat == flat.max(axis=0), mag2.astype(float)[:, None, None], np.inf)
    idx = ranked.argmin(axis=0)
    return np.stack([(idx % v - rv).astype(float), (idx // v - ru).astype(float)])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# Rounding gates, relative to the same sums taken over absolute values: a
# sum of n products in any order is within about n * 1.1e-16 of another.
# Costs sum at most 2c = 8 products here and dW a few hundred.
COST_RTOL = 1e-14
GRAD_RTOL = 1e-12


def _row_bytes(w, u, v):
    """Bytes of one image row's GEMM blocks, the unit of the chunk budget."""
    return 8 * _TILE * max(1, -(-w // _TILE)) * u * (_TILE + v - 1)


def _budget(nbytes):
    """Engine calls on problems made inside this context chunk rows by ``nbytes``."""
    return mock.patch.object(costvolume, "_CHUNK_BYTES", nbytes)


@st.composite
def matching_cases(draw, integer):
    """Small pairs with odd, possibly unequal window sides and integer flow
    anywhere in the window, border included.  Sides run up to the paper's
    9, whose 16-column strips span two tiles.  Widths run past two tiles
    of the correlation, with whole tiles and partial ones, and heights
    past two 8-row chunks, with whole chunks and partial ones (the
    default budget fits each case in one chunk; :func:`_check_engine`
    also runs 1- and 3-row chunks).  ``integer`` draws integer features
    and an integer ``W``, which make every sum exact and exact cost ties
    common; otherwise both are real.  ``W`` is not symmetric, so applying
    ``W^T`` for ``W`` shows."""
    c = draw(st.integers(1, 4))
    h = draw(st.integers(1, 19) | st.sampled_from([8, 9, 16, 17]))
    w = draw(st.integers(1, 17) | st.sampled_from([8, 16]))
    u = draw(st.sampled_from([1, 3, 5, 7, 9]))
    v = draw(st.sampled_from([1, 3, 5, 7, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        f1 = rng.integers(-2, 3, (c, h, w)).astype(float)
        f2 = rng.integers(-2, 3, (c, h, w)).astype(float)
        W = np.eye(c) + rng.integers(0, 2, (c, c)).astype(float)
    else:
        f1 = rng.standard_normal((c, h, w))
        f2 = rng.standard_normal((c, h, w))
        W = rng.standard_normal((c, c)) + np.eye(c)
    ru, rv = (u - 1) // 2, (v - 1) // 2
    gt = np.stack([rng.integers(-rv, rv + 1, (h, w)), rng.integers(-ru, ru + 1, (h, w))])
    return f1, f2, gt.astype(float), W, u, v


def _check_engine(f1, f2, gt, W, u, v):
    """Check the engine and the public path on one case; returns the
    engine's costs and the reference's.

    Everything downstream of the costs (loss, decode, AEPE) must be
    bitwise what the reference computes from the engine's own costs; the
    costs and ``dW`` must be within rounding of the reference.  Chunks of
    1 and 3 rows must give every output of the default chunks bitwise."""
    cv = cost_volume_bilinear(FeatureMap(f1), FeatureMap(f2), W, u, v)
    costs = cv.data
    loss, dC = _ref_loss(costs, gt)
    flow = _ref_decode(costs)
    aepe = epe(FlowField(flow), FlowField(gt))
    assert _bits(decode_flow_argmax(cv).data) == _bits(flow)
    public_loss, public_dC = matching_loss(cv, FlowField(gt))
    assert _bits(public_loss) == _bits(loss)
    assert _bits(public_dC) == _bits(dC)

    got_dWs = []
    for budget in (costvolume._CHUNK_BYTES, 1, 3 * _row_bytes(f1.shape[2], u, v)):
        with _budget(budget):
            problem = _MatchingProblem(FeatureMap(f1), FeatureMap(f2), FlowField(gt), (u, v))
            got_loss, got_dW, got_aepe = problem.loss_grad(W)
            assert _bits(got_loss) == _bits(loss)
            assert _bits(got_aepe) == _bits(aepe)
            # A second evaluation reuses the prepared frames.
            assert _bits(problem.loss_grad(W)[1]) == _bits(got_dW)
            assert _bits(problem.decode(W).data) == _bits(flow)
            assert _bits(cost_volume_bilinear(FeatureMap(f1), FeatureMap(f2), W, u, v).data) == _bits(costs)
        got_dWs.append(_bits(got_dW))
    assert got_dWs[1] == got_dWs[0] and got_dWs[2] == got_dWs[0]

    ref = _ref_costs(f1, f2, W, u, v)
    scale = _ref_costs(np.abs(f1), np.abs(f2), np.abs(W), u, v)
    assert np.all(np.abs(costs - ref) <= COST_RTOL * scale)
    dW = _ref_grad_w(f1, f2, dC)
    assert np.all(np.abs(got_dW - dW) <= GRAD_RTOL * _ref_grad_w(np.abs(f1), np.abs(f2), np.abs(dC)))
    return costs, ref


class TestMatchingEngine:
    @settings(max_examples=300, deadline=None)
    @given(matching_cases(integer=True))
    def test_reproduces_the_reference_bitwise(self, case):
        costs, ref = _check_engine(*case)
        # Exact sums: the costs, and so loss, decode and AEPE, are the
        # reference's byte for byte.
        assert _bits(costs) == _bits(ref)

    @settings(max_examples=300, deadline=None)
    @given(matching_cases(integer=False))
    def test_stays_within_rounding_of_the_reference(self, case):
        _check_engine(*case)

    @settings(max_examples=100, deadline=None)
    @given(matching_cases(integer=False))
    def test_identity_kernel_is_the_vanilla_volume(self, case):
        f1, f2, gt, _, u, v = case
        f1, f2, gt = FeatureMap(f1), FeatureMap(f2), FlowField(gt)
        ident = identity_kernel(f1.channels)
        plain = vanilla_cost_volume(f1, f2, u, v)
        assert _bits(cost_volume_bilinear(f1, f2, ident.W, u, v).data) == _bits(plain.data)
        # The learned side decodes the identity kernel through its product.
        scores = score_pair(f1, f2, gt, ident, (u, v))
        flow = decode_flow_argmax(plain)
        for name in ("identity", "learned"):
            assert _bits(scores[f"aepe_{name}"]) == _bits(epe(flow, gt))
            assert _bits(scores[f"fl_{name}"]) == _bits(fl_all(flow, gt))

    @pytest.mark.parametrize("c, h, w, u, v, integer", [
        (1, 1, 1, 1, 1, False),
        (3, 5, 7, 3, 5, True),
        (4, 17, 16, 7, 3, False),
        (8, 20, 20, 9, 9, True),
        (16, 24, 33, 9, 9, False),
    ])
    def test_identity_decode_skips_the_product(self, c, h, w, u, v, integer):
        # Integer features make exact cost ties, which the decode breaks.
        rng = np.random.default_rng(c * h + w)
        draw = ((lambda: rng.integers(-2, 3, (c, h, w)).astype(float)) if integer
                else (lambda: rng.standard_normal((c, h, w))))
        f1, f2 = FeatureMap(draw()), FeatureMap(draw())
        ru, rv = (u - 1) // 2, (v - 1) // 2
        gt = FlowField(np.stack([rng.integers(-rv, rv + 1, (h, w)),
                                 rng.integers(-ru, ru + 1, (h, w))]).astype(float))
        problem = _MatchingProblem(f1, f2, gt, (u, v))
        flow = problem.decode(None)
        assert _bits(flow.data) == _bits(problem.decode(np.eye(c)).data)
        plain = decode_flow_argmax(vanilla_cost_volume(f1, f2, u, v))
        assert _bits(flow.data) == _bits(plain.data)
        learned = assemble_kernel(SkewParams(rng.uniform(-0.5, 0.5, c * (c - 1) // 2), c),
                                  DiagParams(rng.uniform(-0.5, 0.5, c)))
        scores = score_pair(f1, f2, gt, learned, (u, v))
        assert _bits(scores["aepe_identity"]) == _bits(epe(plain, gt))
        assert _bits(scores["fl_identity"]) == _bits(fl_all(plain, gt))
        learned_flow = decode_flow_argmax(cost_volume_bilinear(f1, f2, learned.W, u, v))
        assert _bits(scores["aepe_learned"]) == _bits(epe(learned_flow, gt))

    def test_non_finite_costs_are_numerical_errors(self):
        f = FeatureMap(np.full((1, 3, 3), 1e200))
        problem = _MatchingProblem(f, f, FlowField(np.zeros((2, 3, 3))), (3, 3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            problem.loss_grad(np.eye(1) * 1e200)

    def test_kernel_of_the_wrong_size_rejected(self):
        f = FeatureMap(np.zeros((2, 3, 3)))
        problem = _MatchingProblem(f, f, FlowField(np.zeros((2, 3, 3))), (3, 3))
        with pytest.raises(ValueError, match="W shape"):
            problem.decode(np.eye(3))

    def test_outputs_do_not_depend_on_the_chunk_budget(self):
        # 23 rows are 23 chunks of 1 row, 8 of 3 rows (the last partial) or
        # one chunk; 21 columns end in a partial tile.  A one-column frame is
        # one chunk under every budget: a one-pixel chunk would sum its 15
        # cells' softmax in another order.
        for c, h, w, u, v, budgets in ((5, 23, 21, 7, 5, (1, 3)), (3, 3, 1, 3, 5, (1, 2))):
            rng = np.random.default_rng(29)
            f1, f2 = (FeatureMap(rng.standard_normal((c, h, w))) for _ in range(2))
            ru, rv = u // 2, v // 2
            gt = FlowField(np.stack([rng.integers(-rv, rv + 1, (h, w)),
                                     rng.integers(-ru, ru + 1, (h, w))]).astype(float))
            W = rng.standard_normal((c, c)) + np.eye(c)
            outputs = []
            for rows in (*budgets, h):
                with _budget(rows * _row_bytes(w, u, v)):
                    problem = _MatchingProblem(f1, f2, gt, (u, v))
                assert problem._frames.rows == (h if w == 1 else rows)
                loss, dW, aepe = problem.loss_grad(W)
                outputs.append([_bits(x) for x in (loss, dW, aepe, problem.decode(W).data,
                                                    problem.decode(None).data)])
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("c, h, w, u, v", [(16, 32, 32, 5, 5), (8, 40, 36, 9, 9)])
    def test_own_workspace_buffers_share_the_frames_block(self, c, h, w, u, v):
        # The desk frame is one chunk; 40 rows are four chunks of at most 12,
        # and 36 columns end in a partial tile.  Both decodes and training
        # run out of the block: no role outgrows its slice, and the costs
        # and their codes take one chunk.
        rng = np.random.default_rng(c + h)
        f1, f2 = (FeatureMap(rng.standard_normal((c, h, w))) for _ in range(2))
        problem = _MatchingProblem(f1, f2, FlowField(np.zeros((2, h, w))), (u, v))
        frames = problem._frames
        W = np.eye(c) + 0.1 * rng.standard_normal((c, c))
        problem.decode(W)
        problem.decode(None)
        problem.loss_grad(W)
        flat = {role: flat for (role, _), flat in frames.workspace._flat.items()}
        assert flat.keys() == {"frame", "blocks", "costs", "hits"}
        block = frames.f1t.base
        assert block is not None and frames.strips.base is block
        assert all(a.base is block for a in flat.values())
        chunk = u * v * min(frames.rows, h)
        assert flat["costs"].size == chunk * frames.f1t.shape[1] and flat["hits"].size == chunk * w

    def test_a_shared_workspace_gets_no_role_from_the_frames(self):
        rng = np.random.default_rng(8)
        f1, f2 = (rng.standard_normal((4, 9, 11)) for _ in range(2))
        workspace = _Workspace()
        costvolume._Frames(f1, f2, 3, 5, workspace)
        assert workspace._flat == {}
        workspace("frame", (9 * 16, 4))
        roles = dict(workspace._flat)
        costvolume._Frames(f1, f2, 3, 5, workspace)
        assert workspace._flat.keys() == roles.keys()
        assert all(workspace._flat[key] is flat for key, flat in roles.items())

    def test_default_budget_takes_a_desk_frame_whole_and_paper_scale_by_8_rows(self):
        desk, paper = np.zeros((16, 32, 32)), np.zeros((64, 64, 64))
        assert costvolume._Frames(desk, desk, 5, 5).rows >= 32
        assert costvolume._Frames(paper, paper, 9, 9).rows == 8

    @pytest.mark.parametrize("method", ["loss_grad", "decode"])
    def test_repeated_calls_allocate_less_than_half_a_cost_tensor(self, method):
        # The engine keeps the buffers it writes, so once warm a call makes
        # only per-pixel arrays and chunk-sized scratch.  40 rows are four
        # chunks of at most 12, and 36 columns end in a partial tile.
        c, h, w, u, v = 8, 40, 36, 9, 9
        rng = np.random.default_rng(5)
        f1, f2 = (FeatureMap(rng.standard_normal((c, h, w))) for _ in range(2))
        problem = _MatchingProblem(f1, f2, FlowField(np.zeros((2, h, w))), (u, v))
        call = getattr(problem, method)
        W = np.eye(c) + 0.1 * rng.standard_normal((c, c))
        call(W)
        tracemalloc.start()
        try:
            call(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (8 * u * v * h * w)

    @staticmethod
    def _finite_difference_gate(seed, c, h, w, u, v):
        rng = np.random.default_rng(seed)
        f1 = FeatureMap(0.5 * rng.standard_normal((c, h, w)))
        f2 = FeatureMap(0.5 * rng.standard_normal((c, h, w)))
        ru, rv = (u - 1) // 2, (v - 1) // 2
        gt = FlowField(np.stack([rng.integers(-rv, rv + 1, (h, w)),
                                 rng.integers(-ru, ru + 1, (h, w))]).astype(float))
        s = SkewParams(entries=rng.uniform(-0.5, 0.5, c * (c - 1) // 2), dim=c)
        t = DiagParams(t=rng.uniform(-0.5, 0.5, c))

        def loss(sp, tp):
            cv = cost_volume_bilinear(f1, f2, assemble_kernel(sp, tp).W, u, v)
            return matching_loss(cv, gt)[0]

        kernel = assemble_kernel(s, t)
        _, dW, _ = _MatchingProblem(f1, f2, gt, (u, v)).loss_grad(kernel.W)
        analytic = kernel_grad(kernel, dW)
        numeric = finite_difference_oracle(loss, s, t, eps=1e-5)
        a = np.concatenate([analytic.d_skew, analytic.d_diag])
        n = np.concatenate([numeric.d_skew, numeric.d_diag])
        assert np.linalg.norm(a - n) < 1e-5 * np.linalg.norm(n)

    def test_asymmetric_geometry_passes_the_finite_difference_gate(self):
        # A 4x6 frame under a 5x3 window: swapped h/w or u/v arithmetic in
        # the backward cannot cancel out, as it can on square frames.
        self._finite_difference_gate(43, 3, 4, 6, 5, 3)

    def test_multi_tile_geometry_passes_the_finite_difference_gate(self):
        # 17 columns are two whole tiles of the correlation and one pixel
        # of a third, so tile seams and the partial tile carry gradient.
        self._finite_difference_gate(47, 3, 4, 17, 5, 3)


class TestTraining:
    def test_records_cover_every_visited_step(self):
        data = [generate(TINY)]
        kernel, records = train_kernel(data, FAST_OPT, (3, 3))
        steps = records[-1].step
        assert len(records) == steps + 1
        assert [r.step for r in records] == list(range(steps + 1))
        assert all(np.isfinite(r.loss) for r in records)

    def test_perfect_data_keeps_identity(self):
        spec = SyntheticSpec(height=10, width=10, signal_channels=2,
                             noise_channels=0, max_displacement=1, seed=5)
        data = [generate(spec)]
        kernel, _ = train_kernel(data, FAST_OPT, (3, 3))
        flow = decode_flow_argmax(cost_volume_bilinear(*[d for d in data[0][:2]], kernel.W, 3, 3))
        assert epe(flow, data[0][2]) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            train_kernel([], FAST_OPT, (3, 3))

    def test_grad_tolerance_stops_at_the_identity(self):
        # run_experiment with 2 instances trains on the first of these.
        data, _ = experiment_instances(TINY, 2)
        at_identity = train_kernel(data[:1], FAST_OPT, (3, 3))[1][0].grad_norm
        assert at_identity > 0.0
        opt = replace(FAST_OPT, grad_tolerance=2.0 * at_identity)
        kernel, records = train_kernel(data[:1], opt, (3, 3))
        assert len(records) == 1 and records[-1].step == 0
        assert kernel.W.tobytes() == identity_kernel(TINY.channels).W.tobytes()
        assert run_experiment(TINY, PerturbSpec(), opt, (3, 3), instances=2).steps == 0

    @pytest.mark.parametrize("mode", ["cayley", "stiefel"])
    def test_matches_reference_loop(self, mode):
        opt = OptimizerConfig(learning_rate=0.05, max_steps=12, grad_tolerance=1e-9, mode=mode)
        data, _ = experiment_instances(TINY, 2)
        kernel, records = train_kernel(data, opt, (3, 3))
        ref_kernel, ref_records = reference_train(data, opt, (3, 3))
        assert np.array_equal(kernel.W, ref_kernel.W)
        assert [(r.step, r.loss, r.grad_norm) for r in records] == ref_records

    @pytest.mark.parametrize("mode, budget", [
        pytest.param(mode, budget, id=mode + suffix)
        for suffix, budget in (("", None), ("-1_row", 1), ("-3_rows_of_the_widest", 3 * _row_bytes(19, 3, 3)))
        for mode in ("cayley", "stiefel")])
    def test_instances_of_different_sizes_match_reference_loop(self, mode, budget):
        # Every problem of a run writes into one workspace.  Here it serves a
        # 3x5 frame, then a 17x9 one and a 9x19 one: its buffers must grow,
        # and what one geometry left in them must not leak into another.
        # Under the smaller budgets the frames take 1 row a chunk, or 9, 4
        # and 3 rows, so chunks differ in size between the problems too.
        opt = OptimizerConfig(learning_rate=0.05, max_steps=6, grad_tolerance=1e-9, mode=mode)
        data = [generate(replace(TINY, height=h, width=w, seed=seed))
                for h, w, seed in ((3, 5, 3), (17, 9, 1), (9, 19, 2))]
        with _budget(costvolume._CHUNK_BYTES if budget is None else budget):
            kernel, records = train_kernel(data, opt, (3, 3))
        ref_kernel, ref_records = reference_train(data, opt, (3, 3))
        assert np.array_equal(kernel.W, ref_kernel.W)
        assert [(r.step, r.loss, r.grad_norm) for r in records] == ref_records


def reference_train(instances, opt, window):
    """``train_kernel`` as one branch per mode over the public step functions.

    The Stiefel branch projects its tangent for the norm and lets
    ``stiefel_sgd_step`` project it again.
    """
    c = instances[0][0].channels
    kernel = best = identity_kernel(c)
    best_aepe, records = float("inf"), []
    for step in range(opt.max_steps + 1):
        total_loss, train_aepe, dW = 0.0, 0.0, np.zeros((c, c))
        for f1, f2, gt in instances:
            loss_i, dW_i, aepe_i = _MatchingProblem(f1, f2, gt, window).loss_grad(kernel.W)
            total_loss += loss_i
            dW += dW_i
            train_aepe += aepe_i
        dW /= len(instances)
        if train_aepe / len(instances) < best_aepe:
            best_aepe, best = train_aepe / len(instances), kernel
        if opt.mode == "cayley":
            grad = kernel_grad(kernel, dW)
            grad_norm = grad.max_norm()
        else:
            dL_dP, dL_dlam = kernel_factor_grads(kernel, dW)
            d_diag = dL_dlam * dlambda_dt(kernel.diag_params)
            tangent = stiefel_project(kernel.P, dL_dP)
            grad_norm = float(max(np.max(np.abs(tangent)), np.max(np.abs(d_diag))))
        records.append((step, total_loss / len(instances), grad_norm))
        if grad_norm < opt.grad_tolerance or step == opt.max_steps:
            break
        if opt.mode == "cayley":
            kernel = cayley_sgd_step(kernel, grad, opt.learning_rate)
        else:
            kernel = stiefel_sgd_step(kernel, dL_dP, opt.learning_rate, d_diag)
    return best, records


def _no_training(*args, **kwargs):
    pytest.fail("train_kernel was called")


class TestExperiment:
    def test_trivial_configuration_is_solved_exactly(self):
        spec = SyntheticSpec(height=10, width=10, signal_channels=2,
                             noise_channels=0, max_displacement=1, seed=2)
        r = run_experiment(spec, PerturbSpec(), FAST_OPT, (3, 3), instances=3)
        assert r.aepe_identity == 0.0
        assert r.aepe_learned == 0.0
        assert r.fl_identity == 0.0

    def test_deterministic(self):
        r1 = run_experiment(TINY, PerturbSpec(noise_std=0.05), FAST_OPT, (3, 3), instances=3)
        r2 = run_experiment(TINY, PerturbSpec(noise_std=0.05), FAST_OPT, (3, 3), instances=3)
        assert r1 == r2

    def test_window_must_cover_displacement(self):
        spec = SyntheticSpec(height=10, width=10, signal_channels=2,
                             noise_channels=0, max_displacement=2, seed=0)
        with pytest.raises(ValueError, match="cover"):
            run_experiment(spec, PerturbSpec(), FAST_OPT, (3, 3), instances=2)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            run_experiment(TINY, PerturbSpec(), FAST_OPT, (4, 3), instances=2)

    def test_too_few_instances_rejected(self):
        # A negative count names the rule too, rather than failing in the seed draw.
        for n in (-3, 0, 1):
            with pytest.raises(ValueError, match=rf"^instances must be at least 2, got {n}$"):
                run_experiment(TINY, PerturbSpec(), FAST_OPT, (3, 3), instances=n)

    def test_a_disc_too_large_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(harness, "train_kernel", _no_training)
        with pytest.raises(ValueError, match="disc of radius 6 does not fit a 12x12 frame"):
            run_experiment(TINY, PerturbSpec(patch_radius=6), FAST_OPT, (3, 3), instances=2)

    def test_seed_derivation_shared_with_sweep(self):
        data, seeds = experiment_instances(TINY, 4)
        assert len(data) == 4
        assert seeds.shape == (8,)
        again, seeds2 = experiment_instances(TINY, 4)
        np.testing.assert_array_equal(seeds, seeds2)
        for (a1, a2, af), (b1, b2, bf) in zip(data, again):
            np.testing.assert_array_equal(a1.data, b1.data)

    @pytest.mark.parametrize("short, full", [(1, 2), (2, 5), (8, 10)])
    def test_fewer_instances_are_a_prefix(self, short, full):
        # ``lcv train`` draws only the training pairs of a run: the first
        # ``short`` instances and their seeds do not depend on the count.
        spec = replace(TINY, height=6, width=6)
        data, seeds = experiment_instances(spec, short)
        more, more_seeds = experiment_instances(spec, full)
        assert seeds[:short].tobytes() == more_seeds[:short].tobytes()
        for pair, other in zip(data, more):
            assert [x.data.tobytes() for x in pair] == [x.data.tobytes() for x in other]


    def test_a_shared_workspace_scores_as_fresh_ones(self):
        # One workspace serves training and scoring at two geometries in
        # turn, the second wider and under a larger window.
        workspace = _Workspace()
        p = PerturbSpec(gamma=0.7, noise_std=0.3)
        for spec, window in ((replace(TINY, height=17, width=9), (3, 3)),
                             (replace(TINY, height=10, width=21, max_displacement=2), (5, 5))):
            data, seeds = experiment_instances(spec, 3)
            learned, _ = train_kernel(data[:2], FAST_OPT, window, _workspace=workspace)
            assert np.array_equal(learned.W, train_kernel(data[:2], FAST_OPT, window)[0].W)
            f1, f2, gt = data[2]
            f2p = perturb(f2, p, seed=int(seeds[5]), signal_channels=spec.signal_channels)
            shared = score_pair(f1, f2p, gt, learned, window, _workspace=workspace)
            fresh = score_pair(f1, f2p, gt, learned, window)
            assert {k: _bits(x) for k, x in shared.items()} == {k: _bits(x) for k, x in fresh.items()}
            result = run_experiment(spec, p, FAST_OPT, window, instances=3)
            assert [_bits(getattr(result, k)) for k in fresh] == [_bits(x) for x in fresh.values()]


    def test_training_and_scoring_share_one_frame_buffer(self, monkeypatch):
        # Every problem of a run writes into the run's one workspace, and
        # that workspace makes one f1^T W buffer for all of them.
        made = []

        class Recording(_Workspace):
            def __init__(self, **seeds):
                super().__init__(**seeds)
                made.append(self)

        monkeypatch.setattr(costvolume, "_Workspace", Recording)
        monkeypatch.setattr(harness, "_Workspace", Recording)
        run_experiment(TINY, PerturbSpec(noise_std=0.05), FAST_OPT, (3, 3), instances=5)
        assert len(made) == 1
        assert [role for role, _ in made[0]._flat].count("frame") == 1

    @pytest.mark.parametrize("shape", [(4, 0, 12), (4, 12, 0)])
    def test_score_pair_rejects_a_pair_with_no_pixels(self, shape):
        f = FeatureMap(np.zeros(shape))
        gt = FlowField(np.zeros((2, *shape[1:])))
        with pytest.raises(ValueError, match="no pixels") as err:
            score_pair(f, f, gt, identity_kernel(4), (3, 3))
        assert str(shape) in str(err.value)


class TestSweep:
    def test_matches_pointwise_experiments(self):
        seeds = [3]
        results = run_sweep(
            TINY, FAST_OPT, (3, 3), seeds,
            gamma_grid=(0.5,), noise_grid=(0.05,), patch_grid=(2,),
            instances=3,
        )
        assert len(results) == 3
        for r in results:
            direct = run_experiment(replace(TINY, seed=3), r.perturb, FAST_OPT,
                                    (3, 3), instances=3)
            assert r == direct

    def test_row_count_is_grid_times_seeds(self):
        results = run_sweep(
            TINY, FAST_OPT, (3, 3), [1, 2],
            gamma_grid=(0.5, 1.0), noise_grid=(), patch_grid=(2,),
            instances=2,
        )
        assert len(results) == 6
        assert {r.seed for r in results} == {1, 2}

    def test_a_disc_too_large_rejected_before_training(self, monkeypatch):
        # The last point of the grid fails, so no seed trains a kernel.
        monkeypatch.setattr(harness, "train_kernel", _no_training)
        with pytest.raises(ValueError, match="disc of radius 16 does not fit a 12x12 frame"):
            run_sweep(TINY, FAST_OPT, (3, 3), [1, 2], gamma_grid=(0.5,), noise_grid=(0.05,),
                      patch_grid=(2, 16), instances=2)

    def test_window_must_cover_displacement(self):
        spec = SyntheticSpec(height=10, width=10, signal_channels=2,
                             noise_channels=0, max_displacement=2, seed=0)
        with pytest.raises(ValueError, match="cover"):
            run_sweep(spec, FAST_OPT, (3, 3), [0], gamma_grid=(0.5,),
                      noise_grid=(), patch_grid=(), instances=2)


def fake_result(seed, perturb, base=1.0):
    return ExperimentResult(
        aepe_identity=base, aepe_learned=base / 2,
        fl_identity=10.0 * base, fl_learned=5.0 * base,
        steps=7, seed=seed, perturb=perturb,
    )


class TestReport:
    def test_csv_schema_and_order(self, tmp_path):
        results = [
            fake_result(2, PerturbSpec(noise_std=0.1), base=2.0),
            fake_result(1, PerturbSpec(noise_std=0.1), base=1.0),
            fake_result(1, PerturbSpec(gamma=0.5), base=3.0),
        ]
        csv_path, json_path = report(results, tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "gamma", "noise_std", "patch_radius", "steps",
                           "aepe_identity", "aepe_learned", "fl_identity", "fl_learned"]
        # gamma 0.5 sorts before gamma 1.0; within a group, seed order
        assert [r[0] for r in rows[1:]] == ["1", "1", "2"]
        assert rows[1][1] == "0.5"
        assert float(rows[2][6]) == 0.5

    def test_summary_quartiles(self, tmp_path):
        p = PerturbSpec(noise_std=0.01)
        results = [fake_result(s, p, base=float(b)) for s, b in enumerate((1, 2, 3, 4))]
        _, json_path = report(results, tmp_path)
        with open(json_path) as fh:
            summary = json.load(fh)
        assert len(summary["groups"]) == 1
        g = summary["groups"][0]
        assert g["seeds"] == 4
        m = g["metrics"]["aepe_identity"]
        assert m["median"] == pytest.approx(2.5)
        assert m["q1"] == pytest.approx(1.75)
        assert m["q3"] == pytest.approx(3.25)
        assert m["iqr"] == pytest.approx(1.5)

    def test_deterministic_bytes(self, tmp_path):
        results = [fake_result(s, PerturbSpec(gamma=2.0), base=s + 1.0) for s in range(3)]
        c1, j1 = report(results, tmp_path / "a")
        c2, j2 = report(results, tmp_path / "b")
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()

    def test_empty_results_rejected_before_writing(self, tmp_path):
        target = tmp_path / "out"
        with pytest.raises(ValueError):
            report([], target)
        assert not target.exists()


class TestGradCheck:
    def test_all_gradients_pass(self):
        checks = run_gradcheck(seed=0, trace_count=6, matching_count=6)
        assert len(checks) == 12
        for c in checks:
            assert c.passed, f"{c.name}: rel error {c.rel_error}"

    def test_rel_errors_are_tiny(self):
        checks = run_gradcheck(seed=1, trace_count=3, matching_count=3)
        assert max(c.rel_error for c in checks) < 1e-7
