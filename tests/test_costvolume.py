"""Tests for cost volumes, flow decoding, metrics, and tensor files.

The 36-entry table in TestFrozenTable was produced by an independent
pure-Python triple loop over (window cell, pixel, channel) with explicit
bounds checks, then frozen here.  Every other numeric expectation is
either derived in-test by a brute-force oracle or computed by hand.
"""

import math
import os
import struct
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcv import costvolume
from lcv.cayley import DiagParams, OrthogonalMatrix, SkewParams
from lcv.costvolume import (
    CostVolume,
    FeatureMap,
    FlowField,
    cost_volume_bilinear,
    decode_flow_argmax,
    epe,
    fl_all,
    learnable_cost_volume,
    read_tensor,
    vanilla_cost_volume,
    write_tensor,
    wssd,
)
from lcv.harness import SyntheticSpec
from lcv.kernel import (
    KernelGradient,
    assemble_kernel,
    identity_kernel,
    whitening_pca,
    whitening_zca,
)


def brute_force_volume(f1, f2, W, u, v):
    """Reference correlation: explicit loops, zero outside the frame."""
    c, h, w = f1.shape
    ru, rv = (u - 1) // 2, (v - 1) // 2
    out = np.zeros((u, v, h, w))
    for k in range(u):
        for l in range(v):
            for i in range(h):
                for j in range(w):
                    i2, j2 = i - ru + k, j - rv + l
                    if 0 <= i2 < h and 0 <= j2 < w:
                        out[k, l, i, j] = f1[:, i, j] @ W @ f2[:, i2, j2]
    return out


def transform_features(T, f):
    return FeatureMap(np.einsum("dc,chw->dhw", T, f.data))


FROZEN_F1 = np.array([[[1.0, 2.0], [3.0, 4.0]], [[-1.0, 0.0], [2.0, 1.0]]])
FROZEN_F2 = np.array([[[2.0, -1.0], [0.0, 3.0]], [[1.0, 1.0], [-2.0, 0.0]]])
# (k, l, i, j) row-major over a 3x3 window on the 2x2 frames above.
FROZEN_TABLE = np.array([
    0, 0, 0, 9,
    0, 0, 8, -3,
    0, 0, -1, 0,
    0, 4, 0, -2,
    1, -2, -4, 12,
    -2, 0, 9, 0,
    0, 0, 0, 0,
    2, 6, 0, 0,
    3, 0, 0, 0,
], dtype=float).reshape(3, 3, 2, 2)


class TestFrozenTable:
    def test_vanilla_matches_frozen_values(self):
        cv = vanilla_cost_volume(FeatureMap(FROZEN_F1), FeatureMap(FROZEN_F2), 3, 3)
        np.testing.assert_array_equal(cv.data, FROZEN_TABLE)

    def test_identity_kernel_matches_frozen_values(self):
        cv = learnable_cost_volume(
            FeatureMap(FROZEN_F1), FeatureMap(FROZEN_F2), identity_kernel(2), 3, 3
        )
        np.testing.assert_array_equal(cv.data, FROZEN_TABLE)


class TestCorrelation:
    @pytest.mark.parametrize("c,h,w,u,v", [(1, 3, 3, 3, 3), (3, 4, 6, 3, 5), (2, 5, 4, 5, 3)])
    def test_matches_brute_force(self, c, h, w, u, v):
        rng = np.random.default_rng(c * 100 + h * 10 + w)
        f1 = rng.standard_normal((c, h, w))
        f2 = rng.standard_normal((c, h, w))
        t = DiagParams(t=rng.uniform(-1, 1, c))
        s = SkewParams(entries=rng.uniform(-1, 1, c * (c - 1) // 2), dim=c)
        W = assemble_kernel(s, t).W
        cv = cost_volume_bilinear(FeatureMap(f1), FeatureMap(f2), W, u, v)
        np.testing.assert_allclose(cv.data, brute_force_volume(f1, f2, W, u, v), atol=1e-12)

    @pytest.mark.parametrize("c,h,w,u,v", [(3, 9, 13, 5, 7), (2, 4, 16, 3, 9), (1, 3, 3, 7, 7)])
    def test_padding_is_zeroed_whatever_fresh_memory_holds(self, monkeypatch, c, h, w, u, v):
        # The prepared frames start from np.empty and zero only their
        # padding; with fresh float buffers full of NaN, every cost must still
        # match the zero-padded reference.
        class NanEmpty(ModuleType):
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype=float):
                return np.full(shape, np.nan, dtype) if np.dtype(dtype).kind == "f" else np.empty(shape, dtype)

        monkeypatch.setattr(costvolume, "np", NanEmpty("numpy"))
        rng = np.random.default_rng(c + h + w)
        f1 = rng.standard_normal((c, h, w))
        f2 = rng.standard_normal((c, h, w))
        frames = costvolume._Frames(f1, f2, u, v)
        assert np.isfinite(frames.f1t).all() and np.isfinite(frames.strips).all()
        assert not frames.f1t[:, w:].any()
        W = rng.standard_normal((c, c))
        want = brute_force_volume(f1, f2, W, u, v)
        np.testing.assert_allclose(cost_volume_bilinear(FeatureMap(f1), FeatureMap(f2), W, u, v).data,
                                   want, atol=1e-12)
        np.testing.assert_allclose(vanilla_cost_volume(FeatureMap(f1), FeatureMap(f2), u, v).data,
                                   brute_force_volume(f1, f2, np.eye(c), u, v), atol=1e-12)

    def test_identity_kernel_degenerates_to_vanilla(self):
        rng = np.random.default_rng(2)
        f1 = FeatureMap(rng.standard_normal((8, 6, 6)))
        f2 = FeatureMap(rng.standard_normal((8, 6, 6)))
        learned = learnable_cost_volume(f1, f2, identity_kernel(8), 5, 5)
        plain = vanilla_cost_volume(f1, f2, 5, 5)
        np.testing.assert_allclose(learned.data, plain.data, atol=1e-12)

    def test_linear_in_the_kernel(self):
        rng = np.random.default_rng(3)
        f1 = FeatureMap(rng.standard_normal((4, 5, 5)))
        f2 = FeatureMap(rng.standard_normal((4, 5, 5)))
        W1 = rng.standard_normal((4, 4))
        W2 = rng.standard_normal((4, 4))
        combo = cost_volume_bilinear(f1, f2, W1 + 2.0 * W2, 3, 3)
        parts = (
            cost_volume_bilinear(f1, f2, W1, 3, 3).data
            + 2.0 * cost_volume_bilinear(f1, f2, W2, 3, 3).data
        )
        np.testing.assert_allclose(combo.data, parts, atol=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        f1 = FeatureMap(rng.standard_normal((6, 8, 8)))
        f2 = FeatureMap(rng.standard_normal((6, 8, 8)))
        k = identity_kernel(6)
        a = learnable_cost_volume(f1, f2, k, 5, 5).data
        b = learnable_cost_volume(f1, f2, k, 5, 5).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("h,w", [(3, 0), (0, 3), (0, 0), (0, 1)])
    def test_empty_frames_give_empty_volumes(self, h, w):
        f = FeatureMap(np.zeros((2, h, w)))
        # Chunks hold at least one row, in a one-column frame too.
        assert costvolume._Frames(f.data, f.data, 3, 5).rows >= 1
        assert vanilla_cost_volume(f, f, 3, 5).data.shape == (3, 5, h, w)
        cv = cost_volume_bilinear(f, f, np.eye(2), 3, 5)
        assert cv.data.shape == (3, 5, h, w)
        assert decode_flow_argmax(cv).data.shape == (2, h, w)

    def test_even_window_rejected(self):
        rng = np.random.default_rng(5)
        f = FeatureMap(rng.standard_normal((2, 4, 4)))
        with pytest.raises(ValueError, match="odd"):
            vanilla_cost_volume(f, f, 4, 3)

    def test_shape_mismatch_rejected(self):
        f1 = FeatureMap(np.zeros((2, 4, 4)))
        f2 = FeatureMap(np.zeros((2, 4, 5)))
        with pytest.raises(ValueError):
            vanilla_cost_volume(f1, f2, 3, 3)

    def test_kernel_of_the_wrong_size_rejected(self):
        f = FeatureMap(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match=r"cost_volume_bilinear: W shape \(3, 3\)"):
            cost_volume_bilinear(f, f, np.eye(3), 3, 3)


class TestWhiteningEquivalence:
    def test_factored_features_reproduce_learned_volume(self):
        rng = np.random.default_rng(6)
        c = 5
        kernel = assemble_kernel(
            SkewParams(entries=rng.uniform(-1, 1, c * (c - 1) // 2), dim=c),
            DiagParams(t=rng.uniform(-1, 1, c)),
        )
        f1 = FeatureMap(rng.standard_normal((c, 6, 7)))
        f2 = FeatureMap(rng.standard_normal((c, 6, 7)))
        learned = learnable_cost_volume(f1, f2, kernel, 3, 5).data

        Q = whitening_pca(kernel)
        via_pca = vanilla_cost_volume(transform_features(Q, f1), transform_features(Q, f2), 3, 5)
        np.testing.assert_allclose(via_pca.data, learned, atol=1e-10)

        R = whitening_zca(kernel)
        via_zca = vanilla_cost_volume(transform_features(R, f1), transform_features(R, f2), 3, 5)
        np.testing.assert_allclose(via_zca.data, learned, atol=1e-10)


class TestWSSD:
    def test_expansion_identity(self):
        # (f2-f1)' W (f2-f1) = f1'Wf1 + f2'Wf2 - 2 f1'Wf2 for symmetric W.
        rng = np.random.default_rng(7)
        c = 4
        kernel = assemble_kernel(
            SkewParams(entries=rng.uniform(-1, 1, 6), dim=c),
            DiagParams(t=rng.uniform(-1, 1, c)),
        )
        for _ in range(200):
            x, y = rng.standard_normal((2, c))
            direct = wssd(x, y, kernel)
            expanded = x @ kernel.W @ x + y @ kernel.W @ y - 2.0 * (x @ kernel.W @ y)
            assert direct == pytest.approx(expanded, abs=1e-10)

    def test_nonnegative_and_zero_on_equal(self):
        rng = np.random.default_rng(8)
        kernel = assemble_kernel(
            SkewParams(entries=rng.uniform(-2, 2, 1), dim=2),
            DiagParams(t=rng.uniform(-2, 2, 2)),
        )
        for _ in range(100):
            x, y = rng.standard_normal((2, 2))
            assert wssd(x, y, kernel) >= 0.0
        x = rng.standard_normal(2)
        assert wssd(x, x, kernel) == 0.0

    def test_identity_kernel_is_squared_distance(self):
        x, y = np.array([1.0, 2.0]), np.array([4.0, 6.0])
        assert wssd(x, y, identity_kernel(2)) == pytest.approx(25.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            wssd(np.zeros(3), np.zeros(3), identity_kernel(2))


def brute_force_decode(cv):
    """Reference winner-take-all with the documented tie-breaks."""
    u, v, h, w = cv.shape
    ru, rv = (u - 1) // 2, (v - 1) // 2
    out = np.zeros((2, h, w))
    for i in range(h):
        for j in range(w):
            cells = []
            for k in range(u):
                for l in range(v):
                    dk, dl = k - ru, l - rv
                    cells.append((-cv[k, l, i, j], dk * dk + dl * dl, k * v + l, dl, dk))
            _, _, _, dl, dk = min(cells)
            out[0, i, j], out[1, i, j] = dl, dk
    return out


class TestDecode:
    def test_uniform_costs_pick_zero_flow(self):
        cv = CostVolume(np.ones((3, 3, 2, 2)))
        flow = decode_flow_argmax(cv)
        np.testing.assert_array_equal(flow.data, np.zeros((2, 2, 2)))

    def test_magnitude_then_row_major_tie_break(self):
        # Four unit-magnitude cells tie at the top; row-major order keeps
        # the (k=0, l=1) cell, i.e. displacement (dx=0, dy=-1).
        data = np.zeros((3, 3, 1, 1))
        for k, l in ((0, 1), (1, 0), (1, 2), (2, 1)):
            data[k, l, 0, 0] = 5.0
        flow = decode_flow_argmax(CostVolume(data))
        assert flow.data[0, 0, 0] == 0.0
        assert flow.data[1, 0, 0] == -1.0

    def test_matches_brute_force_on_tied_integer_costs(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            data = rng.integers(-2, 3, size=(5, 3, 4, 4)).astype(float)
            flow = decode_flow_argmax(CostVolume(data))
            np.testing.assert_array_equal(flow.data, brute_force_decode(data))

    def test_unique_maximum_wins(self):
        data = np.zeros((3, 3, 1, 2))
        data[2, 0, 0, 0] = 1.0  # displacement (dy=+1, dx=-1)
        data[0, 2, 0, 1] = 1.0  # displacement (dy=-1, dx=+1)
        flow = decode_flow_argmax(CostVolume(data))
        np.testing.assert_array_equal(flow.data[:, 0, 0], [-1.0, 1.0])
        np.testing.assert_array_equal(flow.data[:, 0, 1], [1.0, -1.0])

    def test_flow_stays_in_window(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((5, 7, 6, 6))
        flow = decode_flow_argmax(CostVolume(data))
        assert np.all(np.abs(flow.data[0]) <= 3)
        assert np.all(np.abs(flow.data[1]) <= 2)


class TestMetrics:
    def test_epe_is_mean_euclidean(self):
        gt = FlowField(np.zeros((2, 1, 2)))
        pred = np.zeros((2, 1, 2))
        pred[:, 0, 0] = (3.0, 4.0)  # error 5
        assert epe(FlowField(pred), gt) == pytest.approx(2.5)

    def test_epe_zero_on_equal(self):
        f = FlowField(np.random.default_rng(11).standard_normal((2, 3, 3)))
        assert epe(f, f) == 0.0

    def test_fl_all_hand_case(self):
        # 16 pixels: 4 outliers with small true motion, 1 outlier at 40px,
        # plus large-motion and small-error pixels that must not count.
        gt = np.zeros((2, 4, 4))
        pred = np.zeros((2, 4, 4))
        cases = (
            [((0.0, 0.0), (0.0, 0.0))] * 6
            + [((0.0, 0.0), (4.0, 0.0))] * 4      # err 4 > 3, > 5% of 0
            + [((100.0, 0.0), (104.0, 0.0))] * 3  # err 4 <= 5% of 100
            + [((2.0, 0.0), (2.0, 2.5))] * 2      # err 2.5 <= 3
            + [((40.0, 0.0), (45.0, 0.0))]        # err 5 > 3, > 5% of 40
        )
        for idx, (g, p) in enumerate(cases):
            i, j = divmod(idx, 4)
            gt[:, i, j] = g
            pred[:, i, j] = p
        assert fl_all(FlowField(pred), FlowField(gt)) == pytest.approx(31.25)

    def test_fl_all_zero_on_equal(self):
        f = FlowField(np.random.default_rng(12).standard_normal((2, 5, 5)))
        assert fl_all(f, f) == 0.0

    def test_shape_mismatch_rejected(self):
        a = FlowField(np.zeros((2, 2, 2)))
        b = FlowField(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            epe(a, b)
        with pytest.raises(ValueError):
            fl_all(a, b)


def _gradient_arrays(a):
    g = KernelGradient(d_skew=a, d_diag=a)
    return [g.d_skew, g.d_diag]


def _kernel_arrays(t):
    k = assemble_kernel(SkewParams(np.zeros(1), dim=2), DiagParams(t))
    return [k.W, k.lam]


# Every frozen container: a valid input, and the arrays it stores when
# built from it.  SPDKernel derives W and lam from its factors instead of
# copying an input, so only their read-only flags are checked.
CONTAINERS = {
    "SkewParams": (np.array([0.5, -1.0, 2.0]), lambda a: [SkewParams(a, dim=3).entries]),
    "DiagParams": (np.array([0.5, -1.0]), lambda a: [DiagParams(a).t]),
    # A cyclic permutation is orthogonal with determinant +1, even in float32.
    "OrthogonalMatrix": (np.roll(np.eye(3), 1, axis=0), lambda a: [OrthogonalMatrix(a).values]),
    "KernelGradient": (np.array([0.5, -1.0]), _gradient_arrays),
    "SPDKernel": (np.array([0.5, -1.0]), _kernel_arrays),
    "FeatureMap": (np.random.default_rng(17).standard_normal((2, 3, 3)),
                   lambda a: [FeatureMap(a).data]),
    "CostVolume": (np.arange(36.0).reshape(3, 3, 2, 2), lambda a: [CostVolume(a).data]),
    "FlowField": (np.arange(8.0).reshape(2, 2, 2), lambda a: [FlowField(a).data]),
    "SyntheticSpec.mixing": (np.array([[1.0, 0.5], [-0.25, 2.0]]),
                             lambda a: [SyntheticSpec(signal_channels=2, noise_channels=0,
                                                      mixing=a).mixing]),
}


class TestContainers:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 5, 11])
    def test_every_non_finite_entry_is_rejected(self, bad, at):
        data = np.arange(12.0).reshape(1, 3, 4)
        data.flat[at] = bad
        with pytest.raises(ValueError, match="FeatureMap: values must be finite"):
            FeatureMap(data)
        with pytest.raises(ValueError, match="FeatureMap: values must be finite"):
            costvolume._adopt(FeatureMap, data)

    def test_feature_map_needs_three_axes(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((3, 3)))

    def test_cost_volume_needs_odd_window(self):
        with pytest.raises(ValueError):
            CostVolume(np.zeros((2, 3, 4, 4)))

    def test_flow_field_needs_two_planes(self):
        with pytest.raises(ValueError):
            FlowField(np.zeros((3, 4, 4)))

    @pytest.mark.parametrize("name", list(CONTAINERS))
    def test_container_copies_its_data(self, name):
        base, stored = CONTAINERS[name]
        writable = base.copy()
        # A read-only strided view, a read-only array that owns its memory,
        # and copies in another byte order and another precision.
        view = np.repeat(writable, 2, axis=-1)[..., ::2]
        view.setflags(write=False)
        owned = writable.copy()
        owned.setflags(write=False)
        for data in (writable, view, owned, writable.astype(">f8"), writable.astype(np.float32)):
            arrays = stored(data)
            assert not any(a.flags.writeable for a in arrays)
            if name == "SPDKernel":
                continue
            for a in arrays:
                assert a.dtype == np.float64
                assert not np.shares_memory(a, data)
                np.testing.assert_array_equal(a, data)
        if name == "SPDKernel":
            return
        arrays = stored(writable)
        before = [a.copy() for a in arrays]
        writable += 1.0
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        for bad_value in (np.nan, np.inf):
            bad = base.copy()
            bad.flat[0] = bad_value
            with pytest.raises(ValueError):
                stored(bad)
        for wrong_axes in (base[None], base[0]):
            with pytest.raises(ValueError):
                stored(wrong_axes)


class TestTensorFiles:
    @pytest.mark.parametrize("shape", [(4,), (2, 3), (3, 2, 2), (2, 2, 2, 2)])
    def test_round_trip_is_bitwise(self, tmp_path, shape):
        rng = np.random.default_rng(13)
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.lcvt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    @pytest.mark.parametrize("make", [
        lambda a: a,
        lambda a: np.rint(4 * a).astype(np.int32),
        lambda a: a.transpose(2, 0, 1)[:, ::2],
        lambda a: a.astype(">f8"),
    ], ids=["float", "int", "non-contiguous", "big-endian"])
    def test_writes_the_bytes_of_a_converted_copy(self, tmp_path, make):
        # The payload is written from the array's buffer without the
        # copies it used to take; the file must not change.
        arr = make(np.random.default_rng(19).standard_normal((3, 4, 5)))
        converted = np.ascontiguousarray(np.asarray(arr, dtype=float))
        expected = (struct.pack("<4sBB", b"LCVT", 1, converted.ndim)
                    + struct.pack(f"<{converted.ndim}I", *converted.shape)
                    + converted.astype("<f8").tobytes())
        path = tmp_path / "c.lcvt"
        write_tensor(path, arr)
        assert path.read_bytes() == expected

    def test_preserves_special_values(self, tmp_path):
        arr = np.array([0.0, -0.0, 1e-308, 1e308])
        path = tmp_path / "s.lcvt"
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lcvt"
        path.write_bytes(b"XXXX" + bytes(10))
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.lcvt"
        write_tensor(path, np.zeros((3, 3)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            read_tensor(path)

    @pytest.mark.parametrize("shape", [
        (65536, 65536, 16),  # 512 GiB of payload
        (2**31, 2**31, 4),  # element count wraps int64 to 0
        (2**20, 2**20),
        (0,) * 65,  # empty, but more axes than numpy holds
        (0, 2**32 - 1, 2**32 - 1, 2**32 - 1),  # empty, but too big for numpy
    ])
    def test_header_larger_than_file_rejected(self, tmp_path, shape):
        path = tmp_path / "big.lcvt"
        rank = len(shape)
        path.write_bytes(struct.pack(f"<4sBB{rank}I", b"LCVT", 1, rank, *shape))
        with pytest.raises(ValueError, match="big.lcvt"):
            read_tensor(path)

    def test_short_read_of_the_payload_rejected(self, tmp_path, monkeypatch):
        # A file that shrinks after its size was taken reads short.
        path = tmp_path / "s.lcvt"
        write_tensor(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-4])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 4))
        with pytest.raises(ValueError, match="truncated payload"):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.lcvt"
        write_tensor(path, np.zeros(2))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError):
            read_tensor(path)


# Dimensions a forged header might declare: empty and small ones, and
# ones near 2**31 and 2**32 whose products overflow int64.
FUZZ_DIMS = st.one_of(
    st.integers(0, 3),
    st.integers(2**31 - 2, 2**31 + 2),
    st.integers(2**32 - 8, 2**32 - 1),
)


@st.composite
def lcvt_bytes(draw):
    """An LCVT file that may be cut short anywhere, forge its rank and
    dimensions, or carry a payload shorter or longer than declared.

    Returns the bytes and the declared shape, or None when the reader
    must reject the file."""
    rank = draw(st.integers(0, 255))
    # A few drawn dimensions, then one repeated filler up to the rank.
    dims = draw(st.lists(FUZZ_DIMS, max_size=min(rank, 6)))
    dims += [draw(st.integers(0, 2))] * (rank - len(dims))
    magic = draw(st.sampled_from([b"LCVT", b"LCVT", b"LCVK"]))
    version = draw(st.sampled_from([1, 1, 0, 2]))
    header = struct.pack(f"<4sBB{rank}I", magic, version, rank, *dims)
    declared = 8 * math.prod(dims)
    length = draw(st.one_of(st.integers(0, 64), st.just(declared if declared <= 4096 else 0)))
    cut = draw(st.one_of(st.none(), st.integers(0, len(header) - 1)))
    if cut is not None:
        return header[:cut], None
    valid = magic == b"LCVT" and version == 1 and length == declared
    return header + bytes(length), tuple(dims) if valid else None


class TestTensorFileFuzz:
    @settings(max_examples=400, deadline=None)
    @given(lcvt_bytes())
    def test_malformed_files_raise_only_value_error(self, tmp_path_factory, case):
        data, shape = case
        path = tmp_path_factory.getbasetemp() / "fuzz.lcvt"
        path.write_bytes(data)
        try:
            arr = read_tensor(path)
        except ValueError:
            # Well-formed files may still declare more axes or a larger
            # (empty) shape than numpy can hold.
            return
        assert shape is not None and arr.shape == shape

