"""Cost volumes, the matching engine, and flow metrics.

A cost volume stacks, for every pixel of a reference feature map, the
channel inner products against a window of displaced candidates in a
second map.  ``vanilla_cost_volume`` uses the plain inner product;
``learnable_cost_volume`` replaces it with the elliptical product
``f1^T W f2`` for an SPD kernel ``W``.  Window cells that fall outside the
second map contribute zero, matching zero padding.  ``matching_loss`` is
the per-pixel softmax cross-entropy over the window; ``_MatchingProblem``
takes one pair's costs a row chunk at a time into that loss, its gradient
on ``W`` and the winner-take-all decode, in a shared ``_Workspace``.

Conventions, fixed once here and relied on everywhere else:

* window index ``k`` is the row (vertical) displacement, ``l`` the column
  (horizontal) displacement, each centred so cell ``((u-1)/2, (v-1)/2)``
  is zero displacement;
* a flow field stores plane 0 = horizontal and plane 1 = vertical
  displacement, in pixels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cayley import NumericalError, _Adopted, _frozen, _read_payload
from .kernel import SPDKernel

_TENSOR_MAGIC = b"LCVT"
_TENSOR_VERSION = 1


@dataclass(frozen=True)
class FeatureMap:
    """Dense feature tensor of shape ``(channels, height, width)``."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(self.data, "FeatureMap", 3))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class CostVolume:
    """Matching costs of shape ``(u, v, height, width)`` with odd ``u, v``."""

    data: np.ndarray

    def __post_init__(self):
        d = _frozen(self.data, "CostVolume", 4)
        u, v = d.shape[:2]
        if u % 2 == 0 or v % 2 == 0:
            raise ValueError(f"CostVolume: window extents must be odd, got {(u, v)}")
        object.__setattr__(self, "data", d)


@dataclass(frozen=True)
class FlowField:
    """Displacement field of shape ``(2, height, width)``: (horizontal, vertical)."""

    data: np.ndarray

    def __post_init__(self):
        d = _frozen(self.data, "FlowField", 3)
        if d.shape[0] != 2:
            raise ValueError(f"FlowField: expected shape (2, h, w), got {d.shape}")
        object.__setattr__(self, "data", d)


def _adopt(cls, data: np.ndarray):
    """``cls(data)`` that keeps ``data`` itself, made read-only, instead of a copy.

    The checks are the constructor's.  Only for an array that lcv made in
    the calling function and nobody else references: the public
    constructors copy, so an array a caller holds is never shared.
    """
    return cls(_Adopted(data))


def _check_pair(f1: FeatureMap, f2: FeatureMap, u: int, v: int) -> None:
    if f1.data.shape != f2.data.shape:
        raise ValueError(
            f"cost volume: feature shapes disagree, {f1.data.shape} vs {f2.data.shape}"
        )
    if u < 1 or v < 1 or u % 2 == 0 or v % 2 == 0:
        raise ValueError(f"cost volume: window extents must be odd and positive, got {(u, v)}")


# Pixels per row tile of the correlation GEMMs.  Of 4, 8, 16 and 32, 8 was
# fastest at c=64, 64x64, 9x9 and tied at c=16, 32x32, 5x5.
_TILE = 8
# Bytes of one chunk's GEMM blocks, which set the image rows per batched
# GEMM.  The budget holds 8 rows at c=64, 64x64, 9x9, where a whole frame's
# blocks would take 4.7 MB, and a whole c=16, 32x32, 5x5 frame (15,360 bytes
# a row), whose per-chunk numpy calls would cost more than its GEMMs.
_CHUNK_BYTES = 589_824
_FLOAT_BYTES = np.dtype(float).itemsize


class _Workspace:
    """Buffers that engine calls write into and keep, one per role.

    A role holds one flat array, grown to the largest size yet asked of
    it, and hands out its front in the asked shape.  So repeated calls
    allocate nothing large, and problems of different sizes can share one
    workspace.  What a buffer holds lasts only until its role's next use.
    ``seeds`` start roles with given 1-D arrays, which serve until a role
    is asked for more than its array holds.
    """

    def __init__(self, **seeds: np.ndarray):
        self._flat = {(role, flat.dtype): flat for role, flat in seeds.items()}

    def __call__(self, role: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        key, n = (role, np.dtype(dtype)), math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < n:
            flat = self._flat[key] = np.empty(n, dtype)
        return flat[:n].reshape(shape)


class _Frames:
    """A pair of frames cut for the tiled GEMMs, with the workspace they write.

    ``f1t`` ``(h, wt, c)`` is the first frame channel-last, ``wt`` being ``w``
    rounded up to whole tiles of ``_TILE`` pixels (at least one); its
    columns past ``w`` are zero.  ``strips`` ``(nt, h + u - 1, _TILE + v - 1, c)``
    holds the second frame, zero-padded by ``(u - 1) / 2`` rows and
    ``(v - 1) / 2`` columns on each side, as one overlapping column strip
    per row tile: ``strips[t, i + k, x + l]`` is the target of pixel
    ``(i, t * _TILE + x)`` under window cell ``(k, l)``.  ``targets`` is a
    read-only view ``(nt, h, u * (_TILE + v - 1), c)`` of the strips whose
    ``[t, i]`` holds strip ``t``'s rows ``i`` to ``i + u - 1`` end to end:
    every target of row tile ``(i, t)``, under cell ``(k, l)`` for pixel
    ``x`` at ``k * (_TILE + v - 1) + x + l``.  ``rows`` is the image rows
    per chunk, as many as ``_CHUNK_BYTES`` holds of the GEMM blocks (at
    least one).  A one-column frame is one chunk: numpy sums a one-pixel
    chunk's softmax in another order.  ``workspace`` is a fresh one when None.

    ``f1t`` and the strips are cut from one ``np.empty`` block, and so are
    a fresh workspace's ``frame``, ``blocks``, ``costs`` and ``hits``, at
    the sizes a pass over these frames asks for.  glibc trims free heap
    beyond twice the largest mmapped block freed so far, so with this one
    block a call's heap stays resident for the next call.
    """

    def __init__(self, f1: np.ndarray, f2: np.ndarray, u: int, v: int,
                 workspace: _Workspace | None = None):
        c, h, w = f1.shape
        nt = max(1, -(-w // _TILE))
        wt, sw = nt * _TILE, _TILE + v - 1
        self.rows = max(1, h if w == 1 else _CHUNK_BYTES // (_FLOAT_BYTES * nt * _TILE * u * sw))
        parts = {"f1t": ((h, wt, c), float), "strips": ((nt, h + u - 1, sw, c), float)}
        if workspace is None:
            chunk = min(self.rows, h)
            parts.update(frame=((h * wt * c,), float),
                         blocks=((nt * chunk * _TILE * u * sw,), float),
                         costs=((u * v * chunk * wt,), float),
                         hits=((u * v * chunk * w,), _code_dtype(u * v)))
        parts = _carve(parts)
        # f1t and the strips start empty, and only their padding is zeroed.
        self.f1t, self.strips = parts.pop("f1t"), parts.pop("strips")
        self.f1t[:, :w] = f1.transpose(1, 2, 0)
        self.f1t[:, w:] = 0.0
        ru, rv = (u - 1) // 2, (v - 1) // 2
        self.strips[:, :ru] = 0.0
        self.strips[:, ru + h :] = 0.0
        for t in range(nt):
            lo = t * _TILE - rv  # frame column at strip column 0
            j0, j1 = max(0, -lo), min(sw, w - lo)
            rows = self.strips[t, ru : ru + h]
            rows[:, :j0] = 0.0
            rows[:, j0:j1] = f2[:, :, lo + j0 : lo + j1].transpose(1, 2, 0)
            rows[:, j1:] = 0.0
        self.targets = np.ndarray((nt, h, u * sw, c), self.strips.dtype, self.strips,
                                  strides=self.strips.strides)
        self.targets.flags.writeable = False
        self.u, self.v, self.h, self.w = u, v, h, w
        self.workspace = _Workspace(**parts) if workspace is None else workspace


def _carve(parts: dict[str, tuple[tuple[int, ...], type]]) -> dict[str, np.ndarray]:
    """C-contiguous arrays of the given shapes and dtypes, back to back in
    one float ``np.empty`` block, each starting on a whole float."""
    floats = {name: -(-math.prod(shape) * np.dtype(dtype).itemsize // _FLOAT_BYTES)
              for name, (shape, dtype) in parts.items()}
    block, at, out = np.empty(sum(floats.values())), 0, {}
    for name, (shape, dtype) in parts.items():
        out[name] = block[at : at + floats[name]].view(dtype)[: math.prod(shape)].reshape(shape)
        at += floats[name]
    return out


def _bands(blocks: np.ndarray, u: int, v: int) -> np.ndarray:
    """View ``(u, v, rows, nt, _TILE)`` of ``blocks`` ``(nt, rows, _TILE, u * (_TILE + v - 1))``
    whose entry ``[k, l, i, t, x]`` is ``blocks[t, i, x, k * (_TILE + v - 1) + x + l]``:
    pixel ``x`` of row tile ``(i, t)`` under window cell ``(k, l)``."""
    st, si, sx, sj = blocks.strides
    return np.ndarray((u, v, blocks.shape[1], blocks.shape[0], _TILE), blocks.dtype, blocks,
                      strides=((_TILE + v - 1) * sj, sj, si, st, sx + sj))


def _window_costs(frames: _Frames, W: np.ndarray | None):
    """Costs of ``frames`` under ``W``, ``frames.rows`` image rows at a time.

    Yields ``(i0, i1, costs)``, ``costs`` ``(u * v, i1 - i0, wt)`` being the
    costs of rows ``i0:i1`` in one workspace buffer that every chunk
    overwrites.  The costs are tile-padded: the columns past ``w`` hold the
    zero costs of ``f1t``'s padding.  ``W`` goes onto the first frame
    (``f1^T W``, one GEMM over the whole frame), which leaves the strips the
    same for every kernel.  Per chunk, one batched product of every row
    tile with its targets gives an ``(_TILE, u * (_TILE + v - 1))`` block per
    tile whose bands are the costs of all window cells.
    """
    h, wt, c = frames.f1t.shape
    u, v, ws = frames.u, frames.v, frames.workspace
    f1t = frames.f1t
    if W is not None:
        f1t = np.matmul(f1t.reshape(h * wt, c), W, out=ws("frame", (h * wt, c))).reshape(h, wt, c)
    nt = wt // _TILE
    tiles = f1t.reshape(h, nt, _TILE, c).swapaxes(0, 1)
    targets = frames.targets.swapaxes(-1, -2)
    for i0 in range(0, h, frames.rows):
        i1 = min(i0 + frames.rows, h)
        blocks = np.matmul(tiles[:, i0:i1], targets[:, i0:i1],
                           out=ws("blocks", (nt, i1 - i0, _TILE, targets.shape[-1])))
        costs = ws("costs", (u * v, i1 - i0, wt))
        costs.reshape(u, v, i1 - i0, nt, _TILE)[...] = _bands(blocks, u, v)
        yield i0, i1, costs


def _window_targets(frames: _Frames, i0: int, dC: np.ndarray) -> np.ndarray:
    """``B`` ``(h, wt, c)``, its rows ``i0:i0 + rows`` filled from their costs'
    gradient ``dC`` ``(u, v, rows, wt)`` (or ``(u * v, rows, wt)``, tile-padded):
    per pixel, the ``dC``-weighted sum of its targets over every window cell,
    the adjoint of :func:`_window_costs` in the second frame, by one batched
    product of the targets with zeroed blocks whose bands ``dC`` fills.
    ``B`` overwrites rows of ``f1^T W`` that the forward has already used.
    """
    rows, wt = dC.shape[-2:]
    nt, _, sw, c = frames.strips.shape
    u, v, h = frames.u, frames.v, frames.h
    B = frames.workspace("frame", (h, wt, c))
    blocks = frames.workspace("blocks", (nt, rows, _TILE, u * sw))
    blocks.fill(0.0)
    _bands(blocks, u, v)[...] = dC.reshape(u, v, rows, nt, _TILE)
    np.matmul(blocks, frames.targets[:, i0 : i0 + rows],
              out=B.reshape(h, nt, _TILE, c).swapaxes(0, 1)[:, i0 : i0 + rows])
    return B


def _correlate(f1: FeatureMap, f2: FeatureMap, W: np.ndarray | None, u: int, v: int) -> CostVolume:
    """Cost volume of ``f1`` against ``W f2`` (``f2`` itself when ``W`` is None).

    The reduction order is fixed, so repeated runs are bitwise identical.
    """
    _check_pair(f1, f2, u, v)
    frames = _Frames(f1.data, f2.data, u, v)
    out = np.empty((u * v, frames.h, frames.w))
    for i0, i1, costs in _window_costs(frames, W):
        out[:, i0:i1] = costs[..., : frames.w]
    return _adopt(CostVolume, out.reshape(u, v, frames.h, frames.w))


def cost_volume_bilinear(f1: FeatureMap, f2: FeatureMap, W: np.ndarray, u: int, v: int) -> CostVolume:
    """Cost volume under an arbitrary channel bilinear form ``f1^T W f2``.

    This is the generic workhorse: it is linear in ``W``, and both the
    vanilla and the SPD-kernel volumes are special cases.
    """
    W = np.asarray(W, dtype=float)
    c = f1.channels
    if W.shape != (c, c):
        raise ValueError(f"cost_volume_bilinear: W shape {W.shape}, expected {(c, c)}")
    return _correlate(f1, f2, W, u, v)


def vanilla_cost_volume(f1: FeatureMap, f2: FeatureMap, u: int, v: int) -> CostVolume:
    """Plain inner-product cost volume over a ``u x v`` displacement window."""
    return _correlate(f1, f2, None, u, v)


def learnable_cost_volume(f1: FeatureMap, f2: FeatureMap, kernel: SPDKernel, u: int, v: int) -> CostVolume:
    """Cost volume under the elliptical product defined by an SPD kernel."""
    return cost_volume_bilinear(f1, f2, kernel.W, u, v)


def wssd(f1: np.ndarray, f2: np.ndarray, kernel: SPDKernel) -> float:
    """Kernel-weighted sum of squared differences ``(f2 - f1)^T W (f2 - f1)``.

    Expands as ``f2^T W f2 + f1^T W f1 - 2 f1^T W f2``, so cost volumes
    built from the cross term carry the same information up to per-frame
    energies.  Nonnegative for every SPD ``W``.
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != (kernel.dim,) or f2.shape != (kernel.dim,):
        raise ValueError(
            f"wssd: expected vectors of length {kernel.dim}, got {f1.shape} and {f2.shape}"
        )
    d = f2 - f1
    return float(d @ kernel.W @ d)


def _cells_by_magnitude(u: int, v: int) -> np.ndarray:
    """Window cells in row-major index, sorted stably by displacement magnitude."""
    dk = np.arange(u) - (u - 1) // 2
    dl = np.arange(v) - (v - 1) // 2
    return np.argsort((dk[:, None] ** 2 + dl[None, :] ** 2).reshape(-1), kind="stable")


def _code_dtype(n: int) -> np.dtype:
    """The dtype of :func:`_winners`' cell codes for ``n`` cells."""
    return np.min_scalar_type(n)


def _winners(costs: np.ndarray, best: np.ndarray, order: np.ndarray,
             workspace: _Workspace) -> np.ndarray:
    """Per pixel, the first cell in ``order`` whose cost reaches the pixel's ``best``.

    ``costs`` is ``(u * v, rows, w)`` in row-major window order and ``best``
    its maximum over the cells; cells come back as row-major indices.
    Each cell gets a code, ``n`` for the first in ``order`` down to 1 for
    the last, so the winner has the largest code among the cells that
    reach ``best``: one maximum over the cells, with no axis moved.  The
    codes per cost go into ``workspace``.
    """
    n = len(order)
    code = np.empty(n, dtype=_code_dtype(n))
    code[order] = np.arange(n, 0, -1)
    hits = np.equal(costs, best, out=workspace("hits", costs.shape, code.dtype))
    np.multiply(hits, code[:, None, None], out=hits)
    return order[n - hits.max(axis=0)]


def _cell_offsets(cells: np.ndarray, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer (horizontal, vertical) displacements of the row-major window
    cells ``cells`` ``(h, w)``."""
    return cells % v - (v - 1) // 2, cells // v - (u - 1) // 2


def _label_cells(gt: FlowField, u: int, v: int) -> np.ndarray:
    """Row-major window cells ``(h, w)`` of the rounded flow ``gt``; inverts :func:`_cell_offsets`."""
    ru, rv = (u - 1) // 2, (v - 1) // 2
    dx = np.rint(gt.data[0]).astype(int)
    dy = np.rint(gt.data[1]).astype(int)
    if np.any(np.abs(dx) > rv) or np.any(np.abs(dy) > ru):
        raise ValueError(f"ground-truth flow falls outside the {u}x{v} window")
    return (dy + ru) * v + (dx + rv)


def _cell_flow(cells: np.ndarray, u: int, v: int) -> FlowField:
    """Flow of the row-major window cells ``cells`` ``(h, w)``."""
    flow_h, flow_v = _cell_offsets(cells, u, v)
    return _adopt(FlowField, np.stack([flow_h.astype(float), flow_v.astype(float)]))


def decode_flow_argmax(cv: CostVolume) -> FlowField:
    """Winner-take-all flow: per pixel, the displacement of the largest cost.

    Exact ties are broken toward the smallest displacement magnitude and
    then by row-major window order, so decoding is deterministic.
    """
    u, v, h, w = cv.data.shape
    flat = cv.data.reshape(u * v, h, w)
    cells = _winners(flat, flat.max(axis=0), _cells_by_magnitude(u, v), _Workspace())
    return _cell_flow(cells, u, v)


def epe(pred: FlowField, gt: FlowField) -> float:
    """Average endpoint error: mean Euclidean distance between flows."""
    if pred.data.shape != gt.data.shape:
        raise ValueError(
            f"epe: flow shapes disagree, {pred.data.shape} vs {gt.data.shape}"
        )
    return float(np.mean(_endpoint_errors(pred.data[0], pred.data[1], gt.data)))


def _endpoint_errors(flow_h: np.ndarray, flow_v: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean distance ``(h, w)`` of the flow planes ``flow_h``,
    ``flow_v`` ``(h, w)`` from the flow ``gt`` ``(2, h, w)``: the one endpoint
    error of :func:`epe`, :func:`fl_all` and the training AEPE."""
    dh = flow_h - gt[0]
    dv = flow_v - gt[1]
    return np.sqrt(dh ** 2 + dv ** 2)


def fl_all(pred: FlowField, gt: FlowField) -> float:
    """Percentage of outlier pixels: error > 3 px and > 5% of the true magnitude."""
    if pred.data.shape != gt.data.shape:
        raise ValueError(
            f"fl_all: flow shapes disagree, {pred.data.shape} vs {gt.data.shape}"
        )
    err = _endpoint_errors(pred.data[0], pred.data[1], gt.data)
    mag = np.sqrt(gt.data[0] ** 2 + gt.data[1] ** 2)
    outlier = (err > 3.0) & (err > 0.05 * mag)
    return float(100.0 * np.mean(outlier))


def _softmax_xent(Z: np.ndarray, best: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Per-pixel log-likelihoods of ``labels`` ``(rows, w)`` (from
    :func:`_label_cells`) under the logits ``Z`` ``(cells, rows, w)``.

    ``best`` is the per-pixel maximum of ``Z``.  Works in place: on return
    ``Z`` holds the gradient of a mean cross-entropy over ``n`` pixels.
    """
    rows, w = labels.shape
    picks = labels, np.arange(rows)[:, None], np.arange(w)
    Z -= best
    logp = Z[picks]
    np.exp(Z, out=Z)
    denom = Z.sum(axis=0)
    logp -= np.log(denom)
    Z /= denom
    Z[picks] -= 1.0
    Z /= n
    return logp


def matching_loss(cv, gt: FlowField) -> tuple[float, np.ndarray]:
    """Per-pixel softmax cross-entropy over the displacement window.

    The ``u * v`` costs at each pixel act as logits and the ground-truth
    displacement cell as the label.  Returns the mean loss and its
    gradient with respect to every cost entry.
    """
    u, v, h, w = cv.data.shape
    labels = _label_cells(gt, u, v)
    Z = cv.data.reshape(u * v, h, w).copy()
    return float(-_softmax_xent(Z, Z.max(axis=0), labels, h * w).mean()), Z.reshape(u, v, h, w)


def _grad_w_from_costs(f1: np.ndarray, frames: _Frames, dC: np.ndarray) -> np.ndarray:
    """``dL/dW[a, b] = sum_klij dC[k,l,i,j] f1[a,i,j] f2[b, i+k-ru, j+l-rv]``,
    with ``f2`` zero-padded in ``frames``' strips, from ``dC`` ``(u, v, rows, wt)``
    of the last row chunk on: its sum over cells goes into ``B``'s last rows
    (the earlier chunks' are there already), then one GEMM with ``f1``
    ``(c, h, w)``.  So a one-chunk frame's backward is this one call.
    """
    c, h, w = f1.shape
    B = _window_targets(frames, h - dC.shape[2], dC)[:, :w]
    return f1.reshape(c, h * w) @ B.reshape(h * w, c)


class _MatchingProblem:
    """One pair ``(f1, f2, gt)`` under a ``u x v`` window, scored for many kernels.

    What does not depend on ``W`` is prepared once: the window cells in
    decoding order, the :class:`_Frames` (the kernel goes onto the first
    frame, so the second frame's strips serve every forward and backward)
    and, at the first gradient, the labels.  The buffers the engine writes
    stay in ``workspace``, which problems may share.  Both methods take the
    costs a row chunk at a time, and ``loss_grad`` chains each one back.
    """

    def __init__(self, f1: FeatureMap, f2: FeatureMap, gt: FlowField, window: tuple[int, int],
                 workspace: _Workspace | None = None):
        u, v = window
        _check_pair(f1, f2, u, v)
        if f1.height * f1.width == 0:
            raise ValueError(f"matching: frames of shape {f1.data.shape} have no pixels")
        self.f1, self.gt = f1.data, gt
        self.u, self.v = u, v
        self.order = _cells_by_magnitude(u, v)
        self._frames = _Frames(f1.data, f2.data, u, v, workspace)
        self._labels = None

    def _decoded(self, W: np.ndarray | None, cells: np.ndarray, best: np.ndarray):
        """The chunks of :func:`_window_costs` under ``W`` (None is ``W = I``
        without its product), each decoded into its rows of ``cells`` and,
        its per-pixel maximum, of ``best``, both ``(h, w)``."""
        c, _, w = self.f1.shape
        if W is not None and W.shape != (c, c):
            raise ValueError(f"matching: W shape {W.shape}, expected {(c, c)}")
        for i0, i1, costs in _window_costs(self._frames, W):
            chunk = costs[..., :w]
            np.max(chunk, axis=0, out=best[i0:i1])
            if not (np.isfinite(chunk.min()) and np.isfinite(best[i0:i1].max())):
                raise NumericalError("matching: the costs under this kernel are not finite")
            cells[i0:i1] = _winners(chunk, best[i0:i1], self.order, self._frames.workspace)
            yield i0, i1, costs

    def decode(self, W: np.ndarray | None) -> FlowField:
        """Winner-take-all flow under ``W`` (None for ``W = I``), as
        :func:`decode_flow_argmax`."""
        cells, best = np.empty(self.f1.shape[1:], np.intp), np.empty(self.f1.shape[1:])
        for _ in self._decoded(W, cells, best):
            pass
        return _cell_flow(cells, self.u, self.v)

    def loss_grad(self, W: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Mean matching loss, its gradient on ``W`` and the AEPE of the decode."""
        u, v = self.u, self.v
        _, h, w = self.f1.shape
        if self._labels is None:
            self._labels = _label_cells(self.gt, u, v)
        cells, best, logp = np.empty((h, w), np.intp), np.empty((h, w)), np.empty((h, w))
        for i0, i1, costs in self._decoded(W, cells, best):
            logp[i0:i1] = _softmax_xent(costs[..., :w], best[i0:i1], self._labels[i0:i1], h * w)
            if i1 < h:
                _window_targets(self._frames, i0, costs)
        dW = _grad_w_from_costs(self.f1, self._frames, costs.reshape(u, v, i1 - i0, -1))
        errors = _endpoint_errors(*_cell_offsets(cells, u, v), self.gt.data)
        return float(-logp.mean()), dW, float(np.mean(errors))


def write_tensor(path, array: np.ndarray) -> None:
    """Serialize a dense array to the LCVT tensor format.

    Layout: magic ``LCVT``, version byte, rank byte, each dimension as
    uint32 little endian, then the payload as float64 little endian in
    row-major order.
    """
    # The payload is written from the array's own buffer, so a contiguous
    # little-endian float64 input is not copied.
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBB", _TENSOR_MAGIC, _TENSOR_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr)


def read_tensor(path) -> np.ndarray:
    """Read an LCVT tensor back into a float64 array."""

    def shape_of(fh, rank):
        dim_bytes = fh.read(4 * rank)
        if len(dim_bytes) != 4 * rank:
            raise ValueError(f"read_tensor: truncated dimensions in {path!r}")
        shape = struct.unpack(f"<{rank}I", dim_bytes)
        return shape, f"shape {shape}"

    return _read_payload(path, "read_tensor", "<4sBB", _TENSOR_MAGIC, _TENSOR_VERSION, shape_of)[1]
