"""Cost volumes, elliptical feature matching, and flow metrics.

A cost volume stacks, for every pixel of a reference feature map, the
channel inner products against a window of displaced candidates in a
second map.  ``vanilla_cost_volume`` uses the plain inner product;
``learnable_cost_volume`` replaces it with the elliptical product
``f1^T W f2`` for an SPD kernel ``W``.  Window cells that fall outside the
second map contribute zero, matching zero padding.

Conventions, fixed once here and relied on everywhere else:

* window index ``k`` is the row (vertical) displacement, ``l`` the column
  (horizontal) displacement, each centred so cell ``((u-1)/2, (v-1)/2)``
  is zero displacement;
* a flow field stores plane 0 = horizontal and plane 1 = vertical
  displacement, in pixels.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .kernel import SPDKernel

_TENSOR_MAGIC = b"LCVT"
_TENSOR_VERSION = 1


@dataclass(frozen=True)
class FeatureMap:
    """Dense feature tensor of shape ``(channels, height, width)``."""

    data: np.ndarray

    def __post_init__(self):
        d = np.array(self.data, dtype=float)
        if d.ndim != 3:
            raise ValueError(f"FeatureMap: expected 3-D data, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("FeatureMap: values must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

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
        d = np.array(self.data, dtype=float)
        if d.ndim != 4:
            raise ValueError(f"CostVolume: expected 4-D data, got shape {d.shape}")
        u, v = d.shape[:2]
        if u % 2 == 0 or v % 2 == 0:
            raise ValueError(f"CostVolume: window extents must be odd, got {(u, v)}")
        if not np.all(np.isfinite(d)):
            raise ValueError("CostVolume: values must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def window(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]


@dataclass(frozen=True)
class FlowField:
    """Displacement field of shape ``(2, height, width)``: (horizontal, vertical)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.array(self.data, dtype=float)
        if d.ndim != 3 or d.shape[0] != 2:
            raise ValueError(f"FlowField: expected shape (2, h, w), got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("FlowField: values must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)


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


def _channel_last(f1: np.ndarray, f2: np.ndarray, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """``f1`` as ``(h, wt, c)`` and ``f2`` zero-padded as ``(h + u - 1, wt + v - 1, c)``.

    ``wt`` is ``w`` rounded up to whole tiles of ``_TILE`` pixels, at least
    one tile; the columns of ``f1`` past ``w`` are zero.  Padded pixel ``(i + k, j + l)``
    of the second frame is the target of pixel ``(i, j)`` under window
    cell ``(k, l)``.
    """
    c, h, w = f1.shape
    wt = max(1, -(-w // _TILE)) * _TILE
    ru, rv = (u - 1) // 2, (v - 1) // 2
    a = np.zeros((h, wt, c))
    a[:, :w] = f1.transpose(1, 2, 0)
    b = np.zeros((h + u - 1, wt + v - 1, c))
    b[ru : ru + h, rv : rv + w] = f2.transpose(1, 2, 0)
    return a, b


def _windows(f2p: np.ndarray, u: int, v: int) -> np.ndarray:
    """Read-only view ``(u, h, nt, _TILE + v - 1, c)`` of a padded second frame:
    entry ``[k, i, t, j]`` is padded pixel ``(i + k, t * _TILE + j)``, so
    ``[k, i, t]`` holds every target of row tile ``(i, t)`` at row offset ``k``."""
    rows, cols, c = f2p.shape
    sr, sc, sb = f2p.strides
    shape = (u, rows - u + 1, (cols - v + 1) // _TILE, _TILE + v - 1, c)
    return np.lib.stride_tricks.as_strided(
        f2p, shape, (sr, sr, _TILE * sc, sc, sb), writeable=False)


def _band(a: np.ndarray, v: int) -> np.ndarray:
    """View ``(v, ..., _TILE)`` of ``a`` ``(..., _TILE, _TILE + v - 1)`` whose entry
    ``[l, ..., x]`` is ``a[..., x, x + l]``: pixel ``x`` of a tile at column offset ``l``."""
    *lead, step_x, step_j = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (v, *a.shape[:-1]), (step_j, *lead, step_x + step_j))


def _tiles(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of the last (pixel) axis of ``a``: its whole tiles ``(..., n, _TILE)``
    and the ``w - n * _TILE`` pixels after them."""
    n = a.shape[-1] // _TILE
    # Splitting the last axis, which is contiguous, never copies.
    return a[..., : n * _TILE].reshape(*a.shape[:-1], n, _TILE), a[..., n * _TILE :]


def _tiled_pixels(t: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of ``t`` ``(..., nt, _TILE)`` that hold what :func:`_tiles`
    splits a ``w``-pixel axis into; the padding past ``w`` is left out."""
    return t[..., : w // _TILE, :], t[..., -1, : w % _TILE]


def _window_costs(f1t: np.ndarray, f2p: np.ndarray, W: np.ndarray | None,
                  u: int, v: int, w: int) -> np.ndarray:
    """Costs ``(u * v, h, w)`` of :func:`_channel_last` frames under ``W``.

    ``W`` goes onto the first frame (``f1^T W``, one GEMM), which leaves
    the padded second frame the same for every kernel.  Per row offset,
    one batched product of every row tile with its window gives an
    ``(_TILE, _TILE + v - 1)`` block per tile whose bands are the costs.
    One block buffer serves every offset: a buffer for all of them at
    once (4.7 MB at c=64, 64x64, 9x9) page-faults afresh on every call.
    """
    h, wt, c = f1t.shape
    if W is not None:
        f1t = (f1t.reshape(h * wt, c) @ W).reshape(f1t.shape)
    tiles = f1t.reshape(h, wt // _TILE, _TILE, c)
    windows = _windows(f2p, u, v).swapaxes(-1, -2)
    blocks = np.empty((h, wt // _TILE, _TILE, _TILE + v - 1))
    band = _tiled_pixels(_band(blocks, v), w)
    out = np.empty((u, v, h, w))
    for k in range(u):
        whole, rest = _tiles(out[k])
        np.matmul(tiles, windows[k], out=blocks)
        whole[...], rest[...] = band
    return out.reshape(u * v, h, w)


def _window_targets(f2p: np.ndarray, dC: np.ndarray) -> np.ndarray:
    """``B`` ``(h * w, c)``: per pixel, the ``dC``-weighted sum of its targets
    in a :func:`_channel_last` padded second frame, over every window cell.

    This is the adjoint of :func:`_window_costs` in the second frame.  For
    each row offset ``k``, ``dC[k]`` ``(v, h, w)`` fills the bands of one
    ``(_TILE, _TILE + v - 1)`` block per row tile, and one batched product
    with that offset's windows adds its cells.
    """
    u, v, h, w = dC.shape
    windows = _windows(f2p, u, v)
    nt, c = windows.shape[2], windows.shape[4]
    blocks = np.zeros((h, nt, _TILE, _TILE + v - 1))
    whole, rest = _tiled_pixels(_band(blocks, v), w)
    B = np.zeros((h, nt, _TILE, c))
    step = np.empty_like(B)
    for k in range(u):
        whole[...], rest[...] = _tiles(dC[k])
        B += np.matmul(blocks, windows[k], out=step)
    return B.reshape(h, nt * _TILE, c)[:, :w].reshape(h * w, c)


def _correlate(f1: np.ndarray, f2: np.ndarray, W: np.ndarray | None, u: int, v: int) -> np.ndarray:
    """Costs ``(u * v, h, w)`` of ``f1`` against ``W f2`` (``f2`` itself when
    ``W`` is None), one plane per window cell in row-major order.

    The reduction order is fixed, so repeated runs are bitwise identical.
    """
    return _window_costs(*_channel_last(f1, f2, u, v), W, u, v, f1.shape[2])


def cost_volume_bilinear(f1: FeatureMap, f2: FeatureMap, W: np.ndarray, u: int, v: int) -> CostVolume:
    """Cost volume under an arbitrary channel bilinear form ``f1^T W f2``.

    This is the generic workhorse: it is linear in ``W``, and both the
    vanilla and the SPD-kernel volumes are special cases.
    """
    _check_pair(f1, f2, u, v)
    W = np.asarray(W, dtype=float)
    c = f1.channels
    if W.shape != (c, c):
        raise ValueError(f"cost_volume_bilinear: W shape {W.shape}, expected {(c, c)}")
    return CostVolume(_correlate(f1.data, f2.data, W, u, v).reshape(u, v, f1.height, f1.width))


def vanilla_cost_volume(f1: FeatureMap, f2: FeatureMap, u: int, v: int) -> CostVolume:
    """Plain inner-product cost volume over a ``u x v`` displacement window."""
    _check_pair(f1, f2, u, v)
    return CostVolume(_correlate(f1.data, f2.data, None, u, v).reshape(u, v, f1.height, f1.width))


def learnable_cost_volume(f1: FeatureMap, f2: FeatureMap, kernel: SPDKernel, u: int, v: int) -> CostVolume:
    """Cost volume under the elliptical product defined by an SPD kernel."""
    if f1.channels != kernel.dim:
        raise ValueError(
            f"learnable_cost_volume: {f1.channels} channels vs kernel dim {kernel.dim}"
        )
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


def _winners(costs: np.ndarray, best: np.ndarray, order: np.ndarray, v: int) -> FlowField:
    """Flow of the first cell in ``order`` whose cost reaches the pixel's ``best``.

    ``costs`` is ``(u * v, h, w)`` in row-major window order and ``best``
    its maximum over the cells.
    """
    u = costs.shape[0] // v
    idx = order[(costs == best)[order].argmax(axis=0)]
    flow_v = idx // v - (u - 1) // 2
    flow_h = idx % v - (v - 1) // 2
    return FlowField(np.stack([flow_h.astype(float), flow_v.astype(float)]))


def decode_flow_argmax(cv: CostVolume) -> FlowField:
    """Winner-take-all flow: per pixel, the displacement of the largest cost.

    Exact ties are broken toward the smallest displacement magnitude and
    then by row-major window order, so decoding is deterministic.
    """
    u, v, h, w = cv.data.shape
    flat = cv.data.reshape(u * v, h, w)
    return _winners(flat, flat.max(axis=0), _cells_by_magnitude(u, v), v)


def epe(pred: FlowField, gt: FlowField) -> float:
    """Average endpoint error: mean Euclidean distance between flows."""
    if pred.data.shape != gt.data.shape:
        raise ValueError(
            f"epe: flow shapes disagree, {pred.data.shape} vs {gt.data.shape}"
        )
    diff = pred.data - gt.data
    return float(np.mean(np.sqrt(diff[0] ** 2 + diff[1] ** 2)))


def fl_all(pred: FlowField, gt: FlowField) -> float:
    """Percentage of outlier pixels: error > 3 px and > 5% of the true magnitude."""
    if pred.data.shape != gt.data.shape:
        raise ValueError(
            f"fl_all: flow shapes disagree, {pred.data.shape} vs {gt.data.shape}"
        )
    diff = pred.data - gt.data
    err = np.sqrt(diff[0] ** 2 + diff[1] ** 2)
    mag = np.sqrt(gt.data[0] ** 2 + gt.data[1] ** 2)
    outlier = (err > 3.0) & (err > 0.05 * mag)
    return float(100.0 * np.mean(outlier))


def write_tensor(path, array: np.ndarray) -> None:
    """Serialize a dense array to the LCVT tensor format.

    Layout: magic ``LCVT``, version byte, rank byte, each dimension as
    uint32 little endian, then the payload as float64 little endian in
    row-major order.
    """
    # The payload is written from the array's own buffer, so a contiguous
    # little-endian float64 input is not copied.
    arr = np.ascontiguousarray(array, dtype="<f8")
    if arr.ndim > 255:
        raise ValueError("write_tensor: rank exceeds the format's single byte")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBB", _TENSOR_MAGIC, _TENSOR_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr)


def read_tensor(path) -> np.ndarray:
    """Read an LCVT tensor back into a float64 array."""
    with open(path, "rb") as fh:
        header = fh.read(6)
        if len(header) != 6:
            raise ValueError(f"read_tensor: truncated header in {path!r}")
        magic, version, rank = struct.unpack("<4sBB", header)
        if magic != _TENSOR_MAGIC:
            raise ValueError(f"read_tensor: bad magic {magic!r} in {path!r}")
        if version != _TENSOR_VERSION:
            raise ValueError(f"read_tensor: unsupported version {version}")
        dim_bytes = fh.read(4 * rank)
        if len(dim_bytes) != 4 * rank:
            raise ValueError(f"read_tensor: truncated dimensions in {path!r}")
        shape = struct.unpack(f"<{rank}I", dim_bytes)
        # Sized with exact integers before reading: a forged header must not
        # wrap the element count or ask for more memory than the file holds.
        nbytes = 8 * math.prod(shape)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes > left:
            raise ValueError(
                f"read_tensor: truncated payload in {path!r}: shape {shape} "
                f"needs {nbytes} bytes, {left} left"
            )
        if nbytes < left:
            raise ValueError(f"read_tensor: trailing bytes in {path!r}")
        payload = fh.read(nbytes)
    try:
        return np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    except ValueError as err:  # more axes, or a larger empty shape, than numpy holds
        raise ValueError(f"read_tensor: {path!r} declares a shape numpy cannot hold: {err}") from err
