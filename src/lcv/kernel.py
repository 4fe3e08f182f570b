"""SPD kernels in spectral form ``W = P^T diag(lam) P``.

A kernel is built from its free parameters ``(s, t)`` alone and stores the
factors they generate, so factored operations never re-factor ``W`` and a
checkpoint of ``(s, t)`` reloads the kernel bitwise.
``assemble_kernel(zeros, zeros)`` is exactly the identity, which makes the
zero parameter vector the canonical "start from plain correlation"
initialization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .cayley import (
    DiagParams,
    NumericalError,
    OrthogonalMatrix,
    SkewParams,
    _frozen,
    _read_payload,
    _require_finite,
    cayley_forward,
    dlambda_dt,
    lambda_from_t,
    pack_skew,
    unpack_skew,
)

_CHECKPOINT_MAGIC = b"LCVK"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class SPDKernel:
    """A symmetric positive definite kernel built from its free parameters.

    Only ``(skew_params, diag_params)`` are inputs.  ``P`` (the Cayley map
    of ``skew_params``), ``lam`` (the arctan map of ``diag_params``) and
    ``W = P^T diag(lam) P`` are derived once, at construction.  Every
    ``lam[i]`` is checked finite, and positive within a spread of
    ``1 / eps``, before ``W`` is formed.  That spread alone does not keep
    the rounded ``W`` positive definite at every channel count (at c=64
    a spread near ``1 / eps`` often loses it), so ``W`` must also pass a
    Cholesky factorization, which defines "positive definite in float64".
    Nothing here calls ``eigvalsh`` on ``W``: near the spread limit it can
    give an accepted kernel an eigenvalue near ``-eps * lam.max()`` (c=64, 128).
    """

    skew_params: SkewParams
    diag_params: DiagParams
    P: OrthogonalMatrix = field(init=False)
    lam: np.ndarray = field(init=False)
    W: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.skew_params.dim != self.diag_params.dim:
            raise ValueError(f"SPDKernel: skew dim {self.skew_params.dim} != diag dim {self.diag_params.dim}")
        P = cayley_forward(unpack_skew(self.skew_params))
        lam = _frozen(lambda_from_t(self.diag_params), "SPDKernel.lam", 1)
        if lam.size and lam.min() <= np.finfo(float).eps * lam.max():
            raise ValueError(f"SPDKernel: lam [{lam.min():.3g}, {lam.max():.3g}] is not "
                             "positive within the spread float64 resolves")
        W = P.values.T @ (lam[:, None] * P.values)
        W = _frozen(0.5 * (W + W.T), "SPDKernel.W", 2)
        try:
            np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            raise ValueError(f"SPDKernel: W with lam [{lam.min():.3g}, {lam.max():.3g}] is not "
                             "positive definite in float64 (Cholesky fails)") from None
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "W", W)

    @property
    def dim(self) -> int:
        return self.P.dim


@dataclass(frozen=True)
class KernelGradient:
    """Loss gradient with respect to the free kernel parameters."""

    d_skew: np.ndarray
    d_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_skew", _frozen(self.d_skew, "KernelGradient.d_skew", 1))
        object.__setattr__(self, "d_diag", _frozen(self.d_diag, "KernelGradient.d_diag", 1))

    def max_norm(self) -> float:
        parts = [np.max(np.abs(self.d_skew)) if self.d_skew.size else 0.0,
                 np.max(np.abs(self.d_diag)) if self.d_diag.size else 0.0]
        return float(max(parts))


def assemble_kernel(s: SkewParams, t: DiagParams) -> SPDKernel:
    """Build the SPD kernel generated by free parameters ``(s, t)``.

    The one constructor the optimizers and checkpoints use;
    :class:`SPDKernel` derives ``P``, ``lam`` and ``W``.
    """
    return SPDKernel(s, t)


def identity_kernel(dim: int) -> SPDKernel:
    """The kernel at the zero parameter vector; its ``W`` is exactly ``I``."""
    s = SkewParams(entries=np.zeros(dim * (dim - 1) // 2), dim=dim)
    return assemble_kernel(s, DiagParams(t=np.zeros(dim)))


def whitening_pca(kernel: SPDKernel) -> np.ndarray:
    """Rectangular-free whitening factor ``Q = diag(lam)^{1/2} P``.

    Satisfies ``Q.T @ Q == W``, so ``f1.T W f2 == (Q f1).T (Q f2)``: the
    elliptical product is the plain product of ``Q``-transformed features.
    """
    return np.sqrt(kernel.lam)[:, None] * kernel.P.values


def whitening_zca(kernel: SPDKernel) -> np.ndarray:
    """Symmetric whitening factor ``R = P^T diag(lam)^{1/2} P``.

    Satisfies ``R @ R == W`` with ``R`` symmetric; it is the unique
    SPD square root of ``W``.
    """
    R = kernel.P.values.T @ (np.sqrt(kernel.lam)[:, None] * kernel.P.values)
    return 0.5 * (R + R.T)


def kernel_factor_grads(kernel: SPDKernel, dL_dW: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull a gradient on ``W`` back onto the factors ``(P, lam)``.

    With ``W = P^T diag(lam) P`` and ``G = dL/dW``:

    * ``dL/dP   = diag(lam) P (G + G^T)``
    * ``dL/dlam = diag(P G^T P^T)``

    Returns the pair ``(dL_dP, dL_dlam)``.
    """
    G = np.asarray(dL_dW, dtype=float)
    n = kernel.dim
    if G.shape != (n, n):
        raise ValueError(f"kernel_factor_grads: gradient shape {G.shape}, expected {(n, n)}")
    _require_finite(G, "kernel_factor_grads")
    Pv = kernel.P.values
    dL_dP = kernel.lam[:, None] * (Pv @ (G + G.T))
    dL_dlam = np.einsum("ij,ij->i", Pv @ G.T, Pv)
    return dL_dP, dL_dlam


def kernel_grad(kernel: SPDKernel, dL_dW: np.ndarray) -> KernelGradient:
    """Chain a gradient on ``W`` down to the free parameters.

    The orthogonal branch differentiates through the Cayley map as
    ``dP = -(I + P) dS (I + P) / 2``, from the stored ``P`` alone, then keeps
    the skew-symmetric part; the diagonal branch multiplies by ``dlam/dt``.
    """
    dL_dP, dL_dlam = kernel_factor_grads(kernel, dL_dW)
    IP = np.eye(kernel.dim) + kernel.P.values
    M = -0.5 * (IP.T @ dL_dP @ IP.T)
    d_skew = pack_skew(M - M.T).entries
    d_diag = dL_dlam * dlambda_dt(kernel.diag_params)
    return KernelGradient(d_skew=d_skew, d_diag=d_diag)


def param_count(channel_dims: list[int]) -> tuple[int, int]:
    """Count kernel entries and free parameters over a stack of levels.

    For channel dimensions ``[c1, ..., cm]`` the full kernels hold
    ``sum(c_i^2)`` entries while the free parameterization needs only
    ``sum(c_i (c_i + 1) / 2)`` numbers (skew plus diagonal).

    Returns
    -------
    (kernel_entry_count, free_param_count)
    """
    if len(channel_dims) == 0:
        raise ValueError("param_count: channel_dims must be nonempty")
    dims = [int(c) for c in channel_dims]
    if any(c < 1 for c in dims):
        raise ValueError("param_count: channel dimensions must be positive")
    entries = sum(c * c for c in dims)
    free = sum(c * (c + 1) // 2 for c in dims)
    return entries, free


def save_kernel(path, kernel: SPDKernel) -> None:
    """Serialize kernel parameters to the LCVK checkpoint format.

    Layout: magic ``LCVK``, version byte, channel count as uint32 little
    endian, then the skew entries followed by the diagonal parameters as
    float64 little endian.  Only the free parameters are stored; the
    kernel is reassembled (and revalidated) on load.
    """
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBI", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, kernel.dim))
        fh.write(np.asarray(kernel.skew_params.entries, dtype="<f8").tobytes())
        fh.write(np.asarray(kernel.diag_params.t, dtype="<f8").tobytes())


def load_kernel(path) -> SPDKernel:
    """Read an LCVK checkpoint and reassemble the kernel it describes."""
    dim, values = _read_payload(path, "load_kernel", "<4sBI", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                                lambda fh, dim: ((dim * (dim + 1) // 2,), f"dim {dim}"))
    n_skew = dim * (dim - 1) // 2
    try:
        return assemble_kernel(SkewParams(entries=values[:n_skew], dim=dim), DiagParams(t=values[n_skew:]))
    except (ValueError, NumericalError) as err:
        raise ValueError(f"load_kernel: {path!r} holds no valid kernel: {err}") from err
