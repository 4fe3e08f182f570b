"""SPD kernels in spectral form ``W = P^T diag(lam) P``.

A kernel is stored together with its factors and with the free parameters
that generated them, so gradient steps in parameter space and factored
operations (whitening, gradients through the factorization) never have to
re-factor ``W``.  ``assemble_kernel(zeros, zeros)`` is exactly the
identity, which makes the zero parameter vector the canonical "start from
plain correlation" initialization.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .cayley import (
    DiagParams,
    NumericalError,
    OrthogonalMatrix,
    SkewParams,
    _frozen,
    _require_finite,
    cayley_forward,
    dlambda_dt,
    lambda_from_t,
    unpack_skew,
)

_CHECKPOINT_MAGIC = b"LCVK"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class SPDKernel:
    """A symmetric positive definite kernel built from its spectral factors.

    Only ``P`` and the free parameters are inputs: ``lam`` is derived from
    ``diag_params`` by the arctan map and ``W = P^T diag(lam) P`` from
    ``(P, lam)``, once, at construction.  Every ``lam[i]`` is checked
    strictly positive and finite before ``W`` is formed, which, with ``P``
    orthogonal, makes ``W`` positive definite.
    """

    P: OrthogonalMatrix
    skew_params: SkewParams
    diag_params: DiagParams
    lam: np.ndarray = field(init=False)
    W: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.skew_params.dim != self.P.dim or self.diag_params.dim != self.P.dim:
            raise ValueError("SPDKernel: parameter dimensions disagree with the factors")
        lam = _frozen(lambda_from_t(self.diag_params), "SPDKernel.lam", 1)
        if np.any(lam <= 0.0):
            raise ValueError("SPDKernel: lam must be strictly positive")
        W = self.P.values.T @ (lam[:, None] * self.P.values)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "W", _frozen(0.5 * (W + W.T), "SPDKernel.W", 2))

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

    ``P`` comes from the Cayley map of the skew matrix packed in ``s``;
    :class:`SPDKernel` derives ``lam`` and ``W`` from ``P`` and ``t``.
    """
    if s.dim != t.dim:
        raise ValueError(f"assemble_kernel: skew dim {s.dim} != diag dim {t.dim}")
    return SPDKernel(P=cayley_forward(unpack_skew(s)), skew_params=s, diag_params=t)


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
    dL_dlam = np.einsum("ij,kj,ik->i", Pv, G, Pv)
    return dL_dP, dL_dlam


def kernel_grad(kernel: SPDKernel, dL_dW: np.ndarray) -> KernelGradient:
    """Chain a gradient on ``W`` down to the free parameters.

    The orthogonal branch differentiates through the Cayley map using
    ``dP = -(I + P) dS (I + S)^{-1}``, then keeps the skew-symmetric part;
    the diagonal branch multiplies by the closed-form ``dlam/dt``.
    """
    dL_dP, dL_dlam = kernel_factor_grads(kernel, dL_dW)
    n = kernel.dim
    S = unpack_skew(kernel.skew_params)
    eye = np.eye(n)
    B = (eye + kernel.P.values).T @ dL_dP
    # M = -B (I - S)^{-1}, taken via a transposed solve; (I - S) = (I + S)^T.
    M = -np.linalg.solve((eye - S).T, B.T).T
    rows, cols = np.tril_indices(n, -1)
    A = M - M.T
    d_skew = A[rows, cols]
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
    with open(path, "rb") as fh:
        header = fh.read(9)
        if len(header) != 9:
            raise ValueError(f"load_kernel: truncated header in {path!r}")
        magic, version, dim = struct.unpack("<4sBI", header)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"load_kernel: bad magic {magic!r} in {path!r}")
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"load_kernel: unsupported version {version}")
        n_skew = dim * (dim - 1) // 2
        nbytes = 8 * (n_skew + dim)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes > left:
            raise ValueError(
                f"load_kernel: truncated payload in {path!r}: dim {dim} "
                f"needs {nbytes} bytes, {left} left"
            )
        if nbytes < left:
            raise ValueError(f"load_kernel: trailing bytes in {path!r}")
        payload = fh.read(nbytes)
    values = np.frombuffer(payload, dtype="<f8")
    try:
        return assemble_kernel(SkewParams(entries=values[:n_skew].copy(), dim=dim),
                               DiagParams(t=values[n_skew:].copy()))
    except (ValueError, NumericalError) as err:
        raise ValueError(f"load_kernel: {path!r} holds no valid kernel: {err}") from err
