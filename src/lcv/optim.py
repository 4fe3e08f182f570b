"""Gradient steps for the kernel parameters.

Two interchangeable update rules maintain the SPD structure:

* ``cayley_sgd_step`` walks the free parameters ``(s, t)`` with plain SGD
  and reassembles the kernel through the Cayley maps;
* ``stiefel_sgd_step`` walks the orthogonal factor directly on its
  manifold (project the Euclidean gradient to the tangent space, retract)
  while the diagonal factor still moves through the arctan chart.

Both build the next ``SPDKernel`` from its free parameters ``(s, t)`` with
``assemble_kernel``, so every iterate is exactly factored, needs no
projection back onto the SPD cone, and reloads bitwise from a checkpoint.
``gradient_step`` picks between them by the optimizer mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cayley import (
    DiagParams,
    OrthogonalMatrix,
    SkewParams,
    _require_finite,
    _require_square,
    cayley_inverse,
    dlambda_dt,
    pack_skew,
)
from .kernel import (
    KernelGradient,
    SPDKernel,
    assemble_kernel,
    identity_kernel,
    kernel_factor_grads,
    kernel_grad,
)

_MODES = ("cayley", "stiefel")
INV_SQRT_SYM_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain SGD settings shared by both parameterizations."""

    learning_rate: float = 1e-2
    max_steps: int = 500
    mode: str = "cayley"

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("OptimizerConfig: learning_rate must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("OptimizerConfig: max_steps must be at least 1")
        if self.mode not in _MODES:
            raise ValueError(f"OptimizerConfig: mode must be one of {_MODES}, got {self.mode!r}")


def cayley_sgd_step(kernel: SPDKernel, grad: KernelGradient, lr: float) -> SPDKernel:
    """One SGD step in the free parameterization.

    Moves ``s`` and ``t`` against the gradient and reassembles; a zero
    gradient reproduces the same kernel bitwise.
    """
    if not 0 < lr < np.inf:
        raise ValueError("cayley_sgd_step: lr must be positive and finite")
    if (grad.d_skew.shape != kernel.skew_params.entries.shape
            or grad.d_diag.shape != kernel.diag_params.t.shape):
        raise ValueError("cayley_sgd_step: gradient shape disagrees with the parameters")
    s = SkewParams(entries=kernel.skew_params.entries - lr * grad.d_skew, dim=kernel.dim)
    t = DiagParams(t=kernel.diag_params.t - lr * grad.d_diag)
    return assemble_kernel(s, t)


def stiefel_project(X: OrthogonalMatrix, Z: np.ndarray) -> np.ndarray:
    """Project an ambient matrix onto the tangent space at ``X``.

    ``P_X(Z) = (I - X X^T) Z + X skew(X^T Z)`` with
    ``skew(M) = (M - M^T) / 2``; the result always satisfies
    ``X^T P_X(Z)`` skew-symmetric.
    """
    Xv = X.values
    Z = np.asarray(Z, dtype=float)
    if Z.shape != Xv.shape:
        raise ValueError(f"stiefel_project: shapes disagree, {Z.shape} vs {Xv.shape}")
    _require_finite(Z, "stiefel_project")
    XtZ = Xv.T @ Z
    return Z - Xv @ XtZ + Xv @ (0.5 * (XtZ - XtZ.T))


def stiefel_retract(X: OrthogonalMatrix, Z: np.ndarray) -> OrthogonalMatrix:
    """Retract a tangent step back onto the manifold.

    ``R_X(Z) = (X + Z)(I + Z^T Z)^{-1/2}``; the zero step returns ``X``
    itself, exactly.
    """
    Xv = X.values
    Z = np.asarray(Z, dtype=float)
    if Z.shape != Xv.shape:
        raise ValueError(f"stiefel_retract: shapes disagree, {Z.shape} vs {Xv.shape}")
    _require_finite(Z, "stiefel_retract")
    if not Z.any():
        return X
    M = np.eye(Xv.shape[0]) + Z.T @ Z
    return OrthogonalMatrix((Xv + Z) @ matrix_inv_sqrt(M))


def matrix_inv_sqrt(M: np.ndarray) -> np.ndarray:
    """Inverse square root of an SPD matrix via its eigendecomposition."""
    M = np.asarray(M, dtype=float)
    _require_square(M, "matrix_inv_sqrt")
    asym = float(np.max(np.abs(M - M.T)))
    if asym > INV_SQRT_SYM_TOL:
        raise ValueError(f"matrix_inv_sqrt: matrix is asymmetric by {asym:.3e}")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] <= 0.0:
        raise ValueError(f"matrix_inv_sqrt: matrix is not positive definite (min eig {w[0]:.3e})")
    R = (V / np.sqrt(w)) @ V.T
    return 0.5 * (R + R.T)


def stiefel_sgd_step(kernel: SPDKernel, dL_dP: np.ndarray, lr: float, d_diag: np.ndarray) -> SPDKernel:
    """One Riemannian SGD step on the orthogonal factor.

    The Euclidean gradient ``dL_dP`` is projected to the tangent space at
    the current ``P`` and retracted; the diagonal parameters move through
    the arctan chart.  The next kernel is assembled from the Cayley
    preimage of the retracted ``P``, so a checkpoint reloads it bitwise.
    """
    return _stiefel_move(kernel, stiefel_project(kernel.P, np.asarray(dL_dP, dtype=float)), lr, d_diag)


def _stiefel_move(kernel: SPDKernel, Z: np.ndarray, lr: float, d_diag: np.ndarray) -> SPDKernel:
    """``stiefel_sgd_step`` from the tangent ``Z``, already projected."""
    if not 0 < lr < np.inf:
        raise ValueError("stiefel_sgd_step: lr must be positive and finite")
    d_diag = np.asarray(d_diag, dtype=float)
    if d_diag.shape != kernel.diag_params.t.shape:
        raise ValueError("stiefel_sgd_step: d_diag shape disagrees with the parameters")
    _require_finite(d_diag, "stiefel_sgd_step")
    newP = stiefel_retract(kernel.P, -lr * Z)
    t = DiagParams(t=kernel.diag_params.t - lr * d_diag)
    return assemble_kernel(pack_skew(cayley_inverse(newP)), t)


def gradient_step(
    kernel: SPDKernel, dW: np.ndarray, mode: str
) -> tuple[float, Callable[[float], SPDKernel]]:
    """Gradient max-norm at ``kernel`` and the ``mode`` update for ``dW = dL/dW``.

    The update is returned as ``step(lr)``, deferred only so that a caller
    can skip the final step, whose kernel it would never score.  This is
    the one place that chooses between the optimizer modes.
    """
    if mode == "cayley":
        grad = kernel_grad(kernel, dW)
        return grad.max_norm(), lambda lr: cayley_sgd_step(kernel, grad, lr)
    if mode != "stiefel":
        raise ValueError(f"gradient_step: mode must be one of {_MODES}, got {mode!r}")
    dL_dP, dL_dlam = kernel_factor_grads(kernel, dW)
    d_diag = dL_dlam * dlambda_dt(kernel.diag_params)
    Z = stiefel_project(kernel.P, dL_dP)
    grad_norm = float(max(np.max(np.abs(Z)), np.max(np.abs(d_diag))))
    return grad_norm, lambda lr: _stiefel_move(kernel, Z, lr, d_diag)


def finite_difference_oracle(
    loss: Callable[[SkewParams, DiagParams], float],
    s: SkewParams,
    t: DiagParams,
    eps: float = 1e-5,
) -> KernelGradient:
    """Central finite differences of a scalar loss over the free parameters.

    The independent reference for every analytic gradient in this package:
    ``(loss(p + eps e_i) - loss(p - eps e_i)) / (2 eps)`` coordinate by
    coordinate over both parameter vectors.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("finite_difference_oracle: eps must lie in [1e-7, 1e-3]")

    n = s.entries.size

    def probe(p: np.ndarray) -> float:
        value = float(loss(SkewParams(entries=p[:n], dim=s.dim), DiagParams(t=p[n:])))
        if not np.isfinite(value):
            raise ValueError("finite_difference_oracle: loss returned a non-finite value")
        return value

    p = np.concatenate([s.entries, t.t])
    grad = np.zeros_like(p)
    for i in range(p.size):
        hi, lo = p.copy(), p.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (probe(hi) - probe(lo)) / (2.0 * eps)
    return KernelGradient(d_skew=grad[:n], d_diag=grad[n:])


def step_benchmark(dim: int, mode: str, iters: int = 20) -> float:
    """Wall-clock milliseconds per optimizer step at a given kernel size.

    Runs ``iters`` steps against a fixed random symmetric gradient on
    ``W`` and averages; used for reporting only.
    """
    rng = np.random.default_rng(0)
    kernel = identity_kernel(dim)
    A = rng.standard_normal((dim, dim)) * 0.01
    G = A + A.T
    t0 = time.perf_counter()
    for _ in range(iters):
        kernel = gradient_step(kernel, G, mode)[1](1e-3)
    return (time.perf_counter() - t0) * 1000.0 / iters
