"""Cayley re-parameterizations for orthogonal and positive-diagonal factors.

The maps in this module let an unconstrained optimizer walk constrained
matrix sets:

* ``cayley_forward`` sends a skew-symmetric matrix ``S`` to the rotation
  ``P = (I - S)(I + S)^{-1}``.  Its image is exactly the set of special
  orthogonal matrices whose spectrum avoids -1, written ``SO*(n)``
  throughout this package, and ``cayley_inverse`` recovers
  ``S = (I + P)^{-1}(I - P)``.
* ``lambda_from_t`` sends a free real vector ``t`` to a strictly positive
  vector through ``(pi + 2 arctan t) / (pi - 2 arctan t)``, with the
  analytic inverse ``t_from_lambda``.

``so_star_path`` builds an explicit continuous path inside ``SO*(n)`` from
the identity to any member, by shrinking the rotation angles of the
matrix's invariant planes toward zero.  Every intermediate point stays in
``SO*(n)``, which is what makes the identity a safe starting point for
gradient descent over the whole set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_TOL = 1e-10
SO_STAR_MARGIN = 1e-8
SKEW_TOL = 1e-12


class NumericalError(RuntimeError):
    """A dense linear-algebra step failed or returned garbage."""


class NotInSOStarError(ValueError):
    """Raised for matrices outside SO*(n), i.e. with -1 in the spectrum.

    Carries the offending eigenvalue (the one nearest -1) so callers can
    report how close to the excluded set the input was.
    """

    def __init__(self, message: str, nearest_eigenvalue: complex | None = None):
        super().__init__(message)
        self.nearest_eigenvalue = nearest_eigenvalue


def _require_square(a: np.ndarray, who: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{who}: expected a square matrix, got shape {a.shape}")


def _require_finite(a: np.ndarray, who: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{who}: values must be finite")


def _frozen(value, who: str, ndim: int) -> np.ndarray:
    """A read-only, finite float64 copy of ``value`` with ``ndim`` axes.

    Every array a frozen container stores goes through here, so a factor
    checked once cannot change afterwards.
    """
    a = np.array(value, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{who}: expected {ndim}-D data, got shape {a.shape}")
    _require_finite(a, who)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SkewParams:
    """Free parameters of a skew-symmetric matrix.

    ``entries`` holds the strictly-lower-triangular part in row-major
    order, so ``dim * (dim - 1) / 2`` numbers parameterize a ``dim x dim``
    skew-symmetric matrix.
    """

    entries: np.ndarray
    dim: int

    def __post_init__(self):
        e = _frozen(self.entries, "SkewParams.entries", 1)
        if self.dim < 1:
            raise ValueError("SkewParams.dim must be positive")
        expected = self.dim * (self.dim - 1) // 2
        if e.size != expected:
            raise ValueError(
                f"SkewParams: dim {self.dim} needs {expected} entries, got {e.size}"
            )
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class DiagParams:
    """Unconstrained real vector mapped to positive diagonal entries."""

    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen(self.t, "DiagParams.t", 1))

    @property
    def dim(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class OrthogonalMatrix:
    """A square matrix validated as orthogonal with positive determinant."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values, "OrthogonalMatrix", 2)
        _require_square(v, "OrthogonalMatrix")
        n = v.shape[0]
        err = float(np.max(np.abs(v.T @ v - np.eye(n))))
        if err > ORTHOGONALITY_TOL:
            raise ValueError(
                f"OrthogonalMatrix: columns not orthonormal, max deviation {err:.3e}"
            )
        det = float(np.linalg.det(v))
        if det <= 0.0:
            raise ValueError(f"OrthogonalMatrix: determinant must be positive, got {det}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SOStarCheck:
    """Outcome of an SO*(n) membership test, truthy iff the test passed."""

    is_member: bool
    orthogonality_error: float
    determinant: float
    nearest_eigenvalue: complex
    gap_to_minus_one: float

    def __bool__(self) -> bool:
        return self.is_member


def pack_skew(S: np.ndarray) -> SkewParams:
    """Extract the free parameters of a skew-symmetric matrix.

    Parameters
    ----------
    S : ndarray
        Square matrix with ``S.T == -S`` within ``SKEW_TOL``.

    Returns
    -------
    SkewParams
        Strictly-lower-triangular entries of ``S`` in row-major order.
    """
    S = np.asarray(S, dtype=float)
    _require_square(S, "pack_skew")
    _require_finite(S, "pack_skew")
    asym = float(np.max(np.abs(S + S.T)))
    if asym > SKEW_TOL:
        raise ValueError(f"pack_skew: matrix is not skew-symmetric (deviation {asym:.3e})")
    n = S.shape[0]
    rows, cols = np.tril_indices(n, -1)
    return SkewParams(entries=S[rows, cols], dim=n)


def unpack_skew(p: SkewParams) -> np.ndarray:
    """Rebuild the full skew-symmetric matrix from packed parameters."""
    n = p.dim
    S = np.zeros((n, n))
    rows, cols = np.tril_indices(n, -1)
    S[rows, cols] = p.entries
    return S - S.T


def cayley_forward(S: np.ndarray) -> OrthogonalMatrix:
    """Map a skew-symmetric matrix into SO*(n).

    Computes ``P = (I - S)(I + S)^{-1}`` with one dense solve; the two
    factors commute, so ``(I + S)^{-1}(I - S)`` is the same matrix and a
    single left solve suffices.  ``I + S`` is invertible for every
    skew-symmetric ``S`` because its singular values are at least 1.
    """
    S = np.asarray(S, dtype=float)
    _require_square(S, "cayley_forward")
    _require_finite(S, "cayley_forward")
    eye = np.eye(S.shape[0])
    try:
        values = np.linalg.solve(eye + S, eye - S)
    except np.linalg.LinAlgError as err:
        cond = float(np.linalg.cond(eye + S))
        raise NumericalError(
            f"cayley_forward: linear solve failed; cond(I + S) ~ {cond:.3e}"
        ) from err
    return OrthogonalMatrix(values)


def cayley_inverse(P: OrthogonalMatrix | np.ndarray) -> np.ndarray:
    """Recover the skew-symmetric preimage ``S = (I + P)^{-1}(I - P)``.

    Membership in SO*(n) is checked first; matrices carrying an eigenvalue
    at -1 have no preimage and raise :class:`NotInSOStarError` with the
    offending eigenvalue attached.
    """
    values = P.values if isinstance(P, OrthogonalMatrix) else np.asarray(P, dtype=float)
    check = is_in_so_star(values)
    if not check:
        raise NotInSOStarError(
            "cayley_inverse: input is not in SO*(n) "
            f"(orthogonality error {check.orthogonality_error:.3e}, det {check.determinant:.6f}, "
            f"eigenvalue nearest -1 is {check.nearest_eigenvalue})",
            nearest_eigenvalue=check.nearest_eigenvalue,
        )
    eye = np.eye(values.shape[0])
    S = np.linalg.solve(eye + values, eye - values)
    # The exact preimage is skew; wipe the round-off asymmetry.
    return 0.5 * (S - S.T)


def is_in_so_star(P: np.ndarray, margin: float = SO_STAR_MARGIN) -> SOStarCheck:
    """Test membership in SO*(n) and report how the test was decided.

    Membership requires ``P.T @ P = I`` within 1e-8, a positive
    determinant, and every eigenvalue farther than ``margin`` from -1.
    """
    P = np.asarray(P, dtype=float)
    _require_square(P, "is_in_so_star")
    _require_finite(P, "is_in_so_star")
    n = P.shape[0]
    orth_err = float(np.max(np.abs(P.T @ P - np.eye(n))))
    det = float(np.linalg.det(P))
    eigs = np.linalg.eigvals(P)
    nearest = complex(eigs[np.argmin(np.abs(eigs + 1.0))])
    gap = float(abs(nearest + 1.0))
    member = orth_err <= 1e-8 and det > 0.0 and gap > margin
    return SOStarCheck(
        is_member=member,
        orthogonality_error=orth_err,
        determinant=det,
        nearest_eigenvalue=nearest,
        gap_to_minus_one=gap,
    )


def lambda_from_t(t: DiagParams | np.ndarray) -> np.ndarray:
    """Map free reals to positive diagonal entries.

    ``lam(t) = (pi + 2 arctan t) / (pi - 2 arctan t)`` is strictly
    increasing with ``lam(0) = 1`` and ``lam(t) * lam(-t) = 1``, so the
    zero vector parameterizes the identity scaling and sign flips invert
    scales.
    """
    arr = t.t if isinstance(t, DiagParams) else np.asarray(t, dtype=float)
    _require_finite(arr, "lambda_from_t")
    a = 2.0 * np.arctan(arr)
    return (np.pi + a) / (np.pi - a)


def t_from_lambda(lam: np.ndarray) -> DiagParams:
    """Analytic inverse of :func:`lambda_from_t` for strictly positive input."""
    lam = np.asarray(lam, dtype=float)
    _require_finite(lam, "t_from_lambda")
    if np.any(lam <= 0.0):
        raise ValueError("t_from_lambda: entries must be strictly positive")
    return DiagParams(t=np.tan(np.pi * (lam - 1.0) / (2.0 * (lam + 1.0))))


def dlambda_dt(t: DiagParams | np.ndarray) -> np.ndarray:
    """Derivative of :func:`lambda_from_t`, ``4 pi / ((1 + t^2)(pi - 2 arctan t)^2)``."""
    arr = t.t if isinstance(t, DiagParams) else np.asarray(t, dtype=float)
    _require_finite(arr, "dlambda_dt")
    return 4.0 * np.pi / ((1.0 + arr**2) * (np.pi - 2.0 * np.arctan(arr)) ** 2)


def so_star_path(P: OrthogonalMatrix, steps: int) -> list[OrthogonalMatrix]:
    """Discretize a continuous path from the identity to ``P`` inside SO*(n).

    The real Schur form of an orthogonal matrix is block diagonal with
    2x2 rotation blocks and unit 1x1 blocks.  Scaling every rotation angle
    by ``k / steps`` yields ``steps + 1`` matrices from the identity to
    ``P``; angles stay inside (-pi, pi) throughout, so each point remains
    in SO*(n).

    Parameters
    ----------
    P : OrthogonalMatrix
        Path endpoint; must pass :func:`is_in_so_star`.
    steps : int
        Number of segments; the returned list has ``steps + 1`` elements.
    """
    if steps < 1:
        raise ValueError("so_star_path: steps must be at least 1")
    check = is_in_so_star(P.values)
    if not check:
        raise NotInSOStarError(
            "so_star_path: endpoint is not in SO*(n) "
            f"(eigenvalue nearest -1 is {check.nearest_eigenvalue})",
            nearest_eigenvalue=check.nearest_eigenvalue,
        )
    # Imported here: scipy.linalg is the largest import in the package and
    # only this path needs it.
    import scipy.linalg

    T, Q = scipy.linalg.schur(P.values, output="real")
    n = T.shape[0]

    # Walk the quasi-diagonal: subdiagonal entries are structurally exact
    # zeros except at 2x2 blocks, so a plain nonzero test is reliable.
    blocks: list[tuple[int, float]] = []
    i = 0
    while i < n:
        if i + 1 < n and T[i + 1, i] != 0.0:
            cos_part = 0.5 * (T[i, i] + T[i + 1, i + 1])
            sin_part = 0.5 * (T[i + 1, i] - T[i, i + 1])
            blocks.append((i, math.atan2(sin_part, cos_part)))
            i += 2
        else:
            if T[i, i] <= 0.0:
                raise NotInSOStarError(
                    "so_star_path: Schur form exposes a nonpositive real eigenvalue "
                    f"{T[i, i]:.6e}; the endpoint is outside SO*(n)",
                    nearest_eigenvalue=complex(T[i, i]),
                )
            i += 1

    path = []
    for k in range(steps + 1):
        frac = k / steps
        D = np.eye(n)
        for start, theta in blocks:
            a = frac * theta
            c, s = math.cos(a), math.sin(a)
            D[start : start + 2, start : start + 2] = ((c, -s), (s, c))
        path.append(OrthogonalMatrix(Q @ D @ Q.T))
    return path
