"""Cayley re-parameterizations for orthogonal and positive-diagonal factors.

The maps in this module let an unconstrained optimizer walk constrained
matrix sets:

* ``cayley_forward`` sends a skew-symmetric matrix ``S`` to the rotation
  ``P = (I - S)(I + S)^{-1}``.  Its image is exactly the set of special
  orthogonal matrices whose spectrum avoids -1, written ``SO*(n)``
  throughout this package.  The map is its own inverse, so
  ``cayley_inverse`` recovers ``S = (I + P)^{-1}(I - P)`` by the same solve.
* ``lambda_from_t`` sends a free real vector ``t`` to a strictly positive
  vector through ``(pi + 2 arctan t) / (pi - 2 arctan t)``, computed as
  ``arctan2(1, -t) / arctan2(1, t)`` since ``pi/2 +- arctan t =
  arctan2(1, -+t)``; ``dlam/dt = (1 + lam)^2 / (pi (1 + t^2))``, and
  ``t_from_lambda`` inverts ``arctan2(1, t) = pi / (1 + lam)``.

``so_star_path`` builds an explicit continuous path inside ``SO*(n)`` from
the identity to any member, by shrinking the rotation angles of the
matrix's invariant planes toward zero.  Every intermediate point stays in
``SO*(n)``, which is what makes the identity a safe starting point for
gradient descent over the whole set.
"""

from __future__ import annotations

import math
import os
import struct
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
    # The extremes carry any NaN or infinity, with no mask the size of ``a``.
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(f"{who}: values must be finite")


def _read_payload(path, who: str, head: str, magic: bytes, version: int, shape_of):
    """The header count and the float64 payload of the file format whose
    header ``head`` is a struct of magic, version and one count.

    ``shape_of(fh, count)`` reads any further header fields and returns the
    payload's shape and how to name it in an error.  The payload is sized
    with exact integers against the bytes left before it is read, so a
    forged header can neither wrap the count nor ask for more memory than
    the file holds; it is read straight into the array's own buffer.
    """
    size = struct.calcsize(head)
    with open(path, "rb") as fh:
        header = fh.read(size)
        if len(header) != size:
            raise ValueError(f"{who}: truncated header in {path!r}")
        got, got_version, count = struct.unpack(head, header)
        if got != magic:
            raise ValueError(f"{who}: bad magic {got!r} in {path!r}")
        if got_version != version:
            raise ValueError(f"{who}: unsupported version {got_version}")
        shape, declared = shape_of(fh, count)
        nbytes = 8 * math.prod(shape)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes > left:
            raise ValueError(f"{who}: truncated payload in {path!r}: {declared} "
                             f"needs {nbytes} bytes, {left} left")
        if nbytes < left:
            raise ValueError(f"{who}: trailing bytes in {path!r}")
        try:
            arr = np.empty(shape, dtype="<f8")
        except ValueError as err:  # more axes, or a larger empty shape, than numpy holds
            raise ValueError(f"{who}: {path!r} declares a shape numpy cannot hold: {err}") from err
        if fh.readinto(arr) != nbytes:
            raise ValueError(f"{who}: truncated payload in {path!r}")
    return count, arr


class _Adopted:
    """An array that :func:`_frozen` keeps, made read-only, instead of copying.

    Only for an array lcv has just made and nobody else references; see
    :func:`lcv.costvolume._adopt`.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen(value, who: str, ndim: int) -> np.ndarray:
    """A read-only, finite float64 copy of ``value`` with ``ndim`` axes, or,
    for an :class:`_Adopted` float64 array, that array itself.

    Every array a frozen container stores goes through here, so a factor
    checked once cannot change afterwards.
    """
    adopted = isinstance(value, _Adopted)
    try:
        a = np.asarray(value.array, dtype=float) if adopted else np.array(value, dtype=float)
    except ValueError as err:
        raise ValueError(f"{who}: {err}") from err
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


def _require_skew(S: np.ndarray, who: str) -> None:
    _require_square(S, who)
    _require_finite(S, who)
    asym = float(np.max(np.abs(S + S.T)))
    if asym > SKEW_TOL:
        raise ValueError(f"{who}: matrix is not skew-symmetric (deviation {asym:.3e})")


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
    _require_skew(S, "pack_skew")
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


def _cayley(X: np.ndarray, who: str) -> np.ndarray:
    """``(I + X)^{-1}(I - X)``, the Cayley map in either direction."""
    eye = np.eye(X.shape[0])
    try:
        return np.linalg.solve(eye + X, eye - X)
    except np.linalg.LinAlgError as err:
        cond = float(np.linalg.cond(eye + X))
        raise NumericalError(f"{who}: linear solve failed; cond(I + X) ~ {cond:.3e}") from err


def cayley_forward(S: np.ndarray) -> OrthogonalMatrix:
    """Map a skew-symmetric matrix into SO*(n): ``P = (I - S)(I + S)^{-1}``.

    The factors commute, so one left solve gives ``P``.  ``I + S`` is
    invertible for every skew-symmetric ``S`` (its singular values are at
    least 1); other input is refused, as :func:`pack_skew` refuses it.
    """
    S = np.asarray(S, dtype=float)
    _require_skew(S, "cayley_forward")
    return OrthogonalMatrix(_cayley(S, "cayley_forward"))


def cayley_inverse(P: OrthogonalMatrix | np.ndarray) -> np.ndarray:
    """Recover the skew-symmetric preimage ``S = (I + P)^{-1}(I - P)``: the
    Cayley map is its own inverse.

    Membership in SO*(n) is checked first; matrices carrying an eigenvalue
    at -1 have no preimage and raise :class:`NotInSOStarError` with the
    offending eigenvalue attached.
    """
    values = P.values if isinstance(P, OrthogonalMatrix) else np.asarray(P, dtype=float)
    _require_so_star(values, "cayley_inverse")
    S = _cayley(values, "cayley_inverse")
    # The exact preimage is skew; wipe the round-off asymmetry.
    return 0.5 * (S - S.T)


def is_in_so_star(P: np.ndarray) -> SOStarCheck:
    """Test membership in SO*(n) and report how the test was decided.

    Membership requires ``P.T @ P = I`` within 1e-8, a positive
    determinant, and every eigenvalue farther than ``SO_STAR_MARGIN`` from -1.
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
    member = orth_err <= 1e-8 and det > 0.0 and gap > SO_STAR_MARGIN
    return SOStarCheck(
        is_member=member,
        orthogonality_error=orth_err,
        determinant=det,
        nearest_eigenvalue=nearest,
        gap_to_minus_one=gap,
    )


def _require_so_star(values: np.ndarray, who: str) -> None:
    check = is_in_so_star(values)
    if not check:
        raise NotInSOStarError(
            f"{who}: input is not in SO*(n) (orthogonality error {check.orthogonality_error:.3e}, "
            f"det {check.determinant:.6f}, eigenvalue nearest -1 is {check.nearest_eigenvalue})",
            nearest_eigenvalue=check.nearest_eigenvalue,
        )


def lambda_from_t(t: DiagParams | np.ndarray) -> np.ndarray:
    """Map free reals to positive diagonal entries.

    ``lam(t) = (pi + 2 arctan t) / (pi - 2 arctan t)`` is strictly
    increasing with ``lam(0) = 1`` and ``lam(t) * lam(-t) = 1``, so the
    zero vector parameterizes the identity scaling and sign flips invert
    scales.  As ``pi/2 +- arctan t = arctan2(1, -+t)``, it is taken as
    ``arctan2(1, -t) / arctan2(1, t)``, finite and positive for all finite ``t``.
    """
    arr = t.t if isinstance(t, DiagParams) else np.asarray(t, dtype=float)
    _require_finite(arr, "lambda_from_t")
    return np.arctan2(1.0, -arr) / np.arctan2(1.0, arr)


def t_from_lambda(lam: np.ndarray) -> DiagParams:
    """Analytic inverse of :func:`lambda_from_t` for strictly positive input:
    from ``arctan2(1, t) = pi / (1 + lam)``, ``t = cot(pi / (lam + 1))``, taken
    below ``lam = 1`` as ``-cot(pi lam / (lam + 1))`` so the angle never
    rounds onto a pole."""
    lam = np.asarray(lam, dtype=float)
    _require_finite(lam, "t_from_lambda")
    if np.any(lam <= 0.0):
        raise ValueError("t_from_lambda: entries must be strictly positive")
    return DiagParams(t=np.sign(lam - 1.0) / np.tan(np.pi * np.minimum(lam, 1.0) / (lam + 1.0)))


def dlambda_dt(t: DiagParams | np.ndarray) -> np.ndarray:
    """Derivative of :func:`lambda_from_t`, ``(1 + lam)^2 / (pi (1 + t^2))``;
    with ``1 + lam = pi / arctan2(1, t)`` it is ``(pi / hypot(1, t) /
    arctan2(1, t))^2 / pi``, where every quotient lies in ``(0, pi]``."""
    arr = t.t if isinstance(t, DiagParams) else np.asarray(t, dtype=float)
    _require_finite(arr, "dlambda_dt")
    return (np.pi / np.hypot(1.0, arr) / np.arctan2(1.0, arr)) ** 2 / np.pi


def so_star_path(P: OrthogonalMatrix, steps: int) -> list[OrthogonalMatrix]:
    """Discretize a continuous path from the identity to ``P`` inside SO*(n).

    An orthogonal matrix is normal, so its complex Schur form
    ``P = Z T Z^H`` has a diagonal ``T`` of unit eigenvalues ``exp(i phi)``.
    Scaling every angle ``phi`` by ``k / steps`` yields ``steps + 1``
    matrices from the identity to ``P``; angles stay inside (-pi, pi)
    throughout, so each point remains in SO*(n).

    Parameters
    ----------
    P : OrthogonalMatrix
        Path endpoint; must pass :func:`is_in_so_star`.
    steps : int
        Number of segments; the returned list has ``steps + 1`` elements.
    """
    if steps < 1:
        raise ValueError("so_star_path: steps must be at least 1")
    _require_so_star(P.values, "so_star_path")
    # Imported here: scipy.linalg is the largest import in the package and
    # only this path needs it.
    import scipy.linalg

    T, Z = scipy.linalg.schur(P.values, output="complex")
    phi = np.angle(np.diag(T))
    # Each point is the principal power P**(k/steps), real up to rounding.
    return [
        OrthogonalMatrix(((Z * np.exp(1j * (k / steps) * phi)) @ Z.conj().T).real)
        for k in range(steps + 1)
    ]
