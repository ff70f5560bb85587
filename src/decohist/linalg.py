"""Validated dense complex linear algebra.

States, projectors and the algebraic primitives (ordered product, adjoint,
trace, tensor product) that the history machinery is built on.  Operators are
plain complex128 numpy arrays; the constructors here validate invariants once
and freeze the array, after which values are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotIdempotentError,
    NotPositiveError,
    TraceNotOneError,
)

#: Default absolute tolerance (max-norm) for all constructor validations.
#: Double-precision products of a handful of small matrices accumulate error
#: well below this.
DEFAULT_TOL = 1e-10

#: Rows per strip of the O(N^2) passes over a matrix (the Hermiticity, weak
#: and medium checks).  Measured only on N = 512 matrices, on a 2-core Xeon:
#: strips of 32 to 128 rows cost within about 0.4 ms of each other per pass,
#: 256 rows about 1.5x as much, and one 512-row strip (no tiling) 2 to 5x.
TILE = 128


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex128 array (a copy, not a view)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionMismatchError("matrix has no entries")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite (no NaN or infinity)")
    return a


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(m).conj().T


def trace(m) -> complex:
    """Sum of the diagonal; requires a square matrix."""
    a = as_operator(m)
    require_square(a)
    return complex(np.trace(a))


def tensor(a, b) -> np.ndarray:
    """Kronecker product, satisfying (a (x) b)(c (x) d) = ac (x) bd."""
    return np.kron(as_operator(a), as_operator(b))


def compose(ops: Iterable, dim: int | None = None) -> np.ndarray:
    """Ordered matrix product; the first element of ``ops`` is the left factor.

    An empty list returns the identity, for which ``dim`` must be given.
    """
    mats = [as_operator(m) for m in ops]
    if not mats:
        if dim is None:
            raise DimensionMismatchError("empty product needs an explicit dimension")
        return np.eye(dim, dtype=complex)
    out = mats[0]
    for m in mats[1:]:
        if out.shape[1] != m.shape[0]:
            raise DimensionMismatchError(
                f"cannot multiply shapes {out.shape} and {m.shape}"
            )
        out = out @ m
    return out


def hermiticity_deviation(a: np.ndarray) -> float:
    """max |M - M^dagger|, entrywise; not finite if an entry of ``a`` is not.

    Scans strips of ``TILE`` rows from the diagonal rightwards, each against
    the conjugate transpose of the matching columns, so no full-size
    transposed copy is made; |M_ij - conj(M_ji)| and its mirror are equal bit
    for bit, so the value is the untiled one.  An empty matrix raises
    ``ValueError`` as ``np.max`` does.
    """
    worst = _strip_deviation(a, 0)
    for top in range(TILE, a.shape[0], TILE):
        # np.maximum, unlike max(), propagates NaN
        worst = np.maximum(worst, _strip_deviation(a, top))
    return float(worst)


def _strip_deviation(a: np.ndarray, top: int) -> np.floating:
    rows = slice(top, top + TILE)
    return np.abs(a[rows, top:] - a[top:, rows].conj().T).max()


def min_hermitian_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part (M + M^dagger)/2."""
    h = 0.5 * (a + a.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def idempotency_deviation(a: np.ndarray) -> float:
    """max |M^2 - M|, entrywise."""
    return float(np.max(np.abs(a @ a - a)))


def unitarity_deviation(a: np.ndarray) -> float:
    """max |U^dagger U - I|, entrywise."""
    n = require_square(a)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(n))))


@dataclass(frozen=True, eq=False)
class DensityState:
    """A density matrix: Hermitian, positive semidefinite, unit trace.

    Invariants are checked at construction against ``tol`` (absolute,
    max-norm); the stored array is read-only.
    """

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        a = as_operator(self.matrix)
        require_square(a)
        dev = hermiticity_deviation(a)
        if dev > self.tol:
            raise NotHermitianError(dev)
        lo = min_hermitian_eigenvalue(a)
        if lo < -self.tol:
            raise NotPositiveError(lo)
        tr_dev = abs(np.trace(a) - 1.0)
        if tr_dev > self.tol:
            raise TraceNotOneError(float(tr_dev))
        object.__setattr__(self, "matrix", frozen(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector: Hermitian and idempotent within ``tol``."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        a = as_operator(self.matrix)
        require_square(a)
        dev = hermiticity_deviation(a)
        if dev > self.tol:
            raise NotHermitianError(dev)
        dev = idempotency_deviation(a)
        if dev > self.tol:
            raise NotIdempotentError(dev)
        object.__setattr__(self, "matrix", frozen(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.matrix).real))


def make_state(m, tol: float = DEFAULT_TOL) -> DensityState:
    """Validate ``m`` as a density matrix."""
    return DensityState(m, tol)


def make_projector(m, tol: float = DEFAULT_TOL) -> Projector:
    """Validate ``m`` as an orthogonal projector."""
    return Projector(m, tol)


def basis_projector(dim: int, indices: Sequence[int]) -> Projector:
    """Projector onto the span of the given computational-basis vectors."""
    p = np.zeros((dim, dim), dtype=complex)
    for i in indices:
        if not 0 <= i < dim:
            raise DimensionMismatchError(f"basis index {i} out of range for dim {dim}")
        p[i, i] = 1.0
    return Projector(p)


# ---------------------------------------------------------------------------
# Matrix literal format, shared with the scenario schema: nested arrays of
# two-element [re, im] pairs, row-major.


def matrix_from_pairs(data) -> np.ndarray:
    """Parse a nested [re, im]-pair array into a complex matrix."""
    a = np.array(data, dtype=float)
    if a.ndim != 3 or a.shape[2] != 2:
        raise DimensionMismatchError(
            "matrix literal must be a nested array of [re, im] pairs"
        )
    return as_operator(a[:, :, 0] + 1j * a[:, :, 1])


def matrix_to_pairs(m) -> list:
    """Render a complex matrix as nested [re, im] pairs (exact floats)."""
    a = as_operator(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]
