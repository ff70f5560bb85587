"""Validated dense complex linear algebra.

States, projectors and the algebraic primitives (ordered product, adjoint,
trace, tensor product) that the history machinery is built on.  Operators are
plain complex128 numpy arrays; the constructors here validate invariants once
and freeze the array, after which values are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidHistoryError,
    NotHermitianError,
    NotIdempotentError,
    NotPositiveError,
    TraceNotOneError,
)

#: Rows per strip of the O(N^2) passes over D (its assembly, the weak and
#: medium scans, the row norms).  Measured on N = 512 scans, 2-core Xeon:
#: strips of 32 to 128 rows cost within about 0.4 ms of each other per pass,
#: 256 rows about 1.5x as much, and one 512-row strip (no tiling) 2 to 5x.
TILE = 128

# ---------------------------------------------------------------------------
# Numerical policy (README): every threshold the engine applies, and each
# relaxation rule used at more than one site, defined once for every module.

#: Default absolute tolerance (max-norm) for all constructor validations.
#: Double-precision products of a handful of small matrices accumulate error
#: well below this.
DEFAULT_TOL = 1e-10

#: Probabilities this close to 0 or 1 (from outside the interval) are snapped
#: to the bound; conditionals must never return values like 1 + 1e-15.
CLAMP_TOL = 1e-9

#: Conditioning on a probability at or below this threshold is an error.
ZERO_THRESHOLD = 1e-12

#: The tolerance a decoherence functional is validated at: its trace sums N
#: probabilities, each with its own round-off.
DFUNC_TOL = 1e-9

#: The pass threshold of the weak, medium, additivity and robustness checks.
DEFAULT_CHECK_TOL = 1e-9

#: Oracle steps with conditional probability at or below this are treated as
#: impossible: the Lueders update is undefined on a zero state, and the
#: renormalized matrix is roundoff noise long before the probability
#: underflows.
ZERO_STEP = 1e-14

#: A step probability at most this far outside [0, 1] is round-off in the
#: trace of P rho P and is clamped onto the interval; one further out is
#: kept as it is, for the post-state validation to reject.
STEP_CLAMP = 1e-12

#: Absolute round-off floor of P rho P.  Dividing by the step probability p
#: scales it by 1 / p, so a post-state is validated against
#: max(DEFAULT_TOL, PROJECTION_ROUNDOFF / p).
PROJECTION_ROUNDOFF = 1e-13


def _lift_tol(tol: float) -> float:
    """The tolerance of a lift U^dagger P U of a projector valid at ``tol``."""
    return max(tol, 10 * DEFAULT_TOL)


def _summed_tol(tol: float, n: int) -> float:
    """The tolerance of a sum of ``n`` projectors each valid at ``tol``."""
    return tol * max(1, n)


_NOT_FINITE = "matrix entries must be finite (no NaN or infinity)"


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex128 array (a copy, not a view)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionMismatchError("matrix has no entries")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise ValueError(_NOT_FINITE)
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

    Untiled, with one full-size conjugate transpose: the engine checks only
    Hamiltonians with it, which are d x d with d in the tens.  An empty
    matrix raises ``ValueError`` as ``np.max`` does.
    """
    return float(np.max(np.abs(a - a.conj().T)))


def unitarity_deviation(a: np.ndarray) -> float:
    """max |U^dagger U - I|, entrywise."""
    n = require_square(a)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(n))))


def _state_factor(state: DensityState) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted LDL^dagger of a state: rho = L diag(delta) L^dagger.

    ``L`` is d x r and ``delta`` > 0.  Each step pivots on the largest
    residual diagonal and divides that residual column by the pivot, with no
    square root, so dyadic states factor exactly.  Steps stop once the
    largest residual diagonal is round-off, which drops the null directions
    of a rank-deficient state and the slightly negative ones a state may
    carry within its tolerance; the d x d residual is then checked.
    """
    rho = state.matrix
    d = rho.shape[0]
    floor = d * np.finfo(float).eps * float(np.max(rho.diagonal().real))
    residual = rho.copy()
    columns, pivots = [], []
    for _ in range(d):
        diag = residual.diagonal().real
        k = int(np.argmax(diag))
        pivot = float(diag[k])  # diag is a view of the residual
        if pivot <= floor:
            break
        column = residual[:, k] / pivot
        residual -= pivot * np.outer(column, column.conj())
        columns.append(column)
        pivots.append(pivot)
    factor = np.stack(columns, axis=1)
    delta = np.array(pivots)
    gap = float(np.max(np.abs((factor * delta) @ factor.conj().T - rho)))
    if gap > state.tol:
        raise InvalidHistoryError(f"state factor misses the state by {gap:.3e}")
    return factor, delta


def _summed(stack: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """An outcome's projector: zero plus ``stack[p]`` for each of ``positions``
    in the order given (from zero, so a lone -0.0 entry sums to +0.0)."""
    total = np.zeros(stack.shape[1:], dtype=complex)
    for p in positions:
        total = total + stack[p]
    return total


def _finite_first(checks):
    """A stacked validator that gives a matrix with a non-finite entry the
    non-finite error and runs ``checks(stack, tols)`` on the rest only
    (``eigvalsh`` fails on non-finite matrices, and products of them warn)."""

    @wraps(checks)
    def errors(stack: np.ndarray, tols: Sequence[float]) -> list[Exception | None]:
        finite = np.isfinite(stack).all(axis=(1, 2))
        if finite.all():
            return checks(stack, tols)
        kept = [tol for tol, ok in zip(tols, finite) if ok]
        rest = iter(checks(stack[finite], kept) if kept else ())
        return [next(rest) if ok else ValueError(_NOT_FINITE) for ok in finite]

    return errors


@_finite_first
def _state_errors(stack: np.ndarray, tols: Sequence[float]) -> list[Exception | None]:
    """Validate each matrix of an ``(n, d, d)`` stack as a density matrix.

    Entry k is None when ``stack[k]`` passes, else the error its first
    failing check gives: finite entries, Hermiticity, the smallest
    eigenvalue of the Hermitian part, the trace, in that order, each against
    ``tols[k]``.  Every check runs once over the whole stack.
    """
    # a state is d x d with d in the tens: one full conjugate transpose per
    # matrix serves both the Hermiticity check and the Hermitian part
    adjoint = stack.conj().swapaxes(1, 2)
    devs = np.abs(stack - adjoint).max(axis=(1, 2)).tolist()
    lows = np.linalg.eigvalsh(0.5 * (stack + adjoint))[:, 0].tolist()
    tr_devs = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).tolist()
    return [
        NotHermitianError(dev) if dev > tol else
        NotPositiveError(lo) if lo < -tol else
        TraceNotOneError(tr_dev) if tr_dev > tol else None
        for dev, lo, tr_dev, tol in zip(devs, lows, tr_devs, tols)
    ]


@_finite_first
def _projector_errors(stack: np.ndarray, tols: Sequence[float]) -> list[Exception | None]:
    """``_state_errors`` for orthogonal projectors: finite entries,
    Hermiticity, idempotency (max |P^2 - P|), in that order."""
    devs = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()
    idem_devs = np.abs(stack @ stack - stack).max(axis=(1, 2)).tolist()
    return [
        NotHermitianError(dev) if dev > tol else
        NotIdempotentError(idem) if idem > tol else None
        for dev, idem, tol in zip(devs, idem_devs, tols)
    ]


@dataclass(frozen=True, eq=False)
class _Checked:
    """A square matrix checked at construction against ``tol`` (absolute,
    max-norm) by one stacked validator, which the class's ``_errors`` calls
    by its module-level name: the constructor runs it on a stack of one,
    ``_from_stack`` on many matrices at once.  The array is read-only."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        a = as_operator(self.matrix)
        require_square(a)
        (error,) = self._errors(a[np.newaxis], (self.tol,))
        if error is not None:
            raise error
        object.__setattr__(self, "matrix", frozen(a))

    @classmethod
    def _from_stack(cls, stack: np.ndarray, tols: Sequence[float]) -> list:
        """Validate an ``(n, d, d)`` stack in one pass: an instance holding a
        view of ``stack[k]`` for each matrix that passes, and the error the
        constructor would raise for each one that does not.  ``stack`` is
        made read-only, and with it every view."""
        out = cls._errors(stack, tols)
        frozen(stack)
        for k, (matrix, tol) in enumerate(zip(stack, tols)):
            if out[k] is None:
                out[k] = object.__new__(cls)
                object.__setattr__(out[k], "matrix", matrix)
                object.__setattr__(out[k], "tol", tol)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class DensityState(_Checked):
    """A density matrix: Hermitian, positive semidefinite, unit trace."""

    @staticmethod
    def _errors(stack, tols):
        return _state_errors(stack, tols)

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``_state_factor`` of this state, made and checked on first
        use; a factor that misses the state is not kept, so it raises on every
        use."""
        factor, delta = _state_factor(self)
        return frozen(factor), frozen(delta)


class Projector(_Checked):
    """An orthogonal projector: Hermitian and idempotent within ``tol``; a
    Heisenberg-lifted slot is checked as one stack (``_projector_errors``)."""

    @staticmethod
    def _errors(stack, tols):
        return _projector_errors(stack, tols)

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
