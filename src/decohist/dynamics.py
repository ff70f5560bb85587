"""Time grid, unitary propagation, and Heisenberg-picture projector lifts.

The schedule stores, for every slot, the cumulative unitary from a declared
reference slot; the Heisenberg lift of a projector at slot k is
U_k^dagger P U_k.  The reference slot is where the state is specified and
defaults to the earliest slot; it is recorded on the schedule so no picture
convention is ever implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CountMismatchError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
    ReferenceNotIdentityError,
    SlotOutOfRangeError,
)
from .linalg import (
    DEFAULT_TOL,
    Projector,
    _ReadOnly,
    _lift_tol,
    as_operator,
    frozen,
    hermiticity_deviation,
    require_square,
    unitarity_deviation,
)
from .resolutions import Resolution


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite times with a designated present slot.

    ``present_index`` is the position of the present time within ``times``;
    slot offsets (negative = past, 0 = present, positive = future) are
    positions relative to it.
    """

    times: tuple[float, ...]
    present_index: int

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) < 1:
            raise ValueError("a time grid needs at least one slot")
        if not np.isfinite(times).all():
            raise ValueError(f"times must be finite, got {list(times)}")
        for a, b in zip(times, times[1:]):
            if not a < b:
                raise ValueError(f"times must be strictly increasing, got {a} >= {b}")
        if not 0 <= self.present_index < len(times):
            raise SlotOutOfRangeError(self.present_index, len(times))
        object.__setattr__(self, "times", times)

    @property
    def n_slots(self) -> int:
        return len(self.times)

    def offsets(self) -> range:
        """Slot offsets relative to the present, earliest first."""
        return range(-self.present_index, self.n_slots - self.present_index)

    def position(self, offset: int) -> int:
        pos = offset + self.present_index
        if not 0 <= pos < self.n_slots:
            raise SlotOutOfRangeError(offset, self.n_slots)
        return pos

    def offset_of(self, position: int) -> int:
        if not 0 <= position < self.n_slots:
            raise SlotOutOfRangeError(position, self.n_slots)
        return position - self.present_index


def _unitaries(matrices, tol: float) -> tuple[np.ndarray, ...]:
    """``matrices`` as frozen arrays of one dimension, each checked in entry
    order to be unitary (max |U^dagger U - I| <= ``tol``)."""
    mats = []
    for m in matrices:
        u = as_operator(m)
        if mats and len(u) != len(mats[0]):
            raise DimensionMismatchError("unitaries must share one dimension")
        dev = unitarity_deviation(u)
        if dev > tol:
            raise NotUnitaryError(dev)
        mats.append(frozen(u))
    return tuple(mats)


def _hermitian(m) -> np.ndarray:
    """``m`` as a square array, checked to be Hermitian within ``DEFAULT_TOL``."""
    h = as_operator(m)
    require_square(h)
    dev = hermiticity_deviation(h)
    if dev > DEFAULT_TOL:
        raise NotHermitianError(dev)
    return h


@dataclass(frozen=True, eq=False, repr=False)
class DynamicsSpec(_ReadOnly):
    """Dynamics as a Hamiltonian or as per-interval step unitaries of one
    dimension, checked at ``DEFAULT_TOL`` as the schedule checks them."""

    hamiltonian: np.ndarray | None = None
    step_unitaries: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if (self.hamiltonian is None) == (self.step_unitaries is None):
            raise ValueError("give exactly one of hamiltonian or step_unitaries")
        if self.hamiltonian is not None:
            object.__setattr__(self, "hamiltonian", frozen(_hermitian(self.hamiltonian)))
        else:
            object.__setattr__(self, "step_unitaries", _unitaries(self.step_unitaries, DEFAULT_TOL))

    @classmethod
    def from_hamiltonian(cls, h) -> "DynamicsSpec":
        return cls(hamiltonian=h)

    @classmethod
    def from_steps(cls, steps) -> "DynamicsSpec":
        return cls(step_unitaries=steps)

    @classmethod
    def trivial(cls, dim: int) -> "DynamicsSpec":
        return cls(hamiltonian=np.zeros((dim, dim)))


def propagator(hamiltonian, dt: float) -> np.ndarray:
    """exp(-i H dt) through the Hermitian eigendecomposition of H, which must
    be Hermitian within ``DEFAULT_TOL``.

    Eigendecomposition (never series summation) keeps the result unitary to
    round-off at these dimensions.  Entries of H or H dt near the float range
    overflow; the result is then not finite and raises ``ValueError``.
    """
    h = _hermitian(hamiltonian)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        evals, evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        u = (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T
    if not np.isfinite(u).all():
        raise ValueError("propagator entries are not finite: H or a time step is too large")
    return u


@dataclass(frozen=True, eq=False)
class DynamicsSchedule(_ReadOnly):
    """Cumulative unitaries from the reference slot to every slot of a grid."""

    grid: TimeGrid
    reference_index: int
    cumulative: tuple[np.ndarray, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0 <= self.reference_index < self.grid.n_slots:
            raise SlotOutOfRangeError(self.reference_index, self.grid.n_slots)
        if len(self.cumulative) != self.grid.n_slots:
            raise CountMismatchError(
                self.grid.n_slots, len(self.cumulative), "cumulative unitaries, one per slot"
            )
        mats = _unitaries(self.cumulative, self.tol)
        ref_dev = float(np.max(np.abs(mats[self.reference_index] - np.eye(len(mats[0])))))
        if ref_dev > self.tol:
            raise ReferenceNotIdentityError(ref_dev)
        object.__setattr__(self, "cumulative", mats)

    @property
    def dim(self) -> int:
        return self.cumulative[0].shape[0]

    @property
    def n_slots(self) -> int:
        return self.grid.n_slots

    def unitary(self, slot: int) -> np.ndarray:
        if not 0 <= slot < self.n_slots:
            raise SlotOutOfRangeError(slot, self.n_slots)
        return self.cumulative[slot]


def build_schedule(
    grid: TimeGrid,
    spec: DynamicsSpec,
    reference: int | None = None,
    dim: int | None = None,
) -> DynamicsSchedule:
    """Compose cumulative unitaries along the grid.

    ``reference`` is the slot (position) where the state lives; it defaults
    to the earliest slot.  Slots before the reference use the adjoint
    composition, so the reference slot's unitary is the identity exactly.
    ``dim`` is only needed for the degenerate single-slot grid with an
    empty step list, which carries no dimension of its own.  To first order,
    k steps each within ``DEFAULT_TOL`` of unitary compose to within
    k d ``DEFAULT_TOL``, so the schedule checks its products at
    (n_slots - 1) d ``DEFAULT_TOL``, at least ``DEFAULT_TOL``.
    """
    if reference is None:
        reference = 0
    if not 0 <= reference < grid.n_slots:
        raise SlotOutOfRangeError(reference, grid.n_slots)

    if spec.step_unitaries is not None:
        if len(spec.step_unitaries) != grid.n_slots - 1:
            raise CountMismatchError(grid.n_slots - 1, len(spec.step_unitaries))
        steps = list(spec.step_unitaries)
        if steps:
            dim = steps[0].shape[0]
        elif dim is None:
            raise DimensionMismatchError(
                "an empty step list fixes no dimension; pass dim explicitly"
            )
    else:
        dim = spec.hamiltonian.shape[0]
        steps = [
            propagator(spec.hamiltonian, grid.times[k + 1] - grid.times[k])
            for k in range(grid.n_slots - 1)
        ]

    cumulative: list[np.ndarray] = [None] * grid.n_slots
    cumulative[reference] = np.eye(dim, dtype=complex)
    for k in range(reference + 1, grid.n_slots):
        cumulative[k] = steps[k - 1] @ cumulative[k - 1]
    for k in range(reference - 1, -1, -1):
        cumulative[k] = steps[k].conj().T @ cumulative[k + 1]
    schedule_tol = max(DEFAULT_TOL, (grid.n_slots - 1) * dim * DEFAULT_TOL)
    return DynamicsSchedule(grid, reference, tuple(cumulative), schedule_tol)


def _lift(
    schedule: DynamicsSchedule, slot: int, projectors: Sequence[Projector]
) -> tuple[np.ndarray, list[Projector]]:
    """The lift kernel: U_k^dagger P U_k for every projector at once, as one
    read-only ``(n, d, d)`` stack validated in one pass (the first failure
    raises).  Returns the stack and the lifted projectors, views of it."""
    u = schedule.unitary(slot)
    for projector in projectors:
        if projector.dim != u.shape[0]:
            raise DimensionMismatchError(
                f"projector dim {projector.dim} does not match schedule dim {u.shape[0]}"
            )
    stack = u.conj().T @ np.stack([p.matrix for p in projectors]) @ u
    lifted = Projector._from_stack(stack, [_lift_tol(p.tol) for p in projectors])
    for p in lifted:
        if isinstance(p, Exception):
            raise p
    return stack, lifted


def heisenberg_projector(
    schedule: DynamicsSchedule, slot: int, projector: Projector
) -> Projector:
    """Lift a projector to slot k: U_k^dagger P U_k.

    Unitary conjugation preserves Hermiticity and idempotence, so the result
    validates as a projector (with a mildly relaxed tolerance for round-off).
    This is the lift kernel ``_lift`` on a stack of one; a resolution and a
    family's slot are lifted through it as one stack each.
    """
    _, (lifted,) = _lift(schedule, slot, [projector])
    return lifted


def heisenberg_resolution(
    schedule: DynamicsSchedule, slot: int, resolution: Resolution
) -> Resolution:
    """Lift every projector of a resolution to slot k.

    Conjugation preserves orthogonality and completeness, so the lifted
    family is again a valid resolution.
    """
    _, lifted = _lift(schedule, slot, resolution.projectors)
    return Resolution(list(zip(resolution.labels, lifted)), _lift_tol(resolution.tol))
