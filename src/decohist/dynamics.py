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
    SlotOutOfRangeError,
)
from .linalg import (
    DEFAULT_TOL,
    Projector,
    as_operator,
    frozen,
    hermiticity_deviation,
    require_square,
    unitarity_deviation,
)
from .resolutions import Resolution


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times with a designated present slot.

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


class DynamicsSpec:
    """Dynamics given either as a Hamiltonian or as per-interval step unitaries."""

    def __init__(self, hamiltonian=None, step_unitaries=None, tol: float = DEFAULT_TOL):
        if (hamiltonian is None) == (step_unitaries is None):
            raise ValueError("give exactly one of hamiltonian or step_unitaries")
        self.tol = tol
        if hamiltonian is not None:
            h = as_operator(hamiltonian)
            require_square(h)
            dev = hermiticity_deviation(h)
            if dev > tol:
                raise NotHermitianError(dev)
            self.hamiltonian = frozen(h)
            self.step_unitaries = None
        else:
            steps = []
            for u in step_unitaries:
                u = as_operator(u)
                dev = unitarity_deviation(u)
                if dev > tol:
                    raise NotUnitaryError(dev)
                steps.append(frozen(u))
            self.hamiltonian = None
            self.step_unitaries = tuple(steps)

    @classmethod
    def from_hamiltonian(cls, h, tol: float = DEFAULT_TOL) -> "DynamicsSpec":
        return cls(hamiltonian=h, tol=tol)

    @classmethod
    def from_steps(cls, steps, tol: float = DEFAULT_TOL) -> "DynamicsSpec":
        return cls(step_unitaries=steps, tol=tol)

    @classmethod
    def trivial(cls, dim: int) -> "DynamicsSpec":
        return cls(hamiltonian=np.zeros((dim, dim)))


def propagator(hamiltonian, dt: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i H dt) through the Hermitian eigendecomposition of H.

    Eigendecomposition (never series summation) keeps the result unitary to
    round-off at these dimensions.
    """
    h = as_operator(hamiltonian)
    require_square(h)
    dev = hermiticity_deviation(h)
    if dev > tol:
        raise NotHermitianError(dev)
    evals, evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


@dataclass(frozen=True, eq=False)
class DynamicsSchedule:
    """Cumulative unitaries from the reference slot to every slot of a grid."""

    grid: TimeGrid
    reference_index: int
    cumulative: tuple[np.ndarray, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0 <= self.reference_index < self.grid.n_slots:
            raise SlotOutOfRangeError(self.reference_index, self.grid.n_slots)
        if len(self.cumulative) != self.grid.n_slots:
            raise CountMismatchError(self.grid.n_slots, len(self.cumulative))
        mats = []
        dim = None
        for u in self.cumulative:
            u = as_operator(u)
            if dim is None:
                dim = require_square(u)
            elif u.shape[0] != dim:
                raise DimensionMismatchError("cumulative unitaries must share one dimension")
            dev = unitarity_deviation(u)
            if dev > self.tol:
                raise NotUnitaryError(dev)
            mats.append(frozen(u))
        ref_dev = float(np.max(np.abs(mats[self.reference_index] - np.eye(dim))))
        if ref_dev > self.tol:
            raise NotUnitaryError(ref_dev)
        object.__setattr__(self, "cumulative", tuple(mats))

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
    tol: float = DEFAULT_TOL,
    dim: int | None = None,
) -> DynamicsSchedule:
    """Compose cumulative unitaries along the grid.

    ``reference`` is the slot (position) where the state lives; it defaults
    to the earliest slot.  Slots before the reference use the adjoint
    composition, so the reference slot's unitary is the identity exactly.
    ``dim`` is only needed for the degenerate single-slot grid with an
    empty step list, which carries no dimension of its own.
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
            propagator(spec.hamiltonian, grid.times[k + 1] - grid.times[k], tol)
            for k in range(grid.n_slots - 1)
        ]

    cumulative: list[np.ndarray] = [None] * grid.n_slots
    cumulative[reference] = np.eye(dim, dtype=complex)
    for k in range(reference + 1, grid.n_slots):
        cumulative[k] = steps[k - 1] @ cumulative[k - 1]
    for k in range(reference - 1, -1, -1):
        cumulative[k] = steps[k].conj().T @ cumulative[k + 1]
    return DynamicsSchedule(grid, reference, tuple(cumulative), tol)


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
    lifted = Projector._from_stack(stack, [max(p.tol, 10 * DEFAULT_TOL) for p in projectors])
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
    return Resolution(list(zip(resolution.labels, lifted)), max(resolution.tol, 10 * DEFAULT_TOL))
