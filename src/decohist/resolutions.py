"""Resolutions of the identity and labeled outcomes.

A Resolution is a pairwise-orthogonal, complete family of projectors at one
time.  A label is its position in the family, with an optional name, as a
history's alpha_k names the k-th projector of its set.  Outcomes are
non-empty sets of positions, never raw projectors, so the subset / union /
intersection structure is exact set arithmetic with no floating-point
comparisons.  Coarse-graining merges labels through a partition whose blocks
become the labels of the coarse resolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    NotCompleteError,
    NotOrthogonalError,
    PartitionBlockError,
    PartitionNotTotalError,
    ResolutionMismatchError,
    UnknownLabelError,
)
from .linalg import DEFAULT_TOL, _ReadOnly, _ldl, _lift_tol, _summed_tol
from .linalg import Projector, _basis_index, _is_a, _summed, as_operator, frozen, require_square


#: The most uncovered basis indices ``from_basis`` keeps in its
#: ``PartitionNotTotalError``: past this many it keeps the first ones and
#: counts the rest.
_NAMED_MAX = 4096


@dataclass(frozen=True)
class SpectralLabel:
    """An outcome label: its position in the resolution, optionally with a
    display name, a string.  The index is any integer but a bool, stored as
    an ``int``; a resolution refuses a label whose index is not its position."""

    index: int
    name: str | None = None

    def __post_init__(self):
        if not _is_a(self.index, Integral):
            raise TypeError(f"label index must be an integer, got {self.index!r}")
        if self.index < 0:
            raise ValueError(f"label index must be >= 0, got {self.index}")
        if self.name is not None and not isinstance(self.name, str):
            raise TypeError(f"label name must be a string, got {self.name!r}")
        object.__setattr__(self, "index", int(self.index))

    @property
    def display(self) -> str:
        return self.name if self.name is not None else str(self.index)


@dataclass(frozen=True, eq=False, init=False)
class Resolution(_ReadOnly):
    """A labeled, pairwise-orthogonal, complete family of projectors.

    The projectors are one read-only ``(n, d, d)`` stack, validated in one
    pass within ``tol`` (``Projector`` instances are kept as given): raw
    matrices as projectors, orthogonality (P_a P_b = 0 for a != b),
    completeness (sum = identity).  An input with several faults raises the
    first of: a matrix that is not a finite square 2-D array, no entries, a
    duplicate label or one whose index is not its position, differing
    dimensions, a raw matrix that is not Hermitian or else not idempotent, a
    non-orthogonal pair (row-major), incompleteness;
    within one kind, the first in entry order.  Instances compare by
    identity; outcomes are tied to the resolution object they were built
    against.
    """

    labels: tuple[SpectralLabel, ...]
    projectors: tuple[Projector, ...]
    dim: int
    tol: float
    _stack: np.ndarray
    _by_name: dict[str, int]

    def __init__(self, entries: Sequence[tuple], tol: float = DEFAULT_TOL):
        labels: list[SpectralLabel] = []
        projectors: list = []  # a raw matrix is replaced by its Projector below
        for pos, (label, proj) in enumerate(entries):
            if isinstance(label, str):
                label = SpectralLabel(pos, label)
            elif not isinstance(label, SpectralLabel):
                label = SpectralLabel(label)
            if not isinstance(proj, Projector):
                proj = as_operator(proj)
                require_square(proj)
            labels.append(label)
            projectors.append(proj)
        if not labels:
            raise ValueError("a resolution needs at least one projector")

        by_name: dict[str, int] = {}
        for k, lab in enumerate(labels):
            if lab.index < k:  # an earlier label holds that index
                raise DuplicateLabelError(lab.index)
            if lab.index > k:
                raise ValueError(
                    f"label {lab.display!r} has index {lab.index}, not its position {k}"
                )
            if lab.name is not None:
                if lab.name in by_name:
                    raise DuplicateLabelError(lab.name)
                by_name[lab.name] = k

        raw = [k for k, p in enumerate(projectors) if not isinstance(p, Projector)]
        matrices = [p.matrix if isinstance(p, Projector) else p for p in projectors]
        dim = matrices[0].shape[0]
        for m in matrices:
            if m.shape[0] != dim:
                raise DimensionMismatchError(
                    f"projector dimensions differ: {m.shape[0]} vs {dim}"
                )

        stack = np.array(matrices)
        if raw:
            # when every entry is raw, the projectors are views of the stack
            checked = stack if len(raw) == len(stack) else stack[raw]
            for k, proj in zip(raw, Projector._from_stack(checked, [tol] * len(raw))):
                if isinstance(proj, Exception):
                    raise proj
                projectors[k] = proj

        for i in range(len(stack) - 1):
            devs = np.abs(stack[i] @ stack[i + 1 :]).max(axis=(1, 2)).tolist()
            for j, dev in enumerate(devs, i + 1):
                if dev > tol:
                    raise NotOrthogonalError(labels[i].display, labels[j].display, dev)
        dev = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))
        if dev > tol:
            raise NotCompleteError(dev)

        vars(self).update(labels=tuple(labels), projectors=tuple(projectors), dim=dim)
        vars(self).update(tol=tol, _stack=frozen(stack), _by_name=by_name)

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """The projectors factored once for every family ending here, one at
        a time by ``linalg._ldl`` within its lift tolerance: P_a = F_a
        diag(delta_a) F_a^dagger.  Packed by rank, with no padding: the
        read-only ``(sum_a rank_a, d)`` stack of the rows of every
        F_a^dagger in label order, their pivots delta_a, and the s + 1
        offsets that bound label a's rows as ``offsets[a]:offsets[a + 1]``
        (an empty range for a zero projector).  A factor that misses is not
        kept: it raises on every use."""
        factors = [_ldl(p.matrix, _lift_tol(p.tol), "projector") for p in self.projectors]
        offsets = (0, *itertools.accumulate(len(delta) for _, delta in factors))
        left = np.concatenate([factor.conj().T for factor, _ in factors])
        pivots = np.concatenate([delta for _, delta in factors])
        return frozen(left), frozen(pivots), offsets

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        names = ", ".join(lab.display for lab in self.labels)
        return f"Resolution(dim={self.dim}, labels=[{names}])"

    def position(self, label) -> int:
        """Position of a label in this resolution: a name, a position (any
        integer but a bool) or a SpectralLabel, whose index is its position."""
        if isinstance(label, SpectralLabel):
            label = label.index
        if isinstance(label, str):
            if label not in self._by_name:
                raise UnknownLabelError(label)
            return self._by_name[label]
        if _is_a(label, Integral) and 0 <= label < self.size:
            return int(label)
        raise UnknownLabelError(label)

    def outcome(self, labels) -> "Outcome":
        """Build an Outcome from an iterable of labels (or a single label)."""
        if isinstance(labels, (Integral, str, SpectralLabel)):
            labels = [labels]
        return Outcome(self, frozenset(map(self.position, labels)))

    def full_outcome(self) -> "Outcome":
        """The trivial outcome containing every label."""
        return Outcome(self, frozenset(range(self.size)))


def make_resolution(entries: Sequence[tuple], tol: float = DEFAULT_TOL) -> Resolution:
    """Validate a list of (label, projector) pairs as a Resolution."""
    return Resolution(entries, tol)


def from_basis(
    dim: int,
    blocks: Sequence[Sequence[int]],
    names: Sequence[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> Resolution:
    """Resolution built from computational-basis projectors grouped in blocks.

    ``blocks`` partitions range(dim); each block becomes one projector, an
    empty one the zero projector.  A bad index, or one in two blocks, is
    refused by name.
    """
    owner: dict[int, int] = {}  # basis index -> the block holding it
    for k, block in enumerate(blocks):
        for i in block:
            i = _basis_index(i, dim)
            if i in owner:
                raise PartitionBlockError(k, f"basis index {i} is already in block {owner[i]}")
            owner[i] = k
    if len(owner) != dim:
        # a dimension may be far too large to list its indices: the uncovered
        # ones are found in order, and all of them kept up to _NAMED_MAX
        uncovered = (i for i in range(dim) if i not in owner)
        raise PartitionNotTotalError(
            set(itertools.islice(uncovered, _NAMED_MAX)), dim - len(owner)
        )
    if names is None:
        names = [None] * len(blocks)
    elif len(names) != len(blocks):
        raise DimensionMismatchError("one name per block required")
    stack = np.zeros((len(blocks), dim, dim), dtype=complex)
    for i, k in owner.items():
        stack[k, i, i] = 1.0
    return Resolution(list(zip(map(SpectralLabel, range(len(blocks)), names), stack)), tol)


@dataclass(frozen=True)
class Outcome:
    """A non-empty subset of a resolution's labels (stored as positions)."""

    resolution: Resolution
    labels: frozenset[int]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("an outcome must contain at least one label")
        for p in self.labels:
            if p not in range(self.resolution.size):
                raise UnknownLabelError(p)

    @property
    def is_full(self) -> bool:
        return len(self.labels) == self.resolution.size

    def sorted_labels(self) -> list[int]:
        return sorted(self.labels)

    def display_labels(self) -> list[str]:
        labels = self.resolution.labels
        return [labels[p].display for p in sorted(self.labels)]

    def __repr__(self) -> str:
        return f"Outcome({{{', '.join(self.display_labels())}}})"


def outcome_projector(resolution: Resolution, outcome: Outcome) -> Projector:
    """Sum of the projectors selected by an outcome (an orthogonal sum)."""
    if outcome.resolution is not resolution:
        raise ResolutionMismatchError("outcome was built for a different resolution")
    total = _summed(resolution._stack, outcome.sorted_labels())
    return Projector(total, _summed_tol(resolution.tol, len(outcome.labels)))


def _require_same_resolution(a: Outcome, b: Outcome) -> None:
    if a.resolution is not b.resolution:
        raise ResolutionMismatchError()


def outcome_subset(a: Outcome, b: Outcome) -> bool:
    _require_same_resolution(a, b)
    return a.labels <= b.labels


def outcome_union(a: Outcome, b: Outcome) -> Outcome:
    _require_same_resolution(a, b)
    return Outcome(a.resolution, a.labels | b.labels)


def outcome_intersection(a: Outcome, b: Outcome) -> Outcome | None:
    """Set intersection; ``None`` marks the empty intersection (probability 0
    downstream), which is not a valid Outcome."""
    _require_same_resolution(a, b)
    common = a.labels & b.labels
    if not common:
        return None
    return Outcome(a.resolution, common)


def normalize_partition(
    resolution: Resolution, partition
) -> list[tuple[str | int, list[int]]]:
    """Normalize a partition to an ordered list of (block id, label positions).

    The one reader of a partition: blocks given as a mapping from block id to
    labels (names, positions or SpectralLabels), or as a list whose block ids
    are their indices, in their given order.  Each block is a non-empty list,
    tuple, set or frozenset, each label known and in exactly one block; a
    fault names its block and the label as given (``PartitionBlockError``),
    uncovered labels their display names (``PartitionNotTotalError``).
    """
    blocks = partition.items() if isinstance(partition, Mapping) else enumerate(partition)
    normalized = []
    taken: set[int] = set()
    for block_id, members in blocks:
        if not isinstance(members, (list, tuple, set, frozenset)) or not members:
            raise PartitionBlockError(block_id, "expected a non-empty label list")
        positions = []
        for label in members:
            try:
                p = resolution.position(label)
            except UnknownLabelError as exc:
                raise PartitionBlockError(block_id, str(exc)) from None
            if p in taken:
                raise PartitionBlockError(block_id, f"label {label!r} assigned twice")
            taken.add(p)
            positions.append(p)
        normalized.append((block_id, positions))
    if len(taken) != resolution.size:
        missing = {lab.display for lab in resolution.labels if lab.index not in taken}
        raise PartitionNotTotalError(missing)
    return normalized


def coarsen(resolution: Resolution, partition) -> Resolution:
    """Merge a resolution's projectors along a partition of its labels.

    The partition is read by ``normalize_partition``: an empty block is
    refused, not dropped.  Block identifiers become the labels of the coarse
    resolution, in block order.
    """
    tol = resolution.tol
    normalized = normalize_partition(resolution, partition)
    sums = np.array([_summed(resolution._stack, members) for _, members in normalized])
    tols = [_summed_tol(tol, len(members)) for _, members in normalized]
    entries = []
    for k, ((block_id, _), proj) in enumerate(zip(normalized, Projector._from_stack(sums, tols))):
        if isinstance(proj, Exception):
            raise proj
        name = block_id if isinstance(block_id, str) else None
        entries.append((SpectralLabel(k, name), proj))
    return Resolution(entries, _summed_tol(tol, resolution.size))
