"""Resolutions of the identity and labeled outcomes.

A Resolution is a pairwise-orthogonal, complete family of projectors at one
time.  Outcomes are non-empty label subsets, never raw projectors, so the
subset / union / intersection structure is exact set arithmetic with no
floating-point comparisons.  Coarse-graining merges labels through a
Partition whose blocks become the labels of the coarse resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    NotCompleteError,
    NotOrthogonalError,
    PartitionNotTotalError,
    ResolutionMismatchError,
    UnknownLabelError,
)
from .linalg import DEFAULT_TOL, _summed_tol
from .linalg import Projector, _summed, as_operator, frozen, require_square


@dataclass(frozen=True)
class SpectralLabel:
    """An outcome label: a non-negative index, optionally with a display name."""

    index: int
    name: str | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"label index must be >= 0, got {self.index}")

    @property
    def display(self) -> str:
        return self.name if self.name is not None else str(self.index)


class Resolution:
    """A labeled, pairwise-orthogonal, complete family of projectors.

    The projectors are one read-only ``(n, d, d)`` stack, validated in one
    pass within ``tol`` (``Projector`` instances are kept as given): raw
    matrices as projectors, orthogonality (P_a P_b = 0 for a != b),
    completeness (sum = identity).  An input with several faults raises the
    first of: a matrix that is not a finite square 2-D array, no entries, a
    duplicate label, differing dimensions, a raw matrix that is not Hermitian
    or else not idempotent, a non-orthogonal pair (row-major), incompleteness;
    within one kind, the first in entry order.  Instances compare by
    identity; outcomes are tied to the resolution object they were built
    against.
    """

    def __init__(self, entries: Sequence[tuple], tol: float = DEFAULT_TOL):
        labels: list[SpectralLabel] = []
        projectors: list = []  # a raw matrix is replaced by its Projector below
        for pos, (label, proj) in enumerate(entries):
            if isinstance(label, str):
                label = SpectralLabel(pos, label)
            elif not isinstance(label, SpectralLabel):
                label = SpectralLabel(int(label))
            if not isinstance(proj, Projector):
                proj = as_operator(proj)
                require_square(proj)
            labels.append(label)
            projectors.append(proj)
        if not labels:
            raise ValueError("a resolution needs at least one projector")

        by_index: dict[int, int] = {}
        by_name: dict[str, int] = {}
        for k, lab in enumerate(labels):
            if lab.index in by_index:
                raise DuplicateLabelError(lab.index)
            by_index[lab.index] = k
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

        self._labels = tuple(labels)
        self._projectors = tuple(projectors)
        self._stack = frozen(stack)
        self._dim = dim
        self._tol = tol
        self._by_index = by_index
        self._by_name = by_name

    @property
    def labels(self) -> tuple[SpectralLabel, ...]:
        return self._labels

    @property
    def projectors(self) -> tuple[Projector, ...]:
        return self._projectors

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def tol(self) -> float:
        return self._tol

    @property
    def size(self) -> int:
        return len(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        names = ", ".join(lab.display for lab in self._labels)
        return f"Resolution(dim={self._dim}, labels=[{names}])"

    def position(self, label) -> int:
        """Position of a label (SpectralLabel, index, or name) in this resolution."""
        if isinstance(label, SpectralLabel):
            label = label.index
        if isinstance(label, str):
            if label not in self._by_name:
                raise UnknownLabelError(label)
            return self._by_name[label]
        if isinstance(label, int) and not isinstance(label, bool):
            if label not in self._by_index:
                raise UnknownLabelError(label)
            return self._by_index[label]
        raise UnknownLabelError(label)

    def outcome(self, labels) -> "Outcome":
        """Build an Outcome from an iterable of labels (or a single label)."""
        if isinstance(labels, (int, str, SpectralLabel)):
            labels = [labels]
        idx = frozenset(self._labels[self.position(l)].index for l in labels)
        return Outcome(self, idx)

    def full_outcome(self) -> "Outcome":
        """The trivial outcome containing every label."""
        return Outcome(self, frozenset(lab.index for lab in self._labels))


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

    ``blocks`` is a partition of range(dim); each block becomes one projector.
    """
    covered = [i for b in blocks for i in b]
    if sorted(covered) != list(range(dim)):
        raise PartitionNotTotalError(set(range(dim)) - set(covered))
    if names is not None and len(names) != len(blocks):
        raise DimensionMismatchError("one name per block required")
    entries = []
    for k, block in enumerate(blocks):
        name = names[k] if names is not None else None
        p = np.zeros((dim, dim), dtype=complex)
        p[block, block] = 1.0
        entries.append((SpectralLabel(k, name), p))
    return Resolution(entries, tol)


@dataclass(frozen=True)
class Outcome:
    """A non-empty subset of a resolution's labels (stored as indices)."""

    resolution: Resolution
    labels: frozenset[int]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("an outcome must contain at least one label")
        for idx in self.labels:
            if idx not in self.resolution._by_index:
                raise UnknownLabelError(idx)

    @property
    def is_full(self) -> bool:
        return len(self.labels) == self.resolution.size

    def sorted_labels(self) -> list[int]:
        return sorted(self.labels)

    def display_labels(self) -> list[str]:
        labels = self.resolution.labels
        return [labels[p].display for p in sorted(map(self.resolution.position, self.labels))]

    def __repr__(self) -> str:
        return f"Outcome({{{', '.join(self.display_labels())}}})"


def outcome_projector(resolution: Resolution, outcome: Outcome) -> Projector:
    """Sum of the projectors selected by an outcome (an orthogonal sum)."""
    if outcome.resolution is not resolution:
        raise ResolutionMismatchError("outcome was built for a different resolution")
    positions = [resolution.position(idx) for idx in outcome.sorted_labels()]
    total = _summed(resolution._stack, positions)
    return Projector(total, _summed_tol(resolution.tol, len(positions)))


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
    """Normalize a partition to an ordered list of (block id, label indices).

    Accepts a mapping label -> block id, a mapping block id -> label list, or
    a plain list of label lists.  Labels may be given as indices or names.
    Blocks keep first-appearance order; each fine label must be covered
    exactly once.
    """
    order: list = []
    blocks: dict = {}

    def add(block_id, label):
        idx = resolution.labels[resolution.position(label)].index
        if block_id not in blocks:
            blocks[block_id] = []
            order.append(block_id)
        blocks[block_id].append(idx)

    if isinstance(partition, Mapping):
        values = list(partition.values())
        if values and all(isinstance(v, (list, tuple, set, frozenset)) for v in values):
            for block_id, members in partition.items():
                for label in members:
                    add(block_id, label)
        else:
            for label, block_id in partition.items():
                add(block_id, label)
    else:
        for k, members in enumerate(partition):
            for label in members:
                add(k, label)

    seen: list[int] = [i for b in order for i in blocks[b]]
    all_idx = {lab.index for lab in resolution.labels}
    if len(seen) != len(set(seen)):
        dupes = {i for i in seen if seen.count(i) > 1}
        raise DuplicateLabelError(sorted(dupes)[0])
    missing = all_idx - set(seen)
    if missing:
        raise PartitionNotTotalError(missing)
    return [(b, blocks[b]) for b in order]


def coarsen(resolution: Resolution, partition) -> Resolution:
    """Merge a resolution's projectors along a partition of its labels.

    Block identifiers become the labels of the coarse resolution, ordered by
    first appearance.
    """
    tol = resolution.tol
    normalized = normalize_partition(resolution, partition)
    sums = np.array([
        _summed(resolution._stack, [resolution.position(idx) for idx in members])
        for _, members in normalized
    ])
    tols = [_summed_tol(tol, len(members)) for _, members in normalized]
    entries = []
    for k, ((block_id, _), proj) in enumerate(zip(normalized, Projector._from_stack(sums, tols))):
        if isinstance(proj, Exception):
            raise proj
        name = block_id if isinstance(block_id, str) else None
        entries.append((SpectralLabel(k, name), proj))
    return Resolution(entries, _summed_tol(tol, resolution.size))
