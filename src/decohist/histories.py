"""Histories, chain operators, probabilities, conditionals, and the
decoherence functional.

A history family couples a dynamics schedule, one resolution per time slot,
and a state given at the schedule's reference slot.  A history assigns one
outcome per slot; its chain operator is the ordered product of
Heisenberg-lifted outcome projectors with the latest slot leftmost, and its
probability is Tr(C rho C^dagger).

Fine-grained histories (one label per slot) are enumerated lexicographically
with the earliest slot most significant and labels in resolution order; the
decoherence functional and every witness index refer to that order.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .dynamics import DynamicsSchedule, _lift
from .errors import (
    DimensionMismatchError,
    FamilyMismatchError,
    FamilyTooLargeError,
    InvalidHistoryError,
    ZeroConditionProbabilityError,
)
from .linalg import DensityState, frozen, hermiticity_deviation
from .linalg import _state_factor  # noqa: F401  (re-exported)
from .resolutions import Outcome, Resolution, coarsen, outcome_intersection

log = logging.getLogger(__name__)

#: Probabilities this close to 0 or 1 (from outside the interval) are snapped
#: to the bound; conditionals must never return values like 1 + 1e-15.
CLAMP_TOL = 1e-9

#: Conditioning on a probability at or below this threshold is an error.
ZERO_THRESHOLD = 1e-12

#: Default cap on the number of fine-grained histories per family.
DEFAULT_FAMILY_CAP = 4096


def _clamp_unit(value: float, tol: float = CLAMP_TOL) -> float:
    """Snap values within ``tol`` outside [0, 1] back onto the bound."""
    if -tol <= value < 0.0:
        log.debug("clamping %.17g to 0", value)
        return 0.0
    if 1.0 < value <= 1.0 + tol:
        log.debug("clamping %.17g to 1", value)
        return 1.0
    return value


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """Product space of per-slot resolutions with dynamics and a state."""

    schedule: DynamicsSchedule
    resolutions: tuple[Resolution, ...]
    state: DensityState

    def __post_init__(self):
        resolutions = tuple(self.resolutions)
        if len(resolutions) != self.schedule.n_slots:
            raise InvalidHistoryError(
                f"need one resolution per slot: {len(resolutions)} given for "
                f"{self.schedule.n_slots} slots"
            )
        dim = self.schedule.dim
        for k, res in enumerate(resolutions):
            if res.dim != dim:
                raise DimensionMismatchError(
                    f"resolution at slot {k} has dim {res.dim}, schedule has {dim}"
                )
        if self.state.dim != dim:
            raise DimensionMismatchError(
                f"state has dim {self.state.dim}, schedule has {dim}"
            )
        object.__setattr__(self, "resolutions", resolutions)

    @property
    def dim(self) -> int:
        return self.schedule.dim

    @property
    def n_slots(self) -> int:
        return self.schedule.n_slots

    @property
    def shape(self) -> tuple[int, ...]:
        """Per-slot resolution sizes, earliest slot first."""
        return tuple(res.size for res in self.resolutions)

    @property
    def n_fine_histories(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def offsets(self) -> range:
        return self.schedule.grid.offsets()

    def position(self, offset: int) -> int:
        return self.schedule.grid.position(offset)

    def offset_of(self, position: int) -> int:
        return self.schedule.grid.offset_of(position)

    def resolution_at(self, offset: int) -> Resolution:
        return self.resolutions[self.position(offset)]

    @cached_property
    def _lifted(self) -> tuple[np.ndarray, ...]:
        """Heisenberg-lifted fine projector matrices, one read-only
        ``(size, d, d)`` stack per slot position, each made and validated
        at once by the lift kernel ``dynamics._lift``."""
        return tuple(
            _lift(self.schedule, pos, res.projectors)[0]
            for pos, res in enumerate(self.resolutions)
        )

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``_gram_rows`` of the family's own state.

        ``decoherence_functional``, ``fine_probabilities`` and
        ``check_additivity`` share them, so the state is factored and the
        rows built once per family; they stay alive with the family
        (N x d*r complex entries for a rank-r state).
        """
        rows, weights = _gram_rows(self, self.state)
        return frozen(rows), frozen(weights)

    def history(self, spec: Mapping[int, object] | None = None) -> "History":
        """Build a History from a map of slot offset to labels.

        Slots missing from ``spec`` get the trivial full-label outcome.
        """
        outcomes = []
        spec = dict(spec) if spec else {}
        known = set(self.offsets())
        for off in spec:
            if off not in known:
                raise InvalidHistoryError(f"slot offset {off} not in family range")
        for pos, res in enumerate(self.resolutions):
            off = self.offset_of(pos)
            if off in spec:
                outcomes.append(res.outcome(spec[off]))
            else:
                outcomes.append(res.full_outcome())
        return History(self, tuple(outcomes))

    def fine_histories(self) -> Iterator["History"]:
        """All fine-grained histories in lexicographic order."""
        label_lists = [
            [res.outcome(lab.index) for lab in res.labels] for res in self.resolutions
        ]
        for combo in itertools.product(*label_lists):
            yield History(self, tuple(combo))

    def with_state(self, state: DensityState) -> "HistoryFamily":
        return HistoryFamily(self.schedule, self.resolutions, state)


@dataclass(frozen=True, eq=False)
class History:
    """One outcome per slot of a family (multi-label outcomes are coarse)."""

    family: HistoryFamily
    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if len(outcomes) != self.family.n_slots:
            raise InvalidHistoryError(
                f"need one outcome per slot: {len(outcomes)} given for "
                f"{self.family.n_slots} slots"
            )
        for pos, out in enumerate(outcomes):
            if out.resolution is not self.family.resolutions[pos]:
                raise InvalidHistoryError(
                    f"outcome at slot position {pos} belongs to a different resolution"
                )
        object.__setattr__(self, "outcomes", outcomes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self.family is other.family and all(
            a.labels == b.labels for a, b in zip(self.outcomes, other.outcomes)
        )

    def __hash__(self) -> int:
        return hash((id(self.family), tuple(o.labels for o in self.outcomes)))

    @property
    def is_fine(self) -> bool:
        return all(len(o.labels) == 1 for o in self.outcomes)

    def outcome_at(self, offset: int) -> Outcome:
        return self.outcomes[self.family.position(offset)]

    def is_trivial_at(self, offset: int) -> bool:
        return self.outcome_at(offset).is_full

    def labels_by_offset(self) -> dict[int, list[str]]:
        return {
            self.family.offset_of(pos): out.display_labels()
            for pos, out in enumerate(self.outcomes)
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{off}: {labels}" for off, labels in self.labels_by_offset().items()
        )
        return f"History({parts})"


def _require_same_family(family: HistoryFamily, h: History) -> None:
    if h.family is not family:
        raise FamilyMismatchError("history was built for a different family")


def _lifted_outcome(family: HistoryFamily, pos: int, outcome: Outcome) -> np.ndarray:
    """Heisenberg-lifted outcome projector (sum of lifted fine projectors)."""
    table = family._lifted[pos]
    res = family.resolutions[pos]
    total = np.zeros((family.dim, family.dim), dtype=complex)
    for idx in outcome.sorted_labels():
        total = total + table[res.position(idx)]
    return total


def chain_operator(family: HistoryFamily, history: History) -> np.ndarray:
    """Ordered product of lifted outcome projectors, latest slot leftmost."""
    _require_same_family(family, history)
    chain = _lifted_outcome(family, 0, history.outcomes[0])
    for pos in range(1, family.n_slots):
        chain = _lifted_outcome(family, pos, history.outcomes[pos]) @ chain
    return chain


def history_probability(
    family: HistoryFamily, history: History, clamp: bool = True
) -> float:
    """Tr(C rho C^dagger) for the history's chain operator C.

    Values within CLAMP_TOL outside [0, 1] are snapped to the bound unless
    ``clamp`` is false (diagnostics want the raw number).
    """
    chain = chain_operator(family, history)
    raw = float(np.sum((chain @ family.state.matrix) * chain.conj()).real)
    return _clamp_unit(raw) if clamp else raw


def _gram_rows(
    family: HistoryFamily, state: DensityState
) -> tuple[np.ndarray, np.ndarray]:
    """Rows V_i = vec(C_i L) and weights w with D = (V w) V^dagger.

    ``L`` and ``delta`` factor ``state`` and ``w`` tiles ``delta`` along each
    row, so D_ij = Tr(C_i rho C_j^dagger) = sum_k V_ik w_k conj(V_jk).
    """
    factor, delta = state._factor
    # slot by slot, latest slot leftmost: histories sharing a prefix share
    # its product C L, so the build costs O(N d^2 r)
    first, *later = family._lifted
    rows = first @ factor
    for table in later:
        rows = table @ rows[..., None, :, :]
    return rows.reshape(family.n_fine_histories, -1), np.tile(delta, family.dim)


def fine_probabilities(family: HistoryFamily) -> np.ndarray:
    """Probabilities of all fine histories, lexicographic order (unclamped)."""
    n = family.n_fine_histories
    if n > DEFAULT_FAMILY_CAP:
        raise FamilyTooLargeError(n, DEFAULT_FAMILY_CAP)
    rows, weights = family._gram
    return (rows.real**2 + rows.imag**2) @ weights


@dataclass(frozen=True, eq=False)
class DecoherenceFunctional:
    """Matrix of Tr(C_i rho C_j^dagger) over the fine histories of a family.

    Hermitian, positive semidefinite, and unit trace within ``tol``; the
    diagonal holds the fine-history probabilities.  The engine builds D as
    the Gram form V Delta V^dagger from a factor of the state, which is PSD
    by construction; only matrices passed to this constructor get the
    eigenvalue check.
    """

    histories: tuple[History, ...]
    matrix: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if not np.all(np.isfinite(m)):
            # NaN would pass every ``> tol`` check below
            raise InvalidHistoryError("decoherence functional entries must be finite")
        self._settle(self.histories, m, psd=True)

    @classmethod
    def _from_gram(cls, histories, matrix: np.ndarray, tol: float):
        """Wrap an engine-built Gram matrix, skipping the eigenvalue check."""
        dfunc = object.__new__(cls)
        object.__setattr__(dfunc, "tol", tol)
        dfunc._settle(histories, matrix, psd=False)
        return dfunc

    def _settle(self, histories, m: np.ndarray, psd: bool) -> None:
        """Validate ``m``, which this instance now owns; freeze and store it."""
        n = len(histories)
        if m.shape != (n, n):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match {n} histories"
            )
        dev = hermiticity_deviation(m)
        if dev > self.tol:
            raise InvalidHistoryError(
                f"decoherence functional is not Hermitian: deviation {dev:.3e}"
            )
        if psd:
            lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
            if lo < -self.tol:
                raise InvalidHistoryError(
                    f"decoherence functional is not PSD: min eigenvalue {lo:.3e}"
                )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > self.tol:
            raise InvalidHistoryError(
                f"decoherence functional trace {tr} differs from 1"
            )
        d = np.diagonal(m)
        if float(np.max(np.abs(d.imag))) > self.tol or float(np.min(d.real)) < -self.tol:
            raise InvalidHistoryError("diagonal entries must be real and nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "histories", tuple(histories))

    @property
    def n(self) -> int:
        return len(self.histories)

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real


def decoherence_functional(
    family: HistoryFamily,
    cap: int = DEFAULT_FAMILY_CAP,
    tol: float = 1e-9,
) -> DecoherenceFunctional:
    """Full decoherence functional over the family's fine histories."""
    n = family.n_fine_histories
    if n > cap:
        raise FamilyTooLargeError(n, cap)
    return _gram_dfunc(family._gram, tuple(family.fine_histories()), tol)


def _gram_dfunc(
    gram: tuple[np.ndarray, np.ndarray],
    histories: tuple[History, ...],
    tol: float = 1e-9,
) -> DecoherenceFunctional:
    """D = (V w) V^dagger from ``_gram_rows``' rows V and weights w."""
    rows, weights = gram
    matrix = (rows * weights) @ rows.conj().T
    return DecoherenceFunctional._from_gram(histories, matrix, tol)


# ---------------------------------------------------------------------------
# Conditionals.  Both public entry points share one code path: a ratio of two
# chain-operator probabilities, where the condition is a contiguous slot
# range ending at the present.


def _require_trivial_outside(history: History, keep, what: str) -> None:
    for off in history.family.offsets():
        if not keep(off) and not history.is_trivial_at(off):
            raise InvalidHistoryError(
                f"{what} history must be trivial at slot offset {off}"
            )


def _combine(a: History, b: History) -> History:
    """Componentwise intersection of two histories with disjoint support."""
    joint = history_intersection(a, b)
    if joint is None:
        raise InvalidHistoryError("conditional parts select disjoint outcomes")
    return joint


def _conditional_ratio(family: HistoryFamily, joint: History, given: History) -> float:
    den = history_probability(family, given, clamp=False)
    if den <= ZERO_THRESHOLD:
        raise ZeroConditionProbabilityError(den, ZERO_THRESHOLD)
    num = history_probability(family, joint, clamp=False)
    return _clamp_unit(num / den)


def predictive_conditional(
    family: HistoryFamily, future: History, given: History
) -> float:
    """Probability of future outcomes given the present and the past.

    ``future`` carries outcomes only at offsets >= 1, ``given`` only at
    offsets <= 0.  Always in [0, 1] and, over all fine futures with the
    condition fixed, sums to 1 whether or not the family is consistent.
    """
    _require_same_family(family, future)
    _require_same_family(family, given)
    _require_trivial_outside(future, lambda off: off >= 1, "future")
    _require_trivial_outside(given, lambda off: off <= 0, "given")
    joint = _combine(future, given)
    return _conditional_ratio(family, joint, given)


def retrodictive_conditional(
    family: HistoryFamily, past: History, present: Outcome
) -> float:
    """Probability of past outcomes conditional on the present alone.

    The denominator is the probability of the present-only history.  The
    result is neither guaranteed to stay below 1 nor to sum to 1 over pasts
    unless the family is consistent.
    """
    joint, given, _ = _retrodiction(family, past, present)
    return _conditional_ratio(family, joint, given)


def retrodictive_normalized(
    family: HistoryFamily, past: History, present: Outcome
) -> float:
    """Retrodictive probability with the summed denominator.

    The denominator is the sum, over all fine-grained pasts, of the joint
    probability with the present outcome; over fine pasts the values lie in
    [0, 1] and sum to 1 with no consistency assumption.  A coarse ``past``
    keeps the chain-operator numerator and may exceed 1 for inconsistent
    families.
    """
    joint, _, present = _retrodiction(family, past, present)
    den = _summed_past_denominator(family, present)
    if den <= ZERO_THRESHOLD:
        raise ZeroConditionProbabilityError(den, ZERO_THRESHOLD)
    num = history_probability(family, joint, clamp=False)
    return _clamp_unit(num / den)


def _retrodiction(family: HistoryFamily, past: History, present) -> tuple:
    """The joint and the present-only history, and the present as an Outcome."""
    _require_same_family(family, past)
    _require_trivial_outside(past, lambda off: off <= -1, "past")
    res = family.resolution_at(0)
    if not isinstance(present, Outcome):
        present = res.outcome(present)
    elif present.resolution is not res:
        raise InvalidHistoryError("present outcome belongs to a different resolution")
    given = family.history({0: present.sorted_labels()})
    return _combine(past, given), given, present


def _summed_past_denominator(family: HistoryFamily, present: Outcome) -> float:
    """Sum of joint probabilities over every fine-grained past."""
    past_offsets = [off for off in family.offsets() if off < 0]
    label_lists = [
        [lab.index for lab in family.resolution_at(off).labels] for off in past_offsets
    ]
    total = 0.0
    for combo in itertools.product(*label_lists):
        spec: dict[int, object] = {0: present.sorted_labels()}
        spec.update({off: idx for off, idx in zip(past_offsets, combo)})
        total += history_probability(family, family.history(spec), clamp=False)
    return total


# ---------------------------------------------------------------------------
# History algebra: componentwise set operations on outcomes.


@dataclass(frozen=True)
class UndefinedUnion:
    """Marker for a componentwise union that is not the true set union.

    Componentwise union of product sets equals the union of the history sets
    only when the inputs differ in at most one slot; elsewhere the union is
    reported undefined rather than approximated.
    """

    differing_offsets: tuple[int, ...]

    @property
    def reason(self) -> str:
        return (
            "histories differ at slots "
            + ", ".join(str(o) for o in self.differing_offsets)
            + "; componentwise union is not their set union"
        )


def _require_pair(a: History, b: History) -> None:
    if a.family is not b.family:
        raise FamilyMismatchError()


def history_subset(a: History, b: History) -> bool:
    """Componentwise outcome inclusion."""
    _require_pair(a, b)
    return all(oa.labels <= ob.labels for oa, ob in zip(a.outcomes, b.outcomes))


def history_intersection(a: History, b: History) -> History | None:
    """Componentwise intersection; ``None`` when any slot empties."""
    _require_pair(a, b)
    outcomes = []
    for oa, ob in zip(a.outcomes, b.outcomes):
        common = outcome_intersection(oa, ob)
        if common is None:
            return None
        outcomes.append(common)
    return History(a.family, tuple(outcomes))


def history_union(a: History, b: History) -> History | UndefinedUnion:
    """Componentwise union where it equals the true set union.

    Defined when the histories differ in at most one slot; otherwise an
    UndefinedUnion marker names the offending slots.
    """
    _require_pair(a, b)
    differing = [
        a.family.offset_of(pos)
        for pos, (oa, ob) in enumerate(zip(a.outcomes, b.outcomes))
        if oa.labels != ob.labels
    ]
    if len(differing) > 1:
        return UndefinedUnion(tuple(differing))
    outcomes = tuple(
        Outcome(oa.resolution, oa.labels | ob.labels)
        for oa, ob in zip(a.outcomes, b.outcomes)
    )
    return History(a.family, outcomes)


def coarsen_slot(family: HistoryFamily, offset: int, partition) -> HistoryFamily:
    """Replace one slot's resolution with its coarsening along a partition."""
    pos = family.position(offset)
    resolutions = list(family.resolutions)
    resolutions[pos] = coarsen(resolutions[pos], partition)
    return HistoryFamily(family.schedule, tuple(resolutions), family.state)
