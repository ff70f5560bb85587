"""Sequential-measurement oracle.

Simulates measuring a history's outcome projectors one slot at a time in the
Schroedinger picture: evolve the state to the slot, apply P rho P, record the
step probability, renormalize, continue.  The cumulative product equals the
chain-operator probability of the same history, which makes this module the
differential-testing oracle for the history engine.

Nothing here touches Heisenberg-lifted projectors or chain operators; the
only shared input is the dynamics schedule itself, so agreement with the
engine validates the picture conventions end to end.

By Lueders' rule the state after slot k depends only on the outcomes up to
k.  Each call therefore keeps its steps for its family object, and the next
call on that object resumes after the prefix of slot label sets the two
histories share: a lexicographic sweep over a family's fine histories makes
one step per distinct prefix.  Calls on a fresh family object, or on
histories that differ at the first slot, start from the state.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHistoryError, ZeroConditionProbabilityError
from .histories import History, HistoryFamily, ZERO_THRESHOLD
from .linalg import DEFAULT_TOL, DensityState
from .resolutions import Outcome

#: Steps with conditional probability at or below this are treated as
#: impossible: the Lueders update is undefined on a zero state, and the
#: renormalized matrix is roundoff noise long before the probability
#: underflows.
ZERO_STEP = 1e-14


@dataclass(frozen=True)
class StepRecord:
    """One measurement step: which outcome, how likely, what state remained."""

    offset: int
    labels: tuple[str, ...]
    probability: float
    post_state: DensityState | None


@dataclass(frozen=True)
class MeasurementTrace:
    """Per-slot records plus the cumulative probability of the full history."""

    steps: tuple[StepRecord, ...]
    probability: float
    truncated: bool

    def step_product(self) -> float:
        out = 1.0
        for s in self.steps:
            out *= s.probability
        return out


def _outcome_matrix(family: HistoryFamily, pos: int, outcome: Outcome) -> np.ndarray:
    """Raw (Schroedinger-picture) outcome projector at a slot."""
    res = family.resolutions[pos]
    total = np.zeros((family.dim, family.dim), dtype=complex)
    for idx in outcome.sorted_labels():
        total = total + res.projector_for(idx).matrix
    return total


def _step(
    family: HistoryFamily, pos: int, outcome: Outcome, rho: np.ndarray
) -> StepRecord:
    """Evolve ``rho`` (the state after slot ``pos - 1``) to slot ``pos`` and
    measure ``outcome`` there: P rho P, its trace, the renormalized state."""
    u = family.schedule.unitary(pos)
    if pos == 0:
        step_u = u
    else:
        step_u = u @ family.schedule.unitary(pos - 1).conj().T
    rho = step_u @ rho @ step_u.conj().T

    p_out = _outcome_matrix(family, pos, outcome)
    projected = p_out @ rho @ p_out
    prob = float(np.trace(projected).real)
    prob = min(max(prob, 0.0), 1.0) if -1e-12 <= prob <= 1.0 + 1e-12 else prob
    offset = family.offset_of(pos)
    labels = tuple(outcome.display_labels())

    if prob <= ZERO_STEP:
        return StepRecord(offset, labels, 0.0, None)

    rho = projected / prob
    rho = 0.5 * (rho + rho.conj().T)
    # roundoff in P rho P is absolute; after dividing by a small step
    # probability the relative noise floor grows accordingly
    state_tol = max(DEFAULT_TOL, 1e-13 / prob)
    return StepRecord(offset, labels, prob, DensityState(rho, state_tol))


#: The last trace computed for each live family: the label set measured at
#: each slot it reached, and its step records.  Families compare by identity
#: and are held weakly: an entry dies with its family and holds at most
#: n_slots d x d post-states.  An entry is replaced whole, never edited.
_last_trace: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sequential_probability(
    family: HistoryFamily, history: History
) -> tuple[float, MeasurementTrace]:
    """Probability of a history by repeated projective conditioning.

    Returns the product of step probabilities and the full trace; a zero
    step short-circuits to probability 0 with a truncated trace.

    Steps shared with the previous call on the same family object (the
    longest common prefix of slot label sets) are taken from that call, not
    recomputed.
    """
    if history.family is not family:
        raise InvalidHistoryError("history was built for a different family")

    labels = tuple(outcome.labels for outcome in history.outcomes)
    done, steps = _last_trace.get(family, ((), ()))
    shared = 0
    while shared < len(done) and done[shared] == labels[shared]:
        shared += 1
    steps = list(steps[:shared])

    for pos in range(len(steps), family.n_slots):
        if steps and steps[-1].post_state is None:
            break  # a zero step, shared or new, ends the trace
        rho = steps[-1].post_state.matrix if steps else family.state.matrix
        steps.append(_step(family, pos, history.outcomes[pos], rho))

    _last_trace[family] = (labels[: len(steps)], tuple(steps))
    cumulative = math.prod(s.probability for s in steps)
    truncated = len(steps) < family.n_slots
    return cumulative, MeasurementTrace(tuple(steps), cumulative, truncated)


def _combine_label_maps(family: HistoryFamily, a: History, b: History) -> History:
    """Slotwise label-set intersection of two histories."""
    spec = {}
    for off in family.offsets():
        labels = a.outcome_at(off).labels & b.outcome_at(off).labels
        if not labels:
            raise InvalidHistoryError("conditional parts select disjoint outcomes")
        spec[off] = sorted(labels)
    return family.history(spec)


def conditional_via_oracle(
    family: HistoryFamily, target: History, given: History
) -> float:
    """Ratio of sequential probabilities: joint over condition.

    ``target`` and ``given`` must split the slots the way the conditionals
    do: either future against past-and-present, or past against present
    alone.  Matches the predictive conditional exactly and the retrodictive
    conditional in its unnormalized form.
    """
    if target.family is not family or given.family is not family:
        raise InvalidHistoryError("histories were built for a different family")

    target_support = {off for off in family.offsets() if not target.is_trivial_at(off)}
    given_support = {off for off in family.offsets() if not given.is_trivial_at(off)}
    predictive_split = all(o >= 1 for o in target_support) and all(
        o <= 0 for o in given_support
    )
    retrodictive_split = all(o <= -1 for o in target_support) and given_support <= {0}
    if not (predictive_split or retrodictive_split):
        raise InvalidHistoryError(
            "target and given must split the slots at the present"
        )

    given_prob, _ = sequential_probability(family, given)
    if given_prob <= ZERO_THRESHOLD:
        raise ZeroConditionProbabilityError(given_prob, ZERO_THRESHOLD)
    joint = _combine_label_maps(family, target, given)
    joint_prob, _ = sequential_probability(family, joint)
    return joint_prob / given_prob
