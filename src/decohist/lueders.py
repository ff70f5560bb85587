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
k, so every sibling outcome at slot k + 1 is measured on the same evolved
state.  One step (``_steps``) therefore evolves that state once, projects a
stack of label sets in one product, and renormalizes and validates the live
post-states as one stack.  Each family object keeps, for every slot on its
last path, a level: the records of the sibling label sets measured there,
pairwise disjoint, so at most sum_k size_k post-states per family.  The
next call on that object reuses the records along the longest prefix of
slot label sets it shares with the path, looks up its label set at the
first differing slot among that slot's siblings, and measures the slots
after it as new levels, each filled with every fine label of its slot at
once (a coarse label set is measured alone).  A lexicographic sweep over a
family's fine histories thus evolves the state once per distinct proper
prefix, in one batched step each.  Calls on a fresh family object start
from the state.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHistoryError, ZeroConditionProbabilityError
from .histories import History, HistoryFamily, history_intersection
from .linalg import DEFAULT_TOL, PROJECTION_ROUNDOFF, STEP_CLAMP, ZERO_STEP, ZERO_THRESHOLD
from .linalg import DensityState, _summed


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


def _slots(family: HistoryFamily) -> tuple[tuple, ...]:
    """Per slot, from the schedule and the raw projectors: the step unitary
    U_k U_(k-1)^dagger (U_0 at the first slot), each fine projector as
    ``_summed`` makes it and the labels' display names.  Made once per
    family, into its ``_last_trace`` entry."""
    if family not in _last_trace:
        u = [family.schedule.unitary(pos) for pos in range(family.n_slots)]
        steps = [u[0], *(later @ earlier.conj().T for earlier, later in zip(u, u[1:]))]
        res = family.resolutions
        fine = [np.array([_summed(r._stack, [p]) for p in range(r.size)]) for r in res]
        names = [tuple(label.display for label in r.labels) for r in res]
        _last_trace[family] = ((), (), tuple(zip(steps, fine, names)))
    return _last_trace[family][2]


def _steps(
    family: HistoryFamily, pos: int, label_sets, rho: np.ndarray
) -> list[StepRecord | Exception]:
    """Evolve ``rho`` (the state after slot ``pos - 1``) to slot ``pos`` once
    and measure each of ``label_sets`` there: P rho P, its trace, the
    renormalized state.

    Entry k is the record of ``label_sets[k]``, or the error its post-state
    failed validation with; the post-states are validated as one stack.
    """
    step, fine, names = _slots(family)[pos]
    rho = step @ rho @ step.conj().T

    # raw (Schroedinger-picture) outcome projectors, each summed in position
    # order as outcome_projector sums them by _summed: the fine ones, made
    # by _summed and never -0.0, give the same bits
    orders = [sorted(labels) for labels in label_sets]
    p_out = fine[[order[0] for order in orders]]
    for k, order in enumerate(orders):
        for p in order[1:]:
            p_out[k] += fine[p]
    projected = p_out @ rho @ p_out
    probs = np.trace(projected, axis1=1, axis2=2).real.tolist()
    live = []
    for k, prob in enumerate(probs):
        if -STEP_CLAMP <= prob <= 1.0 + STEP_CLAMP:
            probs[k] = prob = min(max(prob, 0.0), 1.0)
        if not prob <= ZERO_STEP:
            live.append(k)

    states: dict[int, DensityState | Exception] = {}
    if live:
        if len(live) < len(probs):
            projected = projected[live]
        post = projected / np.array([probs[k] for k in live])[:, None, None]
        post = 0.5 * (post + post.conj().transpose(0, 2, 1))
        # roundoff in P rho P is absolute; after dividing by a small step
        # probability the relative noise floor grows accordingly
        tols = [max(DEFAULT_TOL, PROJECTION_ROUNDOFF / probs[k]) for k in live]
        states = dict(zip(live, DensityState._from_stack(post, tols)))

    offset = family.offset_of(pos)
    out: list[StepRecord | Exception] = []
    for k, order in enumerate(orders):
        state = states.get(k)
        if isinstance(state, Exception):
            out.append(state)
            continue
        display = tuple(names[p] for p in order)
        out.append(StepRecord(offset, display, probs[k] if state is not None else 0.0, state))
    return out


def _record(
    family: HistoryFamily, pos: int, labels: frozenset, level: dict, rho: np.ndarray
) -> StepRecord:
    """The record of ``labels`` at slot ``pos``, read from ``level`` (its
    siblings measured from ``rho``) or measured and added to it.

    An empty level is filled with every fine label of the slot when
    ``labels`` is fine; otherwise ``labels`` is measured alone.  A sibling
    whose post-state fails validation stays out of the level, so asking for
    it measures it alone and raises.
    """
    record = level.get(labels)
    if record is not None:
        return record
    if level or len(labels) > 1:
        batch = [labels]
    else:
        batch = [frozenset((p,)) for p in range(family.resolutions[pos].size)]
    results = _steps(family, pos, batch, rho)
    measured = {s: r for s, r in zip(batch, results) if isinstance(r, StepRecord)}
    # a level's label sets stay pairwise disjoint: at most the slot's size
    for old in [s for s in level if any(s & new for new in measured)]:
        del level[old]
    level.update(measured)
    record = results[batch.index(labels)]
    if isinstance(record, Exception):
        raise record
    return record


#: For each live family: the last path computed, the label set measured at
#: each slot it reached; for each of those slots (and for the slot whose
#: step failed, if one did) its level, a dict from sibling label set to step
#: record; and its ``_slots``.  A level's label sets are pairwise disjoint,
#: so an entry holds at most sum_k size_k d x d post-states.
#: Families compare by identity and are held weakly: an entry dies with its
#: family.  A path is replaced whole; a level on it only gains siblings or
#: swaps out ones that overlap them, all measured from the same state.
_last_trace: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sequential_probability(
    family: HistoryFamily, history: History
) -> tuple[float, MeasurementTrace]:
    """Probability of a history by repeated projective conditioning.

    Returns the product of step probabilities and the full trace; a zero
    step short-circuits to probability 0 with a truncated trace.

    Steps are read from the levels of the previous call on the same family
    object up to and including the first slot where the two histories'
    label sets differ; below that each slot is one batched step, which
    measures every fine sibling of a fine outcome at once.  Each evolution
    to a slot is done once per prefix, and the post-states of a step are
    validated as one stack.  The memo holds at most sum_k size_k
    post-states per family object and does not keep the family alive.
    """
    if history.family is not family:
        raise InvalidHistoryError("history was built for a different family")

    labels = tuple(outcome.labels for outcome in history.outcomes)
    slots = _slots(family)
    path, levels, _ = _last_trace[family]
    shared = 0
    while shared < len(path) and path[shared] == labels[shared]:
        shared += 1
    # levels up to the first differing slot were measured from shared states
    levels = list(levels[: shared + 1])

    steps: list[StepRecord] = []
    try:
        for pos in range(len(slots)):
            if steps and steps[-1].post_state is None:
                break  # a zero step, shared or new, ends the trace
            rho = steps[-1].post_state.matrix if steps else family.state.matrix
            if pos == len(levels):
                levels.append({})
            steps.append(_record(family, pos, labels[pos], levels[pos], rho))
    finally:
        # after a failed step the path ends before its slot, whose level
        # keeps the siblings that passed
        _last_trace[family] = (labels[: len(steps)], tuple(levels[: len(steps) + 1]), slots)
    cumulative = math.prod(s.probability for s in steps)
    truncated = len(steps) < len(slots)
    return cumulative, MeasurementTrace(tuple(steps), cumulative, truncated)


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
    # slotwise label-set intersection: set algebra, no shared numerics
    joint = history_intersection(target, given)
    joint_prob, _ = sequential_probability(family, joint)
    return joint_prob / given_prob
