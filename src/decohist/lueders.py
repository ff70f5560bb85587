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
state.  One step (``_steps``) therefore evolves a stack of such states once,
projects a stack of label sets in one product, and renormalizes and
validates the live post-states as one stack.  Each family object keeps, for
every slot on its last path, a level: the records measured there, keyed by
their parent label set at the slot before, each parent's children pairwise
disjoint and the parents too, so at most size_(k-1) * size_k post-states
at slot k.  The next call on that object reuses the records along the
longest prefix of slot label sets it shares with the path and the level
after it, and fills a parent with no children with every fine label of its
slot at once (a coarse label set is measured alone).  A call whose fine
history comes right after the previous call's in lexicographic order reads
ahead: each level it fills also gets the children of every later live
sibling of its parent, in the same step, as the sweep needs them next.  Any
other call measures only its own parents' children, so sparse access does
not pay for the read-ahead.  A lexicographic sweep over a family's fine
histories thus measures each prefix once, in one batched step per level it
fills (8 for a 4 x 4 x 4 family, against 21 proper prefixes).  Calls on a
fresh family object start from the state.
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
    entry = _last_trace.get(family)
    if entry is None:
        u = [family.schedule.unitary(pos) for pos in range(family.n_slots)]
        steps = [u[0], *(later @ earlier.conj().T for earlier, later in zip(u, u[1:]))]
        res = family.resolutions
        fine = [np.array([_summed(r._stack, [p]) for p in range(r.size)]) for r in res]
        names = [tuple(label.display for label in r.labels) for r in res]
        entry = _last_trace[family] = ((), (), tuple(zip(steps, fine, names)), ())
    return entry[2]


def _steps(
    family: HistoryFamily, pos: int, label_sets, rho: np.ndarray
) -> list[StepRecord | Exception]:
    """Evolve ``rho`` (the state after slot ``pos - 1``, or a ``(P, d, d)``
    stack of P such states) to slot ``pos`` once and measure ``label_sets``
    there: P rho P, its trace, the renormalized state.  The sets go to the
    states in turn, ``len(label_sets) // P`` each, and every state measures
    the same sets.

    Entry k is the record of ``label_sets[k]``, or the error its post-state
    failed validation with; the states are evolved as one stack, and every
    post-state is validated in one more.
    """
    step, fine, names = _slots(family)[pos]
    stack = rho.reshape(-1, *rho.shape[-2:])
    stack = step @ stack @ step.conj().T

    # raw (Schroedinger-picture) outcome projectors, each summed in position
    # order as outcome_projector sums them by _summed: the fine ones, made
    # by _summed and never -0.0, give the same bits
    orders = [sorted(labels) for labels in label_sets[: len(label_sets) // len(stack)]]
    p_out = fine[[order[0] for order in orders]]
    for k, order in enumerate(orders):
        for p in order[1:]:
            p_out[k] += fine[p]
    projected = (p_out @ stack[:, np.newaxis] @ p_out).reshape(-1, *stack.shape[1:])
    orders *= len(stack)
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


def _successor_slot(family: HistoryFamily, last: tuple, labels: tuple) -> int | None:
    """The slot where fine history ``labels`` follows fine history ``last``
    in lexicographic order, its labels after that slot all first ones, or
    None when ``labels`` is not the one right after ``last``."""
    if not last or any(len(s) > 1 for s in (*last, *labels)):
        return None
    pos = len(last) - 1
    while pos >= 0 and min(last[pos]) == family.shape[pos] - 1:
        pos -= 1
    if pos < 0 or labels[:pos] != last[:pos] or min(labels[pos]) != min(last[pos]) + 1:
        return None
    return pos if all(min(s) == 0 for s in labels[pos + 1 :]) else None


def _measure(
    family: HistoryFamily, pos: int, labels: tuple, levels: list, rho: np.ndarray, last: tuple
) -> StepRecord:
    """Measure ``labels[pos]`` at slot ``pos`` from ``rho``, the state after
    its parent ``labels[pos - 1]``, and add its record to the parent's
    children in ``levels[pos]``.

    A parent with no children yet gets every fine label of the slot when
    ``labels[pos]`` is fine; otherwise ``labels[pos]`` is measured alone.
    When ``labels`` follows the previous call's fine history ``last`` in
    lexicographic order and differs from it before ``pos``, the children of
    every later live fine sibling of the parent that has none yet, which
    the sweep reaches next, are measured in the same step.  A child whose
    post-state fails validation stays out, so asking for it measures it
    alone and raises.
    """
    parent, level = (labels[pos - 1] if pos else None), levels[pos]
    parents, states = [parent], [rho]
    if level.get(parent) or len(labels[pos]) > 1:
        batch = [labels[pos]]
    else:
        batch = [frozenset((p,)) for p in range(family.resolutions[pos].size)]
        after = _successor_slot(family, last, labels) if pos else None
        if after is not None and pos > after:
            siblings = levels[pos - 1][labels[pos - 2] if pos > 1 else None]
            for sibling, step in siblings.items():
                later = len(sibling) == 1 and min(sibling) > min(parent)
                if later and step.post_state is not None and not level.get(sibling):
                    parents.append(sibling)
                    states.append(step.post_state.matrix)
    results = _steps(family, pos, batch * len(parents), np.array(states))
    for k, key in enumerate(parents):
        measured = {
            s: r for s, r in zip(batch, results[k * len(batch) :]) if isinstance(r, StepRecord)
        }
        # a level's parents, and each parent's children, stay pairwise
        # disjoint: at most size_(pos - 1) * size_pos post-states
        for old in [p for p in level if p is not None and p != key and p & key]:
            del level[old]
        children = level.setdefault(key, {})
        for old in [s for s in children if any(s & new for new in measured)]:
            del children[old]
        children.update(measured)
    record = results[batch.index(labels[pos])]
    if isinstance(record, Exception):
        raise record
    return record


#: For each live family: the last path computed, the label set measured at
#: each slot it reached; for each of those slots (and for the slot whose
#: step failed, if one did) its level, a dict from parent label set (that of
#: the slot before, None at the first slot) to a dict from child label set
#: to step record; its ``_slots``; and the last history's label sets.  Level
#: k was measured after the path's labels before slot k - 1, so it holds at
#: most size_(k-1) * size_k post-states, and at most sum_k size_(k-1) size_k
#: in all.  Families compare by identity and are held weakly: an entry dies
#: with its family.  A path is replaced whole; a level on it only gains
#: parents and children or swaps out ones that overlap them, all measured
#: from the same states.
_last_trace: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sequential_probability(
    family: HistoryFamily, history: History
) -> tuple[float, MeasurementTrace]:
    """Probability of a history by repeated projective conditioning.

    Returns the product of step probabilities and the full trace; a zero
    step short-circuits to probability 0 with a truncated trace.

    Steps are read from the levels of the previous call on the same family
    object, which stay valid up to the slot after the first slot where the
    two histories' label sets differ; a parent with no children there is
    one batched step, which measures every fine sibling of a fine outcome at
    once.  When the history is the fine one right after the previous call's
    in lexicographic order, that step also measures the children of every
    later sibling of the parent, which the sweep reaches next: so a sweep
    makes one step per level to fill, not one per prefix.  Each evolution
    to a slot is done once per prefix, and the post-states of a step are
    validated as one stack.  The memo holds at most
    sum_k size_(k-1) size_k post-states per family object and does not keep
    the family alive.
    """
    if history.family is not family:
        raise InvalidHistoryError("history was built for a different family")

    labels = tuple(outcome.labels for outcome in history.outcomes)
    slots = _slots(family)
    path, levels, _, last = _last_trace[family]
    shared = 0
    while shared < len(path) and path[shared] == labels[shared]:
        shared += 1
    # the levels up to the one after the first differing slot were measured
    # after shared prefixes
    levels = list(levels[: shared + 2])

    steps: list[StepRecord] = []
    try:
        for pos in range(len(slots)):
            if steps and steps[-1].post_state is None:
                break  # a zero step, shared or new, ends the trace
            if pos == len(levels):
                levels.append({})
            record = levels[pos].get(labels[pos - 1] if pos else None, {}).get(labels[pos])
            if record is None:
                rho = steps[-1].post_state.matrix if steps else family.state.matrix
                record = _measure(family, pos, labels, levels, rho, last)
            steps.append(record)
    finally:
        # after a failed step the path ends before its slot, whose level
        # keeps the children that passed
        _last_trace[family] = (labels[: len(steps)], tuple(levels[: len(steps) + 1]), slots, labels)
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
