"""Consistency and additivity checks over history families.

Four checks, each returning a structured report with the worst violation and
the witness achieving it:

* weak: off-diagonal real parts of the decoherence functional vanish
  (probabilities of unions add up);
* medium: off-diagonal moduli vanish (strictly implies weak);
* additivity: union probabilities match sums of fine probabilities, over
  history pairs differing in one slot or over single-slot coarsenings; such
  a union has chain operator C_a + C_b, so each discrepancy sums off-diagonal
  Re D entries in the slot's fiber (histories agreeing at every other slot);
* robustness: a chosen check passes for every state in a (seeded or
  user-supplied) state set.

All four read the Gram rows of the fine histories, one block per label of
the last slot (``histories._gram_rows``), through the strip kernel that
makes each block of D as (V_a w_a) V_a^dagger (``histories._gram_strips``).
Weak and medium scan D; additivity makes each slot's fiber blocks of D, in
one pass over the slots for both scopes, from one copy of the rows
reordered with the slot second to last; robustness builds the rows once per
state and makes one scan of that state's strips of D, never all of D, for
its worst value, where it lies and its trace.

Histories that differ at the last slot never interfere: their chain
operators end in orthogonal projectors of a validated resolution, which is
treated as exactly orthogonal (``histories`` bounds what that drops).  So
the engine's D is zero outside the blocks D[a::s, a::s] of an s-outcome last
slot; weak, medium and robustness scan only those blocks, and both
additivity scopes count the last slot's candidates as exact zeros, in
enumeration order, without building its fiber.  With s > 1 and no nonzero
entry, the witness is the first pair (0, 1).  A matrix given to the
``DecoherenceFunctional`` constructor is one block and is scanned in full.

Reports are deterministic: identical inputs and seed give identical
violations and witnesses (ties broken by enumeration order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .histories import (
    DecoherenceFunctional,
    HistoryFamily,
    _BELOW,
    _FineHistories,
    _check_trace,
    _gram_rows,
    _gram_strips,
    _require_cap,
    _strip_ranges,
)
from .linalg import DEFAULT_CHECK_TOL, DFUNC_TOL, DensityState
from .sampling import robustness_states

DEFAULT_ROBUSTNESS_SEED = 1729
DEFAULT_ROBUSTNESS_COUNT = 20

#: Resolutions larger than this get a seeded sample of partitions instead of
#: the exhaustive two-block enumeration.
PARTITION_EXHAUSTIVE_MAX = 8
PARTITION_SAMPLE_SIZE = 64


@dataclass(frozen=True)
class ConsistencyReport:
    mode: str
    passed: bool
    worst_violation: float
    witness: dict | None
    tolerance: float
    seed: int | None = None

    def __post_init__(self):
        if self.passed != (self.worst_violation <= self.tolerance):
            raise ValueError("passed must match worst_violation <= tolerance")


def _report(mode, worst, witness, tol, seed=None) -> ConsistencyReport:
    # a numpy scalar would make ``passed`` a numpy.bool_ and reach the report
    worst, tol, seed = float(worst), float(tol), None if seed is None else int(seed)
    return ConsistencyReport(mode, worst <= tol, worst, witness, tol, seed)


def _pair_witness(i: int, j: int, first: dict, second: dict, **slot) -> dict:
    """A pair witness; ``slot=offset``, when given, goes after the indices."""
    return {"kind": "pair", "indices": [int(i), int(j)], **slot, "first": first, "second": second}


def _offdiag_scan(strips, mode: str, s: int) -> tuple[float, tuple[int, int] | None]:
    """Largest ``_MAGNITUDE[mode]`` of an entry above the diagonal and where.

    ``strips`` yields ``(b, top, strip)`` as ``histories._gram_strips`` does:
    rows ``top:`` of last-slot blocks ``b:`` of D or of conj(D) (same
    magnitudes) on and right of the block diagonal, where block a of ``s``
    holds D[a::s, a::s] and D is zero outside the blocks.  Only each block's
    strict upper triangle is read, as D is Hermitian; the magnitudes go into
    one reused buffer the size of the first strip.  A maximum wins a tie only
    from an earlier row-major position of D, so the position is D's row-major
    first maximum.  Fewer than two rows give (0.0, None); with s > 1, no
    nonzero entry gives (0.0, (0, 1)), the first entry above the diagonal.
    """
    worst, at, buffer = -1.0, None, None
    for b, top, strip in strips:
        h, rows, width = strip.shape[0], strip.shape[1], strip.shape[2] - 1
        if not width:  # a last strip of one row has nothing right of the diagonal
            continue
        if buffer is None:  # the first strip is the largest
            buffer = np.empty(h * rows * width)
        # mag[:, i, j] is at row top + i, column top + 1 + j of each block
        mag = _MAGNITUDE[mode](strip[:, :, 1:], buffer[: h * rows * width].reshape(h, rows, width))
        # the strip's entries on or below the diagonal fill its leading
        # corner's strict lower triangle; -1 never wins
        corner = mag[:, :, :rows]
        np.copyto(corner, -1.0, where=_BELOW[:rows, : corner.shape[2]])
        # the strip's first maximum in D's row-major order: row top + r of
        # block b + o is row (top + r) s + b + o of D, so rows go by (r, o)
        r, k = divmod(int(np.argmax(mag.transpose(1, 0, 2))), h * width)
        o, c = divmod(k, width)
        peak, i, j = float(mag[o, r, c]), (top + r) * s + b + o, (top + 1 + c) * s + b + o
        if peak > worst or (peak == worst and (i, j) < at):
            worst, at = peak, (i, j)
    if s > 1 and worst <= 0.0:
        return 0.0, (0, 1)
    return (0.0, None) if at is None else (worst, at)


#: The entry magnitude each off-diagonal check bounds, by mode, into ``out``.
_MAGNITUDE = {
    "weak": lambda m, out: np.abs(np.multiply(m.real, 2.0, out=out), out=out),
    "medium": lambda m, out: np.abs(m, out=out),
}

#: The checks ``check_state_robustness`` can run with each state.
_INNER_MODES = (*_MAGNITUDE, "additivity")


def _offdiag_check(dfunc: DecoherenceFunctional, tol: float, mode: str) -> ConsistencyReport:
    blocks = dfunc._stack
    s, m = blocks.shape[:2]
    strips = (
        (b, top, blocks[b : b + h, top : top + t, top:]) for b, h, top, t in _strip_ranges(s, m)
    )
    worst, at = _offdiag_scan(strips, mode, s)
    if at is None:
        return _report(mode, worst, None, tol)
    first, second = (dfunc.histories[k].labels_by_offset() for k in at)
    return _report(mode, worst, _pair_witness(*at, first, second), tol)


def check_weak_consistency(
    dfunc: DecoherenceFunctional, tol: float = DEFAULT_CHECK_TOL
) -> ConsistencyReport:
    """Largest |2 Re D[i][j]| over distinct history pairs."""
    return _offdiag_check(dfunc, tol, "weak")


def check_medium_decoherence(
    dfunc: DecoherenceFunctional, tol: float = DEFAULT_CHECK_TOL
) -> ConsistencyReport:
    """Largest |D[i][j]| over distinct history pairs; implies the weak check."""
    return _offdiag_check(dfunc, tol, "medium")


# ---------------------------------------------------------------------------
# Additivity of union probabilities, read from fiber blocks of D.


def _fiber(family: HistoryFamily, rows: np.ndarray, weights: np.ndarray, pos: int) -> np.ndarray:
    """Re G[r, a, b] = Re Tr(C_(a,r) rho C_(b,r)^dagger) over the labels a, b
    of slot ``pos`` (not the last) and the other slots' labels r, in
    lexicographic order.

    The strip kernel writes conj(G), of the same real part, from one copy of
    the ``(s, M, K)`` block rows reordered with the slot second to last, so
    fibers come by last label first, each with its label's weights, and are
    put in lexicographic order at the end.  Past TILE labels a strip starts
    at its diagonal, so its part right of the corner is mirrored below it,
    as D's assembly does.
    """
    s, k = len(rows), rows.shape[-1]
    v = np.moveaxis(rows.reshape(s, *family.shape[:-1], k), 1 + pos, -2)
    v = v.reshape(-1, *v.shape[-2:])
    size = v.shape[1]
    blocks = np.empty((len(v), size, size), dtype=complex)
    for b, top, strip in _gram_strips(v, np.repeat(weights, len(v) // s, axis=0), out=blocks):
        h, t = strip.shape[:2]
        blocks[b : b + h, top + t :, top : top + t] = strip[:, :, t:].transpose(0, 2, 1)
    return blocks.real.reshape(s, -1, size, size).transpose(1, 0, 2, 3).reshape(-1, size, size)


def _slot_worst(family, gram, violations, witness) -> tuple[float, dict | None]:
    """The largest entry of ``violations(pos, size, fiber)`` over the slots of
    two or more labels and ``witness(pos, size, flat)`` of its first flat
    index, or (0.0, None).  Each fiber is freed before the next is made.  The
    last slot's labels never interfere, so its fiber, exactly zero, is not
    made: its largest entry is 0.0 at flat index 0, the first candidate.
    """
    rows, weights = gram
    worst, best = -1.0, None
    for pos, size in enumerate(family.shape):
        if size < 2:
            continue
        value, flat = 0.0, 0
        if pos < family.n_slots - 1:
            viol = violations(pos, size, _fiber(family, rows, weights, pos))
            flat = int(np.argmax(viol))
            value = float(viol.flat[flat])
        if value > worst:
            worst, best = value, (pos, size, flat)
    return (0.0, None) if best is None else (worst, witness(*best))


def _fine_labels(family: HistoryFamily, flat: int) -> dict[int, list[str]]:
    """Labels by offset of fine history ``flat`` in lexicographic order."""
    return _FineHistories(family)[flat].labels_by_offset()


def _pairs_scope(family, gram, tol, seed) -> ConsistencyReport:
    def violations(pos, size, fiber):
        # rows in label-pair order, columns over the other slots' labels
        a, b = np.triu_indices(size, k=1)
        return np.abs(2.0 * fiber[:, a, b].T)

    def witness(pos, size, flat):
        pair, r = divmod(flat, family.n_fine_histories // size)
        a, b = np.triu_indices(size, k=1)
        index = np.moveaxis(np.arange(family.n_fine_histories).reshape(family.shape), pos, -1)
        i, j = index.reshape(-1, size)[r, [a[pair], b[pair]]]
        first, second = _fine_labels(family, i), _fine_labels(family, j)
        return _pair_witness(i, j, first, second, slot=family.offset_of(pos))

    return _report("additivity", *_slot_worst(family, gram, violations, witness), tol)


def _candidate_count(size: int) -> int:
    """Merging partitions with at most two blocks: the full merge, then every
    two-block split except two singletons (which merges nothing)."""
    return 2 ** (size - 1) if size > 2 else size - 1


def _candidate_partition(size: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Candidate ``k`` as position blocks: 0 is the full merge, k >= 1 the
    split whose first block holds position 0 and p + 1 for each bit p of k - 1."""
    if k == 0:
        return (tuple(range(size)),)
    block = (0, *(p + 1 for p in range(size - 1) if ((k - 1) >> p) & 1))
    return block, tuple(p for p in range(size) if p not in block)


def _picks(size: int, seed: int) -> np.ndarray | range | list[int]:
    """The candidates tried at a slot of ``size`` labels: all of them, or
    above PARTITION_EXHAUSTIVE_MAX a sorted sample drawn from ``seed``.  A
    count past int64 (64 labels or more) is sampled as ``size - 1`` random
    bits per candidate, until PARTITION_SAMPLE_SIZE distinct ones are drawn."""
    count = _candidate_count(size)
    if size <= PARTITION_EXHAUSTIVE_MAX:
        return range(count)
    rng = np.random.default_rng(seed)
    if count <= np.iinfo(np.int64).max:
        return np.sort(rng.choice(count, size=min(PARTITION_SAMPLE_SIZE, count), replace=False))
    picks: set[int] = set()
    while len(picks) < PARTITION_SAMPLE_SIZE:
        picks.add(int("".join(map(str, rng.integers(0, 2, size - 1))), 2))
    return sorted(picks)


def _partitions_scope(family, gram, tol, seed) -> ConsistencyReport:
    seed = DEFAULT_ROBUSTNESS_SEED if seed is None else seed
    picks = {size: _picks(size, seed) for size in set(family.shape)}

    def violations(pos, size, fiber):
        candidates = [_candidate_partition(size, int(k)) for k in picks[size]]
        masks = np.zeros((len(candidates), 2, size))
        for k, blocks in enumerate(candidates):
            for c, block in enumerate(blocks):
                masks[k, c, list(block)] = 1.0
        # coarse minus summed fine probability of each block, per coarse
        # history: the block's off-diagonal Re G entries
        off = fiber * (1.0 - np.eye(size))
        diff = np.abs(np.einsum("kca,rab,kcb->krc", masks, off, masks))
        # candidate-major, then coarse flat order with the slot split in
        # two; a full merge's empty second block is all zero, so its first
        # maximum is in its first block
        before = math.prod(family.shape[:pos])
        return diff.reshape(len(candidates), before, -1, 2).transpose(0, 1, 3, 2)

    def witness(pos, size, flat):
        # candidate k, then coarse history ``flat`` with slot ``pos`` split in two
        k, flat = divmod(flat, 2 * family.n_fine_histories // size)
        blocks = _candidate_partition(size, int(picks[size][k]))
        res = family.resolutions[pos]
        names: list[str] = []  # the labels ``coarsen_slot`` would give the blocks
        for block in blocks:
            name = "+".join(res.labels[p].display for p in block)
            while name in names:  # label names may themselves contain '+'
                name += "'"
            names.append(name)
        index = np.unravel_index(flat, (*family.shape[:pos], 2, *family.shape[pos + 1 :]))
        coarse_history = {
            family.offset_of(q): [names[i] if q == pos else r.labels[i].display]
            for q, (r, i) in enumerate(zip(family.resolutions, index))
        }
        return {
            "kind": "partition",
            "slot": family.offset_of(pos),
            "blocks": [[res.labels[p].display for p in block] for block in blocks],
            "coarse_history": coarse_history,
        }

    worst, found = _slot_worst(family, gram, violations, witness)
    # the seed is reported when some slot's candidates are a sample of it
    sampled = max(family.shape) > PARTITION_EXHAUSTIVE_MAX
    return _report("additivity", worst, found, tol, seed=seed if sampled else None)


#: Additivity scope -> its check of (family, Gram rows, tol, seed).
SCOPES = {"pairs": _pairs_scope, "partitions": _partitions_scope}


def _scope(scope: str):
    if not isinstance(scope, str) or scope not in SCOPES:
        raise ValueError(f"unknown additivity scope {scope!r}")
    return SCOPES[scope]


def check_additivity(
    family: HistoryFamily,
    tol: float = DEFAULT_CHECK_TOL,
    scope: str = "partitions",
    seed: int | None = None,
) -> ConsistencyReport:
    """Union probabilities versus sums of fine probabilities.

    ``scope='pairs'`` tests every fine-history pair differing in exactly one
    slot (where the union is a history); ``scope='partitions'`` coarsens one
    slot at a time by every at-most-two-block partition and compares coarse
    probabilities against block-sums of fine ones.  Both read the
    discrepancies off one-slot fiber blocks of D, built from the family's
    cached Gram rows, which ``decoherence_functional`` and
    ``fine_probabilities`` on the same family object reuse.
    """
    _require_cap(family)
    additivity = _scope(scope)  # before the rows are built
    return additivity(family, family._gram, tol, seed)


# ---------------------------------------------------------------------------
# Robustness on variation of the state.


def check_state_robustness(
    family: HistoryFamily,
    states: Sequence[DensityState] | None = None,
    count: int = DEFAULT_ROBUSTNESS_COUNT,
    seed: int = DEFAULT_ROBUSTNESS_SEED,
    mode: str = "weak",
    tol: float = DEFAULT_CHECK_TOL,
    scope: str = "partitions",
) -> ConsistencyReport:
    """Run a check with each state substituted into the family.

    Passes only if every state passes; the witness names the state index
    achieving the worst violation together with the inner witness.  When no
    explicit states are given, ``count`` normalized Wishart states are drawn
    from ``seed``.  Each state's Gram rows are built from that state's
    factor as for the family's own state, once per state, and every inner
    mode reads them: weak and medium make one scan of that state's strips of
    D for its worst value, where it lies and D's trace, which is then
    checked; additivity reads its fibers.
    """
    _require_cap(family)
    if mode not in _INNER_MODES:
        raise ValueError(f"unknown inner mode {mode!r}")
    additivity = _scope(scope)
    used_seed: int | None = None
    if states is None:
        states = robustness_states(family.dim, count, seed)
        used_seed = seed
    if not states:
        raise ValueError("robustness needs at least one state")
    for state in states:
        if state.dim != family.dim:
            raise DimensionMismatchError(
                f"state has dim {state.dim}, schedule has {family.dim}"
            )

    s = family.shape[-1]

    def scan(state):
        # the worst value and inner witness (weak and medium: where, labelled
        # below for the worst state only); the rows die before the next state's
        rows, weights = _gram_rows(family, state)
        if mode == "additivity":
            inner = additivity(family, (rows, weights), tol, seed)
            return inner.worst_violation, inner.witness
        trace = []

        def strips():  # D's trace is summed from the diagonals the strips hold
            for b, top, strip in _gram_strips(rows, weights):
                trace.append(np.trace(strip, axis1=1, axis2=2).real.sum())
                yield b, top, strip

        found = _offdiag_scan(strips(), mode, s)
        _check_trace(float(sum(trace)), DFUNC_TOL)
        return found

    worst = -1.0
    best = None
    for idx, state in enumerate(states):
        violation, found = scan(state)
        if violation > worst:
            worst, best = violation, (idx, found)
    idx, found = best
    if mode != "additivity" and found is not None:
        found = _pair_witness(*found, *(_fine_labels(family, k) for k in found))
    witness = {"kind": "state", "state_index": idx, "inner_mode": mode, "inner": found}
    return _report("robustness", worst, witness, tol, seed=used_seed)
