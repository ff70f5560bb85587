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

All four read the packed Gram rows of the fine histories, one view per
label of the last slot (``histories._gram_rows``), through the strip kernel
that makes each block of D as (V_a w_a) V_a^dagger
(``histories._gram_strips``).  Weak and medium scan D; additivity makes
each slot's fiber blocks of D, in one pass over the slots for both scopes,
from one copy of the rows reordered with the slot first.  Robustness builds
the chain rows W = F_a^dagger U Y_i once, as they do not depend on the
state, and each state's rows as W L for its factor L; weak and medium pass
the states through the kernel in batches, one block list per batch, and
one scan keeps each state's worst value, where it lies and its trace, never
all of D.  A D's own weak or medium check is the same scan of one state.

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
    _chain_rows,
    _check_trace,
    _gram_strips,
    _require_cap,
    _strip_ranges,
)
from .linalg import DEFAULT_CHECK_TOL, DFUNC_TOL, TILE, DensityState
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


def _offdiag_scan(strips, mode: str, s: int, n: int = 1) -> list[tuple[float, tuple | None, float]]:
    """For each of ``n`` states: the largest ``_MAGNITUDE[mode]`` of an entry
    of its D above the diagonal, where, and D's trace.

    ``strips`` yields ``(b, top, strip)`` as ``histories._gram_strips`` does:
    rows ``top:`` of blocks ``b:`` of D or of conj(D) (same magnitudes) on
    and right of the block diagonal, state-major and then by last-slot label,
    where block j s + a holds state j's D[a::s, a::s] and each D is zero
    outside its blocks.  Only each block's strict upper triangle is read, as
    D is Hermitian; the magnitudes go into one reused buffer the size of the
    first strip, and the trace is summed from the diagonals the strips hold.
    A maximum wins a tie only from an earlier row-major position of its D,
    so the position is that D's row-major first maximum.  Fewer than two
    rows give (0.0, None); with s > 1, no nonzero entry gives (0.0, (0, 1)),
    the first entry above the diagonal.
    """
    worst, at, trace, buffer = [-1.0] * n, [None] * n, [0.0] * n, None
    for b, top, strip in strips:
        h, rows, width = strip.shape[0], strip.shape[1], strip.shape[2] - 1
        diagonal = np.trace(strip, axis1=1, axis2=2).real
        if width:  # a last strip of one row has nothing right of the diagonal
            if buffer is None:  # the first strip is the largest
                buffer = np.empty(h * rows * width)
            # mag[:, i, j] is at row top + i, column top + 1 + j of each block
            mag = buffer[: h * rows * width].reshape(h, rows, width)
            mag = _MAGNITUDE[mode](strip[:, :, 1:], mag)
            # the strip's entries on or below the diagonal fill its leading
            # corner's strict lower triangle; -1 never wins
            corner = mag[:, :, :rows]
            np.copyto(corner, -1.0, where=_BELOW[:rows, : corner.shape[2]])
        for j in range(b // s, (b + h - 1) // s + 1):  # the states the strip holds
            lo, hi = max(b, j * s) - b, min(b + h, j * s + s) - b
            trace[j] += float(diagonal[lo:hi].sum())
            if not width:
                continue
            # the state's first maximum in its row-major order: row top + r
            # of block b + lo + o is row (top + r) s + a of its D, a its
            # label, so rows go by (r, o)
            r, k = divmod(int(np.argmax(mag[lo:hi].transpose(1, 0, 2))), (hi - lo) * width)
            o, c = divmod(k, width)
            a = (b + lo + o) % s
            peak, ij = float(mag[lo + o, r, c]), ((top + r) * s + a, (top + 1 + c) * s + a)
            if peak > worst[j] or (peak == worst[j] and ij < at[j]):
                worst[j], at[j] = peak, ij
    found = []
    for value, where, total in zip(worst, at, trace):
        if s > 1 and value <= 0.0:
            value, where = 0.0, (0, 1)
        found.append((max(value, 0.0), where, total))
    return found


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
    ((worst, at, _),) = _offdiag_scan(strips, mode, s)
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


def _fiber(family: HistoryFamily, gram, pos: int) -> np.ndarray:
    """Re G[r, a, b] = Re Tr(C_(a,r) rho C_(b,r)^dagger) over the labels a, b
    of slot ``pos`` (not the last) and the other slots' labels r, in
    lexicographic order.

    The strip kernel writes conj(G), of the same real part, from one copy of
    the packed ``gram`` rows reordered with the slot first: one run of the
    last slot's factor rows per labelling of the other slots, each label's
    fiber with its own weights, so the fibers come in lexicographic order.
    Past TILE labels a strip starts at its diagonal, so its part right of
    the corner is mirrored below it, as D's assembly does.
    """
    rows, weights, offsets = gram
    size = family.shape[pos]
    v = np.moveaxis(rows.reshape(*family.shape[:-1], *rows.shape[1:]), pos, 0)
    v = np.ascontiguousarray(v).reshape(size, -1, rows.shape[-1])
    blocks = np.empty((family.n_fine_histories // size, size, size), dtype=complex)
    for b, top, strip in _gram_strips(v, weights, offsets, out=blocks):
        h, t = strip.shape[:2]
        blocks[b : b + h, top + t :, top : top + t] = strip[:, :, t:].transpose(0, 2, 1)
    return blocks.real


def _slot_worst(family, gram, violations, witness) -> tuple[float, dict | None]:
    """The largest entry of ``violations(pos, size, fiber)`` over the slots of
    two or more labels and ``witness(pos, size, flat)`` of its first flat
    index, or (0.0, None).  Each fiber is freed before the next is made.  The
    last slot's labels never interfere, so its fiber, exactly zero, is not
    made: its largest entry is 0.0 at flat index 0, the first candidate.
    """
    worst, best = -1.0, None
    for pos, size in enumerate(family.shape):
        if size < 2:
            continue
        value, flat = 0.0, 0
        if pos < family.n_slots - 1:
            viol = violations(pos, size, _fiber(family, gram, pos))
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


def _candidate_masks(size: int, picks) -> np.ndarray:
    """The ``(len(picks), 2, size)`` 0/1 masks of the blocks of candidates
    ``picks``, as ``_candidate_partition`` gives them: block 0 holds position
    0 and p + 1 for each bit p of k - 1, block 1 the rest.  The bits are read
    from k - 1 as a little-endian two's complement of ``size`` bits, so
    k = 0, whose k - 1 has every bit set, is the full merge."""
    width = (size + 7) // 8
    raw = b"".join([(int(k) - 1).to_bytes(width, "little", signed=True) for k in picks])
    bits = np.frombuffer(raw, np.uint8).reshape(-1, width)
    masks = np.ones((len(bits), 2, size))
    masks[:, 0, 1:] = np.unpackbits(bits, axis=1, count=size - 1, bitorder="little")
    masks[:, 1] -= masks[:, 0]
    return masks


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
        masks = _candidate_masks(size, picks[size])
        # coarse minus summed fine probability of each block, per coarse
        # history: the block's off-diagonal Re G entries
        off = fiber * (1.0 - np.eye(size))
        diff = np.abs(np.einsum("kca,rab,kcb->krc", masks, off, masks))
        # candidate-major, then coarse flat order with the slot split in
        # two; a full merge's empty second block is all zero, so its first
        # maximum is in its first block
        before = math.prod(family.shape[:pos])
        return diff.reshape(len(masks), before, -1, 2).transpose(0, 1, 3, 2)

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


def _robust_scan(prefix, pivots, offsets, states, mode: str) -> list[tuple[float, tuple | None]]:
    """The weak or medium worst value and where it lies, per state, from the
    state-free rows ``prefix`` = W, ``(M, k, d)``, and the last slot's
    ``pivots`` and label ``offsets``.

    The states go in batches of at most TILE^2 / (M k d), each state's rows
    one product W L, its factor L zero-padded to the largest rank.  A
    batch goes through the strip kernel as one block list, by state and then
    by label, each block weighted by delta_a (x) Delta of its own state
    (zero past the state's rank).  Each state's trace is checked.  The
    products and the reordered rows reuse one buffer each over the batches.
    """
    m, k, d = prefix.shape
    factors = [state._factor for state in states]
    batch, r = max(1, TILE * TILE // (m * k * d)), max(len(delta) for _, delta in factors)
    products = np.empty((min(batch, len(factors)), m * k, r), dtype=complex)
    buffer = np.empty((m, len(products) * k, r), dtype=complex)
    found = []
    for first in range(0, len(factors), batch):
        part = factors[first : first + batch]
        n = len(part)
        lefts, deltas = np.zeros((n, d, r), dtype=complex), np.zeros((n, r))
        for j, (left, delta) in enumerate(part):
            lefts[j, :, : len(delta)], deltas[j, : len(delta)] = left, delta
        # one (M k, d) (d, r) product per state, then state j's rows are
        # the run j of the batch's (M, n k, r) rows
        done = np.matmul(prefix.reshape(m * k, d), lefts, out=products[:n])
        rows = buffer[:, : n * k]
        rows.reshape(m, n, k, r)[...] = done.reshape(n, m, k, r).transpose(1, 0, 2, 3)
        weights = (pivots[:, np.newaxis] * deltas[:, np.newaxis]).reshape(n * k, r)
        blocks = (*(j * k + lo for j in range(n) for lo in offsets[:-1]), n * k)
        scans = _offdiag_scan(_gram_strips(rows, weights, blocks), mode, len(offsets) - 1, n)
        for worst, at, trace in scans:
            _check_trace(trace, DFUNC_TOL)
            found.append((worst, at))
    return found


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

    Passes only if every state passes; the witness names the first state
    achieving the worst violation together with the inner witness.  When no
    explicit states are given, ``count`` normalized Wishart states are drawn
    from ``seed``; ``states`` may be any iterable.  The chain rows
    F_a^dagger U Y_i do not depend on the state, so they are built once, as
    the ``(M, k, d)`` stack W, and each state's Gram rows are W L for its
    factor L, which every inner mode reads: weak and medium scan the
    states' strips of D in batches, one kernel pass per batch of at most
    TILE^2 / (M k d) states, for each state's worst value, where it lies
    and D's trace, which is then checked; additivity reads each state's
    fibers.
    """
    _require_cap(family)
    if mode not in _INNER_MODES:
        raise ValueError(f"unknown inner mode {mode!r}")
    additivity = _scope(scope)
    used_seed: int | None = None
    if states is None:
        states = robustness_states(family.dim, count, seed)
        used_seed = seed
    states = tuple(states)
    if not states:
        raise ValueError("robustness needs at least one state")
    for state in states:
        if state.dim != family.dim:
            raise DimensionMismatchError(
                f"state has dim {state.dim}, schedule has {family.dim}"
            )

    prefix, pivots, offsets = _chain_rows(family, np.eye(family.dim, dtype=complex))
    if mode != "additivity":
        found = _robust_scan(prefix, pivots, offsets, states, mode)
    else:
        m, k, d = prefix.shape
        found = []
        for state in states:
            left, delta = state._factor
            rows = (prefix.reshape(m * k, d) @ left).reshape(m, k, -1)
            inner = additivity(family, (rows, pivots[:, np.newaxis] * delta, offsets), tol, seed)
            found.append((inner.worst_violation, inner.witness))
    idx = max(range(len(found)), key=lambda j: found[j][0])  # the first of equals
    worst, inner = found[idx]
    if mode != "additivity" and inner is not None:
        inner = _pair_witness(*inner, *(_fine_labels(family, k) for k in inner))
    witness = {"kind": "state", "state_index": idx, "inner_mode": mode, "inner": inner}
    return _report("robustness", worst, witness, tol, seed=used_seed)
