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

All four read one kernel: the Gram rows V_i = vec(C_i L) of the fine
histories, where rho = L Delta L^dagger (``histories._gram_rows``).  Weak and
medium scan D = (V w) V^dagger; additivity reads the fiber blocks of D from
the rows of each fiber alone; robustness builds the rows once per state.

Reports are deterministic: identical inputs and seed give identical
violations and witnesses (ties broken by enumeration order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, FamilyTooLargeError
from .histories import (
    DEFAULT_FAMILY_CAP,
    DecoherenceFunctional,
    History,
    HistoryFamily,
    _gram_dfunc,
    _gram_rows,
    coarsen_slot,
)
from .linalg import TILE, DensityState
from .sampling import robustness_states

DEFAULT_CHECK_TOL = 1e-9
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
    worst = float(worst)  # a numpy scalar would make ``passed`` a numpy.bool_
    return ConsistencyReport(mode, worst <= tol, worst, witness, tol, seed)


def _pair_witness(dfunc: DecoherenceFunctional, i: int, j: int) -> dict:
    return {
        "kind": "pair",
        "indices": [int(i), int(j)],
        "first": dfunc.histories[i].labels_by_offset(),
        "second": dfunc.histories[j].labels_by_offset(),
    }


def _offdiag_check(
    dfunc: DecoherenceFunctional, tol: float, mode: str, magnitude
) -> ConsistencyReport:
    n = dfunc.n
    if n < 2:
        return _report(mode, 0.0, None, tol)
    # Only the strict upper triangle is read: 2 Re D covers both conjugate
    # traces of the defining sum because the DecoherenceFunctional
    # constructor rejects a non-Hermitian matrix.  It is scanned in strips of
    # TILE rows, each taken right of the diagonal; a later strip wins only
    # with a strictly larger value, so the witness is the row-major first
    # maximum of the whole triangle.
    worst, at = -1.0, None
    for top in range(0, n - 1, TILE):
        strip = magnitude(dfunc.matrix[top : top + TILE, top + 1 :])
        # the strip's entries on or below the diagonal fill its leading
        # corner's strict lower triangle
        corner = strip[:, : strip.shape[0]]
        corner[np.tri(*corner.shape, k=-1, dtype=bool)] = -1.0
        flat = int(np.argmax(strip))
        if strip.flat[flat] > worst:
            worst = float(strip.flat[flat])
            i, j = divmod(flat, strip.shape[1])
            at = top + i, top + 1 + j
    return _report(mode, worst, _pair_witness(dfunc, *at), tol)


def check_weak_consistency(
    dfunc: DecoherenceFunctional, tol: float = DEFAULT_CHECK_TOL
) -> ConsistencyReport:
    """Largest |2 Re D[i][j]| over distinct history pairs."""
    return _offdiag_check(dfunc, tol, "weak", lambda m: np.abs(2.0 * m.real))


def check_medium_decoherence(
    dfunc: DecoherenceFunctional, tol: float = DEFAULT_CHECK_TOL
) -> ConsistencyReport:
    """Largest |D[i][j]| over distinct history pairs; implies the weak check."""
    return _offdiag_check(dfunc, tol, "medium", np.abs)


# ---------------------------------------------------------------------------
# Additivity of union probabilities, read from fiber blocks of D.


def _fiber(family: HistoryFamily, gram, pos: int) -> np.ndarray:
    """Blocks G[r, a, b] = Tr(C_(a,r) rho C_(b,r)^dagger) of D over slot ``pos``.

    ``a`` and ``b`` run over the slot's labels, ``r`` over the other slots'
    labels in lexicographic order.  Each block is the Gram form (V w) V^dagger
    of the rows ``_gram_rows`` gives for the histories (a, r) of one ``r``.
    """
    rows, weights = gram
    v = np.moveaxis(rows.reshape(*family.shape, -1), pos, -2)
    v = v.reshape(-1, *v.shape[-2:])
    return (v * weights) @ v.conj().transpose(0, 2, 1)


def _fine_labels(family: HistoryFamily, flat: int) -> dict[int, list[str]]:
    """Labels by offset of fine history ``flat`` in lexicographic order."""
    index = np.unravel_index(flat, family.shape)
    outcomes = tuple(
        res.outcome(res.labels[k].index) for res, k in zip(family.resolutions, index)
    )
    return History(family, outcomes).labels_by_offset()


def _pairs_scope(family, gram, tol) -> ConsistencyReport:
    index = np.arange(family.n_fine_histories).reshape(family.shape)
    worst = -1.0
    witness = None
    for pos, size in enumerate(family.shape):
        if size < 2:
            continue
        a, b = np.triu_indices(size, k=1)
        # rows in label-pair order, columns over the other slots' labels
        viol = np.abs(2.0 * _fiber(family, gram, pos)[:, a, b].real.T)
        pair, r = divmod(int(np.argmax(viol)), viol.shape[1])
        if viol[pair, r] > worst:
            worst = float(viol[pair, r])
            i, j = np.moveaxis(index, pos, -1).reshape(-1, size)[r, [a[pair], b[pair]]]
            witness = {
                "kind": "pair",
                "indices": [int(i), int(j)],
                "slot": family.offset_of(pos),
                "first": _fine_labels(family, i),
                "second": _fine_labels(family, j),
            }
    return _report("additivity", max(worst, 0.0), witness, tol)


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


def _partitions_scope(family, gram, tol, seed) -> ConsistencyReport:
    worst = -1.0
    best = None
    used_seed = None
    for pos, size in enumerate(family.shape):
        count = _candidate_count(size)
        if not count:
            continue
        picks = range(count)
        if size > PARTITION_EXHAUSTIVE_MAX:
            used_seed = DEFAULT_ROBUSTNESS_SEED if seed is None else seed
            rng = np.random.default_rng(used_seed)
            take = min(PARTITION_SAMPLE_SIZE, count)
            picks = np.sort(rng.choice(count, size=take, replace=False))
        candidates = [_candidate_partition(size, int(k)) for k in picks]
        masks = np.zeros((len(candidates), 2, size))
        for k, blocks in enumerate(candidates):
            for c, block in enumerate(blocks):
                masks[k, c, list(block)] = 1.0
        # coarse minus summed fine probability of each block, per coarse
        # history: the block's off-diagonal Re G entries
        off = _fiber(family, gram, pos).real * (1.0 - np.eye(size))
        before = math.prod(family.shape[:pos])
        diff = np.abs(np.einsum("kca,rab,kcb->krc", masks, off, masks))
        diff = diff.reshape(len(candidates), before, -1, 2).transpose(0, 1, 3, 2)
        # candidate-major, then coarse flat order; a full merge's empty second
        # block is all zero, so its first maximum is in its first block
        k, bf, c, af = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[k, bf, c, af] > worst:
            worst = float(diff[k, bf, c, af])
            blocks = candidates[k]
            flat = (bf * len(blocks) + c) * diff.shape[3] + af
            best = pos, blocks, int(flat)
    if best is None:
        return _report("additivity", 0.0, None, tol, seed=used_seed)
    pos, blocks, flat = best
    res = family.resolutions[pos]
    label_blocks: dict[str, list[int]] = {}
    for block in blocks:
        name = "+".join(res.labels[p].display for p in block)
        while name in label_blocks:  # label names may themselves contain '+'
            name += "'"
        label_blocks[name] = [res.labels[p].index for p in block]
    coarse = coarsen_slot(family, family.offset_of(pos), label_blocks)
    witness = {
        "kind": "partition",
        "slot": family.offset_of(pos),
        "blocks": [[res.labels[p].display for p in block] for block in blocks],
        "coarse_history": _fine_labels(coarse, flat),
    }
    return _report("additivity", worst, witness, tol, seed=used_seed)


def _additivity(family, gram, tol, scope, seed) -> ConsistencyReport:
    if scope == "pairs":
        return _pairs_scope(family, gram, tol)
    if scope == "partitions":
        return _partitions_scope(family, gram, tol, seed)
    raise ValueError(f"unknown additivity scope {scope!r}")


def check_additivity(
    family: HistoryFamily,
    tol: float = DEFAULT_CHECK_TOL,
    scope: str = "partitions",
    cap: int = DEFAULT_FAMILY_CAP,
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
    if family.n_fine_histories > cap:
        raise FamilyTooLargeError(family.n_fine_histories, cap)
    return _additivity(family, family._gram, tol, scope, seed)


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
    from ``seed``.  Each state's Gram rows are built once, from that state's
    factor as for the family's own state, and every inner mode reads them:
    weak and medium through that state's D, additivity through its fibers.
    """
    used_seed: int | None = None
    if states is None:
        states = robustness_states(family.dim, count, seed)
        used_seed = seed
    if not states:
        raise ValueError("robustness needs at least one state")
    offdiag = {"weak": check_weak_consistency, "medium": check_medium_decoherence}
    if mode not in (*offdiag, "additivity"):
        raise ValueError(f"unknown inner mode {mode!r}")
    for state in states:
        if state.dim != family.dim:
            raise DimensionMismatchError(
                f"state has dim {state.dim}, schedule has {family.dim}"
            )
    if family.n_fine_histories > DEFAULT_FAMILY_CAP:
        raise FamilyTooLargeError(family.n_fine_histories, DEFAULT_FAMILY_CAP)

    # only the weak and medium reports name their witnesses through D
    histories = None if mode == "additivity" else tuple(family.fine_histories())
    worst = -1.0
    witness = None
    for idx, state in enumerate(states):
        gram = _gram_rows(family, state)
        if mode == "additivity":
            inner = _additivity(family, gram, tol, scope, seed)
        else:
            inner = offdiag[mode](_gram_dfunc(gram, histories), tol)
        if inner.worst_violation > worst:
            worst = inner.worst_violation
            witness = {
                "kind": "state",
                "state_index": idx,
                "inner_mode": mode,
                "inner": inner.witness,
            }
    return _report("robustness", worst, witness, tol, seed=used_seed)
