"""Histories, chain operators, probabilities, conditionals, and the
decoherence functional.

A history family couples a dynamics schedule, one resolution per time slot,
and a state given at the schedule's reference slot.  A history assigns one
outcome per slot; its chain operator is the ordered product of
Heisenberg-lifted outcome projectors with the latest slot leftmost, and its
probability is Tr(C rho C^dagger).  A full outcome, such as the one outcome
of a one-outcome slot, is a validated resolution's sum, the identity; the
engine takes it as exactly I and skips it wherever it would multiply.

Fine-grained histories (one label per slot) are enumerated lexicographically
with the earliest slot most significant and labels in resolution order; the
decoherence functional and every witness index refer to that order.

The decoherence functional D_ij = Tr(C_i rho C_j^dagger) is built as a Gram
form from a factor rho = L Delta L^dagger of the state and a factor
P_a = F_a diag(delta_a) F_a^dagger of each last-slot projector, by the
pivoted LDL^dagger of ``linalg._ldl``, each made once on the value it
factors (``DensityState._factor``, ``Resolution._factor``), which every
family reads.  A history ending in label a has the chain C_i = Q_a Y_i,
Q_a = U^dagger P_a U, and since Q_a^2 = Q_a its row is
V_i = vec(F_a^dagger U Y_i L) with weights delta_a (x) Delta: rank_a * r
entries, not d * r, as the history lies in the range of P_a.  The ranks
sum to d (a factor that keeps a round-off pivot past its rank has a row
more), so the rows are one ``(N/s, d, r)`` array, 16 (N/s) d r bytes with
no padding, in which label a's rows are a view of its factor rows.

The last slot's projector is outermost in every chain operator, and a
validated resolution is treated as exactly orthogonal, so D_ij = 0 whenever
histories i and j end in different labels: by cyclicity of the trace the
two projectors meet as P_b P_a = 0.  With an s-outcome last slot the engine
therefore builds and keeps only the s interleaved blocks D[a::s, a::s], as
one ``(s, N/s, N/s)`` stack of 16 N^2 / s bytes, all that every
``DecoherenceFunctional`` keeps (a given matrix is the stack of s = 1); its
N x N ``matrix`` is scattered afresh on each read.  The entries it drops
are bounded by the orthogonality the resolution was validated to: each is
at most about ||P_b P_a|| <= d * max_kl |(P_a P_b)_kl| <= d * tol, for the
last slot's resolution tolerance tol (1e-10 by default; ``coarsen``
multiplies it by the fine resolution's size).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dynamics import DynamicsSchedule, _lift
from .errors import (
    DimensionMismatchError,
    FamilyMismatchError,
    FamilyTooLargeError,
    InvalidHistoryError,
    ZeroConditionProbabilityError,
)
from .linalg import CLAMP_TOL, DFUNC_TOL, TILE, ZERO_THRESHOLD, DensityState
from .linalg import _ReadOnly, _state_errors, _summed, frozen
from .resolutions import Outcome, Resolution, coarsen, outcome_intersection

log = logging.getLogger(__name__)

#: The cap on the number of fine-grained histories per family, at every entry point.
DEFAULT_FAMILY_CAP = 4096


def _clamp_unit(value: float) -> float:
    """Snap values within CLAMP_TOL outside [0, 1] back onto the bound."""
    if -CLAMP_TOL <= value < 0.0:
        log.debug("clamping %.17g to 0", value)
        return 0.0
    if 1.0 < value <= 1.0 + CLAMP_TOL:
        log.debug("clamping %.17g to 1", value)
        return 1.0
    return value


@dataclass(frozen=True, eq=False)
class HistoryFamily(_ReadOnly):
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
        return math.prod(self.shape)

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
    def _gram(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Read-only ``_gram_rows`` of the family's own state.

        ``decoherence_functional``, ``fine_probabilities`` and
        ``check_additivity`` share them, so the state is factored and the
        rows built once per family; they stay alive with the family.
        """
        rows, weights, offsets = _gram_rows(self, self.state)
        return frozen(rows), frozen(weights), offsets

    @cached_property
    def _probabilities(self) -> np.ndarray:
        """Read-only ``_row_norms`` of ``_gram``: the probabilities, diag(D)."""
        return frozen(_row_norms(*self._gram))

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

    @cached_property
    def _fine_outcomes(self) -> tuple[tuple[Outcome, ...], ...]:
        """Each slot's one-label outcomes in label order, earliest slot first."""
        return tuple(
            tuple(res.outcome(p) for p in range(res.size)) for res in self.resolutions
        )

    def fine_histories(self) -> Iterator["History"]:
        """All fine-grained histories in lexicographic order."""
        return iter(_FineHistories(self))

    def with_state(self, state: DensityState) -> "HistoryFamily":
        return HistoryFamily(self.schedule, self.resolutions, state)


@dataclass(frozen=True)
class History:
    """One outcome per slot of a family (multi-label outcomes are coarse);
    equal to another on the same family object with the same labels."""

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


class _FineHistories(Sequence):
    """A family's fine histories in lexicographic order, made on access from a
    flat index; a read-only ``Sequence`` equal to, and hashed as, their tuple."""

    def __init__(self, family: HistoryFamily):
        self._family = family

    def __len__(self) -> int:
        return self._family.n_fine_histories

    def __getitem__(self, k):
        picked = range(len(self))[k]  # indexes and slices as a tuple would
        if isinstance(picked, range):
            return tuple(map(self.__getitem__, picked))
        fam = self._family
        index = np.unravel_index(picked, fam.shape)
        return History(fam, tuple(slot[i] for slot, i in zip(fam._fine_outcomes, index)))

    def __iter__(self) -> Iterator[History]:
        fam = self._family  # __getitem__'s order, without decoding each index
        return (History(fam, combo) for combo in itertools.product(*fam._fine_outcomes))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _FineHistories)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def _require_same_family(family: HistoryFamily, h: History) -> None:
    if h.family is not family:
        raise FamilyMismatchError("history was built for a different family")


def chain_operator(family: HistoryFamily, history: History) -> np.ndarray:
    """Ordered product of lifted outcome projectors, latest slot leftmost,
    from I; a full outcome is taken as exactly I."""
    _require_same_family(family, history)
    chain = np.eye(family.dim, dtype=complex)
    for table, out in zip(family._lifted, history.outcomes):
        if not out.is_full:  # the outcome's projector sums its lifted fine ones
            chain = _summed(table, out.sorted_labels()) @ chain
    return chain


def history_probability(
    family: HistoryFamily, history: History, clamp: bool = True
) -> float:
    """Tr(C rho C^dagger) for the history's chain operator C.

    Values within CLAMP_TOL outside [0, 1] are snapped to the bound unless
    ``clamp`` is false (diagnostics want the raw number).
    """
    raw = _probability(chain_operator(family, history), family.state.matrix)
    return _clamp_unit(raw) if clamp else raw


def _probability(chain: np.ndarray, rho: np.ndarray) -> float:
    """Tr(C rho C^dagger)."""
    return float(np.sum((chain @ rho) * chain.conj()).real)


def _gram_rows(
    family: HistoryFamily, state: DensityState
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The packed Gram rows of ``state``: an ``(M, k, r)`` array over the
    M = N/s prefixes, its ``(k, r)`` weights and the s + 1 offsets of the last
    slot's labels, k = d but for round-off pivots (see the module docstring).
    History (i, a) has the row ``rows[i, offsets[a]:offsets[a + 1]]``,
    vec(F_a^dagger U Y_i L) weighted by delta_a (x) Delta, and label a's Gram
    form G_a = (V_a w_a) V_a^dagger is D[a::s, a::s].  A one-outcome last
    slot is I: rows vec(Y_i L), weights 1 (x) Delta.
    """
    rows, delta = state._factor
    rows, pivots, offsets = _chain_rows(family, rows)
    return rows, pivots[:, np.newaxis] * delta, offsets


def _chain_rows(
    family: HistoryFamily, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """F_a^dagger U Y_i ``rows`` for each prefix i of a ``(d, c)`` array, as
    one ``(M, k, c)`` array, with the last slot's ``(k,)`` pivots delta_a and
    its labels' s + 1 offsets: the Gram rows of a state's factor L, or from
    the identity the state-free stack W, whose product with each state's L
    is that state's rows."""
    d, c = rows.shape
    lifted = family._lifted  # every slot's lift is validated, the last one's too
    # slot by slot, latest slot leftmost: histories sharing a prefix share
    # its product Y, so the build costs O(N d^2 c).  Each slot is one
    # product per prefix with the slot's projectors stacked as (size*d, d);
    # its (size*d, c) result lists the labels in order, so the rows stay
    # lexicographic.
    for table in lifted[:-1]:
        if len(table) > 1:  # a one-outcome slot is I
            rows = np.matmul(table.reshape(-1, d), rows.reshape(-1, d, c))
    rows = rows.reshape(-1, d, c)
    if len(lifted[-1]) == 1:
        return rows, np.ones(d), (0, d)
    # the last slot likewise, with its packed (k, d) stack of factors F_a^dagger U
    left, pivots, offsets = family.resolutions[-1]._factor
    return np.matmul(left @ family.schedule.unitary(family.n_slots - 1), rows), pivots, offsets


def _row_norms(rows: np.ndarray, weights: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """D's diagonal in lexicographic order from the packed Gram rows: each
    label's sum_k |V_k|^2 w_k over its own columns, squared in two reused
    buffers of at most TILE^2 entries, so each value depends on its row alone."""
    m, s = len(rows), len(offsets) - 1
    flat, w = rows.reshape(m, -1), weights.reshape(-1)
    # reduceat sums from each start to the next: a rank-0 label is left out
    ranked = [a for a in range(s) if offsets[a + 1] > offsets[a]]
    starts = [offsets[a] * weights.shape[1] for a in ranked]
    norms = np.zeros((m, s))
    tile = max(1, min(m, TILE * TILE // len(w)))
    squares, imag = np.empty((tile, len(w))), np.empty((tile, len(w)))
    for top in range(0, m, tile):
        part = flat[top : top + tile]
        sq = np.square(part.real, out=squares[: len(part)])
        sq += np.square(part.imag, out=imag[: len(part)])
        sq *= w
        norms[top : top + tile, ranked] = np.add.reduceat(sq, starts, axis=1)
    return norms.reshape(-1)


def _block_view(matrix: np.ndarray, s: int) -> np.ndarray:
    """The blocks G_a = D[a::s, a::s] of an N x N ``matrix`` as one
    ``(s, M, M)`` view, N = M s, writable if ``matrix`` is."""
    m, (row, col) = len(matrix) // s, matrix.strides
    return np.lib.stride_tricks.as_strided(matrix, (s, m, m), (row + col, s * row, s * col))


#: The strict lower triangle of the largest strip corner.  Every strip and
#: corner has at most TILE rows, so each masks with a top-left slice.
_BELOW = frozen(np.tri(TILE, k=-1, dtype=bool))


def _strip_ranges(s: int, m: int) -> Iterator[tuple[int, int, int, int]]:
    """``(b, h, top, t)``: rows ``top:top + t`` of blocks ``b:b + h``, over
    ``s`` blocks of ``m`` rows.  Blocks of fewer than TILE / 2 rows share
    strips, TILE // m of them; a larger block is alone in each of its
    strips.  So a strip holds at most TILE rows."""
    g = min(s, TILE // m) if 2 * m < TILE else 1
    for b in range(0, s, g):
        for top in range(0, m, TILE):
            yield b, min(g, s - b), top, min(TILE, m - top)


@lru_cache(maxsize=64)
def _strip_plan(offsets: tuple[int, ...], runs: int, m: int) -> tuple[tuple, int]:
    """Where ``_gram_strips`` reads each ``_strip_ranges`` strip of ``runs``
    runs of the label ``offsets``, as ``(b, h, top, t, n, cols, wcols, pad)``
    with n the most factor rows of its blocks; and the most of any block.
    One block slices the rows by ``cols`` and the weights by ``wcols``;
    several take n rows each by those indices and zero the ones at ``pad``,
    past each block's own.  It reads no values: a family's robustness states
    and fiber slots share it."""
    k, ranks = offsets[-1], np.diff(offsets).tolist() * runs
    starts = [run * k + lo for run in range(runs) for lo in offsets[:-1]]
    strips = []
    for b, h, top, t in _strip_ranges(len(starts), m):
        n, lo = max(ranks[b : b + h]), starts[b]
        cols, wcols, pad = slice(lo, lo + n), slice(lo % k, lo % k + n), None
        if h > 1:
            cols = np.add.outer(starts[b : b + h], np.arange(n))
            past = np.arange(n) >= np.array(ranks[b : b + h])[:, np.newaxis]
            cols[past] = 0  # any row: zeroed
            cols, pad = frozen(cols.reshape(-1)), frozen(np.flatnonzero(past))
            wcols = frozen(cols % k)
        strips.append((b, h, top, t, n, cols, wcols, pad))
    return tuple(strips), max(ranks)


def _gram_strips(
    rows: np.ndarray, weights: np.ndarray, offsets: tuple[int, ...], out: np.ndarray | None = None
):
    """The strip kernel all D work goes through, over packed Gram rows
    ``(m, c, r)``: c / k runs of the k = offsets[-1] factor rows that the
    ``(k, r)`` ``weights`` weigh, block (f, a) the m rows
    ``rows[:, f k + offsets[a] : f k + offsets[a + 1]]``.  D's rows are one
    run (``_gram_rows``; s = 1 is all of D), the additivity fibers one per
    fiber prefix (``consistency._fiber``).

    Yields ``(b, top, conj(G[b:b + h, top:top + t, top:]))`` for each
    ``_strip_plan`` strip, G_b = (V_b w_b) V_b^dagger, made as
    conj(V_b w_b) V_b[top:]^T into the same slice of ``out`` if given, else
    into one reused buffer of at most TILE x m.  A lone block is read as a
    view; the blocks of a strip of several are taken into one reused buffer,
    each zero-padded to the strip's longest, which adds exact zeros.
    """
    m, c, r = rows.shape
    strips, widest = _strip_plan(offsets, c // len(weights), m)
    left = None
    for b, h, top, t, n, cols, wcols, pad in strips:
        if left is None:  # the first strip is the largest
            left = np.empty(h * t * widest * r, dtype=complex)
            flat = np.empty(h * t * m, dtype=complex) if out is None else None
            gather = np.empty(m * h * widest * r, dtype=complex) if h > 1 else None
        if h == 1:
            taken = rows[:, cols]
        else:  # whole blocks of fewer than TILE / 2 rows: top is 0
            taken = gather[: m * h * n * r].reshape(m, h * n, r)
            # the indices are in range; with mode "raise" numpy would buffer out
            np.take(rows, cols, axis=1, out=taken, mode="wrap")
            taken[:, pad] = 0
        block = taken.reshape(m, h, n * r).transpose(1, 0, 2)
        lhs = np.multiply(
            block[:, top : top + t],
            weights[wcols].reshape(h, 1, n * r),
            out=left[: h * t * n * r].reshape(h, t, n * r),
        )
        np.conjugate(lhs, out=lhs)
        strip = (
            out[b : b + h, top : top + t, top:]
            if flat is None
            else flat[: h * t * (m - top)].reshape(h, t, -1)
        )
        yield b, top, np.matmul(lhs, block[:, top:].transpose(0, 2, 1), out=strip)


def _require_cap(family: HistoryFamily) -> None:
    if family.n_fine_histories > DEFAULT_FAMILY_CAP:
        raise FamilyTooLargeError(family.n_fine_histories, DEFAULT_FAMILY_CAP)


def fine_probabilities(family: HistoryFamily) -> np.ndarray:
    """Probabilities of all fine histories, lexicographic order (unclamped):
    a fresh copy of the family's cached row norms, which are diag(D)."""
    _require_cap(family)
    return family._probabilities.copy()


def _check_trace(trace: complex, tol: float) -> None:
    if abs(trace - 1.0) > tol:
        raise InvalidHistoryError(f"decoherence functional trace {trace} differs from 1")


@dataclass(frozen=True, eq=False, init=False)
class DecoherenceFunctional(_ReadOnly):
    """Matrix of Tr(C_i rho C_j^dagger) over the fine histories of a family.

    A density matrix on the histories: Hermitian, positive semidefinite,
    and unit trace within ``tol``, with the fine-history probabilities on
    its diagonal.  A matrix passed to this constructor is checked by
    ``linalg``'s density-matrix validator.  The engine builds D as the Gram
    form V Delta V^dagger from a factor of the state, which is PSD by
    construction and Hermitian bit for bit, with ``fine_probabilities`` as
    its diagonal; only its trace is checked.  The engine's ``histories`` is
    lazy.

    Every D holds one form: its blocks D[a::s, a::s], N = M s, outside which
    it is zero, as one read-only ``(s, M, M)`` stack that ``diagonal`` and
    the weak and medium checks scan.  A matrix given to this constructor is
    the one block of s = 1.  The engine treats a validated resolution as
    exactly orthogonal, so histories whose last-slot labels differ never
    interfere (P_a P_b = 0 under the trace), and s is the last slot's size.
    The stack is all a D, a copy or a pickle of it keeps or carries.
    """

    histories: Sequence[History]
    _stack: np.ndarray
    tol: float

    def __init__(self, histories: Sequence[History], matrix, tol: float = DFUNC_TOL):
        if not isinstance(histories, _FineHistories):
            histories = tuple(histories)
        stack = frozen(np.array(matrix, dtype=complex))[np.newaxis]
        if stack.shape[1:] != (len(histories),) * 2:
            raise DimensionMismatchError(
                f"matrix shape {stack.shape[1:]} does not match {len(histories)} histories"
            )
        if not len(histories):
            raise DimensionMismatchError("a decoherence functional needs at least one history")
        (error,) = _state_errors(stack, (tol,))
        if error is not None:
            raise InvalidHistoryError(f"decoherence functional: {error}") from error
        vars(self).update(histories=histories, _stack=stack, tol=tol)

    @classmethod
    def _from_gram(cls, histories, blocks: np.ndarray):
        """An engine-built D that takes over its ``(s, M, M)`` last-slot
        blocks; only the trace is checked, the Gram form meets the rest."""
        _check_trace(complex(np.sum(np.diagonal(blocks, axis1=1, axis2=2))), DFUNC_TOL)
        dfunc = object.__new__(cls)
        vars(dfunc).update(histories=histories, _stack=frozen(blocks), tol=DFUNC_TOL)
        return dfunc

    @property
    def matrix(self) -> np.ndarray:
        """D as a read-only N x N array: the one block itself for s = 1 (a
        view), else the blocks scattered into fresh zeros on every read, 16 N^2
        bytes that the caller holds and D does not keep."""
        stack = self._stack
        s, m = stack.shape[:2]
        if s == 1:
            return stack[0]
        matrix = np.zeros((s * m, s * m), dtype=complex)
        _block_view(matrix, s)[...] = stack
        return frozen(matrix)

    @property
    def n(self) -> int:
        return len(self.histories)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self._stack, axis1=1, axis2=2).real.T.reshape(-1)


def decoherence_functional(family: HistoryFamily) -> DecoherenceFunctional:
    """Full decoherence functional over the family's fine histories.

    D is zero except in the blocks G_a = D[a::s, a::s] of the histories
    ending in label a of the s-outcome last slot, which the strip kernel
    writes into one ``(s, M, M)`` stack, the D returned holds.  Each strip
    is conjugated in place in its block's upper part and mirrored below as
    its exact conjugate; the diagonal is the family's cached row norms.
    """
    _require_cap(family)
    n = family.n_fine_histories
    probabilities = family._probabilities  # its temporaries are freed before D
    s = family.shape[-1]
    blocks = np.empty((s, n // s, n // s), dtype=complex)  # every entry is written
    for b, top, strip in _gram_strips(*family._gram, out=blocks):
        h, t = strip.shape[:2]
        # the strip holds conj(G), so its transpose is G's block column below
        blocks[b : b + h, top + t :, top : top + t] = strip[:, :, t:].transpose(0, 2, 1)
        # conjugate as 0 - Im (np.conjugate turns a +0.0 imaginary part into
        # -0.0, printed "-0"), then mirror the diagonal block's upper triangle
        np.subtract(0.0, strip.imag, out=strip.imag)
        corner, below = strip[:, :, :t], _BELOW[:t, :t]
        np.copyto(corner.real, corner.real.transpose(0, 2, 1), where=below)
        np.subtract(0.0, corner.imag.transpose(0, 2, 1), out=corner.imag, where=below)
    blocks.reshape(s, -1)[:, :: n // s + 1] = probabilities.reshape(-1, s).T
    return DecoherenceFunctional._from_gram(_FineHistories(family), blocks)


# ---------------------------------------------------------------------------
# Conditionals.  Both public entry points share one code path: a ratio of two
# chain-operator probabilities, where the condition is a contiguous slot
# range ending at the present.  The two parts are nontrivial on disjoint
# slots, so their intersection, the joint history, is never empty.


def _require_trivial_outside(history: History, keep, what: str) -> None:
    for off in history.family.offsets():
        if not keep(off) and not history.is_trivial_at(off):
            raise InvalidHistoryError(
                f"{what} history must be trivial at slot offset {off}"
            )


def _conditional_ratio(family: HistoryFamily, joint: History, den: float) -> float:
    """p(joint) / den, clamped; the numerator is computed only for a
    denominator above ZERO_THRESHOLD."""
    if den <= ZERO_THRESHOLD:
        raise ZeroConditionProbabilityError(den, ZERO_THRESHOLD)
    return _clamp_unit(history_probability(family, joint, clamp=False) / den)


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
    joint = history_intersection(future, given)
    return _conditional_ratio(family, joint, history_probability(family, given, clamp=False))


def retrodictive_conditional(
    family: HistoryFamily, past: History, present: Outcome
) -> float:
    """Probability of past outcomes conditional on the present alone.

    The denominator is the probability of the present-only history.  The
    result is neither guaranteed to stay below 1 nor to sum to 1 over pasts
    unless the family is consistent.
    """
    joint, given, _ = _retrodiction(family, past, present)
    return _conditional_ratio(family, joint, history_probability(family, given, clamp=False))


def retrodictive_normalized(
    family: HistoryFamily, past: History, present: Outcome
) -> float:
    """Retrodictive probability with the summed denominator.

    The denominator is the sum, over all fine-grained pasts, of the joint
    probability with the present outcome, computed as the present's
    probability once each past slot has dephased the state; over fine pasts
    the values lie in [0, 1] and sum to 1 with no consistency assumption.
    A coarse ``past`` keeps the chain-operator numerator and may exceed 1
    for inconsistent families.
    """
    joint, _, present = _retrodiction(family, past, present)
    return _conditional_ratio(family, joint, _summed_past_denominator(family, present))


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
    return history_intersection(past, given), given, present


def _summed_past_denominator(family: HistoryFamily, present: Outcome) -> float:
    """Sum of joint probabilities over every fine-grained past.

    Summing Tr(P_S C_p rho C_p^dagger P_S) over the fine pasts p is the
    present's probability Tr(P_S rho' P_S) after each past slot dephases the
    state, rho -> sum_a P_a rho P_a^dagger (a non-selective Lueders
    measurement), earliest slot first; slots after the present drop out by
    cyclicity of the trace.  The cost is linear in the number of past slots.
    """
    pos = family.position(0)
    rho = family.state.matrix
    for table in family._lifted[:pos]:
        if len(table) > 1:  # a one-outcome slot is I, as is a full present
            rho = sum(table @ rho @ table.conj().transpose(0, 2, 1))
    return _probability(chain_operator(family, family.history({0: present.sorted_labels()})), rho)


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
