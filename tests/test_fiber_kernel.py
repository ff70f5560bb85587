"""Additivity fibers from the strip kernel that makes D.

Each non-last slot's fiber G[r, a, b] = Tr(C_(a,r) rho C_(b,r)^dagger) is
made by ``histories._gram_strips`` from one copy of the Gram rows reordered
with the slot second to last.  The kernel writes conj(G), and both
additivity scopes read only Re G, which must agree with the real part of one batched product over each block's whole
padded row, kept below as the reference, within the round-off of a sum of
that many terms.  The two are products of different shapes, whose sums a
BLAS kernel may order differently, so their low bits need not agree.  The
check holds one reordered copy of the rows and one kernel strip at a time.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import HistoryFamily, check_additivity
from decohist.consistency import _fiber
from decohist.linalg import TILE
from decohist.sampling import random_family

from test_blocks import shaped_family
from test_consistency import padded_resolution


def reference_fiber(family, pos) -> np.ndarray:
    """G over slot ``pos`` as one batched product (V w) V^dagger per fiber,
    over each block's whole padded row, in lexicographic fiber order."""
    rows, weights = family._gram
    s, k = len(rows), rows.shape[-1]
    v = np.moveaxis(rows.reshape(s, *family.shape[:-1], k), 1 + pos, -2)
    v = v.reshape(s, -1, *v.shape[-2:])
    g = (v * weights[:, np.newaxis, np.newaxis]) @ v.conj().swapaxes(-1, -2)
    return g.swapaxes(0, 1).reshape(-1, *g.shape[-2:])


def round_off(family) -> float:
    """How far two orders of one fiber entry's K-term sum may differ: each
    is within (K + 2) eps of sum_k w_k |V_ik| |V_jk| <= sqrt(p_i p_j)."""
    rows, _ = family._gram
    return 2 * (rows.shape[-1] + 2) * np.finfo(float).eps * float(np.max(family._probabilities))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    dim=st.integers(1, 8),
    rank=st.integers(1, 8),  # rank < dim: a rank-deficient state
)
def test_fibers_match_the_batched_product(seed, shape, dim, rank):
    # padded resolutions: degenerate projectors wherever a block has rank
    # > 1, zero projectors past the first four labels
    fam = shaped_family(np.random.default_rng(seed), tuple(shape), dim, min(rank, dim))
    rows, weights = fam._gram
    for pos in range(fam.n_slots - 1):
        got, expected = _fiber(fam, rows, weights, pos), reference_fiber(fam, pos).real
        assert np.max(np.abs(got - expected), initial=0.0) <= round_off(fam)


def test_a_slot_past_tile_labels_is_mirrored(monkeypatch):
    # strips below the first hold only the entries on and right of their
    # diagonal; the lower part is their mirror
    fam = shaped_family(np.random.default_rng(5), (TILE + 3, 2), 4, 3)
    rows, weights = fam._gram
    full = np.full  # from here every new empty array is NaN, so a gap shows
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float: full(shape, np.nan, dtype))
    got, expected = _fiber(fam, rows, weights, 0), reference_fiber(fam, 0).real
    assert np.array_equal(got[:, TILE:, :TILE], got[:, :TILE, TILE:].transpose(0, 2, 1))
    assert np.max(np.abs(got - expected)) <= round_off(fam)  # NaN fails


def test_additivity_holds_one_reordered_copy_of_the_rows():
    # N = 1024: d = 16, five 4-outcome slots, a full-rank mixed state
    rng = np.random.default_rng(52)
    base = random_family(rng, 16, 5)
    resolutions = tuple(padded_resolution(rng, 16, 4) for _ in range(5))
    fam = HistoryFamily(base.schedule, resolutions, base.state)
    rows, _ = fam._gram  # cached before the check
    s, m, k = rows.shape
    assert (s, m) == (4, 256)
    # one reordered copy, one kernel strip and 1 MiB for the fibers
    bound = rows.nbytes + 16 * TILE * k + 2**20
    for scope in ("pairs", "partitions"):
        tracemalloc.start()
        try:
            check_additivity(fam, scope=scope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (scope, peak)
