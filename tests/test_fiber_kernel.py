"""Additivity fibers from the strip kernel that makes D.

Each non-last slot's fiber G[r, a, b] = Tr(C_(a,r) rho C_(b,r)^dagger) is
made by ``histories._gram_strips`` from one copy of the Gram rows reordered
with the slot second to last.  The kernel writes conj(G), and both
additivity scopes read only Re G, which must equal, bit for bit, the real
part of the batched product the fibers were made with before; that product
is kept below as the reference.  The check holds one reordered copy of the
rows and one kernel strip at a time.
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
    """G over slot ``pos`` as one batched product (V w) V^dagger per fiber."""
    rows, weights = family._gram
    v = np.moveaxis(rows.reshape(*family.shape, -1), pos, -2)
    v = v.reshape(-1, *v.shape[-2:])
    return (v * weights) @ v.conj().transpose(0, 2, 1)


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
        assert np.array_equal(_fiber(fam, rows, weights, pos), reference_fiber(fam, pos).real)


def test_a_slot_past_tile_labels_is_mirrored(monkeypatch):
    # strips below the first hold only the entries on and right of their
    # diagonal; the lower part is their mirror
    fam = shaped_family(np.random.default_rng(5), (TILE + 3, 2), 4, 3)
    rows, weights = fam._gram
    full = np.full  # from here every new empty array is NaN, so a gap shows
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float: full(shape, np.nan, dtype))
    got, expected = _fiber(fam, rows, weights, 0), reference_fiber(fam, 0).real
    upper = np.triu(np.ones((TILE + 3, TILE + 3), dtype=bool))
    assert np.array_equal(got[:, upper], expected[:, upper])
    assert np.max(np.abs(got - expected)) <= 1e-15


def test_additivity_holds_one_reordered_copy_of_the_rows():
    # N = 1024: d = 16, five 4-outcome slots, a full-rank mixed state
    rng = np.random.default_rng(52)
    base = random_family(rng, 16, 5)
    resolutions = tuple(padded_resolution(rng, 16, 4) for _ in range(5))
    fam = HistoryFamily(base.schedule, resolutions, base.state)
    rows, _ = fam._gram  # cached before the check
    n, k = rows.shape
    assert (n, k) == (1024, 16 * 16)
    # one reordered copy, one kernel strip and 1 MiB for the fibers
    bound = 16 * n * k + 16 * TILE * k + 2**20
    for scope in ("pairs", "partitions"):
        tracemalloc.start()
        try:
            check_additivity(fam, scope=scope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (scope, peak)
