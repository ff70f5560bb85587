"""An engine D held as its last-slot blocks, and D under coarse-graining.

An engine-built ``DecoherenceFunctional`` holds only the blocks
D[a::s, a::s] of an s-outcome last slot, as one read-only ``(s, M, M)``
stack, N = M s; a D given to the constructor is the stack of s = 1.  The
dense ``matrix`` is made on first read, and the stack is a view of that
matrix from then on.
"""

import copy
import pickle
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DecoherenceFunctional,
    coarsen_slot,
    decoherence_functional,
)
from decohist.errors import DimensionMismatchError
from decohist.histories import _block_view
from decohist.linalg import TILE

from test_blocks import shaped_family
from test_consistency import OFFDIAG_CHECKS, exact_size_family

#: a family's shape, or an int for ``exact_size_family``'s exact N
CASES = [
    7,  # one slot: s = N, D is diagonal
    TILE - 1,  # prime: one slot of N outcomes
    TILE + 1,  # 3 x 43
    2 * TILE + 2,  # 2 x 129: blocks of two rows
    (3, 1),  # a {I} last slot: s = 1
    (2, TILE + 1, 1),  # s = 1 with N > 2 TILE
    (TILE + 1, 2),  # blocks of more than TILE rows
    (2, 3, 4),
]


def case_family(rng, case, dim, rank):
    if isinstance(case, int):
        return exact_size_family(rng, case, dim, rank)
    return shaped_family(rng, case, dim, rank)


def reports(d):
    return [check(d) for check in OFFDIAG_CHECKS.values()]


def holds_blocks(d) -> bool:
    return "matrix" not in vars(d)


family_args = dict(
    case=st.sampled_from(CASES),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    rank=st.integers(1, 4),  # rank < dim: a rank-deficient state
)


class TestHeldBlocks:
    @settings(max_examples=30, deadline=None)
    @given(**family_args)
    def test_matrix_is_made_once_from_the_blocks(self, case, seed, dim, rank):
        rng = np.random.default_rng(seed)
        fam = case_family(rng, case, dim, min(rank, dim))
        d = decoherence_functional(fam)
        n, s = fam.n_fine_histories, fam.shape[-1]
        stack = d._stack
        assert holds_blocks(d)
        assert stack.shape == (s, n // s, n // s) and stack.flags.c_contiguous
        assert not stack.flags.writeable
        # the diagonal comes from the blocks: the probabilities, bit for bit
        assert np.array_equal(d.diagonal, fam._probabilities)
        assert holds_blocks(d)
        before = reports(d)
        assert holds_blocks(d)

        matrix = d.matrix
        assert d.matrix is matrix and d.matrix is matrix
        assert not matrix.flags.writeable
        scattered = np.zeros((n, n), dtype=complex)
        _block_view(scattered, s)[...] = stack
        assert np.array_equal(matrix, scattered)
        # the blocks live on only as a view of the matrix
        assert np.shares_memory(d._stack, matrix)
        assert np.array_equal(d._stack, stack)
        assert np.array_equal(d.diagonal, fam._probabilities)
        assert reports(d) == before
        # a check on a fresh D whose matrix was read first agrees
        first = decoherence_functional(fam)
        first.matrix
        assert reports(first) == before

    @settings(max_examples=10, deadline=None)
    @given(**family_args)
    def test_copy_and_pickle(self, case, seed, dim, rank):
        rng = np.random.default_rng(seed)
        fam = case_family(rng, case, dim, min(rank, dim))
        expected = np.array(decoherence_functional(fam).matrix)
        for read_first in (False, True):
            d = decoherence_functional(fam)
            if read_first:
                d.matrix
            before = reports(d)
            for twin in (copy.copy(d), pickle.loads(pickle.dumps(d))):
                assert holds_blocks(twin) == (not read_first)
                assert np.array_equal(twin.matrix, expected)
                assert twin.n == d.n and twin.tol == d.tol
                assert reports(twin) == before
            # reading a copy's matrix leaves the original as it was
            assert holds_blocks(d) == (not read_first)
            assert np.array_equal(d.matrix, expected)

    @pytest.mark.parametrize("case", CASES)
    def test_assembly_memory(self, case):
        # the stack plus the strip kernel's buffers: a mirrored strip's
        # transpose and its diagonal corner, each at most TILE x N entries
        rng = np.random.default_rng(7)
        fam = case_family(rng, case, 3, 2)
        fam._probabilities  # the rows and their norms are the family's
        n, s = fam.n_fine_histories, fam.shape[-1]
        tracemalloc.start()
        try:
            d = decoherence_functional(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds_blocks(d)
        assert peak <= 16 * n * n // s + 2 * 16 * TILE * n + 256 * 1024

    def test_threads_reading_at_once_get_one_matrix(self):
        fam = case_family(np.random.default_rng(3), 2 * TILE + 2, 3, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                d = decoherence_functional(fam)
                start, seen = threading.Barrier(4), []

                def read():
                    start.wait(timeout=10)
                    seen.append(d.matrix)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 4 and all(m is d.matrix for m in seen)
                assert np.shares_memory(d._stack, d.matrix)
        finally:
            sys.setswitchinterval(interval)

    def test_dense_paths_keep_the_matrix(self, z_then_x_family):
        engine = decoherence_functional(z_then_x_family)
        user = DecoherenceFunctional(engine.histories, engine.matrix)
        assert len(user._stack) == 1 and np.shares_memory(user._stack, user.matrix)
        assert np.array_equal(user.diagonal, engine.diagonal)


def one_form_d(kind, fam):
    """The engine's D of ``fam``, or the same matrix given to the constructor."""
    d = decoherence_functional(fam)
    return d if kind == "engine" else DecoherenceFunctional(d.histories, d.matrix)


KINDS = ["engine", "given"]


class TestOneForm:
    """An engine D and a D given to the constructor hold the same form, so
    each behaves alike; a given D is the one block of s = 1."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("read_first", [False, True])
    def test_assigning_a_field_raises(self, kind, read_first):
        fam = shaped_family(np.random.default_rng(5), (3, 4), 3, 2)
        expected = np.array(decoherence_functional(fam).matrix)
        d = one_form_d(kind, fam)
        if read_first:
            d.matrix
        before = reports(d)
        for name in ("tol", "histories", "matrix"):
            with pytest.raises(FrozenInstanceError):
                setattr(d, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(d, name)
        assert holds_blocks(d) == (not read_first)
        assert reports(d) == before and np.array_equal(d.matrix, expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_one_block_matrix_is_read_without_a_copy(self, kind):
        # N = 1024 with a {I} last slot: the N x N block is 16 MiB
        d = one_form_d(kind, shaped_family(np.random.default_rng(6), (32, 32, 1), 2, 2))
        assert d._stack.shape == (1, 1024, 1024)
        tracemalloc.start()
        try:
            matrix = d.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        assert np.shares_memory(matrix, d._stack) and not matrix.flags.writeable

    @pytest.mark.parametrize("kind", KINDS)
    def test_repr_builds_no_matrix(self, kind):
        d = one_form_d(kind, shaped_family(np.random.default_rng(8), (2, 3), 2, 2))
        assert repr(d).startswith("DecoherenceFunctional(histories=")
        assert holds_blocks(d)

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_reads_without_the_property_lock_get_one_matrix(self, kind):
        # Python 3.12 dropped cached_property's own lock: the first-read
        # function itself must hand threads that run it at once one matrix
        first_read = DecoherenceFunctional.matrix.func
        fam = case_family(np.random.default_rng(3), 2 * TILE + 2, 3, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                d = one_form_d(kind, fam)
                start, seen = threading.Barrier(4), []

                def read():
                    start.wait(timeout=10)
                    seen.append(first_read(d))

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 4 and all(m is d.matrix for m in seen)
                assert np.shares_memory(d._stack, d.matrix)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "kind, shape", [("engine", (3, 4)), ("engine", (3, 1)), ("given", (3, 4))]
    )
    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize(
        "twin_of",
        [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_keeps_the_one_read_only_form(self, kind, shape, read_first, twin_of):
        # numpy deep-copies and unpickles arrays writable and apart; a twin
        # of D freezes them, and its stack is a view of its matrix again
        fam = shaped_family(np.random.default_rng(10), shape, 3, 2)
        expected = np.array(decoherence_functional(fam).matrix)
        d = one_form_d(kind, fam)
        if read_first:
            d.matrix
        twin = twin_of(d)
        assert holds_blocks(twin) == (not read_first)
        assert not twin._stack.flags.writeable
        matrix = twin.matrix
        assert not matrix.flags.writeable and np.shares_memory(twin._stack, matrix)
        for array, index in ((matrix, (0, 0)), (twin._stack, (0, 0, 0))):
            with pytest.raises(ValueError, match="read-only"):
                array[index] = 7
        assert np.array_equal(matrix, expected)
        assert np.array_equal(twin.diagonal, np.diagonal(expected).real)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4, 1)])
    def test_a_read_matrix_is_pickled_once(self, shape):
        # once the matrix is read the stack is a view of it: a pickle grows
        # by the matrix less the stack it replaces, and a few bytes of key
        fam = shaped_family(np.random.default_rng(11), shape, 8, 8)
        d = decoherence_functional(fam)
        held, stack_bytes = len(pickle.dumps(d)), d._stack.nbytes
        matrix = d.matrix
        read = pickle.dumps(d)
        assert len(read) - held <= matrix.nbytes - stack_bytes + 256
        twin = pickle.loads(read)
        assert np.shares_memory(twin._stack, twin.matrix)
        assert not twin._stack.flags.writeable and not twin.matrix.flags.writeable
        assert np.array_equal(twin.matrix, matrix) and np.array_equal(twin._stack, d._stack)

    def test_an_empty_matrix_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="at least one history"):
            DecoherenceFunctional([], np.zeros((0, 0)))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_copy_and_pickle_of_a_given_matrix(self, read_first):
        fam = shaped_family(np.random.default_rng(9), (3, 2, 2), 3, 2)
        expected = np.array(decoherence_functional(fam).matrix)
        d = one_form_d("given", fam)
        if read_first:
            d.matrix
        before = reports(d)
        for twin in (copy.copy(d), pickle.loads(pickle.dumps(d))):
            assert np.array_equal(twin.matrix, expected) and len(twin._stack) == 1
            assert twin.n == d.n and twin.tol == d.tol
            assert reports(twin) == before
        assert np.array_equal(d.matrix, expected)


def random_partition(rng, size):
    """Label positions 0..size-1 in random blocks, in first-appearance order."""
    ids = rng.integers(0, int(rng.integers(1, size + 1)), size=size)
    order = list(dict.fromkeys(ids.tolist()))
    return [[int(p) for p in np.flatnonzero(ids == b)] for b in order]


class TestCoarseGraining:
    """D of a family coarsened at one slot is the fine D summed over blocks
    (Griffiths 1984; Gell-Mann and Hartle 1993): a coarse chain operator is
    the sum of its fine ones.

    Tolerance 1e-13: every entry of D is at most 1 in modulus and is made to
    within a few ulps of 1 from sums of at most d r = 25 products, and a
    coarse entry sums at most 6^2 = 36 fine ones (one slot of at most six
    labels is coarsened), so the round-off on both sides stays below about
    1e-14 (300 random families gave at most 6.7e-16); a missed or misplaced
    contribution is of the order of the entries themselves.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(
            st.tuples(st.integers(1, 6)),
            st.tuples(st.integers(1, 4), st.integers(1, 6)),
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        ),
        dim=st.integers(2, 5),
        rank=st.integers(1, 5),
        data=st.data(),
    )
    def test_coarse_d_is_the_block_sum_of_the_fine_d(self, seed, shape, dim, rank, data):
        rng = np.random.default_rng(seed)
        fam = shaped_family(rng, shape, dim, min(rank, dim))
        pos = data.draw(st.integers(0, len(shape) - 1), label="slot")  # the last slot too
        res = fam.resolutions[pos]
        blocks = random_partition(rng, res.size)
        partition = [[res.labels[p].index for p in block] for block in blocks]
        coarse = coarsen_slot(fam, fam.offset_of(pos), partition)
        assert coarse.shape[pos] == len(blocks)
        # A[c, f] = 1 when fine history f lies in coarse history c
        block_of = np.empty(res.size, dtype=int)
        for b, block in enumerate(blocks):
            block_of[block] = b
        fine = np.indices(shape).reshape(len(shape), -1)
        fine[pos] = block_of[fine[pos]]
        aggregate = np.zeros((coarse.n_fine_histories, fam.n_fine_histories))
        aggregate[np.ravel_multi_index(fine, coarse.shape), np.arange(fam.n_fine_histories)] = 1.0
        d_fine = decoherence_functional(fam).matrix
        d_coarse = decoherence_functional(coarse).matrix
        expected = aggregate @ d_fine @ aggregate.T
        assert np.max(np.abs(d_coarse - expected)) <= 1e-13
