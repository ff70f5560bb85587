"""Packed Gram rows: each last-slot label's rows are a view of its own
factor rows, with no padding.

``HistoryFamily._gram`` holds one ``(N/s, d, r)`` array, 16 (N/s) d r
bytes, with its ``(d, r)`` weights and the last slot's label offsets: label
a's rows are ``rows[:, offsets[a]:offsets[a + 1]]``, rank_a * r long.  The
edge cases of that packing are held to the extended-precision reference
(``reference.py``) within ``reference.bound``: zero projectors (empty
views, all-zero blocks, zero probabilities), a one-outcome last slot (I:
rows vec(Y_i L)), rank-deficient and pure states, and the additivity
fibers and robustness in every inner mode, whose worst values are read off
the reference's D directly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    HistoryFamily,
    chain_operator,
    check_additivity,
    check_state_robustness,
    decoherence_functional,
    fine_probabilities,
)
from decohist.linalg import TILE
from decohist.sampling import random_family, random_resolution, random_unitary

import reference
from conftest import random_rank_state
from test_blocks import shaped_family
from test_consistency import MAGNITUDES
from test_lueders import exact_resolution
from test_reference import assert_matches_reference, with_last

seeds = st.integers(0, 2**32 - 1)


def packed_bytes(family) -> int:
    """16 (N/s) d r: one complex entry per history prefix, factor row of the
    last slot and column of the state's factor."""
    n, s, d = family.n_fine_histories, family.shape[-1], family.dim
    return 16 * (n // s) * d * len(family.state._factor[1])


class TestBytes:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=seeds,
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        dim=st.integers(1, 8),
        rank=st.integers(1, 8),
    )
    def test_the_rows_take_16_m_d_r_bytes(self, seed, shape, dim, rank):
        # padded resolutions: degenerate and zero projectors, a {I} last slot
        # whenever the last size is 1
        fam = shaped_family(np.random.default_rng(seed), tuple(shape), dim, min(rank, dim))
        rows, weights, offsets = fam._gram
        r, k = len(fam.state._factor[1]), offsets[-1]
        assert rows.shape == (fam.n_fine_histories // fam.shape[-1], k, r)
        assert weights.shape == (k, r) and np.all(weights > 0)  # no padding
        assert len(offsets) == fam.shape[-1] + 1
        # each label has its projector's rank (its trace) of factor rows, or
        # one more for a round-off pivot: k = d, or a row more per such pivot
        traces = [round(p.matrix.trace().real) for p in fam.resolutions[-1].projectors]
        assert np.all(np.diff(offsets) >= traces)
        assert rows.nbytes == packed_bytes(fam) // dim * k

    def test_a_round_off_pivot_is_one_more_row(self):
        # the first of these rank-one splits of dim 2 whose factors keep a
        # pivot of about 3e-16 past a rank (above _ldl's floor, d eps
        # max(diag)): that label has a row more, of that little weight, and
        # D and the probabilities stay the reference's
        base = shaped_family(np.random.default_rng(57), (3, 2), 2, 1)
        for angle in np.linspace(0.1, 1.4, 400):
            v = np.array([np.cos(angle), np.exp(1.3j) * np.sin(angle)])
            fam = with_last(base, [np.outer(v, v.conj()), np.eye(2) - np.outer(v, v.conj())])
            if fam.resolutions[-1]._factor[2][-1] > 2:
                break
        rows, weights, offsets = fam._gram
        assert offsets[-1] == 3 and rows.shape == (3, 3, 1) and weights.shape == (3, 1)
        assert_matches_reference(fam)

    def test_a_d_build_holds_the_d_stack_and_one_strip(self):
        # 8 x 8 x 8 histories in dim 32 with a full-rank state: M = 64 rows
        # per label, each label alone in its strip.  The rows are cached
        # before, so the peak is at most the D stack and one strip buffer,
        # with numpy's fixed buffers for casting the float weights (8192
        # entries per operand) and small arrays: well under the rows' bytes
        # more.  The row norms' tiles are freed before D is made.
        rng = np.random.default_rng(53)
        base = random_family(rng, 32, 3)
        resolutions = tuple(exact_resolution(rng, 32, 8) for _ in range(3))
        fam = HistoryFamily(base.schedule, resolutions, random_rank_state(rng, 32, 32))
        rows, weights, offsets = fam._gram
        assert rows.nbytes == 16 * 64 * 32 * 32 == packed_bytes(fam)
        n, s = fam.n_fine_histories, 8
        stack = 16 * n * n // s
        strip = 16 * (n // s) * max(np.diff(offsets)) * 32  # one label's weighted rows
        tracemalloc.start()
        try:
            d = decoherence_functional(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d._stack.nbytes == stack
        assert peak <= stack + strip + 320 * 1024 < rows.nbytes + stack + strip, peak


class TestZeroProjectors:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, dim=st.integers(2, 5), rank=st.integers(1, 5))
    def test_rank_0_labels_give_empty_views_zero_blocks_and_zero_probabilities(
        self, seed, dim, rank
    ):
        rng = np.random.default_rng(seed)
        fam = shaped_family(rng, (3, 2, 1), dim, min(rank, dim))
        v = random_unitary(dim, rng)
        p = v[:, :1] @ v[:, :1].conj().T
        zero = np.zeros((dim, dim))
        # rank-0 labels first, between and last, so each strip edge meets one
        fam = with_last(fam, [zero, p, zero, zero, np.eye(dim) - p, zero])
        rows, _, offsets = fam._gram
        empty = [a for a in range(6) if offsets[a] == offsets[a + 1]]
        assert empty == [0, 2, 3, 5]
        assert all(rows[:, offsets[a] : offsets[a + 1]].size == 0 for a in empty)
        blocks = decoherence_functional(fam)._stack
        assert not np.any(blocks[empty])  # exactly zero
        probabilities = fine_probabilities(fam).reshape(-1, 6)
        assert not np.any(probabilities[:, empty])
        assert_matches_reference(fam)

    def test_a_strip_of_rank_0_labels_only(self):
        # five labels of two rows share a strip; the first four are zero
        rng = np.random.default_rng(54)
        fam = shaped_family(rng, (2, 1), 3, 2)
        zero = np.zeros((3, 3))
        fam = with_last(fam, [zero, zero, zero, zero, np.eye(3)])
        blocks = decoherence_functional(fam)._stack
        assert not np.any(blocks[:4]) and np.any(blocks[4])
        assert_matches_reference(fam)

    def test_rank_0_labels_alone_in_their_strips(self):
        # TILE / 2 rows per label: each label is its own strip, read as a view
        rng = np.random.default_rng(56)
        fam = shaped_family(rng, (TILE // 2, 1), 3, 2)
        p, zero = np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3))
        fam = with_last(fam, [zero, p, zero, np.eye(3) - p, zero])
        assert fam._gram[2] == (0, 0, 1, 1, 3, 3)
        blocks = decoherence_functional(fam)._stack
        assert not np.any(blocks[[0, 2, 4]]) and np.all(np.any(blocks[[1, 3]], axis=(1, 2)))
        assert not np.any(fine_probabilities(fam).reshape(-1, 5)[:, [0, 2, 4]])
        assert_matches_reference(fam)


class TestOneOutcomeLastSlot:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, dim=st.integers(1, 5), rank=st.integers(1, 5))
    def test_the_rows_are_vec_y_l(self, seed, dim, rank):
        rng = np.random.default_rng(seed)
        fam = with_last(shaped_family(rng, (2, 3, 1), dim, min(rank, dim)), [np.eye(dim)])
        rows, weights, offsets = fam._gram
        factor, delta = fam.state._factor
        assert offsets == (0, dim)
        assert np.array_equal(weights, np.tile(delta, (dim, 1)))
        # Y_i L for each prefix i, the last slot taken as exactly I
        for i, h in enumerate(fam.fine_histories()):
            expected = chain_operator(fam, h) @ factor
            assert np.max(np.abs(rows[i] - expected)) <= reference.bound(fam)
        assert_matches_reference(fam)


@pytest.mark.parametrize("state_rank", ["pure", "deficient", "full"])
class TestChecksAgainstTheReference:
    @staticmethod
    def family(rng, shape, dim, state_rank):
        rank = {"pure": 1, "deficient": max(1, dim - 1), "full": dim}[state_rank]
        base = random_family(rng, dim, len(shape))
        resolutions = tuple(random_resolution(dim, rng, size) for size in shape)
        # random_resolution makes at most ``size`` labels
        return HistoryFamily(base.schedule, resolutions, random_rank_state(rng, dim, rank))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=seeds,
        shape=st.lists(st.integers(2, 4), min_size=2, max_size=3),
        dim=st.integers(2, 5),
    )
    def test_additivity_fibers(self, state_rank, seed, shape, dim):
        fam = self.family(np.random.default_rng(seed), tuple(shape), dim, state_rank)
        assert_matches_reference(fam)
        d = reference.decoherence_matrix(fam)
        for scope in ("pairs", "partitions"):
            got = check_additivity(fam, scope=scope).worst_violation
            assert abs(got - reference.additivity(fam, d, scope)) <= 8 * reference.bound(fam)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=seeds,
        shape=st.lists(st.integers(2, 4), min_size=2, max_size=3),
        dim=st.integers(2, 5),
    )
    def test_robustness_in_every_inner_mode(self, state_rank, seed, shape, dim):
        rng = np.random.default_rng(seed)
        fam = self.family(rng, tuple(shape), dim, state_rank)
        states = [random_rank_state(rng, dim, rank) for rank in (1, max(1, dim - 1), dim)]
        dense = [reference.decoherence_matrix(fam, state) for state in states]
        bound = 8 * reference.bound(fam)
        for mode in ("weak", "medium", "additivity"):
            report = check_state_robustness(fam, states=states, mode=mode)
            if mode == "additivity":
                worst = max(reference.additivity(fam, d, "partitions") for d in dense)
            else:
                worst = max(reference.offdiag(d, MAGNITUDES[mode])[0] for d in dense)
            assert abs(report.worst_violation - worst) <= bound, mode


def test_strips_of_several_labels_and_of_one_agree_with_the_reference():
    # M = 3: many small labels share a strip; M = TILE // 2: each alone
    rng = np.random.default_rng(55)
    for shape in [(3, 8), (TILE // 2, 3)]:
        fam = shaped_family(rng, shape, 5, 4)
        assert_matches_reference(fam)
