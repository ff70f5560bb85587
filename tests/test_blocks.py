"""D's last-slot blocks.

Histories whose labels at the last slot differ never interfere: their chain
operators end in orthogonal projectors, which meet under the trace.  So the
engine builds, and the weak, medium and robustness checks scan, only the
blocks D[a::s, a::s] of an s-outcome last slot, and the additivity scopes
count that slot's candidates as exact zeros.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DecoherenceFunctional,
    HistoryFamily,
    check_additivity,
    check_state_robustness,
    decoherence_functional,
)
from decohist import histories as histories_module
from decohist.histories import _block_view
from decohist.linalg import TILE
from decohist.sampling import random_family

import reference
from conftest import gram_matrix, random_rank_state
from test_consistency import (
    MAGNITUDES,
    OFFDIAG_CHECKS,
    _Unlabelled,
    assert_robust_matches,
    exact_size_family,
    padded_resolution,
)


def shaped_family(rng, shape, dim, rank):
    """A random family with ``padded_resolution`` slots of the given sizes."""
    base = random_family(rng, dim, len(shape))
    resolutions = tuple(padded_resolution(rng, dim, size) for size in shape)
    return HistoryFamily(base.schedule, resolutions, random_rank_state(rng, dim, rank))


def same_last_label(n, s):
    """Where D may be nonzero: both histories end in the same last-slot label."""
    label = np.arange(n) % s
    return label[:, None] == label[None, :]


def assert_blocks_and_witnesses(fam, states):
    d = decoherence_functional(fam)
    m = np.array(d.matrix)
    n, s = len(m), fam.shape[-1]
    inside = same_last_label(n, s)
    assert np.all(m[~inside] == 0.0)  # exact zeros, not round-off
    dense = gram_matrix(*histories_module._gram_rows(fam, fam.state))
    assert np.max(np.abs(m - dense)[inside]) <= 1e-15
    for mode, check in OFFDIAG_CHECKS.items():
        report = check(d)
        robust = check_state_robustness(fam, states=states, mode=mode)
        if n < 2:
            assert report.witness is None and report.worst_violation == 0.0
            assert robust.witness["inner"] is None
            continue
        worst, indices = reference.offdiag(m, MAGNITUDES[mode])
        assert report.worst_violation == worst  # bit for bit
        assert report.witness["indices"] == indices
        assert_robust_matches(robust, fam, states, mode)


class TestLastSlotBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(
            st.tuples(st.integers(1, 9)),  # one slot: s = N, D is diagonal
            st.tuples(st.integers(1, 5), st.integers(1, 6)),
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(1)),  # {I} last
            st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(2, 6)),
        ),
        dim=st.integers(2, 5),
        rank=st.integers(1, 5),
    )
    def test_blocks_match_dense_references(self, seed, shape, dim, rank):
        # padded_resolution pads with zero projectors past four outcomes
        rng = np.random.default_rng(seed)
        fam = shaped_family(rng, shape, dim, min(rank, dim))
        states = [random_rank_state(rng, dim, r) for r in (1, dim)]
        assert_blocks_and_witnesses(fam, states)

    @pytest.mark.parametrize(
        "case",
        [
            # exact_size_family's shapes: a prime is one slot of N outcomes
            TILE - 1,
            TILE + 1,  # 3 x 43
            2 * TILE + 2,  # 2 x 129: blocks of two rows
            # blocks of more than TILE rows take several strips each
            (TILE + 1, 2),
            (2 * TILE + 3, 2),
            (2, TILE + 1, 1),  # a {I} last slot: D is one block
        ],
    )
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4))
    def test_blocks_either_side_of_a_strip(self, case, seed, dim):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, dim + 1))
        if isinstance(case, int):
            fam = exact_size_family(rng, case, dim, rank)
        else:
            fam = shaped_family(rng, case, dim, rank)
        assert_blocks_and_witnesses(fam, [random_rank_state(rng, dim, 1)])

    @pytest.mark.parametrize("s, m", [(2, 5), (3, TILE + 3), (8, 16), (5, 2 * TILE + 1)])
    def test_planted_ties_across_blocks_and_strips(self, s, m):
        # equal magnitudes in several blocks and strips, a later block's at
        # an earlier row of D; the scan must find D's row-major first
        n = s * m
        rng = np.random.default_rng(n)
        inside = same_last_label(n, s)
        noise = 1e-3 / n * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        matrix = np.where(inside, noise + noise.conj().T, 0.0)
        np.fill_diagonal(matrix, 1.0 / n)
        cells = [(s * (m - 3) + 0, s * (m - 1)), (s * (m - 3) - 1, s * (m - 2) - 1)]
        if m > TILE:  # one in a later strip of block 1
            cells.append((s * (TILE + 1) + 1, s * (TILE + 2) + 1))
        for i, j in cells:
            matrix[i, j] = matrix[j, i] = 0.5 / n
        blocks = _block_view(matrix, s).copy()
        dfunc = DecoherenceFunctional._from_gram((_Unlabelled(),) * n, blocks)
        for mode, check in OFFDIAG_CHECKS.items():
            report = check(dfunc)
            worst, indices = reference.offdiag(matrix, MAGNITUDES[mode])
            assert (report.worst_violation, report.witness["indices"]) == (worst, indices)
            assert indices == list(min(cells))

    def test_no_interference_gives_the_first_entry(self, same_basis_family):
        # z at every slot: only equal labels interfere, so D is diagonal
        d = decoherence_functional(same_basis_family)
        assert np.count_nonzero(d.matrix - np.diag(np.diagonal(d.matrix))) == 0
        for check in OFFDIAG_CHECKS.values():
            report = check(d)
            assert (report.worst_violation, report.witness["indices"]) == (0.0, [0, 1])
        robust = check_state_robustness(same_basis_family, count=3)
        assert robust.worst_violation == 0.0
        assert robust.witness["inner"]["indices"] == [0, 1]

    def test_user_built_matrix_is_scanned_in_full(self, z_then_x_family):
        # histories (z0, x+), (z0, x-), (z1, x+), (z1, x-): the x slot is last,
        # and (1, 2) lies outside its blocks, which hold only zeros here
        histories = decoherence_functional(z_then_x_family).histories
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = 0.01
        user = DecoherenceFunctional(histories, m)
        for mode, check in OFFDIAG_CHECKS.items():
            report = check(user)
            assert report.worst_violation == reference.offdiag(m, MAGNITUDES[mode])[0] > 0
            assert report.witness["indices"] == [1, 2]


class TestLastSlotAdditivity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        dim=st.integers(2, 5),
    )
    def test_pairs_worst_is_the_one_slot_maximum_of_d(self, seed, shape, dim):
        rng = np.random.default_rng(seed)
        fam = shaped_family(rng, shape, dim, dim)
        m = np.array(decoherence_functional(fam).matrix)
        index = np.arange(len(m)).reshape(shape)
        worst = 0.0
        for pos, size in enumerate(shape):
            for a in range(size):
                for b in range(a + 1, size):
                    i, j = index.take(a, axis=pos).ravel(), index.take(b, axis=pos).ravel()
                    worst = max(worst, float(np.max(np.abs(2.0 * m[i, j].real))))
        report = check_additivity(fam, scope="pairs")
        assert report.worst_violation == pytest.approx(worst, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("size", [2, 3, 9])
    def test_only_the_last_slot_varies(self, size):
        # one outcome at every earlier slot: nothing can interfere, and the
        # first candidate of the last slot is the witness
        rng = np.random.default_rng(size)
        fam = shaped_family(rng, (1, size), 3, 3)
        pairs = check_additivity(fam, scope="pairs")
        assert pairs.worst_violation == 0.0
        assert pairs.witness["indices"] == [0, 1]
        assert pairs.witness["slot"] == fam.offset_of(1)
        partitions = check_additivity(fam, scope="partitions")
        assert partitions.worst_violation == 0.0
        assert partitions.witness["slot"] == fam.offset_of(1)
        assert partitions.witness["coarse_history"] == {
            fam.offset_of(0): ["0"],
            fam.offset_of(1): ["+".join(partitions.witness["blocks"][0])],
        }
        labels = sorted(lab.display for lab in fam.resolutions[1].labels)
        assert sorted(sum(partitions.witness["blocks"], [])) == labels
        if size <= 8:  # the full merge is the first candidate
            assert partitions.witness["blocks"] == [labels] and partitions.seed is None
        else:  # a seeded sample of candidates
            assert partitions.seed == 1729
