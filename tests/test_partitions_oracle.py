"""The partitions-scope additivity check against the sequential oracle.

Coarsening one slot by a candidate partition (``consistency
._candidate_partition``) merges each block's labels; a coarse history, the
block at that slot and one fine label at every other, has chain operator
the sum of its fine histories' chains, so its probability less theirs is
the block's off-diagonal Re D.  The engine reads that off the fiber rows of
its Gram form; here every probability comes from
``lueders.sequential_probability``, which shares nothing with those rows
but the schedule.  Over every slot, candidate and coarse history, the
scope's worst violation must be the largest |p(coarse) - sum p(fine)|, and
its witness must name the slot, the blocks and the coarse history that
attain it wherever the two largest values lie further apart than the
oracle's agreement.

The slack is that of ``test_pairs_oracle.py``: ``TOL`` plus ``ZERO_STEP``
for each trace with a cut step.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import HistoryFamily, check_additivity, make_resolution
from decohist.consistency import _candidate_count, _candidate_partition
from decohist.linalg import ZERO_STEP
from decohist.sampling import random_family, random_unitary

from conftest import random_rank_state
from test_blocks import shaped_family
from test_pairs_oracle import TOL, oracle


def coarse_values(family) -> list[tuple[float, float, dict]]:
    """(|p(coarse) - sum p(fine)|, its slack, its witness) for every block
    of every candidate partition of every slot of two or more labels, and
    every choice of fine labels at the other slots, all from the oracle."""
    fine = list(family.fine_histories())
    single = [oracle(family, h) for h in fine]
    index = np.arange(len(fine)).reshape(family.shape)
    out = []
    for pos, size in enumerate(family.shape):
        if size < 2:
            continue
        res, offset = family.resolutions[pos], family.offset_of(pos)
        others = [range(n) for q, n in enumerate(family.shape) if q != pos]
        for k in range(_candidate_count(size)):
            blocks = _candidate_partition(size, k)
            names = [[res.labels[a].display for a in block] for block in blocks]
            for rest in itertools.product(*others):
                for block, labels in zip(blocks, names):
                    spec = {family.offset_of(q): [a] for q, a in zip(_skip(family, pos), rest)}
                    p, cut = oracle(family, family.history({**spec, offset: list(block)}))
                    members = [index[(*rest[:pos], a, *rest[pos:])] for a in block]
                    total = sum(single[i][0] for i in members)
                    cuts = cut + sum(single[i][1] for i in members)
                    coarse = {
                        family.offset_of(q): [family.resolutions[q].labels[a].display]
                        for q, a in zip(_skip(family, pos), rest)
                    }
                    coarse[offset] = ["+".join(labels)]
                    witness = {"slot": offset, "blocks": names, "coarse_history": coarse}
                    out.append((abs(p - total), TOL + ZERO_STEP * cuts, witness))
    return out


def _skip(family, pos: int) -> list[int]:
    return [q for q in range(family.n_slots) if q != pos]


def assert_partitions_scope_matches_the_oracle(family) -> bool:
    """Whether the witness was compared too."""
    report = check_additivity(family, scope="partitions")
    values = coarse_values(family)
    if not values:  # every slot has one outcome
        assert report.worst_violation == 0.0 and report.witness is None
        return False
    worst = max(value for value, _, _ in values)
    slack = max(slack for _, slack, _ in values)
    assert abs(report.worst_violation - worst) <= slack
    ranked = sorted(values, key=lambda v: v[0], reverse=True) + [(-np.inf, 0.0, None)]
    (top, top_slack, witness), (second, second_slack, _) = ranked[:2]
    if top - second <= top_slack + second_slack:
        return False
    assert {key: report.witness[key] for key in witness} == witness
    return True


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    dim=st.integers(1, 5),
    rank=st.integers(1, 5),  # rank < dim: a rank-deficient state
)
def test_random_families(seed, shape, dim, rank):
    rng = np.random.default_rng(seed)
    family = shaped_family(rng, tuple(shape), dim, min(rank, dim))
    assert_partitions_scope_matches_the_oracle(family)


@pytest.mark.parametrize("seed", range(4))
def test_families_with_cut_steps(seed):
    # five outcomes at the first slot: one is a zero projector, whose step
    # the oracle cuts, and a pure state leaves some later steps at round-off
    rng = np.random.default_rng(seed)
    family = shaped_family(rng, (5, 3, 2), 4, 1)
    cuts = sum(oracle(family, h)[1] for h in family.fine_histories())
    assert cuts > 0
    assert_partitions_scope_matches_the_oracle(family)


@pytest.mark.parametrize("seed", range(4))
def test_witnesses_of_families_without_zero_projectors(seed):
    # every projector nonzero and three outcomes at the last slot, so the
    # largest value is not tied: with two, a slot before the last has
    # coarse histories ending in either label of equal magnitude
    rng = np.random.default_rng(seed)
    dim, base = 5, random_family(rng, 5, 3)
    resolutions = []
    for size in (3, 4, 3):
        v = random_unitary(dim, rng)
        blocks = [v[:, c] @ v[:, c].conj().T for c in np.array_split(np.arange(dim), size)]
        resolutions.append(make_resolution([(str(k), p) for k, p in enumerate(blocks)]))
    family = HistoryFamily(base.schedule, tuple(resolutions), random_rank_state(rng, dim, 2))
    assert assert_partitions_scope_matches_the_oracle(family)
