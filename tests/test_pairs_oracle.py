"""The pairs-scope additivity check against the sequential oracle.

Fine histories i and j that differ in exactly one slot have a union that is
a history, and 2 Re D_ij = p(i u j) - p(i) - p(j).  The engine reads Re D
off the fiber rows of its Gram form; here every probability comes from
``lueders.sequential_probability``, which shares nothing with those rows
but the schedule.  The scope's worst violation must be the largest
|p(i u j) - p(i) - p(j)| over such pairs, and its witness a pair that
attains it, each within the oracle's agreement, ``TOL``.

The oracle cuts a step whose probability is at most ``ZERO_STEP``: it
reports the history's probability as 0 where the chain gives the cut step's
probability times the earlier steps', at most ``ZERO_STEP``.  So each
probability read from a trace with a cut step carries ``ZERO_STEP`` more
slack.  Padded resolutions (zero projectors past four labels) and
rank-deficient states make cut steps common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import check_additivity, history_union, sequential_probability
from decohist.linalg import ZERO_STEP

from test_blocks import shaped_family

#: How closely the oracle and the engine agree on a probability without a
#: cut step (the round-off of d x d products over a few slots).
TOL = 1e-12


def oracle(family, history) -> tuple[float, int]:
    """The oracle's probability and whether its trace cut a step (0 or 1)."""
    p, trace = sequential_probability(family, history)
    return p, int(any(step.post_state is None for step in trace.steps))


def one_slot_pairs(family) -> dict:
    """(i, j) -> (|p(i u j) - p(i) - p(j)|, its slack) over every pair of
    fine histories differing in one slot, all from the oracle."""
    fine = list(family.fine_histories())
    single = [oracle(family, h) for h in fine]
    index = np.arange(len(fine)).reshape(family.shape)
    out = {}
    for pos, size in enumerate(family.shape):
        for a in range(size):
            for b in range(a + 1, size):
                pairs = zip(index.take(a, axis=pos).ravel(), index.take(b, axis=pos).ravel())
                for i, j in pairs:
                    p, cut = oracle(family, history_union(fine[i], fine[j]))
                    (pi, cut_i), (pj, cut_j) = single[i], single[j]
                    slack = TOL + ZERO_STEP * (cut + cut_i + cut_j)
                    out[int(i), int(j)] = (abs(p - pi - pj), slack)
    return out


def assert_pairs_scope_matches_the_oracle(family):
    report = check_additivity(family, scope="pairs")
    pairs = one_slot_pairs(family)
    if not pairs:  # every slot has one outcome
        assert report.worst_violation == 0.0 and report.witness is None
        return
    worst = max(value for value, _ in pairs.values())
    slack = max(slack for _, slack in pairs.values())
    assert abs(report.worst_violation - worst) <= slack
    value, slack = pairs[tuple(report.witness["indices"])]
    assert abs(report.worst_violation - value) <= slack


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    dim=st.integers(1, 5),
    rank=st.integers(1, 5),  # rank < dim: a rank-deficient state
)
def test_random_families(seed, shape, dim, rank):
    rng = np.random.default_rng(seed)
    family = shaped_family(rng, tuple(shape), dim, min(rank, dim))
    assert_pairs_scope_matches_the_oracle(family)


@pytest.mark.parametrize("seed", range(4))
def test_families_with_cut_steps(seed):
    # five outcomes at the first slot: one is a zero projector, whose step
    # the oracle cuts, and a pure state leaves some later steps at round-off
    rng = np.random.default_rng(seed)
    family = shaped_family(rng, (5, 3, 2), 4, 1)
    cuts = sum(oracle(family, h)[1] for h in family.fine_histories())
    assert cuts > 0
    assert_pairs_scope_matches_the_oracle(family)
