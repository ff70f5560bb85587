"""The engine's D and fine probabilities against an extended-precision
reference (``reference.py``), built from explicit chain operators in
``np.clongdouble``, within the reference's stated bound 16 (n + 2) d eps.

The engine makes D from Gram rows that factor the state and each last-slot
projector; the reference factors nothing.  Families cover rank-deficient
states; degenerate, zero and full-rank last-slot projectors (padded
resolutions, which pad with zero projectors past four labels and may be one
full-rank block); a one-outcome last slot; and states other than the
family's own, whose rows share the family's factor of the last slot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    HistoryFamily,
    check_state_robustness,
    decoherence_functional,
    fine_probabilities,
    make_resolution,
)

import reference
from conftest import random_rank_state
from test_blocks import shaped_family
from test_consistency import exact_size_family


def assert_matches_reference(family):
    bound = reference.bound(family)
    d = decoherence_functional(family).matrix
    assert np.max(np.abs(d - reference.decoherence_matrix(family))) <= bound
    probabilities = reference.fine_probabilities(family)
    assert np.max(np.abs(fine_probabilities(family) - probabilities)) <= bound


def with_last(family, matrices):
    """``family`` with its last slot's resolution given by ``matrices``."""
    res = make_resolution([(str(k), m) for k, m in enumerate(matrices)])
    return HistoryFamily(family.schedule, (*family.resolutions[:-1], res), family.state)


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    dim=st.integers(1, 6),
    rank=st.integers(1, 6),  # rank < dim: a rank-deficient state
)
def test_padded_families(seed, shape, dim, rank):
    rng = np.random.default_rng(seed)
    assert_matches_reference(shaped_family(rng, tuple(shape), dim, min(rank, dim)))


@settings(max_examples=12, deadline=None)
@given(
    seed=seeds,
    n=st.sampled_from([5, 12, 30, 64]),
    dim=st.integers(2, 5),
    rank=st.integers(1, 5),
)
def test_exact_size_families(seed, n, dim, rank):
    rng = np.random.default_rng(seed)
    assert_matches_reference(exact_size_family(rng, n, dim, min(rank, dim)))


@pytest.mark.parametrize("last", ["full rank among zeros", "one outcome"])
@settings(max_examples=10, deadline=None)
@given(seed=seeds, dim=st.integers(2, 6), rank=st.integers(1, 6))
def test_full_rank_and_one_outcome_last_slots(last, seed, dim, rank):
    rng = np.random.default_rng(seed)
    fam = shaped_family(rng, (3, 2, 1), dim, min(rank, dim))
    zero, eye = np.zeros((dim, dim)), np.eye(dim)
    fam = with_last(fam, [zero, eye, zero] if last == "full rank among zeros" else [eye])
    assert_matches_reference(fam)


@settings(max_examples=20, deadline=None)
@given(
    seed=seeds,
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    dim=st.integers(2, 5),
)
def test_other_states_share_the_last_slot_factor(seed, shape, dim):
    # robustness builds each state's rows from the family's one factor of
    # the last slot; its weak worst is the reference's largest |2 Re D_ij|
    # over distinct pairs, D's largest entries being within the bound
    rng = np.random.default_rng(seed)
    fam = shaped_family(rng, tuple(shape), dim, dim)
    for state in [random_rank_state(rng, dim, rank) for rank in (1, dim)]:
        assert_matches_reference(fam.with_state(state))
        d = reference.decoherence_matrix(fam, state)
        worst = np.abs(2 * d.real)[np.triu_indices(len(d), k=1)].max(initial=0.0)
        robust = check_state_robustness(fam, states=[state], mode="weak")
        assert abs(robust.worst_violation - float(worst)) <= 2 * reference.bound(fam)
