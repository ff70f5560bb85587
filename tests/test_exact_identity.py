"""A {I} slot with an identity step changes no engine number, bit for bit.

A slot whose resolution is {I} carries the full outcome, the identity, and
changes no chain operator (Griffiths, J. Stat. Phys. 36, 219 (1984);
Gell-Mann & Hartle, Phys. Rev. D 47, 3345 (1993)).  The engine takes a full
outcome and a one-outcome slot as exactly the identity and skips them, so
inserting such a slot before or between the slots of a family, with the
same unitary as the slot after it, must leave the Gram rows, D's blocks,
the fine probabilities, every fine history's chain probability and both
additivity reports equal entry for entry (``np.array_equal``, under which
-0.0 equals +0.0).  Multiplying by the lifted {I}, a sum of projectors that
is the identity only to round-off, moves low bits and fails this.

Insertion after the last slot is left out: the new slot would become the
last one, whose labels split D into its blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    HistoryFamily,
    TimeGrid,
    check_additivity,
    decoherence_functional,
    fine_probabilities,
    history_probability,
    make_resolution,
)
from decohist.dynamics import DynamicsSchedule
from decohist.histories import _gram_rows

from test_retrodiction import stepped_family


def with_identity_slot(fam: HistoryFamily, at: int) -> HistoryFamily:
    """``fam`` with a {I} slot just before slot ``at``, sharing its unitary."""
    grid = fam.schedule.grid
    cumulative = list(fam.schedule.cumulative)
    cumulative.insert(at, cumulative[at])
    reference = fam.schedule.reference_index
    schedule = DynamicsSchedule(
        TimeGrid(tuple(float(t) for t in range(fam.n_slots + 1)),
                 grid.present_index + (grid.present_index >= at)),
        reference + (reference >= at),
        tuple(cumulative),
    )
    resolutions = list(fam.resolutions)
    resolutions.insert(at, make_resolution([("I", np.eye(fam.dim))]))
    return HistoryFamily(schedule, tuple(resolutions), fam.state)


def same_report(wide, narrow) -> bool:
    """Equal values, and witnesses naming the same fine histories or blocks
    (their offsets and labels differ by the inserted slot)."""
    if (wide.passed, wide.worst_violation) != (narrow.passed, narrow.worst_violation):
        return False
    if narrow.witness is None or wide.witness is None:
        return narrow.witness is wide.witness
    key = "indices" if narrow.witness["kind"] == "pair" else "blocks"
    return wide.witness[key] == narrow.witness[key]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),  # rank < dim: a rank-deficient state
    hamiltonian=st.booleans(),
    data=st.data(),
)
def test_identity_slot_changes_no_bit(seed, shape, dim, rank, hamiltonian, data):
    n = len(shape)
    present = data.draw(st.integers(0, n - 1), label="present")
    reference = data.draw(st.integers(0, n - 1), label="reference")
    at = data.draw(st.integers(0, n - 1), label="inserted before slot")
    rng = np.random.default_rng(seed)
    fam = stepped_family(rng, shape, present, reference, dim, min(rank, dim), hamiltonian)
    wide = with_identity_slot(fam, at)

    for got, want in zip(_gram_rows(wide, wide.state), _gram_rows(fam, fam.state)):
        assert np.array_equal(got, want)
    assert np.array_equal(decoherence_functional(wide)._stack, decoherence_functional(fam)._stack)
    assert np.array_equal(fine_probabilities(wide), fine_probabilities(fam))
    for scope in ("pairs", "partitions"):
        assert same_report(check_additivity(wide, scope=scope),
                           check_additivity(fam, scope=scope))
    # the fine histories of both families in one order: the {I} slot has one label
    for h_wide, h in zip(wide.fine_histories(), fam.fine_histories()):
        assert history_probability(wide, h_wide, clamp=False) == history_probability(
            fam, h, clamp=False
        )
