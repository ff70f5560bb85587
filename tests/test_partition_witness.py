"""The partitions scope's witness, against the family ``coarsen_slot`` makes.

The witness names the worst coarse history by the labels the coarsened
family would give it: fine labels at the other slots and, at the coarsened
slot, the block's fine display labels joined by '+', with "'" appended
until it differs from an earlier block's name.  The check writes those
labels without building the coarse family; here it is built.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    check_additivity,
    coarsen_slot,
    fine_probabilities,
    from_basis,
    make_resolution,
    make_state,
)
from decohist.consistency import PARTITION_EXHAUSTIVE_MAX
from decohist.sampling import random_family, random_resolution

from conftest import random_rank_state


def named_resolution(rng, dim, names):
    """A random resolution into at most four blocks (degenerate where a block
    has rank > 1), padded with zero projectors, its labels named in order."""
    blocks = [p.matrix for p in random_resolution(dim, rng, min(len(names), 4)).projectors]
    mats = blocks + [np.zeros((dim, dim), dtype=complex)] * (len(names) - len(blocks))
    return make_resolution([(name, mats[i]) for name, i in zip(names, rng.permutation(len(names)))])


def reference_coarse_labels(family, witness):
    """Every coarse history's labels in the family ``coarsen_slot`` makes
    from the witness's blocks, and that family."""
    res = family.resolution_at(witness["slot"])
    index = {lab.display: lab.index for lab in res.labels}
    label_blocks: dict[str, list[int]] = {}
    for block in witness["blocks"]:
        name = "+".join(block)
        while name in label_blocks:
            name += "'"
        label_blocks[name] = [index[label] for label in block]
    coarse = coarsen_slot(family, witness["slot"], label_blocks)
    return [h.labels_by_offset() for h in coarse.fine_histories()], coarse


# names from a small alphabet with '+' and "'", so that joined block names
# collide with each other
names = st.text(alphabet="ab+'", min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    dim=st.integers(2, 4),
    rank=st.integers(1, 4),
    data=st.data(),
)
def test_witness_labels_match_the_coarsened_family(seed, sizes, dim, rank, data):
    rng = np.random.default_rng(seed)
    base = random_family(rng, dim, len(sizes))
    resolutions = tuple(
        named_resolution(
            rng, dim, data.draw(st.lists(names, min_size=size, max_size=size, unique=True))
        )
        for size in sizes
    )
    fam = HistoryFamily(base.schedule, resolutions, random_rank_state(rng, dim, min(rank, dim)))
    report = check_additivity(fam, scope="partitions", seed=seed % 1000)
    assert (report.seed is not None) == any(s > PARTITION_EXHAUSTIVE_MAX for s in sizes)
    witness = report.witness
    if witness is None:
        assert all(s < 2 for s in sizes)
        return
    labelled, coarse = reference_coarse_labels(fam, witness)
    assert labelled.count(witness["coarse_history"]) == 1
    # the named coarse history has the reported discrepancy: its probability
    # against the sum of its block's fine probabilities
    pos = fam.position(witness["slot"])
    res = fam.resolutions[pos]
    at = np.unravel_index(labelled.index(witness["coarse_history"]), coarse.shape)
    members = [res.position(label) for label in res.outcome(witness["blocks"][at[pos]]).labels]
    fine = fine_probabilities(fam).reshape(fam.shape)
    summed = fine[(*at[:pos], members, *at[pos + 1 :])].sum()
    gap = abs(fine_probabilities(coarse).reshape(coarse.shape)[at] - summed)
    assert abs(gap - report.worst_violation) <= 1e-13


def test_worst_history_in_a_renamed_block():
    """Labels a+b, c, a, b+c: the split {a+b, c} | {a, b+c} names both blocks
    "a+b+c", so the second becomes "a+b+c'".  The family puts the worst
    discrepancy in that second block: with state |psi> = (1, 1, 1, 1)/2 and
    a last slot measuring |phi> ~ (-0.1, -0.5, 1, 1), the slot-0 entries
    Re D_ab of phi's histories are u_a u_b with u ~ phi, and a block's
    discrepancy (sum u)^2 - sum u^2 peaks on {a, b+c} alone: 2 against at
    most 1.6 elsewhere, in units of u's scale."""
    grid = TimeGrid((0.0, 1.0), 0)
    schedule = build_schedule(grid, DynamicsSpec.trivial(4))
    first = from_basis(4, [[0], [1], [2], [3]], names=["a+b", "c", "a", "b+c"])
    phi = np.array([-0.1, -0.5, 1.0, 1.0]) / np.linalg.norm([-0.1, -0.5, 1.0, 1.0])
    onto = np.outer(phi, phi).astype(complex)
    last = make_resolution([("phi", onto), ("rest", np.eye(4) - onto)])
    fam = HistoryFamily(schedule, (first, last), make_state(np.full((4, 4), 0.25)))
    witness = check_additivity(fam, scope="partitions").witness
    assert witness["blocks"] == [["a+b", "c"], ["a", "b+c"]]
    assert witness["coarse_history"] == {0: ["a+b+c'"], 1: ["phi"]}
    labelled, _ = reference_coarse_labels(fam, witness)
    assert witness["coarse_history"] in labelled
