"""The normalized retrodiction's denominator against the sum over pasts.

``retrodictive_normalized`` divides by the sum of p(past, present) over
every fine past.  The engine computes that sum as the present's probability
after each past slot has dephased the state, rho -> sum_a P_a rho P_a^dagger
(a non-selective Lueders measurement); the per-past sum it replaced is kept
here as the reference.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    history_probability,
    make_resolution,
    retrodictive_normalized,
)
from decohist.dynamics import DynamicsSchedule
from decohist.errors import ZeroConditionProbabilityError
from decohist.histories import ZERO_THRESHOLD, _clamp_unit, _summed_past_denominator
from decohist.sampling import random_hermitian, random_unitary

from conftest import random_rank_state
from test_consistency import padded_resolution


def looped_denominator(family, present):
    """Sum of joint probabilities over every fine-grained past, one chain
    operator per past."""
    past_offsets = [off for off in family.offsets() if off < 0]
    label_lists = [
        [lab.index for lab in family.resolution_at(off).labels] for off in past_offsets
    ]
    total = 0.0
    for combo in itertools.product(*label_lists):
        spec = {0: present.sorted_labels(), **dict(zip(past_offsets, combo))}
        total += history_probability(family, family.history(spec), clamp=False)
    return total


def looped_normalized(family, past, present):
    den = looped_denominator(family, present)
    if den <= ZERO_THRESHOLD:
        raise ZeroConditionProbabilityError(den, ZERO_THRESHOLD)
    spec = {**{off: sorted(past.outcome_at(off).labels) for off in family.offsets() if off < 0},
            0: present.sorted_labels()}
    return _clamp_unit(history_probability(family, family.history(spec), clamp=False) / den)


def stepped_family(rng, shape, present, reference, dim, rank, hamiltonian):
    """``padded_resolution`` slots of the given sizes (zero and degenerate
    projectors), a rank-``rank`` state at slot ``reference``, and dynamics
    from one Hamiltonian or from random step unitaries."""
    n = len(shape)
    grid = TimeGrid(tuple(np.cumsum(rng.uniform(0.2, 1.0, size=n)).tolist()), present)
    if hamiltonian:
        spec = DynamicsSpec.from_hamiltonian(random_hermitian(dim, rng))
    else:
        spec = DynamicsSpec.from_steps([random_unitary(dim, rng) for _ in range(n - 1)])
    schedule = build_schedule(grid, spec, reference, dim=dim)
    resolutions = tuple(padded_resolution(rng, dim, size) for size in shape)
    return HistoryFamily(schedule, resolutions, random_rank_state(rng, dim, rank))


def fine_pasts(family):
    past_offsets = [off for off in family.offsets() if off < 0]
    labels = ([lab.index for lab in family.resolution_at(off).labels] for off in past_offsets)
    for combo in itertools.product(*labels):  # one empty past when there is none
        yield family.history(dict(zip(past_offsets, combo)))


family_args = dict(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),  # rank < dim: a rank-deficient state
    hamiltonian=st.booleans(),
    data=st.data(),
)


def draw_family(seed, shape, dim, rank, hamiltonian, data):
    present = data.draw(st.integers(0, len(shape) - 1), label="present")
    reference = data.draw(st.integers(0, len(shape) - 1), label="reference")
    rng = np.random.default_rng(seed)
    fam = stepped_family(rng, shape, present, reference, dim, min(rank, dim), hamiltonian)
    res = fam.resolution_at(0)
    labels = data.draw(
        st.lists(st.sampled_from([lab.index for lab in res.labels]), min_size=1, unique=True),
        label="present labels",
    )  # a coarse present when it has more than one label
    return fam, res.outcome(labels)


def ratio_tol(den):
    """1e-13 for a normalized value, divided by its denominator below 1: a
    ratio's error is its parts' round-off divided by the denominator."""
    return 1e-13 / min(1.0, den)


class TestSummedPastDenominator:
    """Tolerance 1e-13 on a denominator: it is a probability, at most 1.  The
    reference sums at most 4^3 = 64 chain-operator probabilities, each a
    product of up to four lifted d x d projectors (d <= 6), future slots'
    full outcomes included, whose sums are the identity only to a few ulps;
    so its round-off reaches about 1e-14 (seen: 1.3e-14 on four {I} slots).
    Dropping or misplacing a past slot changes the sum by the interference
    it carries, of the order of the probabilities themselves (seen: 4e-3 and
    more).  A present of zero projectors has a denominator of exactly 0."""

    @settings(max_examples=60, deadline=None)
    @given(**family_args)
    def test_dephasing_matches_the_sum_over_pasts(self, seed, shape, dim, rank, hamiltonian, data):
        fam, present = draw_family(seed, shape, dim, rank, hamiltonian, data)
        den = looped_denominator(fam, present)
        assert abs(_summed_past_denominator(fam, present) - den) <= 1e-13
        pasts = list(fine_pasts(fam))
        if den <= ZERO_THRESHOLD:  # a present of zero projectors: exactly 0
            with pytest.raises(ZeroConditionProbabilityError):
                retrodictive_normalized(fam, pasts[0], present)
            return
        values = [retrodictive_normalized(fam, past, present) for past in pasts]
        expected = [looped_normalized(fam, past, present) for past in pasts]
        assert np.max(np.abs(np.subtract(values, expected))) <= ratio_tol(den)
        # over fine pasts they sum to 1 with no consistency assumption
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

    def test_present_at_the_first_slot_has_no_past(self):
        rng = np.random.default_rng(3)
        fam = stepped_family(rng, (3, 2, 4), 0, 1, 4, 2, False)
        for lab in fam.resolution_at(0).labels:
            present = fam.resolution_at(0).outcome([lab.index])
            assert abs(_summed_past_denominator(fam, present) - looped_denominator(fam, present)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(**family_args)
    def test_an_identity_past_slot_changes_nothing(self, seed, shape, dim, rank, hamiltonian, data):
        fam, present = draw_family(seed, shape, dim, rank, hamiltonian, data)
        den = looped_denominator(fam, present)
        grid, pos = fam.schedule.grid, fam.position(0)
        at = data.draw(st.integers(0, pos), label="inserted position")  # before the present
        # the new slot sits just before old slot ``at``, with its unitary
        cumulative = list(fam.schedule.cumulative)
        cumulative.insert(at, cumulative[at])
        reference = fam.schedule.reference_index
        times = tuple(float(t) for t in range(fam.n_slots + 1))
        schedule = DynamicsSchedule(
            TimeGrid(times, grid.present_index + 1),
            reference + (reference >= at),
            tuple(cumulative),
        )
        resolutions = list(fam.resolutions)
        resolutions.insert(at, make_resolution([("I", np.eye(dim))]))
        wider = HistoryFamily(schedule, tuple(resolutions), fam.state)
        wide_present = wider.resolution_at(0).outcome(present.sorted_labels())
        assert abs(_summed_past_denominator(wider, wide_present) - den) <= 1e-13
        if den <= ZERO_THRESHOLD:
            return
        inserted = wider.offset_of(at)
        for past in fine_pasts(fam):
            labels = {off: sorted(past.outcome_at(off).labels) for off in fam.offsets() if off < 0}
            # offsets before the inserted slot move one earlier
            wide = {off - (fam.position(off) < at): idx for off, idx in labels.items()}
            wide[inserted] = ["I"]
            value = retrodictive_normalized(wider, wider.history(wide), wide_present)
            assert abs(value - retrodictive_normalized(fam, past, present)) <= ratio_tol(den)
