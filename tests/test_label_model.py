"""A label is its position in the resolution, with an optional name.

Over resolutions built every supported way, an outcome holds the positions
of its labels however they are given, displays them in resolution order,
and a partition normalizes to positions in either of its two forms.  A
label whose index is not its position, and a block that is not a list of
labels, are refused.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    SpectralLabel,
    TimeGrid,
    basis_projector,
    build_schedule,
    coarsen,
    from_basis,
    heisenberg_resolution,
    make_resolution,
    make_state,
)
from decohist.errors import DuplicateLabelError, PartitionBlockError, UnknownLabelError
from decohist.resolutions import normalize_partition
from decohist.sampling import random_hermitian

from conftest import P_Z1, z_resolution

#: Names out of alphabetical order, so resolution order and name order differ.
NAMES = ["up", "down", "left", "right", "b", "a"]

KINDS = ["names", "ints", "spectral", "from_basis", "coarsen", "heisenberg"]


def runs(draw, items) -> list[list]:
    """``items`` cut at random into consecutive non-empty runs."""
    n = len(items)
    edges = [0, *sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n - 1))), n]
    return [list(items[a:b]) for a, b in zip(edges, edges[1:])]


@st.composite
def resolutions(draw):
    """A resolution built one of the supported ways, and whether its labels
    have names."""
    kind = draw(st.sampled_from(KINDS))
    dim = draw(st.integers(2, 6))
    blocks = runs(draw, range(dim))
    size = len(blocks)
    names = draw(st.permutations(NAMES))[:size]
    named = draw(st.booleans())
    projectors = [basis_projector(dim, block) for block in blocks]
    if kind == "names":
        return make_resolution(list(zip(names, projectors))), True
    if kind == "ints":
        return make_resolution(list(enumerate(projectors))), False
    if kind == "spectral":
        labels = [SpectralLabel(k, names[k] if named else None) for k in range(size)]
        return make_resolution(list(zip(labels, projectors))), named
    if kind == "from_basis":
        return from_basis(dim, blocks, names if named else None), named
    if kind == "coarsen":
        fine = from_basis(dim, [[i] for i in range(dim)])
        return coarsen(fine, dict(zip(names, blocks))), True
    grid = TimeGrid((0.0, 0.5, 1.5), present_index=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schedule = build_schedule(grid, DynamicsSpec.from_hamiltonian(random_hermitian(dim, rng)))
    base = from_basis(dim, blocks, names if named else None)
    return heisenberg_resolution(schedule, draw(st.integers(0, 2)), base), named


def given_as(draw, res, named, positions):
    """``positions`` as the labels a caller may give: positions, names or the
    resolution's SpectralLabels, each drawn per label."""
    forms = ["position", "spectral"] + (["name"] if named else [])
    out = []
    for p in positions:
        form = draw(st.sampled_from(forms))
        lab = res.labels[p]
        out.append(p if form == "position" else lab if form == "spectral" else lab.name)
    return out


@settings(max_examples=150, deadline=None)
@given(built=resolutions(), data=st.data())
def test_outcomes_hold_positions_and_display_in_resolution_order(built, data):
    res, named = built
    assert [lab.index for lab in res.labels] == list(range(res.size))
    picked = data.draw(st.sets(st.integers(0, res.size - 1), min_size=1))
    order = data.draw(st.permutations(sorted(picked)))
    out = res.outcome(given_as(data.draw, res, named, order))
    assert out.labels == frozenset(picked)
    assert out.display_labels() == [res.labels[p].display for p in sorted(picked)]
    assert res.full_outcome().labels == frozenset(range(res.size))


@settings(max_examples=150, deadline=None)
@given(built=resolutions(), data=st.data())
def test_partitions_normalize_to_positions_in_both_forms(built, data):
    res, named = built
    blocks = runs(data.draw, data.draw(st.permutations(range(res.size))))
    given_blocks = [given_as(data.draw, res, named, block) for block in blocks]

    as_list = normalize_partition(res, given_blocks)
    assert as_list == list(enumerate(blocks))
    as_mapping = normalize_partition(res, {f"g{k}": b for k, b in enumerate(given_blocks)})
    assert as_mapping == [(f"g{k}", block) for k, block in enumerate(blocks)]


@settings(max_examples=60, deadline=None)
@given(built=resolutions(), data=st.data())
def test_a_label_off_its_position_and_a_string_block_are_refused(built, data):
    res, named = built
    entries = [(SpectralLabel(k), p) for k, p in enumerate(res.projectors)]
    k = data.draw(st.integers(0, res.size - 1))
    shifted = entries[:k] + [(SpectralLabel(k + 1, "off"), entries[k][1])] + entries[k + 1 :]
    with pytest.raises(ValueError, match=f"label 'off' has index {k + 1}, not its position {k}"):
        make_resolution(shifted)
    if k:
        # an index below its position is held by an earlier label
        shifted[k] = (SpectralLabel(k - 1), entries[k][1])
        with pytest.raises(DuplicateLabelError):
            make_resolution(shifted)

    label = given_as(data.draw, res, named, [0])[0]
    with pytest.raises(PartitionBlockError, match="partition block 'g': expected a non-empty"):
        normalize_partition(res, {"g": res.labels[0].display})
    with pytest.raises(PartitionBlockError, match="expected a non-empty label list"):
        normalize_partition(res, {label: "g"})  # a label -> block mapping


def test_a_numpy_integer_is_a_position():
    res = from_basis(2, [[0], [1]], names=["a", "b"])
    assert res.position(np.int64(1)) == 1
    picked = np.argmax([0.2, 0.8])
    assert res.outcome(picked).labels == res.outcome([np.int64(1)]).labels == frozenset({1})
    assert type(next(iter(res.outcome([picked]).labels))) is int
    with pytest.raises(UnknownLabelError):
        res.position(np.int64(2))

    grid = TimeGrid((0.0, 1.0), present_index=0)
    family = HistoryFamily(
        build_schedule(grid, DynamicsSpec.trivial(2)), (res, z_resolution()), make_state(P_Z1)
    )
    assert family.history({0: [np.int64(1)]}) == family.history({0: ["b"]})


@pytest.mark.parametrize("bad", [0.0, 0.2, 1.9, False, True, np.float64(1.0), None])
def test_a_label_index_is_an_integer_not_a_float_or_bool(bad):
    message = f"label index must be an integer, got {bad!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        SpectralLabel(bad)
    entries = [(bad, P_Z1), (1, np.eye(2) - P_Z1)]
    with pytest.raises(TypeError, match="label index must be an integer"):
        make_resolution(entries)


@pytest.mark.parametrize("bad", [5, 5.0, False, b"up", ("up",)])
def test_a_label_name_is_a_string(bad):
    message = f"label name must be a string, got {bad!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        SpectralLabel(0, bad)
    with pytest.raises(TypeError, match=re.escape(message)):
        make_resolution([(SpectralLabel(0, "up"), P_Z1), (SpectralLabel(1, bad), np.eye(2) - P_Z1)])
    named = make_resolution([(SpectralLabel(0, "up"), P_Z1), (SpectralLabel(1), np.eye(2) - P_Z1)])
    assert repr(named) == "Resolution(dim=2, labels=[up, 1])"


def test_a_numpy_integer_label_is_stored_as_an_int():
    assert type(SpectralLabel(np.int64(3)).index) is int
    res = make_resolution([(np.int64(0), np.eye(2) - P_Z1), (np.int32(1), P_Z1)])
    assert [type(lab.index) for lab in res.labels] == [int, int]
    assert repr(res) == "Resolution(dim=2, labels=[0, 1])"
