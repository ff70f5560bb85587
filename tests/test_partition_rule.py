"""One rule for a partition of a resolution's labels, read in one place.

``normalize_partition`` is the only reader of a partition: ``coarsen``,
``coarsen_slot`` and the scenario's ``coarse-grain`` all go through it.
Every block is a non-empty list, tuple, set or frozenset; every label is
known and in exactly one block.  A fault names its block and the label as
given; labels in no block are named by display.  A coarse-grained scenario
document, re-parsed, builds the same family as ``coarsen_slot``.

``from_basis`` names a bad basis index and the block of a repeated one.  A
basis is not a partition of labels: an empty basis block is the zero
projector.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    SpectralLabel,
    TimeGrid,
    build_schedule,
    coarsen,
    coarsen_slot,
    decoherence_functional,
    fine_probabilities,
    from_basis,
    make_state,
)
from decohist.errors import (
    DimensionMismatchError,
    PartitionBlockError,
    PartitionNotTotalError,
    ScenarioValidationError,
)
from decohist.resolutions import normalize_partition
from decohist.scenario import parse_scenario, result_coarse_grain

from test_label_model import runs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = sorted(path.name for path in SCENARIOS.glob("*.json"))


@lru_cache(maxsize=None)
def bare_scenario(name):
    """A shipped scenario with its histories and queries dropped, so that
    any partition of any slot's labels applies."""
    doc = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    doc["histories"], doc["queries"] = {}, {}
    return parse_scenario(doc)


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(NAMES), data=st.data())
def test_coarse_grain_document_builds_the_coarsen_slot_family(name, data):
    s = bare_scenario(name)
    offset = data.draw(st.sampled_from(list(s.family.offsets())))
    labels = [lab.display for lab in s.family.resolution_at(offset).labels]
    blocks = runs(data.draw, data.draw(st.permutations(labels)))
    partition = {f"b{k}": block for k, block in enumerate(blocks)}

    cli = parse_scenario(result_coarse_grain(s, offset, partition)["scenario"]).family
    lib = coarsen_slot(s.family, offset, partition)
    assert cli.shape == lib.shape
    coarse = cli.resolution_at(offset).labels
    assert [lab.display for lab in coarse] == list(partition)
    assert all(same_bytes(a, b) for a, b in zip(cli._lifted, lib._lifted, strict=True))
    assert same_bytes(fine_probabilities(cli), fine_probabilities(lib))
    assert same_bytes(decoherence_functional(cli)._stack, decoherence_functional(lib)._stack)


def abc():
    return from_basis(3, [[0], [1], [2]], ["a", "b", "c"])


def one_slot_family(res):
    schedule = build_schedule(TimeGrid((0.0,), present_index=0), DynamicsSpec.trivial(res.dim))
    return HistoryFamily(schedule, (res,), make_state(np.eye(res.dim) / res.dim))


#: Each way into the rule, as a function of a resolution and a partition.
READERS = {
    "normalize_partition": normalize_partition,
    "coarsen": coarsen,
    "coarsen_slot": lambda res, partition: coarsen_slot(one_slot_family(res), 0, partition),
}

#: (partition, the block its fault names, the reason)
BLOCK_FAULTS = [
    ({"x": ["a", "b"], "y": ["c"], "z": []}, "z", "expected a non-empty label list"),
    ({"x": ["a", "b", "c"], "y": set()}, "y", "expected a non-empty label list"),
    ({"x": "abc"}, "x", "expected a non-empty label list"),
    ({"x": ["a", "b"], "y": ["c", "a"]}, "y", "label 'a' assigned twice"),
    ({"x": ["a", "b"], "y": ("c", 0)}, "y", "label 0 assigned twice"),
    (
        {"x": ["a", "b", "c"], "y": [SpectralLabel(1)]},
        "y",
        f"label {SpectralLabel(1)!r} assigned twice",
    ),
    ({"x": ["a", "a"], "y": ["b", "c"]}, "x", "label 'a' assigned twice"),
    ({"x": ["a", "q"], "y": ["b", "c"]}, "x", "label 'q' not in resolution"),
    ({"x": ["a", "b"], "y": ["c", 3]}, "y", "label 3 not in resolution"),
    ([["a"], ["b", "c"], []], 2, "expected a non-empty label list"),
    ([["a", "b"], ["c", True]], 1, "label True not in resolution"),
]


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("partition, block, reason", BLOCK_FAULTS)
def test_a_block_fault_names_its_block_and_the_label_as_given(reader, partition, block, reason):
    with pytest.raises(PartitionBlockError) as err:
        READERS[reader](abc(), partition)
    assert (err.value.block, err.value.reason) == (block, reason)
    assert str(err.value) == f"partition block {block!r}: {reason}"


@pytest.mark.parametrize("reader", READERS)
def test_uncovered_labels_are_named_by_display(reader):
    with pytest.raises(PartitionNotTotalError) as err:
        READERS[reader](abc(), {"x": ["a"]})
    assert err.value.missing == {"b", "c"}
    assert str(err.value) == "partition does not cover labels ['b', 'c']"
    # an unnamed label displays as its position
    with pytest.raises(PartitionNotTotalError) as err:
        READERS[reader](from_basis(3, [[0], [1], [2]]), [[1]])
    assert err.value.missing == {"0", "2"}


def test_blocks_keep_their_order_and_their_labels_order():
    res = abc()
    assert normalize_partition(res, {"y": ("c", "a"), "x": {1}}) == [("y", [2, 0]), ("x", [1])]
    coarse = coarsen(res, {"y": ["c", "a"], "x": ["b"]})
    assert [lab.display for lab in coarse.labels] == ["y", "x"]


@pytest.mark.parametrize(
    "partition, error",
    [
        # test_scenario.py pins the string, empty and twice-assigned blocks
        ({"a": ["x+", "q"], "b": ["x-"]}, ("partition.a", "label 'q' not in resolution")),
        ({"a": ["x+"]}, ("partition", "labels not covered: ['x-']")),
    ],
)
def test_coarse_grain_locates_the_libraries_fault(partition, error):
    s = parse_scenario((SCENARIOS / "z_then_x.json").read_text(encoding="utf-8"))
    with pytest.raises(ScenarioValidationError) as err:
        result_coarse_grain(s, 0, partition)
    assert err.value.errors == [error]


REPEATED = "partition block {}: basis index {} is already in block 0"

#: (basis blocks for dimension 2, the error, its message)
BASIS_FAULTS = [
    ([[0], [5]], DimensionMismatchError, "basis index 5 out of range for dim 2"),
    ([[0], [-1, 1]], DimensionMismatchError, "basis index -1 out of range for dim 2"),
    ([[0.0], [1]], DimensionMismatchError, "basis index 0.0 out of range for dim 2"),
    ([["a"], [1]], DimensionMismatchError, "basis index 'a' out of range for dim 2"),
    ([[0], [True]], DimensionMismatchError, "basis index True out of range for dim 2"),
    ([[None], [1]], DimensionMismatchError, "basis index None out of range for dim 2"),
    ([[[0]], [1]], DimensionMismatchError, "basis index [0] out of range for dim 2"),
    ([[{}], [1]], DimensionMismatchError, "basis index {} out of range for dim 2"),
    ([[0], [0, 1]], PartitionBlockError, REPEATED.format(1, 0)),
    ([[0, 1], [], [1]], PartitionBlockError, REPEATED.format(2, 1)),
    ([[1], [1, 1]], PartitionBlockError, REPEATED.format(1, 1)),
]


@pytest.mark.parametrize("blocks, error, message", BASIS_FAULTS)
def test_from_basis_names_a_bad_basis_index(blocks, error, message):
    with pytest.raises(error) as err:
        from_basis(2, blocks)
    assert str(err.value) == message


@pytest.mark.parametrize("blocks, error, message", BASIS_FAULTS)
def test_a_bad_basis_index_is_located_in_the_scenario(blocks, error, message):
    # the scenario requires only a list of lists and leaves every index to from_basis
    doc = json.loads((SCENARIOS / "z_then_x.json").read_text(encoding="utf-8"))
    doc["resolutions"]["z"] = {"basis": blocks}
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert err.value.errors[0] == ("resolutions.z", message)


def test_basis_indices_of_any_integer_type_and_an_empty_block():
    res = from_basis(3, [[np.int64(2), 0], [], [np.int32(1)]])
    assert [p.rank for p in res.projectors] == [2, 0, 1]
    assert np.array_equal(res.projectors[0].matrix, np.diag([1, 0, 1]).astype(complex))
