"""Validated values stay read-only after a copy or an unpickle.

numpy deep-copies and unpickles arrays writable.  Every validated value
(states, projectors, resolutions, dynamics, schedules, families and
scenarios) freezes each array of its state again, cached ones included: a
resolution's factor, a family's lifts, Gram rows and probabilities, a
state's factor.
"""

import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    decoherence_functional,
    make_projector,
    make_resolution,
    parse_scenario,
)
from decohist.sampling import random_hermitian, random_unitary

from conftest import P_XM, P_XP, random_rank_state

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def family():
    """A three-slot family with every cache filled."""
    rng = np.random.default_rng(3)
    v = random_unitary(3, rng)[:, :1]
    p = v @ v.conj().T
    res = make_resolution([("a", p), ("b", np.eye(3) - p)])
    grid = TimeGrid((0.0, 0.5, 1.5), present_index=1)
    schedule = build_schedule(grid, DynamicsSpec.from_hamiltonian(random_hermitian(3, rng)))
    fam = HistoryFamily(schedule, (res, res, res), random_rank_state(rng, 3, 2))
    decoherence_functional(fam)
    return fam


def scenario():
    scn = parse_scenario((SCENARIOS / "z_then_x.json").read_text(encoding="utf-8"))
    decoherence_functional(scn.family)
    scn.document
    return scn


def values():
    """name -> a value with its cached arrays made (the family's D makes
    its state's and its last resolution's factors)."""
    fam = family()
    res = fam.resolutions[-1]
    return {
        "DensityState": fam.state,
        "Projector": make_projector(P_XP),
        "Resolution": res,
        "DynamicsSpec hamiltonian": DynamicsSpec.from_hamiltonian(np.diag([1.0, -1.0])),
        "DynamicsSpec steps": DynamicsSpec.from_steps([random_unitary(2, np.random.default_rng(4))]),
        "DynamicsSchedule": fam.schedule,
        "HistoryFamily": fam,
        "Scenario": scenario(),
    }


def arrays(value, seen=None) -> list:
    """Every array reachable from ``value`` through tuples, lists, dicts and
    the attributes of the package's objects."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        items = value
    elif isinstance(value, dict):
        items = value.values()
    elif type(value).__module__.startswith("decohist") and hasattr(value, "__dict__"):
        items = vars(value).values()
    else:
        return []
    return [a for item in items for a in arrays(item, seen)]


CACHED = {
    "DensityState": ["_factor"],
    "Resolution": ["_factor"],
    "HistoryFamily": ["_lifted", "_gram", "_probabilities"],
    "Scenario": ["document"],
}


@pytest.mark.parametrize("name", list(values()))
@pytest.mark.parametrize(
    "twin_of",
    [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["deepcopy", "pickle"],
)
def test_every_array_of_a_twin_is_read_only(name, twin_of):
    value = values()[name]
    twin = twin_of(value)
    for attr in CACHED.get(name, []):
        assert attr in vars(twin)
    found = arrays(twin)
    assert found
    assert not [a.shape for a in found if a.flags.writeable]
    assert len(found) == len(arrays(value))


def test_a_copied_stack_stays_in_step_with_its_projectors():
    res = make_resolution([("x+", P_XP), ("x-", P_XM)])
    twin = copy.deepcopy(res)
    with pytest.raises(ValueError, match="read-only"):
        twin._stack[0, 0, 0] = 7
    assert np.array_equal(twin._stack[0], twin.projectors[0].matrix)
