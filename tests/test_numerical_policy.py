"""Each row of the README's Numerical policy table, pinned on both sides.

Every threshold is exercised through a public entry point at a value just
inside it and at one just outside, so moving a constant by 10x in either
direction fails a test here.  The last test reads the README table itself
and checks each listed constant against ``linalg``, where all of them live.
"""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from decohist import (
    DecoherenceFunctional,
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    check_weak_consistency,
    coarsen,
    from_basis,
    heisenberg_projector,
    history_probability,
    make_projector,
    make_state,
    outcome_projector,
    predictive_conditional,
    sequential_probability,
)
from decohist import linalg
from decohist.errors import InvalidHistoryError, ZeroConditionProbabilityError

README = Path(__file__).resolve().parents[1] / "README.md"


def z_family(state, n_slots=1):
    """The z basis of a qubit at every slot from the present on, no dynamics."""
    grid = TimeGrid(tuple(float(t) for t in range(n_slots)), 0)
    z = from_basis(2, [[0], [1]], names=["z0", "z1"])
    return HistoryFamily(build_schedule(grid, DynamicsSpec.trivial(2)), (z,) * n_slots, state)


# --- CLAMP_TOL: a probability within 1e-9 outside [0, 1] snaps onto it


@pytest.mark.parametrize(
    "excess, expected", [(5e-10, 1.0), (5e-9, None)], ids=["inside", "outside"]
)
def test_clamp_above_one(excess, expected):
    state = make_state(np.diag([0.5 + excess, 0.5]), tol=1e-8)
    fam = z_family(state)
    full = fam.history()  # every slot full: the chain is I, the value Tr rho
    raw = history_probability(fam, full, clamp=False)
    assert raw > 1.0
    assert history_probability(fam, full) == (raw if expected is None else expected)


@pytest.mark.parametrize(
    "deficit, expected", [(5e-10, 0.0), (5e-9, None)], ids=["inside", "outside"]
)
def test_clamp_below_zero(deficit, expected):
    state = make_state(np.diag([1.0 + deficit, -deficit]), tol=1e-8)
    fam = z_family(state)
    h = fam.history({0: "z1"})
    raw = history_probability(fam, h, clamp=False)
    assert raw == -deficit
    assert history_probability(fam, h) == (raw if expected is None else expected)


# --- ZERO_THRESHOLD: conditioning on a probability at or below 1e-12 raises


def test_zero_threshold_raises_at_5e_13():
    fam = z_family(make_state(np.diag([1.0 - 5e-13, 5e-13])), n_slots=2)
    with pytest.raises(ZeroConditionProbabilityError):
        predictive_conditional(fam, fam.history({1: "z1"}), fam.history({0: "z1"}))


def test_zero_threshold_passes_at_5e_12():
    fam = z_family(make_state(np.diag([1.0 - 5e-12, 5e-12])), n_slots=2)
    assert predictive_conditional(fam, fam.history({1: "z1"}), fam.history({0: "z1"})) == 1.0


# --- ZERO_STEP: an oracle step at or below 1e-14 ends the trace


@pytest.mark.parametrize("p, truncated", [(1e-14, True), (1e-13, False)])
def test_zero_step(p, truncated):
    fam = z_family(make_state(np.diag([1.0 - p, p])), n_slots=2)
    prob, trace = sequential_probability(fam, fam.history({0: "z1", 1: "z1"}))
    assert trace.truncated is truncated
    assert len(trace.steps) == (1 if truncated else 2)
    assert prob == (0.0 if truncated else p)


# --- STEP_CLAMP: a step probability within 1e-12 above 1 is clamped to 1


@pytest.mark.parametrize(
    "excess, clamped", [(5e-13, True), (5e-12, False)], ids=["inside", "outside"]
)
def test_step_clamp(excess, clamped):
    state = make_state(np.diag([0.5 + excess, 0.5]))
    fam = z_family(state)
    _, trace = sequential_probability(fam, fam.history())
    (step,) = trace.steps
    raw = np.trace(state.matrix).real
    assert raw > 1.0
    assert step.probability == (1.0 if clamped else raw)


# --- PROJECTION_ROUNDOFF: a post-state is validated at max(1e-10, 1e-13 / p)


@pytest.mark.parametrize("p", [0.5, 1e-2, 1e-3, 1e-4, 1e-6])
def test_post_state_tolerance(p):
    fam = z_family(make_state(np.diag([1.0 - p, p])))
    _, trace = sequential_probability(fam, fam.history({0: "z1"}))
    (step,) = trace.steps
    assert step.probability == p
    assert step.post_state.tol == max(1e-10, 1e-13 / p)


# --- the lift relaxation: a lifted projector is valid at max(tol, 1e-9)


@pytest.mark.parametrize("tol", [1e-12, 1e-10, 5e-10, 1e-9, 1e-8])
def test_lift_tolerance(tol):
    schedule = build_schedule(TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_hamiltonian(np.eye(2)))
    p = make_projector(np.diag([1.0, 0.0]), tol=tol)
    assert heisenberg_projector(schedule, 1, p).tol == max(tol, 1e-9)


# --- the summed-projector relaxation: a sum of n projectors is valid at n tol


def test_summed_tolerances():
    res = from_basis(4, [[0], [1], [2], [3]], tol=2e-10)
    assert outcome_projector(res, res.outcome([0])).tol == 2e-10
    assert outcome_projector(res, res.outcome([0, 2, 3])).tol == 2e-10 * 3
    coarse = coarsen(res, [[0, 1, 2], [3]])
    assert [p.tol for p in coarse.projectors] == [2e-10 * 3, 2e-10]
    assert coarse.tol == 2e-10 * 4


# --- DFUNC_TOL: a D given to the constructor has unit trace within 1e-9


@pytest.mark.parametrize("off, ok", [(5e-10, True), (5e-9, False)], ids=["inside", "outside"])
def test_dfunc_trace_tolerance(off, ok):
    histories = list(z_family(make_state(np.diag([0.5, 0.5]))).fine_histories())
    matrix = np.diag([0.5 + off, 0.5])
    if ok:
        assert DecoherenceFunctional(histories, matrix).tol == 1e-9
    else:
        with pytest.raises(InvalidHistoryError, match="trace"):
            DecoherenceFunctional(histories, matrix)


# --- DEFAULT_CHECK_TOL: a check passes at a worst violation up to 1e-9


@pytest.mark.parametrize("worst, passed", [(5e-10, True), (5e-9, False)])
def test_check_tolerance(worst, passed):
    histories = list(z_family(make_state(np.diag([0.5, 0.5]))).fine_histories())
    d = DecoherenceFunctional(histories, [[0.5, worst / 2], [worst / 2, 0.5]])
    report = check_weak_consistency(d)
    assert (report.passed, report.worst_violation, report.tolerance) == (passed, worst, 1e-9)


# --- the README table


def test_readme_policy_table_matches_linalg():
    text = README.read_text()
    table = text[text.index("## Numerical policy") :].split("\n\n")[2]
    constants = {}
    for line in table.splitlines()[2:]:
        name, value, module, *_ = (cell.strip() for cell in line.split("|")[1:-1])
        named = re.fullmatch(r"`([A-Z_]+)`", name)
        if named:
            assert module == "`linalg`", name
            constants[named.group(1)] = float(value)
        else:
            # a rule names the one function or site that applies it
            target = re.match(r"`(\w+)\.(\w+)`", module)
            assert target, name
            mod = importlib.import_module(f"decohist.{target.group(1)}")
            assert callable(getattr(mod, target.group(2))), module
    assert constants == {
        "DEFAULT_TOL": 1e-10,
        "CLAMP_TOL": 1e-9,
        "ZERO_THRESHOLD": 1e-12,
        "DFUNC_TOL": 1e-9,
        "DEFAULT_CHECK_TOL": 1e-9,
        "ZERO_STEP": 1e-14,
        "STEP_CLAMP": 1e-12,
        "PROJECTION_ROUNDOFF": 1e-13,
    }
    for name, value in constants.items():
        assert getattr(linalg, name) == value, name
