"""Error paths pinned by exception type and message: the family, history,
conditional, robustness and oracle guards, the schedule's own checks, and
the scenario and CLI faults each report."""

import json
from pathlib import Path

import numpy as np
import pytest

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    check_state_robustness,
    from_basis,
    make_state,
    parse_scenario,
    retrodictive_conditional,
)
from decohist.cli import main
from decohist.dynamics import DynamicsSchedule
from decohist.errors import (
    CountMismatchError,
    DimensionMismatchError,
    InvalidHistoryError,
    NotUnitaryError,
    ReferenceNotIdentityError,
    ScenarioValidationError,
    SlotOutOfRangeError,
    UnknownLabelError,
)
from decohist.histories import History
from decohist.linalg import matrix_to_pairs
from decohist.lueders import conditional_via_oracle

from conftest import PAULI_X, x_resolution, z_resolution

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def z_then_x_doc() -> dict:
    return json.loads((SCENARIOS / "z_then_x.json").read_text())


def fail(exc_type, message, call, *args):
    with pytest.raises(exc_type) as err:
        call(*args)
    assert str(err.value) == message
    return err.value


class TestFamilyAndHistory:
    def test_family_needs_one_resolution_per_slot(self, z_then_x_family):
        fail(
            InvalidHistoryError,
            "need one resolution per slot: 1 given for 2 slots",
            HistoryFamily, z_then_x_family.schedule, (z_resolution(),), z_then_x_family.state,
        )

    def test_family_resolution_of_another_dimension(self, z_then_x_family):
        other = from_basis(3, [[0], [1, 2]])
        fail(
            DimensionMismatchError,
            "resolution at slot 1 has dim 3, schedule has 2",
            HistoryFamily, z_then_x_family.schedule, (z_resolution(), other), z_then_x_family.state,
        )

    def test_family_state_of_another_dimension(self, z_then_x_family):
        fail(
            DimensionMismatchError,
            "state has dim 3, schedule has 2",
            HistoryFamily,
            z_then_x_family.schedule,
            z_then_x_family.resolutions,
            make_state(np.eye(3) / 3),
        )

    def test_history_needs_one_outcome_per_slot(self, z_then_x_family):
        z0 = z_then_x_family.resolutions[0].outcome("z0")
        fail(
            InvalidHistoryError,
            "need one outcome per slot: 1 given for 2 slots",
            History, z_then_x_family, (z0,),
        )

    def test_history_outcome_of_another_resolution(self, z_then_x_family):
        z0 = z_then_x_family.resolutions[0].outcome("z0")
        foreign = x_resolution().outcome("x+")
        fail(
            InvalidHistoryError,
            "outcome at slot position 1 belongs to a different resolution",
            History, z_then_x_family, (z0, foreign),
        )


class TestConditionalsAndChecks:
    def test_retrodiction_present_as_labels(self, z_then_x_family):
        fam = z_then_x_family
        past = fam.history({-1: ["z0"]})
        outcome = fam.resolution_at(0).outcome(["x+"])
        by_labels = retrodictive_conditional(fam, past, ["x+"])
        assert by_labels == retrodictive_conditional(fam, past, outcome)
        assert by_labels == pytest.approx(0.25, abs=1e-12)
        fail(UnknownLabelError, "label 'nope' not in resolution",
             retrodictive_conditional, fam, past, ["nope"])

    def test_retrodiction_present_of_another_resolution(self, z_then_x_family):
        past = z_then_x_family.history({-1: ["z0"]})
        fail(
            InvalidHistoryError,
            "present outcome belongs to a different resolution",
            retrodictive_conditional, z_then_x_family, past, x_resolution().outcome("x+"),
        )

    def test_robustness_state_of_another_dimension(self, z_then_x_family):
        fail(
            DimensionMismatchError,
            "state has dim 3, schedule has 2",
            lambda: check_state_robustness(z_then_x_family, states=[make_state(np.eye(3) / 3)]),
        )

    def test_oracle_conditional_on_another_familys_histories(self, z_then_x_family):
        fam = z_then_x_family
        other = HistoryFamily(fam.schedule, fam.resolutions, fam.state)
        fail(
            InvalidHistoryError,
            "histories were built for a different family",
            conditional_via_oracle, fam, other.history({0: ["x+"]}), other.history({-1: ["z0"]}),
        )


class TestSchedule:
    def test_grid_position_and_offset_out_of_range(self):
        grid = TimeGrid((0.0, 1.0), 1)
        fail(SlotOutOfRangeError, "slot 1 out of range for 2 slots", grid.position, 1)
        fail(SlotOutOfRangeError, "slot 2 out of range for 2 slots", grid.offset_of, 2)
        fail(SlotOutOfRangeError, "slot -1 out of range for 2 slots", grid.offset_of, -1)

    def test_reference_index_out_of_range(self):
        grid = TimeGrid((0.0, 1.0), 0)
        fail(
            SlotOutOfRangeError,
            "slot 2 out of range for 2 slots",
            DynamicsSchedule, grid, 2, (np.eye(2), np.eye(2)),
        )

    def test_reference_unitary_not_identity(self):
        # X is unitary; the fault is that the reference slot's unitary is not I
        err = fail(
            ReferenceNotIdentityError,
            "reference slot unitary is not the identity: max |U_ref - I| = 1.000e+00",
            DynamicsSchedule, TimeGrid((0.0, 1.0), 0), 0, (PAULI_X, PAULI_X),
        )
        assert isinstance(err, NotUnitaryError) and err.deviation == 1.0

    def test_cumulative_count_names_one_per_slot(self):
        err = fail(
            CountMismatchError,
            "expected 2 cumulative unitaries, one per slot, got 1",
            DynamicsSchedule, TimeGrid((0.0, 1.0), 0), 0, (np.eye(2),),
        )
        assert (err.expected, err.got) == (2, 1)

    def test_empty_step_list_needs_dim(self):
        fail(
            DimensionMismatchError,
            "an empty step list fixes no dimension; pass dim explicitly",
            build_schedule, TimeGrid((0.0,), 0), DynamicsSpec.from_steps([]),
        )

    def test_products_of_accepted_steps_are_accepted(self):
        # each step deviates from unitary by 9.0e-11 <= 1e-10; their products
        # by up to 2.7e-10, within the schedule's 3 * 2 * 1e-10
        step = (1.0 + 4.5e-11) * np.eye(2)
        doc = z_then_x_doc()
        doc.update(
            times=[0.0, 1.0, 2.0, 3.0],
            present_index=3,
            slots=["z", "x", "z", "x"],
            dynamics={"steps": [matrix_to_pairs(step)] * 3},
            histories={},
            queries={},
        )
        scenario = parse_scenario(doc)
        schedule = scenario.family.schedule
        assert schedule.tol == 3 * 2 * 1e-10
        assert np.array_equal(schedule.cumulative[3], step @ step @ step)

    def test_one_slot_schedule_keeps_its_tolerance(self):
        assert build_schedule(TimeGrid((0.0,), 0), DynamicsSpec.trivial(2)).tol == 1e-10


class TestScenarioFaults:
    def test_document_not_an_object(self):
        err = fail(ScenarioValidationError, ": scenario must be a JSON object", parse_scenario, "[1]")
        assert err.errors == [("", "scenario must be a JSON object")]

    def test_empty_projector_list(self):
        doc = z_then_x_doc()
        doc["resolutions"]["z"] = {"projectors": []}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert err.value.errors == [
            ("resolutions.z.projectors", "expected a non-empty list of matrices")
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["probability", "--history", "nope"], "error: unresolved history 'nope'\n"),
            (
                ["coarse-grain", "--slot", "0", "--partition", "[1]"],
                "error: partition: expected a JSON object\n",
            ),
        ],
    )
    def test_cli_usage_faults(self, capsys, argv, message):
        code = main([*argv, "--scenario", str(SCENARIOS / "z_then_x.json")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)
