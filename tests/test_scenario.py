import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from decohist import parse_scenario, run_query, serialize_scenario
from decohist import scenario as scenario_module
from decohist.errors import (
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownQueryError,
)
from decohist.scenario import (
    result_coarse_grain,
    result_condition,
    result_dfunc,
    result_probs,
    result_retrodict,
    result_validate,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {
    "schema_version": 1,
    "dimension": 2,
    "times": [0.0],
    "present_index": 0,
    "dynamics": {"hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
    "state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "resolutions": {"z": {"basis": [[0], [1]], "labels": ["up", "down"]}},
    "slots": ["z"],
}


def scenario_text(path_name):
    return (SCENARIOS / path_name).read_text()


def errors_of(excinfo):
    return {path for path, _ in excinfo.value.errors}


class TestParsing:
    def test_minimal_probabilities(self):
        s = parse_scenario(json.dumps(MINIMAL))
        doc = result_probs(s)
        assert [r["probability"] for r in doc["rows"]] == [1.0, 0.0]
        assert doc["total"] == pytest.approx(1.0)

    def test_non_complete_resolution_located(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["resolutions"]["z"] = {
            "projectors": [
                [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            ]
        }
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert any(path.startswith("resolutions.z") for path in errors_of(err))

    def test_unknown_top_level_key(self):
        bad = {**MINIMAL, "temperature": 300}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "temperature" in errors_of(err)

    def test_unknown_resolution_reference(self):
        bad = {**MINIMAL, "slots": ["y"]}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "slots[0]" in errors_of(err)

    def test_state_validation_located(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["state"] = [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]]
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "state" in errors_of(err)

    def test_history_offset_out_of_range(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["histories"] = {"h": {"5": ["up"]}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "histories.h.5" in errors_of(err)

    def test_history_time_value_keys(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["histories"] = {"h": {"0.0": ["up"]}}
        s = parse_scenario(json.dumps(doc))
        assert s.histories["h"].outcome_at(0).display_labels() == ["up"]

    def test_unknown_label_in_history(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["histories"] = {"h": {"0": ["sideways"]}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert any(path.startswith("histories.h") for path in errors_of(err))

    def test_syntax_error_carries_location(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("{not json")
        assert "line 1" in str(err.value)

    def test_multiple_errors_collected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["dimension"] = -1
        bad["junk"] = True
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert {"dimension", "junk"} <= errors_of(err)

    def test_query_reference_validation(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["queries"] = {"q": {"kind": "probability", "history": "missing"}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "queries.q.history" in errors_of(err)

    def test_strict_query_keys(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["histories"] = {"h": {"0": ["up"]}}
        bad["queries"] = {"q": {"kind": "probability", "history": "h", "extra": 1}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "queries.q.extra" in errors_of(err)

    @pytest.mark.parametrize(
        "field, value",
        [("states", 0), ("states", -2), ("seed", -1), ("tol", float("nan")), ("tol", -1.0)],
    )
    def test_check_query_arguments_located(self, field, value):
        # the same rule as the CLI's check arguments; json reads NaN as well
        bad = json.loads(json.dumps(MINIMAL))
        bad["queries"] = {"q": {"kind": "check", "mode": "robust", field: value}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert errors_of(err) == {f"queries.q.{field}"}

    def test_check_query_argument_bounds_accepted(self):
        good = json.loads(json.dumps(MINIMAL))
        good["queries"] = {
            "q": {"kind": "check", "mode": "robust", "states": 1, "seed": 0, "tol": 0}
        }
        assert run_query(parse_scenario(json.dumps(good)), "q")["passed"]

    def test_steps_count_checked(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["dynamics"] = {"steps": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert "dynamics.steps" in errors_of(err)

    @pytest.mark.parametrize(
        "path",
        [
            ("schema_version",),
            ("dimension",),
            ("times",),
            ("present_index",),
            ("reference_index",),
            ("dynamics",),
            ("state",),
            ("resolutions",),
            ("slots",),
            ("dynamics", "hamiltonian"),
            ("resolutions", "z"),
            ("resolutions", "z", "basis"),
            ("resolutions", "z", "labels"),
            ("histories", "h", "0"),
            ("queries", "q"),
            ("queries", "q", "kind"),
            ("queries", "q", "history"),
        ],
    )
    def test_wrong_typed_fields_always_raise_located_errors(self, path):
        # every malformed value must surface as a located validation error,
        # never an uncaught TypeError deeper in the engine
        wrong = [None, 5, "nope", [], {}, True, 3.7, [[1]], [True]]
        base = json.loads(json.dumps(MINIMAL))
        base["histories"] = {"h": {"0": ["up"]}}
        base["queries"] = {"q": {"kind": "probability", "history": "h"}}
        for bad in wrong:
            doc = json.loads(json.dumps(base))
            node = doc
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = bad
            try:
                parse_scenario(json.dumps(doc))
            except ScenarioValidationError:
                continue
            pytest.fail(f"{'.'.join(path)} = {bad!r} was accepted or crashed")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["minimal.json", "z_then_x.json", "same_basis.json", "conserved_2qubit.json"],
    )
    def test_corpus_round_trips(self, name):
        first = parse_scenario(scenario_text(name))
        second = parse_scenario(serialize_scenario(first))
        assert first.to_document() == second.to_document()
        third = parse_scenario(serialize_scenario(second))
        assert second.to_document() == third.to_document()


class TestQueries:
    def test_golden_weak_check_via_query(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        doc = run_query(s, "weak")
        assert doc["passed"] is False
        assert doc["worst_violation"] == pytest.approx(0.5, abs=1e-12)

    def test_golden_retrodict_queries(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        assert run_query(s, "retro_z0")["value"] == pytest.approx(0.25, abs=1e-12)
        assert run_query(s, "retro_z0_norm")["value"] == pytest.approx(0.5, abs=1e-12)

    def test_unknown_query(self):
        s = parse_scenario(scenario_text("minimal.json"))
        with pytest.raises(UnknownQueryError):
            run_query(s, "nope")

    def test_query_overrides(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        doc = run_query(s, "weak", tol=1.0)
        assert doc["passed"] is True

    def test_condition_result(self):
        s = parse_scenario(scenario_text("same_basis.json"))
        assert result_condition(s, "future_z0", "given_z0")["value"] == 1.0
        assert result_condition(s, "future_z1", "given_z0")["value"] == 0.0

    def test_validate_result(self):
        s = parse_scenario(scenario_text("conserved_2qubit.json"))
        doc = result_validate(s)
        assert doc["ok"] and doc["dimension"] == 4
        assert doc["resolution_sizes"] == [3, 3]

    def test_dfunc_diagonal_sums_to_one(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        doc = result_dfunc(s)
        diag = sum(doc["matrix"][k][k][0] for k in range(4))
        assert diag == pytest.approx(1.0, abs=1e-12)
        assert doc["hermitian"] is True

    def test_oracle_query_trace(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        doc = run_query(s, "oracle_joint")
        assert doc["probability"] == pytest.approx(0.25, abs=1e-12)
        assert [r["step_probability"] for r in doc["rows"]] == pytest.approx([0.5, 0.5])


class TestCoarseGrain:
    def test_merge_is_valid_scenario(self):
        s = parse_scenario(scenario_text("conserved_2qubit.json"))
        doc = result_coarse_grain(
            s, 0, {"extremes": ["both_up", "both_down"], "mid": ["mixed"]}
        )
        coarse = parse_scenario(json.dumps(doc["scenario"]))
        assert coarse.family.shape == (3, 2)
        # histories at the coarsened slot were rewritten to block labels
        assert coarse.histories["stay_mixed"].outcome_at(0).display_labels() == ["mid"]

    def test_incompatible_history_rejected(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        with pytest.raises(ScenarioValidationError) as err:
            result_coarse_grain(s, -1, {"any": ["z0", "z1"]})
        assert any("not a union" in msg for _, msg in err.value.errors)

    def test_partition_must_cover(self):
        s = parse_scenario(scenario_text("minimal.json"))
        with pytest.raises(ScenarioValidationError):
            result_coarse_grain(s, 0, {"a": ["up"]})

    def test_projector_resolution_coarsens_to_matrix_sum(self):
        doc = json.loads(scenario_text("z_then_x.json"))
        doc["histories"] = {}
        doc["queries"] = {}
        s = parse_scenario(json.dumps(doc))
        out = result_coarse_grain(s, 0, {"any": ["x+", "x-"]})
        coarse = parse_scenario(json.dumps(out["scenario"]))
        p = coarse.family.resolution_at(0).projectors[0].matrix
        assert np.allclose(p, np.eye(2))


class TestDocumentOnDemand:
    """Parsing keeps the validated matrices; the [re, im]-pair document is
    rendered only when read, and reads as it always did."""

    #: sha256 of ``serialize_scenario`` of each shipped scenario, as produced
    #: when the document was rendered during parsing
    SERIALIZED = {
        "conserved_2qubit.json": "5905d49074cdc370e43e130a59304c20e127c61672e41a95e710975d64a64dbd",
        "minimal.json": "50d97e8b75d652886449096875ddb921978905cd6211f41ecd3492339a4939ee",
        "same_basis.json": "9e4b9288dd087ec2766925dc39b16b32852c5e2fcdf6dad352413f56cd3d0131",
        "z_then_x.json": "e48d6d002d9c289ebb7e8b49feb420a7cdc70e6c47fadff401f04205969c3e31",
    }

    @pytest.mark.parametrize("name", sorted(SERIALIZED))
    def test_parsing_renders_no_matrix(self, monkeypatch, name):
        def refuse(m):
            raise AssertionError("matrix_to_pairs called")

        monkeypatch.setattr(scenario_module, "matrix_to_pairs", refuse)
        s = parse_scenario(scenario_text(name))
        assert result_validate(s)["ok"] is True
        assert result_probs(s)["total"] == pytest.approx(1.0)
        with pytest.raises(AssertionError, match="matrix_to_pairs called"):
            s.document

    @pytest.mark.parametrize("name", sorted(SERIALIZED))
    def test_serialization_is_unchanged(self, name):
        text = serialize_scenario(parse_scenario(scenario_text(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SERIALIZED[name]

    def test_document_is_built_once_and_copied_out(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        assert s.document is s.document
        doc = s.to_document()
        assert doc == s.document and doc is not s.document
        doc["resolutions"]["x"]["projectors"][0][0][0][0] = 9.0
        assert s.to_document() != doc
