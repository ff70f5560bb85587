import hashlib
import json
import os
import subprocess
import sys
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
        [
            ("states", 0),
            ("states", -2),
            ("seed", -1),
            ("tol", float("nan")),
            ("tol", -1.0),
            ("mode", ["weak"]),
            ("mode", {}),
            ("scope", "bogus"),
            ("scope", ["pairs"]),
            ("inner", "bogus"),
            ("inner", ["weak"]),
        ],
    )
    def test_check_query_arguments_located(self, field, value):
        # the same rule as the CLI's check arguments; json reads NaN as well
        bad = json.loads(json.dumps(MINIMAL))
        bad["queries"] = {"q": {"kind": "check", "mode": "robust", field: value}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert errors_of(err) == {f"queries.q.{field}"}

    def test_check_query_faults_are_each_listed(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["queries"] = {
            "q": {"kind": "check", "mode": [], "tol": "x", "states": 0, "scope": None}
        }
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert err.value.errors == [
            ("queries.q.mode", "unknown check mode []"),
            ("queries.q.tol", "expected a number"),
            ("queries.q.states", "must be >= 1, got 0"),
            ("queries.q.scope", "expected 'pairs' or 'partitions'"),
        ]

    @pytest.mark.parametrize(
        "query, errors",
        [
            (
                {"kind": "conditional", "future": "nope", "given": 3},
                [
                    ("queries.q.future", "unresolved history reference 'nope'"),
                    ("queries.q.given", "unresolved history reference 3"),
                ],
            ),
            (
                {"kind": "retrodict", "present": "up"},
                [
                    ("queries.q.past", "unresolved history reference None"),
                    ("queries.q.present", "expected a non-empty list of label names"),
                ],
            ),
            (
                {"kind": "oracle", "history": "h", "trace": 1, "extra": 0},
                [("queries.q.extra", "unknown key"), ("queries.q.trace", "expected a boolean")],
            ),
        ],
    )
    def test_each_bad_query_argument_is_listed(self, query, errors):
        bad = json.loads(json.dumps(MINIMAL))
        bad["histories"] = {"h": {"0": ["up"]}}
        bad["queries"] = {"q": query}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert err.value.errors == errors

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

    @pytest.mark.parametrize(
        "overrides, errors",
        [
            ({"mode": "bogus"}, [("mode", "unknown check mode 'bogus'")]),
            # the weak query reads no inner check, whatever its value
            ({"inner": "bogus"}, [("inner", "not read by check mode 'weak'")]),
            ({"mode": "additivity", "scope": 3}, [("scope", "expected 'pairs' or 'partitions'")]),
            ({"tol": "x"}, [("tol", "expected a number")]),
            ({"mode": "additivity", "seed": True}, [("seed", "expected a number")]),
        ],
    )
    def test_check_overrides_raise_the_parsers_errors(self, overrides, errors):
        # overrides reach result_check, which shares the parser's validator
        s = parse_scenario(scenario_text("z_then_x.json"))
        with pytest.raises(ScenarioValidationError) as err:
            run_query(s, "weak", **overrides)
        assert err.value.errors == errors

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


def _planted(path, value):
    """``z_then_x.json`` with the value at ``path`` (a tuple of keys) replaced."""
    doc = json.loads(scenario_text("z_then_x.json"))
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return doc


_P0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]  # the projector onto |0>, as [re, im] pairs


#: One planted fault per site that builds an engine object, as (path of the
#: replaced value, new value, the located error it must give).
ENGINE_FAULTS = [
    (("state",), [1, 2], ("state", "matrix literal must be a nested array of [re, im] pairs")),
    (("times",), [1.0, 0.0], ("times", "times must be strictly increasing, got 1.0 >= 0.0")),
    (
        ("dynamics",),
        {"hamiltonian": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
        ("dynamics.hamiltonian", "matrix is not Hermitian: max |M - M^dagger| = 1.000e+00"),
    ),
    (
        ("dynamics",),
        {"steps": [[[[2, 0], [0, 0]], [[0, 0], [2, 0]]]]},
        ("dynamics.steps", "matrix is not unitary: max |U^dagger U - I| = 3.000e+00"),
    ),
    (
        ("state",),
        [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]],
        ("state", "trace differs from 1 by 2.000e-01"),
    ),
    (
        ("resolutions", "z"),
        {"basis": [[0]], "labels": ["z0"]},
        ("resolutions.z", "partition does not cover labels [1]"),
    ),
    (
        ("resolutions", "x", "projectors"),
        [_P0, _P0],
        (
            "resolutions.x",
            "projectors for labels 'x+' and 'x-' are not orthogonal: max |P_a P_b| = 1.000e+00",
        ),
    ),
    (("histories", "zpxp", "-1"), ["nope"], ("histories.zpxp", "label 'nope' not in resolution")),
    (
        ("queries", "retro_z0", "present"),
        ["nope"],
        ("queries.retro_z0.present", "label 'nope' not in resolution"),
    ),
]


class TestEngineErrorSites:
    """Each site that builds an engine object records the engine's own
    message at its path; one planted fault per site pins both."""

    @pytest.mark.parametrize("path, value, first", ENGINE_FAULTS)
    def test_first_error_is_the_engines(self, path, value, first):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(_planted(path, value))
        assert err.value.errors[0] == first

    @pytest.mark.parametrize("path, value, error", ENGINE_FAULTS)
    def test_one_error_per_fault(self, path, value, error):
        # a slot or query naming a declared resolution or history that failed
        # to parse is not also reported as an unresolved reference
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(_planted(path, value))
        assert err.value.errors == [error]

    def test_undeclared_names_are_still_unresolved(self):
        doc = _planted(("slots",), ["z", "y"])
        doc["queries"]["p_joint"]["history"] = "missing"
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert err.value.errors == [
            ("slots[1]", "unresolved resolution reference 'y'"),
            ("queries.p_joint.history", "unresolved history reference 'missing'"),
        ]


class TestHistoryMapSlots:
    @pytest.mark.parametrize("again", ["1.0", "-0"])
    def test_slot_named_twice_is_refused_at_the_later_key(self, again):
        # "1.0" is the grid time of offset 0, and "-0" reads as offset 0
        doc = _planted(("histories", "zpxp"), {"0": ["x+"], again: ["x-"]})
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert err.value.errors == [
            (f"histories.zpxp.{again}", "slot offset 0 already given by key '0'")
        ]

    def test_offset_and_time_keys_for_different_slots_are_accepted(self):
        s = parse_scenario(_planted(("histories", "zpxp"), {"0.0": ["z1"], "0": ["x-"]}))
        assert s.histories["zpxp"].labels_by_offset() == {-1: ["z1"], 0: ["x-"]}


class TestRunQueryOverrides:
    @pytest.mark.parametrize(
        "name, overrides, errors",
        [
            ("weak", {"bogus": 1}, [("bogus", "not a key of a 'check' query")]),
            ("p_joint", {"bogus": 1}, [("bogus", "not a key of a 'probability' query")]),
            ("d", {"kind": "check"}, [("kind", "not a key of a 'dfunc' query")]),
            (
                "p_joint",
                {"history": "zpxp", "mode": "weak", "seed": 1},
                [
                    ("mode", "not a key of a 'probability' query"),
                    ("seed", "not a key of a 'probability' query"),
                ],
            ),
        ],
    )
    def test_keys_the_kind_does_not_take_are_refused(self, monkeypatch, name, overrides, errors):
        s = parse_scenario(scenario_text("z_then_x.json"))

        def refuse(*args, **kwargs):
            raise AssertionError("a result builder ran")

        # the keys are refused before any builder runs
        for kind, (_, fixed, keys) in list(scenario_module._QUERIES.items()):
            monkeypatch.setitem(scenario_module._QUERIES, kind, (refuse, fixed, keys))
        with pytest.raises(ScenarioValidationError) as err:
            run_query(s, name, **overrides)
        assert err.value.errors == errors


    @pytest.mark.parametrize(
        "name, overrides, errors",
        [
            ("retro_z0", {"present": []}, [("present", "expected a non-empty list of label names")]),
            ("retro_z0", {"present": "x+"}, [("present", "expected a non-empty list of label names")]),
            ("retro_z0", {"present": [0]}, [("present", "expected a non-empty list of label names")]),
            ("retro_z0_norm", {"present": ["nope"]}, [("present", "label 'nope' not in resolution")]),
            ("oracle_joint", {"history": ["a"]}, [("history", "unresolved history reference ['a']")]),
            ("oracle_joint", {"trace": "no"}, [("trace", "expected a boolean")]),
            (
                "retro_z0",
                {"past": "nope", "present": None},
                [
                    ("past", "unresolved history reference 'nope'"),
                    ("present", "expected a non-empty list of label names"),
                ],
            ),
        ],
    )
    def test_values_are_read_by_the_documents_rule(self, monkeypatch, name, overrides, errors):
        # an override breaks the rule a query's own key would, with the same
        # message at its bare key, before any builder runs
        doc = json.loads(scenario_text("z_then_x.json"))
        s = parse_scenario(doc)
        doc["queries"][name].update(overrides)
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert err.value.errors == [(f"queries.{name}.{key}", m) for key, m in errors]

        def refuse(*args, **kwargs):
            raise AssertionError("a result builder ran")

        for kind, (_, fixed, keys) in list(scenario_module._QUERIES.items()):
            monkeypatch.setitem(scenario_module._QUERIES, kind, (refuse, fixed, keys))
        with pytest.raises(ScenarioValidationError) as err:
            run_query(s, name, **overrides)
        assert err.value.errors == errors

    def test_good_overrides_run(self):
        s = parse_scenario(scenario_text("z_then_x.json"))
        assert run_query(s, "retro_z0", present=["x-", "x+"])["present"] == ["x+", "x-"]
        assert "rows" not in run_query(s, "oracle_joint", trace=False)
        assert run_query(s, "p_joint", history="past_z0")["history"] == "past_z0"


class TestLocatedErrorPaths:
    """Every located error a scenario or a coarse-grain partition can raise
    names its path and its fault; one planted fault per path."""

    @pytest.mark.parametrize(
        "path, value, error",
        [
            (("histories", "zpxp"), ["x+"],
             ("histories.zpxp", "expected an object mapping slots to label lists")),
            (("histories", "zpxp"), {"soon": ["x+"]},
             ("histories.zpxp.soon", "slot key must be an offset or a time value")),
            # a dict given in Python may have a key that is not a string
            (("histories", "zpxp"), {None: ["x+"]},
             ("histories.zpxp.None", "slot key must be an offset or a time value")),
            (("histories", "zpxp"), {"0.5": ["x+"]},
             ("histories.zpxp.0.5", "time 0.5 is not on the grid")),
            (("queries", "oracle_joint", "trace"), "yes",
             ("queries.oracle_joint.trace", "expected a boolean")),
            (("queries", "retro_z0", "present"), "x+",
             ("queries.retro_z0.present", "expected a non-empty list of label names")),
        ],
    )
    def test_scenario_fault(self, path, value, error):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(_planted(path, value))
        assert err.value.errors == [error]

    @pytest.mark.parametrize(
        "key, error",
        [
            # a float key is a time, like its string; a bool is no number
            (0.5, ("histories.zpxp.0.5", "time 0.5 is not on the grid")),
            (-0.5, ("histories.zpxp.-0.5", "time -0.5 is not on the grid")),
            (True, ("histories.zpxp.True", "slot key must be an offset or a time value")),
        ],
    )
    def test_history_key_read_by_its_type(self, key, error):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(_planted(("histories", "zpxp"), {key: ["x+"]}))
        assert err.value.errors == [error]

    @pytest.mark.parametrize("key", [1.0, "1.0", 0, "0"])
    def test_history_key_names_offset_zero(self, key):
        # 1.0 is the grid time of offset 0, an integer key is an offset
        s = parse_scenario(_planted(("histories", "zpxp"), {key: ["x+"]}))
        assert s.document["histories"]["zpxp"] == {"0": ["x+"]}

    @pytest.mark.parametrize(
        "partition, error",
        [
            ({"a": "x+", "b": ["x-"]}, ("partition.a", "expected a non-empty label list")),
            ({"a": ["x+", "x-"], "b": []}, ("partition.b", "expected a non-empty label list")),
            ({"a": ["x+"], "b": ["x-", "x+"]}, ("partition.b", "label 'x+' assigned twice")),
        ],
    )
    def test_coarse_grain_partition_fault(self, partition, error):
        s = parse_scenario(scenario_text("z_then_x.json"))
        with pytest.raises(ScenarioValidationError) as err:
            result_coarse_grain(s, 0, partition)
        assert err.value.errors == [error]

    @pytest.mark.parametrize(
        "partition, error",
        [
            ([["x+"], ["x-"]], ("partition", "expected an object")),
            ({1: ["x+"], 2: ["x-"]}, ("partition.1", "block name must be a string")),
            ({"a": ["x+"], None: ["x-"]}, ("partition.None", "block name must be a string")),
        ],
    )
    def test_coarse_grain_block_names_are_strings(self, partition, error):
        # located at the partition given, not at the coarse document made of it
        doc = json.loads(scenario_text("z_then_x.json"))
        doc["histories"], doc["queries"] = {}, {}
        with pytest.raises(ScenarioValidationError) as err:
            result_coarse_grain(parse_scenario(doc), 0, partition)
        assert err.value.errors == [error]

    def test_coarse_resolution_name_already_taken(self):
        doc = json.loads(scenario_text("z_then_x.json"))
        doc["resolutions"]["x_coarse"] = doc["resolutions"]["x"]
        out = result_coarse_grain(parse_scenario(doc), 0, {"x+": ["x+"], "x-": ["x-"]})
        coarse = out["scenario"]
        assert coarse["slots"] == ["z", "x_coarse_"]
        assert coarse["resolutions"]["x_coarse"] == doc["resolutions"]["x"]
        assert coarse["resolutions"]["x_coarse_"]["labels"] == ["x+", "x-"]


class TestBoundedMessages:
    def test_uncovered_labels_are_listed_then_counted(self):
        # a wrong large dimension leaves almost every basis label uncovered
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(_planted(("dimension",), 1000000))
        assert ("resolutions.z", "partition does not cover labels "
                "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 999988 more") in err.value.errors
        assert len(str(err.value)) < 1000

    def test_an_astronomical_dimension_is_refused_in_bounded_memory(self):
        # z_then_x.json with dimension 10**30, validated in a child process
        # whose address space is capped at 1 GiB: from_basis names the
        # uncovered basis indices without listing range(dimension)
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from decohist import parse_scenario\n"
            "from decohist.errors import ScenarioValidationError\n"
            "try:\n"
            "    parse_scenario(sys.stdin.read())\n"
            "except ScenarioValidationError as exc:\n"
            "    print(dict(exc.errors)['resolutions.z'])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", child], input=json.dumps(_planted(("dimension",), 10**30)), env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == (
            "partition does not cover labels [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] "
            f"and {10**30 - 12} more\n"
        )
