"""Every check mode, additivity scope and inner mode, reached three ways.

The CLI's ``check`` verb, a scenario's check query and a direct library
call must give the same report for each combination the check tables name,
and every name outside the tables is refused with one message.
"""

import json
from pathlib import Path

import pytest

from decohist import parse_scenario, run_query
from decohist.cli import main, render_json
from decohist.consistency import (
    SCOPES,
    _INNER_MODES,
    check_additivity,
    check_medium_decoherence,
    check_state_robustness,
    check_weak_consistency,
)
from decohist.errors import ScenarioValidationError
from decohist.histories import decoherence_functional
from decohist.scenario import CHECKS, result_check

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: What each mode means, written out apart from ``scenario.CHECKS``.
DIRECT = {
    "weak": lambda fam, scope, inner: check_weak_consistency(decoherence_functional(fam)),
    "medium": lambda fam, scope, inner: check_medium_decoherence(decoherence_functional(fam)),
    "additivity": lambda fam, scope, inner: check_additivity(fam, scope=scope),
    "robust": lambda fam, scope, inner: check_state_robustness(fam, mode=inner, scope=scope),
}


def report_fields(report) -> dict:
    return {
        "mode": report.mode,
        "passed": report.passed,
        "worst_violation": report.worst_violation,
        "tol": report.tolerance,
        "seed": report.seed,
        "witness": report.witness,
    }


def with_query(name: str, query: dict) -> str:
    doc = json.loads((SCENARIOS / name).read_text())
    doc["queries"] = {"q": query}
    return json.dumps(doc)


@pytest.mark.parametrize("inner", _INNER_MODES)
@pytest.mark.parametrize("scope", list(SCOPES))
@pytest.mark.parametrize("mode", list(CHECKS))
@pytest.mark.parametrize("name", ["z_then_x.json", "same_basis.json"])
def test_cli_query_and_library_agree(capsys, name, mode, scope, inner):
    path = SCENARIOS / name
    expected = report_fields(DIRECT[mode](parse_scenario(path.read_text()).family, scope, inner))

    argv = ["check", "--mode", mode, "--scope", scope, "--inner", inner]
    code = main([*argv, "--scenario", str(path), "--output", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == (0 if expected["passed"] else 1)
    # the CLI prints 12 significant digits, as it would print the direct report
    assert {key: out[key] for key in expected} == json.loads(render_json(expected))

    query = {"kind": "check", "mode": mode, "scope": scope, "inner": inner}
    doc = run_query(parse_scenario(with_query(name, query)), "q")
    assert {key: doc[key] for key in expected} == expected


def test_cli_choices_are_the_tables_in_order(capsys):
    assert list(CHECKS) == ["weak", "medium", "additivity", "robust"]
    assert list(SCOPES) == ["pairs", "partitions"]
    assert list(_INNER_MODES) == ["weak", "medium", "additivity"]
    assert main(["check", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())
    assert "--mode {weak,medium,additivity,robust}" in usage
    assert "--scope {pairs,partitions}" in usage
    assert "--inner {weak,medium,additivity}" in usage


MESSAGES = {
    "mode": "unknown check mode 'bogus'",
    "scope": "expected 'pairs' or 'partitions'",
    "inner": "expected 'weak', 'medium' or 'additivity'",
}


@pytest.mark.parametrize("field", sorted(MESSAGES))
def test_single_fault_messages(capsys, tmp_path, field):
    query = {"kind": "check", "mode": "robust", field: "bogus"}
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(with_query("z_then_x.json", query))
    assert err.value.errors == [(f"queries.q.{field}", MESSAGES[field])]

    s = parse_scenario((SCENARIOS / "z_then_x.json").read_text())
    with pytest.raises(ScenarioValidationError) as err:
        result_check(s, **{"mode": "robust", field: "bogus"})
    assert err.value.errors == [(field, MESSAGES[field])]

    path = tmp_path / "bad.json"
    path.write_text(with_query("z_then_x.json", query))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: queries.q.{field}: {MESSAGES[field]}\n"
