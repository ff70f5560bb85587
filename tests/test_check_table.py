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

#: The arguments besides ``mode`` each mode reads, written out apart from
#: ``scenario.CHECKS``; a mode refuses the others.
READS = {
    "weak": ("tol",),
    "medium": ("tol",),
    "additivity": ("tol", "scope", "seed"),
    "robust": ("tol", "scope", "seed", "states", "inner"),
}

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

    # each mode is given the arguments it reads, and no other
    given = {key: v for key, v in (("scope", scope), ("inner", inner)) if key in READS[mode]}
    argv = ["check", "--mode", mode]
    for key, value in given.items():
        argv += [f"--{key}", value]
    code = main([*argv, "--scenario", str(path), "--output", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == (0 if expected["passed"] else 1)
    # the CLI prints 12 significant digits, as it would print the direct report
    assert {key: out[key] for key in expected} == json.loads(render_json(expected))

    query = {"kind": "check", "mode": mode, **given}
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


def test_each_mode_reads_what_the_table_says():
    assert {mode: tuple(names) for mode, (_, names) in CHECKS.items()} == READS


#: A valid value of each argument a check may be given.
VALID = {"tol": 1e-9, "seed": 3, "states": 2, "scope": "pairs", "inner": "medium"}


@pytest.mark.parametrize(
    "mode, key", [(m, k) for m in READS for k in VALID if k not in READS[m]]
)
def test_a_mode_refuses_what_it_does_not_read(mode, key):
    s = parse_scenario((SCENARIOS / "z_then_x.json").read_text())
    with pytest.raises(ScenarioValidationError) as err:
        result_check(s, mode, **{key: VALID[key]})
    assert err.value.errors == [(key, f"not read by check mode {mode!r}")]
    # the value of an argument the mode does not read is not checked
    with pytest.raises(ScenarioValidationError) as err:
        result_check(s, mode, **{key: -1})
    assert err.value.errors == [(key, f"not read by check mode {mode!r}")]


def test_an_unread_argument_is_refused_by_every_entry_point(capsys, tmp_path):
    message = "not read by check mode 'weak'"
    path = SCENARIOS / "z_then_x.json"
    argv = ["check", "--mode", "weak", "--scope", "pairs", "--scenario", str(path)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: scope: {message}\n")

    bad = tmp_path / "bad.json"
    query = {"kind": "check", "mode": "weak", "scope": "pairs"}
    bad.write_text(with_query("z_then_x.json", query))
    assert main(["query", "q", "--scenario", str(bad)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: queries.q.scope: {message}\n")

    s = parse_scenario(path.read_text())
    with pytest.raises(ScenarioValidationError) as err:
        run_query(s, "weak", scope="pairs")
    assert err.value.errors == [("scope", message)]
