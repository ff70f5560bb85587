import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decohist.cli import build_parser, format_number, main, render_csv, render_json, render_table
from decohist.consistency import DEFAULT_ROBUSTNESS_SEED

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--scenario", str(SCENARIOS / "minimal.json")
        )
        assert code == 0
        assert "ok: true" in out
        assert err == ""

    def test_failed_check_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--mode",
            "weak",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
        )
        assert code == 1
        assert "passed: false" in out

    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--mode",
            "weak",
            "--scenario",
            str(SCENARIOS / "same_basis.json"),
        )
        assert code == 0
        assert "passed: true" in out

    def test_additivity_check_on_consistent_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--mode",
            "additivity",
            "--scenario",
            str(SCENARIOS / "same_basis.json"),
            "--output",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["worst_violation"] <= 1e-10

    def test_pairs_scope_failure_renders_as_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--mode",
            "additivity",
            "--scope",
            "pairs",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
            "--output",
            "json",
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_whole_corpus_validates(self, capsys):
        for path in sorted(SCENARIOS.glob("*.json")):
            code, out, _ = run_cli(capsys, "validate", "--scenario", str(path))
            assert code == 0, path
            assert "ok: true" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "probs", "--scenario", "/nonexistent.json")
        assert code == 2
        assert "error:" in err

    def test_validation_error_is_located_without_traceback(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "dimension": 2}')
        code, out, err = run_cli(capsys, "validate", "--scenario", str(bad))
        assert code == 2
        assert out == ""
        assert "missing required key" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [["weak"], {}])
    def test_unhashable_check_mode_exits_two(self, capsys, tmp_path, mode):
        doc = json.loads((SCENARIOS / "minimal.json").read_text())
        doc["queries"] = {"q": {"kind": "check", "mode": mode}}
        path = tmp_path / "bad_mode.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: queries.q.mode: unknown check mode {mode!r}\n"
        assert "Traceback" not in err

    def test_probs_over_family_cap_exits_two(self, capsys, tmp_path):
        # 13 qubit slots give 8192 fine histories, above the 4096 cap
        doc = json.loads((SCENARIOS / "minimal.json").read_text())
        doc["times"] = [float(t) for t in range(13)]
        doc["slots"] = ["z"] * 13
        path = tmp_path / "over_cap.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "probs", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert "8192 fine-grained histories, cap is 4096" in err

    @pytest.mark.parametrize(
        "args, field",
        [
            (("--states", "0"), "states"),
            (("--states", "-2"), "states"),
            (("--seed", "-1"), "seed"),
            (("--tol", "nan"), "tol"),
            (("--tol", "-0.5"), "tol"),
        ],
    )
    def test_invalid_check_arguments_exit_two(self, capsys, args, field):
        code, out, err = run_cli(
            capsys,
            "check",
            "--mode",
            "robust",
            *args,
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    def test_usage_error_exits_two(self, capsys):
        assert main(["check", "--scenario", "x.json"]) == 2  # --mode is required

    def test_unknown_query_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "query", "nope", "--scenario", str(SCENARIOS / "minimal.json")
        )
        assert code == 2
        assert "nope" in err


class TestOutputs:
    def test_probs_table_sums_to_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--scenario", str(SCENARIOS / "z_then_x.json")
        )
        assert code == 0
        assert "total: 1" in out
        assert "probability" in out

    def test_json_output_is_parseable(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "probs",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
            "--output",
            "json",
        )
        doc = json.loads(out)
        assert doc["query"] == "probs"
        assert sum(r["probability"] for r in doc["rows"]) == pytest.approx(1.0)

    def test_csv_output(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "probs",
            "--scenario",
            str(SCENARIOS / "minimal.json"),
            "--output",
            "csv",
        )
        lines = out.strip().splitlines()
        assert lines[-2].startswith("0,")
        assert any(line.startswith("# total=1") for line in lines)

    def test_csv_quoting_survives_a_csv_reader(self, capsys):
        import csv
        import io

        _, out, _ = run_cli(
            capsys,
            "probs",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
            "--output",
            "csv",
        )
        table = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(table)))
        assert len(rows) == 4
        # history cells contain commas and must round-trip through quoting
        assert rows[0]["history"] == "{-1: [z0], 0: [x+]}"
        assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0)

    def test_oracle_trace_rows(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "oracle",
            "trace",
            "--history",
            "zpxp",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
        )
        assert "step_probability" in out
        assert "0.5" in out

    def test_condition_verb(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "condition",
            "--future",
            "future_z0",
            "--given",
            "given_z0",
            "--scenario",
            str(SCENARIOS / "same_basis.json"),
        )
        assert code == 0
        assert "value: 1" in out

    def test_retrodict_verb(self, capsys):
        _, plain, _ = run_cli(
            capsys,
            "retrodict",
            "--past",
            "past_z0",
            "--present",
            "x+",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
        )
        assert "value: 0.25" in plain
        _, normalized, _ = run_cli(
            capsys,
            "retrodict",
            "--past",
            "past_z0",
            "--present",
            "x+",
            "--normalized",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
        )
        assert "value: 0.5" in normalized

    def test_robust_check_reports_seed(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "check",
            "--mode",
            "robust",
            "--seed",
            "99",
            "--states",
            "5",
            "--scenario",
            str(SCENARIOS / "conserved_2qubit.json"),
        )
        assert "seed: 99" in out

    def test_coarse_grain_outputs_scenario(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "coarse-grain",
            "--slot",
            "0",
            "--partition",
            '{"extremes": ["both_up", "both_down"], "mid": ["mixed"]}',
            "--scenario",
            str(SCENARIOS / "conserved_2qubit.json"),
            "--output",
            "json",
        )
        doc = json.loads(out)
        assert doc["scenario"]["slots"][1].endswith("_coarse")


class TestDeterminism:
    @pytest.mark.parametrize("verb", [["probs"], ["dfunc"], ["check", "--mode", "weak"]])
    def test_byte_identical_across_runs(self, capsys, verb):
        args = [*verb, "--scenario", str(SCENARIOS / "z_then_x.json"), "--output", "json"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_byte_identical_across_processes(self):
        cmd = [
            sys.executable,
            "-m",
            "decohist",
            "check",
            "--mode",
            "robust",
            "--scenario",
            str(SCENARIOS / "conserved_2qubit.json"),
            "--output",
            "json",
        ]
        runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0


class TestNumberFormat:
    def test_twelve_significant_digits(self):
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(0.25) == "0.25"
        assert format_number(1e-9) == "1e-09"

    def test_formatting_applied_in_output(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "probs",
            "--scenario",
            str(SCENARIOS / "conserved_2qubit.json"),
            "--output",
            "json",
        )
        assert "0.333333333333" in out


class TestRendererRefusals:
    """A value no format can render (a numpy scalar leaking out of the
    engine, say) fails loudly in every format, never as its ``str``."""

    @pytest.mark.parametrize("render", [render_table, render_json, render_csv])
    @pytest.mark.parametrize("value", [np.bool_(True), np.int64(1), object()],
                             ids=["numpy_bool", "numpy_int", "object"])
    @pytest.mark.parametrize("place", ["header", "nested", "row"])
    def test_refused_everywhere(self, render, value, place):
        doc = {
            "header": {"x": value},
            "nested": {"x": [1, {"y": value}]},
            "row": {"rows": [{"a": 1.0, "b": value}]},
        }[place]
        with pytest.raises(TypeError, match=f"cannot render {type(value).__name__}"):
            render(doc)


class TestNegativeZeroTolerance:
    """A tolerance of -0.0 is a valid zero and prints as 0, never "-0"."""

    EXPECTED = {"table": "tol: 0\n", "json": '"tol": 0,', "csv": "# tol=0\n"}

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_check_flag(self, capsys, fmt):
        code, out, err = run_cli(
            capsys,
            "check",
            "--scenario",
            str(SCENARIOS / "z_then_x.json"),
            "--mode",
            "weak",
            "--tol",
            "-0.0",
            "--output",
            fmt,
        )
        assert code == 1 and err == ""  # the canonical witness fails at tol 0
        assert self.EXPECTED[fmt] in out
        assert "-0" not in out.replace("-1", "")

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_scenario_query(self, capsys, tmp_path, fmt):
        doc = json.loads((SCENARIOS / "z_then_x.json").read_text())
        doc["queries"]["weak"]["tol"] = -0.0
        path = tmp_path / "z_then_x.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "query", "weak", "--scenario", str(path), "--output", fmt)
        assert code == 1 and err == ""
        assert self.EXPECTED[fmt] in out
        assert "-0" not in out.replace("-1", "")


class TestParserReuse:
    """``main`` called repeatedly in one process shares one parser and
    prints what a fresh process prints for each call."""

    ROBUST = ["check", "--mode", "robust", "--states", "2", "--output", "json"]
    CALLS = [
        [*ROBUST, "--seed", "3", "--scenario", str(SCENARIOS / "same_basis.json")],
        [*ROBUST, "--scenario", str(SCENARIOS / "same_basis.json")],
        ["check", "--mode", "bogus", "--scenario", str(SCENARIOS / "minimal.json")],
        ["probs", "--scenario", str(SCENARIOS / "z_then_x.json"), "--output", "csv"],
        ["--help"],
        ["validate", "--scenario", str(SCENARIOS / "minimal.json")],
    ]

    @staticmethod
    def fresh_process(argv):
        cmd = [sys.executable, "-m", "decohist", *argv]
        run = subprocess.run(cmd, capture_output=True, text=True)
        return run.returncode, run.stdout, run.stderr

    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch):
        # the help text wraps at the terminal width, which COLUMNS fixes
        monkeypatch.setenv("COLUMNS", "100")
        expected = [self.fresh_process(argv) for argv in self.CALLS]
        for _ in range(2):
            got = [run_cli(capsys, *argv) for argv in self.CALLS]
            assert got == expected
        codes = [code for code, _, _ in got]
        assert codes == [0, 0, 2, 0, 0, 0]

    def test_a_dropped_option_falls_back_to_its_default(self, capsys):
        seeded, default = (json.loads(run_cli(capsys, *argv)[1]) for argv in self.CALLS[:2])
        assert seeded["seed"] == 3
        assert default["seed"] == DEFAULT_ROBUSTNESS_SEED
        assert json.loads(run_cli(capsys, *self.CALLS[0])[1]) == seeded

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()
