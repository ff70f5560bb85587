"""The command line prints exactly the committed golden outputs.

Each record of ``golden/cli_outputs.json`` (see ``cli_golden.py``) is one
``decohist`` call on a shipped scenario: its exit code, stdout and stderr
must match byte for byte.
"""

import json

import pytest

import cli_golden
from cli_golden import GOLDEN, cases, run

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert [r["argv"] for r in RECORDS] == cases()


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{k:03d}-{r['argv'][0]}" for k, r in enumerate(RECORDS)]
)
def test_output_matches_golden(record):
    assert run(record["argv"]) == record


def test_replay_names_each_differing_record_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # the console-script replay of CI, here through the in-process call
    records = [dict(r) for r in RECORDS[:3]]
    records[1]["stdout"] += "changed\n"
    golden = tmp_path / "cli_outputs.json"
    golden.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    before = golden.read_bytes()
    monkeypatch.setattr(cli_golden, "GOLDEN", golden)
    assert cli_golden.replay(run) == 1
    out, err = capsys.readouterr()
    assert out == "2 of 3 golden records reproduced\n"
    assert err == f"differs from its golden record: {records[1]['argv']}\n"
    assert golden.read_bytes() == before
    del records[1]
    golden.write_text(json.dumps(records), encoding="utf-8")
    assert cli_golden.replay(run) == 0
