"""The command line prints exactly the committed golden outputs.

Each record of ``golden/cli_outputs.json`` (see ``cli_golden.py``) is one
``decohist`` call on a shipped scenario: its exit code, stdout and stderr
must match byte for byte.
"""

import json

import pytest

from cli_golden import GOLDEN, cases, run

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert [r["argv"] for r in RECORDS] == cases()


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{k:03d}-{r['argv'][0]}" for k, r in enumerate(RECORDS)]
)
def test_output_matches_golden(record):
    assert run(record["argv"]) == record
