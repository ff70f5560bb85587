"""Golden command-line outputs for the shipped scenarios.

``GOLDEN`` records, for every verb, output format and named query on each
``scenarios/*.json`` file (and a few usage errors), the argument list, the
exit code and the exact stdout and stderr of ``decohist``.
``test_cli_golden.py`` replays each record and compares byte for byte, so a
change that alters any printed number or message fails tier-1.

Paths in the argument lists are relative to the repository root, which is
the working directory while a record runs.  Regenerate the file (only when
an output is meant to change) with::

    PYTHONPATH=src python tests/cli_golden.py

and replay every record through the ``decohist`` console script that pip
installed, leaving the file as it is, with::

    python tests/cli_golden.py --replay

which prints how many records were reproduced, names each one that
differs, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

FORMATS = ("table", "json", "csv")
CHECKS = (
    ("--mode", "weak"),
    ("--mode", "medium"),
    ("--mode", "additivity", "--scope", "pairs"),
    ("--mode", "additivity", "--scope", "partitions"),
    ("--mode", "robust"),
)
USAGE_ERRORS = (
    ["validate", "--scenario", "scenarios/missing.json"],
    ["retrodict", "--scenario", "scenarios/z_then_x.json", "--past", "past_z0", "--present", ","],
    ["coarse-grain", "--scenario", "scenarios/minimal.json", "--slot", "0", "--partition", "[1"],
    # each partition fault, located at its block or at the partition
    *(
        ["coarse-grain", "--scenario", "scenarios/z_then_x.json", "--slot", "0", "--partition", p]
        for p in (
            '{"a": "x+", "b": ["x-"]}',
            '{"a": ["x+", "x-"], "b": []}',
            '{"a": ["x+"], "b": ["x-", "x+"]}',
            '{"a": ["x+", "q"], "b": ["x-"]}',
            '{"a": ["x+"]}',
        )
    ),
)


def _coarsest_partition(doc: dict, res: str, offset: str) -> dict:
    """The coarsest partition of a slot's labels under which every named
    history's outcome there is a union of blocks: labels share a block when
    the same histories select them."""
    selected = [set(h[offset]) for h in doc["histories"].values() if offset in h]
    blocks: dict[tuple, list] = {}
    for label in doc["resolutions"][res]["labels"]:
        blocks.setdefault(tuple(label in s for s in selected), []).append(label)
    return {"+".join(members): members for members in blocks.values()}


def _verb_args(doc: dict) -> list[list[str]]:
    """Every verb's argument lists for one scenario document (less the
    scenario and format options): the named histories, queries, conditionals
    and retrodictions it declares, and for each slot the coarsest partition
    those histories allow."""
    queries = doc.get("queries", {})
    out = [["validate"], ["probs"], ["dfunc"]]
    for name in doc.get("histories", {}):
        out.append(["probability", "--history", name])
        out += [["oracle", action, "--history", name] for action in ("prob", "trace")]
    for q in queries.values():
        if q["kind"] == "conditional":
            out.append(["condition", "--future", q["future"], "--given", q["given"]])
        elif q["kind"] == "retrodict":
            present = ",".join(q["present"])
            base = ["retrodict", "--past", q["past"], "--present", present]
            out += [base, base + ["--normalized"]]
    for slot, res in enumerate(doc["slots"]):
        offset = str(slot - doc["present_index"])
        partition = json.dumps(_coarsest_partition(doc, res, offset))
        out.append(["coarse-grain", "--slot", offset, "--partition", partition])
    out += [["check", *check] for check in CHECKS]
    out += [["query", name] for name in queries]
    return out


def cases() -> list[list[str]]:
    """Argument lists of every record, in file order."""
    out = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        scenario = path.relative_to(ROOT).as_posix()
        for args in _verb_args(doc):
            for fmt in FORMATS:
                out.append([*args, "--scenario", scenario, "--output", fmt])
    return out + [list(args) for args in USAGE_ERRORS]


def run(argv: list[str]) -> dict:
    """One in-process ``decohist`` call, from the repository root."""
    from decohist.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def console(argv: list[str]) -> dict:
    """One call of the installed ``decohist`` console script, from the
    repository root."""
    got = subprocess.run(["decohist", *argv], capture_output=True, text=True, cwd=ROOT)
    return {"argv": list(argv), "exit": got.returncode, "stdout": got.stdout, "stderr": got.stderr}


def replay(call=console) -> int:
    """Run every golden record through ``call`` and compare exit code,
    stdout and stderr byte for byte; the exit status, 1 if any differs."""
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = [r["argv"] for r in records if call(r["argv"]) != r]
    for argv in bad:
        print("differs from its golden record:", argv, file=sys.stderr)
    print(f"{len(records) - len(bad)} of {len(records)} golden records reproduced")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write or replay the golden CLI records.")
    parser.add_argument(
        "--replay",
        action="store_true",
        help="replay every record through the installed console script; write nothing",
    )
    if parser.parse_args(argv).replay:
        return replay()
    records = [run(argv) for argv in cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
