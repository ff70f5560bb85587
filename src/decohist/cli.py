"""Command-line access to every engine capability.

Every verb loads a scenario file, runs one computation, and prints a
deterministic result document as a table, JSON, or CSV.  Numeric fields are
printed with 12 significant digits; identical inputs (and seeds) give
byte-identical output.  Exit codes: 0 success, 1 a consistency check
reported failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .consistency import SCOPES, _INNER_MODES
from .errors import DecohistError, ScenarioValidationError
from .scenario import (
    CHECKS,
    _QUERIES,
    parse_scenario,
    result_check,
    result_coarse_grain,
    result_condition,
    result_dfunc,
    result_oracle,
    result_probability,
    result_probs,
    result_retrodict,
    result_validate,
    run_query,
)


def format_number(x: float) -> str:
    return f"{x:.12g}"


def _scalar(value, null: str, string) -> str | None:
    """A leaf's text: ``null`` for None, a bool as true or false, a float with
    12 significant digits, an int, a str through ``string``; None otherwise."""
    if value is None:
        return null
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, int)):
        return format_number(value) if isinstance(value, float) else str(value)
    return string(value) if isinstance(value, str) else None


def _render_json_value(value, indent: int) -> str:
    pad = "  " * indent
    leaf = _scalar(value, "null", json.dumps)
    if leaf is not None:
        return leaf
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            f"{json.dumps(str(k))}: {_render_json_value(v, indent + 1)}"
            for k, v in value.items()
        ]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_render_json_value(v, indent + 1) for v in value]
    else:
        raise TypeError(f"cannot render {type(value).__name__}")
    if not items:
        return brackets
    inner = ",\n".join(f"{pad}  {item}" for item in items)
    return brackets[0] + "\n" + inner + "\n" + pad + brackets[1]


def render_json(doc: dict) -> str:
    return _render_json_value(doc, 0) + "\n"


def _compact(value) -> str:
    """One-line cell rendering for tables and CSV; refuses what JSON does."""
    leaf = _scalar(value, "", str)
    if leaf is not None:
        return leaf
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_compact(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_compact(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__}")


def _split(doc: dict) -> tuple[list, list, list]:
    """A document's header as (key, cell) pairs, and its rows' columns and cells."""
    header = [(key, _compact(value)) for key, value in doc.items() if key != "rows"]
    rows = doc.get("rows") or []
    columns = list(rows[0]) if rows else []
    return header, columns, [[_compact(r.get(c)) for c in columns] for r in rows]


def render_table(doc: dict) -> str:
    header, columns, cells = _split(doc)
    lines = [f"{key}: {cell}" for key, cell in header]
    if cells:
        widths = [
            max(len(col), *(len(row[i]) for row in cells))
            for i, col in enumerate(columns)
        ]
        lines.append("")
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_csv(doc: dict) -> str:
    header, columns, cells = _split(doc)
    lines = [f"# {key}={cell}" for key, cell in header]
    if cells:
        lines.append(",".join(_csv_quote(c) for c in columns))
        lines += [",".join(_csv_quote(c) for c in row) for row in cells]
    return "\n".join(lines) + "\n"


_RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so it must
    not be mutated; ``parse_args`` leaves it unchanged and gives each call a
    fresh namespace, so ``main`` may be called repeatedly in one process."""
    parser = argparse.ArgumentParser(
        prog="decohist",
        description="consistent-histories engine: probabilities, conditionals, "
        "decoherence functionals, and consistency checks over scenario files",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    common.add_argument(
        "--output",
        choices=["table", "json", "csv"],
        default="table",
        help="output format (default: table)",
    )

    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("validate", parents=[common], help="parse and validate a scenario")
    sub.add_parser("probs", parents=[common], help="probabilities of all fine histories")
    sub.add_parser("dfunc", parents=[common], help="full decoherence functional")

    p = sub.add_parser("probability", parents=[common], help="one named history's probability")
    p.add_argument("--history", required=True)

    p = sub.add_parser("condition", parents=[common], help="future given present and past")
    p.add_argument("--future", required=True, help="named history over future slots")
    p.add_argument("--given", required=True, help="named history over past and present")

    p = sub.add_parser("retrodict", parents=[common], help="past given the present")
    p.add_argument("--past", required=True, help="named history over past slots")
    p.add_argument("--present", required=True, help="comma-separated labels at slot 0")
    p.add_argument("--normalized", action="store_true", help="use the summed denominator")

    p = sub.add_parser("coarse-grain", parents=[common], help="coarsen one slot's resolution")
    p.add_argument("--slot", type=int, required=True, help="slot offset to coarsen")
    p.add_argument(
        "--partition",
        required=True,
        help='JSON object mapping block names to label lists, e.g. \'{"any": ["z0","z1"]}\'',
    )

    p = sub.add_parser("check", parents=[common], help="consistency / additivity checks")
    p.add_argument("--mode", choices=list(CHECKS), required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--states", type=int, help="random state count for robust")
    p.add_argument("--scope", choices=list(SCOPES))
    p.add_argument(
        "--inner", choices=_INNER_MODES, help="inner check for robust mode (default weak)"
    )

    p = sub.add_parser("oracle", parents=[common], help="sequential-measurement oracle")
    p.add_argument("action", choices=["prob", "trace"])
    p.add_argument("--history", required=True)

    p = sub.add_parser("query", parents=[common], help="run a query named in the scenario")
    p.add_argument("name")
    return parser


def _retrodict_args(args: argparse.Namespace) -> dict:
    present = [s for s in args.present.split(",") if s]
    if not present:
        raise ScenarioValidationError([("present", "expected at least one label")])
    return {"past": args.past, "present": present, "normalized": args.normalized}


def _coarse_grain_args(args: argparse.Namespace) -> dict:
    try:
        partition = json.loads(args.partition)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([("partition", f"invalid JSON: {exc.msg}")])
    if not isinstance(partition, dict):
        raise ScenarioValidationError([("partition", "expected a JSON object")])
    return {"offset": args.slot, "partition": partition}


def _named(*keys: str):
    """Argument conversion passing the parsed options of these names."""
    return lambda args: {key: getattr(args, key) for key in keys}


#: Verb -> (argument conversion, result function): the function, one of the
#: ``result_*`` functions ``scenario._QUERIES`` also uses, gets the scenario and
#: the keyword arguments the conversion makes of the parsed command line.
_VERBS = {
    "validate": (_named(), result_validate),
    "probs": (_named(), result_probs),
    "dfunc": (_named(), result_dfunc),
    "probability": (_named("history"), result_probability),
    "condition": (_named("future", "given"), result_condition),
    "retrodict": (_retrodict_args, result_retrodict),
    "coarse-grain": (_coarse_grain_args, result_coarse_grain),
    "check": (_named(*_QUERIES["check"][2]), result_check),
    "oracle": (lambda a: {"history": a.history, "trace": a.action == "trace"}, result_oracle),
    "query": (_named("name"), run_query),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
        convert, build = _VERBS[args.verb]
        doc = build(scenario, **convert(args))
    except ScenarioValidationError as exc:
        for path, message in exc.errors:
            print(f"error: {path or '<document>'}: {message}", file=sys.stderr)
        return 2
    except (DecohistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(_RENDERERS[args.output](doc))
    if doc.get("query") == "check" and not doc.get("passed", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
