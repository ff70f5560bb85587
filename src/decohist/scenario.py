"""Scenario files: parsing, validation, serialization, and query execution.

A scenario is a JSON object (``schema_version: 1``) declaring the dimension,
time grid, dynamics, initial state, per-slot resolutions, and optional named
histories and queries.  Matrices are nested arrays of [re, im] pairs,
row-major.  Parsing is strict: unknown keys are errors, and every failure is
reported with a path into the document.

History maps use string keys that are either slot offsets ("-1", "0", "1")
or grid time values ("2.5"); integer-looking keys are read as offsets.  A
dict given in Python may also key by number: an integer is an offset and a
float a time value.
Slots missing from a map carry the trivial full outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import Mapping

from .consistency import (
    SCOPES,
    _INNER_MODES,
    check_additivity,
    check_medium_decoherence,
    check_state_robustness,
    check_weak_consistency,
)
from .dynamics import DynamicsSpec, TimeGrid, build_schedule
from .errors import (
    DecohistError,
    PartitionBlockError,
    PartitionNotTotalError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownQueryError,
    UnresolvedReferenceError,
)
from .histories import (
    History,
    HistoryFamily,
    decoherence_functional,
    fine_probabilities,
    history_probability,
    predictive_conditional,
    retrodictive_conditional,
    retrodictive_normalized,
)
from .linalg import DensityState, _ReadOnly, _is_a, _map_arrays, _summed
from .linalg import matrix_from_pairs, matrix_to_pairs
from .lueders import sequential_probability
from .resolutions import Resolution, from_basis, make_resolution, normalize_partition

SCHEMA_VERSION = 1

#: Top-level key -> (its type, None for any value; and for an optional key,
#: the message when it is mistyped and the value it takes when absent).
_FIELDS = {
    "schema_version": (int,),
    "dimension": (int,),
    "times": (list,),
    "present_index": (int,),
    "reference_index": (int, "expected an integer", 0),
    "dynamics": (dict,),
    "state": (None,),
    "resolutions": (dict,),
    "slots": (list,),
    "histories": (dict, "expected an object", {}),
    "queries": (dict, "expected an object", {}),
}


def _bad_args(kind: str, args: Mapping, histories=(), family=None) -> list[tuple[str, str]]:
    """The arguments of a ``kind`` query that break the one rule for them, as
    (key, message); a missing required key reads as None.  Each history
    reference names one of ``histories``; ``trace`` is a bool; ``present`` is
    a non-empty list of label names, known at slot 0 of ``family`` if given.
    A check's ``mode`` is in ``CHECKS``; every other argument is one that
    mode reads, and only then is its value checked: ``tol`` finite and >= 0,
    integers ``seed`` >= 0 and ``states`` >= 1, ``scope`` in ``SCOPES``,
    ``inner`` in ``_INNER_MODES``."""
    bad = []
    for key in _QUERIES[kind][2]:
        value = args.get(key)
        if key in ("history", "future", "given", "past"):
            if not (isinstance(value, str) and value in histories):
                bad.append((key, f"unresolved history reference {value!r}"))
        elif key == "trace" and key in args and not isinstance(value, bool):
            bad.append((key, "expected a boolean"))
        elif key == "present" and not _is_label_list(value):
            bad.append((key, "expected a non-empty list of label names"))
        elif key == "present" and family is not None:
            try:
                family.resolution_at(0).outcome(value)
            except DecohistError as exc:
                bad.append((key, str(exc)))
    if kind != "check":
        return bad
    mode = args.get("mode")
    if not isinstance(mode, str) or mode not in CHECKS:
        bad.append(("mode", f"unknown check mode {mode!r}"))
    else:
        unread = [key for key in args if key != "mode" and key not in CHECKS[mode][1]]
        bad += [(key, f"not read by check mode {mode!r}") for key in unread]
        args = {key: value for key, value in args.items() if key not in unread}
    for key, typ, least in (("tol", Real, 0), ("seed", Integral, 0), ("states", Integral, 1)):
        if key not in args:
            continue
        value = args[key]
        if not _is_a(value, typ):
            bad.append((key, "expected a number"))
        elif not least <= value < math.inf:
            rule = "finite and >= 0" if key == "tol" else f">= {least}"
            bad.append((key, f"must be {rule}, got {value!r}"))
    if "scope" in args and not (isinstance(args["scope"], str) and args["scope"] in SCOPES):
        bad.append(("scope", "expected 'pairs' or 'partitions'"))
    if "inner" in args and args["inner"] not in _INNER_MODES:
        bad.append(("inner", "expected 'weak', 'medium' or 'additivity'"))
    return bad


@dataclass(frozen=True, eq=False)
class Scenario(_ReadOnly):
    """A fully validated scenario: built engine objects plus the normalized
    document they came from, kept as ``inputs`` with each matrix the validated
    array; ``document`` renders the matrices as [re, im] pairs on first read."""

    inputs: dict
    family: HistoryFamily
    resolutions: dict[str, Resolution]
    histories: dict[str, History]
    queries: dict[str, dict]

    @cached_property
    def document(self) -> dict:
        return _map_arrays(self.inputs, matrix_to_pairs)

    def to_document(self) -> dict:
        return json.loads(json.dumps(self.document))

    def history(self, name: str) -> History:
        if name not in self.histories:
            raise UnresolvedReferenceError(name, "history")
        return self.histories[name]


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append((path, message))

    def build(self, path: str, make, *args, errors=DecohistError):
        """``make(*args)``, or None with the ``errors`` it raises recorded at ``path``."""
        try:
            return make(*args)
        except errors as exc:
            self.add(path, str(exc))
            return None

    def check_keys(self, obj: Mapping, allowed, path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.add(f"{path}.{key}" if path else key, "unknown key")


def _read_fields(doc: Mapping, col: _Collector) -> dict:
    """Each key of ``_FIELDS`` -> its value in ``doc``; a missing or mistyped value
    is recorded and read as None, or as an optional key's (never mutated) default."""
    col.check_keys(doc, _FIELDS, "")
    fields = {}
    for key, (typ, *optional) in _FIELDS.items():
        mistyped, fields[key] = optional or (None, None)
        if key not in doc:
            if not optional:
                col.add(key, "missing required key")
        elif typ is None or _is_a(doc[key], typ):
            fields[key] = doc[key]
        else:
            col.add(key, mistyped or f"expected {typ.__name__}, got {type(doc[key]).__name__}")
    return fields


def _is_label_list(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(l, str) for l in value)


def _parse_matrix(data, dim: int, path: str, col: _Collector):
    m = col.build(path, matrix_from_pairs, data, errors=(DecohistError, ValueError, TypeError))
    if m is not None and m.shape != (dim, dim):
        col.add(path, f"expected a {dim}x{dim} matrix, got {m.shape[0]}x{m.shape[1]}")
        return None
    return m


def _parse_resolution(name: str, spec, dim: int, col: _Collector):
    path = f"resolutions.{name}"
    if not isinstance(spec, dict):
        col.add(path, "expected an object")
        return None, None
    col.check_keys(spec, {"basis", "projectors", "labels"}, path)
    has_basis = "basis" in spec
    if has_basis == ("projectors" in spec):
        col.add(path, "give exactly one of 'basis' or 'projectors'")
        return None, None

    if has_basis:
        blocks = spec["basis"]
        # from_basis checks each index and names a bad one
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            col.add(f"{path}.basis", "expected a list of integer lists")
            return None, None
        n = len(blocks)
    else:
        if not isinstance(spec["projectors"], list) or not spec["projectors"]:
            col.add(f"{path}.projectors", "expected a non-empty list of matrices")
            return None, None
        n = len(spec["projectors"])

    labels = spec.get("labels", [str(k) for k in range(n)])
    if not isinstance(labels, list) or len(labels) != n or not all(
        isinstance(l, str) for l in labels
    ):
        col.add(f"{path}.labels", f"expected a list of {n} strings")
        return None, None

    if has_basis:
        res = col.build(path, from_basis, dim, blocks, labels)
        if res is None:  # a refused index may be no integer at all
            return None, None
        norm = {"labels": labels, "basis": [[int(i) for i in b] for b in blocks]}
    else:
        mats = []
        for k, m in enumerate(spec["projectors"]):
            mat = _parse_matrix(m, dim, f"{path}.projectors[{k}]", col)
            if mat is None:
                return None, None
            mats.append(mat)
        res = col.build(path, make_resolution, list(zip(labels, mats)))
        norm = {"labels": labels, "projectors": mats}
    return (None, None) if res is None else (res, norm)


def _parse_history_map(
    spec, family: HistoryFamily, path: str, col: _Collector
) -> tuple[History | None, dict | None]:
    if not isinstance(spec, dict):
        col.add(path, "expected an object mapping slots to label lists")
        return None, None
    errors_before = len(col.errors)
    offsets = {}
    keys = {}  # slot offset -> the key that named it
    grid = family.schedule.grid
    for key, labels in spec.items():
        kpath = f"{path}.{key}"
        # a number key reads as its string; a bool is no number and no key
        text = key if isinstance(key, str) else str(key) if _is_a(key, Real) else None
        try:
            off = int(text)
        except (TypeError, ValueError):
            try:
                t = float(text)
            except (TypeError, ValueError):
                col.add(kpath, "slot key must be an offset or a time value")
                continue
            if t not in grid.times:
                col.add(kpath, f"time {t} is not on the grid")
                continue
            off = grid.offset_of(grid.times.index(t))
        if off not in set(family.offsets()):
            col.add(kpath, f"slot offset {off} out of range")
            continue
        if off in keys:
            col.add(kpath, f"slot offset {off} already given by key {keys[off]!r}")
            continue
        keys[off] = key
        if not _is_label_list(labels):
            col.add(kpath, "expected a non-empty list of label names")
            continue
        offsets[off] = labels
    if len(col.errors) > errors_before:
        return None, None
    history = col.build(path, family.history, offsets)
    if history is None:
        return None, None
    return history, {str(off): history.outcome_at(off).display_labels() for off in sorted(offsets)}


def _parse_query(
    name: str, spec, hist_specs: Mapping, family: HistoryFamily | None, col: _Collector
) -> dict | None:
    """``hist_specs`` holds the histories the document declares, parsed or not."""
    path = f"queries.{name}"
    if not isinstance(spec, dict):
        col.add(path, "expected an object")
        return None
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _QUERIES:
        col.add(f"{path}.kind", f"unknown query kind {kind!r}")
        return None
    keys = _QUERIES[kind][2]
    col.check_keys(spec, {"kind", *keys}, path)
    args = {key: spec[key] for key in keys if key in spec}
    bad = _bad_args(kind, args, hist_specs, family)
    for key, message in bad:
        col.add(f"{path}.{key}", message)
    return None if bad else {"kind": kind, **args}


def parse_scenario(source) -> Scenario:
    """Parse and fully validate a scenario from JSON text (or a dict).

    Raises ScenarioSyntaxError for malformed JSON and
    ScenarioValidationError carrying every located failure otherwise.
    A reference is unresolved only when the document declares no such name;
    one it declares but that fails to parse is reported at its declaration.
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ScenarioSyntaxError(
                f"line {exc.lineno} column {exc.colno}", exc.msg
            ) from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ScenarioValidationError([("", "scenario must be a JSON object")])

    col = _Collector()
    fields = _read_fields(doc, col)

    version = fields["schema_version"]
    if version is not None and version != SCHEMA_VERSION:
        col.add("schema_version", f"unsupported version {version}")

    dim = fields["dimension"]
    if dim is not None and dim < 1:
        col.add("dimension", "must be a positive integer")
        dim = None

    times = fields["times"]
    present_index = fields["present_index"]
    reference_index = fields["reference_index"]
    grid = None
    if times is not None and present_index is not None:
        if not all(_is_a(t, (int, float)) for t in times):
            col.add("times", "expected a list of numbers")
        else:
            grid = col.build(
                "times", TimeGrid, times, present_index, errors=(DecohistError, ValueError)
            )
    if grid is not None and not 0 <= reference_index < grid.n_slots:
        col.add("reference_index", f"slot {reference_index} out of range")
        grid = None

    dynamics = fields["dynamics"]
    spec = None
    if dynamics is not None and dim is not None and grid is not None:
        col.check_keys(dynamics, {"hamiltonian", "steps"}, "dynamics")
        if ("hamiltonian" in dynamics) == ("steps" in dynamics):
            col.add("dynamics", "give exactly one of 'hamiltonian' or 'steps'")
        elif "hamiltonian" in dynamics:
            h = _parse_matrix(dynamics["hamiltonian"], dim, "dynamics.hamiltonian", col)
            if h is not None:
                spec = col.build("dynamics.hamiltonian", DynamicsSpec.from_hamiltonian, h)
        else:
            steps = dynamics["steps"]
            if not isinstance(steps, list) or len(steps) != grid.n_slots - 1:
                col.add("dynamics.steps", f"expected {grid.n_slots - 1} step matrices")
            else:
                mats = [
                    _parse_matrix(s, dim, f"dynamics.steps[{k}]", col)
                    for k, s in enumerate(steps)
                ]
                if all(m is not None for m in mats):
                    spec = col.build("dynamics.steps", DynamicsSpec.from_steps, mats)

    state = None
    if fields["state"] is not None and dim is not None:
        m = _parse_matrix(fields["state"], dim, "state", col)
        if m is not None:
            state = col.build("state", DensityState, m)

    res_specs = fields["resolutions"]
    resolutions: dict[str, Resolution] = {}
    res_norm: dict[str, dict] = {}
    if res_specs is not None and dim is not None:
        for name, rspec in res_specs.items():
            res, norm = _parse_resolution(name, rspec, dim, col)
            if res is not None:
                resolutions[name] = res
                res_norm[name] = norm

    slot_names = fields["slots"]
    family = None
    if (
        slot_names is not None
        and grid is not None
        and spec is not None
        and state is not None
        and res_specs is not None
    ):
        if len(slot_names) != grid.n_slots:
            col.add("slots", f"expected {grid.n_slots} entries, one per time")
        else:
            for k, name in enumerate(slot_names):
                if not isinstance(name, str) or name not in res_specs:
                    col.add(f"slots[{k}]", f"unresolved resolution reference {name!r}")
            if all(isinstance(name, str) and name in resolutions for name in slot_names):
                try:
                    schedule = build_schedule(grid, spec, reference_index, dim=dim)
                    family = HistoryFamily(
                        schedule,
                        tuple(resolutions[name] for name in slot_names),
                        state,
                    )
                except DecohistError as exc:
                    col.add("slots", str(exc))
                except ValueError as exc:  # a propagator too large to be finite
                    col.add("dynamics", str(exc))

    histories: dict[str, History] = {}
    hist_norm: dict[str, dict] = {}
    if family is not None:
        for name, hspec in fields["histories"].items():
            h, norm = _parse_history_map(hspec, family, f"histories.{name}", col)
            if h is not None:
                histories[name] = h
                hist_norm[name] = norm

    queries: dict[str, dict] = {}
    for name, qspec in fields["queries"].items():
        q = _parse_query(name, qspec, fields["histories"], family, col)
        if q is not None:
            queries[name] = q

    if col.errors:
        raise ScenarioValidationError(col.errors)
    if family is None:  # every path that leaves it unset records an error
        raise ScenarioValidationError([("slots", "no history family was built")])

    inputs = {
        "schema_version": SCHEMA_VERSION,
        "dimension": dim,
        "times": list(grid.times),
        "present_index": grid.present_index,
        "reference_index": reference_index,
        "dynamics": (
            {"hamiltonian": spec.hamiltonian}
            if spec.hamiltonian is not None
            else {"steps": list(spec.step_unitaries)}
        ),
        "state": state.matrix,
        "resolutions": res_norm,
        "slots": list(slot_names),
        "histories": hist_norm,
        "queries": queries,
    }
    return Scenario(inputs, family, resolutions, histories, dict(queries))


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario (exact floats, stable layout)."""
    return json.dumps(scenario.document, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Query execution.  Each builder returns a plain result document; rendering
# (table / json / csv, 12-significant-digit floats) is the CLI's job.


def _meta(scenario: Scenario) -> dict:
    sched = scenario.family.schedule
    return {
        "schema_version": SCHEMA_VERSION,
        "present_index": sched.grid.present_index,
        "reference_index": sched.reference_index,
    }


def _history_row(history: History) -> dict:
    return {
        str(off): labels for off, labels in sorted(history.labels_by_offset().items())
    }


def result_validate(scenario: Scenario) -> dict:
    family = scenario.family
    return {
        "query": "validate",
        **_meta(scenario),
        "ok": True,
        "dimension": family.dim,
        "slots": family.n_slots,
        "resolution_sizes": list(family.shape),
        "fine_histories": family.n_fine_histories,
        "histories": sorted(scenario.histories),
        "queries": sorted(scenario.queries),
    }


def result_probs(scenario: Scenario) -> dict:
    family = scenario.family
    probs = fine_probabilities(family)
    rows = []
    for k, h in enumerate(family.fine_histories()):
        rows.append(
            {"index": k, "history": _history_row(h), "probability": float(probs[k])}
        )
    return {
        "query": "probs",
        **_meta(scenario),
        "rows": rows,
        "total": float(probs.sum()),
    }


def result_probability(scenario: Scenario, history: str) -> dict:
    h = scenario.history(history)
    return {
        "query": "probability",
        **_meta(scenario),
        "history": history,
        "outcomes": _history_row(h),
        "probability": history_probability(scenario.family, h),
    }


def result_dfunc(scenario: Scenario) -> dict:
    d = decoherence_functional(scenario.family)
    return {
        "query": "dfunc",
        **_meta(scenario),
        "histories": [_history_row(h) for h in d.histories],
        "matrix": matrix_to_pairs(d.matrix),
        "hermitian": True,
        "trace": float(d.diagonal.sum()),
    }


def result_condition(scenario: Scenario, future: str, given: str) -> dict:
    value = predictive_conditional(
        scenario.family, scenario.history(future), scenario.history(given)
    )
    return {
        "query": "condition",
        **_meta(scenario),
        "future": future,
        "given": given,
        "value": value,
    }


def result_retrodict(
    scenario: Scenario, past: str, present: list, normalized: bool
) -> dict:
    family = scenario.family
    outcome = family.resolution_at(0).outcome(present)
    fn = retrodictive_normalized if normalized else retrodictive_conditional
    value = fn(family, scenario.history(past), outcome)
    return {
        "query": "retrodict",
        **_meta(scenario),
        "past": past,
        "present": outcome.display_labels(),
        "normalized": normalized,
        "value": value,
    }


def _on_dfunc(check):
    return lambda family, **args: check(decoherence_functional(family), **args)


#: Check mode -> (library check of the family, {argument: the check's name
#: for it}) for each argument the mode reads; it refuses the others.
CHECKS = {
    "weak": (_on_dfunc(check_weak_consistency), {"tol": "tol"}),
    "medium": (_on_dfunc(check_medium_decoherence), {"tol": "tol"}),
    "additivity": (check_additivity, {"tol": "tol", "scope": "scope", "seed": "seed"}),
    "robust": (
        check_state_robustness,
        {"tol": "tol", "scope": "scope", "seed": "seed", "states": "count", "inner": "mode"},
    ),
}


def result_check(
    scenario: Scenario,
    mode: str,
    tol: float | None = None,
    scope: str | None = None,
    seed: int | None = None,
    states: int | None = None,
    inner: str | None = None,
) -> dict:
    """Run check ``mode``; an argument left None keeps the check's default."""
    given = dict(mode=mode, tol=tol, seed=seed, states=states, scope=scope, inner=inner)
    args = {key: value for key, value in given.items() if value is not None}
    bad = _bad_args("check", args)
    if bad:
        raise ScenarioValidationError(bad)
    check, names = CHECKS[args.pop("mode")]
    report = check(scenario.family, **{names[k]: v for k, v in args.items()})
    return {
        "query": "check",
        **_meta(scenario),
        "mode": report.mode,
        "passed": report.passed,
        "worst_violation": report.worst_violation,
        "tol": report.tolerance + 0.0,  # -0.0 prints "-0"
        "seed": report.seed,
        "witness": report.witness,
    }


def result_oracle(scenario: Scenario, history: str, trace: bool = False) -> dict:
    family = scenario.family
    h = scenario.history(history)
    prob, mtrace = sequential_probability(family, h)
    out = {
        "query": "oracle",
        **_meta(scenario),
        "history": history,
        "probability": prob,
        "truncated": mtrace.truncated,
    }
    if trace:
        out["rows"] = [
            {
                "slot": s.offset,
                "labels": list(s.labels),
                "step_probability": s.probability,
            }
            for s in mtrace.steps
        ]
    return out


def result_coarse_grain(scenario: Scenario, offset: int, partition: dict) -> dict:
    """The scenario document with one slot's resolution coarsened.

    ``partition`` maps string block names to label-name lists, read (and its
    faults located) by ``normalize_partition``.  Histories touching the
    coarsened slot are rewritten when their outcome is a union of blocks and
    rejected otherwise; queries are carried over unchanged.
    """
    family = scenario.family
    pos = family.position(offset)
    doc = scenario.to_document()
    old_name = doc["slots"][pos]
    res = scenario.resolutions[old_name]
    if not isinstance(partition, Mapping):
        raise ScenarioValidationError([("partition", "expected an object")])
    for block in partition:
        if not isinstance(block, str):
            raise ScenarioValidationError([(f"partition.{block}", "block name must be a string")])
    try:
        blocks = normalize_partition(res, partition)
    except PartitionBlockError as exc:
        raise ScenarioValidationError([(f"partition.{exc.block}", exc.reason)]) from None
    except PartitionNotTotalError as exc:
        raise ScenarioValidationError(
            [("partition", f"labels not covered: {sorted(exc.missing)}")]
        ) from None

    coarse_name = f"{old_name}_coarse"
    while coarse_name in doc["resolutions"]:
        coarse_name += "_"

    old_basis = doc["resolutions"][old_name].get("basis")
    coarse_norm = {"labels": [name for name, _ in blocks]}
    if old_basis is not None:
        coarse_norm["basis"] = [[i for p in sorted(b) for i in old_basis[p]] for _, b in blocks]
    else:
        # each block's projector summed in block order, as coarsen sums it
        coarse_norm["projectors"] = [matrix_to_pairs(_summed(res._stack, b)) for _, b in blocks]

    # the coarsened slot may be the only user of the old resolution
    doc["slots"][pos] = coarse_name
    doc["resolutions"][coarse_name] = coarse_norm
    if old_name not in doc["slots"]:
        del doc["resolutions"][old_name]

    def rewrite(labels: list, where: str) -> list:
        chosen = set(map(res.position, labels))
        touched = [(name, block) for name, block in blocks if chosen & set(block)]
        if chosen != {p for _, block in touched for p in block}:
            raise ScenarioValidationError(
                [(where, "outcome is not a union of partition blocks")]
            )
        return [name for name, _ in touched]

    offset_key = str(offset)
    for hname, hmap in doc["histories"].items():
        if offset_key in hmap:
            hmap[offset_key] = rewrite(
                hmap[offset_key], f"histories.{hname}.{offset_key}"
            )
    if offset == 0:
        # retrodiction queries name present-slot labels directly
        for qname, q in doc["queries"].items():
            if "present" in _QUERIES[q["kind"]][2]:
                q["present"] = rewrite(q["present"], f"queries.{qname}.present")

    parse_scenario(doc)  # the coarse document must itself validate
    return {"query": "coarse-grain", **_meta(scenario), "scenario": doc}


#: Query kind -> (result builder, fixed arguments, keys a query may give, in
#: the order a query keeps them); a query's keys are the builder's keyword
#: arguments, each read by ``_bad_args``.
_QUERIES = {
    "probability": (result_probability, {}, ("history",)),
    "dfunc": (result_dfunc, {}, ()),
    "conditional": (result_condition, {}, ("future", "given")),
    "retrodict": (result_retrodict, {"normalized": False}, ("past", "present")),
    "retrodict-normalized": (result_retrodict, {"normalized": True}, ("past", "present")),
    "check": (result_check, {}, ("mode", "tol", "seed", "states", "scope", "inner")),
    "oracle": (result_oracle, {}, ("history", "trace")),
}


def run_query(scenario: Scenario, name: str, **overrides) -> dict:
    """Execute a named query from the scenario; ``overrides`` replace any of
    the keys its kind allows, and any other key is refused.  The merged
    arguments are checked by the rule the query's own keys were."""
    if name not in scenario.queries:
        raise UnknownQueryError(name)
    args = dict(scenario.queries[name])
    kind = args.pop("kind")
    build, fixed, keys = _QUERIES[kind]
    refused = [(key, f"not a key of a {kind!r} query") for key in overrides if key not in keys]
    args.update(overrides)
    bad = refused or _bad_args(kind, args, scenario.histories, scenario.family)
    if bad:
        raise ScenarioValidationError(bad)
    return build(scenario, **fixed, **args)
