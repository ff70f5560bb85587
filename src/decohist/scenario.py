"""Scenario files: parsing, validation, serialization, and query execution.

A scenario is a JSON object (``schema_version: 1``) declaring the dimension,
time grid, dynamics, initial state, per-slot resolutions, and optional named
histories and queries.  Matrices are nested arrays of [re, im] pairs,
row-major.  Parsing is strict: unknown keys are errors, and every failure is
reported with a path into the document.

History maps use string keys that are either slot offsets ("-1", "0", "1")
or grid time values ("2.5"); integer-looking keys are read as offsets.
Slots missing from a map carry the trivial full outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .consistency import (
    DEFAULT_CHECK_TOL,
    DEFAULT_ROBUSTNESS_COUNT,
    DEFAULT_ROBUSTNESS_SEED,
    check_additivity,
    check_medium_decoherence,
    check_state_robustness,
    check_weak_consistency,
)
from .dynamics import DynamicsSpec, TimeGrid, build_schedule
from .errors import (
    DecohistError,
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
from .linalg import DensityState, matrix_from_pairs, matrix_to_pairs
from .lueders import sequential_probability
from .resolutions import Resolution, from_basis, make_resolution

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "dimension",
    "times",
    "present_index",
    "reference_index",
    "dynamics",
    "state",
    "resolutions",
    "slots",
    "histories",
    "queries",
}

_CHECK_MODES = {"weak", "medium", "additivity", "robust"}


def _bad_check_args(tol, seed, states) -> list[tuple[str, str]]:
    """A check's numeric arguments that break the one rule for them:
    ``tol`` finite and >= 0, ``seed`` >= 0, ``states`` >= 1 (None is the
    default and always fine)."""
    bad = []
    if tol is not None and not 0 <= tol < math.inf:
        bad.append(("tol", f"must be finite and >= 0, got {tol!r}"))
    if seed is not None and seed < 0:
        bad.append(("seed", f"must be >= 0, got {seed!r}"))
    if states is not None and states < 1:
        bad.append(("states", f"must be >= 1, got {states!r}"))
    return bad


@dataclass(frozen=True, eq=False)
class Scenario:
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
        return _with_pairs(self.inputs)

    def to_document(self) -> dict:
        return json.loads(json.dumps(self.document))

    def history(self, name: str) -> History:
        if name not in self.histories:
            raise UnresolvedReferenceError(name, "history")
        return self.histories[name]


def _with_pairs(value):
    """A copy of ``value`` with every array in it as ``matrix_to_pairs``."""
    if isinstance(value, np.ndarray):
        return matrix_to_pairs(value)
    if isinstance(value, dict):
        return {k: _with_pairs(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_pairs(v) for v in value]
    return value


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append((path, message))

    def check_keys(self, obj: Mapping, allowed: set, path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.add(f"{path}.{key}" if path else key, "unknown key")

    def raise_if_any(self) -> None:
        if self.errors:
            raise ScenarioValidationError(self.errors)


def _want(obj: Mapping, key: str, path: str, col: _Collector, typ=None, required=True):
    if key not in obj:
        if required:
            col.add(f"{path}.{key}" if path else key, "missing required key")
        return None
    val = obj[key]
    # booleans satisfy isinstance(., int) but are never a valid field here
    if typ is not None and (not isinstance(val, typ) or isinstance(val, bool)):
        col.add(
            f"{path}.{key}" if path else key,
            f"expected {getattr(typ, '__name__', typ)}, got {type(val).__name__}",
        )
        return None
    return val


def _parse_matrix(data, dim: int | None, path: str, col: _Collector):
    try:
        m = matrix_from_pairs(data)
    except (DecohistError, ValueError, TypeError) as exc:
        col.add(path, str(exc))
        return None
    if dim is not None and m.shape != (dim, dim):
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
    has_proj = "projectors" in spec
    if has_basis == has_proj:
        col.add(path, "give exactly one of 'basis' or 'projectors'")
        return None, None

    if has_basis:
        blocks = spec["basis"]
        if not isinstance(blocks, list) or not all(
            isinstance(b, list)
            and all(isinstance(i, int) and not isinstance(i, bool) for i in b)
            for b in blocks
        ):
            col.add(f"{path}.basis", "expected a list of integer lists")
            return None, None
        n = len(blocks)
    else:
        if not isinstance(spec["projectors"], list) or not spec["projectors"]:
            col.add(f"{path}.projectors", "expected a non-empty list of matrices")
            return None, None
        n = len(spec["projectors"])

    labels = spec.get("labels", [str(k) for k in range(n)])
    if (
        not isinstance(labels, list)
        or len(labels) != n
        or not all(isinstance(l, str) for l in labels)
    ):
        col.add(f"{path}.labels", f"expected a list of {n} strings")
        return None, None

    try:
        if has_basis:
            res = from_basis(dim, blocks, names=labels)
            norm = {"labels": labels, "basis": [[int(i) for i in b] for b in blocks]}
        else:
            mats = []
            for k, m in enumerate(spec["projectors"]):
                mat = _parse_matrix(m, dim, f"{path}.projectors[{k}]", col)
                if mat is None:
                    return None, None
                mats.append(mat)
            res = make_resolution(list(zip(labels, mats)))
            norm = {"labels": labels, "projectors": mats}
    except DecohistError as exc:
        col.add(path, str(exc))
        return None, None
    return res, norm


def _parse_history_map(
    spec, family: HistoryFamily, path: str, col: _Collector
) -> tuple[History | None, dict | None]:
    if not isinstance(spec, dict):
        col.add(path, "expected an object mapping slots to label lists")
        return None, None
    errors_before = len(col.errors)
    offsets = {}
    grid = family.schedule.grid
    for key, labels in spec.items():
        kpath = f"{path}.{key}"
        off = None
        try:
            off = int(key)
        except ValueError:
            try:
                t = float(key)
            except ValueError:
                col.add(kpath, "slot key must be an offset or a time value")
                continue
            matches = [k for k, tv in enumerate(grid.times) if tv == t]
            if not matches:
                col.add(kpath, f"time {t} is not on the grid")
                continue
            off = grid.offset_of(matches[0])
        if off not in set(family.offsets()):
            col.add(kpath, f"slot offset {off} out of range")
            continue
        if (
            not isinstance(labels, list)
            or not labels
            or not all(isinstance(l, str) for l in labels)
        ):
            col.add(kpath, "expected a non-empty list of label names")
            continue
        offsets[off] = labels
    if len(col.errors) > errors_before:
        return None, None
    try:
        history = family.history(offsets)
    except DecohistError as exc:
        col.add(path, str(exc))
        return None, None
    norm = {
        str(off): history.outcome_at(off).display_labels()
        for off in sorted(offsets)
    }
    return history, norm


def _parse_query(
    name: str, spec, histories: dict, family: HistoryFamily | None, col: _Collector
) -> dict | None:
    path = f"queries.{name}"
    if not isinstance(spec, dict):
        col.add(path, "expected an object")
        return None
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _QUERIES:
        col.add(f"{path}.kind", f"unknown query kind {kind!r}")
        return None
    col.check_keys(spec, {"kind", *_QUERIES[kind][2]}, path)

    out = {"kind": kind}
    for key in ("history", "future", "given", "past"):  # history references
        if key not in _QUERIES[kind][2]:
            continue
        hname = spec.get(key)
        if not isinstance(hname, str) or hname not in histories:
            col.add(f"{path}.{key}", f"unresolved history reference {hname!r}")
            return None
        out[key] = hname
    if kind == "oracle" and "trace" in spec:
        if not isinstance(spec["trace"], bool):
            col.add(f"{path}.trace", "expected a boolean")
            return None
        out["trace"] = spec["trace"]
    elif kind in ("retrodict", "retrodict-normalized"):
        present = spec.get("present")
        if (
            not isinstance(present, list)
            or not present
            or not all(isinstance(l, str) for l in present)
        ):
            col.add(f"{path}.present", "expected a non-empty list of label names")
            return None
        if family is not None:
            try:
                family.resolution_at(0).outcome(present)
            except DecohistError as exc:
                col.add(f"{path}.present", str(exc))
                return None
        out["present"] = present
    elif kind == "check":
        mode = spec.get("mode")
        if mode not in _CHECK_MODES:
            col.add(f"{path}.mode", f"unknown check mode {mode!r}")
            return None
        out["mode"] = mode
        for key, typ in (("tol", (int, float)), ("seed", int), ("states", int)):
            if key in spec:
                if not isinstance(spec[key], typ) or isinstance(spec[key], bool):
                    col.add(f"{path}.{key}", f"expected a number")
                    return None
                out[key] = spec[key]
        bad = _bad_check_args(out.get("tol"), out.get("seed"), out.get("states"))
        for key, message in bad:
            col.add(f"{path}.{key}", message)
        if bad:
            return None
        if "scope" in spec:
            if spec["scope"] not in ("pairs", "partitions"):
                col.add(f"{path}.scope", "expected 'pairs' or 'partitions'")
                return None
            out["scope"] = spec["scope"]
        if "inner" in spec:
            if spec["inner"] not in ("weak", "medium", "additivity"):
                col.add(f"{path}.inner", "expected 'weak', 'medium' or 'additivity'")
                return None
            out["inner"] = spec["inner"]
    return out


def parse_scenario(source) -> Scenario:
    """Parse and fully validate a scenario from JSON text (or a dict).

    Raises ScenarioSyntaxError for malformed JSON and
    ScenarioValidationError carrying every located failure otherwise.
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
    col.check_keys(doc, _TOP_KEYS, "")

    version = _want(doc, "schema_version", "", col, int)
    if version is not None and version != SCHEMA_VERSION:
        col.add("schema_version", f"unsupported version {version}")

    dim = _want(doc, "dimension", "", col, int)
    if dim is not None and dim < 1:
        col.add("dimension", "must be a positive integer")
        dim = None

    times = _want(doc, "times", "", col, list)
    present_index = _want(doc, "present_index", "", col, int)
    reference_index = doc.get("reference_index", 0)
    if not isinstance(reference_index, int) or isinstance(reference_index, bool):
        col.add("reference_index", "expected an integer")
        reference_index = 0

    grid = None
    if times is not None and present_index is not None:
        if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times):
            col.add("times", "expected a list of numbers")
        else:
            try:
                grid = TimeGrid(tuple(float(t) for t in times), present_index)
            except (DecohistError, ValueError) as exc:
                col.add("times", str(exc))
    if grid is not None and not 0 <= reference_index < grid.n_slots:
        col.add("reference_index", f"slot {reference_index} out of range")
        grid = None

    dynamics = _want(doc, "dynamics", "", col, dict)
    spec = None
    if dynamics is not None and dim is not None and grid is not None:
        col.check_keys(dynamics, {"hamiltonian", "steps"}, "dynamics")
        has_h = "hamiltonian" in dynamics
        has_s = "steps" in dynamics
        if has_h == has_s:
            col.add("dynamics", "give exactly one of 'hamiltonian' or 'steps'")
        elif has_h:
            h = _parse_matrix(dynamics["hamiltonian"], dim, "dynamics.hamiltonian", col)
            if h is not None:
                try:
                    spec = DynamicsSpec.from_hamiltonian(h)
                except DecohistError as exc:
                    col.add("dynamics.hamiltonian", str(exc))
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
                    try:
                        spec = DynamicsSpec.from_steps(mats)
                    except DecohistError as exc:
                        col.add("dynamics.steps", str(exc))

    state = None
    state_data = _want(doc, "state", "", col)
    if state_data is not None and dim is not None:
        m = _parse_matrix(state_data, dim, "state", col)
        if m is not None:
            try:
                state = DensityState(m)
            except DecohistError as exc:
                col.add("state", str(exc))

    res_specs = _want(doc, "resolutions", "", col, dict)
    resolutions: dict[str, Resolution] = {}
    res_norm: dict[str, dict] = {}
    if res_specs is not None and dim is not None:
        for name, rspec in res_specs.items():
            res, norm = _parse_resolution(name, rspec, dim, col)
            if res is not None:
                resolutions[name] = res
                res_norm[name] = norm

    slot_names = _want(doc, "slots", "", col, list)
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
            ok = True
            for k, name in enumerate(slot_names):
                if not isinstance(name, str) or name not in resolutions:
                    col.add(f"slots[{k}]", f"unresolved resolution reference {name!r}")
                    ok = False
            if ok:
                try:
                    schedule = build_schedule(grid, spec, reference_index, dim=dim)
                    family = HistoryFamily(
                        schedule,
                        tuple(resolutions[name] for name in slot_names),
                        state,
                    )
                except DecohistError as exc:
                    col.add("slots", str(exc))

    histories: dict[str, History] = {}
    hist_norm: dict[str, dict] = {}
    hist_specs = doc.get("histories", {})
    if not isinstance(hist_specs, dict):
        col.add("histories", "expected an object")
        hist_specs = {}
    if family is not None:
        for name, hspec in hist_specs.items():
            h, norm = _parse_history_map(hspec, family, f"histories.{name}", col)
            if h is not None:
                histories[name] = h
                hist_norm[name] = norm

    queries: dict[str, dict] = {}
    query_specs = doc.get("queries", {})
    if not isinstance(query_specs, dict):
        col.add("queries", "expected an object")
        query_specs = {}
    for name, qspec in query_specs.items():
        q = _parse_query(name, qspec, histories, family, col)
        if q is not None:
            queries[name] = q

    col.raise_if_any()
    if family is None:  # every path that leaves it unset records an error
        raise ScenarioValidationError([("slots", "no history family was built")])

    inputs = {
        "schema_version": SCHEMA_VERSION,
        "dimension": dim,
        "times": [float(t) for t in grid.times],
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
    return json.dumps(scenario.to_document(), indent=2) + "\n"


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


def result_check(
    scenario: Scenario,
    mode: str,
    tol: float | None = None,
    scope: str | None = None,
    seed: int | None = None,
    states: int | None = None,
    inner: str | None = None,
) -> dict:
    bad = _bad_check_args(tol, seed, states)
    if bad:
        raise ScenarioValidationError(bad)
    family = scenario.family
    tol = DEFAULT_CHECK_TOL if tol is None else float(tol)
    if mode == "weak":
        report = check_weak_consistency(decoherence_functional(family), tol)
    elif mode == "medium":
        report = check_medium_decoherence(decoherence_functional(family), tol)
    elif mode == "additivity":
        report = check_additivity(
            family, tol, scope=scope or "partitions", seed=seed
        )
    elif mode == "robust":
        report = check_state_robustness(
            family,
            count=DEFAULT_ROBUSTNESS_COUNT if states is None else states,
            seed=DEFAULT_ROBUSTNESS_SEED if seed is None else seed,
            mode=inner or "weak",
            tol=tol,
            scope=scope or "partitions",
        )
    else:
        raise UnknownQueryError(f"check mode {mode}")
    return {
        "query": "check",
        **_meta(scenario),
        "mode": report.mode,
        "passed": report.passed,
        "worst_violation": report.worst_violation,
        "tol": report.tolerance,
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

    ``partition`` maps block names to label-name lists.  Histories touching
    the coarsened slot are rewritten when their outcome is a union of blocks
    and rejected otherwise; queries are carried over unchanged.
    """
    family = scenario.family
    pos = family.position(offset)
    doc = scenario.to_document()
    old_name = doc["slots"][pos]
    res = scenario.resolutions[old_name]

    # validate the partition and work out the label -> block map
    block_names = list(partition)
    label_to_block: dict[str, str] = {}
    for bname, members in partition.items():
        if not isinstance(members, list) or not members:
            raise ScenarioValidationError(
                [(f"partition.{bname}", "expected a non-empty label list")]
            )
        for label in members:
            display = res.labels[res.position(label)].display
            if display in label_to_block:
                raise ScenarioValidationError(
                    [(f"partition.{bname}", f"label {label!r} assigned twice")]
                )
            label_to_block[display] = bname
    missing = {l.display for l in res.labels} - set(label_to_block)
    if missing:
        raise ScenarioValidationError(
            [("partition", f"labels not covered: {sorted(missing)}")]
        )

    coarse_name = f"{old_name}_coarse"
    while coarse_name in doc["resolutions"]:
        coarse_name += "_"

    old_norm = doc["resolutions"][old_name]
    if "basis" in old_norm:
        blocks = {b: [] for b in block_names}
        for label, basis_block in zip(old_norm["labels"], old_norm["basis"]):
            blocks[label_to_block[label]].extend(basis_block)
        coarse_norm = {"labels": block_names, "basis": [blocks[b] for b in block_names]}
    else:
        mats = {b: None for b in block_names}
        for label, pairs in zip(old_norm["labels"], old_norm["projectors"]):
            m = matrix_from_pairs(pairs)
            b = label_to_block[label]
            mats[b] = m if mats[b] is None else mats[b] + m
        coarse_norm = {
            "labels": block_names,
            "projectors": [matrix_to_pairs(mats[b]) for b in block_names],
        }

    # the coarsened slot may be the only user of the old resolution
    doc["slots"][pos] = coarse_name
    doc["resolutions"][coarse_name] = coarse_norm
    if old_name not in doc["slots"]:
        del doc["resolutions"][old_name]

    def rewrite(labels: list, where: str) -> list:
        touched = {label_to_block[l] for l in labels}
        expanded = {l for l in label_to_block if label_to_block[l] in touched}
        if set(labels) != expanded:
            raise ScenarioValidationError(
                [(where, "outcome is not a union of partition blocks")]
            )
        return [b for b in block_names if b in touched]

    offset_key = str(offset)
    for hname, hmap in doc["histories"].items():
        if offset_key in hmap:
            hmap[offset_key] = rewrite(
                hmap[offset_key], f"histories.{hname}.{offset_key}"
            )
    if offset == 0:
        # retrodiction queries name present-slot labels directly
        for qname, q in doc["queries"].items():
            if q.get("kind") in ("retrodict", "retrodict-normalized"):
                q["present"] = rewrite(q["present"], f"queries.{qname}.present")

    parse_scenario(doc)  # the coarse document must itself validate
    return {"query": "coarse-grain", **_meta(scenario), "scenario": doc}


#: Query kind -> (result builder, fixed arguments, keys a query may give);
#: a query's keys are the builder's keyword arguments.
_QUERIES = {
    "probability": (result_probability, {}, {"history"}),
    "dfunc": (result_dfunc, {}, set()),
    "conditional": (result_condition, {}, {"future", "given"}),
    "retrodict": (result_retrodict, {"normalized": False}, {"past", "present"}),
    "retrodict-normalized": (result_retrodict, {"normalized": True}, {"past", "present"}),
    "check": (result_check, {}, {"mode", "tol", "scope", "seed", "states", "inner"}),
    "oracle": (result_oracle, {}, {"history", "trace"}),
}


def run_query(scenario: Scenario, name: str, **overrides) -> dict:
    """Execute a named query from the scenario; ``overrides`` replace any of
    the keys its kind allows."""
    if name not in scenario.queries:
        raise UnknownQueryError(name)
    args = {**scenario.queries[name], **overrides}
    build, fixed, _ = _QUERIES[args.pop("kind")]
    return build(scenario, **fixed, **args)
