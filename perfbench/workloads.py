"""The three benchmark workloads: inputs from a seed, the op, its gate.

A workload object is built from a seed (that is the input generation) and
then serves ops by index.  ``op(i, tr)`` is the timed unit of work;
``check(result, tr)`` is the correctness gate and runs outside the timed
interval; ``probe(result, tr)`` runs only in traced runs and re-makes a
layer's call outside the op so that the layer's time shows.  Inputs depend
on the seed alone; ``digest()`` hashes them.

Each op builds a ``HistoryFamily`` object that no earlier op has used, so
the cached Heisenberg lift is paid inside the op, as a user pays it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from glob import glob

import numpy as np

import decohist as dh
from decohist import cli, sampling
from decohist import scenario as sc
from decohist.resolutions import SpectralLabel

import layers
from pinning import ROOT
from tracing import NULL

# ---------------------------------------------------------------------------
# Input generation.


def exact_resolution(dim: int, size: int, rng, names=None) -> dh.Resolution:
    """A resolution with exactly ``size`` projectors onto random subspaces."""
    cuts = np.sort(rng.choice(np.arange(1, dim), size=size - 1, replace=False))
    edges = [0, *cuts.tolist(), dim]
    v = sampling.random_unitary(dim, rng)
    entries = []
    for k in range(size):
        cols = v[:, edges[k] : edges[k + 1]]
        label = SpectralLabel(k, None if names is None else names[k])
        entries.append((label, dh.Projector(cols @ cols.conj().T)))
    return dh.Resolution(entries)


def pure_state(dim: int, rng) -> dh.DensityState:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return dh.DensityState(np.outer(psi, psi.conj()))


def random_grid(rng, n_slots: int) -> dh.TimeGrid:
    times = np.cumsum(rng.uniform(0.2, 1.0, size=n_slots))
    return dh.TimeGrid(tuple(times.tolist()), int(rng.integers(0, n_slots)))


def random_dynamics(rng, dim: int, n_slots: int) -> dh.DynamicsSpec:
    if rng.random() < 0.5:
        return dh.DynamicsSpec.from_hamiltonian(sampling.random_hermitian(dim, rng))
    return dh.DynamicsSpec.from_steps(
        [sampling.random_unitary(dim, rng) for _ in range(n_slots - 1)]
    )


@dataclass(frozen=True)
class FamilyInputs:
    """Everything a family is made of; ``fresh()`` builds an unused family."""

    schedule: dh.DynamicsSchedule
    resolutions: tuple
    state: dh.DensityState

    def fresh(self) -> dh.HistoryFamily:
        return dh.HistoryFamily(self.schedule, self.resolutions, self.state)

    def arrays(self):
        s = self.schedule
        yield np.array([*s.grid.times, s.grid.present_index, s.reference_index])
        yield from s.cumulative
        for res in self.resolutions:
            for p in res.projectors:
                yield p.matrix
        yield self.state.matrix


def family_inputs(tr, rng, dim: int, shape, pure: bool) -> FamilyInputs:
    n = len(shape)
    grid = random_grid(rng, n)
    spec = random_dynamics(rng, dim, n)
    schedule = layers.build_schedule(tr, grid, spec, int(rng.integers(0, n)))
    resolutions = tuple(exact_resolution(dim, s, rng) for s in shape)
    state = pure_state(dim, rng) if pure else sampling.random_density(dim, rng)
    return FamilyInputs(schedule, resolutions, state)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _report_failures(name: str, report) -> list[str]:
    if report.passed != (report.worst_violation <= report.tolerance):
        return [f"{name}: passed={report.passed} but worst={report.worst_violation}"]
    return []


# ---------------------------------------------------------------------------
# dfunc_n512: the N x N work at N = 512.


@dataclass
class DfuncResult:
    family: dh.HistoryFamily
    d: dh.DecoherenceFunctional
    weak: dh.ConsistencyReport
    medium: dh.ConsistencyReport
    probs: np.ndarray
    sample: np.ndarray


class DfuncN512:
    """Decoherence functional, weak and medium checks, fine probabilities.

    Sixteen families of exactly 512 fine histories, cycled.  The mix and its
    order are fixed (so is the sequence of allocation sizes, which keeps
    peak memory steady) and the seed draws the matrices, so the median op
    lands in the same mode for every seed: 12 of 16 are dim 16 (the median
    lands among them, the p90 among the four of dim 32), and 4 of 16 (well
    short of half) carry a pure state.
    """

    name = "dfunc_n512"
    warmup_ops = 2
    #: (shape, dim, pure state)
    MIX = [
        ((8, 8, 8), 16, False),
        ((2, 4, 8, 8), 16, False),
        ((8, 8, 8), 16, True),
        ((2, 4, 8, 8), 32, False),
        ((8, 8, 8), 16, False),
        ((2, 4, 8, 8), 16, True),
        ((8, 8, 8), 16, False),
        ((2, 4, 8, 8), 32, True),
        ((8, 8, 8), 16, False),
        ((2, 4, 8, 8), 16, False),
        ((8, 8, 8), 16, False),
        ((8, 8, 8), 32, False),
        ((2, 4, 8, 8), 16, False),
        ((8, 8, 8), 16, False),
        ((2, 4, 8, 8), 16, False),
        ((2, 4, 8, 8), 32, True),
    ]
    ORACLE_SAMPLE = 8

    def __init__(self, seed: int, tr=NULL, workdir: str | None = None):
        rng = np.random.default_rng(seed)
        with tr.span("sampling.generate"):
            self.pool = [family_inputs(tr, rng, dim, shape, pure) for shape, dim, pure in self.MIX]
            self.samples = [
                np.sort(rng.choice(512, size=self.ORACLE_SAMPLE, replace=False)) for _ in self.pool
            ]

    def digest(self) -> str:
        return _digest(a for inp, s in zip(self.pool, self.samples) for a in (*inp.arrays(), s))

    def op(self, i: int, tr=NULL) -> DfuncResult:
        k = i % len(self.pool)
        family = self.pool[k].fresh()
        tr.count("histories.fine_histories", family.n_fine_histories)
        d = layers.decoherence_functional(tr, family)
        weak = layers.check_weak(tr, d)
        medium = layers.check_medium(tr, d)
        probs = layers.fine_probabilities(tr, family)
        return DfuncResult(family, d, weak, medium, probs, self.samples[k])

    def probe(self, res: DfuncResult, tr) -> list[str]:
        layers.dfunc_validate(tr, res.d)
        layers.lift_probe(tr, res.family)
        return []

    @staticmethod
    def check(res: DfuncResult, tr=NULL) -> list[str]:
        m = np.asarray(res.d.matrix)
        fails = []
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > res.d.tol:
            fails.append(f"D not Hermitian: {herm:.3e}")
        tr_dev = abs(complex(np.trace(m)) - 1.0)
        if tr_dev > res.d.tol:
            fails.append(f"D trace off by {tr_dev:.3e}")
        diag = np.diagonal(m)
        gap = float(np.max(np.abs(diag - res.probs)))
        if gap > 1e-12:
            fails.append(f"diag(D) vs fine_probabilities: {gap:.3e}")
        for idx in res.sample:
            p = layers.sequential_probability(tr, res.family, res.d.histories[int(idx)])
            if abs(p - diag[idx].real) > 1e-10:
                fails.append(f"oracle vs diag(D) at {int(idx)}: {p!r} vs {diag[idx].real!r}")
        fails += _report_failures("weak", res.weak) + _report_failures("medium", res.medium)
        return fails


# ---------------------------------------------------------------------------
# audit_n64: per-history and per-partition work on small families.


@dataclass
class AuditResult:
    family: dh.HistoryFamily
    pairs: dh.ConsistencyReport
    partitions: dh.ConsistencyReport
    robust: dh.ConsistencyReport
    probs: np.ndarray
    oracle: np.ndarray
    #: the gate's decoherence functional
    d: dh.DecoherenceFunctional | None = None


def max_one_slot_interference(d: np.ndarray, shape) -> float:
    """max |2 Re D_ij| over fine-history pairs that differ in one slot."""
    idx = np.arange(d.shape[0]).reshape(shape)
    worst = 0.0
    for pos, size in enumerate(shape):
        for a in range(size):
            for b in range(a + 1, size):
                i = idx.take(a, axis=pos).ravel()
                j = idx.take(b, axis=pos).ravel()
                worst = max(worst, float(np.max(np.abs(2.0 * d[i, j].real))))
    return worst


class AuditN64:
    """Pairs and partitions additivity, state robustness, the full oracle.

    Sixteen families of at most 64 fine histories, cycled: thirteen of dim
    4-8 with three slots of at most four outcomes, and three (a minority)
    of dim 10 with one ten-outcome slot, so that the sampled-partition path
    runs.  The three share one shape, so the p90, which lands among them,
    does not depend on which of them costs most.
    """

    name = "audit_n64"
    warmup_ops = 4
    #: (shape, dim)
    MIX = [
        ((4, 4, 4), 8),
        ((4, 4, 4), 6),
        ((2, 4, 4), 4),
        ((3, 4, 4), 5),
        ((4, 3, 4), 7),
        ((4, 4, 3), 8),
        ((4, 4, 2), 6),
        ((3, 3, 4), 4),
        ((4, 2, 4), 5),
        ((4, 4, 4), 4),
        ((3, 4, 3), 8),
        ((4, 3, 3), 6),
        ((2, 4, 4), 7),
        ((2, 10, 3), 10),
        ((2, 10, 3), 10),
        ((2, 10, 3), 10),
    ]

    def __init__(self, seed: int, tr=NULL, workdir: str | None = None):
        rng = np.random.default_rng(seed)
        with tr.span("sampling.generate"):
            self.pool = [family_inputs(tr, rng, dim, shape, False) for shape, dim in self.MIX]

    def digest(self) -> str:
        return _digest(a for inp in self.pool for a in inp.arrays())

    def op(self, i: int, tr=NULL) -> AuditResult:
        family = self.pool[i % len(self.pool)].fresh()
        tr.count("histories.fine_histories", family.n_fine_histories)
        pairs = layers.additivity_pairs(tr, family)
        partitions = layers.additivity_partitions(tr, family)
        robust = layers.check_state_robustness(tr, family)
        probs = layers.fine_probabilities(tr, family)
        oracle = np.array(
            [layers.sequential_probability(tr, family, h) for h in family.fine_histories()]
        )
        return AuditResult(family, pairs, partitions, robust, probs, oracle)

    def probe(self, res: AuditResult, tr) -> list[str]:
        layers.dfunc_validate(tr, res.d)
        layers.lift_probe(tr, res.family)
        return []

    @staticmethod
    def check(res: AuditResult, tr=NULL) -> list[str]:
        fails = []
        gap = float(np.max(np.abs(res.oracle - res.probs)))
        if gap > 1e-10:
            fails.append(f"oracle vs chain probabilities: {gap:.3e}")
        res.d = layers.decoherence_functional(tr, res.family)
        expected = max_one_slot_interference(np.asarray(res.d.matrix), res.family.shape)
        if abs(res.pairs.worst_violation - expected) > 1e-12:
            fails.append(
                f"pairs worst {res.pairs.worst_violation!r} vs max |2 Re D_ij| {expected!r}"
            )
        for name in ("pairs", "partitions", "robust"):
            fails += _report_failures(name, getattr(res, name))
        return fails


# ---------------------------------------------------------------------------
# cli_mix: in-process CLI calls over generated and shipped scenario files.

FORMATS = ("table", "json", "csv")
RENDER = {"table": cli.render_table, "json": cli.render_json, "csv": cli.render_csv}

#: (dim, per-slot resolution sizes) of the generated scenarios; the seed
#: draws everything else.
SCENARIO_SPECS = [
    (2, (2, 2)),
    (3, (3, 2, 3)),
    (4, (4, 2)),
    (4, (2, 3, 2)),
    (5, (3, 3, 2)),
    (6, (2, 3, 2, 2)),
    (8, (4, 3, 2)),
    (8, (2, 2, 3, 2)),
    (6, (3, 2, 3)),
    (3, (2, 2, 2, 3)),
    (7, (3, 4)),
    (5, (2, 2, 2, 2)),
]
ROBUST_STATES = 4
#: conditioning histories in generated scenarios must stay well clear of
#: the engine's zero-probability threshold
MIN_CONDITION_PROBABILITY = 1e-6


def scenario_document(tr, rng, dim: int, sizes) -> dict:
    """A random, valid scenario document with histories and queries."""
    n = len(sizes)
    present = int(rng.integers(1, n - 1)) if n > 2 else int(rng.integers(0, n))
    times = np.round(np.cumsum(rng.uniform(0.2, 1.0, size=n)), 6).tolist()
    grid = dh.TimeGrid(tuple(times), present)
    spec = random_dynamics(rng, dim, n)
    reference = int(rng.integers(0, n))
    resolutions, docs_res, labels = [], {}, []
    for k, size in enumerate(sizes):
        names = [f"s{k}o{j}" for j in range(size)]
        if rng.random() < 0.3:
            cuts = np.sort(rng.choice(np.arange(1, dim), size=size - 1, replace=False))
            edges = [0, *cuts.tolist(), dim]
            basis = [list(range(edges[j], edges[j + 1])) for j in range(size)]
            res = dh.from_basis(dim, basis, names=names)
            docs_res[f"r{k}"] = {"labels": names, "basis": basis}
        else:
            res = exact_resolution(dim, size, rng, names)
            docs_res[f"r{k}"] = {
                "labels": names,
                "projectors": [dh.matrix_to_pairs(p.matrix) for p in res.projectors],
            }
        resolutions.append(res)
        labels.append(names)
    state = sampling.random_density(dim, rng)
    offsets = [k - present for k in range(n)]

    def pick(keep) -> dict:
        return {
            str(off): [labels[k][int(rng.integers(len(labels[k])))]]
            for k, off in enumerate(offsets)
            if keep(off)
        }

    fine = pick(lambda off: True)
    coarse_slot = int(rng.integers(n))
    coarse = dict(fine)
    coarse[str(offsets[coarse_slot])] = labels[coarse_slot][:2]
    histories = {"fine": fine, "coarse": coarse}
    queries = {
        "p_fine": {"kind": "probability", "history": "fine"},
        "p_coarse": {"kind": "probability", "history": "coarse"},
        "d": {"kind": "dfunc"},
        "weak": {"kind": "check", "mode": "weak"},
        "medium": {"kind": "check", "mode": "medium"},
        "additivity": {"kind": "check", "mode": "additivity", "scope": "partitions"},
        "robust": {"kind": "check", "mode": "robust", "states": ROBUST_STATES, "seed": 11},
        "oracle_fine": {"kind": "oracle", "history": "fine", "trace": True},
    }
    if present >= 1:
        histories["past"] = pick(lambda off: off < 0)
        present_label = labels[present][int(rng.integers(len(labels[present])))]
        queries["retro"] = {"kind": "retrodict", "past": "past", "present": [present_label]}
        queries["retro_norm"] = {
            "kind": "retrodict-normalized",
            "past": "past",
            "present": [present_label],
        }
    if present <= n - 2:
        histories["given"] = pick(lambda off: off <= 0)
        histories["future"] = pick(lambda off: off > 0)
        queries["cond"] = {"kind": "conditional", "future": "future", "given": "given"}

    # conditioning on a (near-)zero probability is a usage error, not a
    # workload; with a state drawn from a continuous density it is
    # vanishingly rare, and generation refuses it rather than emit an op
    # that must fail
    schedule = layers.build_schedule(tr, grid, spec, reference)
    family = dh.HistoryFamily(schedule, tuple(resolutions), state)
    conditions = [histories.get("given")]
    if present >= 1:
        conditions.append({"0": queries["retro"]["present"]})
    for cond in filter(None, conditions):
        h = family.history({int(k): v for k, v in cond.items()})
        if dh.history_probability(family, h) < MIN_CONDITION_PROBABILITY:
            raise RuntimeError("generated condition with negligible probability")

    dynamics = (
        {"hamiltonian": dh.matrix_to_pairs(spec.hamiltonian)}
        if spec.hamiltonian is not None
        else {"steps": [dh.matrix_to_pairs(u) for u in spec.step_unitaries]}
    )
    return {
        "schema_version": 1,
        "dimension": dim,
        "times": times,
        "present_index": present,
        "reference_index": reference,
        "dynamics": dynamics,
        "state": dh.matrix_to_pairs(state.matrix),
        "resolutions": docs_res,
        "slots": [f"r{k}" for k in range(n)],
        "histories": histories,
        "queries": queries,
    }


def merge_partition(scenario: sc.Scenario):
    """A slot offset and a partition that coarse-grain can apply.

    Labels merge only when every named history (and, at the present, every
    retrodiction query) selects both or neither, so rewritten outcomes stay
    unions of blocks.  Picks the slot that merges the most labels.
    """
    family = scenario.family
    best = None
    for off in family.offsets():
        res = family.resolution_at(off)
        sets = [set(h.outcome_at(off).display_labels()) for h in scenario.histories.values()]
        if off == 0:
            sets += [
                set(q["present"])
                for q in scenario.queries.values()
                if q["kind"] in ("retrodict", "retrodict-normalized")
            ]
        blocks: dict[tuple, list[str]] = {}
        for lab in res.labels:
            key = tuple(lab.display in s for s in sets)
            blocks.setdefault(key, []).append(lab.display)
        merged = res.size - len(blocks)
        if best is None or merged > best[0]:
            partition = {f"b{j}": members for j, members in enumerate(blocks.values())}
            best = (merged, off, partition)
    return best[1], best[2]


@dataclass(frozen=True)
class CliOp:
    verb: str
    path: str
    fmt: str
    #: verb arguments, in argv order; also handed to the result function
    args: tuple = ()

    @property
    def argv(self) -> list[str]:
        return [self.verb, *self.args, "--scenario", self.path, "--output", self.fmt]


def _opt(args: tuple, flag: str, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def scenario_ops(path: str, scenario: sc.Scenario, generated: bool) -> list[tuple]:
    """(verb, args) for every op one scenario takes part in."""
    ops = [("validate", ()), ("probs", ()), ("dfunc", ())]
    for name in sorted(scenario.histories):
        if generated and name not in ("fine", "coarse"):
            continue
        ops.append(("probability", ("--history", name)))
        ops.append(("oracle", ("trace" if name == "coarse" else "prob", "--history", name)))
    if generated:
        if "future" in scenario.histories:
            ops.append(("condition", ("--future", "future", "--given", "given")))
        if "past" in scenario.histories:
            present = ",".join(scenario.queries["retro"]["present"])
            ops.append(("retrodict", ("--past", "past", "--present", present)))
            ops.append(("retrodict", ("--past", "past", "--present", present, "--normalized")))
    off, partition = merge_partition(scenario)
    ops.append(("coarse-grain", ("--slot", str(off), "--partition", json.dumps(partition))))
    # no "--scope pairs" op: at the seed commit the CLI renders that report's
    # numpy bool as "False" and --output json raises TypeError (see
    # test_harness.py); audit_n64 times the pairs scope through the library
    ops += [
        ("check", ("--mode", "weak")),
        ("check", ("--mode", "medium")),
        ("check", ("--mode", "additivity", "--scope", "partitions")),
        ("check", ("--mode", "robust", "--states", str(ROBUST_STATES))),
    ]
    ops += [("query", (name,)) for name in sorted(scenario.queries)]
    return ops


def build(scenario: sc.Scenario, op: CliOp) -> dict:
    """The ``scenario.result_*`` function ``cli.main`` would call for ``op``."""
    a = op.args
    verb = op.verb
    if verb == "validate":
        return sc.result_validate(scenario)
    if verb == "probs":
        return sc.result_probs(scenario)
    if verb == "dfunc":
        return sc.result_dfunc(scenario)
    if verb == "probability":
        return sc.result_probability(scenario, _opt(a, "--history"))
    if verb == "condition":
        return sc.result_condition(scenario, _opt(a, "--future"), _opt(a, "--given"))
    if verb == "retrodict":
        present = _opt(a, "--present").split(",")
        return sc.result_retrodict(scenario, _opt(a, "--past"), present, "--normalized" in a)
    if verb == "coarse-grain":
        partition = json.loads(_opt(a, "--partition"))
        return sc.result_coarse_grain(scenario, int(_opt(a, "--slot")), partition)
    if verb == "check":
        states = _opt(a, "--states")
        return sc.result_check(
            scenario,
            _opt(a, "--mode"),
            scope=_opt(a, "--scope"),
            states=None if states is None else int(states),
        )
    if verb == "oracle":
        return sc.result_oracle(scenario, _opt(a, "--history"), trace=a[0] == "trace")
    raise ValueError(f"no result function for verb {verb!r}")


def rendered_check_failed(text: str, fmt: str) -> bool:
    """Does the rendered document say it is a check that did not pass?"""
    if fmt == "json":
        doc = json.loads(text)
        return doc.get("query") == "check" and doc.get("passed") is False
    sep = ": " if fmt == "table" else "="
    prefix = "" if fmt == "table" else "# "
    lines = set(text.splitlines())
    return f"{prefix}query{sep}check" in lines and f"{prefix}passed{sep}false" in lines


@dataclass
class CliResult:
    op: CliOp
    key: int
    code: int
    out: str
    err: str
    scenario: sc.Scenario | None = None
    doc: dict | None = None
    #: coarse-grain with JSON output: the document re-parsed from its file
    coarse_text: str | None = None
    reparsed: sc.Scenario | None = None


class CliMix:
    """One in-process ``decohist.cli.main(argv)`` call per op.

    Twelve generated scenario files (dim 2-8, 2-4 slots, named histories and
    queries) and the four shipped ``scenarios/*.json``; the ops rotate
    through all nine verbs and all three output formats.  A traced op makes
    the same call in its public parts: argument parsing, ``parse_scenario``, the
    ``scenario.result_*`` function (or ``run_query``), then ``cli.render_*``.
    """

    name = "cli_mix"
    warmup_ops = 9

    def __init__(self, seed: int, tr=NULL, workdir: str | None = None):
        if workdir is None:
            raise ValueError("cli_mix needs a work directory")
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        with tr.span("sampling.generate"):
            docs = [scenario_document(tr, rng, dim, sizes) for dim, sizes in SCENARIO_SPECS]
        self.texts = []
        paths = []
        for k, doc in enumerate(docs):
            path = os.path.join(workdir, f"generated_{k:02d}.json")
            text = json.dumps(doc, indent=1) + "\n"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append((path, True))
            self.texts.append(text)
        for path in sorted(glob(os.path.join(ROOT, "scenarios", "*.json"))):
            paths.append((path, False))
        by_verb: dict[str, list] = {}
        for path, generated in paths:
            with open(path, encoding="utf-8") as fh:
                scenario = sc.parse_scenario(fh.read())
            for verb, args in scenario_ops(path, scenario, generated):
                by_verb.setdefault(verb, []).append((path, args))
        # round-robin over verbs; each verb cycles through the formats
        queues = [
            [(verb, j, path, args) for j, (path, args) in enumerate(q)]
            for verb, q in by_verb.items()
        ]
        self.ops: list[CliOp] = []
        while any(queues):
            for q in queues:
                if q:
                    verb, j, path, args = q.pop(0)
                    self.ops.append(CliOp(verb, path, FORMATS[j % 3], args))
        self.first_output: dict[int, tuple[int, str]] = {}

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode())
        for op in self.ops:
            # the work directory's name is not an input
            argv = [os.path.basename(a) if a == op.path else a for a in op.argv]
            h.update(json.dumps(argv).encode())
        return h.hexdigest()

    def op(self, i: int, tr=NULL) -> CliResult:
        key = i % len(self.ops)
        op = self.ops[key]
        if not tr.enabled:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
            res = CliResult(op, key, code, out.getvalue(), err.getvalue())
        else:
            with tr.span("cli.parse_args"):
                cli.build_parser().parse_args(op.argv)
            with open(op.path, encoding="utf-8") as fh:
                text = fh.read()
            with tr.span("scenario.parse_scenario"):
                scenario = sc.parse_scenario(text)
            tr.count("scenario.parse_bytes", len(text.encode()))
            tr.count("histories.fine_histories", scenario.family.n_fine_histories)
            if op.verb == "query":
                with tr.span("scenario.run_query"):
                    doc = sc.run_query(scenario, op.args[0])
            else:
                with tr.span("scenario.result"):
                    doc = build(scenario, op)
            with tr.span("cli.render"):
                out = RENDER[op.fmt](doc)
            tr.count("cli.output_bytes", len(out.encode()))
            code = 1 if doc.get("query") == "check" and not doc.get("passed", True) else 0
            res = CliResult(op, key, code, out, "", scenario, doc)
        if op.verb == "coarse-grain" and op.fmt == "json" and res.code == 0:
            with tr.span("scenario.parse_scenario"):
                coarse = sc.parse_scenario(json.loads(res.out)["scenario"])
            with tr.span("scenario.serialize_scenario"):
                res.coarse_text = sc.serialize_scenario(coarse)
            path = os.path.join(self.workdir, "coarse.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(res.coarse_text)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with tr.span("scenario.parse_scenario"):
                res.reparsed = sc.parse_scenario(text)
            tr.count("scenario.parse_bytes", len(text.encode()))
        return res

    def probe(self, res: CliResult, tr) -> list[str]:
        """Re-make the result function's main engine call; it must agree exactly."""
        scenario, doc, a = res.scenario, res.doc, res.op.args
        family = scenario.family
        verb = res.op.verb
        if verb not in ("validate", "coarse-grain", "query"):
            layers.lift_probe(tr, family)
        if verb == "probability":
            history = scenario.history(_opt(a, "--history"))
            got = layers.conditional(tr, family, dh.history_probability, history)
            want = doc["probability"]
        elif verb == "condition":
            got = layers.conditional(
                tr, family, dh.predictive_conditional,
                scenario.history(_opt(a, "--future")), scenario.history(_opt(a, "--given")),
            )
            want = doc["value"]
        elif verb == "retrodict":
            fn = dh.retrodictive_normalized if "--normalized" in a else dh.retrodictive_conditional
            present = family.resolution_at(0).outcome(_opt(a, "--present").split(","))
            got = layers.conditional(tr, family, fn, scenario.history(_opt(a, "--past")), present)
            want = doc["value"]
        elif verb == "oracle":
            got = layers.sequential_probability(tr, family, scenario.history(_opt(a, "--history")))
            want = doc["probability"]
        elif verb == "probs":
            got = layers.fine_probabilities(tr, family).tolist()
            want = [row["probability"] for row in doc["rows"]]
        elif verb == "dfunc" or (verb == "check" and _opt(a, "--mode") in ("weak", "medium")):
            d = layers.decoherence_functional(tr, family)
            layers.dfunc_validate(tr, d)
            if verb == "dfunc":
                got, want = dh.matrix_to_pairs(d.matrix), doc["matrix"]
            else:
                check = layers.check_weak if _opt(a, "--mode") == "weak" else layers.check_medium
                got, want = check(tr, d).worst_violation, doc["worst_violation"]
        elif verb == "check" and _opt(a, "--mode") == "additivity":
            got = layers.additivity_partitions(tr, family).worst_violation
            want = doc["worst_violation"]
        elif verb == "check":
            got = layers.check_state_robustness(tr, family, count=ROBUST_STATES).worst_violation
            want = doc["worst_violation"]
        else:
            return []
        return [] if got == want else [f"{res.op.argv}: probe {got!r} != result {want!r}"]

    def check(self, res: CliResult, tr=NULL) -> list[str]:
        op = res.op
        fails = []
        if res.code not in (0, 1):
            return [f"{op.argv}: exit {res.code}: {res.err.strip()}"]
        if op.fmt == "json":
            try:
                json.loads(res.out)
            except json.JSONDecodeError as exc:
                fails.append(f"{op.argv}: JSON output does not parse: {exc}")
        if fails:
            return fails
        if (res.code == 1) != rendered_check_failed(res.out, op.fmt):
            fails.append(f"{op.argv}: exit {res.code} disagrees with the rendered check")
        first = self.first_output.setdefault(res.key, (res.code, res.out))
        if first != (res.code, res.out):
            fails.append(f"{op.argv}: output differs from an earlier run of the same op")
        if res.reparsed is not None:
            if sc.serialize_scenario(res.reparsed) != res.coarse_text:
                fails.append(f"{op.argv}: coarse document does not round-trip")
            partition = json.loads(_opt(op.args, "--partition"))
            res_coarse = res.reparsed.family.resolution_at(int(_opt(op.args, "--slot")))
            if [lab.display for lab in res_coarse.labels] != list(partition):
                fails.append(f"{op.argv}: coarse slot labels differ from the partition")
        return fails


WORKLOADS = {w.name: w for w in (DfuncN512, AuditN64, CliMix)}
