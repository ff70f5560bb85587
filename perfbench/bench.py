"""Benchmark harness: set-up, the closed loop, metrics, provenance, output.

One process, one caller thread.  The loop sends the next op only after the
previous one has returned and its gate has run; the gate sits outside the
op's timed interval.  ``--trace 0`` measures the end-to-end metrics with
tracing off.  ``--trace 1`` runs untraced for part of its time, then runs the
same ops again traced, and reports the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

from pinning import BLAS_THREADS, ROOT, SRC, mmap_threshold
from tracing import NULL, Tracer
from workloads import WORKLOADS

#: Default workload seed, and the hold-out seed kept for confirming a claim
#: on inputs that were not used while the change was written.
DEFAULT_SEED = 1
HOLDOUT_SEED = 20261017

#: Ops a ``--trace 0`` run completes at least, so that p90 has at least ten
#: samples beyond it, unless the measurement passes HARD_LIMIT_S first (a
#: run must end within 180 s).
MIN_OPS = 100
HARD_LIMIT_S = 120.0
SETUP_REPEATS = 9
#: share of a ``--trace 1`` run's seconds given to its untraced phase
UNTRACED_SHARE = 0.3

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Spans around op-time calls, reported as ``<name>.s`` (self seconds per
#: traced op) and, where true, ``<name>.calls`` (calls per traced op).
OP_SPANS = {
    "histories.decoherence_functional": True,
    "histories.dfunc_validate": False,
    "histories.fine_probabilities": True,
    "histories.conditional": True,
    "dynamics.heisenberg_projector": True,
    "consistency.check_weak_consistency": False,
    "consistency.check_medium_decoherence": False,
    "consistency.additivity_pairs": False,
    "consistency.additivity_partitions": False,
    "consistency.check_state_robustness": False,
    "lueders.sequential_probability": True,
    "scenario.parse_scenario": True,
    "scenario.result": False,
    "scenario.run_query": False,
    "scenario.serialize_scenario": False,
    "cli.parse_args": False,
    "cli.render": False,
}
#: spans of the (traced) set-up, reported in seconds per set-up
SETUP_SPANS = ("sampling.generate", "dynamics.build_schedule")
#: counters computed from shapes at the span boundaries, reported per op
COUNTERS = (
    "histories.fine_histories",
    "histories.dfunc_bytes",
    "histories.dfunc_gemm_flops",
    "histories.chain_flops",
    "consistency.additivity_pairs.pairs",
    "consistency.partitions.candidates_built",
    "consistency.partitions.candidates_used",
    "consistency.robustness.lifts",
    "scenario.parse_bytes",
    "cli.output_bytes",
)
MODULES = ("histories", "dynamics", "consistency", "lueders", "scenario", "cli", "sampling")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# Provenance.


def _blas_threads_in_effect() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses, if it is one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "decohist", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int | None) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "malloc_mmap_threshold": mmap_threshold(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
    }


# ---------------------------------------------------------------------------
# The closed loop.


class Phase:
    """Latencies and failures of one stretch of the loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_loop(
    wl, tr, seconds: float, min_ops: int, deadline: float, max_ops: int | None = None, setups=None
) -> Phase:
    """Run ops 0, 1, ... back to back until ``seconds`` and ``min_ops`` are
    both met, ``max_ops`` ops have run, or the clock passes ``deadline``.
    ``setups.between_ops`` may time a set-up between two ops."""
    phase = Phase()
    t_start = perf_counter()
    i = 0
    while phase.attempted != max_ops:
        now = perf_counter()
        if (now - t_start >= seconds and phase.attempted >= min_ops) or now >= deadline:
            break
        if setups is not None:
            setups.between_ops(now - t_start)
        if tr.enabled:
            tr.op_id = i
        t0 = perf_counter()
        try:
            with tr.span("bench.op"):
                res = wl.op(i, tr)
        except Exception as exc:  # an op that raises is a failed op
            t1 = perf_counter()
            fails = [f"op {i} raised {type(exc).__name__}: {exc}"]
        else:
            t1 = perf_counter()
            fails = wl.check(res, tr)
            if tr.enabled:
                fails += wl.probe(res, tr)
        res = None  # nothing of this op stays alive into the next
        if fails:
            phase.failed += 1
            phase.messages.extend(fails[: max(0, 5 - len(phase.messages))])
        else:
            phase.latencies.append(t1 - t0)
        i += 1
    return phase


class SetUps:
    """Timed set-ups of one workload: input generation plus warm-up ops.

    The first build happens before the loop and serves the ops; the others
    are spread over the measurement, so that their median does not sit in
    one burst of machine noise.  Warm-up gates must pass, and every build
    must generate the same inputs.
    """

    def __init__(self, cls, seed: int, workdir: str, repeats: int, seconds: float):
        self.cls, self.seed, self.workdir = cls, seed, workdir
        self.repeats, self.seconds = repeats, seconds
        self.times: list[float] = []
        self.digests: list[str] = []
        self.fails: list[str] = []

    def build(self, tr=NULL):
        t0 = perf_counter()
        wl = self.cls(self.seed, tr, self.workdir)
        for k in range(self.cls.warmup_ops):
            self.fails += wl.check(wl.op(k))
        self.times.append(perf_counter() - t0)
        self.digests.append(wl.digest())
        if len(set(self.digests)) != 1:
            self.fails.append("set-ups generated different inputs")
        return wl

    def between_ops(self, elapsed: float) -> None:
        if len(self.times) < self.repeats and elapsed >= len(self.times) * self.seconds / self.repeats:
            self.build()


def end_to_end(phase: Phase, setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": 1e3 * statistics.median(phase.latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(phase.latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tr: Tracer, setup_tr: Tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    ops = max(len(traced.latencies), 1)
    out: dict[str, float] = {}
    times = tr.self_times()
    for name, calls in OP_SPANS.items():
        s, n, _ = times.get(name, (0.0, 0, 0))
        out[f"{name}.s"] = s / ops
        if calls:
            out[f"{name}.calls"] = n / ops
    setup_times = setup_tr.self_times()
    for name in SETUP_SPANS:
        out[f"{name}.s"] = setup_times.get(name, (0.0, 0, 0))[0]
    for name in COUNTERS:
        out[name] = tr.counts.get(name, 0.0) / ops
    built = tr.counts.get("consistency.partitions.candidates_built", 0.0)
    used = tr.counts.get("consistency.partitions.candidates_used", 0.0)
    out["consistency.partitions.used_frac"] = used / built if built else 0.0
    errors = dict.fromkeys(MODULES, 0)
    for name, (_, _, err) in [*times.items(), *setup_times.items()]:
        module = name.split(".")[0]
        if module in errors:
            errors[module] += err
    for module, err in errors.items():
        out[f"{module}.errors"] = err
    out["trace.ops"] = len(traced.latencies)
    out["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
    return out


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    min_ops: int = MIN_OPS,
    setup_repeats: int = SETUP_REPEATS,
    workdir: str,
    spans_path: str | None = None,
) -> dict:
    """One benchmark run; returns the result document."""
    cls = WORKLOADS[workload]
    setup_tr = Tracer() if trace else NULL
    measured = seconds * (UNTRACED_SHARE if trace else 1.0)
    setups = SetUps(cls, seed, workdir, setup_repeats, measured)
    wl = setups.build(setup_tr)
    deadline = perf_counter() + HARD_LIMIT_S
    if not trace:
        phases = [run_loop(wl, NULL, seconds, min_ops, deadline, setups=setups)]
    else:
        # the traced phase repeats the untraced phase's ops, so that the two
        # rates compare the same work; probes make it take longer
        untraced = run_loop(wl, NULL, measured, max(min_ops // 2, 2), deadline, setups=setups)
        tr = Tracer()
        traced = run_loop(wl, tr, HARD_LIMIT_S, 0, deadline, max_ops=untraced.attempted)
        phases = [untraced, traced]
        if spans_path:
            tr.dump(spans_path)
    phase = phases[-1]
    messages = setups.fails + [msg for p in phases for msg in p.messages]
    if not all(p.latencies for p in phases):
        raise RuntimeError(f"no {workload} op passed its gate: {messages}")
    if trace:
        metrics = per_layer(tr, setup_tr, traced, untraced)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end(phase, setups.times)
        units = metric_units("end_to_end")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(seed),
        "samples": len(phase.latencies),
        "setup_times_s": setups.times,
        "ops_failed_frac": failed / attempted,
        "messages": messages,
        "correct": failed == 0 and not setups.fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT_DIR)
    try:
        result = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir=workdir,
            spans_path=os.path.join(OUT_DIR, f"spans-{stem}.jsonl") if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for msg in result["messages"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['samples']} timed ops "
        f"(p90 has {result['samples'] - int(0.9 * result['samples'])} samples beyond it), "
        f"{result['failed']} of {result['attempted']} failed"
    )
    print(f"  ops_failed_frac = {result['ops_failed_frac']!r} fraction")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"provenance": result["provenance"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1
