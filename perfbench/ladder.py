"""Size ladder: regenerate the ROADMAP baseline table in one command.

    python3 perfbench/ladder.py

For (dim / slots / N) = 4/3/64, 8/4/256, 16/5/1024 and 32/6/4096, with
every slot resolved into four outcomes, times ``fine_probabilities``,
``decoherence_functional``, additivity with scope ``partitions`` and
additivity with scope ``pairs``, each on a family no earlier call has used
(so each pays its own Heisenberg lift).  Each column carries its traced
per-layer split: the lift, the decoherence functional's validation, and
the work counts computed from shapes.  The cap point costs about a minute,
which is why it runs here and not in the gated workloads.

Writes ``perfbench/results/ladder.json`` in the benchmark's results format
(provenance plus ``metrics`` of ``{"value", "unit"}``) and prints the table
as markdown.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import pinning

#: (dim, slots); every slot has four outcomes
RUNGS = [(4, 3), (8, 4), (16, 5), (32, 6)]
OUTCOMES = 4
SEED = 4096
#: repeats per cell; the cap point runs once
REPEATS = {64: 3, 256: 3, 1024: 3, 4096: 1}

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results", "ladder.json")


def main() -> int:
    import numpy as np

    import bench
    import layers
    from tracing import END, NAME, START, Tracer
    from workloads import family_inputs

    rng = np.random.default_rng(SEED)
    metrics: dict[str, dict] = {}
    rows = []
    units = bench.metric_units("per_layer")

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def cell(prefix, repeats, inputs, span, call, probes):
        """Median seconds of ``call`` on fresh families, and its traced split."""
        tr = Tracer()
        for r in range(repeats):
            tr.op_id = r
            family = inputs.fresh()
            out = call(tr, family)
            for probe in probes:
                probe(tr, family, out)
        seconds = statistics.median(rec[END] - rec[START] for rec in tr.spans if rec[NAME] == span)
        put(f"{prefix}.s", seconds, "s")
        for name, (s, _, _) in tr.self_times().items():
            if name != span:
                put(f"{prefix}.{name}.s", s / repeats, "s")
        for name, value in tr.counts.items():
            put(f"{prefix}.{name}", value / repeats, units[name].replace("1/op", "count").removesuffix("/op"))
        return seconds

    def lift(tr, family, _):
        layers.lift_probe(tr, family)

    def validate(tr, family, d):
        layers.dfunc_validate(tr, d)

    columns = [
        ("fine_probabilities", "histories.fine_probabilities", layers.fine_probabilities, (lift,)),
        ("decoherence_functional", "histories.decoherence_functional", layers.decoherence_functional, (validate, lift)),
        ("additivity_partitions", "consistency.additivity_partitions", layers.additivity_partitions, ()),
        ("additivity_pairs", "consistency.additivity_pairs", layers.additivity_pairs, ()),
    ]

    for dim, slots in RUNGS:
        n = OUTCOMES**slots
        inputs = family_inputs(Tracer(), rng, dim, (OUTCOMES,) * slots, False)
        repeats = REPEATS[n]
        rung = f"ladder.d{dim}_s{slots}_n{n}"
        row = {"dim / slots / N": f"{dim} / {slots} / {n}"}
        for column, span, call, probes in columns:
            seconds = cell(f"{rung}.{column}", repeats, inputs, span, call, probes)
            row[column] = seconds
            print(f"{rung}.{column}: {seconds:.4g} s (median of {repeats})", file=sys.stderr, flush=True)
        put(f"{rung}.repeats", repeats, "count")
        rows.append(row)

    result = {
        "workload": "ladder",
        "provenance": bench.provenance(SEED),
        "metrics": metrics,
        "table": rows,
    }
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    def fmt(s: float) -> str:
        return f"{s * 1e3:.3g} ms" if s < 1 else f"{s:.3g} s"

    header = list(rows[0])
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        cells = [row[header[0]]] + [fmt(row[c]) for c in header[1:]]
        print("| " + " | ".join(cells) + " |")
    print(f"\nwritten to {os.path.relpath(RESULTS, pinning.ROOT)}")
    return 0


if __name__ == "__main__":
    pinning.pin()
    sys.exit(main())
