"""The benchmark's calls into each module's public functions.

Every call the benchmark makes into the engine goes through one of these
helpers.  Each wraps the call in a span named ``<module>.<function>`` and
records, at the same boundary, the work the call implies.  Those counts are
computed from shapes and sizes only (no timing, no instrumentation inside
the engine):

* ``histories.dfunc_bytes``: 16 N^2 for every decoherence-functional matrix
  assembled;
* ``histories.dfunc_gemm_flops``: 8 N^2 d^2 for its assembly product;
* ``histories.chain_flops``: 8 d^3 for every prefix product of a chain;
* ``consistency.*``: pairs tested, partitions built and used, state lifts.

With ``tracing.NULL`` as the tracer every helper is the bare call.
"""

from __future__ import annotations

from math import comb, prod

import decohist as dh
from decohist.consistency import PARTITION_EXHAUSTIVE_MAX, PARTITION_SAMPLE_SIZE

ROBUSTNESS_STATES = dh.consistency.DEFAULT_ROBUSTNESS_COUNT


def prefix_products(shape) -> int:
    """Matrix products that build every fine chain, sharing prefixes."""
    return sum(prod(shape[: k + 1]) for k in range(1, len(shape)))


def one_slot_pairs(shape) -> int:
    """Fine-history pairs that differ in exactly one slot."""
    n = prod(shape)
    return sum(comb(s, 2) * (n // s) for s in shape)


def partitions_built(size: int) -> int:
    """Candidate partitions the partitions scope materialises for one slot."""
    if size < 2:
        return 0
    return 2 ** (size - 1) - (1 if size == 2 else 0)


def partitions_used(size: int) -> int:
    built = partitions_built(size)
    return built if size <= PARTITION_EXHAUSTIVE_MAX else min(PARTITION_SAMPLE_SIZE, built)


def _chains(tr, family, matrices: int) -> None:
    tr.count("histories.chain_flops", 8 * family.dim**3 * matrices)


def _dfunc_work(tr, family, copies: int = 1) -> None:
    n, d = family.n_fine_histories, family.dim
    tr.count("histories.dfunc_bytes", 16 * n * n * copies)
    tr.count("histories.dfunc_gemm_flops", 8 * n * n * d * d * copies)
    _chains(tr, family, prefix_products(family.shape) * copies)


def decoherence_functional(tr, family):
    with tr.span("histories.decoherence_functional"):
        d = dh.decoherence_functional(family)
    _dfunc_work(tr, family)
    return d


def dfunc_validate(tr, d):
    """Probe: re-run the public constructor's validation on an assembled D."""
    with tr.span("histories.dfunc_validate"):
        dh.DecoherenceFunctional(d.histories, d.matrix, d.tol)


def fine_probabilities(tr, family):
    with tr.span("histories.fine_probabilities"):
        probs = dh.fine_probabilities(family)
    _chains(tr, family, prefix_products(family.shape))
    return probs


def conditional(tr, family, fn, *args):
    """``history_probability`` or one of the conditionals."""
    with tr.span("histories.conditional"):
        return fn(family, *args)


def check_weak(tr, d):
    with tr.span("consistency.check_weak_consistency"):
        return dh.check_weak_consistency(d)


def check_medium(tr, d):
    with tr.span("consistency.check_medium_decoherence"):
        return dh.check_medium_decoherence(d)


def additivity_pairs(tr, family):
    with tr.span("consistency.additivity_pairs"):
        report = dh.check_additivity(family, scope="pairs")
    pairs = one_slot_pairs(family.shape)
    tr.count("consistency.additivity_pairs.pairs", pairs)
    _chains(tr, family, prefix_products(family.shape) + pairs * (family.n_slots - 1))
    return report


def additivity_partitions(tr, family):
    with tr.span("consistency.additivity_partitions"):
        report = dh.check_additivity(family, scope="partitions")
    shape = family.shape
    coarse = 0
    for pos, size in enumerate(shape):
        used = partitions_used(size)
        tr.count("consistency.partitions.candidates_built", partitions_built(size))
        tr.count("consistency.partitions.candidates_used", used)
        # the full merge has one block, every other candidate two; a sampled
        # slot is counted as if the full merge was not drawn
        if size > PARTITION_EXHAUSTIVE_MAX:
            blocks = [2] * used
        else:
            blocks = [1] + [2] * (used - 1) if used else []
        coarse += sum(prefix_products(shape[:pos] + (b,) + shape[pos + 1 :]) for b in blocks)
    _chains(tr, family, prefix_products(shape) + coarse)
    return report


def check_state_robustness(tr, family, count=ROBUSTNESS_STATES):
    """The default weak inner check over ``count`` seeded states."""
    with tr.span("consistency.check_state_robustness"):
        report = dh.check_state_robustness(family, count=count)
    tr.count("consistency.robustness.lifts", count * sum(family.shape))
    _dfunc_work(tr, family, copies=count)
    return report


def sequential_probability(tr, family, history) -> float:
    with tr.span("lueders.sequential_probability"):
        p, _ = dh.sequential_probability(family, history)
    return p


def lift_probe(tr, family) -> None:
    """Probe: lift every fine projector, as ``HistoryFamily._lifted`` does."""
    for pos, res in enumerate(family.resolutions):
        for proj in res.projectors:
            with tr.span("dynamics.heisenberg_projector"):
                dh.heisenberg_projector(family.schedule, pos, proj)


def build_schedule(tr, grid, spec, reference):
    with tr.span("dynamics.build_schedule"):
        return dh.build_schedule(grid, spec, reference)
