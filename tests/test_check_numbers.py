"""Check reports on a slot too wide for int64 candidate counts, and on
numpy numbers given as check arguments."""

from pathlib import Path

import numpy as np
import pytest

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    check_additivity,
    coarsen_slot,
    fine_probabilities,
    from_basis,
    make_resolution,
    make_state,
    parse_scenario,
    run_query,
)
from decohist.cli import render_csv, render_json, render_table
from decohist.consistency import (
    DEFAULT_ROBUSTNESS_SEED,
    PARTITION_SAMPLE_SIZE,
    _candidate_partition,
    _picks,
)
from decohist.scenario import result_check

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def wide_family():
    """d = 4: a first slot of 129 labels (the four basis projectors, then 125
    zero projectors), a discrete Fourier step, and the z basis last."""
    first = make_resolution(
        [(k, np.diag(np.eye(4)[k]) if k < 4 else np.zeros((4, 4))) for k in range(129)]
    )
    dft = np.exp(-2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
    schedule = build_schedule(TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_steps([dft]))
    z = from_basis(4, [[0], [1], [2], [3]])
    psi = np.array([1.0, 1.0j, -0.5, 2.0]) / np.linalg.norm([1.0, 1.0, 0.5, 2.0])
    return HistoryFamily(schedule, (first, z), make_state(np.outer(psi, psi.conj())))


def reference_worst(family, picks):
    """max |p(coarse) - sum of its block's fine p| over the first slot's
    candidate partitions ``picks``, each coarse family built by
    ``coarsen_slot``; the last slot's labels never interfere."""
    size = family.shape[0]
    fine = fine_probabilities(family).reshape(family.shape)
    worst = 0.0
    for k in picks:
        blocks = _candidate_partition(size, k)
        coarse = coarsen_slot(family, 0, {f"b{c}": list(b) for c, b in enumerate(blocks)})
        p = fine_probabilities(coarse).reshape(coarse.shape)
        for c, block in enumerate(blocks):
            worst = max(worst, float(np.max(np.abs(p[c] - fine[list(block)].sum(axis=0)))))
    return worst


@pytest.mark.parametrize("seed", [None, 7])
def test_partitions_scope_on_a_slot_past_int64(seed):
    fam = wide_family()
    report = check_additivity(fam, scope="partitions", seed=seed)
    used = DEFAULT_ROBUSTNESS_SEED if seed is None else seed
    assert report.seed == used
    picks = _picks(129, used)
    assert len(set(picks)) == PARTITION_SAMPLE_SIZE == len(picks)
    assert all(type(k) is int and 0 <= k < 2**128 for k in picks) and picks == sorted(picks)
    assert picks == _picks(129, used)  # drawn from the seed alone
    reference = reference_worst(fam, picks)
    assert reference > 1e-3  # the step makes the first slot's labels interfere
    assert abs(report.worst_violation - reference) <= 1e-13
    assert report.witness["slot"] == 0
    # 63 labels is the widest slot whose candidate count, 2**62, fits int64
    assert isinstance(_picks(63, used), np.ndarray) and isinstance(_picks(64, used), list)
    # the pairs scope runs on the same family, as before
    assert check_additivity(fam, scope="pairs").worst_violation > 0.0


def test_picks_below_int64_keep_their_sample():
    assert _picks(10, 1729).tolist() == [
        13, 16, 25, 26, 28, 30, 32, 53, 55, 65, 66, 70, 76, 95, 102, 109, 110, 124,
        133, 148, 157, 161, 168, 170, 172, 177, 182, 191, 192, 194, 212, 213, 214,
        219, 224, 237, 243, 244, 262, 266, 279, 281, 318, 321, 326, 333, 340, 341,
        342, 344, 372, 387, 426, 449, 454, 462, 466, 471, 473, 483, 496, 497, 501, 505,
    ]  # fmt: skip


@pytest.mark.parametrize(
    "numpy_args, python_args",
    [
        (
            ("weak", {"tol": np.float32(1e-9)}),
            ("weak", {"tol": float(np.float32(1e-9))}),
        ),
        (
            ("robust", {"seed": np.int64(5), "states": np.int64(2)}),
            ("robust", {"seed": 5, "states": 2}),
        ),
        (
            ("additivity", {"tol": np.float64(0.25), "seed": np.uint8(3)}),
            ("additivity", {"tol": 0.25, "seed": 3}),
        ),
    ],
    ids=["weak-float32-tol", "robust-int64-seed", "additivity-numpy"],
)
def test_numpy_numbers_render_as_python_numbers(numpy_args, python_args):
    s = parse_scenario((SCENARIOS / "z_then_x.json").read_text())
    made = result_check(s, numpy_args[0], **numpy_args[1])
    expected = result_check(s, python_args[0], **python_args[1])
    assert type(made["passed"]) is bool and type(made["tol"]) is float
    assert made["seed"] is None or type(made["seed"]) is int
    for render in (render_table, render_csv, render_json):
        assert render(made) == render(expected)


def test_numpy_tol_through_a_named_query():
    s = parse_scenario((SCENARIOS / "z_then_x.json").read_text())
    made = run_query(s, "weak", tol=np.float32(1e-9))
    expected = run_query(s, "weak", tol=float(np.float32(1e-9)))
    for render in (render_table, render_csv, render_json):
        assert render(made) == render(expected)
