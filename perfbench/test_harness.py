"""Self-test of the benchmark harness at smoke size.

    python3 -m pytest perfbench

Each workload runs for a fraction of a second; the tests check that every
metric ``BENCHMARK.json`` names is emitted, that each gate fires on a
corrupted value, and that inputs depend on the seed alone.
"""

import contextlib
import io
import json
import os

import pinning

pinning.pin()

import pytest  # noqa: E402

import bench  # noqa: E402
from decohist import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(pinning.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric(workload, trace, tmp_path):
    result = bench.run(
        workload, seed=3, seconds=0.2, trace=bool(trace), min_ops=2, setup_repeats=1,
        workdir=str(tmp_path),
    )
    assert result["correct"], result["messages"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.ops"]["value"] >= 1


def test_gate_fires_on_corrupted_dfunc_value(tmp_path):
    wl = WORKLOADS["dfunc_n512"](3)
    res = wl.op(0)
    assert wl.check(res) == []
    res.probs = res.probs.copy()
    res.probs[5] += 1e-9
    assert any("fine_probabilities" in msg for msg in wl.check(res))


def test_gate_fires_on_corrupted_audit_value(tmp_path):
    wl = WORKLOADS["audit_n64"](3)
    res = wl.op(0)
    assert wl.check(res) == []
    res.oracle = res.oracle.copy()
    res.oracle[1] += 1e-9
    assert any("oracle" in msg for msg in wl.check(res))


def test_gate_fires_on_corrupted_cli_output(tmp_path):
    wl = WORKLOADS["cli_mix"](3, workdir=str(tmp_path))
    first = wl.op(0)
    assert wl.check(first) == []
    again = wl.op(len(wl.ops))  # the same op, one cycle later
    assert wl.check(again) == []
    again.out = again.out.replace("1", "2", 1)
    assert any("differs" in msg for msg in wl.check(again))
    flipped = wl.op(0)
    flipped.code = 1 - flipped.code
    assert wl.check(flipped)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_alone(workload, tmp_path):
    cls = WORKLOADS[workload]
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (cls(seed, workdir=str(d)) for seed, d in zip((5, 5, 6), dirs))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    if workload == "cli_mix":
        for name in os.listdir(dirs[0]):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_traced_cli_op_matches_cli_main(tmp_path):
    from tracing import Tracer

    wl = WORKLOADS["cli_mix"](3, workdir=str(tmp_path))
    for i in range(len(wl.ops)):
        plain = wl.op(i)
        traced = wl.op(i, Tracer())
        assert (traced.code, traced.out) == (plain.code, plain.out), wl.ops[i].argv


@pytest.mark.xfail(
    strict=True,
    reason="engine defect: the pairs-scope report carries numpy.bool_, so --output json "
    "raises TypeError and tables print 'False'; cli_mix leaves the pairs scope out until fixed",
)
def test_cli_renders_pairs_scope_check():
    path = os.path.join(pinning.ROOT, "scenarios", "z_then_x.json")
    argv = ["check", "--mode", "additivity", "--scope", "pairs", "--scenario", path, "--output", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 1
    assert json.loads(out.getvalue())["passed"] is False
