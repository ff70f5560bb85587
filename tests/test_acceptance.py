"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with ``pytest -s`` or in captured output).
"""

import itertools
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import decohist as dh
from decohist.errors import ZeroConditionProbabilityError
from decohist.sampling import random_family

from conftest import P_Z0

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CORPUS_SEED = 20260808
EQUIVALENCE_SEED = 31415


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


def build_families(seed, count, dims, slot_lo, slot_hi):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dim = int(rng.choice(dims))
        slots = int(rng.integers(slot_lo, slot_hi + 1))
        out.append(random_family(rng, dim, slots, max_resolution_size=4))
    return out


@pytest.fixture(scope="module")
def corpus_200():
    start = time.perf_counter()
    families = build_families(CORPUS_SEED, 200, [2, 4, 8], 2, 4)
    return families, time.perf_counter() - start


@pytest.fixture(scope="module")
def corpus_100():
    return build_families(EQUIVALENCE_SEED, 100, [2, 4, 8], 2, 3)


@pytest.fixture
def canonical(z_then_x_family):
    return z_then_x_family


def test_criterion_1_normalization(corpus_200):
    families, build_seconds = corpus_200
    with criterion(1, "fine-grained probabilities sum to 1 on 200 random families"):
        start = time.perf_counter()
        for fam in families:
            total = dh.fine_probabilities(fam).sum()
            assert abs(total - 1.0) <= 1e-9
        elapsed = build_seconds + (time.perf_counter() - start)
        assert elapsed < 30.0, f"normalization sweep took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence(corpus_200):
    families, _ = corpus_200
    with criterion(2, "chain probabilities match the sequential oracle to 1e-10"):
        for fam in families:
            probs = dh.fine_probabilities(fam)
            for h, p in zip(fam.fine_histories(), probs):
                q, _ = dh.sequential_probability(fam, h)
                assert abs(p - q) <= 1e-10


def test_criterion_3_dfunc_structure(corpus_200):
    families, _ = corpus_200
    with criterion(3, "decoherence functional Hermitian, PSD, unit trace, Born diagonal"):
        for fam in families:
            d = dh.decoherence_functional(fam)
            m = d.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-9
            assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-9
            assert abs(np.trace(m) - 1.0) <= 1e-9
            assert np.max(np.abs(d.diagonal - dh.fine_probabilities(fam))) <= 1e-12


def test_criterion_4_canonical_witness(canonical):
    fam = canonical
    with criterion(4, "z-then-x family reproduces all hand-derived golden values"):
        probs = dh.fine_probabilities(fam)
        assert np.max(np.abs(probs - 0.25)) <= 1e-12

        d = dh.decoherence_functional(fam)
        assert abs(d.matrix[0, 2].real - 0.25) <= 1e-12
        assert abs(d.matrix[0, 2].imag) <= 1e-12

        weak = dh.check_weak_consistency(d)
        assert not weak.passed
        assert abs(weak.worst_violation - 0.5) <= 1e-12

        # union (z in {0,1}, x=+) against its two fine components
        coarse = fam.history({-1: ["z0", "z1"], 0: ["x+"]})
        p_union = dh.history_probability(fam, coarse)
        fine_sum = probs[0] + probs[2]
        assert abs(abs(p_union - fine_sum) - 0.5) <= 1e-12

        present = fam.resolution_at(0).outcome("x+")
        retro = [
            dh.retrodictive_conditional(fam, fam.history({-1: [lab]}), present)
            for lab in ("z0", "z1")
        ]
        assert abs(sum(retro) - 0.5) <= 1e-12

        normalized = [
            dh.retrodictive_normalized(fam, fam.history({-1: [lab]}), present)
            for lab in ("z0", "z1")
        ]
        assert abs(sum(normalized) - 1.0) <= 1e-12


def test_criterion_5_consistency_iff_additivity(
    corpus_100, same_basis_family, conserved_family, canonical
):
    with criterion(5, "weak consistency and partition additivity agree on pass/fail"):
        tol = 1e-9
        for fam in corpus_100:
            weak = dh.check_weak_consistency(dh.decoherence_functional(fam), tol)
            pairs = max((s * (s - 1)) // 2 for s in fam.shape)
            additive = dh.check_additivity(
                fam, max(1, pairs) * tol, scope="partitions"
            )
            assert weak.passed == additive.passed

        for fam in (same_basis_family, conserved_family):
            assert dh.check_weak_consistency(dh.decoherence_functional(fam), tol).passed
            assert dh.check_additivity(fam, tol, scope="partitions").passed

        assert not dh.check_weak_consistency(
            dh.decoherence_functional(canonical), tol
        ).passed
        assert not dh.check_additivity(canonical, tol, scope="partitions").passed


def test_criterion_6_conditional_normalization(corpus_100):
    with criterion(6, "predictive and normalized retrodictive conditionals sum to 1"):
        predictive_checked = 0
        retrodictive_checked = 0
        for fam in corpus_100:
            offsets = list(fam.offsets())
            futures = [o for o in offsets if o >= 1]
            pasts = [o for o in offsets if o < 0]

            if futures:
                given = fam.history(
                    {o: [fam.resolution_at(o).labels[0].index] for o in offsets if o <= 0}
                )
                if dh.history_probability(fam, given) > 1e-6:
                    lists = [
                        [l.index for l in fam.resolution_at(o).labels] for o in futures
                    ]
                    total = sum(
                        dh.predictive_conditional(
                            fam, fam.history(dict(zip(futures, combo))), given
                        )
                        for combo in itertools.product(*lists)
                    )
                    assert abs(total - 1.0) <= 1e-9
                    predictive_checked += 1

            if pasts:
                res0 = fam.resolution_at(0)
                present = res0.outcome(res0.labels[0].index)
                lists = [[l.index for l in fam.resolution_at(o).labels] for o in pasts]
                try:
                    total = sum(
                        dh.retrodictive_normalized(
                            fam, fam.history(dict(zip(pasts, combo))), present
                        )
                        for combo in itertools.product(*lists)
                    )
                except ZeroConditionProbabilityError:
                    continue
                assert abs(total - 1.0) <= 1e-9
                retrodictive_checked += 1
        assert predictive_checked >= 20
        assert retrodictive_checked >= 20


def test_criterion_7_state_robustness(canonical):
    with criterion(7, "consistency for one state is not consistency for all"):
        fam = canonical.with_state(dh.make_state(P_Z0))
        single = dh.check_weak_consistency(dh.decoherence_functional(fam))
        assert single.passed
        assert single.worst_violation <= 1e-12

        robust = dh.check_state_robustness(fam, count=20, seed=1729, mode="weak")
        assert not robust.passed
        assert robust.seed == 1729


def test_criterion_8_cli_determinism_and_round_trip():
    with criterion(8, "golden scenarios give byte-identical output and exact round-trips"):
        corpus = sorted(SCENARIOS.glob("*.json"))
        assert len(corpus) == 4
        for path in corpus:
            for verb in (["probs"], ["dfunc"], ["validate"]):
                cmd = [
                    sys.executable,
                    "-m",
                    "decohist",
                    *verb,
                    "--scenario",
                    str(path),
                    "--output",
                    "json",
                ]
                first = subprocess.run(cmd, capture_output=True, text=True)
                second = subprocess.run(cmd, capture_output=True, text=True)
                assert first.returncode == 0, first.stderr
                assert first.stdout == second.stdout
                json.loads(first.stdout)

            scenario = dh.parse_scenario(path.read_text())
            again = dh.parse_scenario(dh.serialize_scenario(scenario))
            assert scenario.to_document() == again.to_document()
