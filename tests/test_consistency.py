import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    ConsistencyReport,
    DecoherenceFunctional,
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    check_additivity,
    check_medium_decoherence,
    check_state_robustness,
    check_weak_consistency,
    coarsen_slot,
    decoherence_functional,
    fine_probabilities,
    from_basis,
    history_probability,
    make_resolution,
    make_state,
)
from decohist.consistency import _candidate_count, _candidate_partition
from decohist.linalg import TILE
from decohist.errors import FamilyTooLargeError
from decohist.sampling import random_family, robustness_states

from conftest import P_Z0, z_resolution


def make_dfunc(family, matrix):
    return DecoherenceFunctional(tuple(family.fine_histories()), matrix)


def enumerate_partitions(size):
    """The full merge, then every two-block split that merges something."""
    if size < 2:
        return []
    parts = [(tuple(range(size)),)]
    for mask in range(2 ** (size - 1) - 1):
        block = tuple(sorted({0, *(p + 1 for p in range(size - 1) if (mask >> p) & 1)}))
        rest = tuple(p for p in range(size) if p not in block)
        if len(block) == 1 and len(rest) == 1:
            continue
        parts.append((block, rest))
    return parts


def reference_additivity(fam, scope):
    """Worst additivity discrepancy from the chain operators of unions and
    coarsened families, without the decoherence functional."""
    probs = fine_probabilities(fam)
    worst = 0.0
    if scope == "pairs":
        fine = list(fam.fine_histories())
        for i in range(len(fine)):
            for j in range(i + 1, len(fine)):
                differing = [
                    off
                    for off in fam.offsets()
                    if fine[i].outcome_at(off).labels != fine[j].outcome_at(off).labels
                ]
                if len(differing) != 1:
                    continue
                spec = {
                    off: sorted(
                        fine[i].outcome_at(off).labels | fine[j].outcome_at(off).labels
                    )
                    for off in fam.offsets()
                }
                p_union = history_probability(fam, fam.history(spec), clamp=False)
                worst = max(worst, abs(p_union - probs[i] - probs[j]))
        return worst
    probs = probs.reshape(fam.shape)
    for pos, res in enumerate(fam.resolutions):
        for blocks in enumerate_partitions(res.size):
            partition = {
                f"b{k}": [res.labels[p].index for p in block]
                for k, block in enumerate(blocks)
            }
            coarse = coarsen_slot(fam, fam.offset_of(pos), partition)
            coarse_probs = fine_probabilities(coarse).reshape(coarse.shape)
            expected = np.stack(
                [probs.take(block, axis=pos).sum(axis=pos) for block in blocks], axis=pos
            )
            worst = max(worst, float(np.max(np.abs(coarse_probs - expected))))
    return worst


class TestWeakConsistency:
    def test_diagonal_passes_with_zero_violation(self):
        grid = TimeGrid((0.0,), 0)
        sched = build_schedule(grid, DynamicsSpec.trivial(2))
        fam = HistoryFamily(sched, (z_resolution(),), make_state(np.eye(2) / 2))
        report = check_weak_consistency(make_dfunc(fam, np.eye(2) / 2))
        assert report.passed and report.worst_violation == 0.0

    def test_canonical_witness_fails(self, z_then_x_family):
        report = check_weak_consistency(decoherence_functional(z_then_x_family))
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.5, abs=1e-12)
        assert report.witness["indices"] == [0, 2]

    def test_same_basis_passes(self, same_basis_family):
        report = check_weak_consistency(decoherence_functional(same_basis_family))
        assert report.passed
        assert report.worst_violation < 1e-10

    def test_single_history_passes_vacuously(self):
        grid = TimeGrid((0.0,), 0)
        sched = build_schedule(grid, DynamicsSpec.trivial(2))
        res = make_resolution([("all", np.eye(2))])
        fam = HistoryFamily(sched, (res,), make_state(np.eye(2) / 2))
        report = check_weak_consistency(decoherence_functional(fam))
        assert report.passed and report.witness is None


class TestMediumDecoherence:
    def test_imaginary_off_diagonal_splits_the_checks(self, z_then_x_family):
        # Hermitian, PSD, unit trace, with purely imaginary off-diagonals
        matrix = np.array(
            [
                [0.25, 0.15j, 0, 0],
                [-0.15j, 0.25, 0, 0],
                [0, 0, 0.25, 0],
                [0, 0, 0, 0.25],
            ],
            dtype=complex,
        )
        d = make_dfunc(z_then_x_family, matrix)
        assert check_weak_consistency(d).passed
        report = check_medium_decoherence(d)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.15)

    def test_medium_implies_weak(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            fam = random_family(rng, 4, 2)
            d = decoherence_functional(fam)
            medium = check_medium_decoherence(d)
            weak = check_weak_consistency(d)
            if medium.passed:
                assert weak.passed
            assert weak.worst_violation <= 2 * medium.worst_violation + 1e-15

    def test_diagonal_passes(self, z_then_x_family):
        d = make_dfunc(z_then_x_family, np.eye(4) / 4)
        assert check_medium_decoherence(d).passed


def reference_offdiag(matrix, magnitude):
    """Dense first maximum over the strict upper triangle, row-major order."""
    n = matrix.shape[0]
    viol = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), magnitude(matrix), -1.0)
    flat = int(np.argmax(viol))
    i, j = divmod(flat, n)
    return float(viol[i, j]), [i, j]


class _Unlabelled:
    def labels_by_offset(self):
        return {}


class _Matrix:
    """Just what the weak and medium checks read of a DecoherenceFunctional,
    so that matrices the constructor would refuse (all zero) can be scanned."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.n = matrix.shape[0]
        self.histories = (_Unlabelled(),) * self.n


class TestStripScan:
    CHECKS = [
        (check_weak_consistency, lambda m: np.abs(2.0 * m.real)),
        (check_medium_decoherence, np.abs),
    ]
    SIZES = [2, 3, TILE - 1, TILE, TILE + 1, TILE + 2, 2 * TILE + 3]

    @staticmethod
    def assert_matches_reference(matrix):
        for check, magnitude in TestStripScan.CHECKS:
            report = check(_Matrix(matrix))
            worst, indices = reference_offdiag(matrix, magnitude)
            assert report.worst_violation == worst  # bit for bit
            assert report.witness["indices"] == indices

    @pytest.mark.parametrize("n", SIZES)
    def test_random_matrix(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        self.assert_matches_reference(v @ v.conj().T)

    @pytest.mark.parametrize("n", SIZES)
    def test_all_zero_matrix(self, n):
        self.assert_matches_reference(np.zeros((n, n), dtype=complex))

    @pytest.mark.parametrize(
        "cells",
        [
            # last row of the first strip against the first row of the next
            [(TILE - 1, TILE + 3), (TILE, TILE + 1)],
            # the next strip's tie sits in a column the first strip also reads
            [(TILE - 1, 2 * TILE + 1), (TILE, TILE + 1), (TILE + 1, TILE + 2)],
            # ties inside one strip, either side of the next strip's rows
            [(TILE, 2 * TILE + 2), (TILE + 5, TILE + 6), (2 * TILE, 2 * TILE + 1)],
            # a strip boundary on the diagonal itself
            [(TILE - 1, TILE), (2 * TILE - 1, 2 * TILE)],
        ],
        ids=["row_boundary", "shared_column", "within_strip", "on_diagonal"],
    )
    def test_ties_either_side_of_a_strip_boundary(self, cells):
        n = 2 * TILE + 3
        rng = np.random.default_rng(7)
        matrix = 1e-3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        matrix = matrix + matrix.conj().T
        for i, j in cells:  # equal weak and medium magnitudes at every cell
            matrix[i, j] = matrix[j, i] = 0.5
        self.assert_matches_reference(matrix)
        first = [list(min(cells))]
        for check, _ in self.CHECKS:
            assert [check(_Matrix(matrix)).witness["indices"]] == first

    def test_engine_matrix(self):
        rng = np.random.default_rng(3)
        families = (random_family(rng, 6, 4, 6) for _ in range(100))
        fam = next(f for f in families if f.n_fine_histories > TILE)
        d = decoherence_functional(fam)
        self.assert_matches_reference(np.array(d.matrix))


class TestAdditivity:
    def test_canonical_violation_partitions(self, z_then_x_family):
        report = check_additivity(z_then_x_family, scope="partitions")
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.5, abs=1e-12)
        assert report.witness["kind"] == "partition"
        assert report.witness["slot"] == -1

    def test_canonical_violation_pairs(self, z_then_x_family):
        report = check_additivity(z_then_x_family, scope="pairs")
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.5, abs=1e-12)
        assert report.witness["slot"] == -1

    def test_consistent_families_pass(self, same_basis_family, conserved_family):
        for fam in (same_basis_family, conserved_family):
            for scope in ("pairs", "partitions"):
                report = check_additivity(fam, scope=scope)
                assert report.passed
                assert report.worst_violation <= 1e-10

    def test_full_label_coarse_history_adds_up(self, z_then_x_family):
        # merging every label at every slot reproduces total probability 1,
        # so the full merge at the present slot contributes no violation
        probs = fine_probabilities(z_then_x_family)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pure=st.booleans(),
        scope=st.sampled_from(["pairs", "partitions"]),
    )
    def test_worst_matches_exhaustive_recomputation(self, seed, pure, scope):
        # at most three outcomes in dim 4-5 forces projectors of rank >= 2;
        # a pure state is rank deficient
        rng = np.random.default_rng(seed)
        fam = random_family(
            rng, int(rng.integers(4, 6)), int(rng.integers(2, 4)), max_resolution_size=3
        )
        if pure:
            psi = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
            psi /= np.linalg.norm(psi)
            fam = fam.with_state(make_state(np.outer(psi, psi.conj())))
        report = check_additivity(fam, scope=scope)
        assert report.worst_violation == pytest.approx(
            reference_additivity(fam, scope), abs=1e-12
        )

    def test_candidate_decoding_matches_enumeration(self):
        # sizes past PARTITION_EXHAUSTIVE_MAX too: the seeded draw picks
        # indices, so sampled witnesses depend on the same decoding
        for size in range(13):
            decoded = [_candidate_partition(size, k) for k in range(_candidate_count(size))]
            assert decoded == enumerate_partitions(size)

    def test_family_cap(self, z_then_x_family):
        with pytest.raises(FamilyTooLargeError):
            check_additivity(z_then_x_family, cap=2)

    def test_block_names_with_plus_do_not_collide(self):
        # coarse block names join fine labels with '+', which labels may
        # themselves contain; the joined names must stay distinct
        from decohist import DynamicsSpec, HistoryFamily, TimeGrid, build_schedule
        from decohist import from_basis, make_state

        grid = TimeGrid((0.0, 1.0), 1)
        sched = build_schedule(grid, DynamicsSpec.trivial(3))
        res = from_basis(3, [[0], [1], [2]], names=["a+b", "a", "b"])
        fam = HistoryFamily(sched, (res, res), make_state(np.eye(3) / 3))
        report = check_additivity(fam, scope="partitions")
        assert report.passed

    def test_large_resolution_samples_partitions_reproducibly(self):
        # above 8 labels the two-block enumeration is sampled from a seed,
        # which must be recorded and reproducible
        from decohist import DynamicsSpec, HistoryFamily, TimeGrid, build_schedule
        from decohist import from_basis, make_state

        dim = 9
        grid = TimeGrid((0.0, 1.0), 1)
        sched = build_schedule(grid, DynamicsSpec.trivial(dim))
        fine = from_basis(dim, [[i] for i in range(dim)])
        rho = np.full((dim, dim), 1.0 / dim, dtype=complex)  # coherent, interferes
        fam = HistoryFamily(sched, (fine, from_basis(dim, [list(range(dim))])), make_state(rho))

        first = check_additivity(fam, scope="partitions", seed=11)
        second = check_additivity(fam, scope="partitions", seed=11)
        assert first == second
        assert first.seed == 11
        other = check_additivity(fam, scope="partitions", seed=12)
        assert other.seed == 12

    def test_large_slot_samples_without_enumerating(self):
        # 24 labels have 2**23 candidates; only the sampled ones are built
        dim = 24
        grid = TimeGrid((0.0, 1.0), 1)
        sched = build_schedule(grid, DynamicsSpec.trivial(dim))
        uniform = np.full((dim, dim), 1.0 / dim, dtype=complex)
        later = make_resolution([("u", uniform), ("rest", np.eye(dim) - uniform)])
        fine = from_basis(dim, [[i] for i in range(dim)])
        fam = HistoryFamily(sched, (fine, later), make_state(uniform))

        start = time.perf_counter()
        report = check_additivity(fam, scope="partitions", seed=13)
        assert time.perf_counter() - start < 5.0
        assert report.seed == 13
        assert not report.passed
        assert sorted(sum(report.witness["blocks"], []), key=int) == [
            str(i) for i in range(dim)
        ]

    def test_unknown_scope(self, z_then_x_family):
        with pytest.raises(ValueError):
            check_additivity(z_then_x_family, scope="everything")

    def test_pair_violations_equal_off_diagonal_real_parts(self):
        # Pr(union) - Pr(a) - Pr(b) for fine pairs differing at one slot is
        # exactly the paired off-diagonal contribution 2 Re D[a][b]
        rng = np.random.default_rng(44)
        fam = random_family(rng, 4, 2, max_resolution_size=3)
        d = decoherence_functional(fam).matrix
        fine = list(fam.fine_histories())
        probs = fine_probabilities(fam)
        for i in range(len(fine)):
            for j in range(i + 1, len(fine)):
                differing = [
                    off
                    for off in fam.offsets()
                    if fine[i].outcome_at(off).labels != fine[j].outcome_at(off).labels
                ]
                if len(differing) != 1:
                    continue
                spec = {
                    off: sorted(
                        fine[i].outcome_at(off).labels | fine[j].outcome_at(off).labels
                    )
                    for off in fam.offsets()
                }
                p_union = history_probability(fam, fam.history(spec), clamp=False)
                lhs = p_union - probs[i] - probs[j]
                assert lhs == pytest.approx(2 * d[i, j].real, abs=1e-12)

    def test_equivalence_with_weak_check(self):
        # the additivity discrepancies are sums of paired off-diagonal real
        # parts, so the two checks agree on pass/fail at scaled tolerance
        rng = np.random.default_rng(43)
        tol = 1e-9
        for _ in range(25):
            fam = random_family(rng, int(rng.choice([2, 4, 8])), int(rng.integers(2, 4)))
            weak = check_weak_consistency(decoherence_functional(fam), tol)
            pair_count = max((s * (s - 1)) // 2 for s in fam.shape)
            additive = check_additivity(
                fam, max(1, pair_count) * tol, scope="partitions"
            )
            assert weak.passed == additive.passed


class TestStateRobustness:
    def test_commuting_family_passes_any_states(self, conserved_family):
        report = check_state_robustness(conserved_family, count=10, seed=3)
        assert report.passed
        assert report.seed == 3

    def test_canonical_state_dependence(self, z_then_x_family):
        fam = z_then_x_family.with_state(make_state(P_Z0))
        single = check_weak_consistency(decoherence_functional(fam))
        assert single.passed  # this one state hides the inconsistency
        report = check_state_robustness(fam, count=20, seed=1729)
        assert not report.passed
        assert report.witness["kind"] == "state"

    def test_single_outcome_family_passes_for_all_states(self):
        grid = TimeGrid((0.0,), 0)
        sched = build_schedule(grid, DynamicsSpec.trivial(2))
        res = make_resolution([("all", np.eye(2))])
        fam = HistoryFamily(sched, (res,), make_state(np.eye(2) / 2))
        report = check_state_robustness(fam, count=5, seed=9)
        assert report.passed and report.worst_violation == 0.0

    def test_deterministic_reports(self, z_then_x_family):
        a = check_state_robustness(z_then_x_family, count=8, seed=77)
        b = check_state_robustness(z_then_x_family, count=8, seed=77)
        assert a == b

    def test_explicit_states(self, z_then_x_family):
        states = robustness_states(2, 4, seed=5)
        report = check_state_robustness(z_then_x_family, states=states)
        assert report.seed is None
        assert not report.passed

    def test_inner_additivity_mode(self, z_then_x_family):
        report = check_state_robustness(
            z_then_x_family, count=3, seed=2, mode="additivity"
        )
        assert not report.passed
        assert report.witness["inner_mode"] == "additivity"

    @pytest.mark.parametrize("mode", ["weak", "medium", "additivity"])
    def test_matches_per_state_recomputation(self, mode):
        rng = np.random.default_rng(45)
        fam = random_family(rng, 4, 3, max_resolution_size=3)
        states = robustness_states(fam.dim, 6, seed=8)
        inner = []
        for state in states:
            variant = fam.with_state(state)
            if mode == "additivity":
                inner.append(check_additivity(variant))
            elif mode == "weak":
                inner.append(check_weak_consistency(decoherence_functional(variant)))
            else:
                inner.append(check_medium_decoherence(decoherence_functional(variant)))
        worst = max(range(len(states)), key=lambda k: inner[k].worst_violation)

        report = check_state_robustness(fam, states=states, mode=mode)
        assert report.worst_violation == pytest.approx(
            inner[worst].worst_violation, abs=1e-12
        )
        assert report.witness == {
            "kind": "state",
            "state_index": worst,
            "inner_mode": mode,
            "inner": inner[worst].witness,
        }

    def test_needs_states(self, z_then_x_family):
        with pytest.raises(ValueError):
            check_state_robustness(z_then_x_family, states=[])


class TestReportInvariant:
    def test_passed_must_match_violation(self):
        with pytest.raises(ValueError):
            ConsistencyReport("weak", True, 1.0, None, 1e-9)

    def test_fields_round_trip(self):
        report = ConsistencyReport("weak", False, 0.5, {"kind": "pair"}, 1e-9, seed=4)
        assert report.mode == "weak"
        assert report.worst_violation == 0.5
        assert report.seed == 4
