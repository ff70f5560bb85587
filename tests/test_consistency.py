import time
import tracemalloc

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
from decohist import consistency as consistency_module
from decohist import histories as histories_module
from decohist import linalg as linalg_module
from decohist.consistency import (
    DEFAULT_ROBUSTNESS_COUNT,
    DEFAULT_ROBUSTNESS_SEED,
    _candidate_count,
    _candidate_masks,
    _candidate_partition,
    _picks,
)
from decohist.linalg import TILE
from decohist.errors import FamilyTooLargeError, InvalidHistoryError
from decohist.sampling import (
    random_density,
    random_family,
    random_resolution,
    random_unitary,
    robustness_states,
)

import reference
from conftest import (
    P_XP,
    P_Z0,
    assert_refused_at_the_cap,
    gram_matrix,
    random_rank_state,
    z_resolution,
)


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


class _Unlabelled:
    def labels_by_offset(self):
        return {}


class _Matrix:
    """Just what the weak and medium checks read of a DecoherenceFunctional,
    so that matrices the constructor would refuse (all zero) can be scanned."""

    def __init__(self, matrix):
        self.matrix = matrix
        self._stack = matrix[np.newaxis]
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
            worst, indices = reference.offdiag(matrix, magnitude)
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


def exact_size_shape(n):
    """Two slots of sizes a x n/a for the least factor a > 1 of n, or one
    slot of n outcomes when n is prime."""
    a = next((f for f in range(2, int(n**0.5) + 1) if n % f == 0), n)
    return (a, n // a) if a < n else (n,)


def padded_resolution(rng, dim, size):
    """``size`` projectors in shuffled order: a random resolution of dim
    ``dim`` into at most four blocks (degenerate wherever a block has rank
    > 1), the rest zero."""
    blocks = [p.matrix for p in random_resolution(dim, rng, min(size, 4)).projectors]
    mats = blocks + [np.zeros((dim, dim), dtype=complex)] * (size - len(blocks))
    return make_resolution([(str(k), mats[i]) for k, i in enumerate(rng.permutation(size))])


def exact_size_family(rng, n, dim, rank):
    """A random family of exactly ``n`` fine histories with a rank-``rank`` state."""
    shape = exact_size_shape(n)
    base = random_family(rng, dim, len(shape))
    resolutions = tuple(padded_resolution(rng, dim, size) for size in shape)
    return HistoryFamily(base.schedule, resolutions, random_rank_state(rng, dim, rank))


MAGNITUDES = {"weak": lambda m: np.abs(2.0 * m.real), "medium": np.abs}
OFFDIAG_CHECKS = {"weak": check_weak_consistency, "medium": check_medium_decoherence}


def assert_robust_matches(robust, family, states, mode):
    """The robustness check against each state's own D, checked alone.

    The two build each state's rows differently, W L against the chain
    applied to L, so their values differ in the low bits, within twice the
    reference bound.  The worst value lies within that slack of the largest
    one state's check gives, and the witness names a state and a pair whose
    own D's value lies within it too: where values tie in exact arithmetic,
    as the pairs ending in the two labels of a two-outcome last slot do,
    round-off picks among them; elsewhere that is the one state and pair.
    """
    slack = 2 * reference.bound(family)
    dfuncs = [decoherence_functional(family.with_state(s)) for s in states]
    worst = max(OFFDIAG_CHECKS[mode](d).worst_violation for d in dfuncs)
    assert abs(robust.worst_violation - worst) <= slack
    i, j = robust.witness["inner"]["indices"]
    named = np.array(dfuncs[robust.witness["state_index"]].matrix)
    assert i < j and MAGNITUDES[mode](named)[i, j] >= worst - slack


class TestStripKernel:
    """D from the strip kernel against the dense Gram product, and every
    off-diagonal witness against a dense row-major first maximum."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([TILE - 1, TILE, TILE + 1, 2 * TILE + 3]),
        dim=st.integers(2, 5),
    )
    def test_matches_dense_references(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        fam = exact_size_family(rng, n, dim, int(rng.integers(1, dim + 1)))
        d = decoherence_functional(fam)
        m = np.array(d.matrix)
        assert m.shape == (n, n)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m.diagonal().real, fine_probabilities(fam))
        gram = histories_module._gram_rows(fam, fam.state)
        assert np.max(np.abs(m - gram_matrix(*gram))) <= 1e-15

        states = [random_rank_state(rng, dim, rank) for rank in (1, dim, max(1, dim - 1))]
        for mode, check in OFFDIAG_CHECKS.items():
            report = check(d)
            worst, indices = reference.offdiag(m, MAGNITUDES[mode])
            assert report.worst_violation == worst  # bit for bit
            assert report.witness["indices"] == indices

            robust = check_state_robustness(fam, states=states, mode=mode)
            assert_robust_matches(robust, fam, states, mode)

    @staticmethod
    def planted_tie_family():
        """A z then an x measurement on |+>, exactly dyadic, whose only two
        interfering pairs tie at |D| = 1/4 in rows TILE - 1 and TILE, the
        two sides of the first strip boundary; zero projectors pad the x
        slot to TILE + 1 outcomes."""
        grid = TimeGrid((0.0, 1.0), 1)
        sched = build_schedule(grid, DynamicsSpec.from_steps([np.eye(2)]))
        x_slot = [np.zeros((2, 2), dtype=complex)] * (TILE + 1)
        x_slot[TILE - 1], x_slot[TILE] = P_XP, np.eye(2) - P_XP
        x_res = make_resolution([(str(k), m) for k, m in enumerate(x_slot)])
        return HistoryFamily(sched, (z_resolution(), x_res), make_state(P_XP))

    @pytest.mark.parametrize("mode", ["weak", "medium"])
    def test_planted_tie_across_a_strip_boundary(self, mode):
        fam = self.planted_tie_family()
        d = decoherence_functional(fam)
        m = np.array(d.matrix)
        first = [TILE - 1, 2 * TILE]  # (z0, x+) with (z1, x+)
        assert MAGNITUDES[mode](m[TILE - 1, 2 * TILE]) == MAGNITUDES[mode](m[TILE, 2 * TILE + 1])
        assert reference.offdiag(m, MAGNITUDES[mode])[1] == first
        assert OFFDIAG_CHECKS[mode](d).witness["indices"] == first
        # a later state wins only with a strictly larger violation
        robust = check_state_robustness(fam, states=[fam.state, fam.state], mode=mode)
        assert robust.witness["state_index"] == 0
        assert robust.witness["inner"]["indices"] == first

    def test_assembly_allocates_d_and_two_strips(self):
        # 8 x 8 x 8 histories in dim 16 with a full-rank state, rows cached
        rng = np.random.default_rng(50)
        base = random_family(rng, 16, 3)
        resolutions = tuple(padded_resolution(rng, 16, 8) for _ in range(3))
        fam = HistoryFamily(base.schedule, resolutions, base.state)
        fam._gram
        n = fam.n_fine_histories
        strip = 16 * TILE * n  # TILE rows of complex D
        tracemalloc.start()
        try:
            decoherence_functional(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * n + 2 * strip + 256 * 1024

    def test_robustness_allocates_no_n_by_n_matrix(self):
        rng = np.random.default_rng(51)
        base = random_family(rng, 4, 3)
        resolutions = tuple(padded_resolution(rng, 4, 8) for _ in range(3))
        fam = HistoryFamily(base.schedule, resolutions, base.state)
        n = fam.n_fine_histories
        assert n > TILE
        states = [random_density(4, rng) for _ in range(3)]
        tracemalloc.start()
        try:
            check_state_robustness(fam, states=states, mode="weak")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n


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
        rank=st.integers(1, 5),
        scope=st.sampled_from(["pairs", "partitions"]),
    )
    def test_worst_matches_exhaustive_recomputation(self, seed, rank, scope):
        # at most three outcomes in dim 4-5 forces projectors of rank >= 2;
        # a state of rank r < d has a factor with r columns
        rng = np.random.default_rng(seed)
        fam = random_family(
            rng, int(rng.integers(4, 6)), int(rng.integers(2, 4)), max_resolution_size=3
        )
        fam = fam.with_state(random_rank_state(rng, fam.dim, min(rank, fam.dim)))
        report = check_additivity(fam, scope=scope)
        assert report.worst_violation == pytest.approx(
            reference_additivity(fam, scope), abs=1e-12
        )

    @pytest.mark.parametrize("scope", ["pairs", "partitions"])
    def test_slightly_negative_state_accepted(self, scope):
        # a state may carry an eigenvalue down to -tol; the factor drops that
        # direction for the fibers just as it does for D
        u = random_unitary(3, np.random.default_rng(6))
        tol = 1e-10
        eigenvalues = np.array([0.6, 0.4 + tol / 2, -tol / 2])
        state = make_state((u * eigenvalues) @ u.conj().T, tol)
        fam = random_family(np.random.default_rng(7), 3, 2).with_state(state)
        decoherence_functional(fam)
        report = check_additivity(fam, scope=scope)
        assert report.worst_violation == pytest.approx(
            reference_additivity(fam, scope), abs=tol
        )

    def test_candidate_decoding_matches_enumeration(self):
        # sizes past PARTITION_EXHAUSTIVE_MAX too: the seeded draw picks
        # indices, so sampled witnesses depend on the same decoding
        for size in range(13):
            decoded = [_candidate_partition(size, k) for k in range(_candidate_count(size))]
            assert decoded == enumerate_partitions(size)

    @pytest.mark.parametrize("size", [2, 3, 4, 8, 9, 10, 63, 64, 65, 129])
    def test_candidate_masks_match_the_decoded_blocks(self, size):
        # the exhaustive and the sampled picks, past int64 too
        picks = _picks(size, 1729)
        masks = _candidate_masks(size, picks)
        expected = np.zeros((len(picks), 2, size))
        for k, pick in enumerate(picks):
            for c, block in enumerate(_candidate_partition(size, int(pick))):
                expected[k, c, list(block)] = 1.0
        assert np.array_equal(masks, expected)

    def test_family_cap(self, wide_over_cap_family):
        for call in (
            lambda fam: check_additivity(fam, scope="pairs"),
            lambda fam: check_additivity(fam, scope="partitions"),
            check_state_robustness,
        ):
            assert_refused_at_the_cap(wide_over_cap_family, call)

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
        if mode == "additivity":
            assert report.witness == {
                "kind": "state",
                "state_index": worst,
                "inner_mode": mode,
                "inner": inner[worst].witness,
            }
            return
        # the last slot has two labels, so the largest entries come in
        # pairs equal in exact arithmetic, which round-off orders
        assert_robust_matches(report, fam, states, mode)
        histories = decoherence_functional(fam).histories
        pair = report.witness["inner"]
        assert [pair["first"], pair["second"]] == [
            histories[k].labels_by_offset() for k in pair["indices"]
        ]
        assert set(report.witness) == {"kind", "state_index", "inner_mode", "inner"}
        assert (report.witness["kind"], report.witness["inner_mode"]) == ("state", mode)

    @pytest.mark.parametrize("scope", ["pairs", "partitions"])
    def test_inner_additivity_matches_chain_reference(self, scope):
        # rank-deficient states, each against the chain-operator reference,
        # which shares no kernel with the check
        rng = np.random.default_rng(46)
        fam = random_family(rng, 4, 3, max_resolution_size=3)
        states = [random_rank_state(rng, fam.dim, rank) for rank in (1, 2, 3, 1)]
        expected = [reference_additivity(fam.with_state(s), scope) for s in states]

        report = check_state_robustness(fam, states=states, mode="additivity", scope=scope)
        assert report.worst_violation == pytest.approx(max(expected), abs=1e-12)
        assert expected[report.witness["state_index"]] == pytest.approx(
            max(expected), abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["weak", "medium", "additivity"])
    def test_states_may_be_any_iterable(self, z_then_x_family, mode):
        # a generator is read once: its states are both checked for their
        # dimension and scanned
        states = robustness_states(2, 5, seed=6)
        reports = [
            check_state_robustness(z_then_x_family, states=given, mode=mode)
            for given in (list(states), tuple(states), (state for state in states))
        ]
        assert reports[0] == reports[1] == reports[2]
        assert not reports[0].passed

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # M = N / s on both sides of TILE / 2: a strip holds blocks of several
        # states, or a block takes a strip alone
        case=st.sampled_from([((4, 5, 3), 5), ((3, 3, 2), 4), ((8, 9, 2), 5), ((5, 13, 3), 4)]),
        extra=st.integers(1, 3),
    )
    def test_batched_states_match_one_state_at_a_time(self, seed, case, extra):
        shape, dim = case
        rng = np.random.default_rng(seed)
        base = random_family(rng, dim, len(shape))
        resolutions = tuple(padded_resolution(rng, dim, size) for size in shape)
        fam = HistoryFamily(base.schedule, resolutions, base.state)
        m, k = fam.n_fine_histories // shape[-1], fam.resolutions[-1]._factor[2][-1]
        batch = max(1, TILE * TILE // (m * k * dim))
        # pure, rank-deficient and full states, up to a count past a whole batch
        ranks = [1, max(1, dim - 1), dim, *rng.integers(1, dim + 1, size=batch + extra - 3)]
        states = [random_rank_state(rng, dim, int(rank)) for rank in ranks]
        assert len(states) > batch and len(states) % batch
        for mode, check in OFFDIAG_CHECKS.items():
            robust = check_state_robustness(fam, states=states, mode=mode)
            assert_robust_matches(robust, fam, states, mode)
            # the state that wins, given again later, ties with itself; the
            # first index wins
            first = robust.witness["state_index"]
            again = [*states, states[first]]
            assert check_state_robustness(fam, states=again, mode=mode) == robust

    @pytest.mark.parametrize("mode", ["weak", "medium"])
    def test_an_exactly_consistent_family_names_the_first_state_and_pair(
        self, same_basis_family, mode
    ):
        rng = np.random.default_rng(48)
        states = [random_rank_state(rng, 2, rank) for rank in (1, 2, 2, 1)]
        report = check_state_robustness(same_basis_family, states=states, mode=mode)
        assert report.worst_violation == 0.0 and report.passed
        assert report.witness["state_index"] == 0
        assert report.witness["inner"]["indices"] == [0, 1]

    def test_needs_states(self, z_then_x_family):
        with pytest.raises(ValueError):
            check_state_robustness(z_then_x_family, states=[])

    @pytest.mark.parametrize("mode", ["weak", "medium", "additivity"])
    def test_repeated_seeded_checks_agree(self, mode):
        fam = random_family(np.random.default_rng(47), 3, 3, max_resolution_size=3)
        first = check_state_robustness(fam, mode=mode)
        assert check_state_robustness(fam, mode=mode) == first
        assert check_state_robustness(fam.with_state(fam.state), mode=mode) == first
        # freshly drawn, validated and factored states give the same report
        rng = np.random.default_rng(DEFAULT_ROBUSTNESS_SEED)
        drawn = [random_density(fam.dim, rng) for _ in range(DEFAULT_ROBUSTNESS_COUNT)]
        again = check_state_robustness(fam, states=drawn, mode=mode)
        assert (again.worst_violation, again.witness) == (first.worst_violation, first.witness)

    def test_seeded_states_match_a_fresh_draw(self):
        states = robustness_states(3, 5, 21)
        assert isinstance(states, tuple)
        assert robustness_states(3, 5, 21) is states
        rng = np.random.default_rng(21)
        for state in states:
            assert not state.matrix.flags.writeable
            assert state.matrix.tobytes() == random_density(3, rng).matrix.tobytes()

    def test_seeded_states_are_factored_once(self, monkeypatch):
        calls = []
        factor = linalg_module._state_factor

        def counted(state):
            calls.append(state)
            return factor(state)

        monkeypatch.setattr(linalg_module, "_state_factor", counted)
        robustness_states.cache_clear()
        fam = random_family(np.random.default_rng(48), 3, 2)
        for mode in ("weak", "additivity", "weak"):
            check_state_robustness(fam, count=4, seed=31, mode=mode)
        assert calls == list(robustness_states(3, 4, 31))

    def test_factor_that_misses_its_state_raises_every_time(self, z_then_x_family):
        # with a zero tolerance, the factor's round-off (5.6e-17) is too much
        state = make_state([[0.25, 0.1], [0.1, 0.75]], tol=0.0)
        for _ in range(2):
            with pytest.raises(InvalidHistoryError, match="misses the state"):
                check_state_robustness(z_then_x_family, states=[state])
        assert "_factor" not in vars(state)

    @pytest.mark.parametrize(
        "over_cap, mode, error",
        [
            (True, "weak", FamilyTooLargeError),
            (True, "additivity", FamilyTooLargeError),
            (False, "bogus", ValueError),
        ],
    )
    def test_cap_and_mode_are_checked_before_states_are_drawn(
        self, monkeypatch, over_cap, mode, error
    ):
        from test_histories import over_cap_family

        def refuse(*args):
            raise AssertionError("states drawn for a refused check")

        monkeypatch.setattr(consistency_module, "robustness_states", refuse)
        fam = over_cap_family() if over_cap else random_family(np.random.default_rng(3), 3, 2)
        with pytest.raises(error):
            check_state_robustness(fam, mode=mode)
        assert "_lifted" not in vars(fam)  # refused before lifting anything

    @pytest.mark.parametrize("scope", ["bogus", ["pairs"], None])
    @pytest.mark.parametrize("mode", ["weak", "medium", "additivity"])
    def test_scope_is_checked_before_states_are_drawn(self, monkeypatch, mode, scope):
        # every inner mode refuses an unknown scope, not only additivity
        from test_histories import over_cap_family

        def refuse(*args):
            raise AssertionError("states drawn for a refused check")

        monkeypatch.setattr(consistency_module, "robustness_states", refuse)
        fam = random_family(np.random.default_rng(3), 3, 2)
        with pytest.raises(ValueError, match="unknown additivity scope"):
            check_state_robustness(fam, mode=mode, scope=scope)
        assert "_lifted" not in vars(fam)
        with pytest.raises(FamilyTooLargeError):  # the cap is checked first
            check_state_robustness(over_cap_family(), mode=mode, scope=scope)

    @pytest.mark.parametrize("scope", ["bogus", ["pairs"], None])
    def test_additivity_scope_is_checked_before_rows_are_built(self, scope):
        fam = random_family(np.random.default_rng(3), 3, 2)
        with pytest.raises(ValueError, match="unknown additivity scope"):
            check_additivity(fam, scope=scope)
        assert "_gram" not in vars(fam) and "_lifted" not in vars(fam)


class TestReportInvariant:
    def test_passed_must_match_violation(self):
        with pytest.raises(ValueError):
            ConsistencyReport("weak", True, 1.0, None, 1e-9)

    def test_fields_round_trip(self):
        report = ConsistencyReport("weak", False, 0.5, {"kind": "pair"}, 1e-9, seed=4)
        assert report.mode == "weak"
        assert report.worst_violation == 0.5
        assert report.seed == 4
