import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DecoherenceFunctional,
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    UndefinedUnion,
    build_schedule,
    chain_operator,
    coarsen_slot,
    decoherence_functional,
    fine_probabilities,
    history_intersection,
    history_probability,
    history_subset,
    history_union,
    make_resolution,
    make_state,
    predictive_conditional,
    retrodictive_conditional,
    retrodictive_normalized,
)
from decohist.errors import (
    FamilyMismatchError,
    FamilyTooLargeError,
    InvalidHistoryError,
    ZeroConditionProbabilityError,
)
from decohist import consistency as consistency_module
from decohist import histories as histories_module
from decohist.consistency import check_additivity, check_state_robustness
from decohist.histories import DEFAULT_FAMILY_CAP
from decohist.linalg import _state_factor
from decohist.sampling import random_family, random_unitary

from conftest import (
    P_XP,
    P_Z0,
    PAULI_X,
    PAULI_Z,
    assert_refused_at_the_cap,
    gram_matrix,
    random_rank_state,
    x_resolution,
    z_resolution,
)


def single_slot_family(state, resolution):
    sched = build_schedule(TimeGrid((0.0,), 0), DynamicsSpec.trivial(resolution.dim))
    return HistoryFamily(sched, (resolution,), make_state(state))


def over_cap_family():
    """A qubit z measurement at 13 slots: 8192 fine histories."""
    grid = TimeGrid(tuple(float(t) for t in range(13)), 0)
    sched = build_schedule(grid, DynamicsSpec.trivial(2))
    return HistoryFamily(sched, (z_resolution(),) * 13, make_state(P_XP))


class TestChainOperator:
    def test_all_full_outcomes_give_identity(self, z_then_x_family):
        h = z_then_x_family.history()
        assert np.allclose(chain_operator(z_then_x_family, h), np.eye(2))

    def test_single_slot_is_projector(self):
        fam = single_slot_family(np.eye(2) / 2, z_resolution())
        h = fam.history({0: ["z0"]})
        assert np.array_equal(chain_operator(fam, h), P_Z0)

    def test_latest_slot_leftmost(self, z_then_x_family):
        h = z_then_x_family.history({-1: ["z0"], 0: ["x+"]})
        expected = 0.5 * np.array([[1, 0], [1, 0]], dtype=complex)
        assert np.allclose(chain_operator(z_then_x_family, h), expected)


class TestHistoryProbability:
    def test_certain_and_impossible_outcomes(self):
        fam = single_slot_family(P_Z0, z_resolution())
        assert history_probability(fam, fam.history({0: ["z0"]})) == 1.0
        assert history_probability(fam, fam.history({0: ["z1"]})) == 0.0

    def test_all_trivial_history(self, z_then_x_family):
        assert history_probability(z_then_x_family, z_then_x_family.history()) == 1.0

    def test_canonical_quarter_probabilities(self, z_then_x_family):
        probs = fine_probabilities(z_then_x_family)
        assert np.allclose(probs, 0.25, atol=1e-14)

    def test_wrong_family_rejected(self, z_then_x_family, same_basis_family):
        h = same_basis_family.history()
        with pytest.raises(FamilyMismatchError):
            history_probability(z_then_x_family, h)

    def test_enumeration_is_lexicographic(self, z_then_x_family):
        seen = [
            tuple(sorted(h.labels_by_offset().items()))
            for h in z_then_x_family.fine_histories()
        ]
        assert seen == [
            ((-1, ["z0"]), (0, ["x+"])),
            ((-1, ["z0"]), (0, ["x-"])),
            ((-1, ["z1"]), (0, ["x+"])),
            ((-1, ["z1"]), (0, ["x-"])),
        ]

    def test_normalization_for_random_families(self):
        rng = np.random.default_rng(21)
        for dim, slots in [(2, 5), (4, 3), (8, 2), (16, 4)]:
            fam = random_family(rng, dim, slots)
            assert abs(fine_probabilities(fam).sum() - 1.0) < 1e-9

    def test_single_slot_random_families(self):
        # both dynamics branches, including an empty step-unitary list
        for seed in range(20):
            fam = random_family(np.random.default_rng(seed), 3, 1)
            assert fam.n_slots == 1
            assert abs(fine_probabilities(fam).sum() - 1.0) < 1e-12

    def test_fine_probabilities_cap(self):
        fam = over_cap_family()
        assert fam.n_fine_histories > DEFAULT_FAMILY_CAP
        with pytest.raises(FamilyTooLargeError):
            fine_probabilities(fam)
        assert "_lifted" not in vars(fam)  # refused before lifting anything


class TestDecoherenceFunctional:
    def test_single_slot_diagonal_is_born_rule(self):
        fam = single_slot_family(P_XP, z_resolution())
        d = decoherence_functional(fam)
        assert np.allclose(d.diagonal, [0.5, 0.5])
        assert abs(d.matrix[0, 1]) < 1e-14

    def test_maximally_mixed_single_slot(self):
        fam = single_slot_family(np.eye(2) / 2, z_resolution())
        d = decoherence_functional(fam)
        assert np.allclose(d.matrix, np.eye(2) / 2)

    def test_canonical_off_diagonal(self, z_then_x_family):
        d = decoherence_functional(z_then_x_family)
        assert d.matrix[0, 2] == pytest.approx(0.25, abs=1e-14)

    def test_diagonal_matches_probabilities(self, z_then_x_family):
        d = decoherence_functional(z_then_x_family)
        probs = fine_probabilities(z_then_x_family)
        assert np.max(np.abs(d.diagonal - probs)) < 1e-12

    def test_structure_for_random_families(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            fam = random_family(rng, 4, 3)
            d = decoherence_functional(fam)  # constructor validates the invariants
            assert abs(d.diagonal.sum() - 1.0) < 1e-9

    def test_family_cap(self, wide_over_cap_family):
        for call in (fine_probabilities, decoherence_functional):
            assert_refused_at_the_cap(wide_over_cap_family, call)

    def test_coarse_graining_block_sums(self):
        rng = np.random.default_rng(31)
        fam = random_family(rng, 4, 2, max_resolution_size=3)
        while fam.resolutions[0].size < 3:
            fam = random_family(rng, 4, 2, max_resolution_size=3)
        sizes = fam.shape
        d_fine = decoherence_functional(fam).matrix
        res = fam.resolutions[0]
        blocks = [[res.labels[p].index for p in range(res.size - 1)], [res.labels[-1].index]]
        coarse = coarsen_slot(fam, fam.offset_of(0), blocks)
        d_coarse = decoherence_functional(coarse).matrix

        def fine_set(coarse_index):
            block_pos, rest = divmod(coarse_index, sizes[1])
            members = range(res.size - 1) if block_pos == 0 else [res.size - 1]
            return [m * sizes[1] + rest for m in members]

        for ci in range(d_coarse.shape[0]):
            for cj in range(d_coarse.shape[0]):
                expected = sum(
                    d_fine[i, j] for i in fine_set(ci) for j in fine_set(cj)
                )
                assert abs(d_coarse[ci, cj] - expected) < 1e-9


class TestGramFactor:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        state_kind=st.sampled_from(["mixed", "pure", "rank_deficient"]),
    )
    def test_matches_chain_operator_reference(self, seed, state_kind):
        # at most three outcomes in dim 4-5 forces projectors of rank >= 2
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        fam = random_family(rng, dim, int(rng.integers(1, 4)), max_resolution_size=3)
        if state_kind != "mixed":
            rank = 1 if state_kind == "pure" else int(rng.integers(1, dim))
            fam = fam.with_state(random_rank_state(rng, dim, rank))
        rho = fam.state.matrix
        chains = [chain_operator(fam, h) for h in fam.fine_histories()]
        reference = np.array(
            [[np.trace(ci @ rho @ cj.conj().T) for cj in chains] for ci in chains]
        )

        d = decoherence_functional(fam)
        assert np.max(np.abs(d.matrix - reference)) <= 1e-12
        assert np.max(np.abs(fine_probabilities(fam) - d.diagonal)) <= 1e-12

    def test_factor_reproduces_every_rank(self):
        rng = np.random.default_rng(5)
        for dim in range(1, 7):
            for rank in range(1, dim + 1):
                state = random_rank_state(rng, dim, rank)
                factor, delta = _state_factor(state)
                assert factor.shape == (dim, rank)
                assert np.all(delta > 0)
                rebuilt = (factor * delta) @ factor.conj().T
                assert np.max(np.abs(rebuilt - state.matrix)) <= 1e-12

    def test_factor_drops_a_slightly_negative_direction(self):
        u = random_unitary(3, np.random.default_rng(6))
        tol = 1e-10
        eigenvalues = np.array([0.6, 0.4 + tol / 2, -tol / 2])
        state = make_state((u * eigenvalues) @ u.conj().T, tol)
        factor, delta = _state_factor(state)
        assert factor.shape == (3, 2)
        assert np.all(delta > 0)
        assert np.max(np.abs((factor * delta) @ factor.conj().T - state.matrix)) <= tol

    def test_dyadic_family_is_exact(self, z_then_x_family):
        # a square-root-free factor keeps dyadic entries and exact zeros
        expected = 0.25 * np.array(
            [[1, 0, 1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, -1, 0, 1]], dtype=complex
        )
        assert np.array_equal(decoherence_functional(z_then_x_family).matrix, expected)


class TestSharedGramRows:
    @staticmethod
    def count_row_builds(monkeypatch):
        calls = []
        build = histories_module._gram_rows

        def counted(family, state):
            calls.append(state)
            return build(family, state)

        monkeypatch.setattr(histories_module, "_gram_rows", counted)
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_build_per_family(self, monkeypatch, seed):
        calls = self.count_row_builds(monkeypatch)
        fam = random_family(np.random.default_rng(seed), 4, 3)
        d = decoherence_functional(fam)
        probs = fine_probabilities(fam)
        assert calls == [fam.state]
        self.assert_same_as_unshared(fam, d, probs)

    def test_probabilities_first(self, monkeypatch):
        calls = self.count_row_builds(monkeypatch)
        fam = random_family(np.random.default_rng(9), 4, 2)
        probs = fine_probabilities(fam)
        d = decoherence_functional(fam)
        assert calls == [fam.state]
        self.assert_same_as_unshared(fam, d, probs)

    @staticmethod
    def assert_same_as_unshared(fam, d, probs):
        """What separately built rows give: the probabilities bit for bit,
        and to round-off each label's weighted squares summed over its own
        columns; D to round-off of the dense product; D is exactly
        Hermitian and its diagonal is the probabilities bit for bit."""
        rows, weights, offsets = gram = histories_module._gram_rows(fam, fam.state)
        assert np.array_equal(probs, histories_module._row_norms(*gram))
        squares = (rows.real**2 + rows.imag**2) * weights
        norms = [squares[:, lo:hi].sum(axis=(1, 2)) for lo, hi in zip(offsets, offsets[1:])]
        expected = np.array(norms).T.reshape(-1)  # lexicographic
        assert np.max(np.abs(probs - expected)) <= 1e-15
        assert np.max(np.abs(d.matrix - gram_matrix(*gram))) <= 1e-15
        assert np.array_equal(d.matrix, d.matrix.conj().T)
        assert np.array_equal(d.matrix.diagonal().real, probs)

    def test_additivity_scopes_share_the_rows(self, monkeypatch):
        calls = self.count_row_builds(monkeypatch)
        fam = random_family(np.random.default_rng(12), 4, 3)
        for scope in ("pairs", "partitions"):
            check_additivity(fam, scope=scope)
            assert calls == [fam.state]  # the first scope builds the rows
        probs = fine_probabilities(fam)
        d = decoherence_functional(fam)
        assert calls == [fam.state]
        self.assert_same_as_unshared(fam, d, probs)

    def test_cached_rows_are_read_only(self):
        fam = random_family(np.random.default_rng(5), 3, 2)
        rows, weights, offsets = fam._gram
        assert not rows.flags.writeable and not weights.flags.writeable
        assert isinstance(offsets, tuple)

    @pytest.mark.parametrize("mode", ["weak", "medium", "additivity"])
    def test_other_states_share_one_state_free_stack(self, monkeypatch, mode):
        calls = self.count_row_builds(monkeypatch)
        chains = []
        chain = histories_module._chain_rows

        def counted(family, rows):
            chains.append(rows)
            return chain(family, rows)

        # the robustness check calls its own imported binding
        monkeypatch.setattr(consistency_module, "_chain_rows", counted)
        fam = random_family(np.random.default_rng(11), 3, 2)
        states = [random_rank_state(np.random.default_rng(k), 3, 2) for k in range(3)]
        report = check_state_robustness(fam, states=states, mode=mode)
        # one chain from the identity, W, whose product with each state's
        # factor gives that state's rows; no rows of the family's own state
        assert calls == [] and len(chains) == 1
        assert np.array_equal(chains[0], np.eye(3))
        assert report.witness["inner"]["kind"] == ("partition" if mode == "additivity" else "pair")
        assert "_gram" not in vars(fam)


class TestLazyHistories:
    def test_a_read_only_sequence_equal_to_the_tuple(self):
        fam = random_family(np.random.default_rng(13), 3, 3)
        fine = tuple(fam.fine_histories())
        d = decoherence_functional(fam)
        lazy = d.histories
        assert lazy == fine and fine == lazy and lazy != fine[:-1]
        assert len(lazy) == d.n == len(fine)
        assert list(lazy) == list(fine)
        assert hash(lazy) == hash(fine) and {fine: 1}[lazy] == 1
        by_product = itertools.product(*(range(res.size) for res in fam.resolutions))
        assert [
            tuple(min(o.labels) for o in h.outcomes) for h in lazy
        ] == [
            tuple(res.labels[i].index for res, i in zip(fam.resolutions, combo))
            for combo in by_product
        ]
        assert [lazy[k] for k in range(-len(fine), len(fine))] == [*fine, *fine]
        assert lazy[np.int64(2)] == fine[2]
        assert lazy[1:7:2] == fine[1:7:2]
        with pytest.raises(IndexError):
            lazy[len(fine)]
        with pytest.raises(TypeError):
            lazy[0] = fine[0]
        # the public constructor keeps it, and makes a tuple of anything else
        assert DecoherenceFunctional(lazy, d.matrix).histories is lazy
        given = [
            DecoherenceFunctional(histories, d.matrix)
            for histories in ((h for h in fam.fine_histories()), list(fine), fine)
        ]
        for other in given:
            assert isinstance(other.histories, tuple) and other.histories == fine
            assert np.array_equal(other.matrix, d.matrix) and other.tol == d.tol

    def test_histories_are_made_on_access_only(self, monkeypatch):
        fam = random_family(np.random.default_rng(14), 3, 3)
        made = []
        check = histories_module.History.__post_init__

        def counted(self):
            made.append(self)
            check(self)

        monkeypatch.setattr(histories_module.History, "__post_init__", counted)
        d = decoherence_functional(fam)
        assert made == []
        assert d.histories[5] == d.histories[5] and len(made) == 2


class TestConstructorValidation:
    # caller-supplied matrices keep the full validation, eigenvalues included
    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.5, 0.6], [0.6, 0.5]], "not positive semidefinite"),
            ([[0.5, 0.1], [0.0, 0.5]], "not Hermitian"),
            ([[0.5, 0.0], [0.0, 0.25]], "trace"),
        ],
        ids=["non_psd", "non_hermitian", "off_trace"],
    )
    def test_rejects_invalid_matrix(self, matrix, message):
        histories = tuple(single_slot_family(np.eye(2) / 2, z_resolution()).fine_histories())
        with pytest.raises(InvalidHistoryError, match=message):
            DecoherenceFunctional(histories, matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.5, 0.0], [0.0, np.nan]],
            [[1.0, np.nan], [np.nan, 0.0]],
            [[0.5, complex(0.0, np.nan)], [0.0, 0.5]],
            [[0.5, np.inf], [np.inf, 0.5]],
        ],
        ids=["nan_diagonal", "nan_pair", "nan_imaginary", "inf_pair"],
    )
    def test_rejects_non_finite_matrix(self, matrix):
        histories = tuple(single_slot_family(np.eye(2) / 2, z_resolution()).fine_histories())
        with pytest.raises(InvalidHistoryError, match="finite"):
            DecoherenceFunctional(histories, matrix)

    def test_rejects_a_single_nan(self):
        state = np.eye(2) / 2
        fam = single_slot_family(state, make_resolution([("all", np.eye(2))]))
        with pytest.raises(InvalidHistoryError, match="finite"):
            DecoherenceFunctional(tuple(fam.fine_histories()), [[np.nan]])


class TestPredictiveConditional:
    def test_trivial_future_is_certain(self, same_basis_family):
        fam = same_basis_family
        given = fam.history({-1: ["z0"], 0: ["z0"]})
        assert predictive_conditional(fam, fam.history(), given) == 1.0

    def test_deterministic_propagation(self, same_basis_family):
        fam = same_basis_family
        given = fam.history({-1: ["z0"], 0: ["z0"]})
        assert predictive_conditional(fam, fam.history({1: ["z0"]}), given) == 1.0
        assert predictive_conditional(fam, fam.history({1: ["z1"]}), given) == 0.0

    def test_quarter_turn_flat_golden(self):
        # spin rotating about z through pi/2: conditioning on z leaves x even
        grid = TimeGrid((0.0, np.pi / 2), 0)
        sched = build_schedule(grid, DynamicsSpec.from_hamiltonian(0.5 * PAULI_Z))
        fam = HistoryFamily(sched, (z_resolution(), x_resolution()), make_state(P_XP))
        given = fam.history({0: ["z0"]})
        plus = predictive_conditional(fam, fam.history({1: ["x+"]}), given)
        minus = predictive_conditional(fam, fam.history({1: ["x-"]}), given)
        assert plus == pytest.approx(0.5, abs=1e-12)
        assert minus == pytest.approx(0.5, abs=1e-12)

    def test_third_turn_golden(self):
        # x rotation through pi/3 starting from z0: cos^2(pi/6) = 3/4 stays
        grid = TimeGrid((0.0, np.pi / 3), 0)
        sched = build_schedule(grid, DynamicsSpec.from_hamiltonian(0.5 * PAULI_X))
        res = z_resolution()
        fam = HistoryFamily(sched, (res, z_resolution()), make_state(P_XP))
        given = fam.history({0: ["z0"]})
        stay = predictive_conditional(fam, fam.history({1: ["z0"]}), given)
        flip = predictive_conditional(fam, fam.history({1: ["z1"]}), given)
        assert stay == pytest.approx(0.75, abs=1e-12)
        assert flip == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one_without_consistency(self):
        rng = np.random.default_rng(24)
        import itertools

        for _ in range(5):
            fam = random_family(rng, 4, 3)
            offsets = list(fam.offsets())
            future_offsets = [o for o in offsets if o >= 1]
            if not future_offsets:
                continue
            given = fam.history(
                {o: [fam.resolution_at(o).labels[0].index] for o in offsets if o <= 0}
            )
            if history_probability(fam, given) < 1e-6:
                continue
            lists = [
                [l.index for l in fam.resolution_at(o).labels] for o in future_offsets
            ]
            total = sum(
                predictive_conditional(
                    fam, fam.history(dict(zip(future_offsets, combo))), given
                )
                for combo in itertools.product(*lists)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_condition_is_an_error(self):
        fam_grid = TimeGrid((0.0, 1.0), 0)
        sched = build_schedule(fam_grid, DynamicsSpec.trivial(2))
        fam = HistoryFamily(sched, (z_resolution(), z_resolution()), make_state(P_Z0))
        given = fam.history({0: ["z1"]})
        with pytest.raises(ZeroConditionProbabilityError):
            predictive_conditional(fam, fam.history({1: ["z1"]}), given)

    def test_future_must_be_future(self, same_basis_family):
        fam = same_basis_family
        given = fam.history({0: ["z0"]})
        bad_future = fam.history({-1: ["z0"]})
        with pytest.raises(InvalidHistoryError):
            predictive_conditional(fam, bad_future, given)


class TestRetrodiction:
    def test_trivial_past_is_certain(self, z_then_x_family):
        fam = z_then_x_family
        present = fam.resolution_at(0).outcome("x+")
        assert retrodictive_conditional(fam, fam.history(), present) == 1.0

    def test_consistent_family_sums_to_one(self, same_basis_family):
        fam = same_basis_family
        present = fam.resolution_at(0).outcome("z0")
        vals = [
            retrodictive_conditional(fam, fam.history({-1: [lab.index]}), present)
            for lab in fam.resolution_at(-1).labels
        ]
        assert sum(vals) == pytest.approx(1.0, abs=1e-10)

    def test_canonical_failure_golden(self, z_then_x_family):
        fam = z_then_x_family
        present = fam.resolution_at(0).outcome("x+")
        r0 = retrodictive_conditional(fam, fam.history({-1: ["z0"]}), present)
        r1 = retrodictive_conditional(fam, fam.history({-1: ["z1"]}), present)
        assert r0 == pytest.approx(0.25, abs=1e-12)
        assert r1 == pytest.approx(0.25, abs=1e-12)
        assert r0 + r1 == pytest.approx(0.5, abs=1e-12)

    def test_normalized_canonical_golden(self, z_then_x_family):
        fam = z_then_x_family
        present = fam.resolution_at(0).outcome("x+")
        n0 = retrodictive_normalized(fam, fam.history({-1: ["z0"]}), present)
        n1 = retrodictive_normalized(fam, fam.history({-1: ["z1"]}), present)
        assert n0 == pytest.approx(0.5, abs=1e-12)
        assert n0 + n1 == pytest.approx(1.0, abs=1e-12)

    def test_normalized_equals_plain_when_consistent(self, same_basis_family):
        fam = same_basis_family
        present = fam.resolution_at(0).outcome("z0")
        for lab in fam.resolution_at(-1).labels:
            past = fam.history({-1: [lab.index]})
            plain = retrodictive_conditional(fam, past, present)
            normalized = retrodictive_normalized(fam, past, present)
            assert plain == pytest.approx(normalized, abs=1e-10)

    def test_single_past_normalizes_to_one(self):
        grid = TimeGrid((0.0, 1.0), 1)
        sched = build_schedule(grid, DynamicsSpec.trivial(2))
        res = make_resolution([("all", np.eye(2))])
        fam = HistoryFamily(sched, (res, z_resolution()), make_state(P_XP))
        present = fam.resolution_at(0).outcome("z0")
        past = fam.history({-1: ["all"]})
        assert retrodictive_normalized(fam, past, present) == 1.0

    def test_past_must_be_past(self, z_then_x_family):
        fam = z_then_x_family
        present = fam.resolution_at(0).outcome("x+")
        bad_past = fam.history({0: ["x+"]})
        with pytest.raises(InvalidHistoryError):
            retrodictive_conditional(fam, bad_past, present)

    def test_retrodictive_sums_track_weak_consistency(
        self, same_basis_family, z_then_x_family
    ):
        # plain retrodictive values sum to 1 exactly when the (sub)family
        # decoheres: the consistent family realizes the "if" direction, the
        # canonical witness the "only if"
        from decohist import check_weak_consistency, decoherence_functional

        def past_sum(fam, present_label):
            present = fam.resolution_at(0).outcome(present_label)
            return sum(
                retrodictive_conditional(fam, fam.history({-1: [lab.index]}), present)
                for lab in fam.resolution_at(-1).labels
            )

        consistent = same_basis_family
        assert check_weak_consistency(decoherence_functional(consistent)).passed
        assert past_sum(consistent, "z0") == pytest.approx(1.0, abs=1e-9)

        witness = z_then_x_family
        assert not check_weak_consistency(decoherence_functional(witness)).passed
        assert abs(past_sum(witness, "x+") - 1.0) > 0.4


class TestHistoryAlgebra:
    def test_subset_is_reflexive(self, z_then_x_family):
        h = z_then_x_family.history({-1: ["z0"]})
        assert history_subset(h, h)

    def test_subset_componentwise(self, z_then_x_family):
        fine = z_then_x_family.history({-1: ["z0"], 0: ["x+"]})
        coarse = z_then_x_family.history({0: ["x+"]})
        assert history_subset(fine, coarse)
        assert not history_subset(coarse, fine)

    def test_union_and_intersection_one_slot_apart(self, z_then_x_family):
        fam = z_then_x_family
        a = fam.history({-1: ["z0"], 0: ["x+"]})
        b = fam.history({-1: ["z1"], 0: ["x+"]})
        u = history_union(a, b)
        assert u.outcome_at(-1).labels == frozenset({0, 1})
        assert history_intersection(a, b) is None

    def test_union_undefined_across_two_slots(self, z_then_x_family):
        fam = z_then_x_family
        a = fam.history({-1: ["z0"], 0: ["x+"]})
        b = fam.history({-1: ["z1"], 0: ["x-"]})
        u = history_union(a, b)
        assert isinstance(u, UndefinedUnion)
        assert u.differing_offsets == (-1, 0)
        assert "union" in u.reason

    def test_intersection_of_overlapping(self, z_then_x_family):
        fam = z_then_x_family
        a = fam.history({-1: ["z0", "z1"], 0: ["x+"]})
        b = fam.history({-1: ["z0"]})
        common = history_intersection(a, b)
        assert common == fam.history({-1: ["z0"], 0: ["x+"]})

    def test_family_mismatch(self, z_then_x_family, same_basis_family):
        with pytest.raises(FamilyMismatchError):
            history_union(z_then_x_family.history(), same_basis_family.history())

    def test_equal_on_one_family_with_equal_labels(self, z_then_x_family):
        fam = z_then_x_family
        twin = HistoryFamily(fam.schedule, fam.resolutions, fam.state)
        specs = [{}, {-1: ["z0"]}, {-1: ["z1"], 0: ["x+"]}, {0: ["x-"]}]
        for spec in specs:
            a, b = fam.history(spec), fam.history(spec)
            assert a is not b and a == b and hash(a) == hash(b) and {a: spec}[b] is spec
            assert a != twin.history(spec)
            assert a != tuple(a.outcomes) and a != (a.family, a.outcomes)
        assert len({fam.history(spec) for spec in specs}) == len(specs)
        # the full outcome, given or left out, is one history
        assert fam.history({-1: ["z0", "z1"]}) == fam.history()

    def test_unknown_offset_rejected(self, z_then_x_family):
        with pytest.raises(InvalidHistoryError):
            z_then_x_family.history({7: ["z0"]})
