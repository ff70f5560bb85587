import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    conditional_via_oracle,
    fine_probabilities,
    from_basis,
    history_probability,
    make_state,
    predictive_conditional,
    retrodictive_conditional,
    sequential_probability,
)
from decohist import linalg as linalg_module
from decohist import lueders as lueders_module
from decohist import make_resolution
from decohist.errors import (
    InvalidHistoryError,
    NotPositiveError,
    ZeroConditionProbabilityError,
)
from decohist.histories import History
from decohist.sampling import random_block_sizes, random_family, random_unitary

from conftest import P_Z0, PAULI_Z, random_rank_state, x_resolution, z_resolution


def two_z_slots(state):
    grid = TimeGrid((0.0, 1.0), 1)
    sched = build_schedule(grid, DynamicsSpec.trivial(2))
    return HistoryFamily(sched, (z_resolution(), z_resolution()), make_state(state))


class TestSequentialProbability:
    def test_repeatable_outcome_is_certain(self):
        fam = two_z_slots(P_Z0)
        prob, trace = sequential_probability(fam, fam.history({-1: ["z0"], 0: ["z0"]}))
        assert prob == 1.0
        assert [s.probability for s in trace.steps] == [1.0, 1.0]
        assert not trace.truncated

    def test_contradictory_outcome_truncates(self):
        fam = two_z_slots(P_Z0)
        prob, trace = sequential_probability(fam, fam.history({-1: ["z0"], 0: ["z1"]}))
        assert prob == 0.0
        assert trace.truncated is False  # the zero step is the final slot
        assert trace.steps[-1].probability == 0.0
        assert trace.steps[-1].post_state is None

    def test_early_zero_step_truncates(self):
        fam = two_z_slots(P_Z0)
        prob, trace = sequential_probability(fam, fam.history({-1: ["z1"], 0: ["z1"]}))
        assert prob == 0.0
        assert trace.truncated
        assert len(trace.steps) == 1

    def test_canonical_half_half(self, z_then_x_family):
        fam = z_then_x_family
        prob, trace = sequential_probability(fam, fam.history({-1: ["z0"], 0: ["x+"]}))
        assert prob == pytest.approx(0.25, abs=1e-14)
        assert [s.probability for s in trace.steps] == pytest.approx([0.5, 0.5])

    def test_cumulative_is_step_product(self):
        rng = np.random.default_rng(31)
        fam = random_family(rng, 4, 3)
        for h in fam.fine_histories():
            prob, trace = sequential_probability(fam, h)
            assert prob == pytest.approx(trace.step_product(), abs=1e-12)
            for s in trace.steps:
                assert 0.0 <= s.probability <= 1.0

    def test_post_states_are_valid(self, z_then_x_family):
        fam = z_then_x_family
        _, trace = sequential_probability(fam, fam.history({-1: ["z0"], 0: ["x+"]}))
        for s in trace.steps:
            assert s.post_state is not None
            assert abs(np.trace(s.post_state.matrix) - 1) < 1e-12

    def test_agrees_with_chain_probability(self):
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(15):
            fam = random_family(rng, int(rng.choice([2, 4, 8])), int(rng.integers(2, 5)))
            probs = fine_probabilities(fam)
            for h, p in zip(fam.fine_histories(), probs):
                q, _ = sequential_probability(fam, h)
                worst = max(worst, abs(p - q))
        assert worst < 1e-10

    def test_wrong_family(self, z_then_x_family, same_basis_family):
        with pytest.raises(InvalidHistoryError):
            sequential_probability(z_then_x_family, same_basis_family.history())


def basis_family(rng, dim, n_slots):
    """Basis-block resolutions, permutation dynamics and a diagonal state of
    random rank: every step is exact, so zero steps end whole prefixes."""
    grid = TimeGrid(tuple(float(t) for t in range(n_slots)), int(rng.integers(n_slots)))
    perms = [np.eye(dim)[rng.permutation(dim)] for _ in range(n_slots - 1)]
    spec = DynamicsSpec.from_steps(perms) if perms else DynamicsSpec.trivial(dim)
    resolutions = []
    for _ in range(n_slots):
        order = rng.permutation(dim).tolist()
        edges = np.cumsum([0, *random_block_sizes(dim, rng)])
        resolutions.append(from_basis(dim, [order[a:b] for a, b in zip(edges, edges[1:])]))
    weights = rng.random(dim) * (rng.random(dim) < 0.6)
    weights[int(rng.integers(dim))] += 1.0
    state = make_state(np.diag(weights / weights.sum()))
    return HistoryFamily(build_schedule(grid, spec, dim=dim), tuple(resolutions), state)


def coarse_histories(rng, family, count):
    """Histories with a random nonempty label set at every slot."""
    out = []
    for _ in range(count):
        outcomes = []
        for res in family.resolutions:
            keep = rng.random(res.size) < 0.5
            keep[int(rng.integers(res.size))] = True
            outcomes.append(res.outcome([lab.index for lab, k in zip(res.labels, keep) if k]))
        out.append(History(family, tuple(outcomes)))
    return out


def trace_fields(result):
    prob, trace = result
    steps = [
        (
            s.offset,
            s.labels,
            s.probability,
            None if s.post_state is None else (s.post_state.matrix.tobytes(), s.post_state.tol),
        )
        for s in trace.steps
    ]
    return prob, trace.probability, trace.truncated, steps


def unmemoized(family, history):
    """The oracle on a family object no earlier call has seen."""
    fresh = HistoryFamily(family.schedule, family.resolutions, family.state)
    return sequential_probability(fresh, History(fresh, history.outcomes))


def stepwise(family, history):
    """The oracle's step function applied slot by slot to one label set at a
    time, with no memo."""
    steps = []
    rho = family.state.matrix
    for pos, outcome in enumerate(history.outcomes):
        (step,) = lueders_module._steps(family, pos, [outcome.labels], rho)
        if isinstance(step, Exception):
            raise step
        steps.append(step)
        if steps[-1].post_state is None:
            break
        rho = steps[-1].post_state.matrix
    prob = math.prod(s.probability for s in steps)
    return prob, lueders_module.MeasurementTrace(
        tuple(steps), prob, len(steps) < family.n_slots
    )


def assert_unmemoized(family, history, result):
    expected = trace_fields(stepwise(family, history))
    assert trace_fields(result) == expected
    assert trace_fields(unmemoized(family, history)) == expected


class TestPrefixMemo:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "rank_deficient", "basis"]),
        dim=st.integers(1, 4),
        n_slots=st.integers(1, 3),
        shuffled=st.booleans(),
    )
    def test_matches_a_fresh_family(self, seed, kind, dim, n_slots, shuffled):
        rng = np.random.default_rng(seed)
        if kind == "basis":
            first = basis_family(rng, dim, n_slots)
            second = first.with_state(basis_family(rng, dim, n_slots).state)
        else:
            first = random_family(rng, dim, n_slots, max_resolution_size=3)
            rank = int(rng.integers(1, dim + 1)) if kind == "rank_deficient" else dim
            first = first.with_state(random_rank_state(rng, dim, rank))
            second = first.with_state(random_rank_state(rng, dim, rank))
        # the two families share schedule and resolutions but not the state,
        # so a memo keyed by anything but the family object mixes them up
        calls = []
        for fam in (first, second):
            histories = [*fam.fine_histories(), *coarse_histories(rng, fam, 4)]
            calls.append([(fam, h) for h in histories])
        if shuffled:
            pool = calls[0] + calls[1]
            calls = [pool[k] for k in rng.integers(len(pool), size=2 * len(pool))]
        else:
            calls = [c for pair in itertools.zip_longest(*calls) for c in pair if c]
        for fam, h in calls:
            assert_unmemoized(fam, h, sequential_probability(fam, h))

    @pytest.mark.parametrize(
        "labels, truncated",
        [([("z1", "z0"), ("z1", "z1"), ("z1", "z0")], True), ([("z0", "z1")] * 2, False)],
        ids=["early", "final"],
    )
    def test_reused_zero_step_keeps_truncation(self, labels, truncated):
        fam = two_z_slots(P_Z0)
        for past, present in labels:
            h = fam.history({-1: [past], 0: [present]})
            prob, trace = sequential_probability(fam, h)
            assert prob == 0.0 and trace.truncated is truncated
            assert_unmemoized(fam, h, (prob, trace))

    def test_lexicographic_sweep_steps_once_per_prefix(self, monkeypatch):
        calls = []
        steps = lueders_module._steps

        def counted(family, pos, label_sets, rho):
            calls.extend([pos] * len(label_sets))
            return steps(family, pos, label_sets, rho)

        monkeypatch.setattr(lueders_module, "_steps", counted)
        fam = random_family(np.random.default_rng(34), 4, 3)
        for h in fam.fine_histories():
            sequential_probability(fam, h)
        shape = fam.shape
        assert len(calls) == sum(math.prod(shape[: k + 1]) for k in range(len(shape)))

    def test_memo_does_not_keep_a_family_alive(self):
        fam = random_family(np.random.default_rng(35), 3, 2)
        sequential_probability(fam, fam.history())
        assert fam in lueders_module._last_trace
        ref = weakref.ref(fam)
        del fam
        gc.collect()
        assert ref() is None


def exact_resolution(rng, dim, size):
    """``size`` projectors onto random subspaces that together span ``dim``."""
    cuts = np.sort(rng.choice(np.arange(1, dim), size=size - 1, replace=False))
    edges = [0, *cuts.tolist(), dim]
    v = random_unitary(dim, rng)
    blocks = [v[:, a:b] for a, b in zip(edges, edges[1:])]
    return make_resolution([(f"o{k}", b @ b.conj().T) for k, b in enumerate(blocks)])


def exact_family(rng, dim, shape):
    base = random_family(rng, dim, len(shape))
    resolutions = tuple(exact_resolution(rng, dim, size) for size in shape)
    return HistoryFamily(base.schedule, resolutions, base.state)


def count_steps(monkeypatch, fam):
    """Record (slot position, number of label sets) of every batched step on
    the family object ``fam``."""
    calls = []
    steps = lueders_module._steps

    def counted(family, pos, label_sets, rho):
        if family is fam:
            calls.append((pos, len(label_sets)))
        return steps(family, pos, label_sets, rho)

    monkeypatch.setattr(lueders_module, "_steps", counted)
    return calls


def assert_levels_bounded(fam):
    """Each level's parents, and each parent's children, are pairwise
    disjoint label sets of their slots, so level k holds at most
    size_(k-1) * size_k post-states."""
    for pos, level in enumerate(lueders_module._last_trace[fam][1]):
        parents = [label for labels in level if labels is not None for label in labels]
        assert len(parents) == len(set(parents))
        assert (None in level) == (pos == 0) and (pos > 0 or len(level) == 1)
        for children in level.values():
            held = [label for labels in children for label in labels]
            assert len(held) == len(set(held))
        above = fam.shape[pos - 1] if pos else 1
        assert sum(map(len, level.values())) <= above * fam.shape[pos]


class TestBatchedSteps:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 10),
        n_slots=st.integers(1, 3),
        shuffled=st.booleans(),
    )
    def test_matches_a_fresh_family_up_to_dim_10(self, seed, dim, n_slots, shuffled):
        # one slot has a label per dimension: the widest stacks a step makes
        rng = np.random.default_rng(seed)
        shape = [int(rng.integers(1, min(dim, 4) + 1)) for _ in range(n_slots)]
        shape[int(rng.integers(n_slots))] = dim
        fam = exact_family(rng, dim, shape)
        histories = [*fam.fine_histories(), *coarse_histories(rng, fam, 6)]
        if shuffled:
            histories = [histories[k] for k in rng.permutation(len(histories))]
        for h in histories:
            assert_unmemoized(fam, h, sequential_probability(fam, h))
            assert_levels_bounded(fam)

    def test_audit_shape_matches_a_fresh_family(self):
        fam = exact_family(np.random.default_rng(37), 10, (2, 10, 3))
        for h in fam.fine_histories():
            assert_unmemoized(fam, h, sequential_probability(fam, h))

    @pytest.mark.parametrize(
        "shape, steps",
        [
            # the first history fills each slot; (0, 1, 0) reads the last slot
            # ahead for parents 1-3; (1, 0, 0) the middle one for parents 1-3
            # and the last for (1, 0)-(1, 3); (2, 0, 0) and (3, 0, 0) the last
            ((4, 4, 4), [(0, 4), (1, 4), (2, 4), (2, 12), (1, 12), (2, 16), (2, 16), (2, 16)]),
            ((2, 10, 3), [(0, 2), (1, 10), (2, 3), (2, 27), (1, 10), (2, 30)]),
            (
                (3, 1, 2, 2),
                [(0, 3), (1, 1), (2, 2), (3, 2), (3, 2), (1, 2), (2, 2), (3, 4), (2, 2), (3, 4)],
            ),
        ],
    )
    def test_lexicographic_sweep_batch_counts(self, monkeypatch, shape, steps):
        fam = exact_family(np.random.default_rng(38), 10, shape)
        calls = count_steps(monkeypatch, fam)
        for h in fam.fine_histories():
            sequential_probability(fam, h)
        # one step per level to fill, and still one post-state per prefix
        assert calls == steps
        n = len(shape)
        assert sum(size for _, size in calls) == sum(
            math.prod(shape[: k + 1]) for k in range(n)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_a_sorted_sample_reads_nothing_ahead(self, monkeypatch, seed):
        # a sorted sample of 8 of 512 histories, as the benchmark's D gate
        # takes, measures what it would with no read-ahead
        rng = np.random.default_rng(seed)
        fam = exact_family(rng, 8, (8, 8, 8))
        sample = np.sort(rng.choice(512, size=8, replace=False))
        counts, results = [], []
        for ahead in (True, False):
            if not ahead:
                monkeypatch.setattr(lueders_module, "_successor_slot", lambda *args: None)
            fresh = HistoryFamily(fam.schedule, fam.resolutions, fam.state)
            calls = count_steps(monkeypatch, fresh)
            histories = list(fresh.fine_histories())
            results.append(
                [trace_fields(sequential_probability(fresh, histories[k])) for k in sample]
            )
            counts.append(calls)
        assert counts[0] == counts[1] and results[0] == results[1]
        # the first history fills three levels, each later one at most two
        assert sum(size for _, size in counts[0]) <= 3 * 8 + 7 * 2 * 8
        histories = list(fam.fine_histories())
        for k, fields in zip(sample, results[0]):
            assert trace_fields(unmemoized(fam, histories[k])) == fields

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(3, 4, 3), (2, 10, 3), (4, 2, 2, 2)]),
    )
    def test_interleaved_sweeps_and_sparse_calls(self, seed, shape):
        # stretches of the lexicographic sweep, each from a random start,
        # between random fine and coarse calls on the same family object
        rng = np.random.default_rng(seed)
        fam = exact_family(rng, 10, shape)
        fine = list(fam.fine_histories())
        calls = []
        for _ in range(4):
            start = int(rng.integers(len(fine)))
            calls += fine[start : start + int(rng.integers(2, 12))]
            calls += [fine[k] for k in rng.integers(len(fine), size=2)]
            calls += coarse_histories(rng, fam, 2)
        for h in calls:
            assert_unmemoized(fam, h, sequential_probability(fam, h))
            assert_levels_bounded(fam)

    def test_one_fine_history_one_batch_per_slot(self, monkeypatch):
        fam = exact_family(np.random.default_rng(39), 6, (3, 6, 2))
        calls = count_steps(monkeypatch, fam)
        sequential_probability(fam, next(fam.fine_histories()))
        assert calls == [(0, 3), (1, 6), (2, 2)]

    def test_coarse_outcome_is_measured_alone(self, monkeypatch):
        fam = exact_family(np.random.default_rng(40), 6, (3, 6, 2))
        calls = count_steps(monkeypatch, fam)
        sequential_probability(fam, fam.history())
        assert calls == [(0, 1), (1, 1), (2, 1)]

    @pytest.mark.parametrize(
        "excess, clamped",
        [(0.5 * lueders_module.STEP_CLAMP, True), (5 * lueders_module.STEP_CLAMP, False)],
    )
    def test_step_probability_clamp(self, excess, clamped):
        fam = two_z_slots(P_Z0)
        rho = (1.0 + excess) * P_Z0
        (step,) = lueders_module._steps(fam, 0, [frozenset({0})], rho)
        assert step.probability == (1.0 if clamped else 1.0 + excess)

    @staticmethod
    def poison_z1(monkeypatch):
        """Make the validator reject |1><1|, the post-state of z1 (and of no
        x outcome): NotPositiveError(-1.0) instead of a state."""
        errors = linalg_module._state_errors

        def poisoned(stack, tols):
            out = errors(stack, tols)
            return [NotPositiveError(-1.0) if m[1, 1].real > 0.9 else e for m, e in zip(stack, out)]

        monkeypatch.setattr(linalg_module, "_state_errors", poisoned)

    @staticmethod
    def z_then_x_mixed():
        grid = TimeGrid((0.0, 1.0), 1)
        sched = build_schedule(grid, DynamicsSpec.trivial(2))
        return HistoryFamily(
            sched, (z_resolution(), x_resolution()), make_state(np.eye(2) / 2)
        )

    @pytest.mark.parametrize("first", ["z0", "z1"])
    def test_failed_sibling_is_isolated(self, monkeypatch, first):
        self.poison_z1(monkeypatch)
        fam = self.z_then_x_mixed()
        calls = count_steps(monkeypatch, fam)
        order = [(first, "x+"), ("z0", "x-"), ("z1", "x-"), ("z0", "x+"), ("z1", "x+")]
        results = []
        for past, present in order:
            h = fam.history({-1: [past], 0: [present]})
            if past == "z1":
                with pytest.raises(NotPositiveError) as err:
                    sequential_probability(fam, h)
                assert err.value.min_eigenvalue == -1.0
            else:
                results.append((h, sequential_probability(fam, h)))
            # the level at the first slot never holds the failed sibling
            assert frozenset({1}) not in lueders_module._last_trace[fam][1][0][None]
        # slot 0: one batch of both labels, then z1 alone on each later ask;
        # slot 1: one batch each time the path comes back to z0 (twice)
        assert [c for c in calls if c[0] == 0] == [(0, 2), (0, 1), (0, 1)]
        assert [c for c in calls if c[0] == 1] == [(1, 2), (1, 2)]
        for h, (prob, trace) in results:
            assert prob == pytest.approx(0.25, abs=1e-15)
            assert_unmemoized(fam, h, (prob, trace))
        with pytest.raises(NotPositiveError):
            stepwise(fam, fam.history({-1: ["z1"], 0: ["x+"]}))


class TestConditionalViaOracle:
    def test_trivial_target(self, same_basis_family):
        fam = same_basis_family
        given = fam.history({-1: ["z0"], 0: ["z0"]})
        assert conditional_via_oracle(fam, fam.history(), given) == 1.0

    def test_matches_predictive_conditional(self):
        rng = np.random.default_rng(33)
        import itertools

        checked = 0
        while checked < 50:
            fam = random_family(rng, int(rng.choice([2, 4])), int(rng.integers(2, 4)))
            offsets = list(fam.offsets())
            future_offsets = [o for o in offsets if o >= 1]
            if not future_offsets:
                continue
            given_spec = {
                o: [fam.resolution_at(o).labels[0].index] for o in offsets if o <= 0
            }
            given = fam.history(given_spec)
            if history_probability(fam, given) < 1e-6:
                continue
            lists = [
                [l.index for l in fam.resolution_at(o).labels] for o in future_offsets
            ]
            for combo in itertools.product(*lists):
                future = fam.history(dict(zip(future_offsets, combo)))
                engine = predictive_conditional(fam, future, given)
                oracle = conditional_via_oracle(fam, future, given)
                assert engine == pytest.approx(oracle, abs=1e-10)
                checked += 1

    def test_matches_retrodictive_conditional(self, z_then_x_family):
        fam = z_then_x_family
        present = fam.resolution_at(0).outcome("x+")
        given = fam.history({0: ["x+"]})
        for lab in ("z0", "z1"):
            past = fam.history({-1: [lab]})
            engine = retrodictive_conditional(fam, past, present)
            oracle = conditional_via_oracle(fam, past, given)
            assert engine == pytest.approx(oracle, abs=1e-12)

    def test_deterministic_family_gives_zero_or_one(self):
        # projectors commute with H = sigma_z and the state is an eigenstate
        grid = TimeGrid((0.0, 1.0, 2.0), 0)
        sched = build_schedule(grid, DynamicsSpec.from_hamiltonian(PAULI_Z))
        res = z_resolution()
        fam = HistoryFamily(sched, (res, res, res), make_state(P_Z0))
        given = fam.history({0: ["z0"]})
        for labels in (["z0"], ["z1"]):
            for off in (1, 2):
                value = conditional_via_oracle(fam, fam.history({off: labels}), given)
                assert value in (0.0, 1.0)

    def test_zero_condition(self):
        fam = two_z_slots(P_Z0)
        given = fam.history({0: ["z1"]})
        with pytest.raises(ZeroConditionProbabilityError):
            conditional_via_oracle(fam, fam.history({-1: ["z0"]}), given)

    def test_split_validation(self, same_basis_family):
        fam = same_basis_family
        # target and given both claiming the future is not a valid split
        target = fam.history({1: ["z0"]})
        given = fam.history({1: ["z1"]})
        with pytest.raises(InvalidHistoryError):
            conditional_via_oracle(fam, target, given)
