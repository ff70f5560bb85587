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
from decohist import lueders as lueders_module
from decohist.errors import (
    InvalidHistoryError,
    ZeroConditionProbabilityError,
)
from decohist.histories import History
from decohist.sampling import random_block_sizes, random_family

from conftest import P_Z0, PAULI_Z, random_rank_state, z_resolution


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
    """The oracle's step function applied slot by slot, with no memo."""
    steps = []
    rho = family.state.matrix
    for pos, outcome in enumerate(history.outcomes):
        steps.append(lueders_module._step(family, pos, outcome, rho))
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
        step = lueders_module._step

        def counted(family, pos, outcome, rho):
            calls.append(pos)
            return step(family, pos, outcome, rho)

        monkeypatch.setattr(lueders_module, "_step", counted)
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
