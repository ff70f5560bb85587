from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    from_basis,
    heisenberg_projector,
    heisenberg_resolution,
    make_projector,
    make_state,
    propagator,
)
from decohist import linalg as linalg_module
from decohist.dynamics import DynamicsSchedule
from decohist.errors import (
    CountMismatchError,
    DimensionMismatchError,
    NotHermitianError,
    NotIdempotentError,
    NotUnitaryError,
    SlotOutOfRangeError,
)
from decohist.sampling import random_family, random_unitary

from conftest import P_XM, P_XP, PAULI_X, PAULI_Z, x_resolution


class TestTimeGrid:
    def test_offsets(self):
        grid = TimeGrid((0.0, 1.0, 2.5), present_index=1)
        assert list(grid.offsets()) == [-1, 0, 1]
        assert grid.position(-1) == 0
        assert grid.offset_of(2) == 1

    def test_monotonicity(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0, 0.0), 0)
        with pytest.raises(ValueError):
            TimeGrid((1.0, 0.5), 0)

    def test_present_in_range(self):
        with pytest.raises(SlotOutOfRangeError):
            TimeGrid((0.0, 1.0), 2)

    def test_needs_a_slot(self):
        with pytest.raises(ValueError):
            TimeGrid((), 0)


class TestPropagator:
    def test_zero_hamiltonian(self):
        assert np.allclose(propagator(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_diagonal_phases(self):
        omega = 1.3
        dt = 0.4
        u = propagator(np.diag([0.0, omega]), dt)
        assert np.allclose(u, np.diag([1.0, np.exp(-1j * omega * dt)]))

    def test_pauli_x_quarter_turn(self):
        # cos(dt) I - i sin(dt) sigma_x at dt = pi/2
        u = propagator(PAULI_X, np.pi / 2)
        assert np.allclose(u, -1j * PAULI_X, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            propagator(np.array([[0, 1], [0, 0]]), 1.0)

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = 0.5 * (g + g.conj().T)
            dt1, dt2 = rng.uniform(0.1, 2.0, size=2)
            lhs = propagator(h, dt1) @ propagator(h, dt2)
            rhs = propagator(h, dt1 + dt2)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_result_is_unitary(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u = propagator(0.5 * (g + g.conj().T), 0.9)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10


class TestBuildSchedule:
    def test_trivial_dynamics(self):
        grid = TimeGrid((0.0, 1.0, 2.0), 0)
        sched = build_schedule(grid, DynamicsSpec.trivial(2))
        for u in sched.cumulative:
            assert np.allclose(u, np.eye(2))

    def test_single_slot(self):
        sched = build_schedule(TimeGrid((0.0,), 0), DynamicsSpec.trivial(2))
        assert np.array_equal(sched.cumulative[0], np.eye(2))

    def test_one_step_composition(self):
        w = propagator(PAULI_X, 0.3)
        grid = TimeGrid((0.0, 1.0), 0)
        sched = build_schedule(grid, DynamicsSpec.from_steps([w]), reference=0)
        assert np.array_equal(sched.cumulative[0], np.eye(2))
        assert np.array_equal(sched.cumulative[1], w)

    def test_reference_slot_is_identity_exactly(self):
        grid = TimeGrid((0.0, 1.0, 2.0), 1)
        h = 0.7 * PAULI_X
        sched = build_schedule(grid, DynamicsSpec.from_hamiltonian(h), reference=1)
        assert np.array_equal(sched.cumulative[1], np.eye(2))

    def test_backward_composition_matches_exponential(self):
        # with a time-independent H the cumulative at an earlier slot is the
        # exponential with a negative time difference
        grid = TimeGrid((0.0, 1.0, 2.0), 2)
        h = 0.7 * PAULI_X + 0.2 * PAULI_Z
        sched = build_schedule(grid, DynamicsSpec.from_hamiltonian(h), reference=2)
        assert np.max(np.abs(sched.cumulative[0] - propagator(h, -2.0))) < 1e-10

    def test_step_count_mismatch(self):
        grid = TimeGrid((0.0, 1.0, 2.0), 0)
        with pytest.raises(CountMismatchError):
            build_schedule(grid, DynamicsSpec.from_steps([np.eye(2)]))

    def test_non_unitary_step_rejected(self):
        with pytest.raises(NotUnitaryError):
            DynamicsSpec.from_steps([0.5 * np.eye(2)])

    def test_reference_out_of_range(self):
        grid = TimeGrid((0.0, 1.0), 0)
        with pytest.raises(SlotOutOfRangeError):
            build_schedule(grid, DynamicsSpec.trivial(2), reference=5)

    def test_spec_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            DynamicsSpec(hamiltonian=np.eye(2), step_unitaries=[np.eye(2)])

    @pytest.mark.parametrize(
        "spec", [DynamicsSpec.trivial(2), DynamicsSpec.from_steps([np.eye(2)])], ids=["h", "steps"]
    )
    @pytest.mark.parametrize("field", ["hamiltonian", "step_unitaries"])
    def test_assigning_a_field_raises(self, spec, field):
        # a validated spec cannot lose its one form: the schedule reads it
        with pytest.raises(FrozenInstanceError):
            setattr(spec, field, None)
        schedule = build_schedule(TimeGrid((0.0, 1.0), 0), spec)
        assert np.array_equal(schedule.cumulative[1], np.eye(2))
        assert spec == spec and hash(spec) == object.__hash__(spec)
        assert repr(spec).startswith("<decohist.dynamics.DynamicsSpec object at ")


class TestUnitarityChecks:
    """Step and cumulative unitaries are checked in entry order, all of one
    dimension; the first failure raises."""

    @staticmethod
    def deviation(u):
        return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))

    def test_first_failure_in_entry_order(self):
        rng = np.random.default_rng(21)
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        bad, worse = 1.001 * u, 1.01 * v
        nan = u.copy()
        nan[0, 0] = np.nan
        with pytest.raises(NotUnitaryError) as err:
            DynamicsSpec.from_steps([u, bad, worse, u[:, :2]])
        assert err.value.deviation == self.deviation(bad)
        with pytest.raises(DimensionMismatchError, match="square"):
            DynamicsSpec.from_steps([u, u[:, :2], bad])
        with pytest.raises(ValueError, match="finite"):
            DynamicsSpec.from_steps([v, nan, bad])
        with pytest.raises(DimensionMismatchError, match="share one dimension"):
            DynamicsSpec.from_steps([np.eye(2), np.eye(3), bad])
        grid = TimeGrid((0.0, 1.0, 2.0), 0)
        with pytest.raises(NotUnitaryError) as err:
            DynamicsSchedule(grid, 0, (np.eye(3), worse, np.eye(2)))
        assert err.value.deviation == self.deviation(worse)
        with pytest.raises(DimensionMismatchError, match="share one dimension"):
            DynamicsSchedule(grid, 0, (np.eye(3), np.eye(2), worse))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), count=st.integers(1, 5))
    def test_deviations_match_one_at_a_time(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        steps = [
            random_unitary(dim, rng) * (1.0 + rng.choice([0.0, 1e-12, 1e-9, 1e-6]))
            for _ in range(count)
        ]
        devs = [self.deviation(u) for u in steps]
        failing = [dev for dev in devs if dev > 1e-10]
        if failing:
            with pytest.raises(NotUnitaryError) as err:
                DynamicsSpec.from_steps(steps)
            assert err.value.deviation == failing[0]
        else:
            spec = DynamicsSpec.from_steps(steps)
            for got, u in zip(spec.step_unitaries, steps):
                assert np.array_equal(got, u) and not got.flags.writeable


class TestHeisenbergLift:
    def test_identity_dynamics_leaves_projector(self):
        sched = build_schedule(TimeGrid((0.0, 1.0), 0), DynamicsSpec.trivial(2))
        p = make_projector(P_XP)
        assert np.array_equal(heisenberg_projector(sched, 1, p).matrix, P_XP)

    def test_identity_projector_is_fixed(self):
        h = 0.3 * PAULI_X
        sched = build_schedule(TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_hamiltonian(h))
        lifted = heisenberg_projector(sched, 1, make_projector(np.eye(2)))
        assert np.allclose(lifted.matrix, np.eye(2))

    def test_pi_z_rotation_flips_x(self):
        # half-spin z rotation through pi sends the +x axis to -x
        grid = TimeGrid((0.0, np.pi), 0)
        sched = build_schedule(grid, DynamicsSpec.from_hamiltonian(0.5 * PAULI_Z))
        lifted = heisenberg_projector(sched, 1, make_projector(P_XP))
        assert np.max(np.abs(lifted.matrix - P_XM)) < 1e-12

    def test_slot_out_of_range(self):
        sched = build_schedule(TimeGrid((0.0,), 0), DynamicsSpec.trivial(2))
        with pytest.raises(SlotOutOfRangeError):
            heisenberg_projector(sched, 3, make_projector(P_XP))

    def test_lift_is_valid_projector_for_random_inputs(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 8):
            steps = [random_unitary(dim, rng)]
            sched = build_schedule(
                TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_steps(steps)
            )
            v = random_unitary(dim, rng)
            cols = v[:, : dim // 2]
            p = make_projector(cols @ cols.conj().T)
            lifted = heisenberg_projector(sched, 1, p)
            err = np.max(np.abs(lifted.matrix @ lifted.matrix - lifted.matrix))
            assert err < 1e-9

    def test_lifted_resolution_is_valid(self):
        rng = np.random.default_rng(12)
        sched = build_schedule(
            TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_steps([random_unitary(2, rng)])
        )
        lifted = heisenberg_resolution(sched, 1, x_resolution())
        total = sum(p.matrix for p in lifted.projectors)
        assert np.max(np.abs(total - np.eye(2))) < 1e-9

    def test_lifted_random_resolution_dim8(self):
        from decohist.sampling import random_resolution

        rng = np.random.default_rng(13)
        sched = build_schedule(
            TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_steps([random_unitary(8, rng)])
        )
        res = random_resolution(8, rng, max_size=4)
        lifted = heisenberg_resolution(sched, 1, res)  # re-validates at 1e-9
        total = sum(p.matrix for p in lifted.projectors)
        assert np.max(np.abs(total - np.eye(8))) < 1e-9
        for a in range(lifted.size):
            for b in range(a + 1, lifted.size):
                product = lifted.projectors[a].matrix @ lifted.projectors[b].matrix
                assert np.max(np.abs(product)) < 1e-9


class TestLiftKernel:
    """Every lift goes through one stacked kernel; it must give, bit for
    bit, the per-projector product U^dagger P U."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 10),
        n_slots=st.integers(1, 3),
        size=st.integers(1, 10),
    )
    def test_lifted_stacks_are_the_per_projector_lift(self, seed, dim, n_slots, size):
        # random resolutions group random orthonormal columns in blocks, so
        # most carry degenerate (rank > 1) projectors
        fam = random_family(np.random.default_rng(seed), dim, n_slots, size)
        assert len(fam._lifted) == n_slots
        for pos, (stack, res) in enumerate(zip(fam._lifted, fam.resolutions)):
            u = fam.schedule.unitary(pos)
            want = np.stack([u.conj().T @ p.matrix @ u for p in res.projectors])
            assert stack.shape == want.shape
            assert stack.tobytes() == want.tobytes()
            assert not stack.flags.writeable
            one_by_one = [heisenberg_projector(fam.schedule, pos, p) for p in res.projectors]
            lifted = heisenberg_resolution(fam.schedule, pos, res).projectors
            for got in (one_by_one, lifted):
                assert np.stack([p.matrix for p in got]).tobytes() == want.tobytes()
                assert [p.tol for p in got] == [max(p.tol, 1e-9) for p in res.projectors]

    def test_dimension_mismatch(self):
        sched = build_schedule(TimeGrid((0.0, 1.0), 0), DynamicsSpec.trivial(2))
        with pytest.raises(DimensionMismatchError, match="projector dim 3"):
            heisenberg_projector(sched, 1, make_projector(np.eye(3)))

    def test_first_failing_projector_raises(self, monkeypatch):
        """The whole slot is validated as one stack; the first failure, in
        label order, is what the per-projector lift would have raised."""
        checks = linalg_module._projector_errors

        def poisoned(stack, tols):
            out = checks(stack, tols)
            if len(stack) > 1:
                out[1] = NotIdempotentError(1.0)
                out[2] = NotHermitianError(2.0)
            return out

        steps = [random_unitary(4, np.random.default_rng(3))]
        sched = build_schedule(TimeGrid((0.0, 1.0), 0), DynamicsSpec.from_steps(steps))
        res = from_basis(4, [[0], [1], [2], [3]])
        monkeypatch.setattr(linalg_module, "_projector_errors", poisoned)
        with pytest.raises(NotIdempotentError):
            heisenberg_resolution(sched, 1, res)
        fam = HistoryFamily(sched, (res, res), make_state(np.eye(4) / 4))
        with pytest.raises(NotIdempotentError):
            fam._lifted
