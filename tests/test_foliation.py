"""Probabilities of spacelike-separated events do not depend on the time
order chosen for them.

Two systems A and B that do not interact, H = H_A (x) I + I (x) H_B, start
in a product state rho_A (x) rho_B, and each slot measures one of them
alone, P (x) I or I (x) P.  The lifted projectors of A and of B then
commute, every chain operator is C_A (x) C_B, and the decoherence
functional factors: D, reordered to (A labels, B labels), is D_A (x) D_B,
whichever way the A and B times interleave.  D_A and D_B come from the
extended-precision reference on the local families, each with its state
evolved from the first joint slot to its own first slot.
"""

import itertools

import numpy as np
import pytest

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    decoherence_functional,
    make_resolution,
    make_state,
    propagator,
)
from decohist.sampling import random_hermitian, random_unitary

import reference
from conftest import random_rank_state

D_A, D_B = 2, 3
#: the B slots' outcome counts; A's two slots each have two outcomes
B_SIZES = (3, 2, 3)
TIMES = (0.0, 0.4, 1.1, 1.5, 2.3)


def basis_blocks(rng, dim: int, size: int) -> list[np.ndarray]:
    """``size`` orthogonal projectors summing to I_dim, of a random basis."""
    v = random_unitary(dim, rng)
    cuts = np.array_split(np.arange(dim), size)
    return [v[:, c] @ v[:, c].conj().T for c in cuts]


def local_family(hamiltonian, times, blocks, rho, t0) -> HistoryFamily:
    """One system's family over its own times, its state evolved from t0."""
    u = propagator(hamiltonian, times[0] - t0)
    schedule = build_schedule(TimeGrid(times, 0), DynamicsSpec.from_hamiltonian(hamiltonian))
    resolutions = tuple(make_resolution(list(enumerate(ps))) for ps in blocks)
    return HistoryFamily(schedule, resolutions, make_state(u @ rho @ u.conj().T))


@pytest.mark.parametrize("seed", range(2))
def test_spacelike_events_in_every_interleaving(seed):
    rng = np.random.default_rng(seed)
    h_a, h_b = random_hermitian(D_A, rng), random_hermitian(D_B, rng)
    rho_a, rho_b = random_rank_state(rng, D_A, 2).matrix, random_rank_state(rng, D_B, 2).matrix
    a_blocks = [basis_blocks(rng, D_A, 2) for _ in range(2)]
    b_blocks = [basis_blocks(rng, D_B, size) for size in B_SIZES]
    spec = DynamicsSpec.from_hamiltonian(np.kron(h_a, np.eye(D_B)) + np.kron(np.eye(D_A), h_b))
    joint_schedule = build_schedule(TimeGrid(TIMES, 0), spec)
    joint_state = make_state(np.kron(rho_a, rho_b))
    interleavings = list(itertools.combinations(range(len(TIMES)), 2))
    assert len(interleavings) == 10
    for a_slots in interleavings:
        b_slots = [k for k in range(len(TIMES)) if k not in a_slots]
        a_next, b_next = iter(a_blocks), iter(b_blocks)
        resolutions = []
        for k in range(len(TIMES)):
            if k in a_slots:
                ps = [np.kron(p, np.eye(D_B)) for p in next(a_next)]
            else:
                ps = [np.kron(np.eye(D_A), p) for p in next(b_next)]
            resolutions.append(make_resolution(list(enumerate(ps))))
        joint = HistoryFamily(joint_schedule, tuple(resolutions), joint_state)
        fam_a = local_family(h_a, [TIMES[k] for k in a_slots], a_blocks, rho_a, TIMES[0])
        fam_b = local_family(h_b, [TIMES[k] for k in b_slots], b_blocks, rho_b, TIMES[0])
        expected = np.kron(reference.decoherence_matrix(fam_a), reference.decoherence_matrix(fam_b))

        n = joint.n_fine_histories
        order = [*a_slots, *b_slots]
        d = decoherence_functional(joint).matrix.reshape(joint.shape * 2)
        d = d.transpose(*order, *(len(TIMES) + k for k in order)).reshape(n, n)
        assert np.max(np.abs(d - expected)) <= reference.bound(joint), a_slots
