import tracemalloc

import numpy as np
import pytest

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    from_basis,
    make_resolution,
    make_state,
)
from decohist.errors import FamilyTooLargeError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

P_Z0 = np.array([[1, 0], [0, 0]], dtype=complex)
P_Z1 = np.array([[0, 0], [0, 1]], dtype=complex)
P_XP = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
P_XM = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)


def random_rank_state(rng, dim, rank):
    """Normalized G G^dagger for a dim x rank complex Gaussian G."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    w = g @ g.conj().T
    return make_state(w / np.trace(w).real)


def gram_matrix(rows, weights):
    """The N x N matrix that ``(s, M, K)`` Gram rows and their ``(s, K)``
    weights stand for, by one dense product per block: (V_a w_a) V_a^dagger
    at D[a::s, a::s], zero outside the blocks."""
    s, m, _ = rows.shape
    matrix = np.zeros((s * m, s * m), dtype=complex)
    for a in range(s):
        matrix[a::s, a::s] = (rows[a] * weights[a]) @ rows[a].conj().T
    return matrix


def z_resolution():
    return from_basis(2, [[0], [1]], names=["z0", "z1"])


def x_resolution():
    return make_resolution([("x+", P_XP), ("x-", P_XM)])


@pytest.fixture
def z_then_x_family():
    """Past z measurement, present x measurement, no dynamics, state |x+>."""
    grid = TimeGrid((0.0, 1.0), present_index=1)
    schedule = build_schedule(grid, DynamicsSpec.trivial(2))
    return HistoryFamily(schedule, (z_resolution(), x_resolution()), make_state(P_XP))


@pytest.fixture
def same_basis_family():
    """The z basis at three slots (past, present, future), no dynamics."""
    grid = TimeGrid((0.0, 1.0, 2.0), present_index=1)
    schedule = build_schedule(grid, DynamicsSpec.trivial(2))
    res = z_resolution()
    return HistoryFamily(schedule, (res, res, res), make_state(P_XP))


@pytest.fixture
def conserved_family():
    """Two qubits, total-z Hamiltonian, total-z eigenspace resolution twice.

    Projectors commute with the dynamics and each other, so the family is
    consistent for every state.
    """
    h = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
    grid = TimeGrid((0.0, 0.7), present_index=1)
    schedule = build_schedule(grid, DynamicsSpec.from_hamiltonian(h))
    res = from_basis(4, [[0], [1, 2], [3]], names=["both_up", "mixed", "both_down"])
    psi = np.array([1, 1, 0, 1], dtype=complex) / np.sqrt(3)
    return HistoryFamily(schedule, (res, res), make_state(np.outer(psi, psi.conj())))


@pytest.fixture
def wide_over_cap_family():
    """d = 8, thirteen two-outcome slots, no dynamics, state I/8: N = 8192
    fine histories, twice the cap.  Its Gram rows alone would be 8 MiB."""
    grid = TimeGrid(tuple(float(t) for t in range(13)), present_index=0)
    schedule = build_schedule(grid, DynamicsSpec.trivial(8))
    res = from_basis(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
    return HistoryFamily(schedule, (res,) * 13, make_state(np.eye(8) / 8))


def assert_refused_at_the_cap(family, call):
    """``call(family)`` raises FamilyTooLargeError before any per-history
    work: no lifted projectors or Gram rows cached on the family, and a
    traced allocation peak under 64 KiB."""
    tracemalloc.start()
    try:
        with pytest.raises(FamilyTooLargeError) as caught:
            call(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (caught.value.size, caught.value.cap) == (family.n_fine_histories, 4096)
    assert "_gram" not in vars(family) and "_lifted" not in vars(family)
    assert peak < 64 * 1024
