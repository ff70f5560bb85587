"""Relations the decoherence functional satisfies whatever code computes it.

D_ij = Tr(C_i rho C_j^dagger), with C_i the time-ordered product of the
Heisenberg-lifted projectors of history i (Griffiths, J. Stat. Phys. 36,
219 (1984); Gell-Mann & Hartle, Phys. Rev. D 47, 3345 (1993)):

* unitary covariance: conjugating the state, every projector and the
  Hamiltonian by one unitary W conjugates every lifted projector and so
  every chain operator, which cancels under the trace;
* a trivial slot: a slot whose resolution is {I} multiplies every chain
  operator by the identity, wherever it is inserted.

The families carry rank-deficient states and degenerate and zero
projectors, and both relations are compared entry by entry over the dense
D.  Neither family shares arithmetic with the other, so the comparison
is within a tolerance, not bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    decoherence_functional,
    make_resolution,
    make_state,
)
from decohist.sampling import random_hermitian, random_unitary

from conftest import random_rank_state
from test_consistency import padded_resolution

#: Both sides build D from at most four slots of d <= 5 matrices of unit
#: norm (projectors, unitaries, a unit-trace state), with propagators
#: exp(-i H dt) from an eigendecomposition of H (|H dt| of order 10).
#: Each side's round-off is a few hundred ulps of 1 at most: over 400
#: random families of this kind, D's entries differed by at most 3.0e-14
#: under covariance and 1.4e-14 with a trivial slot.  1e-12 leaves a
#: thirtyfold margin, while a wrong lift or propagator moves entries of D
#: by about 1e-1.
TOL = 1e-12


def hamiltonian_family(rng, dim, shape, rank):
    """Random times, present and reference slot, a Hamiltonian, padded
    resolutions and a rank-``rank`` state; returns the family and its
    ingredients."""
    n = len(shape)
    times = tuple(np.cumsum(rng.uniform(0.2, 1.0, size=n)).tolist())
    present, reference = int(rng.integers(0, n)), int(rng.integers(0, n))
    h = random_hermitian(dim, rng)
    resolutions = tuple(padded_resolution(rng, dim, size) for size in shape)
    state = random_rank_state(rng, dim, rank)
    parts = dict(times=times, present=present, reference=reference, h=h)
    parts.update(resolutions=resolutions, state=state.matrix)
    return build(**parts), parts


def build(times, present, reference, h, resolutions, state):
    grid = TimeGrid(times, present)
    schedule = build_schedule(grid, DynamicsSpec.from_hamiltonian(h), reference)
    return HistoryFamily(schedule, tuple(resolutions), make_state(state))


def hermitian(m):
    # W A W^dagger is Hermitian up to round-off; its Hermitian part is the
    # conjugated operator to within that round-off
    return 0.5 * (m + m.conj().T)


def dense(family) -> np.ndarray:
    return np.array(decoherence_functional(family).matrix)


family_args = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    rank=st.integers(1, 5),  # rank < dim: a rank-deficient state
)


@settings(max_examples=60, deadline=None)
@given(**family_args)
def test_unitary_covariance(seed, dim, shape, rank):
    rng = np.random.default_rng(seed)
    family, parts = hamiltonian_family(rng, dim, shape, min(rank, dim))
    w = random_unitary(dim, rng)

    def conj(m):
        return hermitian(w @ m @ w.conj().T)

    rotated = build(
        **{
            **parts,
            "h": conj(parts["h"]),
            "state": conj(parts["state"]),
            "resolutions": [
                make_resolution([(label, conj(p.matrix)) for label, p in zip(r.labels, r.projectors)])
                for r in parts["resolutions"]
            ],
        }
    )
    assert np.max(np.abs(dense(rotated) - dense(family))) <= TOL


@settings(max_examples=60, deadline=None)
@given(**family_args, where=st.integers(0, 4), gap=st.floats(0.05, 0.95))
def test_trivial_slot(seed, dim, shape, rank, where, gap):
    rng = np.random.default_rng(seed)
    family, parts = hamiltonian_family(rng, dim, shape, min(rank, dim))
    times, q = parts["times"], min(where, len(shape))
    # before the first slot, between two, or after the last
    if q == 0:
        new = times[0] - gap
    elif q == len(times):
        new = times[-1] + gap
    else:
        new = times[q - 1] + gap * (times[q] - times[q - 1])
    identity = make_resolution([("I", np.eye(dim))])
    resolutions = list(parts["resolutions"])
    resolutions.insert(q, identity)
    padded = build(
        **{
            **parts,
            "times": (*times[:q], new, *times[q:]),
            "present": parts["present"] + (q <= parts["present"]),
            "reference": parts["reference"] + (q <= parts["reference"]),
            "resolutions": resolutions,
        }
    )
    assert padded.n_fine_histories == family.n_fine_histories
    assert np.max(np.abs(dense(padded) - dense(family))) <= TOL
