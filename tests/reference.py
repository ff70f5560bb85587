"""An extended-precision reference for the decoherence functional.

D_ij = Tr(C_i rho C_j^dagger) and the fine probabilities D_ii are built here
in ``np.clongdouble`` (a 64-bit significand on x86-64, against 53 for the
engine's complex128) from explicit chain operators: each fine history's
ordered product of lifted projectors U_k^dagger P U_k, latest slot leftmost,
with U_k the schedule's cumulative unitary at slot k and P the projector
matrices the slot's resolution was given.  Every projector is multiplied, a
one-outcome slot's too, and every pair of histories is computed, so nothing
assumes the last slot's labels never interfere.

Only a family's inputs are read: nothing here calls the engine's Gram rows
(``histories._gram_rows``, ``histories._gram_strips``,
``HistoryFamily._gram``), its factors of the state or of the projectors, or
its lifts.  The products cost O(N d^3) and O(N^2 d^2), so this is for
families of at most a few hundred histories.

The checks' dense references, ``offdiag``, ``fibers`` and ``additivity``,
read any dense D: this module's, or an engine matrix, where they are
compared bit for bit.
"""

import itertools

import numpy as np

EXTENDED = np.clongdouble


def lifted(family, pos: int) -> np.ndarray:
    """U^dagger P U for every projector of slot ``pos``, in extended precision."""
    u = np.array(family.schedule.unitary(pos), dtype=EXTENDED)
    projectors = np.array([p.matrix for p in family.resolutions[pos].projectors], dtype=EXTENDED)
    return u.conj().T @ projectors @ u


def chains(family) -> np.ndarray:
    """The ``(N, d, d)`` chain operators of the fine histories, in
    lexicographic order (earliest slot most significant)."""
    slots = [lifted(family, pos) for pos in range(family.n_slots)]
    out = []
    for labels in itertools.product(*(range(len(q)) for q in slots)):
        chain = np.eye(family.dim, dtype=EXTENDED)
        for q, a in zip(slots, labels):
            chain = q[a] @ chain
        out.append(chain)
    return np.array(out)


def decoherence_matrix(family, state=None) -> np.ndarray:
    """D over the fine histories for ``state`` (the family's own by default):
    D_ij = sum_ab (C_i rho)_ab conj(C_j)_ab."""
    rho = np.array((family.state if state is None else state).matrix, dtype=EXTENDED)
    c = chains(family)
    n = len(c)
    return (c @ rho).reshape(n, -1) @ c.conj().reshape(n, -1).T


def fine_probabilities(family, state=None) -> np.ndarray:
    """The fine probabilities, D's real diagonal."""
    return np.diagonal(decoherence_matrix(family, state)).real


def bound(family) -> float:
    """How far the engine's D and probabilities may lie from this reference.

    Each entry is a sum of products of at most n + 1 operators of norm at
    most 1 (n lifted projectors and the state): the engine's lifts, its
    factors of the state and of the last slot's projectors, its chain
    products and its Gram sums each round by about d eps per entry, for
    complex128's eps.  The bound allows 16 (n + 2) d eps, for n slots.
    """
    return 16 * (family.n_slots + 2) * family.dim * float(np.finfo(float).eps)


def offdiag(matrix, magnitude):
    """The first maximum of ``magnitude(matrix)`` over the strict upper
    triangle, in row-major order: ``(worst, [i, j])``, or ``(0.0, None)``
    with no pair, as the checks report."""
    n = matrix.shape[0]
    if n < 2:
        return 0.0, None
    viol = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), magnitude(matrix), -1.0)
    flat = int(np.argmax(viol))
    i, j = divmod(flat, n)
    return float(viol[i, j]), [i, j]


def fibers(family, d, pos):
    """Re D over slot ``pos`` from a dense D: ``(N / size, size, size)``
    fibers, histories agreeing at every other slot."""
    size = family.shape[pos]
    index = np.moveaxis(np.arange(family.n_fine_histories).reshape(family.shape), pos, -1)
    index = index.reshape(-1, size)
    return d.real[index[:, :, np.newaxis], index[:, np.newaxis, :]]


def additivity(family, d, scope):
    """Both scopes' worst value from a dense D, over every slot (the last
    slot's labels interfere too, unlike the engine's): pairs, |2 Re D| of
    pairs differing in one slot; partitions (every slot of at most eight
    labels), the off-diagonal Re D summed over any block of two or more
    labels, which every merging partition of at most two blocks has."""
    worst = 0.0
    for pos, size in enumerate(family.shape):
        g = fibers(family, d, pos)
        if scope == "pairs":
            a, b = np.triu_indices(size, k=1)
            worst = max(worst, float(np.abs(2 * g[:, a, b]).max(initial=0.0)))
            continue
        off = g * (1 - np.eye(size))
        for k in range(2, size + 1):
            for block in itertools.combinations(range(size), k):
                part = off[:, block][:, :, block]
                worst = max(worst, float(np.abs(part.sum(axis=(1, 2))).max()))
    return worst
