"""Seeded random states, unitaries, resolutions, and whole history families.

Used by the state-robustness check and by the test suite; everything is
driven by an explicit numpy Generator so results are reproducible from a
seed alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import DynamicsSpec, TimeGrid, build_schedule
from .histories import HistoryFamily
from .linalg import DensityState, Projector
from .resolutions import Resolution, SpectralLabel


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random unitary via QR with column-phase fixing."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> DensityState:
    """Normalized Wishart state G G^dagger / Tr, G standard complex Gaussian."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    w = g @ g.conj().T
    return DensityState(w / np.trace(w).real)


@functools.lru_cache(maxsize=8)
def robustness_states(dim: int, count: int, seed: int) -> tuple[DensityState, ...]:
    """The seeded state set used by the robustness check.

    The set depends on its arguments alone, so the last eight sets drawn
    are kept, and with them each state's validation and cached factor: a
    repeated check draws, validates and factors nothing.
    """
    rng = np.random.default_rng(seed)
    return tuple(random_density(dim, rng) for _ in range(count))


def random_block_sizes(
    dim: int, rng: np.random.Generator, max_blocks: int = 4
) -> list[int]:
    """A random composition of ``dim`` into at most ``max_blocks`` parts."""
    n_blocks = int(rng.integers(1, min(dim, max_blocks) + 1))
    if n_blocks == 1:
        return [dim]
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    edges = [0, *cuts.tolist(), dim]
    return [edges[i + 1] - edges[i] for i in range(n_blocks)]


def random_resolution(
    dim: int, rng: np.random.Generator, max_size: int = 4
) -> Resolution:
    """Resolution whose projectors span random orthogonal subspaces."""
    sizes = random_block_sizes(dim, rng, max_size)
    v = random_unitary(dim, rng)
    entries = []
    start = 0
    for k, size in enumerate(sizes):
        cols = v[:, start : start + size]
        entries.append((SpectralLabel(k), Projector(cols @ cols.conj().T)))
        start += size
    return Resolution(entries)


def random_family(
    rng: np.random.Generator,
    dim: int,
    n_slots: int,
    max_resolution_size: int = 4,
) -> HistoryFamily:
    """A random history family: grid, dynamics, per-slot resolutions, state.

    Present and reference slots vary so the before-reference (adjoint)
    composition and both conditional directions get exercised.
    """
    times = np.cumsum(rng.uniform(0.2, 1.0, size=n_slots))
    present = int(rng.integers(0, n_slots))
    grid = TimeGrid(tuple(times.tolist()), present)

    if rng.random() < 0.5:
        spec = DynamicsSpec.from_hamiltonian(random_hermitian(dim, rng))
    else:
        spec = DynamicsSpec.from_steps(
            [random_unitary(dim, rng) for _ in range(n_slots - 1)]
        )
    reference = int(rng.integers(0, n_slots)) if rng.random() < 0.5 else 0
    schedule = build_schedule(grid, spec, reference, dim=dim)

    resolutions = tuple(
        random_resolution(dim, rng, max_resolution_size) for _ in range(n_slots)
    )
    return HistoryFamily(schedule, resolutions, random_density(dim, rng))
