"""D's strip triangles: the masked-copy mirror and scan against the
boolean-index code they replaced, bit for bit.

The assembly mirrors each strip's diagonal corner below the diagonal as the
exact conjugate of its upper triangle (imaginary part 0 - Im, so no
imaginary part becomes -0), and the weak and medium scans blank each
strip's entries on or below the diagonal.  Both now use masked copies from
one mask, ``histories._BELOW``; the references below keep the boolean
gather/scatter and a per-strip ``np.tri``.  D's bytes (so the sign of every
zero counts), the weak and medium worst values and their witnesses must
match exactly.  The robustness check builds its rows as W L, not as the
chain applied to L, so it is held to each state's own D within round-off.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    DynamicsSpec,
    HistoryFamily,
    TimeGrid,
    build_schedule,
    check_state_robustness,
    decoherence_functional,
    from_basis,
    make_resolution,
    make_state,
)
from decohist.consistency import _MAGNITUDE
from decohist.histories import _gram_strips, _strip_ranges
from decohist.linalg import TILE
from decohist.sampling import robustness_states

from test_blocks import shaped_family
from test_consistency import OFFDIAG_CHECKS, assert_robust_matches

#: family shapes; M = N / s rows per last-slot block
SHAPES = [
    (7,),  # s = N: M = 1, no entry above a block's diagonal
    (3, 5),  # odd M = 3, five blocks in one strip
    (3, 3, 3),  # odd M = 9, three blocks in one strip
    (5, 3, 2),  # odd M = 15
    (3, 1),  # a {I} last slot: s = 1
    (TILE + 1, 2),  # M = TILE + 1: a strip with top > 0
    (2, TILE + 1, 1),  # s = 1, M = 2 TILE + 2: three strips, two with top > 0
]


def reference_blocks(family) -> np.ndarray:
    """The assembly with the boolean-index mirror."""
    n, s = family.n_fine_histories, family.shape[-1]
    blocks = np.empty((s, n // s, n // s), dtype=complex)
    for b, top, strip in _gram_strips(*family._gram, out=blocks):
        h, t = strip.shape[:2]
        blocks[b : b + h, top + t :, top : top + t] = strip[:, :, t:].transpose(0, 2, 1)
        np.subtract(0.0, strip.imag, out=strip.imag)
        corner, below = strip[:, :, :t], np.tri(t, k=-1, dtype=bool)
        mirror = corner.transpose(0, 2, 1)[:, below]
        np.subtract(0.0, mirror.imag, out=mirror.imag)
        corner[:, below] = mirror
    blocks.reshape(s, -1)[:, :: n // s + 1] = family._probabilities.reshape(-1, s).T
    return blocks


def reference_scan(strips, mode, s):
    """The off-diagonal scan with a boolean-index mask per strip."""
    worst, at, buffer = -1.0, None, None
    for b, top, strip in strips:
        h, rows, width = strip.shape[0], strip.shape[1], strip.shape[2] - 1
        if not width:
            continue
        if buffer is None:
            buffer = np.empty(h * rows * width)
        mag = _MAGNITUDE[mode](strip[:, :, 1:], buffer[: h * rows * width].reshape(h, rows, width))
        corner = mag[:, :, :rows]
        corner[:, np.tri(*corner.shape[1:], k=-1, dtype=bool)] = -1.0
        r, k = divmod(int(np.argmax(mag.transpose(1, 0, 2))), h * width)
        o, c = divmod(k, width)
        peak, i, j = float(mag[o, r, c]), (top + r) * s + b + o, (top + 1 + c) * s + b + o
        if peak > worst or (peak == worst and (i, j) < at):
            worst, at = peak, (i, j)
    if s > 1 and worst <= 0.0:
        return 0.0, (0, 1)
    return (0.0, None) if at is None else (worst, at)


def reference_check(blocks, mode):
    s, m = blocks.shape[:2]
    strips = (
        (b, top, blocks[b : b + h, top : top + t, top:]) for b, h, top, t in _strip_ranges(s, m)
    )
    return reference_scan(strips, mode, s)


def real_family(rng, shape, dim, rank):
    """Real basis projectors, a real state and identity steps: most
    imaginary parts are exact zeros, so a sign flip of zero shows."""
    sizes = [min(size, dim) for size in shape]
    resolutions = []
    for size, want in zip(sizes, shape):
        cuts = np.sort(rng.choice(np.arange(1, dim), size=size - 1, replace=False))
        blocks = np.split(np.arange(dim), cuts)
        res = from_basis(dim, [b.tolist() for b in blocks])
        mats = [p.matrix for p in res.projectors] + [np.zeros((dim, dim))] * (want - size)
        resolutions.append([mats[k] for k in rng.permutation(want)])
    g = rng.standard_normal((dim, rank))
    state = make_state(g @ g.T / np.trace(g @ g.T))
    grid = TimeGrid(tuple(float(t) for t in range(len(shape))), 0)
    steps = DynamicsSpec.from_steps([np.eye(dim)] * (len(shape) - 1))
    schedule = build_schedule(grid, steps, dim=dim)
    return HistoryFamily(
        schedule,
        tuple(make_resolution([(str(k), m) for k, m in enumerate(r)]) for r in resolutions),
        state,
    )


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    rank=st.integers(1, 4),  # rank < dim: a rank-deficient state
    real=st.booleans(),
)
def test_triangles_match_the_boolean_index_reference(shape, seed, dim, rank, real):
    rng = np.random.default_rng(seed)
    make = real_family if real else shaped_family
    fam = make(rng, shape, dim, min(rank, dim))
    d = decoherence_functional(fam)
    expected = reference_blocks(fam)
    assert d._stack.shape == expected.shape
    assert d._stack.tobytes() == expected.tobytes()

    states = [fam.state, *robustness_states(dim, 3, seed % 1000)]
    for mode, check in OFFDIAG_CHECKS.items():
        report = check(d)
        worst, at = reference_check(expected, mode)
        assert bits(report.worst_violation) == bits(worst)
        assert (report.witness and report.witness["indices"]) == (at and list(at))

        robust = check_state_robustness(fam, states=states, mode=mode)
        if at is None:
            assert robust.witness["inner"] is None and robust.worst_violation == 0.0
        else:
            assert_robust_matches(robust, fam, states, mode)
