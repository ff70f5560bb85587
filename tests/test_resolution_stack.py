"""A resolution validates its projectors as one stack, and every outcome
projector is summed from that stack by one rule (``linalg._summed``).

The reference below is the one-projector-at-a-time construction: each raw
matrix validated alone as a ``Projector`` as it is read, then every pair for
orthogonality, then the plain sum for completeness.  On an input with one
fault the stacked construction must raise exactly what the reference raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    Outcome,
    Projector,
    Resolution,
    basis_projector,
    from_basis,
    make_resolution,
)
from decohist import linalg
from decohist.errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthogonalError,
    UnknownLabelError,
)
from decohist.linalg import DEFAULT_TOL, _summed
from decohist.resolutions import SpectralLabel, coarsen, outcome_projector
from decohist.sampling import random_unitary

from conftest import P_XM, P_XP, P_Z0, P_Z1

#: The projector onto (sin t, cos t) for t = 1e-3, nearly P_Z1.
P_NEAR_Z1 = np.outer([np.sin(1e-3), np.cos(1e-3)], [np.sin(1e-3), np.cos(1e-3)]).astype(complex)


def reference_projectors(entries, tol=DEFAULT_TOL) -> list[np.ndarray]:
    """The projector matrices of a resolution built one projector at a time,
    for entries with distinct string labels."""
    labels, projectors = [], []
    for pos, (name, m) in enumerate(entries):
        labels.append(SpectralLabel(pos, name))
        projectors.append(m if isinstance(m, Projector) else Projector(m, tol))
    if not projectors:
        raise ValueError("a resolution needs at least one projector")
    dim = projectors[0].dim
    for p in projectors:
        if p.dim != dim:
            raise DimensionMismatchError(f"projector dimensions differ: {p.dim} vs {dim}")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            dev = float(np.max(np.abs(projectors[i].matrix @ projectors[j].matrix)))
            if dev > tol:
                raise NotOrthogonalError(labels[i].display, labels[j].display, dev)
    dev = float(np.max(np.abs(sum(p.matrix for p in projectors) - np.eye(dim))))
    if dev > tol:
        raise NotCompleteError(dev)
    return [p.matrix for p in projectors]


def outcome(build, entries):
    """What building ``entries`` gives: the projector bytes, or the error's
    type, message and attributes."""
    try:
        matrices = build(entries)
    except Exception as exc:  # every error is compared, whatever its type
        return type(exc), str(exc), vars(exc)
    return [m.tobytes() for m in matrices]


def stacked_projectors(entries) -> list[np.ndarray]:
    return [p.matrix for p in Resolution(entries).projectors]


@st.composite
def projector_lists(draw):
    """Projectors onto the blocks of a random (or the computational) basis,
    with blocks of any size, d <= 10."""
    d = draw(st.integers(2, 10))
    n = draw(st.integers(1, d))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=n - 1, max_size=n - 1)))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.eye(d, dtype=complex) if exact else random_unitary(d, rng)
    edges = [0, *cuts, d]
    return [v[:, a:b] @ v[:, a:b].conj().T for a, b in zip(edges, edges[1:])]


def _with_nan(mats, k):
    m = mats[k].copy()
    m[-1, 0] = np.nan
    return mats[:k] + [m] + mats[k + 1 :]


def _non_hermitian(mats, k):
    m = mats[k].copy()
    m[0, -1] += 1e-3
    return mats[:k] + [m] + mats[k + 1 :]


def _overlapping(mats, k):
    # P_k + P_j is a projector that overlaps P_j
    return mats[:k] + [mats[k] + mats[(k + 1) % len(mats)]] + mats[k + 1 :]


def _scaled_given(mats, k):
    # a Projector instance is kept as given, so only completeness sees this
    return mats[:k] + [Projector((1 + 3 * DEFAULT_TOL) * mats[k], 1e-6)] + mats[k + 1 :]


#: One fault at entry k of a valid projector list ("given" has none: entry k
#: is a Projector instance among raw matrices).
FAULTS = {
    "none": lambda mats, k: mats,
    "given": lambda mats, k: mats[:k] + [Projector(mats[k])] + mats[k + 1 :],
    "scaled-given": _scaled_given,
    "nan": _with_nan,
    "non-square": lambda mats, k: mats[:k] + [mats[k][:, :-1]] + mats[k + 1 :],
    "non-hermitian": _non_hermitian,
    "non-idempotent": lambda mats, k: mats[:k] + [0.9 * mats[k]] + mats[k + 1 :],
    "non-orthogonal": _overlapping,
    "incomplete": lambda mats, k: mats[:k] + mats[k + 1 :],
}


class TestStackedValidation:
    @settings(max_examples=150, deadline=None)
    @given(mats=projector_lists(), fault=st.sampled_from(sorted(FAULTS)), data=st.data())
    def test_one_fault_raises_what_one_at_a_time_raises(self, mats, fault, data):
        k = data.draw(st.integers(0, len(mats) - 1))
        entries = [(f"l{j}", m) for j, m in enumerate(FAULTS[fault](mats, k))]
        expected = outcome(reference_projectors, entries)
        assert outcome(stacked_projectors, entries) == expected
        if fault == "none":
            assert isinstance(expected, list)

    @pytest.mark.parametrize(
        "entries, error, message",
        [
            # a matrix that is not a finite square array is rejected as read
            ([("a", P_Z0 + 1j), ("a", [[np.nan, 0], [0, 1]])], ValueError, "finite"),
            ([("a", np.ones((2, 3))), ("a", P_Z1)], DimensionMismatchError, "square"),
            ([], ValueError, "at least one"),
            # labels before dimensions, dimensions before projector checks
            ([("a", P_Z0 + 1j), ("a", np.eye(3))], DuplicateLabelError, "'a'"),
            ([("a", P_Z0 + 1j), ("b", np.eye(3))], DimensionMismatchError, "differ"),
            # the projector checks in entry order, whatever the kind
            ([("a", 0.9 * P_Z0), ("b", P_Z1 + 1j)], NotIdempotentError, "idempotent"),
            ([("a", P_Z0 + 1j), ("b", 0.9 * P_Z1)], NotHermitianError, "Hermitian"),
            # orthogonality before completeness, first pair in row-major order
            (
                [("a", P_Z0), ("b", P_XP), ("c", P_XM), ("d", P_Z1)],
                NotOrthogonalError,
                "'a' and 'b'",
            ),
            ([("a", P_Z0), ("b", P_Z0)], NotOrthogonalError, "'a' and 'b'"),
            # the first pair, not the worst: a-b overlaps by about 1e-3, a-c by 1
            ([("a", P_Z0), ("b", P_NEAR_Z1), ("c", P_Z0)], NotOrthogonalError, "'b'.*1.000e-03"),
            ([("a", P_Z0), ("b", np.zeros((2, 2)))], NotCompleteError, "identity"),
        ],
    )
    def test_order_of_checks_for_several_faults(self, entries, error, message):
        with pytest.raises(error, match=message):
            make_resolution(entries)

    def test_raw_projectors_are_views_of_one_read_only_stack(self):
        res = make_resolution([("a", P_XP), ("b", P_XM)])
        assert res._stack.shape == (2, 2, 2) and not res._stack.flags.writeable
        for k, p in enumerate(res.projectors):
            assert np.shares_memory(p.matrix, res._stack) and p.tol == res.tol
            assert p.matrix.tobytes() == res._stack[k].tobytes()

    def test_given_projectors_are_kept_as_they_are(self):
        given = Projector(P_Z1, 1e-6)
        res = make_resolution([("a", P_Z0), ("b", given)])
        assert res.projectors[1] is given and res.projectors[0].tol == DEFAULT_TOL
        assert res._stack[1].tobytes() == given.matrix.tobytes()

    def test_one_validation_pass_per_resolution(self, monkeypatch):
        calls = []
        checks = linalg._projector_errors

        def counted(stack, tols):
            calls.append(len(stack))
            return checks(stack, tols)

        monkeypatch.setattr(linalg, "_projector_errors", counted)
        make_resolution([("a", P_XP), ("b", P_XM)])
        from_basis(4, [[0], [1, 2], [3]])
        assert calls == [2, 3]

    def test_coarsen_validates_its_blocks_as_one_stack(self, monkeypatch):
        res = from_basis(4, [[0], [1], [2], [3]])
        calls = []
        checks = linalg._projector_errors
        monkeypatch.setattr(
            linalg, "_projector_errors", lambda s, t: calls.append(list(t)) or checks(s, t)
        )
        coarse = coarsen(res, [[0, 1, 2], [3]])
        assert calls == [[3 * DEFAULT_TOL, DEFAULT_TOL]]
        assert [p.tol for p in coarse.projectors] == [3 * DEFAULT_TOL, DEFAULT_TOL]


def old_sum(stack, positions):
    """The from-zero loop every outcome projector was summed by."""
    total = np.zeros(stack.shape[1:], dtype=complex)
    for p in positions:
        total = total + stack[p]
    return total


class TestSummed:
    @settings(max_examples=50, deadline=None)
    @given(mats=projector_lists(), data=st.data())
    def test_bit_equal_to_the_from_zero_loop(self, mats, data):
        stack = np.stack(mats)
        positions = data.draw(st.permutations(range(len(mats))))[
            : data.draw(st.integers(1, len(mats)))
        ]
        assert _summed(stack, positions).tobytes() == old_sum(stack, positions).tobytes()

    def test_negative_zero_entries_sum_to_positive_zero(self):
        p = np.array([[1.0, -0.0], [-0.0, 0.0]], dtype=complex)
        p.imag[0, 0] = -0.0
        stack = np.stack([p, np.eye(2) - p])
        got = _summed(stack, [0])
        assert got.tobytes() == old_sum(stack, [0]).tobytes()
        assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()

    def test_outcome_projectors_use_it(self):
        res = make_resolution([("a", P_XP), ("b", P_XM)])
        full = outcome_projector(res, res.full_outcome())
        assert full.matrix.tobytes() == old_sum(res._stack, [0, 1]).tobytes()


class TestFromBasis:
    @pytest.mark.parametrize(
        "dim, blocks",
        [
            (1, [[0]]),
            (2, [[0], [1]]),
            (3, [[2, 0], [1]]),
            (4, [[3], [], [0, 1, 2]]),
            (5, [[4, 1, 3], [0, 2]]),
        ],
    )
    def test_bit_equal_to_basis_projector(self, dim, blocks):
        res = from_basis(dim, blocks)
        for block, p in zip(blocks, res.projectors):
            assert p.matrix.tobytes() == basis_projector(dim, block).matrix.tobytes()


class TestOutcomeMaps:
    def test_unknown_label_and_display_order(self):
        res = make_resolution([(SpectralLabel(0, "z"), P_Z0), (SpectralLabel(1, "w"), P_Z1)])
        assert res.outcome([1, 0]).display_labels() == ["z", "w"]
        assert res.outcome(["w", "z"]).labels == frozenset({0, 1})
        with pytest.raises(UnknownLabelError, match="3"):
            Outcome(res, frozenset({0, 3}))
