"""A resolution's projectors are factored once, on the resolution.

``Resolution._factor`` is the one place the projectors are factored, by
``linalg._ldl`` one projector at a time: every family that ends in the
resolution reads the same read-only factor, and a family over the cap is
refused before any factor is made.
"""

import numpy as np
import pytest

from decohist import (
    HistoryFamily,
    check_additivity,
    check_state_robustness,
    decoherence_functional,
    fine_probabilities,
    make_resolution,
)
from decohist import linalg as linalg_module
from decohist import resolutions as resolutions_module
from decohist.errors import FamilyTooLargeError, InvalidHistoryError
from decohist.sampling import random_unitary

from conftest import random_rank_state
from test_blocks import shaped_family


@pytest.fixture
def ldl_calls(monkeypatch):
    """The ``what`` of every ``_ldl`` call, states and projectors alike."""
    calls = []
    ldl = linalg_module._ldl

    def counted(matrix, tol, what):
        calls.append(what)
        return ldl(matrix, tol, what)

    for module in (linalg_module, resolutions_module):
        monkeypatch.setattr(module, "_ldl", counted)
    return calls


def test_two_families_ending_in_one_resolution_factor_it_once(ldl_calls):
    rng = np.random.default_rng(1)
    first = shaped_family(rng, (3, 4), 4, 2)
    res = first.resolutions[-1]
    second = HistoryFamily(first.schedule, first.resolutions, random_rank_state(rng, 4, 3))
    for fam in (first, second):
        decoherence_functional(fam)
        check_additivity(fam, scope="pairs")
    check_state_robustness(second, count=3)
    assert ldl_calls.count("projector") == res.size
    assert vars(res)["_factor"] is res._factor


def test_a_family_over_the_cap_factors_nothing(ldl_calls, wide_over_cap_family):
    fam = wide_over_cap_family
    for call in (
        decoherence_functional,
        fine_probabilities,
        lambda f: check_additivity(f, scope="pairs"),
        check_additivity,
        check_state_robustness,
    ):
        with pytest.raises(FamilyTooLargeError):
            call(fam)
    assert ldl_calls == []
    assert "_factor" not in vars(fam.resolutions[-1]) and "_factor" not in vars(fam.state)


def test_the_factor_is_packed_and_rebuilds_each_projector():
    rng = np.random.default_rng(2)
    v = random_unitary(5, rng)
    blocks = [v[:, :3], v[:, 3:4], v[:, :0], v[:, 4:]]  # ranks 3, 1, 0, 1
    res = make_resolution([(str(k), b @ b.conj().T) for k, b in enumerate(blocks)])
    left, pivots, offsets = res._factor
    # no padding: the ranks sum to d, and every row has a nonzero pivot
    assert left.shape == (5, 5) and pivots.shape == (5,)
    assert not left.flags.writeable and not pivots.flags.writeable
    assert offsets == (0, 3, 4, 4, 5)
    assert np.all(pivots > 0)
    for a, p in enumerate(res.projectors):
        rows = slice(offsets[a], offsets[a + 1])
        rebuilt = (left[rows].conj().T * pivots[rows]) @ left[rows]
        assert np.max(np.abs(rebuilt - p.matrix)) <= 1e-14


def test_a_factor_that_misses_its_projector_raises_every_time(monkeypatch):
    # with a zero lift tolerance the factor's round-off is too much
    monkeypatch.setattr(resolutions_module, "_lift_tol", lambda tol: 0.0)
    v = random_unitary(3, np.random.default_rng(3))[:, :1]
    p = v @ v.conj().T
    res = make_resolution([("a", p), ("b", np.eye(3) - p)])
    for _ in range(2):
        with pytest.raises(InvalidHistoryError, match="misses the projector"):
            res._factor
    assert "_factor" not in vars(res)
