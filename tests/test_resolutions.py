from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import (
    Outcome,
    SpectralLabel,
    coarsen,
    from_basis,
    make_projector,
    make_resolution,
    outcome_intersection,
    outcome_projector,
    outcome_subset,
    outcome_union,
)
from decohist.errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    NotCompleteError,
    NotOrthogonalError,
    PartitionBlockError,
    PartitionNotTotalError,
    ResolutionMismatchError,
    UnknownLabelError,
)

from conftest import P_XP, P_Z0, P_Z1, x_resolution, z_resolution


class TestMakeResolution:
    def test_z_basis(self):
        res = z_resolution()
        assert res.size == 2 and res.dim == 2

    def test_not_orthogonal(self):
        with pytest.raises(NotOrthogonalError) as err:
            make_resolution([(0, P_Z0), (1, P_XP)])
        assert (err.value.label_a, err.value.label_b) == ("0", "1")

    def test_single_trivial_entry(self):
        res = make_resolution([(0, np.eye(2))])
        assert res.size == 1

    def test_incomplete(self):
        with pytest.raises(NotCompleteError):
            make_resolution([(0, P_Z0)])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            make_resolution([(0, P_Z0), (0, P_Z1)])

    @pytest.mark.parametrize("field", ["labels", "projectors", "dim", "tol", "_stack", "size"])
    def test_assigning_a_field_raises(self, field):
        # a validated resolution cannot be changed afterwards; it is still
        # equal and hashed by identity, and its repr lists its labels
        res = z_resolution()
        with pytest.raises(FrozenInstanceError):
            setattr(res, field, None)
        assert res == res and res != z_resolution() and hash(res) == object.__hash__(res)
        assert repr(res) == "Resolution(dim=2, labels=[z0, z1])"

    def test_completeness_and_orthogonality_invariants(self):
        res = x_resolution()
        total = sum(p.matrix for p in res.projectors)
        assert np.max(np.abs(total - np.eye(2))) < 1e-10
        a, b = res.projectors
        assert np.max(np.abs(a.matrix @ b.matrix)) < 1e-10


class TestOutcomeProjector:
    def test_singleton(self):
        res = z_resolution()
        p = outcome_projector(res, res.outcome("z0"))
        assert np.array_equal(p.matrix, P_Z0)

    def test_full_set_gives_identity(self):
        res = z_resolution()
        p = outcome_projector(res, res.full_outcome())
        assert np.allclose(p.matrix, np.eye(2))

    def test_orthogonal_sum_on_qutrit(self):
        res = from_basis(3, [[0], [1], [2]])
        p = outcome_projector(res, res.outcome([0, 2]))
        assert np.array_equal(p.matrix, np.diag([1.0, 0.0, 1.0]).astype(complex))

    def test_unknown_label(self):
        res = z_resolution()
        with pytest.raises(UnknownLabelError):
            res.outcome("sideways")

    def test_outcome_must_be_nonempty(self):
        res = z_resolution()
        with pytest.raises(ValueError):
            Outcome(res, frozenset())

    def test_disjoint_union_homomorphism(self):
        res = from_basis(4, [[0], [1], [2], [3]])
        a, b = res.outcome([0, 1]), res.outcome([2])
        joint = outcome_projector(res, outcome_union(a, b))
        split = outcome_projector(res, a).matrix + outcome_projector(res, b).matrix
        assert np.array_equal(joint.matrix, split)

    def test_disjoint_union_homomorphism_dense_projectors(self):
        from decohist.sampling import random_resolution

        rng = np.random.default_rng(17)
        res = random_resolution(6, rng, max_size=4)
        while res.size < 3:
            res = random_resolution(6, rng, max_size=4)
        labels = [lab.index for lab in res.labels]
        a, b = res.outcome(labels[:2]), res.outcome(labels[2:])
        joint = outcome_projector(res, outcome_union(a, b))
        split = outcome_projector(res, a).matrix + outcome_projector(res, b).matrix
        # dense projectors sum in a different association order, so equality
        # holds to the last couple of ulps rather than bit-exactly
        assert np.max(np.abs(joint.matrix - split)) < 1e-14


class TestCoarsen:
    def test_parity_blocks(self):
        res = from_basis(4, [[0], [1], [2], [3]])
        coarse = coarsen(res, [[0, 2], [1, 3]])
        assert coarse.size == 2
        assert all(p.rank == 2 for p in coarse.projectors)
        assert np.array_equal(coarse.projectors[0].matrix, np.diag([1, 0, 1, 0]).astype(complex))

    def test_identity_partition_preserves_entries(self):
        res = x_resolution()
        coarse = coarsen(res, [[0], [1]])
        for a, b in zip(res.projectors, coarse.projectors):
            assert np.array_equal(a.matrix, b.matrix)

    def test_single_block_gives_trivial_resolution(self):
        res = z_resolution()
        coarse = coarsen(res, {"all": ["z0", "z1"]})
        assert coarse.size == 1
        assert np.allclose(coarse.projectors[0].matrix, np.eye(2))
        assert coarse.labels[0].display == "all"

    def test_partition_not_total(self):
        res = z_resolution()
        with pytest.raises(PartitionNotTotalError):
            coarsen(res, [[0]])

    def test_label_in_two_blocks(self):
        res = z_resolution()
        with pytest.raises(PartitionBlockError, match="partition block 1: label 1 assigned twice"):
            coarsen(res, [[0, 1], [1]])

    def test_block_sum_matches_fine_sum(self):
        res = from_basis(4, [[0], [1], [2], [3]])
        coarse = coarsen(res, [[0, 3], [1, 2]])
        fine_sum = res.projectors[0].matrix + res.projectors[3].matrix
        assert np.array_equal(coarse.projectors[0].matrix, fine_sum)

    def test_block_mapping_form(self):
        res = z_resolution()
        coarse = coarsen(res, {"a": ["z0"], "b": ["z1"]})
        assert [l.display for l in coarse.labels] == ["a", "b"]
        # a label -> block mapping is not a partition's form: "b" is no block
        with pytest.raises(PartitionBlockError, match="partition block 'z0'"):
            coarsen(res, {"z0": "a", "z1": "b"})


class TestOutcomeAlgebra:
    def test_subset(self):
        res = z_resolution()
        assert outcome_subset(res.outcome("z0"), res.full_outcome())
        assert not outcome_subset(res.full_outcome(), res.outcome("z0"))

    def test_union(self):
        res = z_resolution()
        u = outcome_union(res.outcome("z0"), res.outcome("z1"))
        assert u.labels == frozenset({0, 1})

    def test_empty_intersection_is_marker(self):
        res = z_resolution()
        assert outcome_intersection(res.outcome("z0"), res.outcome("z1")) is None

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatchError):
            outcome_union(z_resolution().outcome("z0"), x_resolution().outcome("x+"))

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.sets(st.integers(0, 4), min_size=1),
        b=st.sets(st.integers(0, 4), min_size=1),
    )
    def test_set_semantics(self, a, b):
        res = from_basis(5, [[0], [1], [2], [3], [4]])
        oa, ob = res.outcome(a), res.outcome(b)
        assert outcome_subset(oa, ob) == (a <= b)
        assert outcome_union(oa, ob).labels == frozenset(a | b)
        common = outcome_intersection(oa, ob)
        if a & b:
            assert common.labels == frozenset(a & b)
        else:
            assert common is None

    def test_from_basis_requires_cover(self):
        with pytest.raises(PartitionNotTotalError):
            from_basis(3, [[0], [1]])

    def test_uncovered_labels_listed_up_to_ten_then_counted(self):
        with pytest.raises(PartitionNotTotalError) as err:
            from_basis(11, [[0]])
        assert str(err.value) == "partition does not cover labels [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"
        with pytest.raises(PartitionNotTotalError) as err:
            from_basis(13, [[0]])
        assert str(err.value) == (
            "partition does not cover labels [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 2 more"
        )
        assert err.value.missing == set(range(1, 13))


class TestLookupsAndRendering:
    """Label lookups, lengths and renderings that no other test reaches."""

    def test_from_basis_needs_one_name_per_block(self):
        with pytest.raises(DimensionMismatchError, match="one name per block required"):
            from_basis(2, [[0], [1]], names=["a"])

    def test_outcome_projector_refuses_another_resolutions_outcome(self):
        with pytest.raises(ResolutionMismatchError, match="different resolution"):
            outcome_projector(z_resolution(), z_resolution().outcome(["z0"]))

    def test_position_of_a_spectral_label_is_that_of_its_index(self):
        res = from_basis(3, [[0], [1], [2]], names=["a", "b", "c"])
        assert [res.position(lab) for lab in res.labels] == [0, 1, 2]
        assert res.position(SpectralLabel(2)) == res.position(2) == res.position("c") == 2
        with pytest.raises(UnknownLabelError):
            res.position(SpectralLabel(3, "c"))

    @pytest.mark.parametrize("label", ["d", True, 1.0], ids=["unknown_name", "bool", "float"])
    def test_position_refuses_other_labels(self, label):
        res = from_basis(3, [[0], [1], [2]], names=["a", "b", "c"])
        with pytest.raises(UnknownLabelError) as err:
            res.position(label)
        assert err.value.label is label

    def test_outcome_repr_lists_display_labels_in_resolution_order(self):
        res = from_basis(3, [[0], [1], [2]], names=["b", "a", "c"])
        assert repr(res.outcome(["a", "b"])) == "Outcome({b, a})"
        pair = from_basis(2, [[0], [1]], names=["a", "b"])
        assert repr(pair.outcome([1, 0])) == "Outcome({a, b})"

    def test_len_is_the_number_of_labels(self):
        assert len(z_resolution()) == z_resolution().size == 2
        assert len(make_resolution([(0, np.eye(2))])) == 1
