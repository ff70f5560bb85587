import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decohist import (
    adjoint,
    compose,
    make_projector,
    make_state,
    matrix_from_pairs,
    matrix_to_pairs,
    tensor,
    trace,
)
from decohist.errors import (
    DecohistError,
    DimensionMismatchError,
    NotHermitianError,
    NotIdempotentError,
    NotPositiveError,
    TraceNotOneError,
)
from decohist.linalg import TILE, DensityState, hermiticity_deviation

from conftest import P_XP, P_Z0

complex_entries = st.complex_numbers(
    max_magnitude=10, allow_nan=False, allow_infinity=False
)


def square(n):
    return arrays(np.complex128, (n, n), elements=complex_entries)


class TestMakeState:
    def test_maximally_mixed(self):
        s = make_state(np.eye(2) / 2)
        assert s.dim == 2
        assert abs(np.trace(s.matrix) - 1) < 1e-15

    def test_pure_state(self):
        s = make_state(P_Z0)
        assert abs(np.trace(s.matrix) - 1) < 1e-15

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOneError) as err:
            make_state(np.diag([0.6, 0.6]))
        assert err.value.deviation == pytest.approx(0.2)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            make_state(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_not_positive(self):
        with pytest.raises(NotPositiveError) as err:
            make_state(np.diag([1.5, -0.5]))
        assert err.value.min_eigenvalue == pytest.approx(-0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make_state([[np.nan, 0], [0, 1]])

    def test_matrix_is_read_only(self):
        s = make_state(np.eye(2) / 2)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 9.0


class TestMakeProjector:
    def test_identity(self):
        p = make_projector(np.eye(3))
        assert p.rank == 3

    def test_rank_one_x_plus(self):
        p = make_projector(P_XP)
        assert p.rank == 1

    def test_half_identity_not_idempotent(self):
        with pytest.raises(NotIdempotentError):
            make_projector(0.5 * np.eye(2))

    def test_non_square(self):
        with pytest.raises(DimensionMismatchError):
            make_projector(np.zeros((2, 3)))


class TestCompose:
    def test_identity_law(self):
        assert np.array_equal(compose([P_Z0, np.eye(2)]), P_Z0)

    def test_ordered_product(self):
        # x+ projector after z0 projector, hand-multiplied
        expected = 0.5 * np.array([[1, 0], [1, 0]], dtype=complex)
        assert np.allclose(compose([P_XP, P_Z0]), expected)

    def test_empty_returns_identity(self):
        assert np.array_equal(compose([], dim=3), np.eye(3))

    def test_empty_needs_dim(self):
        with pytest.raises(DimensionMismatchError):
            compose([])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose([np.eye(2), np.eye(3)])


class TestPrimitives:
    def test_adjoint_of_scaled_identity(self):
        assert np.array_equal(adjoint(1j * np.eye(2)), -1j * np.eye(2))

    def test_trace_of_pure_state(self):
        assert trace(P_Z0) == 1

    def test_trace_requires_square(self):
        with pytest.raises(DimensionMismatchError):
            trace(np.zeros((2, 3)))

    def test_tensor_of_identities(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    @settings(max_examples=25, deadline=None)
    @given(a=square(3), b=square(3), c=square(3), d=square(3))
    def test_tensor_mixed_product(self, a, b, c, d):
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.allclose(lhs, rhs, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(a=square(4))
    def test_adjoint_is_involutive(self, a):
        assert np.array_equal(adjoint(adjoint(a)), a)

    @settings(max_examples=50, deadline=None)
    @given(a=square(4), b=square(4))
    def test_trace_is_cyclic(self, a, b):
        lhs = trace(a @ b)
        rhs = trace(b @ a)
        scale = max(abs(lhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12


class TestMatrixLiterals:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0], [-0.5j, 3]])
        assert np.array_equal(matrix_from_pairs(matrix_to_pairs(m)), m)

    def test_parse(self):
        m = matrix_from_pairs([[[1, 0], [0, 1]], [[0, -1], [1, 0]]])
        assert np.array_equal(m, np.array([[1, 1j], [-1j, 1]]))

    def test_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            matrix_from_pairs([[1, 0], [0, 1]])


def dense_hermiticity_deviation(a):
    """The untiled formula: one full transposed copy."""
    return float(np.max(np.abs(a - a.conj().T)))


class TestTiledHermiticity:
    SIZES = [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]

    @staticmethod
    def random_matrix(n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    @pytest.mark.parametrize("n", SIZES)
    def test_random_matches_dense_bit_for_bit(self, n):
        a = self.random_matrix(n, n)
        assert hermiticity_deviation(a) == dense_hermiticity_deviation(a)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize(
        "cell",
        [lambda n: (n // 2, n - 1), lambda n: (n - 1, n - 2), lambda n: (n - 1, n - 1)],
        ids=["last_column", "last_row", "last_diagonal"],
    )
    def test_near_hermitian_matches_dense_bit_for_bit(self, n, cell):
        a = self.random_matrix(n, n + 1)
        a = a + a.conj().T
        a[cell(n)] += 1e-13j  # one small defect, in the last tile row or column
        assert hermiticity_deviation(a) == dense_hermiticity_deviation(a) > 0.0

    @pytest.mark.parametrize("n", SIZES)
    def test_exactly_hermitian_is_zero(self, n):
        a = self.random_matrix(n, n + 2)
        a = a + a.conj().T
        assert hermiticity_deviation(a) == dense_hermiticity_deviation(a) == 0.0

    @pytest.mark.parametrize("n", SIZES[1:])
    @pytest.mark.parametrize("value", [np.nan, complex(np.nan, 0.0), np.inf])
    @pytest.mark.parametrize(
        "cell",
        [
            lambda n: (0, n - 1),
            lambda n: (min(TILE, n - 2), n - 1),
            lambda n: (n - 1, n - 1),
        ],
        ids=["first_strip", "second_strip_off_diagonal", "last_strip_diagonal"],
    )
    def test_non_finite_entry_propagates(self, n, value, cell):
        a = self.random_matrix(n, n + 3)
        a = a + a.conj().T
        # for n > TILE the last diagonal entry, and for n > TILE + 1 the entry
        # at (TILE, n - 1), are read only by a strip after the first, so a
        # reduction over the strips that drops NaN would miss them
        a[cell(n)] = value
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as intended
            got, dense = hermiticity_deviation(a), dense_hermiticity_deviation(a)
        assert not np.isfinite(got)
        assert np.isnan(got) == np.isnan(dense)


def constructed(matrix, tol):
    """The state the DensityState constructor makes of ``matrix``, or the error
    it raises."""
    try:
        return DensityState(matrix, tol)
    except (ValueError, DecohistError) as err:
        return err


def assert_same_outcome(stacked, scalar):
    assert type(stacked) is type(scalar)
    if isinstance(scalar, DensityState):
        assert stacked.matrix.tobytes() == scalar.matrix.tobytes()
        assert stacked.tol == scalar.tol
        assert not stacked.matrix.flags.writeable
    else:
        assert str(stacked) == str(scalar)
        assert vars(stacked) == vars(scalar)  # the measured deviation or eigenvalue


class TestStackedStateValidation:
    """``DensityState._from_stack`` against the constructor, element by element."""

    TOL = 1e-10

    @staticmethod
    def good(rng, dim=3):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = g @ g.conj().T
        return w / np.trace(w).real

    @staticmethod
    def poisoned(kind, rng, dim=3):
        m = TestStackedStateValidation.good(rng, dim)
        if kind == "nan":
            m[0, 1] = np.nan
        elif kind == "inf":
            m[2, 2] = np.inf
        elif kind == "not_hermitian":
            m[0, 1] += 1e-6
        elif kind == "negative":
            v = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            m = v @ np.diag([0.7, 0.3 + 1e-6, -1e-6]) @ v.T
        elif kind == "trace":
            m = 1.01 * m
        elif kind == "negative_and_trace":
            v = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            m = v @ np.diag([0.8, 0.3, -1e-6]) @ v.T
        elif kind == "not_hermitian_and_negative":
            v = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            m = v @ np.diag([0.7, 0.3 + 1e-6, -1e-6]) @ v.T
            m[0, 1] += 1e-6
        return m.astype(complex)

    def check(self, stack, tols):
        got = DensityState._from_stack(np.array(stack), tols)
        assert len(got) == len(stack)
        for stacked, matrix, tol in zip(got, stack, tols):
            assert_same_outcome(stacked, constructed(matrix, tol))
        return got

    @pytest.mark.parametrize(
        "kind", ["nan", "inf", "not_hermitian", "negative", "trace"]
    )
    @pytest.mark.parametrize("where", [0, 2, 3])
    def test_one_poisoned_element(self, kind, where):
        rng = np.random.default_rng(40)
        stack = [self.good(rng) for _ in range(4)]
        stack[where] = self.poisoned(kind, rng)
        got = self.check(stack, [self.TOL] * 4)
        assert [isinstance(s, DensityState) for s in got] == [k != where for k in range(4)]

    def test_two_bad_elements_keep_their_own_errors(self):
        rng = np.random.default_rng(41)
        stack = [
            self.poisoned("negative_and_trace", rng),
            self.good(rng),
            self.poisoned("not_hermitian_and_negative", rng),
            self.poisoned("not_hermitian", rng),
            self.poisoned("nan", rng),
        ]
        got = self.check(stack, [self.TOL] * 5)
        # an element failing two checks reports the first, as the constructor does
        assert [type(s) for s in got] == [
            NotPositiveError, DensityState, NotHermitianError, NotHermitianError, ValueError
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_accepts_and_rejects_as_the_constructor_near_each_threshold(self, seed):
        rng = np.random.default_rng(seed)
        stack, tols = [], []
        for scale in (0.3, 0.9, 1.1, 3.0):
            tol = float(10.0 ** rng.uniform(-12, -9))
            m = self.good(rng)
            e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            low = v @ np.diag([0.6, 0.4 + scale * tol, -scale * tol]) @ v.T
            stack += [m + scale * tol * e / np.abs(e).max(), (1 + scale * tol) * m, low]
            tols += [tol] * 3
        self.check(stack, tols)

    def test_stack_of_one_is_the_constructor(self):
        rng = np.random.default_rng(42)
        for kind in ("good", "nan", "not_hermitian", "negative", "trace"):
            m = self.good(rng) if kind == "good" else self.poisoned(kind, rng)
            self.check([m], [self.TOL])
