"""Decomposition kernels: truncated SVD, shrunken projector, symmetric eig."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multialign import (
    InvalidArgumentError,
    InvalidDataError,
    NumericError,
    gram_svd,
    projector_from_svd,
    regularized_projector,
    symmetric_eig,
    truncated_svd,
)


def _residual(m, svd):
    """``||m - U U^T m||_F``: what the kept left directions leave of ``m``."""
    return np.linalg.norm(m - svd.left @ (svd.left.T @ m))


def _matrix_of_rank(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestTruncatedSvd:
    def test_singular_values_match_gram_eigenvalues(self, rng):
        # independent oracle: eigenvalues of m.T @ m are squared singular values
        m = rng.standard_normal((6, 4))
        svd = truncated_svd(m, 4)
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(m.T @ m), 0, None))[::-1]
        np.testing.assert_allclose(svd.singular_values, oracle, atol=1e-8, rtol=0)
        scaled = svd.left * svd.singular_values
        np.testing.assert_allclose(scaled @ scaled.T, m @ m.T, atol=1e-8, rtol=0)

    def test_rank_reconstruction_error_matches_tail_mass(self, rng):
        m = rng.standard_normal((8, 5))
        full = np.linalg.svd(m, compute_uv=False)
        for rank in range(1, 6):
            err = _residual(m, truncated_svd(m, rank))
            expected = np.sqrt((full[rank:] ** 2).sum())
            assert abs(err - expected) <= 1e-8

    def test_error_non_increasing_in_rank(self, rng):
        m = rng.standard_normal((10, 7))
        errors = [_residual(m, truncated_svd(m, r)) for r in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_orthonormal_factors(self, rng):
        m = rng.standard_normal((9, 6))
        svd = truncated_svd(m, 4)
        np.testing.assert_allclose(svd.left.T @ svd.left, np.eye(4), atol=1e-8)
        assert svd.singular_values[0] >= svd.singular_values[-1] >= 0

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 14), cols=st.integers(1, 30), deficit=st.integers(0, 3),
           keep=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
    def test_left_factor_matches_the_full_svd(self, rows, cols, deficit, keep, seed):
        # Wide inputs are factored through their triangular QR factor, tall
        # ones whole; either way the result is that of the input's own SVD.
        rng = np.random.default_rng(seed)
        m = _matrix_of_rank(rng, rows, cols, max(1, min(rows, cols) - deficit))
        rank = min(keep, rows, cols)
        got = truncated_svd(m, rank)
        u, want, _ = np.linalg.svd(m, full_matrices=False)
        np.testing.assert_allclose(got.singular_values, want[:rank], rtol=0,
                                   atol=1e-10 * max(1.0, want[0]))
        # Directions of non-zero singular values match, signs included; the
        # rest complete an orthonormal basis, which is not unique.
        kept = want[:rank] > 1e-8 * want[0]
        u = u[:, :rank][:, kept]
        u *= np.sign(u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])
        np.testing.assert_allclose(got.left[:, kept], u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.left.T @ got.left, np.eye(rank), rtol=0, atol=1e-10)
        # The rank flag takes the cutoff of the input's shape, not of the
        # factor it came from; near the cutoff rounding may tip it either way.
        cutoff = want[0] * max(rows, cols) * np.finfo(float).eps
        if not cutoff / 4 < want[rank - 1] < 4 * cutoff:
            assert got.rank_deficient == (want[rank - 1] <= cutoff)
        # At full rank the factor carries m m^T; truncated, it leaves the tail.
        scaled = got.left * got.singular_values
        if rank == min(rows, cols):
            np.testing.assert_allclose(scaled @ scaled.T, m @ m.T, rtol=0,
                                       atol=1e-10 * max(1.0, want[0] ** 2))
        tail = np.sqrt((want[rank:] ** 2).sum())
        assert abs(_residual(m, got) - tail) <= 1e-9 * max(1.0, want[0])

    def test_rank_flag_uses_the_full_shape_cutoff(self, rng):
        # s_min lies between the cutoffs of the 3 x 3 triangular factor
        # (3 s_0 eps) and of the 3 x 300 matrix (300 s_0 eps): deficient only
        # by the latter, which is the matrix asked for.
        left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((300, 3)))[0]
        data = (left * [1.0, 0.5, 1e-14]) @ right.T
        factor = np.linalg.qr(data.T, mode="r").T
        assert not truncated_svd(factor, 3).rank_deficient
        assert truncated_svd(data, 3).rank_deficient

    def test_sign_convention_largest_entry_positive(self, rng):
        for _ in range(20):
            m = rng.standard_normal((7, 5))
            svd = truncated_svd(m, 5)
            for j in range(5):
                col = svd.left[:, j]
                assert col[np.abs(col).argmax()] > 0

    def test_deterministic(self, rng):
        m = rng.standard_normal((12, 6))
        a = truncated_svd(m, 3)
        b = truncated_svd(m.copy(), 3)
        np.testing.assert_array_equal(a.left, b.left)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)

    def test_degenerate_rank_pads_and_flags(self):
        m = np.zeros((4, 3))
        m[0, 0] = 1.0
        svd = truncated_svd(m, 3)
        assert svd.rank_deficient
        np.testing.assert_allclose(svd.singular_values[1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(svd.left.T @ svd.left, np.eye(3), atol=1e-8)
        full = truncated_svd(np.diag([3.0, 2.0, 1.0]), 3)
        assert not full.rank_deficient

    def test_rank_out_of_range(self, rng):
        m = rng.standard_normal((5, 3))
        with pytest.raises(InvalidArgumentError):
            truncated_svd(m, 0)
        with pytest.raises(InvalidArgumentError):
            truncated_svd(m, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidDataError):
            truncated_svd(np.array([[1.0, np.nan], [0.0, 1.0]]), 1)
        with pytest.raises(InvalidDataError):
            truncated_svd(np.array([1.0, 2.0]), 1)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _refuses(svd, epsilon) -> bool:
    try:
        projector_from_svd(svd, epsilon)
    except NumericError:
        return True
    return False


@st.composite
def _stacks(draw):
    """A stack of wide, tall or square matrices, and a rank to keep.

    Members are random, rank-deficient (down to all zeros) or zero-padded
    like a label-coupled product of a subject with fewer labeled rows than
    classes: a (classes x rank) product with zero columns up to the width
    of ``K X``.
    """
    shape = draw(st.sampled_from(["wide", "tall", "square"]))
    if shape == "wide":
        rows = draw(st.integers(1, 10))
        cols = draw(st.integers(rows + 1, rows + 20))
    elif shape == "tall":
        cols = draw(st.integers(1, 10))
        rows = draw(st.integers(cols + 1, cols + 20))
    else:
        rows = cols = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["random", "deficient", "padded"]),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in kinds:
        m = rng.standard_normal((rows, cols))
        if kind == "deficient":
            m = _matrix_of_rank(rng, rows, cols, int(rng.integers(0, min(rows, cols))))
        elif kind == "padded" and cols > 1:
            m[:, int(rng.integers(1, cols)):] = 0.0
        members.append(m)
    return np.stack(members), draw(st.integers(1, min(rows, cols)))


class TestStackedSvd:
    """A stack is factored in one call, to the bits of one call per member."""

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_stack_equals_per_matrix_calls(self, case):
        stack, rank = case
        got = truncated_svd(stack, rank)
        assert got.left.shape == stack.shape[:2] + (rank,)
        assert got.rank_deficient.shape == (len(stack),)
        for i, m in enumerate(stack):
            single = truncated_svd(m, rank)
            assert _same_bits(got.left[i], single.left)
            assert _same_bits(got.singular_values[i], single.singular_values)
            assert type(single.rank_deficient) is bool
            assert got.rank_deficient[i] == single.rank_deficient
        # The sign convention holds member by member.
        anchors = np.take_along_axis(got.left, np.abs(got.left).argmax(axis=1)[:, None], 1)
        assert (anchors > 0).all()
        # More leading axes are more of the same stack.
        nested = truncated_svd(stack[None], rank)
        assert _same_bits(nested.left[0], got.left)
        assert _same_bits(nested.rank_deficient[0], got.rank_deficient)

    @settings(max_examples=200, deadline=None)
    @given(_stacks(), st.sampled_from([0.0, 1e-4, 1.0]))
    def test_projector_of_a_stack_equals_per_matrix_calls(self, case, epsilon):
        stack, rank = case
        svd = truncated_svd(stack, rank)
        singles = [truncated_svd(m, rank) for m in stack]
        if any(_refuses(single, epsilon) for single in singles):
            # One singular member refuses the whole stack.
            assert epsilon == 0.0
            with pytest.raises(NumericError):
                projector_from_svd(svd, epsilon)
            return
        got = projector_from_svd(svd, epsilon)
        assert got.epsilon == epsilon and got.size == stack.shape[1]
        for i, single in enumerate(singles):
            want = projector_from_svd(single, epsilon)
            assert _same_bits(got.factor[i], want.factor)
            assert got.rank_deficient[i] == want.rank_deficient
            np.testing.assert_allclose(got.matrix()[i], want.matrix(), rtol=0, atol=1e-12)

    def test_empty_or_flat_stack_rejected(self):
        with pytest.raises(InvalidDataError):
            truncated_svd(np.zeros((0, 3, 2)), 1)
        with pytest.raises(InvalidArgumentError):
            truncated_svd(np.ones((2, 3, 2)), 3)


def _hat(svd, epsilon):
    """The shrunk hat matrix ``U diag(s^2 / (s^2 + eps)) U^T`` mapping reads."""
    squares = svd.singular_values ** 2
    return (svd.left * (squares / (squares + epsilon))) @ svd.left.T


def _standardized(m):
    """``m`` with every column centered and scaled, as normalization leaves it."""
    centered = m - m.mean(axis=0)
    return centered / np.sqrt(np.square(centered).sum(axis=0) / (len(m) - 1))


class TestGramSvd:
    """The Gram path agrees with the SVD wherever it certifies its result."""

    @settings(max_examples=200, deadline=None)
    @given(short=st.integers(2, 12), extra=st.integers(0, 40), tall=st.booleans(),
           centered=st.booleans(), log_epsilon=st.floats(-8, 0),
           seed=st.integers(0, 2**32 - 1))
    def test_certified_result_gives_the_svds_hat_matrix(self, short, extra, tall, centered,
                                                        log_epsilon, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((short + extra, short) if tall else (short, short + extra))
        if centered:
            m = _standardized(m)
        got = gram_svd(m)
        # A Gaussian spectrum is resolved; two centered rows are sometimes
        # not, when their mean dwarfs their difference.
        assume(got is not None)
        want = truncated_svd(m, short)
        assert got.left.shape == want.left.shape
        # Centered wide or square rows have the centering null; a tall matrix
        # takes no zero.
        null = centered and m.shape[0] <= m.shape[1]
        assert (got.singular_values == 0.0).sum() == null
        epsilon = 10.0 ** log_epsilon
        np.testing.assert_allclose(_hat(got, epsilon), _hat(want, epsilon), rtol=0, atol=1e-8)
        assert got.rank_deficient == want.rank_deficient == null
        assert _refuses(got, 0.0) == _refuses(want, 0.0) == null
        anchors = np.take_along_axis(got.left, np.abs(got.left).argmax(axis=0)[None], 0)
        assert (anchors > 0).all()
        assert (np.diff(got.singular_values) <= 0).all()

    def test_zero_gram_and_non_finite_inputs(self):
        assert gram_svd(np.zeros((2, 5))) is None  # two zeros
        single = gram_svd(np.zeros((1, 3)))  # one row with vanishing sums
        assert single.singular_values.tolist() == [0.0] and single.rank_deficient
        # A tall matrix takes no zero, not even one column's.
        for tall in (np.zeros((3, 1)), np.zeros((5, 2)), np.ones((4, 3))):
            assert gram_svd(tall) is None
        with pytest.raises(InvalidDataError):
            gram_svd(np.array([[1.0, np.inf, 0.0]]))


class TestRegularizedProjector:
    def test_worked_example(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        p = regularized_projector(x, 1.0)
        np.testing.assert_allclose(p.matrix(), np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_matches_dense_solve(self, rng):
        # oracle: x (x^T x + eps I)^{-1} x^T by direct linear solve
        for _ in range(30):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 8))
            x = rng.standard_normal((n, m))
            for eps in (1e-4, 1e-1, 1.0):
                dense = x @ np.linalg.solve(x.T @ x + eps * np.eye(m), x.T)
                p = regularized_projector(x, eps)
                np.testing.assert_allclose(p.matrix(), dense, atol=1e-8, rtol=0)

    def test_unregularized_is_exact_projector(self, rng):
        x = rng.standard_normal((10, 4))
        p = regularized_projector(x, 0.0).matrix()
        dense = x @ np.linalg.solve(x.T @ x, x.T)
        np.testing.assert_allclose(p, dense, atol=1e-8, rtol=0)
        np.testing.assert_allclose(p @ p, p, atol=1e-10, rtol=0)

    def test_eigenvalues_within_unit_interval(self, rng):
        for eps in (0.0, 1e-4, 1.0):
            x = rng.standard_normal((8, 5))
            p = regularized_projector(x, eps).matrix()
            vals = np.linalg.eigvalsh(p)
            assert vals.min() >= -1e-8 and vals.max() <= 1.0 + 1e-8

    def test_symmetry(self, rng):
        p = regularized_projector(rng.standard_normal((9, 4)), 1e-3).matrix()
        assert np.abs(p - p.T).max() <= 1e-10

    def test_idempotence_bound(self, rng):
        for eps in (1e-4, 1e-2, 1.0):
            x = rng.standard_normal((7, 5))
            s = np.linalg.svd(x, compute_uv=False)
            p = regularized_projector(x, eps).matrix()
            drift = np.linalg.norm(p @ p - p)
            bound = 2 * eps / (s.min() ** 2 + eps) * np.linalg.norm(p)
            assert drift <= bound + 1e-12

    def test_huge_epsilon_shrinks_to_zero(self, rng):
        x = rng.standard_normal((6, 4))
        p = regularized_projector(x, 1e9).matrix()
        assert np.abs(p).max() <= 1e-6

    def test_apply_matches_matrix(self, rng):
        x = rng.standard_normal((8, 3))
        g = rng.standard_normal((8, 2))
        p = regularized_projector(x, 1e-4)
        np.testing.assert_allclose(p.apply(g), p.matrix() @ g, atol=1e-10)

    def test_zero_singular_value_with_zero_epsilon(self):
        x = np.zeros((5, 3))
        x[:, 0] = 1.0  # rank 1, two zero singular values retained
        with pytest.raises(NumericError):
            regularized_projector(x, 0.0)

    def test_negative_epsilon_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            regularized_projector(rng.standard_normal((4, 2)), -1e-3)


class TestSymmetricEig:
    def test_matches_reference_and_orders_ascending(self, rng):
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2
        values, vectors = symmetric_eig(m)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(m), atol=1e-10)
        assert (np.diff(values) >= -1e-12).all()
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(m @ vectors, vectors * values, atol=1e-8)

    def test_sign_convention(self, rng):
        a = rng.standard_normal((5, 5))
        _, vectors = symmetric_eig((a + a.T) / 2)
        for j in range(5):
            col = vectors[:, j]
            assert col[np.abs(col).argmax()] > 0

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidDataError):
            symmetric_eig(m)

    def test_slight_asymmetry_within_tolerance_ok(self, rng):
        a = rng.standard_normal((4, 4))
        m = (a + a.T) / 2
        m[0, 1] += 1e-12
        symmetric_eig(m)  # should not raise

    def test_non_square_rejected(self, rng):
        with pytest.raises(InvalidDataError):
            symmetric_eig(rng.standard_normal((3, 4)))
