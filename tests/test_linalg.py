"""Decomposition kernels: truncated SVD, shrunken projector, symmetric eig."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multialign import (
    InvalidArgumentError,
    InvalidDataError,
    NumericError,
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
