"""Coupling matrix algebra and supervision kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multialign import (
    InvalidArgumentError,
    LabelMatrix,
    coupling_determinant,
    coupling_matrix,
    default_gamma,
    kernels_for,
    supervision_kernel,
)
from conftest import random_dataset


class TestCouplingMatrix:
    def test_structure(self):
        h = coupling_matrix(3, 0.1)
        np.testing.assert_allclose(h, np.eye(3) - 0.1 * np.ones((3, 3)), atol=0)

    def test_spectrum(self):
        t, gamma = 12, 0.02
        h = coupling_matrix(t, gamma)
        values = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(values[0], 1.0 - gamma * t, atol=1e-10)
        np.testing.assert_allclose(values[1:], 1.0, atol=1e-10)

    def test_gamma_range_enforced(self):
        coupling_matrix(10, 0.0)  # lower edge admissible
        with pytest.raises(InvalidArgumentError):
            coupling_matrix(10, -1e-9)
        with pytest.raises(InvalidArgumentError):
            coupling_matrix(10, 0.1)  # 1/t exactly
        with pytest.raises(InvalidArgumentError):
            coupling_matrix(10, 0.2)

    @given(t=st.integers(1, 60), frac=st.floats(0.0, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_idempotence_drift_closed_form(self, t, frac):
        # ||H^2 - H||_F = |gamma (gamma t - 1)| * t, zero only at gamma = 1/t
        gamma = frac / t
        h = np.eye(t) - gamma * np.ones((t, t))
        drift = np.linalg.norm(h @ h - h)
        assert abs(drift - abs(gamma * (gamma * t - 1.0)) * t) <= 1e-10

    def test_idempotent_exactly_at_one_over_t(self):
        t = 17
        h = np.eye(t) - (1.0 / t) * np.ones((t, t))
        assert np.linalg.norm(h @ h - h) <= 1e-12


class TestCouplingDeterminant:
    @given(t=st.integers(1, 50), scale=st.floats(0.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_determinant(self, t, scale):
        gamma = scale / t
        dense = np.linalg.det(np.eye(t) - gamma * np.ones((t, t)))
        assert abs(coupling_determinant(t, gamma) - dense) <= 1e-8

    def test_zero_at_singular_point(self):
        assert coupling_determinant(25, 1.0 / 25) == pytest.approx(0.0, abs=1e-15)

    def test_accepts_diagnostic_range_beyond_admissible(self):
        assert coupling_determinant(10, 0.2) == pytest.approx(-1.0)
        with pytest.raises(InvalidArgumentError):
            coupling_determinant(10, -0.1)


class TestSupervisionKernel:
    def test_worked_example(self):
        labels = LabelMatrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        ker = supervision_kernel(labels, gamma=1.0 / 6)
        expected = np.array([[2 / 3, 2 / 3, -1 / 3], [-1 / 6, -1 / 6, 5 / 6]])
        np.testing.assert_allclose(ker.matrix, expected, atol=1e-12)

    def test_reconstruction_against_dense_product(self, rng):
        ds = random_dataset(rng, 1, 40, 3, 4)
        labels = ds.labels[0]
        gamma = 0.011
        ker = supervision_kernel(labels, gamma)
        t = labels.n_timepoints
        dense = labels.onehot @ (np.eye(t) - gamma * np.ones((t, t)))
        np.testing.assert_allclose(ker.matrix, dense, atol=1e-12, rtol=0)

    def test_row_structure_and_sums(self, rng):
        ds = random_dataset(rng, 1, 30, 3, 3)
        labels = ds.labels[0]
        gamma = 0.02
        ker = supervision_kernel(labels, gamma)
        classes = labels.class_of()
        counts = labels.onehot.sum(axis=1)
        for m in range(labels.n_classes):
            row = ker.matrix[m]
            in_class = classes[labels.labeled_indices] == m
            np.testing.assert_allclose(row[in_class], 1.0 - gamma * counts[m], atol=1e-12)
            np.testing.assert_allclose(row[~in_class], -gamma * counts[m], atol=1e-12)
            assert row.sum() == pytest.approx(counts[m] * (1.0 - gamma * labels.n_timepoints),
                                              abs=1e-10)

    def test_rest_points_dropped(self):
        onehot = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
        ker = supervision_kernel(LabelMatrix(onehot), gamma=0.1)
        assert ker.matrix.shape == (2, 3)
        np.testing.assert_array_equal(ker.labeled, [0, 2, 3])
        # gamma is validated against the labeled count, not the full axis
        with pytest.raises(InvalidArgumentError):
            supervision_kernel(LabelMatrix(onehot), gamma=1.0 / 3)

    def test_default_gamma_is_half_the_singular_point(self):
        onehot = np.zeros((2, 10))
        onehot[0, :5] = 1.0
        onehot[1, 5:] = 1.0
        ker = supervision_kernel(LabelMatrix(onehot))
        assert ker.gamma == pytest.approx(default_gamma(10))
        assert default_gamma(10) == pytest.approx(0.05)

    def test_gamma_zero_reduces_to_labels(self, rng):
        ds = random_dataset(rng, 1, 20, 3, 2)
        ker = supervision_kernel(ds.labels[0], gamma=0.0)
        np.testing.assert_array_equal(ker.matrix, ds.labels[0].onehot)

    def test_kernels_for_dataset(self, rng):
        ds = random_dataset(rng, 3, 24, 4, 3)
        kernels = kernels_for(ds, gamma=0.01)
        assert len(kernels) == 3
        for ker in kernels:
            assert ker.gamma == 0.01
            assert ker.n_classes == 3
