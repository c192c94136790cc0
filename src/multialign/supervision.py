"""Supervision kernels: label-driven coupling of time points.

The kernel is ``K = Y (I - gamma * J)`` where ``Y`` is the one-hot label
matrix over labeled time points and ``J`` the all-ones matrix.  ``gamma``
couples every pair of time points with a small negative weight, pushing
responses of different classes apart; ``gamma`` must stay strictly below
``1/t`` (t labeled time points) for the coupling matrix to stay positive
definite, and defaults to ``1/(2t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelMatrix, _time_indices
from .errors import InvalidArgumentError, _nonnegative, _whole_number
from .linalg import as_matrix


def default_gamma(n_points: int) -> float:
    """Default coupling strength ``1 / (2 * n_points)``."""
    return 1.0 / (2.0 * _whole_number("n_points", n_points, 1))


def _check_gamma(gamma: float, n_points: int) -> float:
    gamma = _nonnegative("gamma", gamma)
    if gamma >= 1.0 / n_points:
        raise InvalidArgumentError(
            f"gamma must lie in [0, 1/{n_points}) = [0, {1.0 / n_points:.6g}); got "
            f"{gamma!r}. Values at or above 1/t make the coupling matrix "
            "singular or indefinite and the alignment unstable."
        )
    return gamma


def coupling_matrix(n_points: int, gamma: float) -> np.ndarray:
    """Dense coupling matrix ``I - gamma * J`` over ``n_points`` time points.

    Its spectrum is ``1 - gamma * n_points`` (once, eigenvector all-ones) and
    ``1`` (n_points - 1 times); it is idempotent exactly at
    ``gamma = 1/n_points``, which is outside the admissible range.
    """
    n_points = _whole_number("n_points", n_points, 1)
    gamma = _check_gamma(gamma, n_points)
    return np.eye(n_points) - gamma * np.ones((n_points, n_points))


def coupling_determinant(n_points: int, gamma: float) -> float:
    """Closed-form determinant ``1 - gamma * n_points`` of the coupling matrix.

    Unlike :func:`coupling_matrix` this accepts any finite real ``gamma >=
    0`` (never a ``bool`` or text) so diagnostic sweeps can chart the
    determinant through and past the singular point ``gamma = 1/n_points``.
    """
    return 1.0 - _whole_number("n_points", n_points, 1) * _nonnegative("gamma", gamma)


@dataclass(frozen=True)
class SupervisionKernel:
    """Label-coupling kernel for one subject.

    Only the supervised methods take kernels; ``rha`` couples nothing and
    fits every time point, so it needs none.

    Attributes
    ----------
    matrix : ndarray, shape (classes, labeled time points)
        The kernel ``Y (I - gamma * J)`` restricted to labeled time points.
    gamma : float
        Coupling strength used to build the kernel.
    labeled : ndarray of int
        Indices of the labeled time points in the subject's full time axis;
        column ``j`` of ``matrix`` refers to time point ``labeled[j]``.
        Checked at construction by :func:`~multialign.data._time_indices`.
    """

    matrix: np.ndarray
    gamma: float
    labeled: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, "kernel matrix"))
        labeled = _time_indices(self.labeled, "the kernel's labeled time points")
        if labeled.shape != (self.matrix.shape[1],):
            raise InvalidArgumentError(
                f"labeled indices have shape {labeled.shape}, expected "
                f"({self.matrix.shape[1]},)"
            )
        object.__setattr__(self, "labeled", labeled)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_points(self) -> int:
        """Count of labeled time points the kernel couples."""
        return self.matrix.shape[1]


def supervision_kernel(labels: LabelMatrix, gamma: float | None = None) -> SupervisionKernel:
    """Build the supervision kernel for one subject's labels.

    Unlabeled (rest) time points are dropped first, so the coupling acts on
    labeled time points only.  ``gamma=None`` selects the default
    ``1/(2t)``.  Row ``m`` of the result carries ``1 - gamma * c_m`` at the
    columns of class ``m`` (``c_m`` = class size) and ``-gamma * c_m``
    elsewhere.  :func:`kernels_for` builds a dataset's kernels through the
    same formula (:func:`_kernels`), one pass for every subject.
    """
    return _kernels((labels,), gamma)[0]


def _kernels(labels, gamma: float | None) -> list[SupervisionKernel]:
    """The kernels of label matrices sharing one rest mask, in one pass.

    The labeled time points, the default ``gamma`` and its check come from
    the first matrix; the kernels share them (one ``labeled`` array).  All
    ``Y (I - gamma * J)`` are formed in one stacked expression.
    """
    labeled = labels[0].labeled_indices
    t = labeled.size
    if t < 1:
        raise InvalidArgumentError("labels contain no labeled time points")
    gamma = _check_gamma(default_gamma(t) if gamma is None else gamma, t)
    y = np.stack([lab.onehot for lab in labels])[:, :, labeled]
    counts = y.sum(axis=2)
    # y @ (I - gamma*J) expanded: row m loses gamma * c_m everywhere.
    matrices = y - gamma * counts[..., None]
    return [SupervisionKernel(m, gamma, labeled) for m in matrices]


def kernels_for(dataset: Dataset, gamma: float | None = None) -> list[SupervisionKernel]:
    """Supervision kernels for every subject of a dataset (shared ``gamma``).

    A dataset's subjects share their rest mask (see :class:`Dataset`), so
    the labeled time points are found once and every subject's
    ``Y (I - gamma * J)`` is formed in one pass, with the bits
    :func:`supervision_kernel` gives it alone.
    """
    return _kernels(dataset.labels, gamma)
