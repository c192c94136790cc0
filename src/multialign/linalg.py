"""Dense decomposition kernels shared by every alignment path.

Three operations live here: a deterministic truncated SVD, the shrunken
orthogonal projector built from it (from a matrix, or from an SVD already
at hand), and a symmetric eigendecomposition with
the same sign convention.  Everything downstream (alignment, mapping,
template extraction) is phrased in terms of these, so determinism and sign
conventions are fixed once, in this module.

The SVD keeps only the left factor and the singular values, and it reduces
a wide matrix (fewer rows than columns) to its triangular QR factor before
factoring it, so no SVD ever runs on a matrix with one column per voxel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidDataError, NumericError

# Singular values at or below this are treated as numerically zero when
# deciding whether an unregularized projector is well defined.
_ZERO_SINGULAR_VALUE = 1e-12


# Largest asymmetry ``max|m - m.T|`` accepted from a "symmetric" input.
_SYMMETRY_TOLERANCE = 1e-10


def as_matrix(values, name: str = "input") -> np.ndarray:
    """Validate and return ``values`` as a finite 2-D float array."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise InvalidDataError(f"{name} must be a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidDataError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidDataError(f"{name} contains non-finite entries")
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties resolve to the first maximal index, which makes the convention
    deterministic.
    """
    if vectors.shape[1] == 0:
        return vectors
    anchor = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


@dataclass(frozen=True)
class TruncatedSvd:
    """The left half of a rank-``r`` SVD ``m ~ left @ diag(s) @ right.T``.

    ``left`` is (rows, r) with orthonormal columns and ``singular_values``
    is (r,), non-increasing and non-negative; the right factor is never
    computed, since a projector or a dual-form ridge map needs nothing else
    of a matrix.  ``rank_deficient`` flags that the numerical rank of the
    input fell below the requested rank, in which case the trailing
    singular values are (numerically) zero and the corresponding vectors are
    an orthonormal completion.
    """

    left: np.ndarray
    singular_values: np.ndarray
    rank_deficient: bool = False


def truncated_svd(m, rank: int) -> TruncatedSvd:
    """Deterministic truncated SVD of a matrix, left factor only.

    A wide matrix (fewer rows than columns) is reduced first, as in Chan's
    R-SVD: with ``m^T = Q R``, ``m = R^T Q^T`` and ``Q``'s columns are
    orthonormal, so ``m`` and the (rows x rows) triangular ``R^T`` share
    their left singular vectors and values, and the SVD runs on ``R^T``
    instead of on a matrix with one column per voxel.  The rank flag still
    applies the cutoff of ``m``'s own shape, ``np.linalg.matrix_rank``'s
    default ``s[0] * max(rows, cols) * eps``.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
        Matrix to decompose; must be finite.
    rank : int
        Number of singular pairs to keep, ``1 <= rank <= min(rows, cols)``.

    Returns
    -------
    TruncatedSvd
        Orthonormal left factor under a fixed sign convention: the
        largest-magnitude entry of every left singular vector is positive.
    """
    m = as_matrix(m, "matrix")
    max_rank = min(m.shape)
    if not 1 <= rank <= max_rank:
        raise InvalidArgumentError(
            f"rank must be in [1, {max_rank}] for shape {m.shape}, got {rank}"
        )
    factored = np.linalg.qr(m.T, mode="r").T if m.shape[0] < m.shape[1] else m
    left, s, _ = np.linalg.svd(factored, full_matrices=False)
    s = s[:rank]
    deficient = bool(s[-1] <= s[0] * max(m.shape) * np.finfo(float).eps)
    return TruncatedSvd(_fix_signs(left[:, :rank]), s, rank_deficient=deficient)


@dataclass(frozen=True)
class RegularizedProjector:
    """Shrunken projector ``P = factor @ factor.T`` onto a matrix's column space.

    With ``x = A S B^T`` the factor is ``A @ diag(s_i / sqrt(s_i^2 + eps))``,
    so ``P = x (x^T x + eps I)^{-1} x^T`` without ever forming the
    (cols x cols) Gram inverse.  Eigenvalues of ``P`` are
    ``s_i^2 / (s_i^2 + eps)``, hence lie in [0, 1].
    """

    factor: np.ndarray
    epsilon: float
    rank_deficient: bool = False

    @property
    def size(self) -> int:
        return int(self.factor.shape[0])

    def matrix(self) -> np.ndarray:
        """Materialize the dense (size x size) projector."""
        return self.factor @ self.factor.T

    def apply(self, m) -> np.ndarray:
        """Apply the projector to ``m`` without materializing it."""
        m = np.asarray(m, dtype=float)
        return self.factor @ (self.factor.T @ m)


def _check_epsilon(epsilon) -> None:
    if not np.isfinite(epsilon) or epsilon < 0:
        raise InvalidArgumentError(f"epsilon must be a finite value >= 0, got {epsilon}")


def _check_nonsingular(singular_values, epsilon: float, what: str) -> None:
    """Refuse ``epsilon = 0`` when a retained singular value is numerically zero.

    Every ridge quantity built from an SVD divides by ``s_i^2 + eps``
    somewhere; with no ridge a zero ``s_i`` leaves ``what`` undefined.
    """
    if epsilon == 0.0 and (singular_values <= _ZERO_SINGULAR_VALUE).any():
        raise NumericError(
            f"{what} is singular: zero singular value retained with epsilon = 0"
        )


def projector_from_svd(svd: TruncatedSvd, epsilon: float) -> RegularizedProjector:
    """Ridge-regularized projector onto the column space of a factored matrix.

    Shrinks each left singular vector of ``svd`` by ``s_i / sqrt(s_i^2 + eps)``.
    With ``epsilon = 0`` every retained singular value must exceed ``1e-12``
    or a :class:`NumericError` is raised (the unregularized projector would
    be singular).
    """
    _check_epsilon(epsilon)
    s = svd.singular_values
    _check_nonsingular(s, epsilon, "projector")
    shrink = s / np.sqrt(s * s + epsilon)
    return RegularizedProjector(
        svd.left * shrink, float(epsilon), rank_deficient=svd.rank_deficient
    )


def regularized_projector(x, epsilon: float, rank: int | None = None) -> RegularizedProjector:
    """Ridge-regularized projector onto the column space of ``x``.

    No command calls it: the alignment builds its projectors with
    :func:`projector_from_svd` from SVDs it already holds.  It stays public
    as the dense entry point the acceptance suite checks the projector
    against its closed form through (``regularized_projector(x,
    eps).matrix()``).

    Parameters
    ----------
    x : array_like, shape (rows, cols)
        Matrix whose column space is projected onto.
    epsilon : float
        Ridge term, must be >= 0; see :func:`projector_from_svd`.
    rank : int, optional
        Number of singular directions to retain; defaults to full rank
        ``min(rows, cols)``.
    """
    x = as_matrix(x, "matrix")
    if rank is None:
        rank = min(x.shape)
    return projector_from_svd(truncated_svd(x, rank), epsilon)


def symmetric_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns under the same sign convention as
    :func:`truncated_svd`.  Asymmetry beyond ``1e-10`` is rejected.
    """
    m = as_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise InvalidDataError(f"matrix must be square, got shape {m.shape}")
    asym = np.abs(m - m.T).max()
    if asym > _SYMMETRY_TOLERANCE:
        raise InvalidDataError(
            f"matrix is asymmetric beyond tolerance: max|m - m.T| = {asym:.3e}"
        )
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    return values, _fix_signs(vectors)
