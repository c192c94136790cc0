"""Dense decomposition kernels shared by every alignment path.

Three operations live here: a deterministic truncated SVD, the shrunken
orthogonal projector built from it (from a matrix, or from an SVD already
at hand), and a symmetric eigendecomposition with
the same sign convention.  Everything downstream (alignment, mapping,
template extraction) is phrased in terms of these, so determinism and sign
conventions are fixed once, in this module.
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


def _fix_signs(left: np.ndarray, right: np.ndarray | None = None):
    """Flip column signs so each column's largest-magnitude entry is positive.

    The flip is applied consistently to ``right`` (paired columns) when given.
    Ties resolve to the first maximal index, which makes the convention
    deterministic.
    """
    if left.shape[1] == 0:
        return left, right
    anchor = np.abs(left).argmax(axis=0)
    signs = np.sign(left[anchor, np.arange(left.shape[1])])
    signs[signs == 0] = 1.0
    left = left * signs
    if right is not None:
        right = right * signs
    return left, right


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-``r`` singular value decomposition ``m ~ left @ diag(s) @ right.T``.

    ``left`` is (rows, r) with orthonormal columns, ``singular_values`` is
    (r,) non-increasing and non-negative, ``right`` is (cols, r) with
    orthonormal columns.  ``rank_deficient`` flags that the numerical rank of
    the input fell below the requested rank, in which case the trailing
    singular values are (numerically) zero and the corresponding vectors are
    an orthonormal completion.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    rank_deficient: bool = False

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[0])

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T


@dataclass(frozen=True)
class LeftSvd:
    """The left half of a thin SVD: ``left`` and ``singular_values`` only.

    The fields mean what they mean in :class:`TruncatedSvd`, under the same
    sign convention; the right factor is not kept.  A projector or a
    dual-form ridge map needs nothing else of a matrix.
    """

    left: np.ndarray
    singular_values: np.ndarray
    rank_deficient: bool


def _rank_deficient(s: np.ndarray, shape) -> bool:
    """Whether ``s`` of a matrix of ``shape`` falls below its numerical rank.

    Mirrors ``np.linalg.matrix_rank``'s default cutoff
    ``s[0] * max(shape) * eps``.
    """
    return bool(s[-1] <= s[0] * max(shape) * np.finfo(float).eps)


def truncated_svd(m, rank: int) -> TruncatedSvd:
    """Deterministic truncated SVD of a matrix.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
        Matrix to decompose; must be finite.
    rank : int
        Number of singular triplets to keep, ``1 <= rank <= min(rows, cols)``.

    Returns
    -------
    TruncatedSvd
        Orthonormal factors under a fixed sign convention: the
        largest-magnitude entry of every left singular vector is positive.
    """
    m = as_matrix(m, "matrix")
    max_rank = min(m.shape)
    if not 1 <= rank <= max_rank:
        raise InvalidArgumentError(
            f"rank must be in [1, {max_rank}] for shape {m.shape}, got {rank}"
        )
    left, s, right_t = np.linalg.svd(m, full_matrices=False)
    left = left[:, :rank]
    s = s[:rank]
    right = right_t[:rank].T
    left, right = _fix_signs(left, right)
    return TruncatedSvd(left, s, right, rank_deficient=_rank_deficient(s, m.shape))


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


def projector_from_svd(svd: TruncatedSvd | LeftSvd, epsilon: float) -> RegularizedProjector:
    """Ridge-regularized projector onto the column space of a factored matrix.

    Shrinks each left singular vector of ``svd`` by ``s_i / sqrt(s_i^2 + eps)``.
    With ``epsilon = 0`` every retained singular value must exceed ``1e-12``
    or a :class:`NumericError` is raised (the unregularized projector would
    be singular).
    """
    _check_epsilon(epsilon)
    s = svd.singular_values
    if epsilon == 0.0 and (s <= _ZERO_SINGULAR_VALUE).any():
        raise NumericError(
            "projector is singular: zero singular value retained with epsilon = 0"
        )
    shrink = s / np.sqrt(s * s + epsilon)
    return RegularizedProjector(
        svd.left * shrink, float(epsilon), rank_deficient=svd.rank_deficient
    )


def regularized_projector(x, epsilon: float, rank: int | None = None) -> RegularizedProjector:
    """Ridge-regularized projector onto the column space of ``x``.

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
    vectors, _ = _fix_signs(vectors)
    return values, vectors
