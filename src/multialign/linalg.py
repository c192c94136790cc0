"""Dense decomposition kernels shared by every alignment path.

Four operations live here: a deterministic truncated SVD, the same
factorization through the smaller Gram matrix where that is certified, the
shrunken orthogonal projector built from either (from a matrix, or from an
SVD already at hand), and a symmetric eigendecomposition with the same
sign convention.  Everything downstream (alignment, mapping, template
extraction) is phrased in terms of these, so determinism and sign
conventions are fixed once, in this module.

The SVD keeps only the left factor and the singular values, and it reduces
a wide matrix (fewer rows than columns) to its triangular QR factor before
factoring it, so no SVD ever runs on a matrix with one column per voxel.
:func:`gram_svd` does with one ``eigh`` of the smaller Gram matrix (rows x
rows for a wide or square matrix, cols x cols for a tall one) what the SVD
does, and returns ``None`` where squaring the singular values would cost
accuracy the SVD keeps: a subject's data factorization tries it first for
every row set (see :meth:`multialign.data.SubjectData.thin_svd`).

The SVD, its sign convention and the projector built from it also take a
stack of equally shaped matrices (leading axes), in one LAPACK call each
for the QR and the SVD.  A single matrix takes the same code with no
leading axes, and each member of a stack gets the bits a call on it alone
gives.  The fit factors every subject's (classes x rank) label-coupled
matrix that way, in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidDataError, NumericError

# Singular values at or below this are treated as numerically zero when
# deciding whether an unregularized projector is well defined.
_ZERO_SINGULAR_VALUE = 1e-12


# How far above the Gram matrix's resolution :func:`gram_svd` needs every
# eigenvalue it does not read as zero.
_GRAM_GAP = 1e8

# Largest asymmetry ``max|m - m.T|`` accepted from a "symmetric" input.
_SYMMETRY_TOLERANCE = 1e-10


def as_matrix(values, name: str = "input", *, stack: bool = False) -> np.ndarray:
    """Validate and return ``values`` as a finite 2-D float array.

    With ``stack`` leading axes are accepted too: a stack of matrices.
    """
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise InvalidDataError(
            f"{name} must be a 2-D matrix{' or a stack of them' if stack else ''}, "
            f"got ndim={m.ndim}"
        )
    if 0 in m.shape:
        raise InvalidDataError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidDataError(f"{name} contains non-finite entries")
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Columns are those of the last two axes; leading axes are a stack.  Ties
    resolve to the first maximal index, which makes the convention
    deterministic.
    """
    anchor = np.abs(vectors).argmax(axis=-2, keepdims=True)
    signs = np.sign(np.take_along_axis(vectors, anchor, axis=-2))
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
    an orthonormal completion.  The SVD of a stack of matrices carries the
    stack's leading axes on all three: ``rank_deficient`` is then a boolean
    array, one flag per member.
    """

    left: np.ndarray
    singular_values: np.ndarray
    rank_deficient: bool | np.ndarray = False


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
    m : array_like, shape (rows, cols) or (..., rows, cols)
        Matrix to decompose, or a stack of them; must be finite.  A stack is
        factored in one QR and one SVD call, each member to the bits of a
        call on it alone.
    rank : int
        Number of singular pairs to keep, ``1 <= rank <= min(rows, cols)``.

    Returns
    -------
    TruncatedSvd
        Orthonormal left factor under a fixed sign convention: the
        largest-magnitude entry of every left singular vector is positive.
        For a stack, every field has the stack's leading axes.
    """
    m = as_matrix(m, "matrix", stack=True)
    rows, cols = m.shape[-2:]
    if not 1 <= rank <= min(rows, cols):
        raise InvalidArgumentError(
            f"rank must be in [1, {min(rows, cols)}] for shape {m.shape}, got {rank}"
        )
    factored = m
    if rows < cols:
        factored = np.linalg.qr(m.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    left, s, _ = np.linalg.svd(factored, full_matrices=False)
    s = s[..., :rank]
    deficient = s[..., -1] <= s[..., 0] * max(rows, cols) * np.finfo(float).eps
    return TruncatedSvd(_fix_signs(left[..., :rank]), s,
                        rank_deficient=deficient if m.ndim > 2 else bool(deficient))


def gram_svd(m) -> TruncatedSvd | None:
    """Full-rank :func:`truncated_svd` of a matrix, through its smaller Gram matrix.

    A wide or square matrix (no more rows than columns) takes the (rows x
    rows) ``m m^T = U diag(lam) U^T``: ``m``'s left singular vectors are
    ``U`` and its singular values ``sqrt(lam)``, so one ``eigh`` replaces
    the QR and the SVD.  A tall one takes the (cols x cols) ``m^T m = V
    diag(lam) V^T`` instead, with the same singular values and the left
    factor ``m V diag(1 / sqrt(lam))``.  Squaring halves the digits, so the result is
    returned only when it is certified, and ``None`` otherwise (factor ``m``
    with :func:`truncated_svd` then).  With ``tau = rows * eps * lam_max``,
    the Gram matrix's resolution (``rows`` is the summation length of a
    tall matrix's Gram matrix):

    * every eigenvalue is at most ``tau`` (an exact zero singular value) or
      at least ``1e8 * tau``, so each resolved shrink ``s^2 / (s^2 +
      epsilon)`` lies within ``1 / (4 * 1e8)`` of the exact one, for any
      ridge ``epsilon``;
    * a tall matrix has no zero: there it means dependent columns (a
      zeroed or repeated voxel, say), which the left factor cannot divide
      out;
    * a wide or square matrix has at most one, and it is the centering
      null: ``m``'s column sums vanish, in that the all-ones direction's
      singular value is below :func:`truncated_svd`'s rank cutoff.  Data
      whose columns were centered over these rows has it; any other zero
      (a repeated row, say) could hide a small singular value that a small
      ridge would still resolve.

    The sign convention and the rank cutoff are those of
    :func:`truncated_svd`; a zero singular value is flagged and is refused
    by ``epsilon = 0``, as the SVD's rounding-level one is.  A certified
    tall result is never flagged, as the SVD's is not.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
        Any finite matrix.
    """
    m = as_matrix(m, "matrix")
    rows, cols = m.shape
    tall = rows > cols
    values, vectors = np.linalg.eigh(m.T @ m if tall else m @ m.T)
    values, vectors = values[::-1], vectors[:, ::-1]
    eps = np.finfo(float).eps
    resolution = rows * eps * values[0]
    zero = values <= resolution
    if (~zero & (values < _GRAM_GAP * resolution)).any():
        return None
    cutoff = max(rows, cols) * eps
    if zero.any():
        # A tall matrix takes no zero.  A wide or square one takes one, along
        # the unit all-ones direction u: ||u^T m|| = ||sums|| / sqrt(rows)
        # must not exceed the rank cutoff cutoff * s_max.
        sums = m.sum(axis=0)
        if (tall or np.count_nonzero(zero) > 1
                or sums @ sums > rows * cutoff * cutoff * values[0]):
            return None
    s = np.sqrt(np.where(zero, 0.0, values))
    left = m @ vectors / s if tall else vectors
    return TruncatedSvd(_fix_signs(left), s, rank_deficient=bool(s[-1] <= s[0] * cutoff))


@dataclass(frozen=True)
class RegularizedProjector:
    """Shrunken projector ``P = factor @ factor.T`` onto a matrix's column space.

    With ``x = A S B^T`` the factor is ``A @ diag(s_i / sqrt(s_i^2 + eps))``,
    so ``P = x (x^T x + eps I)^{-1} x^T`` without ever forming the
    (cols x cols) Gram inverse.  Eigenvalues of ``P`` are
    ``s_i^2 / (s_i^2 + eps)``, hence lie in [0, 1].  Built from the SVD of
    a stack, ``factor`` and ``rank_deficient`` carry the stack's leading
    axes, and ``matrix`` and ``apply`` act on every member.
    """

    factor: np.ndarray
    epsilon: float
    rank_deficient: bool = False

    @property
    def size(self) -> int:
        return int(self.factor.shape[-2])

    def matrix(self) -> np.ndarray:
        """Materialize the dense (size x size) projector."""
        return self.factor @ self.factor.swapaxes(-1, -2)

    def apply(self, m) -> np.ndarray:
        """Apply the projector to ``m`` without materializing it."""
        m = np.asarray(m, dtype=float)
        return self.factor @ (self.factor.swapaxes(-1, -2) @ m)


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
    be singular).  The SVD of a stack gives the stack of projectors, in one
    pass; one singular member is enough for the refusal.
    """
    _check_epsilon(epsilon)
    s = svd.singular_values
    _check_nonsingular(s, epsilon, "projector")
    shrink = s / np.sqrt(s * s + epsilon)
    return RegularizedProjector(
        svd.left * shrink[..., None, :], float(epsilon), rank_deficient=svd.rank_deficient
    )


def regularized_projector(x, epsilon: float) -> RegularizedProjector:
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
    """
    x = as_matrix(x, "matrix")
    return projector_from_svd(truncated_svd(x, min(x.shape)), epsilon)


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
