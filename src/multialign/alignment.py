"""Multi-subject functional alignment engines.

All methods place subjects into a common space by comparing, per subject,
the ridge-regularized projector onto the column space of the response
matrix, label-coupled (``K_i X_i``) for the supervised methods.  ``sha``,
``rha`` (its coupling-free case: no kernel, every time point) and ``sha_r``
share one fit pipeline and differ only in how they choose the shared space
``W``: the single-shot paths solve one symmetric eigenproblem over the
summed projector complements, the iterative path (``sha_r``) alternates
between per-subject ridge maps and a shared template.  ``none`` is the
do-nothing baseline.

The fit has three cores, each with one job.  :func:`_subject_terms` builds
what the fit needs of each subject (the fitted time points, the validated
kernels' ``gamma`` and coupling matrices, ``k``, the data SVD and one
projector factor per subject), stacked in subject order and built as
stacks, one array operation for every subject at once.  Over any subset of
those subjects, :func:`_shared_space` solves for ``W`` by indexing the
stacks, summing each selected complement ``I - P_i`` into ``U`` as it forms
it, and :func:`_template` back-projects a given ``W`` into the time-point
template.  :func:`fit` and the ``fit_*`` wrappers run the three over every
subject and add the diagnostics; leave-one-subject-out builds the terms
once per run, fits every fold from them and maps through the data SVDs
they hold.  The full-``k`` rule has one home, :func:`_whole_space`: when
``k`` spans all of ``U`` it gives ``W = I``, which every
leave-one-subject-out fold takes in place of :func:`_shared_space`.

Mapping never materializes the (voxels x voxels) ridge system: it is
phrased in the dual (time-point) form of the ridge regression, through the
left factor ``U`` and singular values ``s`` of the subject's data ``X_l``
at the template's time points.  Those rows map as ``U diag(s^2 / (s^2 +
eps)) U^T G`` with no voxel-side product at all; rest rows outside the
template map as ``B U^T G`` through the rest-row factor ``B = X_rest X_l^T
U diag(1 / (s^2 + eps))``.  The voxel-side factor ``V`` is never computed.
That formula exists once, in :func:`_map_rows`, which maps a stack of
subjects at the time points :func:`_mapping_factors` was handed;
:func:`map_dataset` maps a whole dataset onto the full time axis in one
call, :func:`map_subject` a stack of one, and leave-one-subject-out maps
every fold of every method through it at the labeled time points only,
so it builds no rest-row factor.

Each subject is factored once: the SVD ``X_l = U diag(s) V^T`` of its data
at the template's time points is memoized on the subject object (see
:meth:`SubjectData.thin_svd`), computed lazily inside the first fit or map
that needs it, and reused by every later method, fold, fit and mapping that
is handed the same subject.  A subject with more voxels than those time
points is factored through its Gram matrix ``X_l X_l^T``, one with fewer
through ``X_l^T X_l``, where :func:`multialign.linalg.gram_svd` certifies
the result, and by the exact :func:`truncated_svd` otherwise; either gives
the ``U`` and ``s`` read here.  The data SVDs are made per subject:
stacked into one LAPACK call they measured slower, once the stack no
longer fits in cache.  The supervised projectors are read off them: ``V``
has orthonormal columns, so ``K_i X_l`` shares its left singular vectors
and values with the (classes x rank) ``K_i U diag(s)``, and no
label-coupled (classes x voxels) matrix is ever factored.
:func:`_coupled_svd` forms every subject's product in one stacked matmul
and factors the whole (subjects x classes x rank) stack in one
:func:`truncated_svd` call; that stack, like ``sha_r``'s template, keeps
the QR-reduced SVD.
"""

from __future__ import annotations

import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SubjectData,
    _time_indices,
    read_json_object,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
)
from .errors import (
    AdvisoryWarning,
    InvalidArgumentError,
    InvalidDataError,
    NumericError,
    _nonnegative,
    _whole_number,
)
from .linalg import (
    TruncatedSvd,
    _check_nonsingular,
    as_matrix,
    projector_from_svd,
    symmetric_eig,
    truncated_svd,
)
from .metrics import _stacked
from .supervision import SupervisionKernel

METHODS = ("none", "rha", "sha", "sha_r")
# The methods that fit through supervision kernels; the others take no kernel
# and no gamma.
SUPERVISED_METHODS = ("sha", "sha_r")

# Above this size (classes, or time points under rha) a single-shot fit
# materializes an uncomfortably large dense eigenproblem; warn rather than refuse.
_LARGE_EIG_SIZE = 2000

# A template whose every column varies over time by at most this fraction of
# its largest entry counts as constant: centered data maps it to rounding
# noise.
_CONSTANT_TEMPLATE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FitReport:
    """Diagnostics recorded while fitting an alignment model.

    ``trace_objective`` is ``tr(W^T U W)`` for the single-shot paths, taken
    as the sum of the ``k`` smallest eigenvalues of ``U``, those of the
    selected shared directions.  ``pairwise_objective`` is the summed
    squared Frobenius distance between the subjects' projected shared
    spaces over unordered subject pairs.  ``residual_objective`` is
    ``sum_i ||P_i W - W||_F^2``; with no ridge it equals the trace objective
    exactly, with ridge the (non-negative) difference is ``projection_gap``.
    ``objective_history`` holds the per-iteration pairwise objective of the
    iterative path.
    """

    method: str
    trace_objective: float | None = None
    pairwise_objective: float | None = None
    residual_objective: float | None = None
    projection_gap: float | None = None
    eigenvalues: tuple[float, ...] | None = None
    objective_history: tuple[float, ...] | None = None
    advisories: tuple[str, ...] = ()


@dataclass(frozen=True)
class AlignmentModel:
    """A fitted alignment: shared space, time-point template, and mapping data.

    ``shared_space`` has orthonormal columns (one per shared dimension) and as
    many rows as the supervision kernel has classes (``sha``/``sha_r``) or
    the subjects have time points (``rha``).  ``template`` has one row per
    fitted time point; mapping regresses a subject's responses onto it.
    ``labeled`` holds the indices of those time points in the full time
    axis.  For the ``none`` baseline both factors are absent and mapping is
    the identity.  Every model is refused (:class:`InvalidDataError`) unless
    ``epsilon`` and a ``gamma`` other than ``None`` are finite reals >= 0
    and ``k`` an integer >= 1 (never a ``bool`` or text), and its factors
    finite matrices.  Every other model is refused without a template with
    one row per ``labeled`` index, or with a ``k`` other than the column
    count of its factors; ``labeled`` must be strictly increasing and
    non-negative (numpy would otherwise read a negative index from the end
    of the time axis), so mapping never meets an inconsistent model.  The
    factors are stored as float arrays, ``labeled`` as an integer array,
    ``epsilon`` and ``gamma`` as ``float`` and ``k`` as ``int``, whatever
    they are handed; ``labeled`` values that are not whole numbers are
    refused.  The two factors never share memory: a template handed in as
    (a view of) the shared space is stored as a copy.
    """

    method: str
    shared_space: np.ndarray | None
    template: np.ndarray | None
    epsilon: float
    gamma: float | None
    k: int
    labeled: np.ndarray | None
    fit_report: FitReport | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidArgumentError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        try:
            object.__setattr__(self, "epsilon", _nonnegative("epsilon", self.epsilon))
            if self.gamma is not None:
                object.__setattr__(self, "gamma", _nonnegative("gamma", self.gamma))
            object.__setattr__(self, "k", _whole_number("k", self.k, 1))
            for name in ("shared_space", "template"):
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, as_matrix(getattr(self, name), name))
            if self.labeled is not None:
                labeled = _time_indices(self.labeled, "the model's labeled time points")
                object.__setattr__(self, "labeled", labeled)
            if (self.template is not None and self.shared_space is not None
                    and np.may_share_memory(self.template, self.shared_space)):
                # An rha fit's template is its W: hold it apart, so that
                # writing to one factor never changes the other.
                object.__setattr__(self, "template", self.template.copy())
        except (TypeError, ValueError) as exc:
            raise InvalidDataError(f"model for method {self.method!r} holds a malformed "
                                   f"value: {exc}") from exc
        if self.method != "none":
            shape = None if self.template is None else self.template.shape
            if shape is None or np.shape(self.labeled) != shape[:1]:
                raise InvalidDataError(
                    f"model for method {self.method!r} is inconsistent: a template of "
                    f"shape {shape} for labeled time points of shape {np.shape(self.labeled)}"
                )
            widths = {np.shape(m)[1:] for m in (self.shared_space, self.template)
                      if m is not None}
            if widths != {(self.k,)}:
                raise InvalidDataError(
                    f"model for method {self.method!r} is inconsistent: k={self.k} "
                    f"for factors of widths {sorted(widths)}"
                )


@dataclass(frozen=True)
class MappedFeatures:
    """One subject's responses carried into the shared space (rows = time)."""

    subject_id: str
    features: np.ndarray


def pairwise_objective(mapped) -> float:
    """Summed squared distance between subjects over unordered pairs.

    ``sum_{i<j} ||M_i - M_j||_F^2`` where ``M_i`` is subject ``i``'s entry of
    ``mapped``, checked as every stack is (:func:`multialign.metrics._stacked`).

    Computed as ``S * sum_i ||M_i - mean||_F^2`` in two passes over the
    entries, holding only a running sum and one deviation buffer.  Both
    passes work on differences from the first entry, which are exact for
    nearby entries, so well-aligned subjects lose no digits to
    cancellation.
    """
    z = _stacked(mapped)
    origin = z[0]
    mean = np.zeros(origin.shape)
    for m in z[1:]:
        mean += m - origin
    mean /= len(z)
    total = float((mean * mean).sum())  # the first entry's deviation is -mean
    for m in z[1:]:
        dev = m - origin
        dev -= mean
        total += float((dev * dev).sum())
    return len(z) * total


def _validate_kernels(train: Dataset, kernels) -> list[SupervisionKernel]:
    kernels = list(kernels)
    if len(kernels) != train.n_subjects:
        raise InvalidArgumentError(
            f"{len(kernels)} kernels for {train.n_subjects} subjects"
        )
    first = kernels[0]
    for idx, ker in enumerate(kernels):
        if ker.n_classes != first.n_classes or ker.n_points != first.n_points:
            raise InvalidArgumentError(
                f"kernel {idx} has shape {ker.matrix.shape}, expected "
                f"{first.matrix.shape}; all kernels must share classes and "
                "time points"
            )
        if not np.array_equal(ker.labeled, first.labeled):
            raise InvalidArgumentError(
                f"kernel {idx} couples different time points than kernel 0"
            )
        if ker.labeled.size and ker.labeled.max() >= train.n_timepoints:
            raise InvalidArgumentError(
                f"kernel {idx} indexes time point {int(ker.labeled.max())}, "
                f"but subjects have {train.n_timepoints}"
            )
        if abs(ker.gamma - first.gamma) > 0:
            raise InvalidArgumentError("kernels must share a single gamma")
    return kernels


def _resolve_k(k: int | None, limit: int, default: int) -> int:
    k = default if k is None else _whole_number("k", k)
    if not 1 <= k <= limit:
        raise InvalidArgumentError(f"k must be in [1, {limit}], got {k}")
    return k


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
            raise NumericError(f"{name} produced non-finite values")


@dataclass(frozen=True)
class _SubjectTerms:
    """What a fit needs of each subject, stacked along axis 0 in subject order.

    ``labeled`` holds the fitted time points (every one under ``rha``) and
    ``gamma`` the kernels' coupling strength (``None`` under ``rha``).
    ``svds`` stacks the memoized SVDs of the subjects' data at ``labeled``
    (:func:`_data_svds`; the one factorization a subject gets, which
    mapping reads too), ``rank_deficient[i]`` is the rank flag of the
    matrix subject ``i``'s projector comes from, ``factors[i]`` the
    shrunken projector factor ``F_i`` of its label-coupled responses
    ``K_i X_i`` (``X_i`` itself under ``rha``; ``P_i = F_i F_i^T``),
    ``couplings[i]`` the kernel matrix ``K_i`` (``None`` under ``rha``,
    which couples nothing) and ``coupled[i]`` the coupled responses ``K_i
    X_i`` (``sha_r`` only: a fit starts from their mean over its subjects).
    ``k`` is at most ``U``'s size, and under ``sha_r`` at most ``min(classes,
    voxels)``.  A fit over a subset of the subjects indexes these stacks.
    No complement ``I - P_i`` is stacked: each fit adds them to ``U`` one at
    a time, so a (time points x time points) matrix is never held once per
    subject.
    """

    labeled: np.ndarray
    gamma: float | None
    svds: TruncatedSvd
    rank_deficient: np.ndarray
    k: int
    factors: np.ndarray
    couplings: np.ndarray | None
    coupled: np.ndarray | None


def _data_svds(subjects, rows) -> TruncatedSvd:
    """The memoized SVDs of the subjects' data at ``rows``, stacked in subject order.

    One :meth:`SubjectData.thin_svd` lookup per subject; the subjects share
    a shape, so their SVDs do.
    """
    svds = [subject.thin_svd(rows) for subject in subjects]
    return TruncatedSvd(np.stack([svd.left for svd in svds]),
                        np.stack([svd.singular_values for svd in svds]),
                        np.array([svd.rank_deficient for svd in svds]))


def _coupled_svd(couplings: np.ndarray, svds: TruncatedSvd, voxels: int) -> TruncatedSvd:
    """The SVDs of ``K_i X_i``, read off the SVDs ``X_i = U_i diag(s_i) V_i^T``.

    ``V_i`` has orthonormal columns, so ``K_i X_i = (K_i U_i diag(s_i))
    V_i^T`` shares its left singular vectors and singular values with the
    (classes x rank) ``K_i U_i diag(s_i)``, which is factored instead of a
    matrix with one column per voxel.  ``couplings`` and ``svds`` are
    stacks (or a single kernel and SVD): one matmul forms every product and
    one :func:`truncated_svd` call factors them all.  ``K_i X_i`` has
    ``min(classes, voxels)`` singular values; when the data has fewer rows
    than that, zero columns pad the products to that width, so the missing
    values come back as zeros and both the rank flags and the ``epsilon =
    0`` check still see them.
    """
    product = np.matmul(couplings, svds.left * svds.singular_values[..., None, :])
    short = min(couplings.shape[-2], voxels) - product.shape[-1]
    if short > 0:
        product = np.pad(product, [(0, 0)] * (product.ndim - 1) + [(0, short)])
    return truncated_svd(product, min(product.shape[-2:]))


def _subject_terms(method, dataset, kernels, epsilon, k) -> _SubjectTerms:
    """Validate a fit's inputs and build every subject's terms once.

    ``rha`` fits every time point and couples none; a supervised fit
    unpacks its validated kernels into their shared time points and
    ``gamma`` and the stack of their matrices.  One memoized data SVD
    lookup per subject; everything else is one array operation over the
    subjects' stack: the kernels add the stacked (classes x rank) SVDs of
    :func:`_coupled_svd`, and one :func:`projector_from_svd` call shrinks
    every factor, checks ``epsilon = 0`` against every subject and carries
    the rank flags.
    """
    if method == "rha":
        labeled, gamma, couplings = np.arange(dataset.n_timepoints), None, None
    elif kernels is None:
        raise InvalidArgumentError(
            f"fitting {method!r} needs one supervision kernel per subject, got None"
        )
    else:
        kernels = _validate_kernels(dataset, kernels)
        labeled, gamma = kernels[0].labeled, kernels[0].gamma
        couplings = np.stack([kernel.matrix for kernel in kernels])
    size = labeled.size if couplings is None else couplings.shape[1]
    fewest = min(dataset.n_voxels, size)
    # sha_r's W is the left singular basis of a template with one column per
    # voxel: past the voxel count, its columns would be an arbitrary completion.
    k = _resolve_k(k, fewest if method == "sha_r" else size,
                   fewest if method == "rha" else size)
    svds = _data_svds(dataset.subjects, labeled)
    fitted = svds if couplings is None else _coupled_svd(couplings, svds, dataset.n_voxels)
    coupled = None
    if method == "sha_r":
        coupled = couplings @ np.stack([subject.data[labeled] for subject in dataset.subjects])
    return _SubjectTerms(
        labeled=labeled,
        gamma=gamma,
        svds=svds,
        rank_deficient=fitted.rank_deficient,
        k=k,
        factors=projector_from_svd(fitted, epsilon).factor,
        couplings=couplings,
        coupled=coupled,
    )


def _iterated_space(factors, coupled, k, iterations, record_history):
    """``W`` from alternating ridge maps, and each round's pairwise objective.

    The rounds start from the mean of ``coupled`` and map it through every
    subject's projector.  The history is computed only under
    ``record_history`` (``None`` otherwise): it costs a pass over every
    subject per round, and only a fit's report keeps it.
    """
    template = coupled.sum(axis=0) / len(coupled)
    history = []
    for _ in range(iterations):
        mapped = factors @ (factors.swapaxes(1, 2) @ template)
        if record_history:
            history.append(pairwise_objective(mapped))
        template = mapped.sum(axis=0) / len(mapped)
    return truncated_svd(template, k).left, tuple(history) if record_history else None


def _shared_space(terms: _SubjectTerms, subset, iterations=10, record_history=False):
    """The shared space ``W`` of the subjects ``subset`` selects, and its objectives.

    Returns ``(W, trace, eigenvalues, history)``.  The single-shot paths add
    the selected complements ``I - P_i`` in subject order to a running sum
    ``U``, from zeros, and keep the ``k`` eigenvectors of smallest
    eigenvalue; ``trace`` is the sum of the ``k`` kept eigenvalues, which is
    ``tr(W^T U W)``.  ``sha_r`` iterates instead (``trace`` and
    ``eigenvalues`` are then ``None``, ``history`` its per-round pairwise
    objective under ``record_history``, else ``None``).

    A single-shot ``U`` larger than ``_LARGE_EIG_SIZE`` raises an
    :class:`AdvisoryWarning` that names its caller as :func:`_template`'s does.
    """
    factors = terms.factors[subset]
    if terms.coupled is not None:
        w, history = _iterated_space(factors, terms.coupled[subset], terms.k,
                                     iterations, record_history)
        return w, None, None, history
    size = factors.shape[1]
    if size > _LARGE_EIG_SIZE:
        warnings.warn(
            f"assembling a {size} x {size} eigenproblem; this path is meant "
            "for moderate problem sizes",
            AdvisoryWarning,
            stacklevel=4,
        )
    identity = np.eye(size)
    u = np.zeros((size, size))
    for f in factors:
        u += identity - f @ f.T
    eigenvalues, vectors = symmetric_eig(u)
    # A copy of the kept columns: a view would hold all T x T eigenvectors
    # alive in the model, non-contiguous.
    w = vectors[:, :terms.k].copy()
    return w, float(eigenvalues[:terms.k].sum()), eigenvalues, None


def _whole_space(terms: _SubjectTerms) -> np.ndarray | None:
    """``W = I`` when ``k`` spans all of ``U``, else ``None``.

    ``k`` spans ``U = sum_i (I - P_i)`` when it is ``U``'s size (the
    kernel's class count, or under ``rha``, which couples nothing, the
    count of time points): ``W`` is then square with orthonormal columns, a
    rotation that fixes no more than a basis, and the identity is one such
    ``W``.  Under ``sha_r`` that needs at least as many voxels as classes:
    :func:`_subject_terms` refuses every ``k`` past the voxel count.
    """
    size = terms.factors.shape[1]
    return np.eye(size) if terms.k == size else None


def _template(terms: _SubjectTerms, subset, w) -> np.ndarray:
    """The time-point template of ``W`` over the subjects ``subset`` selects.

    The kernel-average back-projection ``(mean_i W^T K_i)^T``; under
    ``rha``, with no kernels, it is ``W`` itself, returned as it is (no
    average is formed).

    A template that does not vary over time (the selected kernels cancel
    out, as when subjects hold swapped class labels) raises an
    :class:`AdvisoryWarning`: centered data maps it to rounding noise.  Its
    ``stacklevel`` names the line that called :func:`fit`, ``fit_*`` or a
    ``multialign.classify.run_loso*`` entry point.
    """
    if terms.couplings is None:
        template = w
    else:
        contributions = w.T @ terms.couplings[subset]
        template = (contributions.sum(axis=0) / len(contributions)).T
    _check_finite("alignment fit", w, template)
    scale = _CONSTANT_TEMPLATE_TOLERANCE * max(template.max(), -template.min())
    if (template.max(axis=0) - template.min(axis=0) <= scale).all():
        warnings.warn(
            "the fitted template is constant over time (the training kernels "
            "cancel out); centered responses map it to rounding noise",
            AdvisoryWarning,
            stacklevel=4,
        )
    return template


def _fit(method, train, kernels, epsilon, k, iterations=10):
    """The fit of ``rha``, ``sha`` and ``sha_r`` over every subject of ``train``.

    It solves for ``W`` (:func:`_shared_space`), then back-projects it
    (:func:`_template`).  :func:`fit` and the ``fit_*`` wrappers call it
    directly, so the advisories' ``stacklevel`` names their caller's line.
    A fit compares subjects with each other, so it needs at least two.
    """
    if train.n_subjects < 2:
        raise InvalidArgumentError(
            f"fitting {method!r} needs at least 2 subjects, got {train.n_subjects}"
        )
    terms = _subject_terms(method, train, kernels, epsilon, k)
    w, trace, eigenvalues, history = _shared_space(terms, slice(None), iterations,
                                                   record_history=True)
    template = _template(terms, slice(None), w)
    # Diagnostics: where each subject's projector carries the shared space.
    projected = terms.factors @ (terms.factors.swapaxes(1, 2) @ w)
    residual = float(sum(((p - w) ** 2).sum() for p in projected))
    report = FitReport(
        method=method,
        trace_objective=trace,
        pairwise_objective=pairwise_objective(projected),
        residual_objective=residual,
        projection_gap=None if trace is None else trace - residual,
        eigenvalues=None if eigenvalues is None else tuple(float(v) for v in eigenvalues),
        objective_history=history,
        advisories=tuple(
            f"subject {subject.subject_id!r}: coupled matrix is rank deficient"
            for subject, deficient in zip(train.subjects, terms.rank_deficient)
            if deficient
        ),
    )
    return AlignmentModel(
        method=method,
        shared_space=w,
        template=template,
        epsilon=epsilon,
        gamma=terms.gamma,
        k=terms.k,
        labeled=terms.labeled.copy(),
        fit_report=report,
    )


def fit_sha(train: Dataset, kernels, epsilon: float = 1e-4,
            k: int | None = None) -> AlignmentModel:
    """Single-shot supervised alignment.

    Per subject, the label-coupled responses ``K_i X_i`` define a
    ridge-regularized projector ``P_i``; the shared space ``W`` collects the
    ``k`` eigenvectors with smallest eigenvalue of ``U = sum_i (I - P_i)``,
    i.e. the directions of label space every subject's responses can express.
    The time-point template is the kernel-average back-projection of ``W``.
    Each ``P_i`` comes from the memoized SVD of the subject's data, the one
    :func:`map_subject` reads, through a (classes x rank) SVD of
    ``K_i U_i diag(s_i)``, all subjects' in one stacked call; the projector
    factors are built as one stack and serve both ``U`` and the fit
    diagnostics.

    Parameters
    ----------
    train : Dataset
        Normalized training subjects.
    kernels : sequence of SupervisionKernel
        One kernel per subject, sharing class count, coupled time points and
        gamma.
    epsilon : float
        Ridge term of the per-subject projectors.
    k : int, optional
        Shared-space dimension, ``1 <= k <= classes``; defaults to the class
        count.
    """
    return _fit("sha", train, kernels, epsilon, k)


def fit_rha(train: Dataset, epsilon: float = 1e-4,
            k: int | None = None) -> AlignmentModel:
    """Unsupervised alignment: the identical pipeline with no label coupling.

    Every time point is fitted and none is coupled to another, so each
    projector comes from the subject's data alone, the summed projector
    complement is (time points x time points), and the template coincides
    with the shared space.  ``k`` defaults to ``min(voxels, time points)``.
    Each subject's projector comes from the same memoized SVD of its data
    that :func:`map_subject` uses.
    """
    return _fit("rha", train, None, epsilon, k)


def fit_sha_r(train: Dataset, kernels, epsilon: float = 1e-4, k: int | None = None,
              iterations: int = 10) -> AlignmentModel:
    """Iterative supervised alignment by alternating minimization.

    Starts from the mean coupled response ``mean_i K_i X_i`` and alternates
    between per-subject ridge maps onto the current template and
    re-averaging the template from the mapped responses.  After
    ``iterations`` rounds the shared space is the top-``k`` left singular
    basis of the final template and the time-point template is rebuilt
    through the kernels, as in the single-shot path.  That template has one
    column per voxel, so ``1 <= k <= min(classes, voxels)``; ``k`` defaults
    to the class count, which fewer voxels than classes refuse.

    :func:`fit_sha`'s ``W`` is a fixed point of a round: ``mean_i P_i = I -
    U / S`` maps it to ``W (I - diag(lambda) / S)``, the same left singular
    basis, so a start from it would return :func:`fit_sha`'s ``W W^T``.
    The recorded ``objective_history`` holds the pairwise objective of the
    mapped responses after each round.  ``iterations`` must be an integer of
    at least 1.
    """
    _whole_number("iterations", iterations, 1)
    return _fit("sha_r", train, kernels, epsilon, k, iterations)


def fit_none(train: Dataset) -> AlignmentModel:
    """The do-nothing baseline: mapping is the identity on raw responses."""
    return AlignmentModel(
        method="none",
        shared_space=None,
        template=None,
        epsilon=0.0,
        gamma=None,
        k=train.n_voxels,
        labeled=None,
        fit_report=FitReport(method="none"),
    )


def fit(method: str, train: Dataset, kernels=None, *, epsilon: float = 1e-4,
        k: int | None = None, iterations: int = 10) -> AlignmentModel:
    """Fit the model named by ``method``; ``rha`` ignores ``kernels``.

    ``epsilon`` (a finite real >= 0) and ``iterations`` (an integer >= 1)
    are checked for every method, ``none`` included, although only
    ``sha_r`` iterates and ``none`` uses neither; neither may be a ``bool``.
    """
    _nonnegative("epsilon", epsilon)
    _whole_number("iterations", iterations, 1)
    if method == "none":
        return fit_none(train)
    if method in METHODS:
        return _fit(method, train, kernels, epsilon, k, iterations)
    raise InvalidArgumentError(f"method must be one of {METHODS}, got {method!r}")


@dataclass(frozen=True)
class _MappingFactors:
    """What :func:`_map_rows` needs of a stack of subjects, for any template.

    ``left`` (subjects, template rows, rank) and ``shrink`` (subjects,
    rank) are the left factors and shrinks ``s^2 / (s^2 + eps)`` of the
    subjects' data SVDs at the template's time points.  ``fitted`` marks
    which of the mapped time points are template rows, and ``fitted_left``
    holds those rows of ``left`` (``left`` itself when every template row
    is mapped).  ``rest`` (subjects, rest rows, rank) holds each subject's
    rest-row factor ``X_rest X_l^T U diag(1 / (s^2 + eps))`` for the other
    mapped time points, or is ``None`` when there are none.
    """

    left: np.ndarray
    fitted_left: np.ndarray
    shrink: np.ndarray
    rest: np.ndarray | None
    fitted: np.ndarray


def _mapping_factors(subjects, svds, labeled, epsilon, rows) -> _MappingFactors:
    """The factors that map ``subjects`` at the ascending time points ``rows``.

    ``svds`` stacks the subjects' data SVDs at the template's time points
    ``labeled`` (:func:`_data_svds`), so building the factors looks up no
    SVD.  Every subject must have as many time points as the first.  A
    rest-row factor is built only for the ``rows`` outside ``labeled``:
    mapping the template's own rows builds none.
    """
    s = svds.singular_values
    _check_nonsingular(s, epsilon, "mapping")
    squares = s * s
    fitted = np.isin(rows, labeled)
    rest_rows = rows[~fitted]
    rest = None
    if rest_rows.size:
        rest = np.stack([(subject.data[rest_rows] @ subject.data[labeled].T) @ left
                         for subject, left in zip(subjects, svds.left)])
        rest /= squares[:, None] + epsilon
    kept = np.searchsorted(labeled, rows[fitted])
    return _MappingFactors(
        left=svds.left,
        fitted_left=svds.left if kept.size == labeled.size else svds.left[:, kept],
        shrink=squares / (squares + epsilon),
        rest=rest,
        fitted=fitted,
    )


def _map_rows(factors: _MappingFactors, template) -> np.ndarray:
    """Every subject of a stack mapped onto ``template`` at the factors' time points.

    The one mapping formula of the package.  With ``P_i = U_i^T G``, the
    template's rows of subject ``i`` map as ``U_i diag(shrink_i) P_i`` and
    its rest rows as ``B_i P_i`` (``B_i`` its rest-row factor): two stacked
    matmuls for the template's rows of the whole stack, a third for the
    rest rows.  Returns (subjects, mapped time points, k) in time order;
    when no mapped time point is a rest row, that is the stacked product
    itself, with no copy.
    """
    projected = np.matmul(factors.left.swapaxes(1, 2), template)
    # Shrinking the (rank x k) projection is cheaper than scaling U or V.
    mapped = np.matmul(factors.fitted_left, factors.shrink[..., None] * projected)
    if factors.rest is None:
        return mapped
    z = np.empty((len(mapped), factors.fitted.size, mapped.shape[2]))
    z[:, factors.fitted] = mapped
    z[:, ~factors.fitted] = np.matmul(factors.rest, projected)
    return z


def _map_subjects(model: AlignmentModel, subjects) -> list[MappedFeatures]:
    """:func:`map_subject` and :func:`map_dataset`, at ``model.epsilon``, for one length."""
    if model.method == "none":
        return [MappedFeatures(subject.subject_id, subject.data.copy()) for subject in subjects]
    labeled = model.labeled
    n_timepoints = subjects[0].n_timepoints
    if labeled.max() >= n_timepoints:
        raise InvalidArgumentError(
            f"subject {subjects[0].subject_id!r} has {n_timepoints} time points; the "
            f"model's template couples time point {int(labeled.max())}"
        )
    factors = _mapping_factors(subjects, _data_svds(subjects, labeled), labeled,
                               model.epsilon, np.arange(n_timepoints))
    z = _map_rows(factors, model.template)
    _check_finite("mapping", z)
    return [MappedFeatures(subject.subject_id, features)
            for subject, features in zip(subjects, z)]


def map_subject(model: AlignmentModel, subject: SubjectData) -> MappedFeatures:
    """Carry one subject's responses into the model's shared space.

    Solves the ridge regression, at the model's ``epsilon``, of the
    subject's responses (at the template's time points) onto the template
    and applies the resulting voxel map to the full time series, in dual
    form through the left factor ``U`` and singular values ``s`` of the
    data ``X_l`` at those time points (see :func:`_map_rows`, the one
    mapping formula, here on a stack of one).  Neither the (voxels x voxels)
    system nor the voxel-side factor ``V`` is ever formed.  The factors are
    memoized on the subject, shared with every fit and every other model
    mapped through the same subject object.  Mapping needs no labels; to
    map at another ridge, map through ``dataclasses.replace(model, epsilon=...)``.
    """
    return _map_subjects(model, (subject,))[0]


def map_dataset(model: AlignmentModel, dataset: Dataset) -> list[MappedFeatures]:
    """Map every subject of a dataset; order follows the dataset.

    One stacked :func:`_map_rows` call maps every subject, with the bits
    :func:`map_subject` gives each one.
    """
    return _map_subjects(model, dataset.subjects)


def save_model(model: AlignmentModel, out_dir) -> Path:
    """Serialize a model to a directory: model.json plus w.csv / g.csv.

    A template that is bit for bit the shared space (``rha``'s) formats to
    the same text, so ``g.csv`` is copied from ``w.csv`` instead of being
    formatted again.  Bits, not values, are compared: ``-0.0`` and ``0.0``
    are equal but format differently.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dims = None
    if model.shared_space is not None:
        dims = {
            "shared_space": list(model.shared_space.shape),
            "template": list(model.template.shape),
        }
    meta = {
        "method": model.method,
        "epsilon": model.epsilon,
        "gamma": model.gamma,
        "k": model.k,
        "dims": dims,
        "labeled": None if model.labeled is None else [int(i) for i in model.labeled],
    }
    path = out_dir / "model.json"
    write_json(path, meta)
    if model.shared_space is not None:
        write_matrix_csv(out_dir / "w.csv", model.shared_space)
        if (model.template.shape == model.shared_space.shape
                and model.template.tobytes() == model.shared_space.tobytes()):
            shutil.copyfile(out_dir / "w.csv", out_dir / "g.csv")
        else:
            write_matrix_csv(out_dir / "g.csv", model.template)
    return path


def load_model(model_dir) -> AlignmentModel:
    """Load a model serialized by :func:`save_model` (diagnostics not kept).

    A ``model.json`` that does not parse, lacks a key :func:`save_model`
    writes, names an unknown method, or disagrees with ``w.csv``/``g.csv``
    raises :class:`InvalidDataError`: the matrices must have the shapes
    ``dims`` records, and (see :class:`AlignmentModel`) a model other than
    ``none`` needs them, with one ``labeled`` index per template row.  Its
    values reach the model uncast, under the rules of a library call:
    ``"k": 2.5``, ``"k": "2"`` or ``"epsilon": true`` is refused.
    """
    model_dir = Path(model_dir)
    path = model_dir / "model.json"
    meta = read_json_object(path)
    missing = [key for key in ("method", "epsilon", "gamma", "k", "labeled")
               if key not in meta]
    if missing:
        raise InvalidDataError(f"{path} lacks the keys {missing}")
    if meta["method"] not in METHODS:
        raise InvalidDataError(f"{path} names an unknown method {meta['method']!r}")
    shared = template = None
    dims = meta.get("dims")
    if isinstance(dims, dict):
        shared = read_matrix_csv(model_dir / "w.csv")
        template = read_matrix_csv(model_dir / "g.csv")
        for name, m, key in (("w.csv", shared, "shared_space"), ("g.csv", template, "template")):
            if list(m.shape) != dims.get(key):
                raise InvalidDataError(
                    f"{name} has shape {list(m.shape)}, model.json says {dims.get(key)}"
                )
    return AlignmentModel(
        method=meta["method"],
        shared_space=shared,
        template=template,
        epsilon=meta["epsilon"],
        gamma=meta["gamma"],
        k=meta["k"],
        labeled=meta["labeled"],
    )
