"""Multi-subject functional alignment engines.

All methods place subjects into a common space by comparing, per subject,
the ridge-regularized projector onto the column space of the (optionally
label-coupled) response matrix.  ``sha``, ``rha`` (its identity-kernel
case) and ``sha_r`` share one fit pipeline and differ only in how they
choose the shared space ``W``: the single-shot paths solve one symmetric
eigenproblem over the summed projector complements, the iterative path
(``sha_r``) alternates between per-subject ridge maps and a shared
template.  ``none`` is the do-nothing baseline.

The fit has two cores.  :func:`_subject_terms` builds what the fit needs of
each subject (validated kernels, ``k``, one projector factor per subject
and, for leave-one-subject-out, each complement ``I - P_i``), stacked in
subject order; :func:`_fit_terms` fits over any subset of those subjects by
indexing the stacks.  :func:`fit` and the ``fit_*`` wrappers run the two over every
subject and add the diagnostics; leave-one-subject-out builds the terms
once per run and fits each fold from them.

Mapping a held-out subject never materializes the (voxels x voxels) ridge
system: it is phrased in the dual (time-point) form of the ridge
regression, through the left factor ``U`` and singular values ``s`` of the
subject's data ``X_l`` at the template's time points.  Those rows map as
``U diag(s^2 / (s^2 + eps)) U^T G`` with no voxel-side product at all; rest
rows outside the template map as ``X_rest X_l^T U diag(1 / (s^2 + eps))
U^T G``.  The voxel-side factor ``V`` is never computed.  :func:`_map_rows`
maps a stack of subjects this way in two stacked matmuls; :func:`map_subject`
hands it a stack of one.  Leave-one-subject-out maps ``rha`` folds through
the fit's own complements instead: under the identity kernel the mapping
projector is the fit projector ``P_i``, so the rows map as ``G - (I - P_i)
G``, one stacked matmul.

Each subject factors each matrix once: the SVDs of its data rows and of its
label-coupled responses are memoized on the subject object (see
:meth:`SubjectData.thin_svd`), computed lazily inside the first fit or map
that needs them, and reused by every later method, fold, fit and mapping
that is handed the same subject.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, SubjectData, read_matrix_csv, write_json, write_matrix_csv
from .errors import AdvisoryWarning, InvalidArgumentError, InvalidDataError, NumericError
from .linalg import (
    _check_epsilon,
    _check_nonsingular,
    projector_from_svd,
    symmetric_eig,
    truncated_svd,
)
from .supervision import SupervisionKernel, identity_kernel

METHODS = ("none", "rha", "sha", "sha_r")
# The methods that fit through supervision kernels; the others take no kernel
# and no gamma.
SUPERVISED_METHODS = ("sha", "sha_r")

# Above this many coupled time points the unsupervised path materializes an
# uncomfortably large dense eigenproblem; warn rather than refuse.
_LARGE_EIG_SIZE = 2000


@dataclass(frozen=True)
class FitReport:
    """Diagnostics recorded while fitting an alignment model.

    ``trace_objective`` is ``tr(W^T U W)`` for the single-shot paths (the
    eigenvalue mass of the selected shared directions).  ``pairwise_objective``
    is the summed squared Frobenius distance between the subjects' projected
    shared spaces over unordered subject pairs.  ``residual_objective`` is
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
    coupled time points (``rha``).  ``template`` has one row per coupled time
    point; mapping regresses a subject's responses onto it.  ``labeled`` holds
    the indices of those time points in the full time axis.  For the ``none``
    baseline both factors are absent and mapping is the identity.
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


@dataclass(frozen=True)
class MappedFeatures:
    """One subject's responses carried into the shared space (rows = time)."""

    subject_id: str
    features: np.ndarray


def pairwise_objective(mapped, kernels=None) -> float:
    """Summed squared distance between subjects over unordered pairs.

    ``sum_{i<j} ||M_i - M_j||_F^2`` where ``M_i`` is subject ``i``'s entry of
    ``mapped``; when ``kernels`` is given each entry is first restricted to
    its kernel's coupled time points and premultiplied by the kernel, so the
    comparison happens in label space.

    Computed as ``S * sum_i ||M_i - mean||_F^2`` in two passes over the
    entries, holding only a running sum and one deviation buffer.  Both
    passes work on differences from the first entry, which are exact for
    nearby entries, so well-aligned subjects lose no digits to
    cancellation.
    """
    mats = []
    for idx, z in enumerate(mapped):
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise InvalidDataError(f"mapped entry {idx} must be 2-D, got ndim={z.ndim}")
        if kernels is not None:
            ker = kernels[idx]
            z = ker.matrix @ z[ker.labeled]
        mats.append(z)
    if len(mats) < 2:
        raise InvalidArgumentError("need at least two subjects to compare")
    shape = mats[0].shape
    for idx, m in enumerate(mats):
        if m.shape != shape:
            raise InvalidDataError(
                f"mapped entry {idx} has shape {m.shape}, expected {shape}"
            )
    origin = mats[0]
    mean = np.zeros(shape)
    for m in mats[1:]:
        mean += m - origin
    mean /= len(mats)
    total = float((mean * mean).sum())  # the first entry's deviation is -mean
    for m in mats[1:]:
        dev = m - origin
        dev -= mean
        total += float((dev * dev).sum())
    return len(mats) * total


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
    if k is None:
        k = default
    if not 1 <= k <= limit:
        raise InvalidArgumentError(f"k must be in [1, {limit}], got {k}")
    return int(k)


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
            raise NumericError(f"{name} produced non-finite values")


@dataclass(frozen=True)
class _SubjectTerms:
    """What a fit needs of each subject, stacked along axis 0 in subject order.

    ``factors[i]`` is the shrunken projector factor ``F_i`` of subject ``i``'s
    label-coupled responses (``P_i = F_i F_i^T``), ``complements[i]`` is
    ``I - P_i``, ``couplings[i]`` the kernel matrix (absent under the
    identity kernel) and ``coupled[i]`` the coupled responses ``K_i X_i``
    (``sha_r`` only, its default start).  A fit over a subset of the
    subjects indexes these stacks.  ``complements`` is kept only when the
    terms serve a fit per fold; a single fit adds each complement to ``U``
    as it forms it, so a (time points x time points) ``U`` is never held
    once per subject.
    """

    kernels: tuple[SupervisionKernel, ...]
    svds: tuple
    k: int
    factors: np.ndarray
    complements: np.ndarray | None
    couplings: np.ndarray | None
    coupled: np.ndarray | None


def _subject_terms(method, dataset, kernels, epsilon, k, iterations,
                   keep_complements=False) -> _SubjectTerms:
    """Validate a fit's inputs and build every subject's terms once.

    One memoized SVD lookup and one :func:`projector_from_svd` per subject;
    kept complements come from one stacked matmul.  The size advisory's
    ``stacklevel`` names the line that called :func:`fit` or ``fit_*``.
    """
    if method == "rha":
        kernels = [identity_kernel(dataset.n_timepoints)] * dataset.n_subjects
    elif kernels is None:
        raise InvalidArgumentError(
            f"fitting {method!r} needs one supervision kernel per subject, got None"
        )
    else:
        kernels = _validate_kernels(dataset, kernels)
    size = kernels[0].n_classes
    if method != "sha_r" and size > _LARGE_EIG_SIZE:
        warnings.warn(
            f"assembling a {size} x {size} eigenproblem; this path is meant "
            "for moderate problem sizes",
            AdvisoryWarning,
            stacklevel=4,
        )
    k = _resolve_k(k, size, min(dataset.n_voxels, size) if method == "rha" else size)
    if method == "sha_r" and iterations < 1:
        raise InvalidArgumentError(f"iterations must be >= 1, got {iterations}")
    identity = all(kernel.is_identity for kernel in kernels)
    svds = tuple(subject.thin_svd(kernel.labeled, None if identity else kernel.matrix)
                 for subject, kernel in zip(dataset.subjects, kernels))
    factors = np.stack([projector_from_svd(svd, epsilon).factor for svd in svds])
    complements = coupled = None
    if method == "sha_r":
        coupled = np.stack([kernel.matrix @ subject.data[kernel.labeled]
                            for subject, kernel in zip(dataset.subjects, kernels)])
    elif keep_complements:
        complements = factors @ factors.swapaxes(1, 2)
        np.subtract(np.eye(size), complements, out=complements)
    return _SubjectTerms(
        kernels=tuple(kernels),
        svds=svds,
        k=k,
        factors=factors,
        complements=complements,
        couplings=None if identity else np.stack([ker.matrix for ker in kernels]),
        coupled=coupled,
    )


def _iterated_space(factors, coupled, k, iterations, initial_shared, record_history):
    """``W`` from alternating ridge maps, and each round's pairwise objective.

    The history is computed only under ``record_history`` (``None``
    otherwise): it costs a pass over every subject per round, and only a
    fit's report keeps it.
    """
    size = factors.shape[1]
    if initial_shared is None:
        template = coupled.sum(axis=0) / len(coupled)
    else:
        template = np.asarray(initial_shared, dtype=float)
        if template.ndim != 2 or template.shape[0] != size:
            raise InvalidArgumentError(
                f"initial_shared must have {size} rows, got shape {template.shape}"
            )
    if template.shape[1] < k:
        raise InvalidArgumentError(
            f"initial template has {template.shape[1]} columns, cannot extract k={k}"
        )
    history = []
    for _ in range(iterations):
        mapped = factors @ (factors.swapaxes(1, 2) @ template)
        if record_history:
            history.append(pairwise_objective(mapped))
        template = mapped.sum(axis=0) / len(mapped)
    return truncated_svd(template, k).left, tuple(history) if record_history else None


def _summed_complements(terms: _SubjectTerms, subset):
    """``U = sum_i (I - P_i)`` over the selected subjects, and their count."""
    if terms.complements is not None:
        kept = terms.complements[subset]
        return kept.sum(axis=0), len(kept)
    factors = terms.factors[subset]
    size = factors.shape[1]
    u = np.zeros((size, size))
    for f in factors:
        u += np.eye(size) - f @ f.T
    return u, len(factors)


def _fit_terms(terms: _SubjectTerms, subset, iterations=10, initial_shared=None,
               record_history=False):
    """The fit over the subjects ``subset`` selects: ``W``, template, objectives.

    Returns ``(W, template, trace, eigenvalues, history)``.  The single-shot
    paths sum the selected complements in subject order into
    ``U = sum_i (I - P_i)``, from zeros (the kept stack and the running
    sum give the same bits), and keep the ``k`` eigenvectors of smallest
    eigenvalue; ``sha_r`` iterates instead (``trace`` and ``eigenvalues``
    are then ``None``, ``history`` its per-round pairwise objective when
    ``record_history`` asks for it, else ``None``).  The template is the
    kernel-average back-projection of ``W``.
    """
    trace = eigenvalues = history = None
    if terms.coupled is not None:
        factors = terms.factors[subset]
        count = len(factors)
        w, history = _iterated_space(factors, terms.coupled[subset], terms.k,
                                     iterations, initial_shared, record_history)
    else:
        u, count = _summed_complements(terms, subset)
        eigenvalues, vectors = symmetric_eig(u)
        w = vectors[:, :terms.k]
        trace = float(np.trace(w.T @ (u @ w)))
    if terms.couplings is None:
        contributions = np.broadcast_to(w.T, (count,) + w.T.shape)
    else:
        contributions = w.T @ terms.couplings[subset]
    template = (contributions.sum(axis=0) / len(contributions)).T
    _check_finite("alignment fit", w, template)
    return w, template, trace, eigenvalues, history


def _fit(method, train, kernels, epsilon, k, iterations=10, initial_shared=None):
    """The fit of ``rha``, ``sha`` and ``sha_r`` over every subject of ``train``.

    :func:`fit` and the ``fit_*`` wrappers call it directly, so the size
    warning's ``stacklevel`` names their caller's line.  A fit compares
    subjects with each other, so it needs at least two.
    """
    if train.n_subjects < 2:
        raise InvalidArgumentError(
            f"fitting {method!r} needs at least 2 subjects, got {train.n_subjects}"
        )
    terms = _subject_terms(method, train, kernels, epsilon, k, iterations)
    w, template, trace, eigenvalues, history = _fit_terms(
        terms, slice(None), iterations, initial_shared, record_history=True)
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
            for subject, svd in zip(train.subjects, terms.svds) if svd.rank_deficient
        ),
    )
    return AlignmentModel(
        method=method,
        shared_space=w,
        template=template,
        epsilon=float(epsilon),
        gamma=None if method == "rha" else terms.kernels[0].gamma,
        k=terms.k,
        labeled=terms.kernels[0].labeled.copy(),
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
    ``U`` is accumulated subject by subject from each subject's memoized SVD
    of ``K_i X_i``; no projector factor is retained, the fit diagnostics
    re-derive each one from the same SVD.

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
    """Unsupervised alignment: the identical pipeline under an identity kernel.

    Every time point acts as its own class, the summed projector complement
    is (time points x time points), and the template coincides with the
    shared space.  ``k`` defaults to ``min(voxels, time points)``.  Each
    subject's projector comes from the same memoized SVD of its data that
    :func:`map_subject` uses.
    """
    return _fit("rha", train, None, epsilon, k)


def fit_sha_r(train: Dataset, kernels, epsilon: float = 1e-4, k: int | None = None,
              iterations: int = 10, initial_shared=None) -> AlignmentModel:
    """Iterative supervised alignment by alternating minimization.

    Alternates between per-subject ridge maps onto the current template and
    re-averaging the template from the mapped responses.  After ``iterations``
    rounds the shared space is the top-``k`` left singular basis of the final
    template and the time-point template is rebuilt through the kernels, as
    in the single-shot path.

    ``initial_shared`` seeds the template (classes x columns); by default the
    mean coupled response is used.  The recorded ``objective_history`` holds
    the pairwise objective of the mapped responses after each round.
    """
    return _fit("sha_r", train, kernels, epsilon, k, iterations, initial_shared)


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

    ``epsilon`` is checked for every method, ``none`` included, although
    ``none`` does not use it.
    """
    _check_epsilon(epsilon)
    if method == "none":
        return fit_none(train)
    if method in METHODS:
        return _fit(method, train, kernels, epsilon, k, iterations)
    raise InvalidArgumentError(f"method must be one of {METHODS}, got {method!r}")


def _mapping_factors(svds, epsilon):
    """Stacked left factors and shrinks ``s^2 / (s^2 + eps)`` of data SVDs.

    The inputs of :func:`_map_rows`, one entry per SVD, all of one shape.
    """
    shrinks = []
    for svd in svds:
        s = svd.singular_values
        _check_nonsingular(s, epsilon, "mapping")
        s2 = s * s
        shrinks.append(s2 / (s2 + epsilon))
    return np.stack([svd.left for svd in svds]), np.stack(shrinks)


def _map_rows(left, shrink, template):
    """A stack of subjects' rows at the template's time points, mapped.

    With ``left`` (subjects, rows, rank) and ``shrink`` (subjects, rank) from
    :func:`_mapping_factors`, subject ``i`` maps as ``U_i diag(shrink_i)
    (U_i^T G)``: two stacked matmuls for the whole stack.  Returns the
    mapped rows and the projections ``U_i^T G``.
    """
    projected = np.matmul(left.swapaxes(1, 2), template)
    # Shrinking the (rank x k) projection is cheaper than scaling U or V.
    return np.matmul(left, shrink[..., None] * projected), projected


def map_subject(model: AlignmentModel, subject: SubjectData,
                epsilon: float | None = None) -> MappedFeatures:
    """Carry one subject's responses into the model's shared space.

    Solves the ridge regression of the subject's responses (at the template's
    time points) onto the template and applies the resulting voxel map to the
    full time series, in dual form through the left factor ``U`` and singular
    values ``s`` of the data ``X_l`` at those time points.  They map as
    ``U diag(s^2 / (s^2 + eps)) (U^T G)`` (:func:`_map_rows` on a stack of
    one, the core leave-one-subject-out maps ``sha`` and ``sha_r`` folds
    through); rest time points outside the template map as ``X_rest X_l^T U
    diag(1 / (s^2 + eps)) (U^T G)``, the same ridge map without ``V`` and
    without a division by ``s``.  Neither the (voxels x voxels) system nor
    the voxel-side factor ``V`` is ever formed.  The factors are memoized on
    the subject, shared with the ``rha`` fit and with every other model
    mapped through the same subject object.  Mapping needs no labels.
    """
    x = subject.data
    if model.method == "none":
        return MappedFeatures(subject.subject_id, x.copy())
    if model.template is None or model.labeled is None:
        raise InvalidArgumentError(f"model for method {model.method!r} has no template")
    eps = model.epsilon if epsilon is None else float(epsilon)
    _check_epsilon(eps)
    labeled = model.labeled
    if labeled.max() >= x.shape[0] or labeled.size != model.template.shape[0]:
        raise InvalidArgumentError(
            f"subject {subject.subject_id!r} has {x.shape[0]} time points; the "
            f"model's template expects {model.template.shape[0]} coupled points "
            f"within the time axis"
        )
    svd = subject.thin_svd(labeled)
    mapped, projected = _map_rows(*_mapping_factors([svd], eps), model.template)
    z = np.empty((x.shape[0], model.template.shape[1]))
    z[labeled] = mapped[0]
    rest = np.ones(x.shape[0], dtype=bool)
    rest[labeled] = False
    if rest.any():
        s = svd.singular_values
        ridge = svd.left @ ((1.0 / (s * s + eps))[:, None] * projected[0])
        z[rest] = x[rest] @ (x[labeled].T @ ridge)
    _check_finite("mapping", z)
    return MappedFeatures(subject.subject_id, z)


def map_dataset(model: AlignmentModel, dataset: Dataset) -> list[MappedFeatures]:
    """Map every subject of a dataset; order follows the dataset."""
    return [map_subject(model, subj) for subj in dataset.subjects]


def save_model(model: AlignmentModel, out_dir) -> Path:
    """Serialize a model to a directory: model.json plus w.csv / g.csv."""
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
        write_matrix_csv(out_dir / "g.csv", model.template)
    return path


def load_model(model_dir) -> AlignmentModel:
    """Load a model serialized by :func:`save_model` (diagnostics not kept)."""
    model_dir = Path(model_dir)
    with open(model_dir / "model.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    shared = template = labeled = None
    if meta.get("dims") is not None:
        shared = read_matrix_csv(model_dir / "w.csv")
        template = read_matrix_csv(model_dir / "g.csv")
        expected = meta["dims"]
        if list(shared.shape) != expected["shared_space"]:
            raise InvalidDataError(
                f"w.csv has shape {list(shared.shape)}, model.json says "
                f"{expected['shared_space']}"
            )
        if list(template.shape) != expected["template"]:
            raise InvalidDataError(
                f"g.csv has shape {list(template.shape)}, model.json says "
                f"{expected['template']}"
            )
        labeled = np.asarray(meta["labeled"], dtype=int)
    return AlignmentModel(
        method=meta["method"],
        shared_space=shared,
        template=template,
        epsilon=float(meta["epsilon"]),
        gamma=None if meta["gamma"] is None else float(meta["gamma"]),
        k=int(meta["k"]),
        labeled=labeled,
    )
