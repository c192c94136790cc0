"""Linear classification on shared-space features and the LOSO harness.

The classifier is a one-vs-rest ridge regression on +/-1 targets with an
unpenalized intercept, solved in closed form; predicted class is the argmax
of the per-class scores with ties broken toward the lowest class index.

The leave-one-subject-out loop is the package's end-to-end evaluation: per
fold the alignment is fitted on the training subjects alone, every subject
is mapped through that model, the classifier is trained on the mapped
training rows, and the held-out subject is scored.  The held-out subject's
labels are used only for scoring, never for fitting.  Everything that
depends on one subject alone is built once per run and stacked in subject
order: the supervision kernel, the projector factor ``F_i`` of the fit
(``P_i = F_i F_i^T``), the mapping factors read off the data SVD (left
factor and shrinks), and the class ids of the labeled rows.

Every fold forms a template over its training subjects and maps every
subject through it with :func:`~multialign.alignment._map_rows`, the one
mapping formula, which :func:`~multialign.alignment.map_subject` and
:func:`~multialign.alignment.map_dataset` also use: all subjects in one
stacked call, at the labeled rows only, the ones the classifier reads, so
no rest-row factor is built.  The classifier ignores the basis of ``W``,
so at full ``k`` (:func:`~multialign.alignment._whole_space`) every fold
takes one ``W = I`` per run, whatever its labels: no eigensolve and no
``sha_r`` iteration (see :func:`run_loso_normalized`).

Each fold then forms the ridge system of its classifier, the sum of its
training subjects' blocks of the normal equations.  The blocks are formed
in one stacked matmul whenever the features change: once per run at full
``k``.  The held-out subject's features are kept.  Once every fold is
done, one stacked solve gives every fold's classifier, one stacked matmul
scores every held-out subject, one argmax and one comparison give the
accuracies, and one sort ranks every AUC column (per training class set;
a ``synth`` layout has one).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .alignment import (
    METHODS,
    SUPERVISED_METHODS,
    _map_rows,
    _mapping_factors,
    _shared_space,
    _subject_terms,
    _template,
    _whole_space,
)
from .data import Dataset, normalize
from .errors import (
    AdvisoryWarning,
    InvalidArgumentError,
    InvalidDataError,
    NumericError,
    _nonnegative,
    _whole_number,
)
from .metrics import _macro_aucs
from .supervision import kernels_for


class _Stages(dict):
    """Wall-clock nanoseconds per stage: ``with stages("fit_ns"):`` adds one span.

    A stage entered more than once accumulates, and spans may nest.  The
    figures are monotonic (``time.perf_counter_ns``) and are the only
    non-deterministic output of a run.
    """

    def __init__(self):
        super().__init__()
        self._open = []

    def __call__(self, stage: str) -> "_Stages":
        self._open.append((stage, time.perf_counter_ns()))
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        stage, start = self._open.pop()
        self[stage] = self.get(stage, 0) + time.perf_counter_ns() - start


@dataclass(frozen=True)
class LinearClassifier:
    """One-vs-rest ridge classifier: ``scores = x @ weights + bias``."""

    weights: np.ndarray  # (features, classes)
    bias: np.ndarray     # (classes,)
    ridge: float
    classes: np.ndarray  # class ids, ascending

    def decision_function(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.weights.shape[0]:
            raise InvalidDataError(
                f"features must be (n, {self.weights.shape[0]}), got "
                f"{features.shape}"
            )
        return _decide(features, self.weights, self.bias)

    def predict(self, features) -> np.ndarray:
        scores = self.decision_function(features)
        return self.classes[scores.argmax(axis=1)]


def _decide(features, weights, bias) -> np.ndarray:
    """Scores ``features @ weights + bias`` of one classifier or of a stack.

    ``features`` (n, k), ``weights`` (k, classes) and ``bias`` (classes,), or
    the same with a leading stack axis on all three.
    """
    return features @ weights + bias[..., None, :]


def _ridge_blocks(features: np.ndarray, class_ids: np.ndarray,
                 ids: np.ndarray) -> np.ndarray:
    """Every subject's block of the one-vs-rest ridge normal equations.

    ``features`` is (subjects, rows, k) and ``class_ids`` (subjects, rows);
    ``ids`` are the ascending class ids to form targets for.  With ``aug_i``
    subject ``i``'s features plus a column of ones and ``t_i`` its targets
    (+1 on the row's class, -1 elsewhere, one column per id), block ``i``
    is ``aug_i^T [aug_i, t_i]``: (subjects, k + 1, k + 1 + ids), all
    formed in one stacked matmul.  Every subject's features are checked
    here, once.
    """
    if not np.isfinite(features).all():
        raise InvalidDataError("features contain non-finite entries")
    k = features.shape[2]
    aug = np.empty(features.shape[:2] + (k + 1 + ids.size,))
    aug[..., :k] = features
    aug[..., k] = 1.0
    aug[..., k + 1:] = np.where(class_ids[..., None] == ids, 1.0, -1.0)
    return np.matmul(aug[..., :k + 1].swapaxes(1, 2), aug)


def _ridge_system(blocks: np.ndarray, train, columns: np.ndarray,
                  ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """The normal equations ``(gram, rhs)`` of the ridge fit over ``train``'s rows.

    The blocks of the subjects ``train`` lists (see :func:`_ridge_blocks`)
    are added in that order, so no other subject's block enters the sum,
    not even through rounding.  ``gram`` is ``aug^T aug`` plus the ridge
    on the feature coefficients (the intercept is not penalized); ``rhs``
    is ``aug^T targets`` for the class ids at ``columns``.
    """
    system = blocks[train[0]].copy()
    for i in train[1:]:
        system += blocks[i]
    width = blocks.shape[1]
    gram = system[:, :width]
    penalized = np.arange(width - 1)  # not the intercept, the last
    gram[penalized, penalized] += ridge
    return gram, system[:, width + columns]


def _solve_ridge(grams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients (systems, k + 1, classes) of a stack of ridge systems.

    Row ``k`` of each is the intercept.  Every system gets the bits a solve
    of it alone gives, as long as its right-hand side has the same columns:
    one more column can change the bits of the others, which is why
    leave-one-subject-out stacks only folds that train on the same classes.
    """
    try:
        return np.linalg.solve(grams, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge system is singular: {exc}") from exc


def train_classifier(features, labels, ridge: float = 1.0) -> LinearClassifier:
    """Closed-form one-vs-rest ridge fit.

    Parameters
    ----------
    features : array_like, shape (rows, k)
    labels : array_like of int, shape (rows,)
        Class ids; at least two distinct classes must be present.
    ridge : float
        Non-negative ridge weight on the feature coefficients (the intercept
        is not penalized).

    Leave-one-subject-out trains every fold through the same cores: it
    forms one :func:`_ridge_blocks` block per subject and stacks the folds'
    :func:`_ridge_system` sums into one :func:`_solve_ridge`, where this
    treats every row as one subject's and solves a stack of one.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels).ravel()
    if x.ndim != 2:
        raise InvalidDataError(f"features must be 2-D, got ndim={x.ndim}")
    if y.size != x.shape[0]:
        raise InvalidDataError(f"{y.size} labels for {x.shape[0]} feature rows")
    ridge = _nonnegative("ridge", ridge)
    classes = np.unique(y)
    if classes.size < 2:
        raise InvalidDataError(f"need at least 2 classes, got {classes.size}")
    blocks = _ridge_blocks(x[None], y[None], classes)
    gram, rhs = _ridge_system(blocks, [0], np.arange(classes.size), ridge)
    coef = _solve_ridge(gram[None], rhs[None])[0]
    return LinearClassifier(coef[:-1], coef[-1], ridge, classes)


def _training_class_sets(class_ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The leave-one-subject-out folds grouped by the classes they train on.

    ``class_ids`` is (subjects, rows).  Returns ``(classes, folds)`` pairs:
    the ascending class ids the training subjects of ``folds`` show (what
    :func:`train_classifier` finds with ``np.unique``), in order of each
    group's first fold.  Folds train on different classes only where some
    class is shown by a single subject.
    """
    ids = np.unique(class_ids)
    shows = (class_ids[:, :, None] == ids).any(axis=1)
    shown_by = shows.sum(axis=0)
    groups = {}
    for held in range(class_ids.shape[0]):
        trained = shown_by - shows[held] > 0
        groups.setdefault(trained.tobytes(), (ids[trained], []))[1].append(held)
    for classes, _ in groups.values():
        if classes.size < 2:
            raise InvalidDataError(f"need at least 2 classes, got {classes.size}")
    return [(classes, np.array(folds)) for classes, folds in groups.values()]


@dataclass(frozen=True)
class FoldResult:
    """Held-out scores of one leave-one-subject-out fold."""

    held_out: str
    accuracy: float
    auc: float | None
    n_test: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LosoReport:
    """Aggregate of all leave-one-subject-out folds for one method."""

    method: str
    params: dict
    folds: tuple[FoldResult, ...]
    accuracy_mean: float
    accuracy_std: float
    auc_mean: float | None
    auc_std: float | None
    timings: dict | None = None

    def to_json_dict(self) -> dict:
        """JSON form of the report; timings deliberately excluded."""
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)
                   if spec.name != "timings"}
        return {**payload, "folds": [fold.to_json_dict() for fold in self.folds]}


def run_loso(dataset: Dataset, method: str, *, epsilon: float = 1e-4,
             gamma: float | None = None, k: int | None = None,
             iterations: int = 10, ridge: float = 1.0) -> LosoReport:
    """Leave-one-subject-out classification with per-fold alignment.

    Every subject is normalized once, on its own, before the fold loop;
    since normalization is per subject this equals normalizing each fold's
    training and held-out subjects independently.  The folds are those of
    :func:`run_loso_normalized` on the normalized dataset.
    """
    return _loso(normalize(dataset), method, epsilon, gamma, k, iterations, ridge)


def run_loso_normalized(normalized: Dataset, method: str, *, epsilon: float = 1e-4,
                        gamma: float | None = None, k: int | None = None,
                        iterations: int = 10, ridge: float = 1.0) -> LosoReport:
    """The folds of :func:`run_loso` over subjects normalized by the caller.

    ``normalized`` must be the output of :func:`normalize`; it is used as
    is.  Per fold: fit the alignment on the training subjects only, map
    everyone through the fitted model, train the ridge classifier on the
    mapped training rows, and score the held-out subject's labeled rows.
    Every method checks ``epsilon``, ``ridge`` (finite reals >= 0, never a
    ``bool``) and ``iterations`` (an integer >= 1).  ``gamma`` reaches only
    the supervision kernels of ``sha`` and ``sha_r``; the report's
    ``params`` record it as ``None`` for the other methods, and ``k`` as
    ``None`` under ``none``, which fits no shared space.

    Every per-subject quantity is built once per run and stacked in subject
    order: the kernels (one pass over every subject), one projector factor
    ``F_i`` per subject (``P_i = F_i F_i^T``; one stacked
    (classes x rank) SVD for every subject under ``sha`` and ``sha_r``),
    the mapping factors of each subject's data SVD at the template's time
    points (left factor and shrinks), and the class ids of the labeled
    rows.  That data SVD is the subject's one factorization: the fit terms
    derive the projector factors from it and keep it for mapping, and it is
    memoized on the subject (see :meth:`SubjectData.thin_svd`), so later
    calls handed the same dataset reuse it.  Every fold of every method maps
    every subject's labeled rows, the only ones the classifier reads,
    through the one mapping formula,
    :func:`~multialign.alignment._map_rows`, that
    :func:`~multialign.alignment.map_subject` and
    :func:`~multialign.alignment.map_dataset` use; rest rows are not
    mapped, so no rest-row factor is built.

    Every fold forms its template with
    :func:`~multialign.alignment._template` over its training subjects and
    maps every subject with one stacked matmul; a fold whose template
    equals the previous fold's keeps that fold's features.  At full ``k``
    (``k`` the size of ``U = sum_i (I - P_i)``: the class count, the
    default of ``sha`` and ``sha_r``, or ``T`` under ``rha``, its default
    with at least as many voxels as time points) every fold takes ``W =
    I``, one identity built once per run by
    :func:`~multialign.alignment._whole_space`, whatever its labels: the
    ridge classifier (isotropic penalty, unpenalized intercept) predicts
    the same from any basis of ``U``.  No fold then solves an eigenproblem
    or runs a ``sha_r`` iteration, and its template is the mean ``K_i^T``
    of its training kernels (under ``rha`` the one ``I`` itself).  Under
    strict labels, and always under ``rha``, every subject is mapped once
    per run; ``sha_r`` gives ``sha``'s folds for any labels, and
    ``iterations`` has no effect.  ``sha_r`` takes ``k <= min(classes,
    voxels)``, so with fewer voxels than classes the run refuses full
    ``k`` before any fold.  Below full ``k`` a fold first solves for ``W``
    with :func:`~multialign.alignment._shared_space`: it adds its training
    subjects' complements ``I - P_i`` to ``U`` in subject order, the sum a
    fit on those subjects forms, and solves one eigenproblem (``sha_r``
    iterates instead).  A fold whose template does not vary over time (its
    training kernels cancel out) raises an :class:`AdvisoryWarning`.
    Per-fold memory is the (subjects, rows, rank + k) stack of one mapping.

    The classifier's normal equations come in per-subject blocks
    (:func:`_ridge_blocks`), formed in one stacked matmul over every
    subject whenever the features change: once per run when every fold
    maps to the same features, once per fold otherwise.  Every subject's
    features are checked for finiteness there.  Each fold adds its
    training subjects' blocks in subject order (:func:`_ridge_system`), so
    the held-out subject's labels never enter its system.

    After the folds, the run trains and scores every classifier at once,
    per group of folds that train on the same classes (one group unless
    some class is shown by a single subject): one stacked solve, one
    stacked matmul over the held-out subjects' rows, one argmax and one
    comparison for the accuracies, and one :func:`_macro_aucs` sort for
    the AUCs.  Each fold's scores are bit-identical to those of a solve of
    its system alone.  :func:`train_classifier` on the fold's
    concatenated rows adds them in another order, so its scores agree to
    rounding only.  :func:`_macro_aucs` alone decides which folds have an
    AUC: a held-out subject whose labeled rows show a single class, or
    none of the classes its fold trains on, has none (``None``);
    ``auc_mean`` and ``auc_std`` cover the folds that have one.

    Stage wall-clock totals (nanoseconds) of the whole run are collected
    on the report's ``timings`` attribute, one flat dict of ``fit_ns``,
    ``map_ns``, ``train_ns`` and ``score_ns`` (all four for every method).
    ``fit_ns`` covers the per-run stacks (kernels, fit terms) and every
    fold's fit, ``map_ns`` the mapping factors, class sets and every
    fold's mapping, ``train_ns`` forming the blocks, every fold's system
    and the stacked solve, and ``score_ns`` the stacked scoring.  They stay
    out of the JSON form so that reports are reproducible byte for byte.
    """
    return _loso(normalized, method, epsilon, gamma, k, iterations, ridge)


def _loso(normalized, method, epsilon, gamma, k, iterations, ridge) -> LosoReport:
    """Both entry points' body, one call deep in each: advisories name their caller."""
    ridge = _nonnegative("ridge", ridge)
    epsilon = _nonnegative("epsilon", epsilon)
    iterations = _whole_number("iterations", iterations, 1)
    if method not in METHODS:
        raise InvalidArgumentError(f"method must be one of {METHODS}, got {method!r}")
    subjects = normalized.n_subjects
    if subjects < 2:
        raise InvalidArgumentError("leave-one-subject-out needs at least 2 subjects")
    if subjects == 2:
        warnings.warn(
            "training split has a single subject; alignment degenerates to a "
            "self-template",
            AdvisoryWarning,
            stacklevel=3,
        )

    run = _Stages()
    order = np.arange(subjects)
    with run("fit_ns"):
        terms = None
        if method != "none":
            kernels = kernels_for(normalized, gamma) if method in SUPERVISED_METHODS else None
            terms = _subject_terms(method, normalized, kernels, epsilon, k)
        # At full k every fold takes W = I: one identity for the run.
        identity = None if terms is None else _whole_space(terms)
    with run("map_ns"):
        labeled = normalized.labels[0].labeled_indices
        class_ids = np.stack([lab.class_of()[labeled] for lab in normalized.labels])
        if terms is None:
            features = np.stack([subj.data[labeled] for subj in normalized.subjects])
        else:
            # Only the labeled rows are classified: no rest-row factor.
            factors = _mapping_factors(normalized.subjects, terms.svds, terms.labeled,
                                       epsilon, labeled)
        ids = np.unique(class_ids)
        groups = _training_class_sets(class_ids)
        columns_of = {int(f): np.searchsorted(ids, classes)
                      for classes, members in groups for f in members}

    systems = []
    held_rows = []
    mapped_from = None  # the template ``features`` were mapped from
    blocks = None  # the ridge blocks of ``features``
    for held in range(subjects):
        train = order[order != held]
        with run("fit_ns"):
            if terms is not None:
                w = _shared_space(terms, train, iterations)[0] if identity is None else identity
                template = _template(terms, train, w)
        with run("map_ns"):
            if terms is not None and not np.array_equal(template, mapped_from):
                features = _map_rows(factors, template)
                mapped_from = template
                blocks = None
        with run("train_ns"):
            if blocks is None:
                blocks = _ridge_blocks(features, class_ids, ids)
            systems.append(_ridge_system(blocks, train, columns_of[held], ridge))
        held_rows.append(features[held])

    accs = np.empty(subjects)
    auc_of = np.empty(subjects)
    for classes, members in groups:
        with run("train_ns"):
            coef = _solve_ridge(np.stack([systems[f][0] for f in members]),
                                np.stack([systems[f][1] for f in members]))
        with run("score_ns"):
            scores = _decide(np.stack([held_rows[f] for f in members]),
                             coef[:, :-1], coef[:, -1])
            truth = class_ids[members]
            accs[members] = (truth == classes[scores.argmax(axis=2)]).mean(axis=1)
            auc_of[members] = _macro_aucs(truth, scores, classes)

    folds = tuple(
        FoldResult(subject.subject_id, float(accs[i]),
                   None if np.isnan(auc_of[i]) else float(auc_of[i]), int(class_ids.shape[1]))
        for i, subject in enumerate(normalized.subjects)
    )
    aucs = [f.auc for f in folds if f.auc is not None]
    params = {
        "epsilon": epsilon,
        "gamma": None if gamma is None or method not in SUPERVISED_METHODS else float(gamma),
        "k": None if k is None or method == "none" else int(k),
        "iterations": iterations,
        "ridge": ridge,
    }
    return LosoReport(
        method=method,
        params=params,
        folds=folds,
        accuracy_mean=float(accs.mean()),
        accuracy_std=float(accs.std()),
        auc_mean=float(np.mean(aucs)) if aucs else None,
        auc_std=float(np.std(aucs)) if aucs else None,
        timings=dict(run),
    )
