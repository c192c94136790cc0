"""Linear classification on shared-space features and the LOSO harness.

The classifier is a one-vs-rest ridge regression on +/-1 targets with an
unpenalized intercept, solved in closed form; predicted class is the argmax
of the per-class scores with ties broken toward the lowest class index.

The leave-one-subject-out loop is the package's end-to-end evaluation: per
fold the alignment is fitted on the training subjects alone, every subject
is mapped through that model, the classifier is trained on the mapped
training rows, and the held-out subject is scored.  The held-out subject's
labels are used only for scoring, never for fitting.  Subjects are
normalized once and their supervision kernels built once, and each
subject's factorizations are reused by every fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .alignment import METHODS, fit, map_subject
from .data import Dataset, normalize, split_loso
from .errors import InvalidArgumentError, InvalidDataError, NumericError
from .metrics import classification_scores
from .supervision import kernels_for


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
        return features @ self.weights + self.bias

    def predict(self, features) -> np.ndarray:
        scores = self.decision_function(features)
        return self.classes[scores.argmax(axis=1)]


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
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels).ravel()
    if x.ndim != 2:
        raise InvalidDataError(f"features must be 2-D, got ndim={x.ndim}")
    if y.size != x.shape[0]:
        raise InvalidDataError(f"{y.size} labels for {x.shape[0]} feature rows")
    if not np.isfinite(x).all():
        raise InvalidDataError("features contain non-finite entries")
    if not np.isfinite(ridge) or ridge < 0:
        raise InvalidArgumentError(f"ridge must be a finite value >= 0, got {ridge}")
    classes = np.unique(y)
    if classes.size < 2:
        raise InvalidDataError(f"need at least 2 classes, got {classes.size}")

    targets = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = aug.T @ aug
    penalty = np.full(aug.shape[1], float(ridge))
    penalty[-1] = 0.0  # intercept
    gram += np.diag(penalty)
    try:
        coef = np.linalg.solve(gram, aug.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge system is singular: {exc}") from exc
    return LinearClassifier(coef[:-1], coef[-1], float(ridge), classes)


@dataclass(frozen=True)
class FoldResult:
    """Held-out scores of one leave-one-subject-out fold."""

    held_out: str
    accuracy: float
    auc: float | None
    n_test: int

    def to_json_dict(self) -> dict:
        return {
            "held_out": self.held_out,
            "accuracy": self.accuracy,
            "auc": self.auc,
            "n_test": self.n_test,
        }


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
        return {
            "method": self.method,
            "params": self.params,
            "folds": [f.to_json_dict() for f in self.folds],
            "accuracy_mean": self.accuracy_mean,
            "accuracy_std": self.accuracy_std,
            "auc_mean": self.auc_mean,
            "auc_std": self.auc_std,
        }


def _labeled_rows(mapped_features: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    idx = labels.labeled_indices
    return mapped_features[idx], labels.class_of()[idx]


def run_loso(dataset: Dataset, method: str, *, epsilon: float = 1e-4,
             gamma: float | None = None, k: int | None = None,
             iterations: int = 10, ridge: float = 1.0) -> LosoReport:
    """Leave-one-subject-out classification with per-fold alignment.

    Every subject is normalized once, on its own, before the fold loop;
    since normalization is per subject this equals normalizing each fold's
    training and held-out subjects independently.  The folds are those of
    :func:`run_loso_normalized` on the normalized dataset.
    """
    return run_loso_normalized(normalize(dataset), method, epsilon=epsilon,
                               gamma=gamma, k=k, iterations=iterations,
                               ridge=ridge)


def run_loso_normalized(normalized: Dataset, method: str, *, epsilon: float = 1e-4,
                        gamma: float | None = None, k: int | None = None,
                        iterations: int = 10, ridge: float = 1.0) -> LosoReport:
    """The folds of :func:`run_loso` over subjects normalized by the caller.

    ``normalized`` must be the output of :func:`normalize`; it is used as
    is.  Per fold: fit the alignment on the training subjects only, map
    everyone through the fitted model, train the ridge classifier on the
    mapped training rows, and score the held-out subject's labeled rows.
    Each subject's supervision kernel depends only on its own labels, so
    the kernels are built once and each fold is handed its training
    subjects' kernels.  Every fold is handed the same normalized subject
    objects, so each subject's SVDs (see :meth:`SubjectData.thin_svd`) are
    computed once, in the first fit or map that needs them, and reused by
    all later folds, and by later calls handed the same dataset.  Stage
    wall-clock totals (nanoseconds) are collected on the report's
    ``timings`` attribute (the kernel build counts toward the total
    ``fit_ns``), which stays out of the JSON form so that reports are
    reproducible byte for byte.
    """
    if method not in METHODS:
        raise InvalidArgumentError(f"method must be one of {METHODS}, got {method!r}")
    if normalized.n_subjects < 2:
        raise InvalidArgumentError("leave-one-subject-out needs at least 2 subjects")

    t0 = time.perf_counter_ns()
    kernels = kernels_for(normalized, gamma) if method in ("sha", "sha_r") else None
    kernels_ns = time.perf_counter_ns() - t0
    folds = []
    per_fold_timings = []
    for held in range(normalized.n_subjects):
        train, test = split_loso(normalized, held)

        t0 = time.perf_counter_ns()
        train_kernels = None if kernels is None else kernels[:held] + kernels[held + 1:]
        model = fit(method, train, train_kernels, epsilon=epsilon, k=k,
                    iterations=iterations)
        t1 = time.perf_counter_ns()
        mapped_train = [map_subject(model, subj) for subj in train.subjects]
        mapped_test = map_subject(model, test.subjects[0])
        t2 = time.perf_counter_ns()

        blocks = [
            _labeled_rows(m.features, lab)
            for m, lab in zip(mapped_train, train.labels)
        ]
        x_train = np.vstack([b[0] for b in blocks])
        y_train = np.concatenate([b[1] for b in blocks])
        clf = train_classifier(x_train, y_train, ridge=ridge)
        t3 = time.perf_counter_ns()

        x_test, y_test = _labeled_rows(mapped_test.features, test.labels[0])
        scores = clf.decision_function(x_test)
        predicted = clf.classes[scores.argmax(axis=1)]
        scored = classification_scores(y_test, predicted, scores, classes=clf.classes)
        t4 = time.perf_counter_ns()

        folds.append(FoldResult(test.subjects[0].subject_id, scored.accuracy,
                                scored.auc, int(y_test.size)))
        per_fold_timings.append(
            {"fit_ns": t1 - t0, "map_ns": t2 - t1, "train_ns": t3 - t2,
             "score_ns": t4 - t3}
        )

    accs = np.array([f.accuracy for f in folds])
    aucs = [f.auc for f in folds if f.auc is not None]
    totals = {
        stage: int(sum(t[stage] for t in per_fold_timings))
        for stage in ("fit_ns", "map_ns", "train_ns", "score_ns")
    }
    totals["fit_ns"] += kernels_ns
    params = {
        "epsilon": float(epsilon),
        "gamma": None if gamma is None else float(gamma),
        "k": None if k is None else int(k),
        "iterations": int(iterations),
        "ridge": float(ridge),
    }
    return LosoReport(
        method=method,
        params=params,
        folds=tuple(folds),
        accuracy_mean=float(accs.mean()),
        accuracy_std=float(accs.std()),
        auc_mean=float(np.mean(aucs)) if aucs else None,
        auc_std=float(np.std(aucs)) if aucs else None,
        timings={"per_fold": per_fold_timings, "total": totals},
    )
