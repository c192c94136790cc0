"""Between-subject correlation profiles, accuracy and one-vs-rest AUC.

The four correlation statistics compare mapped subjects pairwise: whole
time series (``rho1``), matching stimulus instances (``rho2``), distinct
instances of the same class (``rho3``), and instances of different classes
(``rho4``).  A *stimulus instance* is a maximal run of consecutive time
points carrying the same class label; its block of mapped rows is flattened
before the correlation.  All statistics are reported as mean and standard
deviation over the enumerated comparisons, together with the comparison
count.

Every correlation goes through one kernel: :func:`_unit_rows` centers each
flattened block and scales it to unit norm, so a single matmul of the
stacked unit rows correlates every pair at once.  ``rho1`` is the upper
triangle of the subjects' Gram matrix.  The instance statistics share
:func:`_instance_correlations`, which correlates every instance pair across
every subject pair, and differ only in the boolean mask over instance pairs
(diagonal, same class off the diagonal, different class).  Two instances of
unequal length are compared on the first rows of both, up to the shorter
length; blocks are grouped by that truncation length, one matmul per group,
so a layout of equal-length instances is a single matmul.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import LabelMatrix
from .errors import AdvisoryWarning, InvalidArgumentError, InvalidDataError, NumericError


def _unit_rows(m) -> np.ndarray:
    """Center each row of a stacked block array and scale it to unit norm.

    The dot product of two result rows is the Pearson correlation of the two
    input rows.  This is the one place that checks correlation inputs.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[1] < 2:
        raise InvalidDataError("correlation needs at least 2 entries")
    if not np.isfinite(m).all():
        raise InvalidDataError("correlation input contains non-finite entries")
    centered = m - m.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    if (norms == 0.0).any():
        raise NumericError("correlation undefined: an input has zero variance")
    return centered / norms[:, None]


@dataclass(frozen=True)
class MetricSummary:
    """Mean and standard deviation over ``pairs`` enumerated comparisons."""

    mean: float | None
    std: float | None
    pairs: int

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "pairs": self.pairs}


def _summarize(values: np.ndarray) -> MetricSummary:
    if values.size == 0:
        return MetricSummary(None, None, 0)
    return MetricSummary(float(values.mean()), float(values.std()), int(values.size))


@dataclass(frozen=True)
class InstanceRun:
    """A maximal run of consecutive time points sharing one class label."""

    class_index: int
    start: int
    stop: int  # half-open

    @property
    def length(self) -> int:
        return self.stop - self.start


def class_instances(labels: LabelMatrix) -> list[InstanceRun]:
    """Stimulus instances of a label matrix, in temporal order.

    Unlabeled (rest) points break runs: a class run cannot span a rest gap.
    """
    classes = labels.class_of()
    runs = []
    start = None
    current = -1
    for t, c in enumerate(classes):
        if c != current:
            if current >= 0:
                runs.append(InstanceRun(current, start, t))
            start = t if c >= 0 else None
            current = c
    if current >= 0:
        runs.append(InstanceRun(current, start, len(classes)))
    return runs


def _stacked(mapped) -> np.ndarray:
    """Mapped subjects as one (subjects, time points, features) array."""
    arrays = []
    for idx, z in enumerate(mapped):
        z = np.asarray(getattr(z, "features", z), dtype=float)
        if z.ndim != 2:
            raise InvalidDataError(f"mapped entry {idx} must be 2-D")
        if arrays and z.shape != arrays[0].shape:
            raise InvalidDataError(
                f"mapped entry {idx} has shape {z.shape}, entry 0 has {arrays[0].shape}"
            )
        arrays.append(z)
    if len(arrays) < 2:
        raise InvalidArgumentError("need at least two subjects to correlate")
    return np.stack(arrays)


def _shared_runs(labels, n_subjects: int, n_timepoints: int) -> list[InstanceRun]:
    labels = list(labels)
    if len(labels) != n_subjects:
        raise InvalidDataError(f"{len(labels)} label matrices for {n_subjects} subjects")
    runs = class_instances(labels[0])
    for idx, lab in enumerate(labels):
        if lab.n_timepoints != n_timepoints:
            raise InvalidDataError(
                f"label matrix {idx} covers {lab.n_timepoints} time points, the "
                f"mapped data has {n_timepoints}"
            )
        if idx and class_instances(lab) != runs:
            raise InvalidDataError(
                f"subject {idx} has a different stimulus-instance layout than "
                "subject 0; instance metrics need a shared layout"
            )
    if not runs:
        raise InvalidDataError("labels contain no stimulus instances")
    return runs


def rho1(mapped, mask=None) -> MetricSummary:
    """Whole-series correlation over unordered subject pairs.

    ``mask`` optionally restricts the rows entering the comparison (used to
    exclude unlabeled time points on request).
    """
    z = _stacked(mapped)
    if mask is not None:
        z = z[:, np.asarray(mask)]
    whole = _unit_rows(z.reshape(z.shape[0], -1))
    gram = whole @ whole.T
    return _summarize(np.clip(gram[np.triu_indices(len(z), 1)], -1.0, 1.0))


def _instance_correlations(z: np.ndarray, runs, mask: np.ndarray) -> np.ndarray:
    """Correlations of the instance pairs ``mask`` selects, for every subject pair.

    Entry ``[p, e]`` correlates instance ``a`` of the first subject of the
    ``p``-th unordered pair (``np.triu_indices`` order) with instance ``b``
    of the second, where ``(a, b)`` is the ``e``-th true entry of ``mask``
    in row-major order.  Both blocks are truncated to the shorter instance.
    Per truncation length ``L``, the first ``L`` rows of every instance
    that takes part are centered and unit-normalized once, and one matmul
    correlates them all.
    """
    n_subjects = z.shape[0]
    starts = np.array([run.start for run in runs])
    lengths = np.array([run.length for run in runs])
    first, second = np.nonzero(mask)
    truncation = np.minimum(lengths[first], lengths[second])
    pair_i, pair_j = np.triu_indices(n_subjects, 1)
    out = np.empty((pair_i.size, first.size))
    for length in np.unique(truncation):
        group = truncation == length
        members, slot = np.unique(np.concatenate([first[group], second[group]]),
                                  return_inverse=True)
        rows = starts[members, None] + np.arange(length)
        units = _unit_rows(z[:, rows].reshape(n_subjects * members.size, -1))
        gram = (units @ units.T).reshape(n_subjects, members.size,
                                         n_subjects, members.size)
        slot_a, slot_b = np.split(slot, 2)
        out[:, group] = gram[pair_i[:, None], slot_a, pair_j[:, None], slot_b]
    return np.clip(out, -1.0, 1.0)


def _instances(mapped, labels) -> tuple[np.ndarray, list[InstanceRun]]:
    z = _stacked(mapped)
    return z, _shared_runs(labels, z.shape[0], z.shape[1])


def _classes(runs) -> np.ndarray:
    return np.array([run.class_index for run in runs])


def _instance_masks(runs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instance-pair masks of ``rho2``, ``rho3`` and ``rho4``, in that order.

    Matching instances (the diagonal), distinct instances of one class, and
    instances of different classes.  Together they cover every pair.
    """
    classes = _classes(runs)
    same = classes[:, None] == classes[None, :]
    diagonal = np.eye(len(runs), dtype=bool)
    return diagonal, same & ~diagonal, ~same


def _instance_statistic(runs, mask, correlations) -> MetricSummary:
    """Summary of the correlations of the instance pairs ``mask`` selects.

    ``correlations`` holds them as :func:`_instance_correlations` returns
    them.  Warns once if a selected pair has unequal lengths, quoting the
    shorter length of the first such pair in (class, class, instance,
    instance) order.
    """
    lengths = np.array([run.length for run in runs])
    first, second = np.nonzero(mask & (lengths[:, None] != lengths[None, :]))
    if first.size:
        classes = _classes(runs)
        head = np.lexsort((second, first, classes[second], classes[first]))[0]
        warnings.warn(
            "comparing instances of unequal length; blocks truncated to the "
            f"shorter ({min(lengths[first[head]], lengths[second[head]])} time points)",
            AdvisoryWarning,
            stacklevel=4,  # the caller of rho2/rho3/rho4 or correlation_report
        )
    return _summarize(correlations)


def _statistic(mapped, labels, which: int) -> MetricSummary:
    z, runs = _instances(mapped, labels)
    mask = _instance_masks(runs)[which]
    return _instance_statistic(runs, mask, _instance_correlations(z, runs, mask))


def rho2(mapped, labels) -> MetricSummary:
    """Correlation of matching instances (same class, same position)."""
    return _statistic(mapped, labels, 0)


def rho3(mapped, labels) -> MetricSummary:
    """Correlation of distinct same-class instances across subjects.

    Enumerates ordered pairs of distinct instances within each class; classes
    with a single instance contribute nothing.  Unequal-length instances are
    truncated to the shorter with an advisory.
    """
    return _statistic(mapped, labels, 1)


def rho4(mapped, labels) -> MetricSummary:
    """Correlation of different-class instances across subjects.

    Enumerates ordered pairs of distinct classes; every instance of the first
    class (in the first subject of the pair) meets every instance of the
    second class (in the second subject).
    """
    return _statistic(mapped, labels, 2)


@dataclass(frozen=True)
class CorrelationReport:
    """The four correlation statistics for one set of mapped subjects."""

    rho1: MetricSummary
    rho2: MetricSummary
    rho3: MetricSummary
    rho4: MetricSummary
    advisories: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        payload = {name: getattr(self, name).to_json_dict()
                   for name in ("rho1", "rho2", "rho3", "rho4")}
        return {**payload, "advisories": list(self.advisories)}


def correlation_report(mapped, labels, rho1_labeled_only: bool = False) -> CorrelationReport:
    """Compute all four correlation statistics.

    ``rho1`` uses every time point unless ``rho1_labeled_only`` restricts it
    to labeled ones; the instance statistics always use labeled points only
    (instances cannot span rest gaps).  The instance statistics share one
    pass of :func:`_instance_correlations` over every instance pair; each
    takes its own entries from it, with the advisories ``rho2``, ``rho3``
    and ``rho4`` raise, in that order.
    """
    labels = list(labels)
    mask = labels[0].labeled_mask if rho1_labeled_only else None
    advisories: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AdvisoryWarning)
        r1 = rho1(mapped, mask=mask)
        z, runs = _instances(mapped, labels)
        masks = _instance_masks(runs)
        union = np.logical_or.reduce(masks)
        correlations = _instance_correlations(z, runs, union)
        r2, r3, r4 = (_instance_statistic(runs, m, correlations[:, m[union]])
                      for m in masks)
        advisories.extend(str(w.message) for w in caught
                          if issubclass(w.category, AdvisoryWarning))
    return CorrelationReport(r1, r2, r3, r4, tuple(dict.fromkeys(advisories)))


def accuracy(truth, predicted) -> float:
    """Fraction of predictions matching the truth."""
    truth = np.asarray(truth).ravel()
    predicted = np.asarray(predicted).ravel()
    if truth.size != predicted.size:
        raise InvalidDataError(f"size mismatch: {truth.size} vs {predicted.size}")
    if truth.size == 0:
        raise InvalidDataError("cannot score an empty prediction set")
    return float((truth == predicted).mean())


def _column_aucs(positive: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """AUC of every column of ``scores`` (n, c) against the flags ``positive`` (n, c).

    One stable sort of the whole matrix ranks every column at once; each
    score takes the average of the ranks its run of equal scores spans,
    ``(first + last) / 2 + 1`` for 0-based positions ``first..last``, an
    exact half-integer, so rank sums are exact.  A column holding NaN (which
    has no rank) gets NaN.
    """
    n = scores.shape[0]
    order = np.argsort(scores, axis=0, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=0)
    position = np.arange(n)[:, None]
    starts = np.ones(scores.shape, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ends = np.ones(scores.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, position, n - 1)[::-1], axis=0)[::-1]
    ranks = (first + last) / 2.0 + 1.0
    rank_sum = (ranks * np.take_along_axis(positive, order, axis=0)).sum(axis=0)
    n_pos = positive.sum(axis=0)
    aucs = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    aucs[np.isnan(scores).any(axis=0)] = np.nan
    return aucs


def _macro_aucs(truth: np.ndarray, scores: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Macro one-vs-rest AUC of every fold of a stack.

    ``truth`` (folds, n) holds each fold's class ids and ``scores``
    (folds, n, c) its decision values for ``classes`` (c,); every fold's
    truth must hold at least two distinct ids and at least one of
    ``classes`` (a fold that holds none gets NaN).  A fold averages the
    AUCs of the ``classes`` its truth holds, in ascending class order; no
    column is formed for a class absent from its truth.  One
    :func:`_column_aucs` sort ranks the columns of every fold at once, and
    the folds with equally many columns are averaged in one row-wise mean,
    which sums in the order a mean over one fold's columns does.
    """
    positive = truth[:, :, None] == classes
    present = positive.any(axis=1)
    fold, column = np.nonzero(present)
    aucs = np.full(present.shape, np.nan)
    aucs[fold, column] = _column_aucs(positive[fold, :, column].T,
                                      scores[fold, :, column].T)
    counts = present.sum(axis=1)
    means = np.full(len(truth), np.nan)
    for count in np.unique(counts[counts > 0]):
        rows = counts == count
        means[rows] = aucs[rows][present[rows]].reshape(-1, count).mean(axis=1)
    return means


def _binary_auc(positive: np.ndarray, scores: np.ndarray) -> float:
    return float(_column_aucs(positive[:, None], scores[:, None])[0])


def one_vs_rest_auc(truth, scores, classes=None) -> float:
    """Macro-averaged one-vs-rest area under the ROC curve.

    ``scores`` is (n, classes) of per-class decision values, or a length-n
    vector of positive-class scores for binary problems.  Ties receive the
    conventional rank-average treatment.  Classes absent from ``truth``
    contribute nothing; a single-class truth, or one that holds none of
    ``classes``, makes the AUC undefined (:class:`NumericError`).  This
    is :func:`_macro_aucs`, the core leave-one-subject-out scores every
    fold through, on a stack of one.
    """
    truth = np.asarray(truth).ravel()
    scores = np.asarray(scores, dtype=float)
    present = np.unique(truth)
    if present.size < 2:
        raise NumericError("AUC undefined: truth contains a single class")
    if scores.ndim == 1:
        if scores.size != truth.size:
            raise InvalidDataError(f"size mismatch: {truth.size} vs {scores.size}")
        if present.size != 2:
            raise InvalidDataError(
                "a score vector implies a binary problem; got "
                f"{present.size} classes"
            )
        return _binary_auc(truth == present[1], scores)
    if scores.shape[0] != truth.size:
        raise InvalidDataError(
            f"scores have {scores.shape[0]} rows for {truth.size} truths"
        )
    if classes is None:
        classes = np.arange(scores.shape[1])
    classes = np.asarray(classes).ravel()
    if classes.size != scores.shape[1]:
        raise InvalidDataError(
            f"{classes.size} class ids for {scores.shape[1]} score columns"
        )
    if not np.isin(present, classes).any():
        raise NumericError("AUC undefined: truth contains none of the scored classes")
    return float(_macro_aucs(truth[None], scores[None], classes)[0])
