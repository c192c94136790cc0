"""Shared helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import multialign.alignment
import multialign.data
import multialign.linalg
from multialign import Dataset, LabelMatrix, SubjectData, SynthConfig, generate

# CI sets HYPOTHESIS_PROFILE=ci: every run draws the same examples, and a
# failure prints the blob that reproduces it.  Local runs stay randomized.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def align_signs(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Flip columns of ``other`` so their dominant entries match ``reference``."""
    out = other.copy()
    for j in range(out.shape[1]):
        i = np.abs(reference[:, j]).argmax()
        if reference[i, j] * out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def assert_close_up_to_sign(a: np.ndarray, b: np.ndarray, atol: float) -> None:
    np.testing.assert_allclose(a, align_signs(a, b), atol=atol, rtol=0)


def record_factorizations(monkeypatch) -> list:
    """Record the shape of every matrix the package factors, in call order.

    A factorization is a :func:`~multialign.linalg.gram_svd` call that
    returns a result or a :func:`~multialign.linalg.truncated_svd` call; a
    ``gram_svd`` call that is not certified factors nothing, and the
    ``truncated_svd`` call that follows it is the one recorded.  A stack is
    recorded with its leading axes.
    """
    shapes = []
    real_gram, real_svd = multialign.linalg.gram_svd, multialign.linalg.truncated_svd

    def gram(m):
        svd = real_gram(m)
        if svd is not None:
            shapes.append(np.shape(m))
        return svd

    def svd(m, rank):
        shapes.append(np.shape(m))
        return real_svd(m, rank)

    for module in (multialign.linalg, multialign.data, multialign.alignment):
        monkeypatch.setattr(module, "gram_svd", gram, raising=False)
        monkeypatch.setattr(module, "truncated_svd", svd, raising=False)
    return shapes


def random_labels(rng: np.random.Generator, n_classes: int, n_timepoints: int,
                  rest_fraction: float = 0.0) -> LabelMatrix:
    """Random run-structured labels showing every class at labeled points."""
    classes = []
    while len(classes) < n_timepoints:
        c = int(rng.integers(n_classes))
        run = int(rng.integers(1, 4))
        classes.extend([c] * run)
    classes = classes[:n_timepoints]
    # make sure every class shows up
    for c in range(n_classes):
        if c not in classes:
            pos = int(rng.integers(n_timepoints))
            classes[pos] = c
    onehot = np.zeros((n_classes, n_timepoints))
    onehot[classes, np.arange(n_timepoints)] = 1.0
    if rest_fraction > 0:
        n_rest = int(rest_fraction * n_timepoints)
        rest = rng.choice(n_timepoints, size=n_rest, replace=False)
        onehot[:, rest] = 0.0
    # A class left with no labeled point (overwritten above, or drawn at rest
    # points only) takes over the first labeled point of a class shown twice.
    for c in np.flatnonzero(onehot.sum(axis=1) == 0):
        counts = onehot.sum(axis=1)
        t = next(t for t in range(n_timepoints) if counts @ onehot[:, t] > 1)
        onehot[:, t] = 0.0
        onehot[c, t] = 1.0
    return LabelMatrix(onehot)


def random_dataset(rng: np.random.Generator, n_subjects: int, n_timepoints: int,
                   n_voxels: int, n_classes: int,
                   rest_fraction: float = 0.0) -> Dataset:
    """Random dataset with one shared label layout across subjects."""
    labels = random_labels(rng, n_classes, n_timepoints, rest_fraction)
    subjects = tuple(
        SubjectData(f"s{i}", rng.standard_normal((n_timepoints, n_voxels)))
        for i in range(n_subjects)
    )
    return Dataset(subjects, tuple(labels for _ in subjects),
                   tuple(f"c{m}" for m in range(n_classes)))


def relabeled_dataset(classes: int, held: dict, rest: dict,
                      unlabeled: tuple = ()) -> Dataset:
    """A four-subject ``synth`` set with per-subject label values.

    Subject 0 shows each class ``c`` in ``held`` as class ``held[c]``; the
    other subjects show each class ``c`` in ``rest`` as ``rest[c]``.  The
    time points ``unlabeled`` are rest points in every subject.
    """
    ds, _ = generate(SynthConfig(subjects=4, classes=classes, instances_per_class=2,
                                 instance_length=3, voxels=12, noise_sigma=0.4, seed=9))
    labels = []
    for i, lab in enumerate(ds.labels):
        onehot = np.array(lab.onehot)
        onehot[:, list(unlabeled)] = 0.0
        for source, target in (held if i == 0 else rest).items():
            onehot[target] += onehot[source]
            onehot[source] = 0.0
        labels.append(LabelMatrix(onehot))
    return Dataset(ds.subjects, tuple(labels), ds.class_names)


# Subject 0 shows only classes 2 and 3, subjects 1-3 only classes 0 and 1:
# fold 0 trains on no class its held-out subject shows.
NO_TRAINING_CLASS = dict(classes=4, held={0: 2, 1: 3}, rest={2: 0, 3: 1})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
