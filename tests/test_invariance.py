"""Metamorphic checks: changes that cannot matter mathematically do not.

Rotating every subject's voxels by its own orthogonal matrix after
normalization maps ``X_i`` to ``X_i Q_i``: the data SVD keeps ``U`` and
``s``, so every projector, template and mapping is unchanged.  ``none``
aligns nothing, so it is only invariant when every subject turns by the
same ``Q``; its classifier's ridge then sees the same problem in a turned
basis.  Permuting
the subjects only reorders the sums a fit forms.  Neither may change a
leave-one-subject-out fold's accuracy or AUC, nor any subject's Gram matrix
``Z Z^T`` after :func:`fit` and :func:`map_subject` (``Z Z^T`` is blind to
the basis a solver picks inside a degenerate eigenspace).
"""

import numpy as np
import pytest

from multialign import (
    METHODS,
    Dataset,
    SubjectData,
    SynthConfig,
    fit,
    generate,
    kernels_for,
    map_subject,
    normalize,
    run_loso_normalized,
)

# Tall (T = 48 > V = 20), wide (T = 24 < V = 60) and square (T = V = 48)
# synth shapes, two seeds each.
CONFIGS = [
    SynthConfig(subjects=5, classes=3, instances_per_class=4, instance_length=4,
                voxels=20, seed=seed)
    for seed in (1, 2)
] + [
    SynthConfig(subjects=6, classes=4, instances_per_class=2, instance_length=3,
                voxels=60, noise_sigma=0.8, seed=seed)
    for seed in (3, 4)
] + [
    SynthConfig(subjects=5, classes=3, instances_per_class=4, instance_length=4,
                voxels=48, seed=seed)
    for seed in (5, 6)
]


def _rotated(ds: Dataset, method: str, seed: int) -> Dataset:
    """Each subject's voxels turned by a random orthogonal matrix.

    Every subject gets its own, except under ``none``, where all share one.
    """
    rng = np.random.default_rng(seed)
    turns = [np.linalg.qr(rng.standard_normal((ds.n_voxels, ds.n_voxels)))[0]
             for _ in range(1 if method == "none" else ds.n_subjects)]
    subjects = tuple(SubjectData(s.subject_id, s.data @ turns[i % len(turns)])
                     for i, s in enumerate(ds.subjects))
    return Dataset(subjects, ds.labels, ds.class_names)


def _permuted(ds: Dataset, method: str, seed: int) -> Dataset:
    order = np.random.default_rng(seed).permutation(ds.n_subjects)
    return Dataset(tuple(ds.subjects[i] for i in order),
                   tuple(ds.labels[i] for i in order), ds.class_names)


TRANSFORMS = {"rotated": _rotated, "permuted": _permuted}


@pytest.fixture(scope="module", params=range(len(CONFIGS)), ids=lambda i: f"config{i}")
def normalized(request):
    return normalize(generate(CONFIGS[request.param])[0])


# Every method at its default k, and the single-shot methods below full k too.
# sha_r is left out there: its start, mean_i K_i X_i, sums voxel columns across
# subjects, so a subject's own rotation moves its W below full k.
METHOD_KS = [(method, None) for method in METHODS] + [
    (method, k) for method in ("rha", "sha") for k in (1, 2)
]


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("method, k", METHOD_KS)
def test_loso_folds_unchanged(normalized, method, k, transform):
    base = run_loso_normalized(normalized, method, k=k)
    moved = run_loso_normalized(TRANSFORMS[transform](normalized, method, 11), method, k=k)
    folds = {f.held_out: f for f in moved.folds}
    assert sorted(folds) == sorted(f.held_out for f in base.folds)
    for fold in base.folds:
        other = folds[fold.held_out]
        assert other.accuracy == fold.accuracy, fold.held_out
        assert other.auc == pytest.approx(fold.auc, abs=1e-12, rel=0), fold.held_out


def _grams(ds: Dataset, method: str) -> dict:
    model = fit(method, ds, kernels_for(ds))
    return {s.subject_id: (lambda z: z @ z.T)(map_subject(model, s).features)
            for s in ds.subjects}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("method", METHODS)
def test_mapped_gram_unchanged(normalized, method, transform):
    base = _grams(normalized, method)
    moved = _grams(TRANSFORMS[transform](normalized, method, 11), method)
    assert sorted(moved) == sorted(base)
    for subject_id, gram in base.items():
        np.testing.assert_allclose(moved[subject_id], gram, atol=1e-10, rtol=0,
                                   err_msg=subject_id)
