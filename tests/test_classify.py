"""Ridge classifier and the leave-one-subject-out harness."""

import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multialign.alignment
import multialign.cli
import multialign.classify
import multialign.data
import multialign.linalg
import multialign.supervision
from multialign import (
    FoldResult,
    InvalidArgumentError,
    InvalidDataError,
    LinearClassifier,
    NumericError,
    SynthConfig,
    accuracy,
    fit,
    generate,
    kernels_for,
    map_subject,
    normalize,
    one_vs_rest_auc,
    run_loso,
    run_loso_normalized,
    train_classifier,
)
from conftest import NO_TRAINING_CLASS, random_dataset, relabeled_dataset


def _separable(rng, n_per_class=20, n_classes=3, n_features=6):
    centers = rng.standard_normal((n_classes, n_features)) * 6.0
    x = np.vstack([
        centers[c] + 0.1 * rng.standard_normal((n_per_class, n_features))
        for c in range(n_classes)
    ])
    y = np.repeat(np.arange(n_classes), n_per_class)
    return x, y


class TestTrainClassifier:
    def test_separable_data_classified_perfectly(self, rng):
        x, y = _separable(rng)
        clf = train_classifier(x, y, ridge=1e-6)
        np.testing.assert_array_equal(clf.predict(x), y)

    def test_matches_augmented_least_squares(self, rng):
        # oracle: lstsq on [aug; sqrt(ridge) selector] with zero-padded targets
        x = rng.standard_normal((30, 5))
        y = rng.integers(0, 3, size=30)
        y[:3] = [0, 1, 2]
        ridge = 0.7
        clf = train_classifier(x, y, ridge=ridge)
        aug = np.hstack([x, np.ones((30, 1))])
        tail = np.sqrt(ridge) * np.eye(6)[:5]  # intercept column unpenalized
        design = np.vstack([aug, tail])
        for col, c in enumerate(clf.classes):
            target = np.concatenate([np.where(y == c, 1.0, -1.0), np.zeros(5)])
            coef = np.linalg.lstsq(design, target, rcond=None)[0]
            np.testing.assert_allclose(clf.weights[:, col], coef[:5], atol=1e-8)
            assert clf.bias[col] == pytest.approx(coef[5], abs=1e-8)

    def test_duplicated_rows_with_doubled_ridge(self, rng):
        # duplicating every row doubles the data term; doubling the ridge
        # keeps the balance, so the solution is unchanged
        x = rng.standard_normal((20, 4))
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        a = train_classifier(x, y, ridge=1.0)
        b = train_classifier(np.vstack([x, x]), np.concatenate([y, y]), ridge=2.0)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-10)
        np.testing.assert_allclose(a.bias, b.bias, atol=1e-10)

    def test_intercept_absorbs_feature_shift(self, rng):
        x, y = _separable(rng)
        a = train_classifier(x, y, ridge=0.5)
        b = train_classifier(x + 10.0, y, ridge=0.5)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-6)
        np.testing.assert_allclose(
            a.decision_function(x), b.decision_function(x + 10.0), atol=1e-6
        )

    def test_feature_permutation_permutes_weights(self, rng):
        x, y = _separable(rng)
        perm = rng.permutation(x.shape[1])
        a = train_classifier(x, y)
        b = train_classifier(x[:, perm], y)
        np.testing.assert_allclose(a.weights[perm], b.weights, atol=1e-10)
        np.testing.assert_allclose(
            a.decision_function(x), b.decision_function(x[:, perm]), atol=1e-10
        )

    def test_chance_level_on_random_labels(self):
        accs = []
        for seed in range(50):
            gen = np.random.default_rng(seed)
            x_train = gen.standard_normal((200, 8))
            y_train = gen.permutation(np.repeat(np.arange(4), 50))
            clf = train_classifier(x_train, y_train)
            x_test = gen.standard_normal((100, 8))
            y_test = gen.permutation(np.repeat(np.arange(4), 25))
            accs.append((clf.predict(x_test) == y_test).mean())
        assert np.mean(accs) == pytest.approx(0.25, abs=0.1)

    def test_ties_break_toward_lowest_class(self):
        clf = LinearClassifier(
            weights=np.zeros((2, 3)), bias=np.zeros(3), ridge=1.0,
            classes=np.array([3, 5, 9]),
        )
        np.testing.assert_array_equal(clf.predict(np.ones((4, 2))), [3, 3, 3, 3])

    def test_classes_are_original_ids(self, rng):
        x = rng.standard_normal((10, 3))
        y = np.array([7, 2, 7, 2, 7, 2, 7, 2, 7, 2])
        clf = train_classifier(x, y)
        np.testing.assert_array_equal(clf.classes, [2, 7])
        assert set(clf.predict(x)) <= {2, 7}

    def test_negative_ridge_rejected(self, rng):
        x, y = _separable(rng)
        with pytest.raises(InvalidArgumentError):
            train_classifier(x, y, ridge=-0.1)

    def test_single_class_rejected(self, rng):
        with pytest.raises(InvalidDataError):
            train_classifier(rng.standard_normal((5, 2)), np.zeros(5))

    def test_label_count_mismatch_rejected(self, rng):
        with pytest.raises(InvalidDataError):
            train_classifier(rng.standard_normal((5, 2)), np.arange(4))

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(6, 40),
           width=st.integers(1, 6), n_classes=st.integers(2, 4),
           ridge=st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_predictions_invariant_under_feature_rotation(self, seed, rows, width,
                                                          n_classes, ridge):
        # The ridge penalty and the intercept are rotation-invariant, so the
        # rotated fit is the rotated classifier.
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((rows, width))
        y = gen.integers(0, n_classes, size=rows)
        y[:n_classes] = np.arange(n_classes)
        q = np.linalg.qr(gen.standard_normal((width, width)))[0]
        test = gen.standard_normal((25, width))
        plain = train_classifier(x, y, ridge=ridge)
        rotated = train_classifier(x @ q, y, ridge=ridge)
        scores = plain.decision_function(test)
        np.testing.assert_allclose(rotated.decision_function(test @ q), scores,
                                   rtol=1e-9, atol=1e-9)
        top = np.sort(scores, axis=1)
        clear = top[:, -1] - top[:, -2] > 1e-6
        np.testing.assert_array_equal(rotated.predict(test @ q)[clear],
                                      plain.predict(test)[clear])

    def test_feature_width_checked_at_predict(self, rng):
        x, y = _separable(rng)
        clf = train_classifier(x, y)
        with pytest.raises(InvalidDataError):
            clf.predict(rng.standard_normal((3, x.shape[1] + 1)))


@pytest.fixture(scope="module")
def dataset():
    loso_set, _ = generate(SynthConfig(subjects=4, classes=3,
                                       instances_per_class=3,
                                       instance_length=4, voxels=20,
                                       noise_sigma=0.3, seed=5))
    return loso_set


class TestRunLoso:

    def test_fold_structure(self, dataset):
        report = run_loso(dataset, "sha")
        assert [f.held_out for f in report.folds] == [
            s.subject_id for s in dataset.subjects
        ]
        assert all(f.n_test == 36 for f in report.folds)
        accs = [f.accuracy for f in report.folds]
        assert report.accuracy_mean == pytest.approx(np.mean(accs))
        assert report.accuracy_std == pytest.approx(np.std(accs))

    def test_aligned_beats_chance_on_easy_data(self, dataset):
        report = run_loso(dataset, "sha")
        assert report.accuracy_mean > 0.8

    @pytest.mark.parametrize("method", ["none", "rha", "sha", "sha_r"])
    def test_zero_iterations_refused_for_every_method(self, dataset, method):
        with pytest.raises(InvalidArgumentError, match="iterations must be >= 1, got 0"):
            run_loso(dataset, method, iterations=0)

    def test_params_recorded(self, dataset):
        report = run_loso(dataset, "sha", epsilon=0.01, gamma=0.02, k=2,
                          iterations=3, ridge=2.0)
        assert report.params == {
            "epsilon": 0.01, "gamma": 0.02, "k": 2, "iterations": 3, "ridge": 2.0,
        }

    def test_timings_collected_but_not_serialized(self, dataset):
        report = run_loso(dataset, "none")
        assert set(report.timings) == {"per_fold", "total"}
        assert len(report.timings["per_fold"]) == 4
        assert all(v >= 0 for v in report.timings["total"].values())
        d = report.to_json_dict()
        assert "timings" not in d
        json.dumps(d)  # must be serializable as-is

    @pytest.mark.parametrize("k", [None, 2], ids=["full-k", "below-full-k"])
    def test_held_out_subject_never_enters_fitting(self, dataset, monkeypatch, k):
        # The seam is each fold's fit over the per-run subject terms, which
        # every fold runs, at full k (W = I) as below it.
        seen = []
        real_fit = multialign.classify._fit_terms

        def recording_fit(terms, subset, *args, **kw):
            seen.append(tuple(dataset.subjects[i].subject_id for i in subset))
            return real_fit(terms, subset, *args, **kw)

        monkeypatch.setattr(multialign.classify, "_fit_terms", recording_fit)
        report = run_loso(dataset, "sha", k=k)
        assert len(seen) == 4
        for fold, train_ids in zip(report.folds, seen):
            assert fold.held_out not in train_ids
            assert len(train_ids) == 3

    def test_held_out_scale_absorbed_by_per_fold_normalization(self, dataset):
        scaled_subjects = list(dataset.subjects)
        bloated = scaled_subjects[0]
        scaled_subjects[0] = type(bloated)(
            bloated.subject_id, bloated.data * 1000.0, bloated.zeroed_columns
        )
        scaled = type(dataset)(tuple(scaled_subjects), dataset.labels,
                               dataset.class_names)
        a = run_loso(dataset, "sha")
        b = run_loso(scaled, "sha")
        assert a.folds[0].accuracy == pytest.approx(b.folds[0].accuracy)

    def test_single_class_holdout_yields_absent_auc(self, rng):
        ds = random_dataset(rng, 3, 12, 8, 2)
        onehot = np.array(ds.labels[0].onehot)
        labeled = ds.labels[0].labeled_indices
        onehot[:, labeled] = 0.0
        onehot[0, labeled] = 1.0  # subject 0: every labeled point is class 0
        lone = type(ds.labels[0])(onehot)
        ds = type(ds)((ds.subjects), (lone,) + ds.labels[1:], ds.class_names)
        report = run_loso(ds, "sha")
        assert report.folds[0].auc is None
        assert all(f.auc is not None for f in report.folds[1:])
        assert report.auc_mean == pytest.approx(
            np.mean([f.auc for f in report.folds[1:]])
        )

    def test_unknown_method_rejected(self, dataset):
        with pytest.raises(InvalidArgumentError):
            run_loso(dataset, "srm")

    def test_methods_ranked_on_rotated_data(self):
        cfg = SynthConfig(subjects=4, classes=3, instances_per_class=3,
                          instance_length=4, voxels=24, noise_sigma=0.4, seed=11)
        ds, _ = generate(cfg)
        aligned = run_loso(ds, "sha").accuracy_mean
        unaligned = run_loso(ds, "none").accuracy_mean
        assert aligned > unaligned


def _subset(dataset, indices):
    """The subjects of ``dataset`` at ``indices``, with their labels."""
    return multialign.data.Dataset(tuple(dataset.subjects[i] for i in indices),
                                   tuple(dataset.labels[i] for i in indices),
                                   dataset.class_names)


def _split(dataset, held):
    """(training subjects, held-out subject) of one leave-one-subject-out fold."""
    train = [i for i in range(dataset.n_subjects) if i != held]
    return _subset(dataset, train), _subset(dataset, [held])


def _reference_loso(dataset, method, *, epsilon=1e-4, gamma=None, ridge=1.0,
                    iterations=10, k=None):
    """LOSO folds with each fold normalized on its own, so no factor carries over.

    Every fold fits its own model at ``k``, eigensolve or ``sha_r`` iteration
    included, whether or not ``k`` is full.
    """
    folds = []
    for held in range(dataset.n_subjects):
        train_raw, test_raw = _split(dataset, held)
        train, test = normalize(train_raw), normalize(test_raw)
        kernels = kernels_for(train, gamma) if method in ("sha", "sha_r") else None
        model = fit(method, train, kernels, epsilon=epsilon, k=k, iterations=iterations)
        x_rows, y_rows = [], []
        for subj, lab in zip(train.subjects, train.labels):
            idx = lab.labeled_indices
            x_rows.append(map_subject(model, subj).features[idx])
            y_rows.append(lab.class_of()[idx])
        clf = train_classifier(np.vstack(x_rows), np.concatenate(y_rows), ridge=ridge)
        idx = test.labels[0].labeled_indices
        scores = clf.decision_function(map_subject(model, test.subjects[0]).features[idx])
        y_test = test.labels[0].class_of()[idx]
        try:
            auc = one_vs_rest_auc(y_test, scores, classes=clf.classes)
        except NumericError:
            auc = None
        acc = accuracy(y_test, clf.classes[scores.argmax(axis=1)])
        folds.append(FoldResult(test.subjects[0].subject_id, acc, auc, int(y_test.size)))
    return tuple(folds)


# Every method at its default k, and the supervised ones also one below full
# k (the class count), where each fold still solves or iterates: 3 classes.
METHODS_AND_K = [
    *(pytest.param(m, None, id=m) for m in ("none", "rha", "sha", "sha_r")),
    *(pytest.param(m, 2, id=f"{m}-below-full-k") for m in ("sha", "sha_r")),
]


class TestLosoFactorReuse:
    @pytest.mark.parametrize("method, k", METHODS_AND_K)
    def test_equals_per_fold_reference(self, dataset, method, k):
        assert run_loso(dataset, method, k=k).folds == _reference_loso(dataset, method, k=k)

    @pytest.mark.parametrize("method, k", [
        *(pytest.param(m, None, id=m) for m in ("rha", "sha")),
        *(pytest.param(m, 2, id=f"{m}-below-full-k") for m in ("sha", "sha_r")),
    ])
    def test_equals_per_fold_reference_with_rest_points(self, method, k):
        ds = random_dataset(np.random.default_rng(3), 4, 18, 10, 3, rest_fraction=0.3)
        for epsilon, gamma in ((1e-4, None), (0.1, 0.02)):
            report = run_loso(ds, method, epsilon=epsilon, gamma=gamma, k=k, ridge=0.5)
            assert report.folds == _reference_loso(ds, method, epsilon=epsilon,
                                                   gamma=gamma, k=k, ridge=0.5)

    @pytest.mark.parametrize("method, per_subject", [("rha", 1), ("sha", 2)])
    def test_each_subject_factored_once(self, dataset, monkeypatch, method, per_subject):
        calls = []
        real = multialign.linalg.truncated_svd

        def counting(m, rank):
            calls.append(np.shape(m))
            return real(m, rank)

        for module in (multialign.linalg, multialign.data, multialign.alignment):
            monkeypatch.setattr(module, "truncated_svd", counting, raising=False)
        run_loso(dataset, method)
        # rha: each subject's data; sha: its data and its label-coupled responses.
        assert len(calls) == per_subject * dataset.n_subjects


def _count_calls(monkeypatch, module, name, modules=()):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in (module,) + tuple(modules):
        monkeypatch.setattr(owner, name, counting, raising=False)
    return calls


class TestLosoHoisting:
    @pytest.mark.parametrize("method", ["sha", "sha_r"])
    def test_kernels_built_once_per_subject(self, dataset, monkeypatch, method):
        calls = _count_calls(monkeypatch, multialign.supervision, "supervision_kernel")
        run_loso(dataset, method)
        # One kernel per subject, not one per training subject per fold.
        assert len(calls) == dataset.n_subjects

    def test_folds_get_their_training_subjects_kernels(self, dataset, monkeypatch):
        # Below full k, where each fold still fits.
        seen = []
        real_fit = multialign.classify._fit_terms

        def recording_fit(terms, subset, *args, **kw):
            seen.append([terms.kernels[i] for i in subset])
            return real_fit(terms, subset, *args, **kw)

        monkeypatch.setattr(multialign.classify, "_fit_terms", recording_fit)
        run_loso(dataset, "sha", gamma=0.01, k=2)
        assert len(seen) == dataset.n_subjects
        for held, kernels in enumerate(seen):
            train, _ = _split(dataset, held)
            expected = kernels_for(train, 0.01)
            assert len(kernels) == len(expected)
            for got, want in zip(kernels, expected):
                np.testing.assert_array_equal(got.matrix, want.matrix)
                np.testing.assert_array_equal(got.labeled, want.labeled)

    @pytest.mark.parametrize("method", ["none", "rha", "sha", "sha_r"])
    def test_normalized_entry_point_equals_run_loso(self, dataset, method):
        a = run_loso(dataset, method, gamma=None if method in ("none", "rha") else 0.01)
        b = run_loso_normalized(normalize(dataset), method,
                                gamma=None if method in ("none", "rha") else 0.01)
        assert a.to_json_dict() == b.to_json_dict()

    def test_normalized_subjects_shared_across_gammas(self, dataset, monkeypatch):
        calls = _count_calls(monkeypatch, multialign.linalg, "truncated_svd",
                             (multialign.data, multialign.alignment))
        normalized = normalize(dataset)
        gammas = (0.0, 0.005, 0.01)
        reports = [run_loso_normalized(normalized, "sha", gamma=g) for g in gammas]
        data_shape = normalized.subjects[0].data.shape
        data_calls = [c for c in calls if np.shape(c[0]) == data_shape]
        # Each subject's data once; its label-coupled responses once per gamma.
        assert len(data_calls) == dataset.n_subjects
        assert len(calls) == dataset.n_subjects * (1 + len(gammas))
        for g, report in zip(gammas, reports):
            assert report.folds == run_loso(dataset, "sha", gamma=g).folds



def _per_subject_labels(rng, n_subjects, n_timepoints, n_voxels, n_classes):
    """Subjects sharing one rest mask but each with its own class values."""
    base = random_dataset(rng, n_subjects, n_timepoints, n_voxels, n_classes,
                          rest_fraction=0.3)
    labels = tuple(
        multialign.data.LabelMatrix(base.labels[0].onehot[rng.permutation(n_classes)])
        for _ in base.subjects
    )
    return multialign.data.Dataset(base.subjects, labels, base.class_names)


def _rank_deficient_dataset(rng, deficient=0):
    onehot = np.zeros((3, 12))
    onehot[np.arange(12) % 3, np.arange(12)] = 1.0
    subjects = []
    for i in range(3):
        data = rng.standard_normal((12, 5))
        if i == deficient:
            data[:, 1] = data[:, 0]  # collinear voxels: exact rank deficiency
        subjects.append(multialign.data.SubjectData(f"s{i}", data))
    labels = (multialign.data.LabelMatrix(onehot),) * 3
    return multialign.data.Dataset(tuple(subjects), labels, ("a", "b", "c"))


class TestBatchedLoso:
    """The batched fold loop: per-run stacks, one stacked pass per fold."""

    @pytest.mark.parametrize("method, k", METHODS_AND_K)
    def test_equals_reference_with_rest_points_and_per_subject_labels(self, method, k):
        # Per-subject label values are what ``strict_labels=False`` admits.
        ds = _per_subject_labels(np.random.default_rng(8), 5, 18, 7, 3)
        assert not ds.labels_identical()
        for epsilon, gamma in ((1e-4, None), (0.1, 0.02)):
            report = run_loso(ds, method, epsilon=epsilon, gamma=gamma, k=k, ridge=0.5)
            assert report.folds == _reference_loso(ds, method, epsilon=epsilon,
                                                   gamma=gamma, k=k, ridge=0.5)

    @pytest.mark.parametrize("method, layout, k", [
        # Subjects 1-3 label class 2 as class 0: subject 0's fold trains on
        # classes {0, 1}, every other fold on {0, 1, 2}.
        *(pytest.param(m, dict(classes=3, held={}, rest={2: 0}), None, id=m)
          for m in ("none", "rha", "sha", "sha_r")),
        # Fold 0 trains on none of its held-out subject's classes: no AUC.
        *(pytest.param(m, NO_TRAINING_CLASS, None, id=f"{m}-no-training-class")
          for m in ("none", "rha", "sha", "sha_r")),
        # The supervised methods one below full k (the class count).
        *(pytest.param(m, dict(classes=3, held={}, rest={2: 0}), 2, id=f"{m}-below-full-k")
          for m in ("sha", "sha_r")),
        *(pytest.param(m, NO_TRAINING_CLASS, 3, id=f"{m}-no-training-class-below-full-k")
          for m in ("sha", "sha_r")),
    ])
    def test_class_only_the_held_out_subject_shows(self, method, layout, k):
        ds = relabeled_dataset(**layout)
        report = run_loso(ds, method, k=k)
        assert report.folds == _reference_loso(ds, method, k=k)
        aucs = [f.auc for f in report.folds if f.auc is not None]
        assert report.auc_mean == np.mean(aucs) and report.auc_std == np.std(aucs)

    @pytest.mark.parametrize("method", ["none", "rha", "sha", "sha_r"])
    def test_stacked_scores_equal_single_fold_classifier(self, monkeypatch, method):
        # Each fold's training rows (from its ridge system) and the stacked
        # classifiers and scores, recorded at the private seams.
        ds = _per_subject_labels(np.random.default_rng(4), 5, 18, 7, 3)
        systems, decisions = [], []
        real_system = multialign.classify._ridge_system
        real_decide = multialign.classify._decide

        def recording_system(x, y, classes, ridge):
            systems.append((x, y, ridge))
            return real_system(x, y, classes, ridge)

        def recording_decide(features, weights, bias):
            scores = real_decide(features, weights, bias)
            decisions.append((features, weights, scores))
            return scores

        monkeypatch.setattr(multialign.classify, "_ridge_system", recording_system)
        monkeypatch.setattr(multialign.classify, "_decide", recording_decide)
        run_loso(ds, method, ridge=0.5)
        monkeypatch.undo()
        assert len(systems) == ds.n_subjects
        stacked = [(f, w, s) for features, weights, scores in decisions
                   for f, w, s in zip(features, weights, scores)]
        assert len(stacked) == ds.n_subjects
        for x, y, ridge in systems:
            clf = train_classifier(x, y, ridge=ridge)
            matches = [(f, s) for f, w, s in stacked if np.array_equal(w, clf.weights)]
            assert len(matches) == 1
            held_rows, scores = matches[0]
            assert np.array_equal(scores, clf.decision_function(held_rows))

    @pytest.mark.parametrize("method, full", [
        *(pytest.param(m, True, id=m) for m in ("none", "rha", "sha", "sha_r")),
        *(pytest.param(m, False, id=f"{m}-below-full-k")
          for m in ("none", "rha", "sha", "sha_r")),
    ])
    def test_per_run_call_counts(self, dataset, monkeypatch, method, full):
        normalized = normalize(dataset)
        n = normalized.n_subjects
        # The size of U: the time points under rha's identity kernel, else the classes.
        size = normalized.n_timepoints if method == "rha" else len(normalized.class_names)
        projectors = _count_calls(monkeypatch, multialign.linalg, "projector_from_svd",
                                  (multialign.alignment,))
        eigs = _count_calls(monkeypatch, multialign.linalg, "symmetric_eig",
                            (multialign.alignment,))
        maps = _count_calls(monkeypatch, multialign.alignment, "map_subject",
                            (multialign.classify,))
        lookups = _count_calls(monkeypatch, multialign.data.SubjectData, "thin_svd")
        rows = _count_calls(monkeypatch, multialign.alignment, "_map_rows",
                            (multialign.classify,))
        run_loso_normalized(normalized, method, k=size if full else size - 1)
        assert len(projectors) == (0 if method == "none" else n)
        # One mapping core for every method: at full k the folds share one
        # W = I template (strict labels), below it each fold maps its own.
        assert len(rows) == (0 if method == "none" else 1 if full else n)
        # At full k no fold solves an eigenproblem; below it each rha/sha fold does.
        assert len(eigs) == (n if method in ("rha", "sha") and not full else 0)
        assert maps == []
        if method == "sha":
            # Each subject's data once: the fit reads its projector off it.
            assert len(lookups) == n

    def test_sha_r_folds_compute_no_objective_history(self, dataset, monkeypatch):
        # Below full k, where every fold iterates.
        calls = _count_calls(monkeypatch, multialign.alignment, "pairwise_objective")
        iterated = _count_calls(monkeypatch, multialign.alignment, "_iterated_space")
        report = run_loso(dataset, "sha_r", iterations=4, k=2)
        assert calls == [] and len(iterated) == dataset.n_subjects
        # The counter sees the fit path: one call per round, one for the report.
        normalized = normalize(dataset)
        fit("sha_r", normalized, kernels_for(normalized), iterations=4, k=2)
        assert len(calls) == 4 + 1
        assert report.folds == _reference_loso(dataset, "sha_r", iterations=4, k=2)

    @pytest.mark.parametrize("entry", ["run_loso", "run_loso_normalized"])
    @pytest.mark.parametrize("method", ["none", "sha"])
    def test_two_subjects_warn_of_a_single_training_subject(self, rng, method, entry):
        ds = random_dataset(rng, 2, 12, 6, 2)
        run = run_loso if entry == "run_loso" else run_loso_normalized
        with pytest.warns(multialign.AdvisoryWarning, match="single subject") as record:
            report = run(ds if entry == "run_loso" else normalize(ds), method)
        assert len(report.folds) == 2
        # The advisory names the caller's line, from either entry point.
        assert {w.filename for w in record} == {__file__}

    @pytest.mark.parametrize("method", ["rha", "sha", "sha_r"])
    @pytest.mark.parametrize("deficient", [0, 2])
    def test_zero_epsilon_on_rank_deficient_subject_raises(self, rng, method, deficient):
        with pytest.raises(NumericError):
            run_loso(_rank_deficient_dataset(rng, deficient), method, epsilon=0.0)

    def test_zero_epsilon_on_rank_deficient_subject_exits_4(self, rng, tmp_path, capsys):
        manifest = multialign.data.save_dataset(_rank_deficient_dataset(rng),
                                                tmp_path / "ds")
        code = multialign.cli.main(["loso", "--data", str(manifest), "--method", "rha",
                                    "--epsilon", "0", "--out", str(tmp_path / "out")])
        assert code == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "NumericError"

    @pytest.mark.parametrize("entry", ["run_loso", "run_loso_normalized"])
    @pytest.mark.parametrize("method", ["sha", "sha_r"])
    def test_template_constant_in_time_warns(self, method, entry):
        # Subjects 0 and 2 hold swapped classes: fold 1's kernels cancel out.
        ds = random_dataset(np.random.default_rng(0), 3, 8, 7, 2)
        ids = np.array([1, 1, 0, 0, 0, 1, 1, 1])
        labels = (multialign.data.LabelMatrix(np.eye(2)[:, ids]), ds.labels[1],
                  multialign.data.LabelMatrix(np.eye(2)[:, 1 - ids]))
        ds = multialign.data.Dataset(ds.subjects, labels, ds.class_names)
        run = run_loso if entry == "run_loso" else run_loso_normalized
        with pytest.warns(multialign.AdvisoryWarning, match="constant over time") as record:
            run(ds if entry == "run_loso" else normalize(ds), method)
        assert {w.filename for w in record} == {__file__}
        train = normalize(_split(ds, 1)[0])
        with pytest.warns(multialign.AdvisoryWarning, match="constant over time"):
            fit(method, train, kernels_for(train))

    @pytest.mark.parametrize("method", ["rha", "sha", "sha_r"])
    @pytest.mark.parametrize("k", [None, 2])
    def test_strict_labels_raise_no_advisory(self, dataset, method, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error", multialign.AdvisoryWarning)
            run_loso(dataset, method, k=k)


class TestFullKLoso:
    """At full k every fold takes W = I, whatever its labels.

    Its W would span all of U: no eigensolve and no sha_r iteration.
    """

    @pytest.mark.parametrize("method", ["rha", "sha", "sha_r"])
    def test_per_subject_labels_solve_nothing(self, monkeypatch, method):
        # Every fold's training kernels differ, and none fits a basis of U.
        ds = _per_subject_labels(np.random.default_rng(8), 5, 18, 18, 3)
        eigs = _count_calls(monkeypatch, multialign.linalg, "symmetric_eig",
                            (multialign.alignment,))
        iterated = _count_calls(monkeypatch, multialign.alignment, "_iterated_space")
        report = run_loso(ds, method)
        assert eigs == [] and iterated == []
        monkeypatch.undo()
        assert report.folds == _reference_loso(ds, method)

    @given(seed=st.integers(0, 2**32 - 1), subjects=st.integers(3, 5),
           timepoints=st.integers(8, 18), n_classes=st.integers(2, 4),
           wide=st.booleans(), rest=st.booleans(), per_subject=st.booleans(),
           epsilon=st.sampled_from([1e-4, 0.1]),
           method=st.sampled_from(["rha", "sha", "sha_r"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_fold_fit_reference(self, seed, subjects, timepoints, n_classes,
                                           wide, rest, per_subject, epsilon, method):
        # rha's default k is full only with at least as many voxels as time points.
        gen = np.random.default_rng(seed)
        voxels = (gen.integers(timepoints, 2 * timepoints + 1)
                  if wide or method == "rha" else gen.integers(n_classes, timepoints))
        ds = random_dataset(gen, subjects, timepoints, int(voxels), n_classes,
                            rest_fraction=0.3 if rest else 0.0)
        if per_subject:
            ds = multialign.data.Dataset(ds.subjects, tuple(
                multialign.data.LabelMatrix(ds.labels[0].onehot[gen.permutation(n_classes)])
                for _ in ds.subjects), ds.class_names)
        # Training labels that cancel out (say two subjects with swapped classes)
        # give a template constant in time, which centered data maps to rounding
        # noise: every basis of W then scores at random, the reference's too.
        labeled = ds.labels[0].labeled_indices
        onehots = np.stack([lab.onehot[:, labeled] for lab in ds.labels])
        for held in range(subjects):
            mean = np.delete(onehots, held, axis=0).mean(axis=0)
            assume((mean != mean[:, :1]).any())
        with mock.patch.object(multialign.alignment, "symmetric_eig",
                               wraps=multialign.alignment.symmetric_eig) as eig, \
             mock.patch.object(multialign.alignment, "_iterated_space",
                               wraps=multialign.alignment._iterated_space) as iterated:
            report = run_loso(ds, method, epsilon=epsilon, ridge=0.5)
        assert eig.call_count == 0 and iterated.call_count == 0
        assert report.folds == _reference_loso(ds, method, epsilon=epsilon, ridge=0.5)

    @given(seed=st.integers(0, 2**32 - 1), iterations=st.integers(1, 20),
           per_subject=st.booleans(), gamma=st.sampled_from([None, 0.0, 0.01]))
    @settings(max_examples=25, deadline=None)
    def test_sha_r_gives_sha_folds_for_any_iterations(self, seed, iterations,
                                                      per_subject, gamma):
        ds = (_per_subject_labels(np.random.default_rng(seed), 4, 16, 9, 3) if per_subject
              else random_dataset(np.random.default_rng(seed), 4, 16, 9, 3, 0.3))
        sha = run_loso(ds, "sha", gamma=gamma)
        sha_r = run_loso(ds, "sha_r", gamma=gamma, iterations=iterations)
        assert sha_r.folds == sha.folds

    @pytest.mark.parametrize("method, k", [("sha", None), ("sha_r", None), ("sha", 2)])
    @pytest.mark.parametrize("strict", [False, True], ids=["per-subject", "strict"])
    def test_held_out_labels_never_reach_their_folds_ridge_system(self, monkeypatch,
                                                                  method, k, strict):
        # From strict labels the relabeling makes only the held-out subject's
        # kernel differ: its fold must still train as it did.  gamma = 0.01
        # gives kernel entries with no exact binary form, and three of them
        # need not average back to themselves: four subjects.
        gen = np.random.default_rng(6)
        base = (random_dataset(gen, 4, 18, 7, 3, rest_fraction=0.3) if strict
                else _per_subject_labels(gen, 5, 18, 7, 3))
        assert base.labels_identical() == strict
        held = 2
        # The held-out subject's class values cycled: same rest points, new labels.
        labels = list(base.labels)
        labels[held] = multialign.data.LabelMatrix(np.roll(labels[held].onehot, 1, axis=0))
        relabeled = multialign.data.Dataset(base.subjects, tuple(labels), base.class_names)
        assert not relabeled.labels_identical()
        systems = []
        real = multialign.classify._ridge_system

        def recording(*args):
            systems.append(real(*args))
            return systems[-1]

        monkeypatch.setattr(multialign.classify, "_ridge_system", recording)
        run_loso(base, method, gamma=0.01, k=k)
        run_loso(relabeled, method, gamma=0.01, k=k)
        (gram_a, rhs_a), (gram_b, rhs_b) = systems[held], systems[base.n_subjects + held]
        assert np.array_equal(gram_a, gram_b) and np.array_equal(rhs_a, rhs_b)
        # The change reaches the other folds, which train on the held-out subject.
        assert not np.array_equal(systems[0][1], systems[base.n_subjects][1])

    def test_sha_r_with_fewer_voxels_than_classes_is_refused(self, rng):
        # Its template has fewer left singular vectors than k: the fold fit refuses.
        with pytest.raises(InvalidArgumentError, match="cannot extract k=3"):
            run_loso(random_dataset(rng, 3, 12, 2, 3), "sha_r")
