"""Alignment engines: single-shot, iterative, unsupervised, and mapping."""

import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import multialign.alignment
import multialign.cli
from multialign import (
    AdvisoryWarning,
    Dataset,
    InvalidArgumentError,
    InvalidDataError,
    LabelMatrix,
    NumericError,
    SubjectData,
    SupervisionKernel,
    fit,
    fit_none,
    fit_rha,
    fit_sha,
    fit_sha_r,
    kernels_for,
    load_model,
    map_dataset,
    map_subject,
    normalize,
    pairwise_objective,
    rho1,
    run_loso,
    save_dataset,
    save_model,
    supervision_kernel,
    write_matrix_csv,
)
from multialign.alignment import _coupled_svd, _iterated_space, _subject_terms, _template
from multialign.linalg import projector_from_svd, regularized_projector, truncated_svd
from conftest import assert_close_up_to_sign, random_dataset, random_labels


def _fitted(rng, n_subjects=4, n_t=24, n_v=15, n_classes=3, **kw):
    ds = normalize(random_dataset(rng, n_subjects, n_t, n_v, n_classes))
    kernels = kernels_for(ds)
    return ds, kernels, fit_sha(ds, kernels, **kw)


class TestPairwiseObjective:
    def test_two_subjects_is_squared_distance(self, rng):
        a, b = rng.standard_normal((2, 5, 3))
        assert pairwise_objective([a, b]) == pytest.approx(((a - b) ** 2).sum())

    @given(s=st.integers(2, 6), n=st.integers(1, 5), m=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_equals_scaled_deviation_from_mean(self, s, n, m, seed):
        # sum_{i<j} ||M_i - M_j||^2 == S * sum_i ||M_i - mean||^2
        mats = np.random.default_rng(seed).standard_normal((s, n, m))
        mean = mats.mean(axis=0)
        grouped = s * sum(((mi - mean) ** 2).sum() for mi in mats)
        assert pairwise_objective(list(mats)) == pytest.approx(grouped, abs=1e-8, rel=1e-10)

    def test_single_subject_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            pairwise_objective([rng.standard_normal((3, 2))])


def _brute_force_pairwise(mats) -> float:
    return sum(float(((mats[i] - mats[j]) ** 2).sum())
               for i in range(len(mats)) for j in range(i + 1, len(mats)))


class TestPairwiseObjectiveBruteForce:
    @given(s=st.integers(2, 7), n=st.integers(1, 6), m=st.integers(1, 5),
           seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_pair_loop(self, s, n, m, seed):
        mats = list(np.random.default_rng(seed).standard_normal((s, n, m)) * 3.0 + 1.0)
        assert pairwise_objective(mats) == pytest.approx(
            _brute_force_pairwise(mats), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("spread", [1e-4, 1e-7, 1e-10])
    def test_nearly_identical_subjects_keep_their_digits(self, rng, spread):
        # S * sum ||M||^2 - ||sum M||^2 would lose every digit here.
        base = rng.standard_normal((20, 6)) * 100.0 + 1e3
        mats = [base + spread * rng.standard_normal(base.shape) for _ in range(5)]
        assert pairwise_objective(mats) == pytest.approx(
            _brute_force_pairwise(mats), rel=1e-9)

    def test_identical_subjects_give_zero(self, rng):
        base = rng.standard_normal((7, 3)) * 1e6
        assert pairwise_objective([base, base.copy(), base.copy()]) == 0.0


class TestFitSha:
    def test_shapes_and_orthonormality(self, rng):
        ds, kernels, model = _fitted(rng)
        assert model.shared_space.shape == (3, 3)
        assert model.template.shape == (24, 3)
        np.testing.assert_allclose(
            model.shared_space.T @ model.shared_space, np.eye(3), atol=1e-8
        )
        assert model.k == 3 and model.method == "sha"

    def test_trace_objective_matches_dense_assembly(self, rng):
        # oracle: assemble U densely via direct solves, eigendecompose it
        ds, kernels, model = _fitted(rng, n_subjects=3)
        eps = model.epsilon
        u = np.zeros((3, 3))
        for subj, ker in zip(ds.subjects, kernels):
            m = ker.matrix @ subj.data[ker.labeled]
            u += np.eye(3) - m @ np.linalg.solve(m.T @ m + eps * np.eye(m.shape[1]), m.T)
        values = np.linalg.eigvalsh(u)
        assert model.fit_report.trace_objective == pytest.approx(
            values.sum(), abs=1e-8
        )
        np.testing.assert_allclose(
            np.asarray(model.fit_report.eigenvalues), values, atol=1e-8
        )

    def test_k_selects_smallest_eigenvalues(self, rng):
        ds, kernels, full = _fitted(rng, n_classes=4)
        partial = fit_sha(ds, kernels, k=2)
        np.testing.assert_allclose(
            partial.shared_space, full.shared_space[:, :2], atol=1e-10
        )
        assert partial.fit_report.trace_objective <= full.fit_report.trace_objective + 1e-12

    def test_pairwise_objective_recorded_consistently(self, rng):
        ds, kernels, model = _fitted(rng)
        w = model.shared_space
        projected = []
        for subj, ker in zip(ds.subjects, kernels):
            m = ker.matrix @ subj.data[ker.labeled]
            p = m @ np.linalg.solve(m.T @ m + model.epsilon * np.eye(m.shape[1]), m.T)
            projected.append(p @ w)
        assert model.fit_report.pairwise_objective == pytest.approx(
            pairwise_objective(projected), abs=1e-8
        )

    def test_residual_equals_trace_without_ridge(self, rng):
        # with no ridge the projectors are exact and the quadratic forms agree
        ds = random_dataset(rng, 3, 12, 20, 3)  # raw data: full-rank coupled matrices
        kernels = kernels_for(ds, gamma=0.01)
        model = fit_sha(ds, kernels, epsilon=0.0)
        report = model.fit_report
        assert report.projection_gap == pytest.approx(0.0, abs=1e-8)
        assert report.residual_objective == pytest.approx(
            report.trace_objective, abs=1e-8
        )

    def test_gap_nonnegative_with_ridge(self, rng):
        _, _, model = _fitted(rng, epsilon=0.05)
        assert model.fit_report.projection_gap >= -1e-10

    def test_subject_order_invariance(self, rng):
        ds, kernels, model = _fitted(rng)
        perm = [2, 0, 3, 1]
        ds_perm = Dataset(
            tuple(ds.subjects[i] for i in perm),
            tuple(ds.labels[i] for i in perm),
            ds.class_names,
        )
        model_perm = fit_sha(ds_perm, [kernels[i] for i in perm])
        assert_close_up_to_sign(model.shared_space, model_perm.shared_space, 1e-9)
        z = map_subject(model, ds.subjects[0]).features
        z_perm = map_subject(model_perm, ds.subjects[0]).features
        assert_close_up_to_sign(z, z_perm, 1e-9)

    def test_identical_subjects_map_identically(self, rng):
        base = rng.standard_normal((20, 8))
        lab_classes = np.arange(20) % 2
        onehot = np.zeros((2, 20))
        onehot[lab_classes, np.arange(20)] = 1.0
        lab = LabelMatrix(onehot)
        ds = normalize(Dataset(
            tuple(SubjectData(f"s{i}", base.copy()) for i in range(4)),
            tuple(lab for _ in range(4)), ("a", "b"),
        ))
        kernels = kernels_for(ds)
        model = fit_sha(ds, kernels)
        mapped = [m.features for m in map_dataset(model, ds)]
        for z in mapped[1:]:
            np.testing.assert_allclose(mapped[0], z, atol=1e-8)
        assert rho1(mapped).mean == pytest.approx(1.0, abs=1e-10)

    def test_k_out_of_range(self, rng):
        ds = normalize(random_dataset(rng, 3, 18, 10, 3))
        kernels = kernels_for(ds)
        with pytest.raises(InvalidArgumentError):
            fit_sha(ds, kernels, k=4)
        with pytest.raises(InvalidArgumentError):
            fit_sha(ds, kernels, k=0)

    def test_kernel_count_mismatch(self, rng):
        ds = normalize(random_dataset(rng, 3, 18, 10, 3))
        kernels = kernels_for(ds)
        with pytest.raises(InvalidArgumentError):
            fit_sha(ds, kernels[:2])

    def test_mismatched_gammas_rejected(self, rng):
        ds = normalize(random_dataset(rng, 2, 18, 10, 3))
        kernels = [supervision_kernel(ds.labels[0], 0.01),
                   supervision_kernel(ds.labels[1], 0.02)]
        with pytest.raises(InvalidArgumentError):
            fit_sha(ds, kernels)

    @pytest.mark.parametrize("other, match", [
        pytest.param(lambda k: SupervisionKernel(k.matrix[:2], k.gamma, k.labeled),
                     "all kernels must share classes", id="fewer-classes"),
        pytest.param(lambda k: SupervisionKernel(k.matrix[:, :-1], k.gamma, k.labeled[:-1]),
                     "all kernels must share classes", id="fewer-time-points"),
        pytest.param(lambda k: SupervisionKernel(k.matrix, k.gamma, k.labeled + 1),
                     "couples different time points", id="shifted-time-points"),
    ])
    def test_kernels_that_disagree_with_kernel_0_rejected(self, rng, other, match):
        ds = normalize(random_dataset(rng, 3, 18, 10, 3))
        kernels = kernels_for(ds)
        kernels[1] = other(kernels[1])
        with pytest.raises(InvalidArgumentError, match=match):
            fit_sha(ds, kernels)

    def test_kernel_past_the_last_time_point_rejected(self, rng):
        ds = normalize(random_dataset(rng, 3, 18, 10, 3))
        kernels = [SupervisionKernel(k.matrix, k.gamma, k.labeled + 1)
                   for k in kernels_for(ds)]
        with pytest.raises(InvalidArgumentError, match="indexes time point 18"):
            fit_sha(ds, kernels)


class TestFitRha:
    @pytest.mark.parametrize("t, v", [(10, 16), (12, 12)])
    def test_reduces_from_identity_supervision(self, rng, t, v):
        # rha builds no kernel; sha under one identity kernel per subject
        # (identity labels at gamma 0) must still fit what rha fits.
        ident_kernel = SupervisionKernel(np.eye(t), 0.0, np.arange(t))
        for _ in range(3):
            subs = tuple(
                SubjectData(f"s{i}", rng.standard_normal((t, v))) for i in range(3)
            )
            ident = LabelMatrix(np.eye(t))
            ds = Dataset(subs, tuple(ident for _ in subs),
                         tuple(f"c{i}" for i in range(t)))
            kernels = [supervision_kernel(lab, gamma=0.0) for lab in ds.labels]
            for kernel in kernels:
                np.testing.assert_array_equal(kernel.matrix, ident_kernel.matrix)
                np.testing.assert_array_equal(kernel.labeled, ident_kernel.labeled)
            supervised = fit_sha(ds, kernels, k=t)
            unsupervised = fit_rha(ds, k=t)
            assert_close_up_to_sign(supervised.shared_space,
                                    unsupervised.shared_space, 1e-8)
            assert_close_up_to_sign(supervised.template, unsupervised.template, 1e-8)
            np.testing.assert_allclose(supervised.fit_report.eigenvalues,
                                       unsupervised.fit_report.eigenvalues,
                                       atol=1e-10, rtol=0)
            # At full k with V >= T the mapped subjects agree up to basis.
            for subject in ds.subjects:
                z_sha = map_subject(supervised, subject).features
                z_rha = map_subject(unsupervised, subject).features
                np.testing.assert_allclose(z_sha @ z_sha.T, z_rha @ z_rha.T,
                                           atol=1e-10, rtol=0, err_msg=subject.subject_id)
            terms = _subject_terms("rha", ds, None, 1e-4, None)
            assert terms.couplings is None and terms.gamma is None
            np.testing.assert_array_equal(terms.labeled, np.arange(t))

    def test_template_equals_shared_space(self, rng):
        # with no kernel to average over, the back-projection is the shared
        # space itself, bit for bit
        ds = normalize(random_dataset(rng, 3, 14, 20, 2))
        model = fit_rha(ds)
        np.testing.assert_array_equal(model.template, model.shared_space)
        assert model.k == 14  # min(voxels=20, t=14)

    def test_template_and_shared_space_are_held_apart(self, rng):
        # equal values, but writing to one factor leaves the other alone
        model = fit_rha(normalize(random_dataset(rng, 3, 14, 20, 2)))
        shared = model.shared_space.copy()
        model.template[0, 0] += 1.0
        np.testing.assert_array_equal(model.shared_space, shared)
        handed_one_array = dataclasses.replace(model, template=model.shared_space)
        assert not np.may_share_memory(handed_one_array.template,
                                       handed_one_array.shared_space)
        np.testing.assert_array_equal(handed_one_array.template, shared)

    def test_trace_matches_dense_assembly(self, rng):
        ds = normalize(random_dataset(rng, 3, 12, 9, 2))
        model = fit_rha(ds, epsilon=1e-4)
        u = np.zeros((12, 12))
        for subj in ds.subjects:
            x = subj.data
            u += np.eye(12) - x @ np.linalg.solve(
                x.T @ x + 1e-4 * np.eye(x.shape[1]), x.T
            )
        values = np.linalg.eigvalsh(u)
        assert model.fit_report.trace_objective == pytest.approx(
            values[: model.k].sum(), abs=1e-8
        )


    def test_zero_epsilon_with_singular_data_rejected(self, rng):
        ds = normalize(random_dataset(rng, 3, 24, 10, 2))
        dup = ds.subjects[0].data.copy()
        dup[:, 1] = dup[:, 0]  # exactly collinear voxels
        singular = Dataset((SubjectData("dup", dup),) + ds.subjects[1:],
                           ds.labels, ds.class_names)
        with pytest.raises(NumericError):
            fit_rha(singular, epsilon=0.0)


class TestSharedSpaceStorage:
    @pytest.mark.parametrize("method, k", [("rha", 5), ("sha", 2)])
    def test_below_full_k_holds_only_the_kept_columns(self, rng, method, k):
        # W is the first k eigenvectors of U: held as an array of its own,
        # not a strided view that keeps every eigenvector alive
        ds = normalize(random_dataset(rng, 3, 14, 20, 3))
        kernels = kernels_for(ds) if method == "sha" else None
        model = fit(method, ds, kernels, k=k)
        w = model.shared_space
        assert w.shape[1] == k < w.shape[0]
        assert w.flags.c_contiguous and w.base is None


class TestTemplate:
    @given(seed=st.integers(0, 2**32 - 1), subjects=st.integers(2, 5),
           timepoints=st.integers(6, 16), n_classes=st.integers(2, 4),
           gamma=st.sampled_from([None, 0.0, 0.01]))
    @settings(max_examples=40, deadline=None)
    def test_identity_gives_the_mean_kernel_bit_for_bit(self, seed, subjects, timepoints,
                                                        n_classes, gamma):
        # Leave-one-subject-out hands every full-k fold W = I and relies on
        # I @ K_i being K_i exactly.
        gen = np.random.default_rng(seed)
        ds = Dataset(tuple(SubjectData(f"s{i}", gen.standard_normal((timepoints, 6)))
                           for i in range(subjects)),
                     tuple(random_labels(gen, n_classes, timepoints)
                           for _ in range(subjects)),
                     tuple(f"c{m}" for m in range(n_classes)))
        terms = _subject_terms("sha", normalize(ds), kernels_for(ds, gamma), 1e-4, None)
        size = terms.factors.shape[1]
        assert terms.k == size
        train = gen.choice(subjects, int(gen.integers(1, subjects + 1)), replace=False)
        with warnings.catch_warnings():
            # Training kernels that cancel out are fine here.
            warnings.simplefilter("ignore", AdvisoryWarning)
            got = _template(terms, train, np.eye(size))
        want = (terms.couplings[train].sum(axis=0) / len(train)).T
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _coupled_inputs(draw):
    """A data matrix, a coupling and a ridge, in one of five regimes.

    ``wide`` and ``tall`` data, rank-deficient data, couplings with zero
    rows (a class with no labeled point), and fewer rows than classes.
    """
    case = draw(st.sampled_from(["wide", "tall", "deficient", "zero_rows", "few_points"]))
    classes = draw(st.integers(2, 6))
    if case == "wide":
        rows = draw(st.integers(1, 10))
        cols = draw(st.integers(rows + 1, 4 * rows + 1))
    elif case == "tall":
        cols = draw(st.integers(1, 8))
        rows = draw(st.integers(cols, 12))
    elif case == "few_points":
        rows = draw(st.integers(1, classes - 1))
        cols = draw(st.integers(classes, 3 * classes))
    else:
        rows, cols = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, cols))
    if case == "deficient":
        rank = draw(st.integers(1, min(rows, cols) - 1))
        x = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    coupling = rng.standard_normal((classes, rows))
    if case == "zero_rows":
        coupling[rng.permutation(classes)[:draw(st.integers(1, classes - 1))]] = 0.0
    return x, coupling, draw(st.sampled_from([1e-4, 1e-2, 1.0]))


class TestCoupledSvd:
    """The supervised projector read off the data SVD equals the direct one."""

    @given(_coupled_inputs())
    @settings(max_examples=300, deadline=None)
    def test_projector_equals_projector_of_coupled_matrix(self, inputs):
        x, coupling, epsilon = inputs
        svd = _coupled_svd(coupling, truncated_svd(x, min(x.shape)), x.shape[1])
        assert svd.singular_values.shape == (min(coupling.shape[0], x.shape[1]),)
        np.testing.assert_allclose(
            projector_from_svd(svd, epsilon).matrix(),
            regularized_projector(coupling @ x, epsilon).matrix(), atol=1e-10, rtol=0)

    @given(_coupled_inputs(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_stacked_subjects_equal_one_call_each(self, inputs, n, seed):
        # One subject in the drawn regime among random ones of its shape.
        x, coupling, epsilon = inputs
        rng = np.random.default_rng(seed)
        at = int(rng.integers(n))
        xs = [x if i == at else rng.standard_normal(x.shape) for i in range(n)]
        couplings = [coupling if i == at else rng.standard_normal(coupling.shape)
                     for i in range(n)]
        rank = min(x.shape)
        got = _coupled_svd(np.stack(couplings), truncated_svd(np.stack(xs), rank), x.shape[1])
        for i, (data, kernel) in enumerate(zip(xs, couplings)):
            want = _coupled_svd(kernel, truncated_svd(data, rank), x.shape[1])
            assert got.left[i].tobytes() == want.left.tobytes()
            assert got.singular_values[i].tobytes() == want.singular_values.tobytes()
            assert got.rank_deficient[i] == want.rank_deficient
            factor = projector_from_svd(want, epsilon).factor
            assert projector_from_svd(got, epsilon).factor[i].tobytes() == factor.tobytes()

    @staticmethod
    def _few_labeled_points():
        # Four classes, five time points, three of them labeled (one each of
        # classes 0-2): every K X has rank 3 < min(classes, voxels) = 4.
        onehot = np.zeros((4, 5))
        onehot[[0, 1, 2], [0, 2, 4]] = 1.0
        lab = LabelMatrix(onehot)
        rng = np.random.default_rng(3)
        subjects = tuple(SubjectData(f"s{i}", rng.standard_normal((5, 6))) for i in range(3))
        return normalize(Dataset(subjects, (lab,) * 3, ("a", "b", "c", "d")))

    def test_fewer_labeled_points_than_classes_is_rank_deficient(self):
        ds = self._few_labeled_points()
        model = fit("sha", ds, kernels_for(ds))
        assert model.fit_report.advisories == tuple(
            f"subject {s!r}: coupled matrix is rank deficient" for s in ds.subject_ids)
        with pytest.raises(NumericError):
            fit("sha", ds, kernels_for(ds), epsilon=0.0)

    def test_fewer_labeled_points_than_classes_exits_4_without_ridge(self, tmp_path, capsys):
        manifest = save_dataset(self._few_labeled_points(), tmp_path / "ds")
        code = multialign.cli.main(["align", "--data", str(manifest), "--epsilon", "0",
                                    "--out", str(tmp_path / "out")])
        assert code == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "NumericError"


class TestFactorReuse:
    """Fits and maps on one normalized dataset share its subjects' SVDs."""

    @staticmethod
    def _same_model(a, b):
        np.testing.assert_array_equal(a.shared_space, b.shared_space)
        np.testing.assert_array_equal(a.template, b.template)
        assert a.fit_report == b.fit_report

    def test_reused_subjects_match_fresh_ones(self, rng):
        raw = random_dataset(rng, 4, 20, 12, 3, rest_fraction=0.25)
        shared = normalize(raw)
        # Every fit and map below goes through the same subject objects, in
        # an order that revisits settings; each is checked against a copy
        # of the dataset whose subjects have never been factored.
        for method, gamma, epsilon in (("sha", None, 1e-4), ("rha", None, 1e-4),
                                       ("sha", 0.01, 1e-2), ("sha_r", 0.01, 1e-4),
                                       ("rha", None, 0.5), ("sha", None, 1e-2)):
            fresh = normalize(raw)
            models = [
                fit(method, ds, kernels_for(ds, gamma) if method != "rha" else None,
                    epsilon=epsilon, iterations=3)
                for ds in (shared, fresh)
            ]
            self._same_model(*models)
            for subj, fresh_subj in zip(shared.subjects, fresh.subjects):
                np.testing.assert_array_equal(
                    map_subject(models[0], subj).features,
                    map_subject(models[1], fresh_subj).features,
                )


    def test_caller_writes_do_not_reach_a_fitted_subject(self, rng):
        # Subjects built straight from the caller's writable arrays: a write
        # into those arrays after the fit must not meet the memoized factors.
        arrays = [rng.standard_normal((20, 12)) for _ in range(3)]
        pristine = [a.copy() for a in arrays]
        labels = random_dataset(rng, 1, 20, 12, 3).labels * 3

        def dataset(mats):
            subjects = tuple(SubjectData(f"s{i}", m) for i, m in enumerate(mats))
            return Dataset(subjects, labels, ("a", "b", "c"))

        ds = dataset(arrays)
        model = fit_rha(ds)
        arrays[0] *= 2.0
        fresh = dataset(pristine)
        np.testing.assert_array_equal(
            map_subject(model, ds.subjects[0]).features,
            map_subject(model, fresh.subjects[0]).features,
        )


class TestFitShaR:
    def test_history_non_increasing(self, rng):
        for seed in range(4):
            ds = normalize(random_dataset(np.random.default_rng(seed), 4, 24, 15, 3))
            kernels = kernels_for(ds)
            model = fit_sha_r(ds, kernels, iterations=10)
            history = np.asarray(model.fit_report.objective_history)
            assert history.size == 10
            assert (np.diff(history) <= 1e-10).all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_shot_solution_is_a_fixed_point(self, rng, k):
        # mean_i P_i = I - U / S maps sha's W to W (I - diag(lambda) / S): the
        # rounds keep its span, and the first starts at its objective value.
        ds, kernels, single = _fitted(rng, k=k)
        factors = _subject_terms("sha", ds, kernels, single.epsilon, k).factors
        w, history = _iterated_space(factors, single.shared_space[None], k, 10, True)
        np.testing.assert_allclose(w @ w.T, single.shared_space @ single.shared_space.T,
                                   atol=1e-12, rtol=0)
        assert history[0] == pytest.approx(single.fit_report.pairwise_objective,
                                           rel=1e-12, abs=0)

    def test_identical_subjects_converge_immediately(self, rng):
        base = rng.standard_normal((12, 6))
        onehot = np.zeros((2, 12))
        onehot[np.arange(12) % 2, np.arange(12)] = 1.0
        lab = LabelMatrix(onehot)
        ds = Dataset(
            tuple(SubjectData(f"s{i}", base.copy()) for i in range(3)),
            tuple(lab for _ in range(3)), ("a", "b"),
        )
        kernels = kernels_for(ds)
        model = fit_sha_r(ds, kernels, iterations=1)
        assert model.fit_report.objective_history[0] == pytest.approx(0.0, abs=1e-12)

    def test_shared_space_orthonormal(self, rng):
        ds = normalize(random_dataset(rng, 3, 20, 12, 3))
        kernels = kernels_for(ds)
        model = fit_sha_r(ds, kernels)
        np.testing.assert_allclose(
            model.shared_space.T @ model.shared_space, np.eye(3), atol=1e-8
        )
        assert model.template.shape == (20, 3)

    def test_history_equals_per_subject_reference(self, rng):
        ds = normalize(random_dataset(rng, 4, 24, 15, 3))
        kernels = kernels_for(ds, gamma=0.01)
        epsilon, iterations = 1e-3, 6
        # Each factor is read off the data SVD X = U diag(s) V^T, as the fit
        # reads it: K X and K U diag(s) share left singular vectors and values.
        factors = []
        for subj, ker in zip(ds.subjects, kernels):
            svd = subj.thin_svd(ker.labeled)
            coupled = ker.matrix @ (svd.left * svd.singular_values)
            factors.append(projector_from_svd(truncated_svd(coupled, min(coupled.shape)),
                                              epsilon).factor)
        template = np.stack([ker.matrix @ subj.data[ker.labeled]
                             for subj, ker in zip(ds.subjects, kernels)]).mean(axis=0)
        expected = []
        for _ in range(iterations):
            mapped = [f @ (f.T @ template) for f in factors]
            expected.append(pairwise_objective(mapped))
            template = np.stack(mapped).mean(axis=0)
        model = fit_sha_r(ds, kernels, epsilon=epsilon, iterations=iterations)
        np.testing.assert_allclose(model.fit_report.objective_history, expected,
                                   rtol=1e-12, atol=0)

    def test_iterations_validated(self, rng):
        ds = normalize(random_dataset(rng, 2, 10, 6, 2))
        kernels = kernels_for(ds)
        with pytest.raises(InvalidArgumentError):
            fit_sha_r(ds, kernels, iterations=0)

    def test_k_past_the_voxel_count_is_refused(self, rng):
        # Two voxels, three classes: the template has two left singular vectors.
        ds = normalize(random_dataset(rng, 3, 12, 2, 3))
        kernels = kernels_for(ds)
        for k in (1, 2):
            assert fit("sha_r", ds, kernels, k=k).shared_space.shape == (3, k)
        for k in (None, 3):
            with pytest.raises(InvalidArgumentError, match=r"k must be in \[1, 2\], got 3"):
                fit("sha_r", ds, kernels, k=k)


class TestMapSubject:
    def test_matches_dense_ridge_solution(self, rng):
        # oracle: z = x (x^T x + eps I)^{-1} x^T g by direct solve, voxels <= 30
        ds, kernels, model = _fitted(rng, n_v=25)
        for subj in ds.subjects:
            x = subj.data
            dense = x @ np.linalg.solve(
                x.T @ x + model.epsilon * np.eye(x.shape[1]), x.T @ model.template
            )
            z = map_subject(model, subj).features
            np.testing.assert_allclose(z, dense, atol=1e-8, rtol=0)

    def test_epsilon_override(self, rng):
        ds, kernels, model = _fitted(rng, n_v=10)
        x = ds.subjects[0].data
        dense = x @ np.linalg.solve(x.T @ x + 0.5 * np.eye(x.shape[1]),
                                    x.T @ model.template)
        z = map_subject(model, ds.subjects[0], epsilon=0.5).features
        np.testing.assert_allclose(z, dense, atol=1e-8, rtol=0)

    def test_none_method_is_identity(self, rng):
        ds = normalize(random_dataset(rng, 2, 10, 6, 2))
        model = fit_none(ds)
        z = map_subject(model, ds.subjects[0]).features
        np.testing.assert_array_equal(z, ds.subjects[0].data)

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_epsilon_checked_for_every_method(self, rng, epsilon):
        # As fit checks it, none included, although none maps as the identity.
        ds = normalize(random_dataset(rng, 2, 10, 6, 2))
        for model in (fit("none", ds), fit("sha", ds, kernels_for(ds))):
            with pytest.raises(InvalidArgumentError, match="epsilon"):
                map_subject(model, ds.subjects[0], epsilon=epsilon)

    def test_timepoint_mismatch_rejected(self, rng):
        ds, kernels, model = _fitted(rng, n_t=24)
        short = SubjectData("odd", rng.standard_normal((12, 15)))
        with pytest.raises(InvalidArgumentError):
            map_subject(model, short)

    def test_rest_points_are_mapped_but_not_fit(self, rng):
        # a subject with rest points: the ridge fit sees labeled rows only,
        # yet every row is carried into the shared space
        onehot = np.zeros((2, 12))
        onehot[np.arange(12) % 2, np.arange(12)] = 1.0
        onehot[:, [3, 7]] = 0.0
        lab = LabelMatrix(onehot)
        subs = tuple(SubjectData(f"s{i}", rng.standard_normal((12, 8)))
                     for i in range(3))
        ds = normalize(Dataset(subs, tuple(lab for _ in subs), ("a", "b")))
        kernels = kernels_for(ds)
        model = fit_sha(ds, kernels)
        assert model.template.shape[0] == 10
        z = map_subject(model, ds.subjects[0]).features
        assert z.shape == (12, model.k)
        x = ds.subjects[0].data
        x_fit = x[lab.labeled_indices]
        dense = x @ np.linalg.solve(
            x_fit.T @ x_fit + model.epsilon * np.eye(x.shape[1]),
            x_fit.T @ model.template,
        )
        np.testing.assert_allclose(z, dense, atol=1e-8, rtol=0)

    def test_zero_epsilon_with_singular_data_rejected(self, rng):
        ds, kernels, model = _fitted(rng, n_t=24, n_v=10)
        dup = ds.subjects[0].data.copy()
        dup[:, 1] = dup[:, 0]  # exactly collinear voxels
        with pytest.raises(NumericError):
            map_subject(model, SubjectData("dup", dup), epsilon=0.0)


def _primal_ridge_map(x, labeled, template, epsilon):
    """Dense primal ridge map ``x W``, ``W = argmin ||X_l W - G||^2 + eps ||W||^2``.

    Solved as the least-squares problem ``[X_l; sqrt(eps) I] W = [G; 0]``
    (minimum norm at ``eps = 0``), not through the normal equations
    ``(X_l^T X_l + eps I) W = X_l^T G``: the stacked system's condition
    number is the square root of theirs, so it keeps 1e-10 where a small
    ``eps`` on data with a (near) null direction leaves the normal
    equations without those digits.
    """
    x_l = x[labeled]
    voxels = x.shape[1]
    system = np.vstack([x_l, np.sqrt(epsilon) * np.eye(voxels)])
    target = np.vstack([template, np.zeros((voxels, template.shape[1]))])
    return x @ np.linalg.lstsq(system, target, rcond=None)[0]


class TestMapSubjectDualForm:
    @pytest.mark.parametrize("n_v", [6, 14, 40])
    @pytest.mark.parametrize("epsilon", [1e-4, 0.3])
    @pytest.mark.parametrize("method", ["sha", "rha"])
    def test_matches_primal_ridge_with_rest_rows(self, n_v, epsilon, method):
        rng = np.random.default_rng(n_v)
        ds = normalize(random_dataset(rng, 3, 30, n_v, 3, rest_fraction=0.3))
        kernels = kernels_for(ds) if method == "sha" else None
        model = fit(method, ds, kernels, epsilon=epsilon)
        assert model.labeled.size < ds.n_timepoints or method == "rha"
        for subj in ds.subjects:
            z = map_subject(model, subj).features
            dense = _primal_ridge_map(subj.data, model.labeled, model.template, epsilon)
            np.testing.assert_allclose(z, dense, rtol=1e-10,
                                       atol=1e-10 * np.abs(dense).max())

    def test_rest_rows_between_labeled_rows(self, rng):
        ds = normalize(random_dataset(rng, 3, 24, 8, 2, rest_fraction=0.4))
        model = fit_sha(ds, kernels_for(ds), epsilon=0.05)
        rest = np.setdiff1d(np.arange(ds.n_timepoints), model.labeled)
        assert rest.size and rest.min() < model.labeled.max()
        subj = ds.subjects[1]
        z = map_subject(model, subj).features
        dense = _primal_ridge_map(subj.data, model.labeled, model.template, 0.05)
        np.testing.assert_allclose(z[rest], dense[rest], rtol=1e-10,
                                   atol=1e-10 * np.abs(dense).max())

    def test_epsilon_zero_on_full_rank_data_is_least_squares(self, rng):
        ds = normalize(random_dataset(rng, 3, 30, 8, 3, rest_fraction=0.2))
        model = fit_sha(ds, kernels_for(ds))
        subj = ds.subjects[0]
        z = map_subject(model, subj, epsilon=0.0).features
        dense = _primal_ridge_map(subj.data, model.labeled, model.template, 0.0)
        np.testing.assert_allclose(z, dense, rtol=1e-10,
                                   atol=1e-10 * np.abs(dense).max())

    def test_epsilon_zero_on_wide_data_is_minimum_norm(self, rng):
        # V > T: the labeled rows are reproduced exactly and every row maps
        # through the minimum-norm least-squares voxel map.
        ds = normalize(random_dataset(rng, 3, 30, 60, 3, rest_fraction=0.2))
        model = fit_sha(ds, kernels_for(ds))
        assert model.labeled.size < ds.n_voxels
        subj = ds.subjects[0]
        z = map_subject(model, subj, epsilon=0.0).features
        x_l = subj.data[model.labeled]
        dense = subj.data @ np.linalg.lstsq(x_l, model.template, rcond=None)[0]
        atol = 1e-10 * np.abs(dense).max()
        np.testing.assert_allclose(z, dense, rtol=1e-10, atol=atol)
        np.testing.assert_allclose(z[model.labeled], model.template, rtol=0, atol=atol)

    def test_epsilon_zero_on_wide_data_with_a_duplicated_time_point_raises(self, rng):
        ds = normalize(random_dataset(rng, 3, 30, 60, 3, rest_fraction=0.2))
        model = fit_sha(ds, kernels_for(ds))
        dup = ds.subjects[0].data.copy()
        dup[model.labeled[3]] = dup[model.labeled[1]]
        with pytest.raises(NumericError):
            map_subject(model, SubjectData("dup", dup), epsilon=0.0)

    def test_epsilon_zero_on_singular_data_with_rest_rows_raises(self, rng):
        ds = normalize(random_dataset(rng, 3, 30, 8, 3, rest_fraction=0.2))
        model = fit_sha(ds, kernels_for(ds))
        dup = ds.subjects[0].data.copy()
        dup[:, 2] = dup[:, 1]  # exactly collinear voxels
        with pytest.raises(NumericError):
            map_subject(model, SubjectData("dup", dup), epsilon=0.0)


class TestStackedMapping:
    """``map_dataset`` maps a whole dataset in one call through the one formula."""

    @settings(max_examples=40, deadline=None)
    # Wide data at a small epsilon, where normal equations lose the tolerance's
    # digits: the sha draw misses 1e-10 through them (1.8e-10 of the scale).
    @example(seed=19, n_t=13, voxel_ratio=3.0, rest_fraction=0.0, epsilon=1e-4,
             method="rha")
    @example(seed=8, n_t=18, voxel_ratio=3.0, rest_fraction=0.5, epsilon=1e-4,
             method="sha")
    @given(seed=st.integers(0, 2**32 - 1), n_t=st.integers(8, 24),
           voxel_ratio=st.sampled_from([0.5, 0.8, 1.5, 3.0]),
           rest_fraction=st.floats(0.0, 0.5), epsilon=st.sampled_from([0.0, 1e-4, 0.3]),
           method=st.sampled_from(["rha", "sha", "sha_r"]))
    def test_equals_map_subject_and_dense_ridge(self, seed, n_t, voxel_ratio,
                                                rest_fraction, epsilon, method):
        rng = np.random.default_rng(seed)
        n_v = max(2, round(voxel_ratio * n_t))
        ds = normalize(random_dataset(rng, 3, n_t, n_v, 2, rest_fraction=rest_fraction))
        assume(ds.labels[0].onehot.any(axis=1).all())  # rest rows left every class
        kernels = kernels_for(ds) if method != "rha" else None
        model = dataclasses.replace(fit(method, ds, kernels), epsilon=epsilon)
        try:
            stacked = map_dataset(model, ds)
        except NumericError:
            # epsilon = 0 with a zero singular value: refused either way.
            with pytest.raises(NumericError):
                for subj in ds.subjects:
                    map_subject(model, subj)
            assume(False)
        for subj, mapped in zip(ds.subjects, stacked):
            assert mapped.subject_id == subj.subject_id
            single = map_subject(model, subj).features
            assert np.array_equal(mapped.features, single)
            dense = _primal_ridge_map(subj.data, model.labeled, model.template, epsilon)
            np.testing.assert_allclose(single, dense, rtol=1e-10,
                                       atol=1e-10 * np.abs(dense).max())


class TestModelSerialization:
    def test_round_trip_preserves_mapping(self, tmp_path, rng):
        ds, kernels, model = _fitted(rng)
        save_model(model, tmp_path)
        back = load_model(tmp_path)
        assert back.method == model.method
        assert back.epsilon == model.epsilon
        assert back.gamma == model.gamma
        assert back.k == model.k
        np.testing.assert_array_equal(back.shared_space, model.shared_space)
        np.testing.assert_array_equal(back.template, model.template)
        z0 = map_subject(model, ds.subjects[0]).features
        z1 = map_subject(back, ds.subjects[0]).features
        np.testing.assert_array_equal(z0, z1)

    def test_files_written(self, tmp_path, rng):
        _, _, model = _fitted(rng)
        save_model(model, tmp_path)
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "w.csv").exists()
        assert (tmp_path / "g.csv").exists()

    @staticmethod
    def _rha(rng):
        ds = normalize(random_dataset(rng, 3, 14, 20, 2))
        return ds, fit_rha(ds)

    def test_rha_template_file_is_the_shared_space_file(self, tmp_path, rng):
        _, model = self._rha(rng)
        save_model(model, tmp_path)
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()

    def test_rha_model_with_a_template_file_of_its_own_loads(self, tmp_path, rng):
        # Models saved while the rha template was a mean of copies of W hold a
        # g.csv a few ulps off w.csv; they load and map through that g.csv.
        ds, model = self._rha(rng)
        save_model(model, tmp_path)
        template = np.nextafter(model.shared_space, np.inf)
        write_matrix_csv(tmp_path / "g.csv", template)
        back = load_model(tmp_path)
        np.testing.assert_array_equal(back.shared_space, model.shared_space)
        np.testing.assert_array_equal(back.template, template)
        written = dataclasses.replace(model, template=template)
        for got, want, fitted in zip(map_dataset(back, ds), map_dataset(written, ds),
                                     map_dataset(model, ds)):
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_allclose(got.features, fitted.features, rtol=0, atol=1e-14)

    def test_resaving_a_loaded_rha_model(self, tmp_path, rng):
        _, model = self._rha(rng)
        save_model(model, tmp_path / "first")
        save_model(load_model(tmp_path / "first"), tmp_path / "again")
        for name in ("w.csv", "g.csv"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "first" / "w.csv").read_bytes())

    def test_template_equal_to_shared_space_but_for_a_zero_sign(self, tmp_path, rng):
        # -0.0 == 0.0, but the two print differently: g.csv keeps the
        # template's sign rather than copying w.csv's
        _, model = self._rha(rng)
        shared = model.shared_space.copy()
        shared[0, 0] = 0.0
        template = shared.copy()
        template[0, 0] = -0.0
        save_model(dataclasses.replace(model, shared_space=shared, template=template),
                   tmp_path)
        back = load_model(tmp_path)
        assert not np.signbit(back.shared_space[0, 0])
        assert np.signbit(back.template[0, 0])

    def test_none_model_has_no_factors(self, tmp_path, rng):
        ds = normalize(random_dataset(rng, 2, 10, 6, 2))
        save_model(fit_none(ds), tmp_path)
        assert not (tmp_path / "w.csv").exists()
        back = load_model(tmp_path)
        assert back.method == "none" and back.shared_space is None


class TestLoadModelValidation:
    """Every malformed model directory is refused as invalid data."""

    @staticmethod
    def _saved(tmp_path, rng):
        _, _, model = _fitted(rng)
        save_model(model, tmp_path)
        return json.loads((tmp_path / "model.json").read_text())

    @pytest.mark.parametrize("key", ["method", "epsilon", "gamma", "k", "labeled"])
    def test_missing_key(self, tmp_path, rng, key):
        meta = self._saved(tmp_path, rng)
        del meta[key]
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match=repr(key)):
            load_model(tmp_path)

    def test_unparseable_json(self, tmp_path, rng):
        self._saved(tmp_path, rng)
        (tmp_path / "model.json").write_text('{"method": "sha",')
        with pytest.raises(InvalidDataError, match="not valid JSON"):
            load_model(tmp_path)

    @pytest.mark.parametrize("key, value", [("epsilon", "small"), ("k", [2]),
                                            ("labeled", [[0], [1, 2]])])
    def test_malformed_value(self, tmp_path, rng, key, value):
        meta = self._saved(tmp_path, rng)
        meta[key] = value
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="malformed value"):
            load_model(tmp_path)

    def test_unknown_method(self, tmp_path, rng):
        meta = self._saved(tmp_path, rng)
        meta["method"] = "bogus"
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="unknown method 'bogus'"):
            load_model(tmp_path)

    @pytest.mark.parametrize("name", ["w.csv", "g.csv"])
    def test_matrix_shape_other_than_dims(self, tmp_path, rng, name):
        self._saved(tmp_path, rng)
        lines = (tmp_path / name).read_text().splitlines()
        (tmp_path / name).write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InvalidDataError, match=f"{name} has shape"):
            load_model(tmp_path)

    def test_supervised_model_without_dims(self, tmp_path, rng):
        meta = self._saved(tmp_path, rng)
        del meta["dims"]
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="'sha' is inconsistent"):
            load_model(tmp_path)

    def test_labeled_list_shorter_than_template(self, tmp_path, rng):
        meta = self._saved(tmp_path, rng)
        meta["labeled"] = meta["labeled"][:-1]
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="inconsistent"):
            load_model(tmp_path)

    @pytest.mark.parametrize("defect", [
        pytest.param(lambda labeled: [-1] + labeled[1:], id="negative"),
        pytest.param(lambda labeled: labeled[1:2] + labeled[1:], id="repeated"),
        pytest.param(lambda labeled: labeled[::-1], id="unsorted"),
    ])
    def test_labeled_not_strictly_increasing_and_non_negative(self, tmp_path, rng,
                                                              defect):
        # numpy would read -1 as the last time point and map without a word.
        meta = self._saved(tmp_path, rng)
        meta["labeled"] = defect(meta["labeled"])
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="strictly increasing"):
            load_model(tmp_path)

    @pytest.mark.parametrize("key, value, match", [
        ("k", 999, "k=999"),
        ("epsilon", -1.0, "epsilon must be"),
        ("epsilon", "inf", "epsilon must be"),
    ])
    def test_k_or_epsilon_that_cannot_be_right(self, tmp_path, rng, key, value, match):
        # Refused on load, not at mapping (epsilon) or never (k).
        meta = self._saved(tmp_path, rng)
        meta[key] = value
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match=match):
            load_model(tmp_path)

    def test_unknown_method_model_refused(self, rng):
        _, _, model = _fitted(rng)
        with pytest.raises(InvalidArgumentError, match="got 'bogus'"):
            dataclasses.replace(model, method="bogus")

    def test_inconsistent_model_is_refused_before_mapping(self, rng):
        # The model's fault, whatever subject it would have been handed.
        _, _, model = _fitted(rng)
        with pytest.raises(InvalidDataError, match="inconsistent"):
            dataclasses.replace(model, labeled=model.labeled[:-1])

    @pytest.mark.parametrize("field, convert", [
        pytest.param("labeled", lambda a: a.tolist(), id="labeled-list"),
        pytest.param("labeled", lambda a: a.astype(float), id="labeled-float"),
        pytest.param("template", lambda a: a.tolist(), id="template-list"),
        pytest.param("shared_space", lambda a: a.tolist(), id="shared-space-list"),
    ])
    def test_array_likes_are_coerced(self, rng, field, convert):
        ds, _, model = _fitted(rng)
        other = dataclasses.replace(model, **{field: convert(getattr(model, field))})
        assert other.labeled.dtype.kind == "i"
        assert other.template.dtype == other.shared_space.dtype == float
        np.testing.assert_array_equal(map_subject(other, ds.subjects[0]).features,
                                      map_subject(model, ds.subjects[0]).features)

    @pytest.mark.parametrize("labeled", [
        pytest.param(lambda a: a + 0.5, id="fractional"),
        pytest.param(lambda a: np.where(a == a[0], np.nan, a), id="nan"),
        pytest.param(lambda a: a.astype(str), id="text"),
        pytest.param(lambda a: np.ones(a.size, dtype=bool), id="mask"),
    ])
    def test_labeled_that_are_not_whole_numbers(self, rng, labeled):
        _, _, model = _fitted(rng)
        with pytest.raises(InvalidDataError, match="whole numbers"):
            dataclasses.replace(model, labeled=labeled(model.labeled))

    def test_ragged_template_is_malformed(self, rng):
        _, _, model = _fitted(rng)
        with pytest.raises(InvalidDataError, match="malformed value"):
            dataclasses.replace(model, template=[[0.0], [1.0, 2.0]])

    def test_fractional_labeled_on_load(self, tmp_path, rng):
        # numpy would truncate 0.5 to 0 and map from the wrong time point.
        meta = self._saved(tmp_path, rng)
        meta["labeled"] = [i + 0.5 for i in meta["labeled"]]
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="whole numbers"):
            load_model(tmp_path)


class TestDispatcher:
    def test_all_methods(self, rng):
        ds = normalize(random_dataset(rng, 3, 16, 10, 2))
        kernels = kernels_for(ds)
        for method in ("sha", "sha_r", "rha", "none"):
            model = fit(method, ds, kernels)
            assert model.method == method

    def test_unknown_method(self, rng):
        ds = normalize(random_dataset(rng, 2, 10, 6, 2))
        with pytest.raises(InvalidArgumentError):
            fit("procrustes", ds, None)

    @pytest.mark.parametrize("method", ["sha", "sha_r"])
    def test_supervised_fit_without_kernels_is_refused(self, rng, method):
        ds = normalize(random_dataset(rng, 3, 10, 6, 2))
        wrapper = {"sha": fit_sha, "sha_r": fit_sha_r}[method]
        for attempt in (lambda: fit(method, ds), lambda: wrapper(ds, None)):
            with pytest.raises(InvalidArgumentError,
                               match=f"'{method}' needs one supervision kernel per subject"):
                attempt()

    @pytest.mark.parametrize("method", ["rha", "sha", "sha_r"])
    def test_one_subject_refused_before_factoring(self, rng, method, monkeypatch):
        ds = normalize(random_dataset(rng, 1, 10, 6, 2))
        kernels = kernels_for(ds)
        factored = []
        monkeypatch.setattr(SubjectData, "thin_svd",
                            lambda *args, **kw: factored.append(args))
        wrapper = {"rha": lambda: fit_rha(ds), "sha": lambda: fit_sha(ds, kernels),
                   "sha_r": lambda: fit_sha_r(ds, kernels)}[method]
        for attempt in (wrapper, lambda: fit(method, ds, kernels)):
            with pytest.raises(InvalidArgumentError,
                               match=f"'{method}' needs at least 2 subjects, got 1"):
                attempt()
        assert factored == []

    @pytest.mark.parametrize("call, name", [
        (lambda ds, ks, v: fit_sha(ds, ks, k=v), "k"),
        (lambda ds, ks, v: fit_rha(ds, k=v), "k"),
        (lambda ds, ks, v: fit_sha_r(ds, ks, k=v), "k"),
        (lambda ds, ks, v: fit_sha_r(ds, ks, iterations=v), "iterations"),
        (lambda ds, ks, v: run_loso(ds, "sha", k=v), "k"),
        (lambda ds, ks, v: run_loso(ds, "sha_r", iterations=v), "iterations"),
    ], ids=["fit_sha-k", "fit_rha-k", "fit_sha_r-k", "fit_sha_r-iterations",
            "run_loso-k", "run_loso-iterations"])
    def test_non_integer_counts_refused(self, rng, call, name):
        ds = normalize(random_dataset(rng, 3, 12, 6, 2))
        kernels = kernels_for(ds)
        with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer, got 2.5"):
            call(ds, kernels, 2.5)
        call(ds, kernels, np.int64(2))

    @pytest.mark.parametrize("method", ["none", "rha", "sha", "sha_r"])
    def test_zero_iterations_refused_for_every_method(self, rng, method):
        ds = normalize(random_dataset(rng, 3, 10, 6, 2))
        with pytest.raises(InvalidArgumentError, match="iterations must be >= 1, got 0"):
            fit(method, ds, kernels_for(ds), iterations=0)

    def test_one_subject_baseline_still_fits(self, rng):
        ds = normalize(random_dataset(rng, 1, 10, 6, 2))
        assert fit("none", ds).method == fit_none(ds).method == "none"


class TestLargeEigAdvisory:
    """The eigenproblem-size advisory names the line that asked for the fit."""

    @pytest.fixture
    def small_threshold(self, monkeypatch):
        monkeypatch.setattr(multialign.alignment, "_LARGE_EIG_SIZE", 1)

    @staticmethod
    def _assert_names_line(record, line):
        sizes = [w for w in record if "eigenproblem" in str(w.message)]
        assert len(sizes) == 1
        assert (sizes[0].filename, sizes[0].lineno) == (__file__, line)

    def test_fit_sha_names_its_caller(self, rng, small_threshold):
        ds = normalize(random_dataset(rng, 3, 12, 8, 2))
        kernels = kernels_for(ds)
        with pytest.warns(AdvisoryWarning) as record:
            line = inspect.currentframe().f_lineno + 1
            fit_sha(ds, kernels)
        self._assert_names_line(record, line)

    @pytest.mark.parametrize("method", ["sha", "rha"])
    def test_fit_names_its_caller(self, rng, small_threshold, method):
        ds = normalize(random_dataset(rng, 3, 12, 8, 2))
        kernels = kernels_for(ds)
        with pytest.warns(AdvisoryWarning) as record:
            line = inspect.currentframe().f_lineno + 1
            fit(method, ds, kernels)
        self._assert_names_line(record, line)

    def test_iterative_path_does_not_warn(self, rng, small_threshold, recwarn):
        ds = normalize(random_dataset(rng, 3, 12, 8, 2))
        fit_sha_r(ds, kernels_for(ds), iterations=2)
        assert not [w for w in recwarn if "eigenproblem" in str(w.message)]

    @pytest.mark.parametrize("method", ["rha", "sha"])
    def test_loso_warns_only_where_a_fold_assembles_u(self, rng, small_threshold, method):
        # At full k every fold takes W = I and assembles no U; below it each
        # fold assembles one and warns, naming the line that ran the folds.
        ds = random_dataset(rng, 4, 12, 16, 3)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_loso(ds, method)
            line = inspect.currentframe().f_lineno + 1
            run_loso(ds, method, k=2)
        sizes = [w for w in record if "eigenproblem" in str(w.message)]
        assert len(sizes) == ds.n_subjects
        assert {(w.filename, w.lineno) for w in sizes} == {(__file__, line)}
