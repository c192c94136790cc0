"""Alignment engines: single-shot, iterative, unsupervised, and mapping."""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    save_dataset,
    save_model,
    supervision_kernel,
)
from multialign.alignment import _coupled_svd
from multialign.linalg import projector_from_svd, regularized_projector, truncated_svd
from conftest import assert_close_up_to_sign, random_dataset


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

    def test_kernel_restriction(self, rng):
        ds = random_dataset(rng, 2, 10, 4, 2)
        kernels = kernels_for(ds, gamma=0.01)
        zs = [s.data for s in ds.subjects]
        expected = ((kernels[0].matrix @ zs[0][kernels[0].labeled]
                     - kernels[1].matrix @ zs[1][kernels[1].labeled]) ** 2).sum()
        assert pairwise_objective(zs, kernels) == pytest.approx(expected)

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

    def test_with_kernels_equals_pair_loop(self, rng):
        ds = random_dataset(rng, 4, 16, 5, 3, rest_fraction=0.25)
        kernels = kernels_for(ds, gamma=0.02)
        zs = [subj.data for subj in ds.subjects]
        coupled = [ker.matrix @ z[ker.labeled] for ker, z in zip(kernels, zs)]
        assert pairwise_objective(zs, kernels) == pytest.approx(
            _brute_force_pairwise(coupled), rel=1e-12)


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


class TestFitRha:
    def test_reduces_from_identity_supervision(self, rng):
        # supervised path under an identity kernel == unsupervised path
        for _ in range(3):
            t, v = 10, 16
            subs = tuple(
                SubjectData(f"s{i}", rng.standard_normal((t, v))) for i in range(3)
            )
            ident = LabelMatrix(np.eye(t))
            ds = Dataset(subs, tuple(ident for _ in subs),
                         tuple(f"c{i}" for i in range(t)))
            kernels = [supervision_kernel(lab, gamma=0.0) for lab in ds.labels]
            supervised = fit_sha(ds, kernels, k=t)
            unsupervised = fit_rha(ds, k=t)
            assert_close_up_to_sign(supervised.shared_space,
                                    unsupervised.shared_space, 1e-8)
            assert_close_up_to_sign(supervised.template, unsupervised.template, 1e-8)

    def test_template_equals_shared_space(self, rng):
        # back-projecting through identity kernels averages S copies of the
        # shared space, identical up to the rounding of that mean
        ds = normalize(random_dataset(rng, 3, 14, 20, 2))
        model = fit_rha(ds)
        np.testing.assert_allclose(model.template, model.shared_space,
                                   atol=1e-14, rtol=0)
        assert model.k == 14  # min(voxels=20, t=14)

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

    def test_single_iteration_from_single_shot_solution(self, rng):
        ds, kernels, single = _fitted(rng)
        iterative = fit_sha_r(ds, kernels, iterations=1,
                              initial_shared=single.shared_space)
        start = iterative.fit_report.objective_history[0]
        target = single.fit_report.pairwise_objective
        # seeding with the single-shot solution starts at its objective value
        assert start == pytest.approx(target, rel=1e-9, abs=1e-12)

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

    def test_bad_initial_shape_rejected(self, rng):
        ds = normalize(random_dataset(rng, 2, 10, 6, 2))
        kernels = kernels_for(ds)
        with pytest.raises(InvalidArgumentError):
            fit_sha_r(ds, kernels, initial_shared=np.ones((3, 6)))


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
    """Dense primal ridge map ``x (x_l^T x_l + eps I)^{-1} x_l^T G``."""
    x_l = x[labeled]
    return x @ np.linalg.solve(x_l.T @ x_l + epsilon * np.eye(x.shape[1]),
                               x_l.T @ template)


def _augmented_ridge_map(x, labeled, template, epsilon):
    """The map of :func:`_primal_ridge_map`, solved as a least-squares problem.

    ``min ||X_l W - G||^2 + eps ||W||^2`` is the least-squares problem of
    ``[X_l; sqrt(eps) I] W = [G; 0]`` (minimum norm at ``eps = 0``), whose
    condition number is the square root of the normal equations': it keeps
    1e-10 where a small ``eps`` on data with a (near) null direction leaves
    the normal equations without those digits.
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
            dense = _augmented_ridge_map(subj.data, model.labeled, model.template, epsilon)
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
