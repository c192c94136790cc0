"""Correlation profiles and classification scores.

The instance statistics are checked against naive oracles written as plain
nested loops over explicitly listed (class, start, stop) runs, sharing no
code with the implementation.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multialign import (
    AdvisoryWarning,
    InvalidArgumentError,
    InvalidDataError,
    InstanceRun,
    LabelMatrix,
    MetricSummary,
    NumericError,
    accuracy,
    class_instances,
    correlation_report,
    one_vs_rest_auc,
    rho1,
    rho2,
    rho3,
    rho4,
)
import multialign.metrics
from multialign.metrics import _binary_auc


def _labels_from_classes(classes, n_classes):
    classes = np.asarray(classes)
    onehot = np.zeros((n_classes, classes.size))
    for t, c in enumerate(classes):
        if c >= 0:
            onehot[c, t] = 1.0
    return LabelMatrix(onehot)


def _corr(a, b):
    return float(np.corrcoef(np.ravel(a), np.ravel(b))[0, 1])


@contextmanager
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AdvisoryWarning)
        yield


class TestClassInstances:
    def test_runs_split_at_rest_and_class_change(self):
        #            H  H  -  H  B  B  -  -  B  H
        labels = _labels_from_classes([0, 0, -1, 0, 1, 1, -1, -1, 1, 0], 2)
        runs = [(r.class_index, r.start, r.stop) for r in class_instances(labels)]
        assert runs == [(0, 0, 2), (0, 3, 4), (1, 4, 6), (1, 8, 9), (0, 9, 10)]

    def test_all_rest_is_empty(self):
        labels = LabelMatrix(np.zeros((2, 5)))
        assert class_instances(labels) == []

    def test_trailing_run_closed(self):
        labels = _labels_from_classes([1, 1, 1], 2)
        runs = class_instances(labels)
        assert len(runs) == 1 and runs[0].stop == 3 and runs[0].length == 3

    @pytest.mark.parametrize("classes", [
        [-1, 0, 0, 1, -1],          # rest at both ends
        [1, 1, -1, 1, 1, 1],        # one class twice, split by rest
        [-1, -1, -1],               # all rest
        [0],
    ])
    def test_matches_the_reference_loop_on_edge_layouts(self, classes):
        labels = _labels_from_classes(classes, 2)
        assert class_instances(labels) == _reference_instances(labels.class_of())

    @given(st.lists(st.integers(-1, 2), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_loop(self, classes):
        labels = _labels_from_classes(classes, 3)
        assert class_instances(labels) == _reference_instances(labels.class_of())


def _reference_instances(classes):
    """Runs found one time point at a time, as a plain loop."""
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


class TestRho1:
    def test_matches_whole_matrix_correlation(self, rng):
        zs = [rng.standard_normal((8, 3)) for _ in range(4)]
        expected = [_corr(zs[i], zs[j]) for i in range(4) for j in range(i + 1, 4)]
        summary = rho1(zs)
        assert summary.pairs == 6
        assert summary.mean == pytest.approx(np.mean(expected), abs=1e-12)
        assert summary.std == pytest.approx(np.std(expected), abs=1e-12)

    def test_identical_subjects(self, rng):
        z = rng.standard_normal((8, 3))
        summary = rho1([z, z.copy(), z.copy()])
        assert summary.mean == pytest.approx(1.0)
        assert summary.std == pytest.approx(0.0, abs=1e-12)

    def test_mask_restricts_rows(self, rng):
        zs = [rng.standard_normal((10, 2)) for _ in range(2)]
        mask = np.array([True] * 6 + [False] * 4)
        expected = _corr(zs[0][:6], zs[1][:6])
        assert rho1(zs, mask=mask).mean == pytest.approx(expected, abs=1e-12)

    def test_single_subject_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            rho1([rng.standard_normal((4, 2))])


class TestInstanceStatistics:
    """Naive-oracle checks on a hand-laid-out session.

    Layout (12 points, 2 classes, rest in between):
        class 0: [0:3)   class 1: [4:7)   class 0: [7:9)   class 1: [10:12)
    """

    RUNS = [(0, 0, 3), (1, 4, 7), (0, 7, 9), (1, 10, 12)]

    @pytest.fixture()
    def session(self, rng):
        classes = np.full(12, -1)
        for c, start, stop in self.RUNS:
            classes[start:stop] = c
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((12, 5)) for _ in range(3)]
        return zs, [labels] * 3

    def test_rho2_against_naive(self, session):
        zs, labels = session
        expected = []
        for i in range(3):
            for j in range(i + 1, 3):
                for _, start, stop in self.RUNS:
                    expected.append(_corr(zs[i][start:stop], zs[j][start:stop]))
        summary = rho2(zs, labels)
        assert summary.pairs == len(expected) == 3 * 4
        assert summary.mean == pytest.approx(np.mean(expected), abs=1e-12)
        assert summary.std == pytest.approx(np.std(expected), abs=1e-12)

    def test_rho3_against_naive(self, session):
        zs, labels = session
        expected = []
        for i in range(3):
            for j in range(i + 1, 3):
                for ca, sa, ea in self.RUNS:
                    for cb, sb, eb in self.RUNS:
                        if (ca, sa, ea) == (cb, sb, eb) or ca != cb:
                            continue
                        n = min(ea - sa, eb - sb)
                        expected.append(_corr(zs[i][sa:sa + n], zs[j][sb:sb + n]))
        with pytest.warns(AdvisoryWarning):  # class-0 runs have lengths 3 and 2
            summary = rho3(zs, labels)
        assert summary.pairs == len(expected) == 3 * 4
        assert summary.mean == pytest.approx(np.mean(expected), abs=1e-12)
        assert summary.std == pytest.approx(np.std(expected), abs=1e-12)

    def test_rho4_against_naive(self, session):
        zs, labels = session
        expected = []
        for i in range(3):
            for j in range(i + 1, 3):
                for ca, sa, ea in self.RUNS:
                    for cb, sb, eb in self.RUNS:
                        if ca == cb:
                            continue
                        n = min(ea - sa, eb - sb)
                        expected.append(_corr(zs[i][sa:sa + n], zs[j][sb:sb + n]))
        with pytest.warns(AdvisoryWarning):
            summary = rho4(zs, labels)
        assert summary.pairs == len(expected) == 3 * 8
        assert summary.mean == pytest.approx(np.mean(expected), abs=1e-12)
        assert summary.std == pytest.approx(np.std(expected), abs=1e-12)

    def test_values_stay_in_unit_interval(self, session):
        zs, labels = session
        for summary in (rho1(zs), rho2(zs, labels)):
            assert -1.0 <= summary.mean <= 1.0


def _naive_instance_stats(zs, runs):
    """rho2/rho3/rho4 values and whether rho3/rho4 compare unequal lengths."""
    values = {"rho2": [], "rho3": [], "rho4": []}
    unequal = {"rho3": False, "rho4": False}
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            for a, (ca, sa, ea) in enumerate(runs):
                for b, (cb, sb, eb) in enumerate(runs):
                    n = min(ea - sa, eb - sb)
                    name = "rho2" if a == b else "rho3" if ca == cb else "rho4"
                    values[name].append(_corr(zs[i][sa:sa + n], zs[j][sb:sb + n]))
                    if name != "rho2" and ea - sa != eb - sb:
                        unequal[name] = True
    return values, unequal


# (class, run length, rest points before the run)
_RUN = st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(0, 2))


class TestInstanceKernel:
    """The one correlation kernel against the naive loop on random layouts."""

    @given(spec=st.lists(_RUN, min_size=1, max_size=8),
           n_subjects=st.integers(2, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_loop(self, spec, n_subjects, seed):
        classes, runs = [], []
        for c, length, gap in spec:
            if classes and classes[-1] == c:
                gap = max(gap, 1)  # keep same-class runs distinct instances
            classes += [-1] * gap
            runs.append((c, len(classes), len(classes) + length))
            classes += [c] * length
        labels = _labels_from_classes(classes, 3)
        gen = np.random.default_rng(seed)
        zs = [gen.standard_normal((len(classes), 2)) for _ in range(n_subjects)]
        expected, unequal = _naive_instance_stats(zs, runs)
        for name, fn in (("rho2", rho2), ("rho3", rho3), ("rho4", rho4)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", AdvisoryWarning)
                summary = fn(zs, [labels] * n_subjects)
            assert len(caught) == int(unequal.get(name, False))
            assert summary.pairs == len(expected[name])
            if expected[name]:
                assert summary.mean == pytest.approx(np.mean(expected[name]), abs=1e-12)
                assert summary.std == pytest.approx(np.std(expected[name]), abs=1e-12)
            else:
                assert summary.mean is None and summary.std is None

    #            0  0  1  1  -  0  0  0  1  1
    CLASSES = [0, 0, 1, 1, -1, 0, 0, 0, 1, 1]

    @pytest.fixture()
    def session(self, rng):
        labels = _labels_from_classes(self.CLASSES, 2)
        zs = [rng.standard_normal((len(self.CLASSES), 2)) for _ in range(3)]
        return zs, [labels] * 3

    @staticmethod
    def _all_four(zs, labels, rho1_mask=None):
        return {
            "rho1": lambda: rho1(zs, mask=rho1_mask),
            "rho2": lambda: rho2(zs, labels),
            "rho3": lambda: rho3(zs, labels),
            "rho4": lambda: rho4(zs, labels),
        }

    def test_zero_variance_block_rejected(self, session):
        zs, labels = session
        zs[1][0:2] = 3.0  # first class-0 instance of subject 1
        block_rows = np.arange(len(self.CLASSES)) < 2
        for call in self._all_four(zs, labels, block_rows).values():
            with pytest.raises(NumericError), warnings.catch_warnings():
                warnings.simplefilter("ignore", AdvisoryWarning)
                call()

    def test_non_finite_input_rejected(self, session):
        zs, labels = session
        zs[1][6, 0] = np.nan  # inside the second class-0 instance
        for call in self._all_four(zs, labels).values():
            with pytest.raises(InvalidDataError), warnings.catch_warnings():
                warnings.simplefilter("ignore", AdvisoryWarning)
                call()

    def test_mismatched_feature_counts_rejected(self, session, rng):
        zs, labels = session
        zs[2] = rng.standard_normal((len(self.CLASSES), 3))
        for call in self._all_four(zs, labels).values():
            with pytest.raises(InvalidDataError):
                call()

    def test_report_invariant_to_subject_order(self, rng):
        labels = _labels_from_classes(self.CLASSES, 2)
        zs = [rng.standard_normal((len(self.CLASSES), 3)) for _ in range(4)]
        reference = correlation_report(zs, [labels] * 4)
        for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
            report = correlation_report([zs[i] for i in order], [labels] * 4)
            assert report.advisories == reference.advisories
            for name in ("rho1", "rho2", "rho3", "rho4"):
                got, want = getattr(report, name), getattr(reference, name)
                assert got.pairs == want.pairs
                assert got.mean == pytest.approx(want.mean, abs=1e-12)
                assert got.std == pytest.approx(want.std, abs=1e-12)


def _layout(spec):
    """Class per time point and (class, start, stop) runs of a run spec."""
    classes, runs = [], []
    for c, length, gap in spec:
        if classes and classes[-1] == c:
            gap = max(gap, 1)  # keep same-class runs distinct instances
        classes += [-1] * gap
        runs.append((c, len(classes), len(classes) + length))
        classes += [c] * length
    return classes, runs


class TestSharedInstancePass:
    """correlation_report's one kernel pass against the separate statistics."""

    @given(spec=st.lists(_RUN, min_size=1, max_size=8),
           n_subjects=st.integers(2, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_separate_statistics(self, spec, n_subjects, seed):
        classes, _ = _layout(spec)
        labels = [_labels_from_classes(classes, 3)] * n_subjects
        gen = np.random.default_rng(seed)
        zs = [gen.standard_normal((len(classes), 2)) for _ in range(n_subjects)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AdvisoryWarning)
            separate = {fn.__name__: fn(zs, labels) for fn in (rho2, rho3, rho4)}
        report = correlation_report(zs, labels)
        expected = tuple(dict.fromkeys(str(w.message) for w in caught))
        assert report.advisories == expected
        for name, want in separate.items():
            got = getattr(report, name)
            assert got.pairs == want.pairs
            if want.pairs:
                assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15)
                assert got.std == pytest.approx(want.std, rel=1e-12, abs=1e-15)
            else:
                assert got.mean is None and got.std is None

    def test_advisories_keep_statistic_order(self):
        # rho3 truncates to 2 points, rho4 additionally to 1 point.
        classes = [0, 0, -1, 0, 0, 0, 1, -1, 1, 1, 1]
        labels = [_labels_from_classes(classes, 2)] * 2
        gen = np.random.default_rng(5)
        zs = [gen.standard_normal((len(classes), 3)) for _ in range(2)]
        report = correlation_report(zs, labels)
        assert report.advisories == (
            "comparing instances of unequal length; blocks truncated to the "
            "shorter (2 time points)",
            "comparing instances of unequal length; blocks truncated to the "
            "shorter (1 time points)",
        )

    def test_one_kernel_pass_per_report(self, rng, monkeypatch):
        calls = []
        real = multialign.metrics._instance_correlations

        def counting(z, runs, mask):
            calls.append(mask.copy())
            return real(z, runs, mask)

        monkeypatch.setattr(multialign.metrics, "_instance_correlations", counting)
        classes = np.repeat([0, 1, 0, 1], 3)
        zs = [rng.standard_normal((12, 4)) for _ in range(3)]
        correlation_report(zs, [_labels_from_classes(classes, 2)] * 3)
        assert len(calls) == 1 and calls[0].all()

    def test_report_raises_like_the_statistics(self, rng):
        classes = [0, 0, 1, 1, -1, 0, 0, 0, 1, 1]
        labels = [_labels_from_classes(classes, 2)] * 3
        zs = [rng.standard_normal((len(classes), 2)) for _ in range(3)]
        flat = [z.copy() for z in zs]
        flat[1][0:2] = 3.0  # a zero-variance instance block
        with pytest.raises(NumericError), warnings.catch_warnings():
            warnings.simplefilter("ignore", AdvisoryWarning)
            correlation_report(flat, labels)
        broken = [z.copy() for z in zs]
        broken[2][6, 1] = np.inf
        with pytest.raises(InvalidDataError):
            correlation_report(broken, labels)


class TestInstanceCounts:
    def test_two_subjects_two_classes_two_instances_each(self, rng):
        # alternating layout: H1 B1 H2 B2, uniform length
        classes = np.repeat([0, 1, 0, 1], 3)
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((12, 4)) for _ in range(2)]
        assert rho2(zs, [labels] * 2).pairs == 4
        assert rho3(zs, [labels] * 2).pairs == 4
        assert rho4(zs, [labels] * 2).pairs == 8

    def test_closed_form_counts(self, rng):
        n_sub, n_classes, n_inst = 4, 3, 5
        classes = np.tile(np.repeat(np.arange(n_classes), 2), n_inst)
        labels = _labels_from_classes(classes, n_classes)
        zs = [rng.standard_normal((classes.size, 3)) for _ in range(n_sub)]
        labs = [labels] * n_sub
        n_pairs = n_sub * (n_sub - 1) // 2
        assert rho2(zs, labs).pairs == n_pairs * n_classes * n_inst
        assert rho3(zs, labs).pairs == n_pairs * n_classes * n_inst * (n_inst - 1)
        assert rho4(zs, labs).pairs == (
            n_pairs * n_classes * (n_classes - 1) * n_inst * n_inst
        )

    def test_single_instance_class_contributes_nothing(self, rng):
        classes = np.array([0, 0, 1, 1])
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((4, 3)) for _ in range(2)]
        assert rho3(zs, [labels] * 2).pairs == 0
        assert rho3(zs, [labels] * 2).mean is None

    def test_mismatched_layouts_rejected(self, rng):
        la = _labels_from_classes([0, 0, 1, 1], 2)
        lb = _labels_from_classes([0, 1, 1, 1], 2)
        zs = [rng.standard_normal((4, 3)) for _ in range(2)]
        with pytest.raises(InvalidDataError):
            rho2(zs, [la, lb])

    @pytest.mark.parametrize("layouts, named", [
        ((0, 1, 1, 0), 1),
        ((0, 0, 1, 1), 2),
        ((0, 0, 0, 2), 3),
    ])
    def test_mismatch_names_the_first_subject_that_differs(self, rng, layouts, named):
        # layout 0 is the first subject's; 1 moves a class boundary, 2
        # swaps the classes, which leaves the run boundaries in place
        layout = ([0, 0, 1, 1, -1, 0], [0, 1, 1, 1, -1, 0], [1, 1, 0, 0, -1, 1])
        labels = [_labels_from_classes(layout[i], 2) for i in layouts]
        zs = [rng.standard_normal((6, 3)) for _ in labels]
        message = (f"subject {named} has a different stimulus-instance layout than "
                   "subject 0")
        for statistic in (rho2, rho3, rho4, correlation_report):
            with pytest.raises(InvalidDataError, match=message):
                statistic(zs, labels)

    def test_equal_lengths_do_not_warn(self, rng):
        classes = np.repeat([0, 1, 0, 1], 3)
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((12, 4)) for _ in range(2)]
        with warnings_as_errors():
            rho3(zs, [labels] * 2)
            rho4(zs, [labels] * 2)


class TestCorrelationReport:
    def test_report_bundles_all_four(self, rng):
        classes = np.repeat([0, 1, 0, 1], 3)
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((12, 4)) for _ in range(3)]
        report = correlation_report(zs, [labels] * 3)
        assert report.rho1.pairs == 3
        assert report.rho2.pairs == 12
        assert report.rho1.mean == pytest.approx(rho1(zs).mean)
        d = report.to_json_dict()
        assert set(d) == {"rho1", "rho2", "rho3", "rho4", "advisories"}
        assert set(d["rho2"]) == {"mean", "std", "pairs"}

    def test_labeled_only_restriction(self, rng):
        classes = np.array([0, 0, -1, 1, 1, -1])
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((6, 3)) for _ in range(2)]
        full = correlation_report(zs, [labels] * 2)
        restricted = correlation_report(zs, [labels] * 2, rho1_labeled_only=True)
        expected = _corr(zs[0][classes >= 0], zs[1][classes >= 0])
        assert restricted.rho1.mean == pytest.approx(expected, abs=1e-12)
        assert full.rho1.mean != restricted.rho1.mean

    def test_truncation_advisory_captured_not_raised(self, rng):
        classes = np.array([0, 0, 0, 1, 1, 0, 0, 1, 1, 1])
        labels = _labels_from_classes(classes, 2)
        zs = [rng.standard_normal((10, 3)) for _ in range(2)]
        report = correlation_report(zs, [labels] * 2)
        assert any("truncated" in a for a in report.advisories)


class TestMetricSummary:
    def test_empty_summary(self):
        summary = MetricSummary(None, None, 0)
        assert summary.to_json_dict() == {"mean": None, "std": None, "pairs": 0}

    def test_population_std(self, rng):
        zs = [rng.standard_normal((6, 2)) for _ in range(3)]
        values = [_corr(zs[i], zs[j]) for i in range(3) for j in range(i + 1, 3)]
        assert rho1(zs).std == pytest.approx(np.std(values), abs=1e-12)  # ddof=0


class TestAccuracy:
    def test_basic(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == pytest.approx(0.75)
        assert accuracy([0, 1], [0, 1]) == 1.0
        assert accuracy([0, 1], [1, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidDataError):
            accuracy([], [])


class TestAuc:
    def test_perfect_and_inverted(self):
        truth = np.array([0, 0, 1, 1])
        assert one_vs_rest_auc(truth, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert one_vs_rest_auc(truth, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_ties_get_average_rank(self):
        truth = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert one_vs_rest_auc(truth, scores) == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        gen = np.random.default_rng(7)
        truth = gen.integers(0, 2, size=10_000)
        scores = gen.standard_normal(10_000)
        assert one_vs_rest_auc(truth, scores) == pytest.approx(0.5, abs=0.02)

    def test_matches_pair_counting_oracle(self):
        gen = np.random.default_rng(3)
        truth = gen.integers(0, 2, size=40)
        scores = gen.standard_normal(40)
        pos = scores[truth == 1]
        neg = scores[truth == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (pos.size * neg.size)
        assert one_vs_rest_auc(truth, scores) == pytest.approx(expected, abs=1e-12)

    def test_macro_average_over_classes(self):
        gen = np.random.default_rng(11)
        truth = gen.integers(0, 3, size=60)
        scores = gen.standard_normal((60, 3))
        per_class = []
        for c in range(3):
            pos = scores[truth == c, c]
            neg = scores[truth != c, c]
            wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
            per_class.append(wins / (pos.size * neg.size))
        assert one_vs_rest_auc(truth, scores) == pytest.approx(
            np.mean(per_class), abs=1e-12
        )

    def test_absent_class_column_skipped(self):
        truth = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1, 0.0],
                           [0.8, 0.2, 0.0],
                           [0.1, 0.9, 0.0],
                           [0.2, 0.8, 0.0]])
        assert one_vs_rest_auc(truth, scores, classes=[0, 1, 2]) == 1.0

    def test_single_class_truth_rejected(self):
        with pytest.raises(NumericError):
            one_vs_rest_auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_truth_with_none_of_the_classes_rejected(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        with pytest.raises(NumericError, match="none of the scored classes"):
            one_vs_rest_auc([2, 3, 3], scores, classes=[0, 1])

    def test_vector_scores_need_binary_truth(self):
        with pytest.raises(InvalidDataError):
            one_vs_rest_auc([0, 1, 2], [0.1, 0.2, 0.3])


class TestBinaryAucRanks:
    """Tie-averaged ranks give the Mann-Whitney statistic exactly."""

    @given(scores=st.lists(st.integers(-3, 3), min_size=2, max_size=40),
           flags=st.lists(st.booleans(), min_size=2, max_size=40),
           scale=st.sampled_from([1.0, 0.1, 1e-300, 7e10]))
    @settings(max_examples=200, deadline=None)
    def test_equals_pair_count_on_tied_scores(self, scores, flags, scale):
        n = min(len(scores), len(flags))
        scores = np.array(scores[:n], dtype=float) * scale
        positive = np.array(flags[:n])
        if positive.all() or not positive.any():
            positive[0] = not positive[0]
        pos, neg = scores[positive], scores[~positive]
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        expected = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert _binary_auc(positive, scores) == expected

    def test_nan_scores_give_nan(self):
        auc = _binary_auc(np.array([True, False, True]), np.array([0.1, np.nan, 0.3]))
        assert np.isnan(auc)


class TestColumnAucs:
    """One sort of the score matrix gives every column's tie-averaged AUC."""

    @given(data=st.data(), n=st.integers(2, 30), n_classes=st.integers(2, 5),
           scale=st.sampled_from([1.0, 0.1, 1e-300, 7e10]))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_column_binary_auc_on_tied_scores(self, data, n, n_classes, scale):
        truth = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                            min_size=n, max_size=n)))
        if np.unique(truth).size < 2:
            truth[0], truth[1] = 0, 1
        scores = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * n_classes,
                                             max_size=n * n_classes)),
                          dtype=float).reshape(n, n_classes) * scale
        if data.draw(st.booleans()):
            row = data.draw(st.integers(0, n - 1))
            scores[row, data.draw(st.integers(0, n_classes - 1))] = np.nan
        classes = np.arange(n_classes)
        per_column = [_binary_auc(truth == c, scores[:, c]) for c in classes
                      if c in truth]
        got = one_vs_rest_auc(truth, scores, classes=classes)
        expected = float(np.mean(per_column))
        # TestBinaryAucRanks pins _binary_auc itself to the pair count.
        assert got == expected or (np.isnan(got) and np.isnan(expected))
