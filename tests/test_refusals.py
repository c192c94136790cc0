"""Refusals of malformed input, one public call each.

Every row names a call, the exception it must raise and a fragment of the
message.  The command-line rows run ``multialign`` in process and read the
JSON error object it prints on stderr; a usage error exits 2.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from multialign import (
    Dataset,
    InvalidArgumentError,
    InvalidDataError,
    LabelMatrix,
    MultialignError,
    NumericError,
    SubjectData,
    SupervisionKernel,
    accuracy,
    correlation_report,
    kernels_for,
    load_dataset,
    one_vs_rest_auc,
    pairwise_objective,
    rho1,
    rho2,
    run_loso,
    save_dataset,
    train_classifier,
)
from multialign.cli import main
from conftest import random_dataset, relabeled_dataset


def _labels(classes: int, timepoints: int) -> LabelMatrix:
    onehot = np.zeros((classes, timepoints))
    onehot[np.arange(timepoints) % classes, np.arange(timepoints)] = 1.0
    return LabelMatrix(onehot)


def _subjects(count: int, timepoints: int = 6, voxels: int = 3) -> tuple:
    rng = np.random.default_rng(5)
    return tuple(SubjectData(f"s{i}", rng.standard_normal((timepoints, voxels)))
                 for i in range(count))


def _all_rest(timepoints: int = 6) -> Dataset:
    rest = LabelMatrix(np.zeros((2, timepoints)))
    return Dataset(_subjects(2, timepoints), (rest, rest), ("a", "b"))


def _z(timepoints: int = 6, k: int = 2) -> np.ndarray:
    return np.arange(timepoints * k, dtype=float).reshape(timepoints, k) ** 2


# (call, exception class, message fragment)
REFUSALS = {
    # data
    "SubjectData-one-time-point": (
        lambda: SubjectData("s", np.ones((1, 3))), InvalidDataError,
        "needs at least 2 time points, got 1"),
    "Dataset-no-subjects": (
        lambda: Dataset((), (), ("a", "b")), InvalidDataError, "dataset has no subjects"),
    "Dataset-label-matrix-count": (
        lambda: Dataset(_subjects(2), (_labels(2, 6),), ("a", "b")), InvalidDataError,
        "2 subjects but 1 label matrices"),
    "Dataset-class-count": (
        lambda: Dataset(_subjects(2), (_labels(2, 6), _labels(3, 6)), ("a", "b")),
        InvalidDataError, "have 3 classes, expected 2"),
    "Dataset-class-name-count": (
        lambda: Dataset(_subjects(2), (_labels(2, 6),) * 2, ("a",)), InvalidDataError,
        "1 class names for 2 classes"),
    # classify
    "train_classifier-1-D-features": (
        lambda: train_classifier(np.ones(4), [0, 1, 0, 1]), InvalidDataError,
        "features must be 2-D, got ndim=1"),
    "train_classifier-non-finite-features": (
        lambda: train_classifier([[np.nan], [1.0], [2.0], [3.0]], [0, 1, 0, 1]),
        InvalidDataError, "features contain non-finite entries"),
    "train_classifier-singular-at-ridge-0": (
        lambda: train_classifier(np.ones((4, 2)), [0, 1, 0, 1], ridge=0), NumericError,
        "ridge system is singular"),
    "run_loso-fold-trains-on-one-class": (
        lambda: run_loso(relabeled_dataset(classes=2, held={}, rest={1: 0}), "none"),
        InvalidDataError, "need at least 2 classes, got 1"),
    "run_loso-one-subject": (
        lambda: run_loso(Dataset(_subjects(1), (_labels(2, 6),), ("a", "b")), "none"),
        InvalidArgumentError, "leave-one-subject-out needs at least 2 subjects"),
    # metrics
    "rho1-one-entry": (
        lambda: rho1([_z(3, 1), 2.0 * _z(3, 1)], mask=[True, False, False]),
        InvalidDataError, "correlation needs at least 2 entries"),
    "rho1-1-D-entry": (
        lambda: rho1([np.ones(3), np.ones(3)]), InvalidDataError,
        "mapped entry 0 must be 2-D"),
    "rho2-label-matrix-count": (
        lambda: rho2([_z(), _z()], [_labels(2, 6)]), InvalidDataError,
        "1 label matrices for 2 subjects"),
    "rho2-label-time-points": (
        lambda: rho2([_z(), _z()], [_labels(2, 4)] * 2), InvalidDataError,
        "label matrix 0 covers 4 time points, the mapped data has 6"),
    "rho2-no-instance": (
        lambda: rho2([_z(), _z()], [LabelMatrix(np.zeros((2, 6)))] * 2), InvalidDataError,
        "labels contain no stimulus instances"),
    "accuracy-size": (
        lambda: accuracy([0, 1], [0]), InvalidDataError, "size mismatch: 2 vs 1"),
    "one_vs_rest_auc-score-vector-size": (
        lambda: one_vs_rest_auc([0, 1, 0, 1], [0.1, 0.2, 0.3]), InvalidDataError,
        "size mismatch: 4 vs 3"),
    "one_vs_rest_auc-score-rows": (
        lambda: one_vs_rest_auc([0, 1, 0, 1], np.zeros((3, 2))), InvalidDataError,
        "scores have 3 rows for 4 truths"),
    "one_vs_rest_auc-class-ids": (
        lambda: one_vs_rest_auc([0, 1, 0, 1], np.zeros((4, 2)), classes=[0, 1, 2]),
        InvalidDataError, "3 class ids for 2 score columns"),
    # alignment
    "pairwise_objective-1-D-entry": (
        lambda: pairwise_objective([np.ones(3), np.ones(3)]), InvalidDataError,
        "mapped entry 0 must be 2-D"),
    "pairwise_objective-shapes": (
        lambda: pairwise_objective([np.ones((2, 2)), np.ones((3, 2))]), InvalidDataError,
        "mapped entry 1 has shape (3, 2), entry 0 has (2, 2)"),
    # supervision
    "SupervisionKernel-labeled-shape": (
        lambda: SupervisionKernel(np.eye(2), 0.0, np.arange(3)), InvalidArgumentError,
        "labeled indices have shape (3,), expected (2,)"),
    "kernels_for-no-labeled-point": (
        lambda: kernels_for(_all_rest()), InvalidArgumentError,
        "labels contain no labeled time points"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS)
def test_library_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


# Stacks of mapped subjects that every consumer of such a stack refuses.
MALFORMED_STACKS = {
    "one-subject": [_z()],
    "1-D-entry": [np.ones(3), np.ones(3)],
    "shapes": [np.ones((2, 2)), np.ones((3, 2))],
}


@pytest.mark.parametrize("mapped", MALFORMED_STACKS.values(), ids=MALFORMED_STACKS)
def test_one_stack_check(mapped):
    # pairwise_objective and the correlation statistics check a stack alike.
    calls = (pairwise_objective, rho1,
             lambda m: correlation_report(m, [_labels(2, 6)] * len(m)))
    refusals = set()
    for call in calls:
        with pytest.raises(MultialignError) as info:
            call(mapped)
        refusals.add((type(info.value), str(info.value)))
    assert len(refusals) == 1


def test_manifest_without_subjects(tmp_path, rng):
    manifest = save_dataset(random_dataset(rng, 2, 6, 3, 2), tmp_path / "d")
    meta = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**meta, "subjects": []}))
    with pytest.raises(InvalidDataError, match="manifest lists no subjects"):
        load_dataset(manifest)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    rng = np.random.default_rng(11)
    return save_dataset(random_dataset(rng, 3, 8, 5, 2), tmp_path_factory.mktemp("d") / "d")


# (command line after the data option, message fragment)
CLI_REFUSALS = {
    "sweep-no-grid-point": (("sweep", "--kind", "det", "--values", " , "),
                            "--values must list at least one grid point"),
    "sweep-non-numeric": (("sweep", "--kind", "gamma", "--values", "0,abc"),
                          "--values contains a non-numeric entry: '0,abc'"),
    "sweep-trs-fraction": (("sweep", "--kind", "trs", "--values", "4,2.5"),
                           "--values time-point counts must be an integer, got 2.5"),
    "sweep-trs-float": (("sweep", "--kind", "trs", "--values", "4.0"),
                        "--values time-point counts must be an integer, got 4.0"),
    "sweep-trs-non-numeric": (("sweep", "--kind", "trs", "--values", "2.5,abc"),
                              "--values contains a non-numeric entry: '2.5,abc'"),
    "sweep-trs-below-2": (("sweep", "--kind", "trs", "--values", "1"),
                          "--values time-point counts must be in [2, 8], got 1"),
    "sweep-trs-past-T": (("sweep", "--kind", "trs", "--values", "4,9"),
                         "--values time-point counts must be in [2, 8], got 9"),
    "corr-no-method": (("corr", "--methods", ","), "--methods must name at least one method"),
    "corr-unknown-method": (("corr", "--methods", "sha,procrustes"),
                            "--methods entries must be among"),
}


@pytest.mark.parametrize("argv, fragment", CLI_REFUSALS.values(), ids=CLI_REFUSALS)
def test_command_line_refusal(manifest, tmp_path, capsys, argv, fragment):
    code = main([*argv, "--data", str(manifest), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err.strip())
    assert code == 2 and err["error"] == "InvalidArgumentError"
    assert fragment in err["message"]
