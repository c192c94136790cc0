"""The two scalar rules, and every public parameter that goes through them.

A count (``k``, ``iterations``, ``n_points``, a seed, a ``synth`` size) must
be a Python or numpy integer at or above its floor; a real (``epsilon``,
``ridge``, ``gamma``, ``noise_sigma``) a finite Python or numpy real >= 0.
Neither takes a ``bool`` or text.  A library call refuses a broken rule
with :class:`InvalidArgumentError`; ``tests/test_alignment.py`` holds a
model file to the same rules.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from multialign import (
    InvalidArgumentError,
    SynthConfig,
    coupling_determinant,
    coupling_matrix,
    default_gamma,
    fit,
    fit_sha,
    fit_sha_r,
    generate,
    kernels_for,
    normalize,
    projector_from_svd,
    run_loso,
    substream,
    train_classifier,
    truncated_svd,
)
from multialign.errors import _nonnegative, _whole_number


class TestWholeNumber:
    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.int8(3), np.uint16(3),
                                       np.array(3)])
    def test_integers_pass_as_int(self, value):
        number = _whole_number("n", value)
        assert number == value and type(number) is int

    @pytest.mark.parametrize("value", [True, False, np.True_, 3.0, np.float64(3.0), 2.5,
                                       "3", None, [3], Fraction(3, 1), 3 + 0j])
    def test_non_integers_refused(self, value):
        with pytest.raises(InvalidArgumentError, match=r"^n must be an integer, got "):
            _whole_number("n", value)

    def test_floor(self):
        assert _whole_number("n", 2, 2) == 2
        with pytest.raises(InvalidArgumentError, match=r"^n must be >= 2, got 1$"):
            _whole_number("n", np.int64(1), 2)


class TestNonnegative:
    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 1e-4, 3, np.float64(0.5),
                                       np.float32(0.5), np.int64(2), Fraction(1, 4)])
    def test_reals_pass_as_float(self, value):
        number = _nonnegative("x", value)
        assert number == float(value) and type(number) is float

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", "inf", None, [0.1],
                                       1j, np.array(0.1), -1e-300, float("nan"),
                                       float("inf"), np.float64("-inf"), 10 ** 400,
                                       Fraction(10 ** 400)])
    def test_others_refused(self, value):
        with pytest.raises(InvalidArgumentError,
                           match=r"^x must be a finite value >= 0, got "):
            _nonnegative("x", value)


@pytest.fixture(scope="module")
def small():
    ds = normalize(generate(SynthConfig(subjects=3, classes=2, instances_per_class=2,
                                        instance_length=3, voxels=12, seed=1))[0])
    return ds, kernels_for(ds)


# (call on (dataset, kernels), message fragment); every call raises
# InvalidArgumentError.
LIBRARY_PROBES = {
    "fit_sha-epsilon-text": (lambda ds, ks: fit_sha(ds, ks, epsilon="0.1"),
                             "epsilon must be a finite value >= 0, got '0.1'"),
    "fit_sha-epsilon-bool": (lambda ds, ks: fit_sha(ds, ks, epsilon=True),
                             "epsilon must be a finite value >= 0, got True"),
    "fit_sha-k-bool": (lambda ds, ks: fit_sha(ds, ks, k=True), "k must be an integer, got True"),
    "fit-iterations-bool": (lambda ds, ks: fit("none", ds, iterations=True),
                            "iterations must be an integer, got True"),
    "fit-epsilon-nan": (lambda ds, ks: fit("none", ds, epsilon=float("nan")),
                        "epsilon must be a finite value >= 0, got nan"),
    "fit_sha_r-iterations-float": (lambda ds, ks: fit_sha_r(ds, ks, iterations=3.0),
                                   "iterations must be an integer, got 3.0"),
    "run_loso-ridge-bool": (lambda ds, ks: run_loso(ds, "none", ridge=True),
                            "ridge must be a finite value >= 0, got True"),
    "run_loso-ridge-text": (lambda ds, ks: run_loso(ds, "none", ridge="1"),
                            "ridge must be a finite value >= 0, got '1'"),
    "run_loso-epsilon-bool": (lambda ds, ks: run_loso(ds, "none", epsilon=True),
                              "epsilon must be a finite value >= 0, got True"),
    "run_loso-gamma-text": (lambda ds, ks: run_loso(ds, "sha", gamma="0.01"),
                            "gamma must be a finite value >= 0, got '0.01'"),
    "train_classifier-ridge-bool": (
        lambda ds, ks: train_classifier(np.eye(4), [0, 1, 0, 1], ridge=True),
        "ridge must be a finite value >= 0, got True"),
    "projector_from_svd-epsilon-bool": (
        lambda ds, ks: projector_from_svd(truncated_svd(np.eye(3), 3), True),
        "epsilon must be a finite value >= 0, got True"),
    "kernels_for-gamma-text": (lambda ds, ks: kernels_for(ds, "0.01"),
                               "gamma must be a finite value >= 0, got '0.01'"),
    "kernels_for-gamma-negative": (lambda ds, ks: kernels_for(ds, -0.1),
                                   "gamma must be a finite value >= 0, got -0.1"),
    "kernels_for-gamma-past-1/t": (lambda ds, ks: kernels_for(ds, 0.5),
                                   "gamma must lie in [0, 1/12)"),
    "coupling_determinant-gamma-text": (lambda ds, ks: coupling_determinant(5, "0.1"),
                                        "gamma must be a finite value >= 0, got '0.1'"),
    "coupling_determinant-gamma-bool": (lambda ds, ks: coupling_determinant(5, True),
                                        "gamma must be a finite value >= 0, got True"),
    "coupling_determinant-n_points-float": (lambda ds, ks: coupling_determinant(5.0, 0.1),
                                            "n_points must be an integer, got 5.0"),
    "coupling_determinant-n_points-zero": (lambda ds, ks: coupling_determinant(0, 0.1),
                                           "n_points must be >= 1, got 0"),
    "coupling_matrix-n_points-bool": (lambda ds, ks: coupling_matrix(True, 0.1),
                                      "n_points must be an integer, got True"),
    "coupling_matrix-n_points-zero": (lambda ds, ks: coupling_matrix(0, 0.1),
                                      "n_points must be >= 1, got 0"),
    "default_gamma-n_points-float": (lambda ds, ks: default_gamma(3.0),
                                     "n_points must be an integer, got 3.0"),
    "default_gamma-n_points-zero": (lambda ds, ks: default_gamma(0),
                                    "n_points must be >= 1, got 0"),
    "substream-seed-negative": (lambda ds, ks: substream(-1, "x"), "seed must be >= 0, got -1"),
    "substream-seed-bool": (lambda ds, ks: substream(True, "x"),
                            "seed must be an integer, got True"),
    "SynthConfig-subjects-fraction": (lambda ds, ks: generate(SynthConfig(subjects=2.5)),
                                      "subjects must be an integer, got 2.5"),
    "SynthConfig-subjects-whole-float": (lambda ds, ks: SynthConfig(subjects=3.0),
                                         "subjects must be an integer, got 3.0"),
    "SynthConfig-classes-bool": (lambda ds, ks: SynthConfig(classes=True),
                                 "classes must be an integer, got True"),
    "SynthConfig-voxels-text": (lambda ds, ks: SynthConfig(voxels="50"),
                                "voxels must be an integer, got '50'"),
    "SynthConfig-seed-bool": (lambda ds, ks: SynthConfig(seed=True),
                              "seed must be an integer, got True"),
    "SynthConfig-seed-negative": (lambda ds, ks: SynthConfig(seed=-1),
                                  "seed must be >= 0, got -1"),
    "SynthConfig-noise-bool": (lambda ds, ks: SynthConfig(noise_sigma=True),
                               "noise_sigma must be a finite value >= 0, got True"),
    "SynthConfig-noise-text": (lambda ds, ks: SynthConfig(noise_sigma="0.5"),
                               "noise_sigma must be a finite value >= 0, got '0.5'"),
}


@pytest.mark.parametrize("call, fragment", LIBRARY_PROBES.values(), ids=LIBRARY_PROBES)
def test_library_call_refuses(small, call, fragment):
    with pytest.raises(InvalidArgumentError) as info:
        call(*small)
    assert fragment in str(info.value)


def test_numpy_scalars_still_pass(small):
    ds, ks = small
    model = fit_sha(ds, ks, epsilon=np.float64(1e-4), k=np.int64(1))
    assert model.epsilon == 1e-4 and model.k == 1
    assert type(model.epsilon) is float and type(model.k) is int
    assert fit_sha_r(ds, ks, iterations=np.int32(2)).method == "sha_r"
    report = run_loso(ds, "sha", epsilon=np.float32(0.5), ridge=np.int64(1),
                      gamma=np.float64(0.01))
    assert report.params["ridge"] == 1.0 and report.params["epsilon"] == 0.5
    assert coupling_determinant(np.int64(4), np.float64(0.125)) == 0.5
    config = SynthConfig(subjects=np.int64(3), voxels=np.int16(12), seed=np.uint8(2),
                         noise_sigma=np.float32(0.25))
    assert generate(config)[0].n_subjects == 3
