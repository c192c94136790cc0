"""The command line against the benchmark's independent dense oracle.

``bench/oracle.py`` imports nothing from ``multialign``: it recomputes
``loso``, ``corr``, ``sweep`` and ``align`` from the CSV files on disk with
plain numpy ridge systems, under tolerances that do not depend on which
basis of the shared space an eigensolver returns.  Here Hypothesis draws
``synth`` shapes and every command runs through ``cli.main``; each output
must pass the oracle's own check.

The oracle takes every time point labeled (as ``synth`` makes them), the
default ``k``, and at least two instances per class (with one, ``rho3`` has
no pairs and its summary cell is empty).  It needs scipy, which Tier-1 does
not install, so without scipy the test is skipped.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")

from multialign.cli import main  # noqa: E402

ORACLE_PATH = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()
CORR_METHODS = ("none", "rha", "sha", "sha_r")  # corr's default --methods


@st.composite
def _shapes(draw):
    subjects = draw(st.integers(3, 6))
    classes = draw(st.integers(2, 4))
    instances = draw(st.integers(2, 3))
    length = draw(st.integers(2, 4))
    t = classes * instances * length
    # Both sides of T: the wide and the tall Gram orientation.
    voxels = draw(st.one_of(st.integers(classes, t - 1), st.integers(t + 1, 2 * t)))
    return subjects, classes, instances, length, voxels, draw(st.integers(0, 10_000))


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


@given(shape=_shapes())
@settings(max_examples=25, deadline=None)
def test_commands_match_the_dense_oracle(shape):
    subjects, classes, instances, length, voxels, seed = shape
    t = classes * instances * length
    gammas = [0.0, 0.4 / t]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = root / "data" / "manifest.json"
        _run("synth", "--subjects", subjects, "--classes", classes, "--instances", instances,
             "--instance-length", length, "--voxels", voxels, "--seed", seed,
             "--out", root / "data")
        oracle.check_synth(manifest, subjects, classes, instances, length, voxels)
        ids, xs, labels = oracle.load_dataset(manifest)
        sub = oracle.Subjects(xs, labels)

        for method in ("sha", "rha"):
            _run("loso", "--data", manifest, "--method", method, "--out", root / method)
            oracle.check_loso(root / method / f"loso_{method}.json", ids, method,
                              oracle.loso(sub, method))

        _run("corr", "--data", manifest, "--out", root / "corr")
        rng = oracle.np.random.default_rng(0)
        oracle.check_corr(root / "corr", CORR_METHODS,
                          {m: oracle.correlation_reference(sub, m, rng) for m in CORR_METHODS})

        _run("sweep", "--data", manifest, "--kind", "gamma",
             "--values", ",".join(map(repr, gammas)), "--out", root / "sweep")
        oracle.check_sweep(root / "sweep" / "sweep.csv", oracle.sweep_reference(sub, gammas))

        _run("align", "--data", manifest, "--method", "rha", "--out", root / "align")
        oracle.check_align(root / "align", oracle.align_reference(manifest))
