"""Command line interface: outputs, determinism, replay, exit codes."""

import argparse
import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multialign
import multialign.alignment
import multialign.data
import multialign.linalg
from multialign import (
    coupling_determinant,
    load_dataset,
    normalize,
    read_matrix_csv,
    run_loso,
    write_matrix_csv,
)
from multialign.alignment import METHODS
from multialign.cli import build_parser, main
from multialign.synth import SynthConfig
from conftest import NO_TRAINING_CLASS, random_dataset, relabeled_dataset


SYNTH_ARGS = ["synth", "--subjects", "3", "--classes", "2", "--instances", "3",
              "--instance-length", "3", "--voxels", "12", "--noise", "0.4",
              "--seed", "7"]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli(*SYNTH_ARGS, "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def manifest(synth_dir):
    return synth_dir / "manifest.json"


def _tree_bytes(root: Path, exclude=("timings.json",)) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


class TestSynth:
    def test_expected_files(self, synth_dir):
        names = {p.name for p in synth_dir.iterdir()}
        assert {"manifest.json", "ground_truth.json", "run_config.json",
                "timings.json"} <= names
        for i in range(3):
            assert f"sub{i:02d}_data.csv" in names
            assert f"sub{i:02d}_labels.csv" in names

    def test_dataset_loads_with_expected_shape(self, manifest):
        ds = load_dataset(manifest)
        assert ds.n_subjects == 3
        assert ds.subjects[0].data.shape == (18, 12)
        assert ds.labels_identical()

    def test_run_config_records_arguments(self, synth_dir):
        config = json.loads((synth_dir / "run_config.json").read_text())
        assert config["command"] == "synth"
        assert config["arguments"]["subjects"] == 3
        assert config["arguments"]["seed"] == 7
        assert "out" not in config["arguments"]

    def test_rerun_reproduces_everything_but_timings(self, synth_dir, tmp_path):
        replay = tmp_path / "replay"
        code = run_cli("rerun", str(synth_dir / "run_config.json"),
                       "--out", str(replay))
        assert code == 0
        assert _tree_bytes(replay) == _tree_bytes(synth_dir)


class TestAlign:
    def test_sha_outputs(self, manifest, tmp_path):
        out = tmp_path / "sha"
        assert run_cli("align", "--data", str(manifest), "--method", "sha",
                       "--out", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert {"model.json", "w.csv", "g.csv", "run_config.json",
                "timings.json"} <= names
        for i in range(3):
            z = read_matrix_csv(out / f"z_sub{i:02d}.csv")
            assert z.shape == (18, 2)
        model = json.loads((out / "model.json").read_text())
        assert model["method"] == "sha"
        assert model["dims"]["shared_space"] == [2, 2]

    def test_none_method_maps_to_normalized_input(self, manifest, tmp_path):
        out = tmp_path / "none"
        assert run_cli("align", "--data", str(manifest), "--method", "none",
                       "--out", str(out)) == 0
        ds = normalize(load_dataset(manifest))
        for subj in ds.subjects:
            z = read_matrix_csv(out / f"z_{subj.subject_id}.csv")
            np.testing.assert_array_equal(z, subj.data)

    def test_deterministic_across_runs(self, manifest, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("align", "--data", str(manifest), "--method", "sha_r",
                           "--iters", "4", "--out", str(out)) == 0
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])

    def test_rerun_replays_align(self, manifest, tmp_path):
        first = tmp_path / "first"
        assert run_cli("align", "--data", str(manifest), "--method", "sha",
                       "--epsilon", "0.01", "--k", "1", "--out", str(first)) == 0
        second = tmp_path / "second"
        assert run_cli("rerun", str(first / "run_config.json"),
                       "--out", str(second)) == 0
        assert _tree_bytes(second) == _tree_bytes(first)


class TestOneMappingCall:
    """``align`` and ``corr`` map each fitted model's subjects in one stacked call."""

    @pytest.mark.parametrize("argv, models, rows", [
        pytest.param(("align", "--method", "rha"), 1, 1, id="align-rha"),
        pytest.param(("align", "--method", "none"), 1, 0, id="align-none"),
        # none maps as the identity, through no formula.
        pytest.param(("corr",), 4, 3, id="corr"),
    ])
    def test_calls(self, manifest, tmp_path, monkeypatch, argv, models, rows):
        counts = {name: 0 for name in ("map_dataset", "map_subject", "_map_rows")}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in counts:
            real = getattr(multialign.alignment, name)
            for owner in (multialign.alignment, multialign.cli):
                monkeypatch.setattr(owner, name, counting(name, real), raising=False)
        assert run_cli(*argv, "--data", str(manifest), "--out", str(tmp_path)) == 0
        assert counts == {"map_dataset": models, "map_subject": 0, "_map_rows": rows}


@pytest.fixture(scope="module")
def corr_dir(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("corr")
    assert run_cli("corr", "--data", str(manifest), "--out", str(out)) == 0
    return out


class TestCorr:
    def test_per_method_reports(self, corr_dir):
        for method in ("none", "rha", "sha", "sha_r"):
            payload = json.loads((corr_dir / f"corr_{method}.json").read_text())
            assert payload["method"] == method
            assert set(payload["report"]) == {
                "rho1", "rho2", "rho3", "rho4", "advisories"
            }

    def test_summary_table(self, corr_dir):
        lines = (corr_dir / "corr_summary.csv").read_text().splitlines()
        assert lines[0] == "method,metric,mean,std"
        assert len(lines) == 1 + 4 * 4
        rows = {
            (cells[0], cells[1]): float(cells[2])
            for cells in (line.split(",") for line in lines[1:])
        }
        # alignment restores matched-instance correlation on rotated data
        assert rows[("sha", "rho2")] > rows[("none", "rho2")] + 0.3
        json_sha = json.loads((corr_dir / "corr_sha.json").read_text())
        assert rows[("sha", "rho2")] == json_sha["report"]["rho2"]["mean"]

    def test_rho1_labeled_only_flag_round_trips(self, manifest, tmp_path):
        out = tmp_path / "restricted"
        assert run_cli("corr", "--data", str(manifest), "--methods", "sha",
                       "--rho1-labeled-only", "--out", str(out)) == 0
        config = json.loads((out / "run_config.json").read_text())
        assert config["arguments"]["rho1_labeled_only"] is True
        replay = tmp_path / "replayed"
        assert run_cli("rerun", str(out / "run_config.json"),
                       "--out", str(replay)) == 0
        assert _tree_bytes(replay) == _tree_bytes(out)


class TestLoso:
    def test_outputs(self, manifest, tmp_path):
        out = tmp_path / "loso"
        assert run_cli("loso", "--data", str(manifest), "--method", "sha",
                       "--out", str(out)) == 0
        payload = json.loads((out / "loso_sha.json").read_text())
        assert payload["method"] == "sha"
        assert payload["dataset"] == str(manifest)
        assert payload["seed"] == 0
        assert len(payload["folds"]) == 3
        assert "timings" not in payload
        lines = (out / "loso_summary.csv").read_text().splitlines()
        assert lines[0].startswith("dataset,method,seed,accuracy_mean")
        assert len(lines) == 2
        timings = json.loads((out / "timings.json").read_text())
        assert {"fit_ns", "map_ns", "train_ns", "score_ns"} <= set(
            timings["stages_ns"]
        )

    @pytest.mark.parametrize("method", ["none", "rha"])
    def test_gamma_is_not_recorded_for_methods_without_a_kernel(self, manifest, tmp_path,
                                                                method):
        runs = {}
        for gamma in ("auto", "5"):
            out = tmp_path / gamma
            assert run_cli("loso", "--data", str(manifest), "--method", method,
                           "--gamma", gamma, "--out", str(out)) == 0
            runs[gamma] = (out / f"loso_{method}.json").read_bytes()
        assert json.loads(runs["5"])["params"]["gamma"] is None
        assert runs["5"] == runs["auto"]


class TestSweep:
    def test_det_grid(self, manifest, tmp_path):
        out = tmp_path / "det"
        gamma_zero = 1.0 / 18.0  # labeled count of the fixture dataset
        assert run_cli("sweep", "--kind", "det", "--data", str(manifest),
                       "--values", f"0,0.02,{gamma_zero!r}",
                       "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "kind,value,metric,mean,std"
        values = [line.split(",") for line in lines[1:]]
        assert [v[2] for v in values] == ["coupling_det"] * 3
        assert float(values[0][3]) == 1.0
        assert float(values[1][3]) == pytest.approx(1 - 0.02 * 18)
        assert abs(float(values[2][3])) < 1e-12

    def test_gamma_grid(self, manifest, tmp_path):
        out = tmp_path / "gamma"
        assert run_cli("sweep", "--kind", "gamma", "--data", str(manifest),
                       "--values", "0,0.01", "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # coupling_det, accuracy, auc per value
        metrics = [line.split(",")[2] for line in lines[1:]]
        assert metrics == ["coupling_det", "accuracy", "auc"] * 2

    def test_trs_grid(self, manifest, tmp_path):
        out = tmp_path / "trs"
        assert run_cli("sweep", "--kind", "trs", "--data", str(manifest),
                       "--values", "12,18", "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("trs,12,accuracy,")

    def test_noise_grid(self, tmp_path):
        out = tmp_path / "noise"
        assert run_cli("sweep", "--kind", "noise", "--values", "0.2",
                       "--method", "sha", "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        acc = float(lines[1].split(",")[3])
        assert acc > 0.8  # low noise on the default generator is easy

    def test_det_requires_data(self, tmp_path):
        assert run_cli("sweep", "--kind", "det", "--values", "0.1",
                       "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("kind", ["det", "gamma"])
    def test_unparseable_gamma_rejected_for_every_kind(self, manifest, tmp_path,
                                                        capsys, kind):
        assert run_cli("sweep", "--kind", kind, "--data", str(manifest),
                       "--values", "0", "--gamma", "lots",
                       "--out", str(tmp_path / "x")) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgumentError"

    def test_noise_refuses_data(self, manifest, tmp_path, capsys):
        # A noise sweep generates its datasets; a --data it never reads
        # would still be recorded in run_config.json.
        out = tmp_path / "noise"
        assert run_cli("sweep", "--kind", "noise", "--data", str(manifest),
                       "--values", "0.2", "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgumentError"
        assert not (out / "run_config.json").exists()


class TestGammaSweepSharesSubjects:
    VALUES = (0.0, 0.005, 0.01)

    def _sweep(self, manifest, out):
        return run_cli("sweep", "--kind", "gamma", "--data", str(manifest),
                       "--values", ",".join(repr(v) for v in self.VALUES),
                       "--out", str(out))

    def test_csv_equals_one_loso_per_value(self, manifest, tmp_path):
        # The reference normalizes and factors afresh for every value.
        assert self._sweep(manifest, tmp_path / "sweep") == 0
        dataset = load_dataset(manifest)
        t = int(dataset.labels[0].labeled_indices.size)
        lines = ["kind,value,metric,mean,std"]
        for v in self.VALUES:
            report = run_loso(dataset, "sha", gamma=v)
            lines += [f"gamma,{v!r},coupling_det,{coupling_determinant(t, v)!r},0.0",
                      f"gamma,{v!r},accuracy,{report.accuracy_mean!r},"
                      f"{report.accuracy_std!r}",
                      f"gamma,{v!r},auc,{report.auc_mean!r},{report.auc_std!r}"]
        written = (tmp_path / "sweep" / "sweep.csv").read_bytes()
        assert written == ("\n".join(lines) + "\n").encode()

    def test_each_subject_data_factored_once(self, manifest, tmp_path, monkeypatch):
        calls = []
        real = multialign.linalg.truncated_svd

        def counting(m, rank):
            calls.append(np.shape(m))
            return real(m, rank)

        for module in (multialign.linalg, multialign.data, multialign.alignment):
            monkeypatch.setattr(module, "truncated_svd", counting, raising=False)
        assert self._sweep(manifest, tmp_path / "sweep") == 0
        dataset = load_dataset(manifest)
        n = dataset.n_subjects
        data_calls = [c for c in calls if c == dataset.subjects[0].data.shape]
        assert len(data_calls) == n
        # Plus each subject's label-coupled responses once per value.
        assert len(calls) == n + len(self.VALUES) * n


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(multialign.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, multialign.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestExitCodes:
    def test_empty_data_csv_exits_3_with_only_the_error_line(self, tmp_path, rng):
        manifest = multialign.data.save_dataset(random_dataset(rng, 3, 12, 6, 2),
                                                tmp_path / "ds")
        empty = tmp_path / "ds" / "s1_data.csv"
        empty.write_text("")
        src = str(Path(multialign.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "multialign.cli", "loso",
             "--data", str(manifest), "--method", "none", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 3, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        err = json.loads(lines[0])
        assert err["error"] == "InvalidDataError"
        assert str(empty) in err["message"]

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        code = run_cli("align", "--data", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"
        assert "message" in err

    def test_unknown_method_is_usage_error(self, manifest, tmp_path, capsys):
        code = run_cli("align", "--data", str(manifest), "--method", "srm",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        capsys.readouterr()

    def test_corrupt_csv_is_data_error(self, tmp_path, capsys):
        data_dir = tmp_path / "bad"
        data_dir.mkdir()
        (data_dir / "a_data.csv").write_text("1.0,2.0\nnot,numbers\n")
        (data_dir / "a_labels.csv").write_text("1.0,0.0\n0.0,1.0\n")
        (data_dir / "b_data.csv").write_text("1.0,2.0\n3.0,4.0\n")
        (data_dir / "b_labels.csv").write_text("1.0,0.0\n0.0,1.0\n")
        manifest = data_dir / "manifest.json"
        manifest.write_text(json.dumps({
            "class_names": ["a", "b"],
            "subjects": [
                {"id": "a", "data": "a_data.csv", "labels": "a_labels.csv"},
                {"id": "b", "data": "b_data.csv", "labels": "b_labels.csv"},
            ],
        }))
        code = run_cli("align", "--data", str(manifest),
                       "--out", str(tmp_path / "out"))
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidDataError"

    def test_wrong_typed_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"class_names": ["a", "b"], "subjects": 5}))
        code = run_cli("align", "--data", str(manifest), "--out", str(tmp_path / "out"))
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidDataError"

    @pytest.mark.parametrize("method", ["rha", "sha", "sha_r"])
    def test_one_subject_fit_is_usage_error(self, manifest, tmp_path, capsys, method):
        one = load_dataset(manifest)
        one = multialign.Dataset(one.subjects[:1], one.labels[:1], one.class_names)
        single = multialign.save_dataset(one, tmp_path / "one")
        code = run_cli("align", "--data", str(single), "--method", method,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "InvalidArgumentError",
                       "message": f"fitting '{method}' needs at least 2 subjects, got 1"}

    @pytest.mark.parametrize("argv", [("loso", "--method", m) for m in METHODS]
                             + [("align", "--method", "sha"), ("corr",)])
    def test_zero_iterations_is_usage_error(self, manifest, tmp_path, capsys, argv):
        code = run_cli(*argv, "--data", str(manifest), "--iters", "0",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "InvalidArgumentError",
                       "message": "iterations must be >= 1, got 0"}
        assert not (tmp_path / "out" / "run_config.json").exists()

    def test_bad_k_is_usage_error(self, manifest, tmp_path, capsys):
        code = run_cli("loso", "--data", str(manifest), "--k", "1.5",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "InvalidArgumentError",
                       "message": "--k must be an integer or 'auto', got '1.5'"}

    def test_exactly_singular_fit_is_numeric_error(self, tmp_path, capsys, rng):
        data_dir = tmp_path / "singular"
        data_dir.mkdir()
        onehot = np.zeros((2, 8))
        onehot[np.arange(8) % 2, np.arange(8)] = 1.0
        for sid in ("a", "b"):
            data = rng.standard_normal((8, 4))
            data[:, 1] = data[:, 0]  # collinear voxels: exact rank deficiency
            write_matrix_csv(data_dir / f"{sid}_data.csv", data)
            write_matrix_csv(data_dir / f"{sid}_labels.csv", onehot)
        manifest = data_dir / "manifest.json"
        manifest.write_text(json.dumps({
            "class_names": ["c0", "c1"],
            "subjects": [
                {"id": s, "data": f"{s}_data.csv", "labels": f"{s}_labels.csv"}
                for s in ("a", "b")
            ],
        }))
        code = run_cli("align", "--data", str(manifest), "--method", "rha",
                       "--epsilon", "0", "--out", str(tmp_path / "out"))
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericError"

    @pytest.mark.parametrize("method", ["rha", "sha"])
    def test_wide_subject_with_a_duplicated_time_point_is_numeric_error(
            self, tmp_path, capsys, rng, method):
        ds = random_dataset(rng, 3, 12, 40, 2)
        data = np.array(ds.subjects[1].data)
        data[5] = data[2]  # wide rows, one time point repeated: rank 11 of 12
        subjects = (ds.subjects[0], multialign.SubjectData("s1", data), ds.subjects[2])
        manifest = multialign.data.save_dataset(
            multialign.Dataset(subjects, ds.labels, ds.class_names), tmp_path / "ds")
        code = run_cli("align", "--data", str(manifest), "--method", method,
                       "--epsilon", "0", "--out", str(tmp_path / "out"))
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericError"

    @pytest.mark.parametrize("argv", [
        ("loso", "--method", "none", "--epsilon", "nan"),
        ("align", "--method", "none", "--epsilon", "-5"),
    ], ids=lambda argv: argv[0])
    def test_bad_epsilon_is_usage_error_for_every_method(self, manifest, tmp_path,
                                                         capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--data", str(manifest), "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "InvalidArgumentError",
                       "message": f"epsilon must be a finite value >= 0, got {float(argv[-1])}"}
        assert not (out / "run_config.json").exists()

    def test_bad_gamma_is_usage_error(self, manifest, tmp_path, capsys):
        code = run_cli("align", "--data", str(manifest), "--gamma", "lots",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgumentError"

    def test_rerun_of_rerun_rejected(self, tmp_path, capsys):
        config = tmp_path / "run_config.json"
        config.write_text(json.dumps({"command": "rerun", "arguments": {}}))
        assert run_cli("rerun", str(config), "--out", str(tmp_path / "out")) == 2
        capsys.readouterr()

    def test_rerun_takes_no_seed(self, manifest, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli("loso", "--data", str(manifest), "--seed", "1",
                       "--out", str(first)) == 0
        replay = tmp_path / "replay"
        code = run_cli("rerun", str(first / "run_config.json"), "--seed", "99",
                       "--out", str(replay))
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not replay.exists()

    def test_corr_refuses_a_method_named_twice_before_loading(self, tmp_path, capsys):
        garbled = tmp_path / "manifest.json"
        garbled.write_text("{not json")  # loading it would exit 3
        code = run_cli("corr", "--data", str(garbled), "--methods", "rha,sha,sha",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "InvalidArgumentError",
                       "message": "--methods names 'sha' more than once"}

    def test_rerun_of_non_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "run_config.json"
        config.write_text(json.dumps({"settings": {}}))
        assert run_cli("rerun", str(config), "--out", str(tmp_path / "out")) == 3
        capsys.readouterr()


def _subparsers() -> dict:
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _dests(command: str) -> set:
    return {a.dest for a in _subparsers()[command]._actions
            if a.dest not in ("help", "out")}


class TestRunRecords:
    """run_config.json holds every parsed option under its dest, minus --out."""

    @pytest.mark.parametrize("argv", [
        ("align", "--method", "rha"),
        ("corr", "--methods", "sha"),
        ("loso", "--method", "none"),
        ("sweep", "--kind", "det", "--values", "0"),
    ], ids=lambda argv: argv[0])
    def test_keys_are_the_subparser_dests(self, manifest, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--data", str(manifest), "--out", str(out)) == 0
        config = json.loads((out / "run_config.json").read_text())
        assert config["command"] == argv[0]
        assert set(config["arguments"]) == _dests(argv[0])

    def test_synth_keys_are_the_subparser_dests(self, synth_dir):
        config = json.loads((synth_dir / "run_config.json").read_text())
        assert set(config["arguments"]) == _dests("synth")

    def test_synth_record_keeps_the_config_field_names(self, synth_dir):
        arguments = json.loads((synth_dir / "run_config.json").read_text())["arguments"]
        assert arguments["instances_per_class"] == 3
        assert arguments["noise_sigma"] == 0.4
        assert "instances" not in arguments and "noise" not in arguments
        assert arguments == dataclasses.asdict(SynthConfig(**arguments))


class TestRerunReplays:
    @pytest.mark.parametrize("argv", [
        ("loso", "--method", "sha_r", "--iters", "3", "--ridge", "0.5"),
        ("sweep", "--kind", "det", "--values", "0,0.02"),
        ("sweep", "--kind", "gamma", "--values", "0,0.01", "--k", "1"),
        ("sweep", "--kind", "trs", "--values", "12,18", "--method", "rha"),
    ], ids=["loso", "sweep-det", "sweep-gamma", "sweep-trs"])
    def test_replay_is_byte_identical(self, manifest, tmp_path, argv):
        first = tmp_path / "first"
        assert run_cli(*argv, "--data", str(manifest), "--out", str(first)) == 0
        second = tmp_path / "second"
        assert run_cli("rerun", str(first / "run_config.json"),
                       "--out", str(second)) == 0
        assert _tree_bytes(second) == _tree_bytes(first)

    def test_noise_sweep_replay_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli("sweep", "--kind", "noise", "--values", "0.3", "--seed", "5",
                       "--out", str(first)) == 0
        second = tmp_path / "second"
        assert run_cli("rerun", str(first / "run_config.json"),
                       "--out", str(second)) == 0
        assert _tree_bytes(second) == _tree_bytes(first)


LOSO_STAGES = {"fit_ns", "map_ns", "train_ns", "score_ns"}


class TestTimingsContract:
    """``timings.json`` is flat, and ``bench/worker.py`` reads its ``stages_ns``."""

    @staticmethod
    def _check(out: Path, command: str, stages: set) -> None:
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"command", "stages_ns", "total_ns"}
        assert timings["command"] == command
        assert set(timings["stages_ns"]) == stages
        assert all(isinstance(ns, int) and ns >= 0 for ns in timings["stages_ns"].values())
        assert timings["total_ns"] >= sum(timings["stages_ns"].values())

    @pytest.mark.parametrize("argv, stages", [
        (tuple(SYNTH_ARGS), {"generate_ns", "write_ns"}),
        (("align", "--method", "rha"), {"load_ns", "fit_ns", "map_ns"}),
        (("corr", "--methods", "none,sha"), {"load_ns", "none_ns", "sha_ns"}),
        (("loso", "--method", "none"), {"load_ns"} | LOSO_STAGES),
        (("loso", "--method", "sha"), {"load_ns"} | LOSO_STAGES),
        (("sweep", "--kind", "gamma", "--values", "0,0.01"), set()),
    ], ids=["synth", "align", "corr", "loso-none", "loso-sha", "sweep"])
    def test_stage_keys_of_every_command_and_its_rerun(self, manifest, tmp_path,
                                                      argv, stages):
        data = () if argv[0] == "synth" else ("--data", str(manifest))
        out = tmp_path / "out"
        assert run_cli(*argv, *data, "--out", str(out)) == 0
        self._check(out, argv[0], stages)
        replay = tmp_path / "replay"
        assert run_cli("rerun", str(out / "run_config.json"), "--out", str(replay)) == 0
        self._check(replay, argv[0], stages)

    @pytest.mark.parametrize("method", METHODS)
    def test_loso_report_keeps_per_fold_and_total(self, manifest, method):
        timings = run_loso(load_dataset(manifest), method).timings
        assert set(timings) == {"per_fold", "total"}
        assert len(timings["per_fold"]) == 3
        assert all(set(fold) == LOSO_STAGES for fold in timings["per_fold"])
        assert set(timings["total"]) == LOSO_STAGES
        for stage in LOSO_STAGES:
            assert timings["total"][stage] >= sum(f[stage] for f in timings["per_fold"])


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestStrictJson:
    def test_no_output_holds_nan_or_infinity(self, manifest, synth_dir, tmp_path,
                                             monkeypatch):
        # The CLI loads labels strictly; a layout whose subjects show different
        # classes reaches loso through the library's strict_labels=False.
        layout = multialign.save_dataset(relabeled_dataset(**NO_TRAINING_CLASS),
                                         tmp_path / "layout")
        with monkeypatch.context() as patch:
            patch.setattr(multialign.cli, "load_dataset",
                          functools.partial(load_dataset, strict_labels=False))
            for method in METHODS:
                assert run_cli("loso", "--data", str(layout), "--method", method,
                               "--out", str(tmp_path / f"loso_{method}")) == 0
        for command in ("align", "corr"):
            assert run_cli(command, "--data", str(manifest),
                           "--out", str(tmp_path / command)) == 0
        paths = sorted([*tmp_path.rglob("*.json"), *synth_dir.rglob("*.json")])
        assert len(paths) >= 20
        for path in paths:
            json.loads(path.read_text(), parse_constant=_refuse_constant)


class TestRerunMalformed:
    """A malformed record is invalid data (exit 3), never a traceback."""

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"command": "align", "arguments": ["--method", "sha"]}),
        json.dumps({"command": 5, "arguments": {}}),
        json.dumps({"command": "fit", "arguments": {}}),
        json.dumps({"command": "align", "arguments": {"no_such_option": 1}}),
    ], ids=["not-json", "arguments-list", "command-int", "unknown-command",
            "unknown-option"])
    def test_exit_code_3(self, tmp_path, capsys, text):
        config = tmp_path / "run_config.json"
        config.write_text(text)
        assert run_cli("rerun", str(config), "--out", str(tmp_path / "out")) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidDataError"


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        exe = shutil.which("multialign")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [exe, "synth", "--subjects", "2", "--classes", "2",
             "--instances", "1", "--instance-length", "2", "--voxels", "4",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_module_invocation_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "multialign.cli", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "synth" in result.stdout and "loso" in result.stdout
