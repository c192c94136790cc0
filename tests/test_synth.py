"""Synthetic data generator: determinism, planted structure, recovery."""

from dataclasses import asdict

import numpy as np
import pytest

from multialign import (
    InvalidArgumentError,
    SynthConfig,
    correlation_report,
    fit_sha,
    generate,
    kernels_for,
    map_dataset,
    normalize,
    rho1,
    rho3,
    rho4,
    save_ground_truth,
    substream,
)


SMALL = SynthConfig(subjects=3, classes=2, instances_per_class=3,
                    instance_length=4, voxels=10, noise_sigma=0.4, seed=9)


class TestDeterminism:
    def test_same_config_bit_identical(self):
        ds_a, truth_a = generate(SMALL)
        ds_b, truth_b = generate(SMALL)
        for sa, sb in zip(ds_a.subjects, ds_b.subjects):
            np.testing.assert_array_equal(sa.data, sb.data)
        np.testing.assert_array_equal(truth_a.signatures, truth_b.signatures)
        np.testing.assert_array_equal(truth_a.latent, truth_b.latent)

    def test_different_seeds_differ(self):
        ds_a, _ = generate(SMALL)
        ds_b, _ = generate(SynthConfig(**{**asdict(SMALL), "seed": 10}))
        assert not np.array_equal(ds_a.subjects[0].data, ds_b.subjects[0].data)

    def test_substreams_are_independent_of_each_other(self):
        a = substream(3, "signatures").standard_normal(4)
        b = substream(3, "noise:0").standard_normal(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, substream(3, "signatures").standard_normal(4))

    def test_subject_streams_stable_under_subject_count(self):
        # adding a subject must not reshuffle the existing ones
        ds_small, _ = generate(SMALL)
        bigger = SynthConfig(**{**asdict(SMALL), "subjects": 4})
        ds_big, _ = generate(bigger)
        for sa, sb in zip(ds_small.subjects, ds_big.subjects):
            np.testing.assert_array_equal(sa.data, sb.data)

    def test_ground_truth_sidecar_round_trips(self, tmp_path):
        import json

        _, truth = generate(SMALL)
        path = save_ground_truth(truth, tmp_path / "truth.json")
        payload = json.loads(path.read_text())
        np.testing.assert_array_equal(payload["signatures"], truth.signatures)
        np.testing.assert_array_equal(payload["latent"], truth.latent)
        assert len(payload["rotations"]) == len(truth.rotations)
        for back, rotation in zip(payload["rotations"], truth.rotations):
            np.testing.assert_array_equal(back, rotation)
        listed = {"signatures": truth.signatures.tolist(), "latent": truth.latent.tolist(),
                  "rotations": [r.tolist() for r in truth.rotations]}
        assert path.read_bytes() == (json.dumps(listed, indent=2, sort_keys=True)
                                     + "\n").encode()


class TestStructure:
    def test_shapes_and_names(self):
        ds, truth = generate(SMALL)
        assert ds.n_subjects == 3
        assert [s.subject_id for s in ds.subjects] == ["sub00", "sub01", "sub02"]
        assert ds.class_names == ("class_0", "class_1")
        assert all(s.data.shape == (24, 10) for s in ds.subjects)
        assert truth.latent.shape == (24, 2)
        assert all(r.shape == (10, 2) for r in truth.rotations)

    def test_round_robin_layout(self):
        ds, _ = generate(SMALL)
        classes = ds.labels[0].class_of()
        expected = np.repeat(np.tile([0, 1], 3), 4)
        np.testing.assert_array_equal(classes, expected)
        assert ds.labels_identical()

    def test_signatures_and_rotations_orthonormal(self):
        _, truth = generate(SMALL)
        np.testing.assert_allclose(
            truth.signatures @ truth.signatures.T, np.eye(2), atol=1e-12
        )
        for rot in truth.rotations:
            np.testing.assert_allclose(rot.T @ rot, np.eye(2), atol=1e-12)

    def test_noiseless_data_is_rotated_latent(self):
        cfg = SynthConfig(**{**asdict(SMALL), "noise_sigma": 0.0})
        ds, truth = generate(cfg)
        for subj, rot in zip(ds.subjects, truth.rotations):
            np.testing.assert_allclose(subj.data, truth.latent @ rot.T, atol=1e-14)

    def test_identity_rotation_embeds_leading_voxels(self):
        cfg = SynthConfig(**{**asdict(SMALL), "rotation": "identity",
                             "noise_sigma": 0.0})
        ds, truth = generate(cfg)
        np.testing.assert_allclose(ds.subjects[0].data[:, :2], truth.latent)
        np.testing.assert_allclose(ds.subjects[0].data[:, 2:], 0.0)

    def test_default_dimensions(self):
        cfg = SynthConfig()
        assert cfg.n_timepoints == 80
        ds, _ = generate(cfg)
        assert ds.subjects[0].data.shape == (80, 50)
        assert ds.n_subjects == 6


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("subjects", 1),
        ("classes", 1),
        ("instances_per_class", 0),
        ("instance_length", 0),
        ("voxels", 1),            # fewer voxels than classes
        ("noise_sigma", -0.5),
        ("rotation", "random"),
        ("seed", -1),
    ])
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError):
            SynthConfig(**{**asdict(SMALL), field: value})


class TestRecovery:
    def test_identity_rotation_zero_noise_gives_identical_subjects(self):
        cfg = SynthConfig(**{**asdict(SMALL), "rotation": "identity",
                             "noise_sigma": 0.0})
        ds, _ = generate(cfg)
        zs = [s.data[:, :2] for s in ds.subjects]
        assert rho1(zs).mean == pytest.approx(1.0, abs=1e-12)

    def test_alignment_recovers_rotated_zero_noise_structure(self):
        cfg = SynthConfig(subjects=4, classes=3, instances_per_class=3,
                          instance_length=4, voxels=15, noise_sigma=0.0, seed=2)
        ds, _ = generate(cfg)
        raw = correlation_report([s.data for s in ds.subjects], ds.labels)
        norm = normalize(ds)
        model = fit_sha(norm, kernels_for(norm))
        mapped = correlation_report(map_dataset(model, norm), norm.labels)
        assert abs(raw.rho2.mean) < 0.35       # random rotations decorrelate
        assert mapped.rho2.mean > 0.99         # alignment restores the match

    def test_low_noise_separates_same_and_different_classes(self):
        cfg = SynthConfig(subjects=4, classes=3, instances_per_class=3,
                          instance_length=4, voxels=15, noise_sigma=0.05, seed=4)
        ds, _ = generate(cfg)
        norm = normalize(ds)
        model = fit_sha(norm, kernels_for(norm))
        mapped = [m.features for m in map_dataset(model, norm)]
        same = rho3(mapped, norm.labels).mean
        different = rho4(mapped, norm.labels).mean
        assert same > 0.9
        assert different < same - 0.5
