"""Dataset containers, CSV/manifest IO, normalization, LOSO splitting."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multialign import (
    AdvisoryWarning,
    Dataset,
    InvalidArgumentError,
    InvalidDataError,
    LabelMatrix,
    SubjectData,
    load_dataset,
    normalize,
    read_matrix_csv,
    save_dataset,
    split_loso,
    truncated_svd,
    write_matrix_csv,
)
from multialign.data import write_json
from conftest import random_dataset


def test_csv_round_trip_bit_identical(tmp_path, rng):
    m = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(back, m)
    write_matrix_csv(path, back)
    assert read_matrix_csv(path).tobytes() == m.tobytes()


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nnot,numbers\n")
    with pytest.raises(InvalidDataError):
        read_matrix_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n\n"])
def test_csv_without_values_refused_without_a_numpy_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDataError, match=re.escape(str(path))):
            read_matrix_csv(path)


def _reference_csv_bytes(m) -> bytes:
    """The per-element formatter ``write_matrix_csv`` used to run: the byte reference."""
    m = np.asarray(m, dtype=float)
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m).encode()


_EDGE_VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5, 1e22,
                1e15, 1e-4, 0.1, 3.0, -7.0, 2.0 ** 53, 1.7976931348623157e308]


class TestWriteMatrixCsv:
    @given(m=hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64]),
        st.one_of(hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  st.tuples(st.just(1), st.integers(1, 12)),
                  st.tuples(st.integers(1, 12), st.just(1)))))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_per_element_reference(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == _reference_csv_bytes(m)

    @given(m=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=st.floats(allow_nan=True, allow_infinity=True)))
    @settings(max_examples=100, deadline=None)
    def test_read_back_round_trip(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, m)
        # repr writes every NaN as "nan", so only a number keeps its sign.
        numbers = ~np.isnan(m)
        np.testing.assert_array_equal(np.signbit(back[numbers]), np.signbit(m[numbers]))

    @pytest.mark.parametrize("shape", [(1, len(_EDGE_VALUES)), (len(_EDGE_VALUES), 1)])
    def test_edge_values(self, tmp_path, shape):
        m = np.array(_EDGE_VALUES).reshape(shape)
        path = tmp_path / "edge.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == _reference_csv_bytes(m)
        assert read_matrix_csv(path).tobytes() == m.tobytes()

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (3, 0), (0, 3), (0, 0)])
    def test_non_matrix_refused_before_the_file_is_opened(self, tmp_path, shape):
        path = tmp_path / "m.csv"
        with pytest.raises(InvalidDataError, match=re.escape(str(shape))):
            write_matrix_csv(path, np.zeros(shape))
        assert not path.exists()


def test_write_json_bytes_equal_streamed_dump(tmp_path):
    payload = {"b": [1.5, -0.0, 1e22, None, True], "a": {"z": "\u00e9", "y": []},
               "c": [[0.1, 2.0], [3, 5e-324]]}
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_bytes() == reference.read_bytes()


class TestLabelMatrix:
    def test_rejects_non_binary(self):
        with pytest.raises(InvalidDataError):
            LabelMatrix(np.array([[0.5, 1.0], [0.5, 0.0]]))

    def test_rejects_multi_hot_column(self):
        with pytest.raises(InvalidDataError):
            LabelMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_single_class(self):
        with pytest.raises(InvalidDataError):
            LabelMatrix(np.ones((1, 4)))

    def test_rest_columns_allowed_and_tracked(self):
        onehot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        lab = LabelMatrix(onehot)
        np.testing.assert_array_equal(lab.labeled_indices, [0, 2])
        np.testing.assert_array_equal(lab.class_of(), [0, -1, 1])


class TestDatasetValidation:
    def test_shape_mismatch_names_subject(self, rng):
        lab = LabelMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        good = SubjectData("a", rng.standard_normal((3, 4)))
        bad = SubjectData("b", rng.standard_normal((3, 5)))
        with pytest.raises(InvalidDataError, match="'b'"):
            Dataset((good, bad), (lab, lab), ("x", "y"))

    def test_label_length_mismatch(self, rng):
        lab = LabelMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        subj = SubjectData("a", rng.standard_normal((3, 4)))
        with pytest.raises(InvalidDataError):
            Dataset((subj,), (lab,), ("x", "y"))

    def test_rest_mask_must_be_shared(self, rng):
        l1 = LabelMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        l2 = LabelMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        subs = tuple(SubjectData(s, rng.standard_normal((3, 4))) for s in "ab")
        with pytest.raises(InvalidDataError, match="labeled"):
            Dataset(subs, (l1, l2), ("x", "y"))

    def test_duplicate_subject_ids_rejected(self, rng):
        lab = LabelMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        subs = tuple(SubjectData("a", rng.standard_normal((2, 3))) for _ in range(2))
        with pytest.raises(InvalidDataError):
            Dataset(subs, (lab, lab), ("x", "y"))


class TestManifestIO:
    def test_save_load_round_trip(self, tmp_path, rng):
        ds = random_dataset(rng, 3, 10, 6, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        back = load_dataset(manifest)
        assert back.subject_ids == ds.subject_ids
        assert back.class_names == ds.class_names
        for a, b in zip(back.subjects, ds.subjects):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(back.labels, ds.labels):
            np.testing.assert_array_equal(a.onehot, b.onehot)

    def test_missing_manifest_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.json")

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(InvalidDataError):
            load_dataset(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"subjects": []}))
        with pytest.raises(InvalidDataError):
            load_dataset(path)

    def test_strict_mode_rejects_differing_labels(self, tmp_path, rng):
        ds = random_dataset(rng, 2, 8, 4, 2)
        # permute classes in the second subject's labels
        flipped = ds.labels[1].onehot[::-1].copy()
        ds = Dataset(ds.subjects, (ds.labels[0], LabelMatrix(flipped)), ds.class_names)
        manifest = save_dataset(ds, tmp_path / "d")
        with pytest.raises(InvalidDataError, match="strict"):
            load_dataset(manifest)
        loose = load_dataset(manifest, strict_labels=False)
        assert not loose.labels_identical()

    def test_realistic_dimensions_accepted(self, tmp_path, rng):
        # 6 subjects, 121 time points, 1963 voxels, 8 classes
        t, v, l, s = 121, 1963, 8, 6
        classes = np.arange(t) % l
        onehot = np.zeros((l, t))
        onehot[classes, np.arange(t)] = 1.0
        lab = LabelMatrix(onehot)
        # quantized values keep the CSV small and the round trip exact
        subs = tuple(
            SubjectData(f"s{i}", rng.integers(-8, 9, size=(t, v)) / 4.0)
            for i in range(s)
        )
        ds = Dataset(subs, tuple(lab for _ in subs), tuple(f"c{m}" for m in range(l)))
        manifest = save_dataset(ds, tmp_path / "big")
        back = load_dataset(manifest)
        assert back.n_subjects == s and back.n_timepoints == t
        assert back.n_voxels == v and back.n_classes == l
        np.testing.assert_array_equal(back.subjects[0].data, subs[0].data)


class TestNormalize:
    def test_columns_standardized(self, rng):
        ds = random_dataset(rng, 2, 30, 5, 2)
        out = normalize(ds)
        for subj in out.subjects:
            np.testing.assert_allclose(subj.data.mean(axis=0), 0.0, atol=1e-8)
            np.testing.assert_allclose(subj.data.var(axis=0, ddof=1), 1.0, atol=1e-6)

    def test_constant_column_zeroed_with_advisory(self):
        data = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]])
        lab = LabelMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        ds = Dataset((SubjectData("a", data),), (lab,), ("x", "y"))
        out = normalize(ds)
        np.testing.assert_array_equal(out.subjects[0].data[:, 0], 0.0)
        assert out.subjects[0].zeroed_columns == (0,)

    def test_idempotent(self, rng):
        ds = random_dataset(rng, 2, 20, 6, 2)
        once = normalize(ds)
        twice = normalize(once)
        for a, b in zip(once.subjects, twice.subjects):
            np.testing.assert_allclose(a.data, b.data, atol=1e-8)

    def test_scaling_a_subject_is_absorbed(self, rng):
        ds = random_dataset(rng, 2, 20, 6, 2)
        scaled = Dataset(
            (SubjectData("s0", ds.subjects[0].data * 37.5), ds.subjects[1]),
            ds.labels, ds.class_names,
        )
        a = normalize(ds).subjects[0].data
        b = normalize(scaled).subjects[0].data
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestSplitLoso:
    def test_partition(self, rng):
        ds = random_dataset(rng, 4, 12, 5, 3)
        train, test = split_loso(ds, 2)
        assert train.subject_ids == ("s0", "s1", "s3")
        assert test.subject_ids == ("s2",)
        assert train.n_subjects + test.n_subjects == ds.n_subjects

    def test_two_subject_split_warns(self, rng):
        ds = random_dataset(rng, 2, 10, 4, 2)
        with pytest.warns(AdvisoryWarning):
            train, _ = split_loso(ds, 0)
        assert train.n_subjects == 1

    def test_bad_index_rejected(self, rng):
        ds = random_dataset(rng, 3, 10, 4, 2)
        with pytest.raises(InvalidArgumentError):
            split_loso(ds, 3)
        with pytest.raises(InvalidArgumentError):
            split_loso(ds, -1)


class TestThinSvdMemo:
    def test_factors_each_matrix_once(self, rng):
        subj = random_dataset(rng, 1, 12, 5, 2).subjects[0]
        rows = np.arange(2, 12)
        plain = subj.thin_svd(rows)
        assert subj.thin_svd(rows.copy()) is plain
        want = truncated_svd(subj.data[rows], 5)
        np.testing.assert_array_equal(plain.left, want.left)
        np.testing.assert_array_equal(plain.singular_values, want.singular_values)
        assert subj.thin_svd(np.arange(12)) is not plain

    def test_memo_invisible_to_equality_hash_and_repr(self, rng):
        subj = random_dataset(rng, 1, 12, 5, 2).subjects[0]
        twin = SubjectData(subj.subject_id, subj.data, subj.zeroed_columns)
        before = repr(subj)
        subj.thin_svd(np.arange(12))
        assert repr(subj) == before == repr(twin)
        assert subj == twin and twin == subj
        memo = next(f for f in dataclasses.fields(SubjectData) if f.name == "_svds")
        assert not memo.compare and not memo.repr and not memo.hash

    def test_new_subjects_start_empty(self, rng):
        ds = random_dataset(rng, 2, 12, 5, 2)
        subj = ds.subjects[0]
        subj.thin_svd(np.arange(12))
        subj.thin_svd(np.arange(4))
        assert len(subj._svds) == 2
        for fresh in (dataclasses.replace(subj), normalize(ds).subjects[0]):
            assert fresh._svds == {}

    def test_normalized_data_is_read_only(self, rng):
        subj = normalize(random_dataset(rng, 1, 12, 5, 2)).subjects[0]
        with pytest.raises(ValueError):
            subj.data[0, 0] = 1.0

    def test_writable_input_is_copied_read_only(self, rng):
        data = rng.standard_normal((6, 3))
        subj = SubjectData("a", data)
        assert subj.data is not data and not subj.data.flags.writeable
        data[0, 0] = 99.0
        assert subj.data[0, 0] != 99.0
        assert SubjectData("b", subj.data).data is subj.data  # read-only: shared


class TestManifestTypes:
    """Wrong-typed manifest entries are data errors, not Python type errors."""

    @pytest.mark.parametrize("manifest", [
        {"class_names": ["a", "b"], "subjects": 5},
        {"class_names": ["a", "b"], "subjects": [5]},
        {"class_names": ["a", "b"],
         "subjects": [{"id": "s0", "data": 3, "labels": "s0_labels.csv"}]},
        {"class_names": ["a", "b"],
         "subjects": [{"id": "s0", "data": "s0_data.csv", "labels": None}]},
        {"class_names": 5, "subjects": [{"id": "s0", "data": "x", "labels": "y"}]},
    ], ids=["subjects-int", "subject-entry-int", "data-int", "labels-null",
            "class-names-int"])
    def test_rejected_as_invalid_data(self, tmp_path, manifest):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(InvalidDataError):
            load_dataset(path)

    def test_non_utf8_manifest_rejected_as_invalid_data(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"class_names": ["\xff"]}')
        with pytest.raises(InvalidDataError):
            load_dataset(path)
