"""Dataset containers, CSV/manifest IO, normalization."""

import bz2
import dataclasses
import functools
import gzip
import hashlib
import json
import lzma
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import multialign.data
from multialign import (
    Dataset,
    InvalidDataError,
    LabelMatrix,
    SubjectData,
    SynthConfig,
    generate,
    gram_svd,
    load_dataset,
    normalize,
    read_matrix_csv,
    save_dataset,
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


@pytest.mark.parametrize("suffix, opener", [
    (".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open),
    (".lzma", functools.partial(lzma.open, format=lzma.FORMAT_ALONE)),
], ids=lambda v: v if isinstance(v, str) else None)
def test_csv_compressed_names_still_load(tmp_path, suffix, opener):
    path = tmp_path / f"m.csv{suffix}"
    with opener(path, "wt") as fh:
        fh.write("1.0,2.5\n-3.0,4.0\n")
    for name in (path, str(path)):
        np.testing.assert_array_equal(read_matrix_csv(name), [[1.0, 2.5], [-3.0, 4.0]])


def _reference_csv_bytes(m) -> bytes:
    """The per-element formatter ``write_matrix_csv`` used to run: the byte reference."""
    m = np.asarray(m, dtype=float)
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m).encode()


_EDGE_VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5, 1e22,
                1e15, 1e-4, 0.1, 3.0, -7.0, 2.0 ** 53, 1.7976931348623157e308,
                # The block formatter's decision edges: both sides of its
                # range, the doubles below 1, 0.1 and 1e-3 (all nines up to
                # a new decade), a power of two, an integral 15-digit value,
                # a half above 1e15, a tie at 17 digits and a repr of 24
                # characters.
                np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
                np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
                np.nextafter(1.0, 0.0), np.nextafter(0.1, 0.0), -np.nextafter(1e-3, 0.0),
                2.0 ** -14, 0.1, 123456789012345.0, 1e15 + 0.5, 220637527.521484375,
                -2.2250738585072014e-308]


def _bulk_values(rng) -> np.ndarray:
    """About a million seeded floats aimed at the block formatter's edges.

    Uniform bit patterns across the exponents it formats itself, 3000 ulps
    on each side of every power of ten from 1e-6 to 1e17 and of two from
    2**-16 to 2**55, and short decimals ``k / 10**j``; signs at random.
    """
    n = 400_000
    biased = rng.integers(1023 - 15, 1023 + 54, n).astype(np.uint64)
    patterns = (biased << np.uint64(52)) | rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    ulps = np.arange(-3000, 3001)
    centres = np.array([float(f"1e{p}") for p in range(-6, 18)]
                       + [2.0 ** p for p in range(-16, 56)])
    around = (centres.view(np.int64)[:, None] + ulps).ravel().view(np.float64)
    m = 29_904  # brings the total to 1,006,000 values, 4,024 rows of 250
    short = rng.integers(0, 10 ** 9, m) / 10.0 ** rng.integers(0, 12, m)
    values = np.concatenate([patterns.view(np.float64), around, short])
    return np.where(rng.integers(0, 2, values.size) == 1, -values, values)


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

    @given(m=hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                        elements=st.integers(0, 2 ** 64 - 1)).map(lambda a: a.view(np.float64)))
    @settings(max_examples=200, deadline=None)
    def test_raw_bit_patterns_equal_the_reference(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == _reference_csv_bytes(m)

    @given(m=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                        elements=st.floats(width=64)))
    @settings(max_examples=200, deadline=None)
    def test_drawn_floats_equal_the_reference(self, tmp_path_factory, m):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == _reference_csv_bytes(m)

    @pytest.mark.parametrize("shape", [
        (5, multialign.data._CSV_BLOCK // 3 + 7),   # blocks of two rows, then one
        (multialign.data._CSV_BLOCK // 5 + 3, 5),   # blocks of whole short rows
        (2, multialign.data._CSV_BLOCK * 2 + 5),    # each row longer than a block
    ])
    def test_blocks_join_into_the_reference(self, tmp_path, rng, shape):
        m = rng.choice(np.array(_EDGE_VALUES), size=shape)
        drawn = rng.random(shape) < 0.5
        m[drawn] = rng.standard_normal(np.count_nonzero(drawn))
        path = tmp_path / "m.csv"
        digest = hashlib.sha256()
        write_matrix_csv(path, m, sha256=digest)
        assert path.read_bytes() == _reference_csv_bytes(m)
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    @given(block=st.sampled_from([7, 250, 4096]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_straddling_smaller_blocks_equal_the_reference(self, tmp_path_factory,
                                                                block, data):
        # The writers read _CSV_BLOCK when called: at small sizes the drawn
        # rows are longer than a block (CSV) or run across block ends (JSON).
        cols = data.draw(st.integers(1, 2 * block + 3), label="cols")
        rows = data.draw(st.integers(1, 3 * block // cols + 2), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        m = rng.choice(np.array(_EDGE_VALUES), size=(rows, cols))
        drawn = ~np.isfinite(m) | (rng.random(m.shape) < 0.5)
        m[drawn] = rng.standard_normal(np.count_nonzero(drawn)) * 10.0 ** rng.integers(
            -6, 18, np.count_nonzero(drawn))
        directory = tmp_path_factory.mktemp("blocks")
        digest = hashlib.sha256()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multialign.data, "_CSV_BLOCK", block)
            write_matrix_csv(directory / "m.csv", m, sha256=digest)
            write_json(directory / "m.json", m)
            write_json(directory / "row.json", m[0])
        reference = _reference_csv_bytes(m)
        assert (directory / "m.csv").read_bytes() == reference
        assert digest.hexdigest() == hashlib.sha256(reference).hexdigest()
        for name, a in (("m.json", m), ("row.json", m[0])):
            assert (directory / name).read_bytes() == (
                json.dumps(a.tolist(), indent=2) + "\n").encode()

    @pytest.mark.parametrize("layout", ["fortran", "strided", "big-endian", "float32", "int64"])
    def test_any_layout_or_dtype_equals_the_reference(self, tmp_path, rng, layout):
        base = rng.standard_normal((30, 40)) * 10.0 ** rng.integers(-6, 18, (30, 40))
        m = {"fortran": np.asfortranarray(base), "strided": base[::3, ::2],
             "big-endian": base.astype(">f8"), "float32": base.astype(np.float32),
             "int64": (base * 1e3).clip(-2 ** 62, 2 ** 62).astype(np.int64)}[layout]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == _reference_csv_bytes(m)

    def test_edge_values_raise_no_numeric_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_matrix_csv(tmp_path / "edge.csv", np.array([_EDGE_VALUES, _EDGE_VALUES[::-1]]))

    def test_a_million_seeded_edge_values_equal_the_reference(self, tmp_path):
        m = _bulk_values(np.random.default_rng(20180618)).reshape(-1, 250)
        path = tmp_path / "bulk.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == _reference_csv_bytes(m)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (3, 0), (0, 3), (0, 0)])
    def test_non_matrix_refused_before_the_file_is_opened(self, tmp_path, shape):
        path = tmp_path / "m.csv"
        with pytest.raises(InvalidDataError, match=re.escape(str(shape))):
            write_matrix_csv(path, np.zeros(shape))
        assert not path.exists()


def _listed(value):
    """``value`` with every numpy array in it replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_listed(item) for item in value]
    return value


def _assert_bytes_equal_streamed_dump(directory, payload):
    reference = directory / "reference.json"
    with open(reference, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_listed(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_json(directory / "out.json", payload)
    assert (directory / "out.json").read_bytes() == reference.read_bytes()


# Floats whose JSON text is hard to get right: the formatter's edges, powers
# of two, integral values, and any double (NaN and infinities included).
_JSON_FLOATS = st.one_of(st.sampled_from(_EDGE_VALUES),
                         st.integers(-1074, 1023).map(lambda e: 2.0 ** e),
                         st.integers(-2 ** 53, 2 ** 53).map(float),
                         st.floats(width=64))
_JSON_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                      max_side=4), elements=_JSON_FLOATS)
_JSON_PAYLOADS = st.recursive(
    st.one_of(_JSON_ARRAYS, st.none(), st.booleans(), st.integers(), _JSON_FLOATS,
              st.text(max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)


def test_write_json_bytes_equal_streamed_dump(tmp_path):
    payloads = [
        {"b": [1.5, -0.0, 1e22, None, True], "a": {"z": "\u00e9", "y": []},
         "c": [[0.1, 2.0], [3, 5e-324]]},
        np.arange(24.0).reshape(2, 3, 4) / 7,
        {"r": [np.full((2, 1, 1), -0.0), {"s": np.array([1e-6, 1e6])}], "t": "x"},
        # A key that reads as the writer's stand-in for an array: every
        # array goes to json as a list instead.
        {multialign.data._ARRAY_MARK: np.ones((2, 2)), "a": [np.eye(2)]},
        # Arrays json spells otherwise than repr, or that have no values.
        {"ints": np.arange(3), "nan": np.array([[np.nan, 1.0]]), "empty": np.zeros((2, 0))},
    ]
    for i, payload in enumerate(payloads):
        directory = tmp_path / str(i)
        directory.mkdir()
        _assert_bytes_equal_streamed_dump(directory, payload)


@given(drawn=_JSON_PAYLOADS, a=_JSON_ARRAYS, b=_JSON_ARRAYS, c=_JSON_ARRAYS)
@settings(max_examples=200, deadline=None)
def test_write_json_with_drawn_arrays_bytes_equal_streamed_dump(tmp_path_factory, drawn,
                                                                a, b, c):
    # Arrays at every depth: at the root, in a dict, in a list, in a dict
    # in a list, and wherever the drawn payload puts them.
    directory = tmp_path_factory.mktemp("json")
    _assert_bytes_equal_streamed_dump(directory, a)
    _assert_bytes_equal_streamed_dump(directory, {
        "top": a, "list": [b, 1.5, "text", {"inner": c, "none": None}], "drawn": drawn})


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

    def test_arrays_are_read_only(self):
        lab = LabelMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        for a in (lab.onehot, lab.labeled_mask, lab.labeled_indices, lab.class_of()):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_writable_input_is_copied_read_only(self):
        onehot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        lab = LabelMatrix(onehot)
        assert lab.onehot is not onehot and onehot.flags.writeable
        onehot[:, 0] = 0.0
        onehot[0, 1] = 1.0
        np.testing.assert_array_equal(lab.onehot, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(lab.class_of(), [0, -1, 1])
        assert LabelMatrix(lab.onehot).onehot is lab.onehot  # read-only: shared

    def test_replace_derives_the_layout_anew(self):
        lab = LabelMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        moved = dataclasses.replace(lab, onehot=np.array([[0.0, 1.0, 0.0],
                                                          [1.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(moved.labeled_mask, [True, True, False])
        np.testing.assert_array_equal(moved.labeled_indices, [0, 1])
        np.testing.assert_array_equal(moved.class_of(), [1, 0, -1])
        np.testing.assert_array_equal(lab.class_of(), [0, -1, 1])

    def test_layout_invisible_to_repr(self):
        lab = LabelMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert repr(lab) == f"LabelMatrix(onehot={lab.onehot!r})"


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


class TestSubjectIds:
    """A subject id names its files, so it must stay one plain file name part."""

    @pytest.mark.parametrize("subject_id", ["", ".", "..", "a/b", "../escaped", "a\\b",
                                            "a\0b", "/abs"])
    def test_refused(self, rng, subject_id):
        with pytest.raises(InvalidDataError, match="cannot name a file"):
            SubjectData(subject_id, rng.standard_normal((3, 2)))

    @pytest.mark.parametrize("subject_id", ["sub-01", "sub.01", "...", "..a", " s ", "é"])
    def test_accepted(self, rng, subject_id):
        assert SubjectData(subject_id, rng.standard_normal((3, 2))).subject_id == subject_id

    def test_no_dataset_can_save_outside_its_directory(self, tmp_path, rng):
        ds = random_dataset(rng, 2, 6, 3, 2)
        with pytest.raises(InvalidDataError):
            dataclasses.replace(ds.subjects[0], subject_id="../escaped")
        save_dataset(ds, tmp_path / "out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


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


def _reference_normalize(m):
    """Column standardization as the textbook formula writes it."""
    std = m.std(axis=0, ddof=1)
    constant = std <= 1e-12
    out = (m - m.mean(axis=0)) / np.where(constant, 1.0, std)
    out[:, constant] = 0.0
    return out, tuple(int(i) for i in np.flatnonzero(constant))


@st.composite
def _normalize_inputs(draw):
    """A (T x V) matrix, T >= 2, with some columns constant and some offset."""
    t = draw(st.integers(2, 9))
    v = draw(st.integers(1, 5))
    m = draw(hnp.arrays(np.float64, (t, v),
                        elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    constant = draw(hnp.arrays(bool, v))
    m[:, constant] = m[0, constant]
    offsets = draw(hnp.arrays(np.float64, v, elements=st.sampled_from([0.0, 1e8, -1e8])))
    return m + offsets


class TestNormalizeMatchesTheFormula:
    @pytest.mark.parametrize("m", [
        np.array([[1.0, 5.0], [3.0, 5.0]]),                  # T = 2, a constant column
        np.array([[1e8, 0.1], [1e8 + 1.0, 0.2], [1e8 + 3.0, 0.4]]),
        np.array([[1e8, 7.0], [1e8, 7.0], [1e8, 7.0]]),      # every column constant
    ])
    def test_bit_for_bit_on_edge_cases(self, m):
        self._check(m)

    @given(m=_normalize_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit(self, m):
        self._check(m)

    @staticmethod
    def _check(m):
        lab = LabelMatrix(np.zeros((2, m.shape[0])))
        subj = normalize(Dataset((SubjectData("a", m),), (lab,), ("x", "y"))).subjects[0]
        want, zeroed = _reference_normalize(m)
        assert subj.data.tobytes() == want.tobytes()
        assert subj.zeroed_columns == zeroed
        assert not subj.data.flags.writeable


def _same_svd(a, b) -> bool:
    return (a.left.tobytes() == b.left.tobytes()
            and a.singular_values.tobytes() == b.singular_values.tobytes()
            and a.rank_deficient == b.rank_deficient)


class TestThinSvdPath:
    """A row set goes through the Gram matrix only when that is certified."""

    def test_normalized_wide_subjects_take_the_gram_path(self):
        config = SynthConfig(subjects=3, classes=4, instances_per_class=2,
                             instance_length=4, voxels=128, seed=5)
        dataset = normalize(generate(config)[0])
        rows = dataset.labels[0].labeled_indices
        for subject in dataset.subjects:
            m = subject.data[rows]
            assert m.shape == (32, 128)
            got = subject.thin_svd(rows)
            assert _same_svd(got, gram_svd(m))
            # Centered over these rows: the one zero is the centering null.
            assert got.singular_values[-1] == 0.0 and got.rank_deficient

    def test_normalized_tall_subjects_take_the_gram_path(self):
        config = SynthConfig(subjects=3, classes=4, instances_per_class=2,
                             instance_length=4, voxels=12, seed=5)
        dataset = normalize(generate(config)[0])
        rows = dataset.labels[0].labeled_indices
        for subject in dataset.subjects:
            m = subject.data[rows]
            assert m.shape == (32, 12)
            want = gram_svd(m)
            assert want is not None
            got = subject.thin_svd(rows)
            assert _same_svd(got, want)
            assert got.singular_values[-1] > 0.0 and not got.rank_deficient

    @settings(max_examples=100, deadline=None)
    @given(rank=st.integers(2, 12), extra=st.integers(1, 40), decades=st.floats(4.0, 6.5),
           tall=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_an_unresolved_spectrum_gets_the_exact_svd(self, rank, extra, decades, tall, seed):
        # A smallest singular value 1e-4 to 1e-6.5 of the largest puts its
        # eigenvalue between the Gram matrix's resolution and 1e8 times it
        # (or, for a tall matrix, below its resolution: a zero it refuses).
        rng = np.random.default_rng(seed)
        left = np.linalg.qr(rng.standard_normal((rank, rank)))[0]
        right = np.linalg.qr(rng.standard_normal((rank + extra, rank)))[0]
        s = np.linspace(1.0, 0.5, rank)
        s[-1] = 10.0 ** -decades
        m = (left * s) @ right.T
        if tall:
            m = m.T
        assert gram_svd(m) is None
        got = SubjectData("a", m).thin_svd(np.arange(len(m)))
        assert _same_svd(got, truncated_svd(m, rank))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(2, 12), extra=st.integers(1, 40), centered=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_a_duplicated_time_point_gets_the_exact_svd(self, rows, extra, centered, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, rows + extra)) + 1.0
        m[-1] = m[0]  # a zero along e_0 - e_last, not the centering null
        if centered:
            m = m - m.mean(axis=0)  # and the all-ones direction a second zero
        assert gram_svd(m) is None
        got = SubjectData("a", m).thin_svd(np.arange(rows))
        assert _same_svd(got, truncated_svd(m, rows))
        assert got.rank_deficient

    @settings(max_examples=100, deadline=None)
    @given(cols=st.integers(2, 12), extra=st.integers(1, 40), zeroed=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_a_zeroed_or_duplicated_voxel_gets_the_exact_svd(self, cols, extra, zeroed, seed):
        # A tall matrix has no centering exception: any zero is refused.
        rng = np.random.default_rng(seed)
        m = np.array(multialign.data._normalize_columns(
            rng.standard_normal((cols + extra, cols)))[0])
        m[:, -1] = 0.0 if zeroed else m[:, 0]
        assert gram_svd(m) is None
        got = SubjectData("a", m).thin_svd(np.arange(len(m)))
        assert _same_svd(got, truncated_svd(m, cols))
        assert got.rank_deficient

    @settings(max_examples=40, deadline=None)
    @given(cols=st.integers(1, 12), extra=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_a_tall_row_set_takes_the_gram_path_when_certified(self, cols, extra, seed):
        m = multialign.data._normalize_columns(
            np.random.default_rng(seed).standard_normal((cols + extra, cols)))[0]
        got = SubjectData("a", m).thin_svd(np.arange(len(m)))
        certified = gram_svd(m)
        assert _same_svd(got, truncated_svd(m, cols) if certified is None else certified)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(3, 12), duplicated=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_a_square_row_set_takes_the_gram_path_when_certified(self, size, duplicated, seed):
        m = np.random.default_rng(seed).standard_normal((size, size))
        if duplicated:
            m[-1] = m[0]  # a zero beside the centering null: never certified
        m = multialign.data._normalize_columns(m)[0]
        got = SubjectData("a", m).thin_svd(np.arange(size))
        certified = gram_svd(m)
        assert certified is None or not duplicated
        assert _same_svd(got, truncated_svd(m, size) if certified is None else certified)

    @pytest.mark.parametrize("rows", [
        np.array([True, False, True, True]),  # a mask, not the indices 0 and 1
        [0.7, 2.2],  # fractions numpy would truncate
        [-1, 2],  # -1 is the last row to numpy
        [2, 1],
        [1, 1, 3],
    ], ids=["mask", "fractions", "negative", "decreasing", "repeated"])
    def test_rows_that_are_not_increasing_indices_are_refused(self, rng, rows):
        subj = random_dataset(rng, 1, 4, 6, 2).subjects[0]
        with pytest.raises(InvalidDataError, match="the factored rows"):
            subj.thin_svd(rows)
        assert subj._svds == {}

    def test_whole_floats_are_the_same_rows(self, rng):
        subj = random_dataset(rng, 1, 4, 6, 2).subjects[0]
        assert _same_svd(subj.thin_svd([0.0, 2.0, 3.0]), subj.thin_svd(np.array([0, 2, 3])))

    def test_a_mask_never_reads_the_memo_of_its_indices(self, rng):
        subj = random_dataset(rng, 1, 4, 6, 2).subjects[0]
        subj.thin_svd(np.array([0, 1]))
        with pytest.raises(InvalidDataError):
            subj.thin_svd(np.array([False, True]))  # 0 and 1 as integers
        with pytest.raises(InvalidDataError):
            subj.thin_svd(np.array([[0], [1]]))  # the same bytes, another shape


class TestThinSvdMemo:
    def test_factors_each_matrix_once(self, rng):
        subj = random_dataset(rng, 1, 12, 5, 2).subjects[0]
        rows = np.arange(2, 12)
        plain = subj.thin_svd(rows)
        assert subj.thin_svd(rows.copy()) is plain
        want = gram_svd(subj.data[rows])  # tall, and certified
        assert want is not None and _same_svd(plain, want)
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

    @pytest.mark.parametrize("subject_id", [None, 3, ["s"], True],
                             ids=["null", "number", "list", "true"])
    def test_non_string_id_rejected(self, tmp_path, rng, subject_id):
        # Cast to text it would load, and name z_<id>.csv files.
        manifest = save_dataset(random_dataset(rng, 2, 6, 3, 2), tmp_path / "d")
        meta = json.loads(manifest.read_text())
        meta["subjects"][0]["id"] = subject_id
        manifest.write_text(json.dumps(meta))
        with pytest.raises(InvalidDataError, match="subject entry 'id' must be a string"):
            load_dataset(manifest)

    def test_non_utf8_manifest_rejected_as_invalid_data(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"class_names": ["\xff"]}')
        with pytest.raises(InvalidDataError):
            load_dataset(path)


def _two_class_labels(t: int) -> LabelMatrix:
    onehot = np.zeros((2, t))
    onehot[np.arange(t) % 2, np.arange(t)] = 1.0
    return LabelMatrix(onehot)


def _dataset_of(stack: np.ndarray) -> Dataset:
    lab = _two_class_labels(stack.shape[1])
    subjects = tuple(SubjectData(f"s{i}", m) for i, m in enumerate(stack))
    return Dataset(subjects, tuple(lab for _ in subjects), ("x", "y"))


def _counted_csv_reads(monkeypatch) -> list:
    """Record every path handed to the CSV parser from now on."""
    paths = []
    parse = multialign.data.read_matrix_csv

    def counted(path):
        paths.append(Path(path).name)
        return parse(path)

    monkeypatch.setattr(multialign.data, "read_matrix_csv", counted)
    return paths


def _twin_path(manifest: Path) -> Path:
    """The one binary twin ``save_dataset`` wrote beside ``manifest``."""
    (path,) = manifest.parent.glob("data-*.npy")
    return path


# Values whose text form is delicate: signed zero, subnormals, the extremes,
# and magnitudes around 1e16, where repr switches to exponent notation.
_TWIN_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
               9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16, 0.1]


class TestDataTwin:
    """The binary twin stands in for parsing the data CSVs, and changes nothing."""

    @given(stack=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(2, 5), st.integers(1, 5)),
        elements=st.one_of(st.sampled_from(_TWIN_EDGES),
                           st.floats(allow_nan=False, allow_infinity=False))))
    @settings(max_examples=60, deadline=None)
    def test_twin_loads_the_bits_the_csvs_parse_to(self, tmp_path_factory, stack):
        manifest = save_dataset(_dataset_of(stack), tmp_path_factory.mktemp("twin"))
        with pytest.MonkeyPatch.context() as patch:
            parsed = _counted_csv_reads(patch)
            with_twin = load_dataset(manifest)
        assert not any(name.endswith("_data.csv") for name in parsed)
        _twin_path(manifest).unlink()
        without = load_dataset(manifest)
        for a, b, m in zip(with_twin.subjects, without.subjects, stack):
            assert a.data.tobytes() == b.data.tobytes() == m.tobytes()
            assert not a.data.flags.writeable

    def test_twin_is_named_after_the_ordered_digests_and_written_before_the_manifest(
            self, tmp_path, rng, monkeypatch):
        ds = random_dataset(rng, 3, 10, 6, 2)
        write = multialign.data.write_json

        def write_after_twin(path, payload):
            assert len(list((tmp_path / "d").glob("data-*.npy"))) == 1
            write(path, payload)

        monkeypatch.setattr(multialign.data, "write_json", write_after_twin)
        manifest = save_dataset(ds, tmp_path / "d")
        payload = json.loads(manifest.read_text())
        assert sorted(payload) == ["class_names", "subjects"]
        digests = []
        for entry in payload["subjects"]:
            csv = (tmp_path / "d" / entry["data"]).read_bytes()
            assert entry["data_sha256"] == hashlib.sha256(csv).hexdigest()
            assert "labels_sha256" not in entry
            digests.append(entry["data_sha256"])
        joined = hashlib.sha256("".join(digests).encode()).hexdigest()
        assert _twin_path(manifest).name == f"data-{joined}.npy"
        twin = np.load(_twin_path(manifest), allow_pickle=False)
        assert twin.tobytes() == np.stack([s.data for s in ds.subjects]).tobytes()
        assert [p.name for p in (tmp_path / "d").iterdir() if p.suffix == ".npy"] \
            == [_twin_path(manifest).name]

    def test_edited_csv_is_parsed_and_the_rest_come_from_the_twin(self, tmp_path, rng,
                                                                  monkeypatch):
        ds = random_dataset(rng, 3, 8, 4, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        edited = np.array(ds.subjects[1].data)
        edited[2, 3] = 1234.5
        write_matrix_csv(tmp_path / "d" / "s1_data.csv", edited)
        parsed = _counted_csv_reads(monkeypatch)
        back = load_dataset(manifest)
        assert [n for n in parsed if n.endswith("_data.csv")] == ["s1_data.csv"]
        assert back.subjects[1].data.tobytes() == edited.tobytes()
        for i in (0, 2):
            assert back.subjects[i].data.tobytes() == ds.subjects[i].data.tobytes()

    @pytest.mark.parametrize("spoil", [
        "missing", "truncated", "garbage", "directory", "extra-row", "extra-column",
        "fewer-subjects", "2-D", "float32", "big-endian", "object", "npz",
    ])
    def test_unusable_twin_is_ignored(self, tmp_path, rng, spoil):
        ds = random_dataset(rng, 3, 8, 4, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        path = _twin_path(manifest)
        stack = np.stack([s.data for s in ds.subjects])
        path.unlink()
        if spoil == "truncated":
            np.save(path, stack)
            path.write_bytes(path.read_bytes()[:-8])
        elif spoil == "garbage":
            path.write_bytes(b"not an array\n")
        elif spoil == "directory":
            path.mkdir()
        elif spoil == "object":
            np.save(path, np.array([None, 1.0], dtype=object), allow_pickle=True)
        elif spoil == "npz":
            with open(path, "wb") as fh:
                np.savez(fh, stack)
        elif spoil != "missing":
            np.save(path, {
                "extra-row": lambda: np.concatenate([stack, stack[:, :1]], axis=1),
                "extra-column": lambda: np.concatenate([stack, stack[:, :, :1]], axis=2),
                "fewer-subjects": lambda: stack[:2],
                "2-D": lambda: stack.reshape(3, -1),
                "float32": lambda: stack.astype(np.float32),
                "big-endian": lambda: stack.astype(">f8"),
            }[spoil]())
        back = load_dataset(manifest)
        for a, b in zip(back.subjects, ds.subjects):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("edit", ["swap", "splice", "digest"])
    def test_edited_manifest_finds_no_twin(self, tmp_path, rng, monkeypatch, edit):
        """Every subject gets its own CSV's values after the manifest's entries
        are reordered, replaced by one from another dataset (digest included),
        or given another digest, even with a twin of the right shape beside it."""
        ds = random_dataset(rng, 3, 8, 4, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        other = save_dataset(random_dataset(rng, 3, 8, 4, 2), tmp_path / "other")
        payload = json.loads(manifest.read_text())
        if edit == "swap":
            payload["subjects"][0], payload["subjects"][1] = \
                payload["subjects"][1], payload["subjects"][0]
        elif edit == "splice":
            spliced = json.loads(other.read_text())["subjects"][1]
            (tmp_path / "d" / "s1_data.csv").write_bytes(
                (tmp_path / "other" / spliced["data"]).read_bytes())
            payload["subjects"][1] = spliced
        else:
            payload["subjects"][0]["data_sha256"] = "0" * 64
        manifest.write_text(json.dumps(payload))
        expected = {entry["id"]: read_matrix_csv(tmp_path / "d" / entry["data"])
                    for entry in payload["subjects"]}
        parsed = _counted_csv_reads(monkeypatch)
        back = load_dataset(manifest)
        assert sorted(n for n in parsed if n.endswith("_data.csv")) \
            == ["s0_data.csv", "s1_data.csv", "s2_data.csv"]
        for subj in back.subjects:
            assert subj.data.tobytes() == expected[subj.subject_id].tobytes()

    def test_two_manifests_in_one_directory_keep_their_own_twins(self, tmp_path, rng,
                                                                 monkeypatch):
        first = random_dataset(rng, 2, 8, 4, 2)
        second = Dataset(tuple(SubjectData(f"t{i}", -s.data)
                               for i, s in enumerate(first.subjects)),
                         first.labels, first.class_names)
        a = save_dataset(first, tmp_path).rename(tmp_path / "a.json")
        b = save_dataset(second, tmp_path).rename(tmp_path / "b.json")
        assert len(list(tmp_path.glob("data-*.npy"))) == 2
        parsed = _counted_csv_reads(monkeypatch)
        for manifest, ds in ((a, first), (b, second)):
            for x, y in zip(load_dataset(manifest).subjects, ds.subjects):
                assert x.data.tobytes() == y.data.tobytes()
        assert not any(name.endswith("_data.csv") for name in parsed)

    def test_saving_over_a_manifest_removes_the_twin_it_named(self, tmp_path, rng,
                                                              monkeypatch):
        first = random_dataset(rng, 2, 8, 4, 2)
        second = Dataset(tuple(SubjectData(f"t{i}", -s.data)
                               for i, s in enumerate(first.subjects)),
                         first.labels, first.class_names)
        manifest = save_dataset(first, tmp_path)
        kept = tmp_path / "kept.json"
        kept.write_bytes(manifest.read_bytes())
        old_twin = _twin_path(manifest)
        save_dataset(second, tmp_path)
        assert _twin_path(manifest) != old_twin and not old_twin.exists()
        # The second manifest named the removed twin: its CSVs are parsed.
        parsed = _counted_csv_reads(monkeypatch)
        for x, y in zip(load_dataset(kept).subjects, first.subjects):
            assert x.data.tobytes() == y.data.tobytes()
        assert sorted(n for n in parsed if n.endswith("_data.csv")) \
            == ["s0_data.csv", "s1_data.csv"]

    def test_saving_the_same_data_again_keeps_its_twin(self, tmp_path, rng):
        ds = random_dataset(rng, 2, 8, 4, 2)
        twin = _twin_path(save_dataset(ds, tmp_path))
        assert _twin_path(save_dataset(ds, tmp_path)) == twin

    @pytest.mark.parametrize("old", [b"not json", b"[]", b'{"subjects": []}',
                                     b'{"class_names": [], "subjects": [{"id": "s0"}]}'])
    def test_saving_over_a_manifest_that_names_no_twin_removes_nothing(self, tmp_path,
                                                                        rng, old):
        (tmp_path / "data-stale.npy").write_bytes(b"kept")
        (tmp_path / "manifest.json").write_bytes(old)
        save_dataset(random_dataset(rng, 2, 8, 4, 2), tmp_path)
        assert len(list(tmp_path.glob("data-*.npy"))) == 2

    @pytest.mark.parametrize("value", [
        None, 7, "ab" * 31 + "a", "ab" * 32 + "a", "g" * 64, " " + "ab" * 31 + "a",
    ])
    def test_malformed_digest_is_invalid_data(self, tmp_path, rng, value):
        manifest = save_dataset(random_dataset(rng, 2, 8, 4, 2), tmp_path / "d")
        payload = json.loads(manifest.read_text())
        payload["subjects"][1]["data_sha256"] = value
        manifest.write_text(json.dumps(payload))
        with pytest.raises(InvalidDataError, match="data_sha256"):
            load_dataset(manifest)

    def test_upper_case_digest_is_accepted(self, tmp_path, rng, monkeypatch):
        ds = random_dataset(rng, 2, 8, 4, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        payload = json.loads(manifest.read_text())
        for entry in payload["subjects"]:
            entry["data_sha256"] = entry["data_sha256"].upper()
        manifest.write_text(json.dumps(payload))
        parsed = _counted_csv_reads(monkeypatch)
        load_dataset(manifest)
        assert not any(name.endswith("_data.csv") for name in parsed)

    def test_missing_csv_still_fails_with_a_twin(self, tmp_path, rng):
        manifest = save_dataset(random_dataset(rng, 2, 8, 4, 2), tmp_path / "d")
        (tmp_path / "d" / "s1_data.csv").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(manifest)

    @pytest.mark.parametrize("dropped", [slice(None), slice(1, 2)], ids=["all", "one"])
    def test_manifest_without_every_digest_neither_hashes_nor_loads_a_twin(
            self, tmp_path, rng, monkeypatch, dropped):
        ds = random_dataset(rng, 2, 8, 4, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        payload = json.loads(manifest.read_text())
        for entry in payload["subjects"][dropped]:
            del entry["data_sha256"]
        manifest.write_text(json.dumps(payload))

        def refused(*args, **kwargs):
            raise AssertionError("called on a manifest without every digest")

        monkeypatch.setattr(hashlib, "sha256", refused)
        monkeypatch.setattr(np, "load", refused)
        monkeypatch.setattr(Path, "read_bytes", refused)
        back = load_dataset(manifest)
        for a, b in zip(back.subjects, ds.subjects):
            assert a.data.tobytes() == b.data.tobytes()

    def test_loading_writes_nothing(self, tmp_path, rng):
        ds = random_dataset(rng, 2, 8, 4, 2)
        manifest = save_dataset(ds, tmp_path / "d")
        for edit in (False, True):  # from the twin, then a CSV that no longer matches it
            if edit:
                write_matrix_csv(tmp_path / "d" / "s0_data.csv", -ds.subjects[0].data)
            before = _snapshot(tmp_path / "d")
            load_dataset(manifest)
            assert _snapshot(tmp_path / "d") == before


def _snapshot(root: Path) -> dict:
    """Every path under ``root`` with its bytes and modification time."""
    return {p.relative_to(root).as_posix():
            (p.read_bytes() if p.is_file() else None, p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*"))}
