"""Dataset containers, manifest IO and normalization.

A dataset bundles per-subject time-by-voxel matrices with per-subject label
matrices (classes x time points, one-hot columns).  On disk a dataset is a
JSON manifest pointing at header-free CSV files; floats are written with
Python's shortest round-trip representation so that save -> load is
bit-identical.

The CSVs are the source of truth.  :func:`save_dataset` also writes a
binary twin of the data CSVs, one ``.npy`` stack of every subject's matrix,
records the sha256 of each data CSV in the manifest, and names the twin
after those digests in manifest order.  :func:`load_dataset` works the name
out again from the manifest it reads, so a twin is found only for the CSVs,
in the order, that it was written from; it takes a subject's matrix from
the twin only while the CSV still has the recorded digest, and parses the
CSV otherwise, so the twin saves the parse and never changes what is
loaded.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidDataError
from .linalg import TruncatedSvd, as_matrix, truncated_svd

# Columns whose sample standard deviation falls at or below this are treated
# as constant and zeroed during normalization.
_CONSTANT_STD = 1e-12

# A manifest's ``data_sha256`` entries: sha256 digests as hex text.
_SHA256_HEX = re.compile(r"[0-9a-fA-F]{64}")

# Characters that would let a subject id, which names its files, leave the
# dataset's directory or be cut short by the operating system.
_ID_FORBIDDEN = ("/", "\\", "\0")

# File name endings numpy's loader decompresses; :func:`read_matrix_csv`
# hands such names to numpy instead of opening them itself.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def write_matrix_csv(path, m) -> None:
    """Write a matrix as header-free CSV (LF newlines, shortest float repr).

    Each row is converted to Python floats in one ``tolist()`` and formatted
    with ``repr``, so memory stays at one row and the cost per value is the
    ``repr`` itself.  Anything but a non-empty 2-D matrix is refused before
    the file is opened: CSV cannot hold a zero-length dimension.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise InvalidDataError(
            f"can only write a non-empty 2-D matrix as CSV, got shape {m.shape}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in m:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in one LF.

    The document is encoded whole and written in a single call.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json_object(path) -> dict:
    """Read a JSON document that must be an object.

    A file that does not parse, or holds anything but an object, is
    refused with :class:`InvalidDataError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidDataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidDataError(f"{path} must hold a JSON object")
    return payload


def read_matrix_csv(path) -> np.ndarray:
    """Read a header-free CSV matrix written by :func:`write_matrix_csv`.

    The file is opened here and its handle parsed, which skips numpy's
    path lookup; a name ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``
    is still handed to numpy by name, which decompresses it.  A file
    without a single value (empty, or blank lines only) is refused with
    :class:`InvalidDataError`; numpy's warning about it is not passed on.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            if str(path).endswith(_COMPRESSED_SUFFIXES):
                m = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    m = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise InvalidDataError(f"cannot parse CSV matrix {path}: {exc}") from exc
    if m.size == 0:
        raise InvalidDataError(f"CSV matrix {path} holds no values")
    return m


@dataclass(frozen=True)
class SubjectData:
    """One subject's responses: a (time points x voxels) matrix.

    ``zeroed_columns`` lists voxel columns that normalization found constant
    and replaced with zeros (advisory bookkeeping, empty before
    normalization).

    The thin SVD of the data rows, the one factorization alignment asks of
    a subject, is memoized on it per row set (see :meth:`thin_svd`), so
    ``data`` is stored read-only: a writable input is copied, and a later
    write to the caller's array cannot reach the subject or leave its
    memoized factors stale.  The memo takes no part in equality or
    ``repr``, and :func:`normalize` and ``dataclasses.replace`` return
    subjects with an empty memo.

    ``subject_id`` names the subject's files (``<id>_data.csv``,
    ``z_<id>.csv``), so an id that is empty, ``.`` or ``..``, or that holds
    ``/``, ``\\`` or NUL is refused.
    """

    subject_id: str
    data: np.ndarray
    zeroed_columns: tuple[int, ...] = ()
    _svds: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.subject_id in ("", ".", "..")
                or any(c in self.subject_id for c in _ID_FORBIDDEN)):
            raise InvalidDataError(
                f"subject id {self.subject_id!r} cannot name a file: it must not be "
                "empty, '.' or '..', or hold '/', '\\' or NUL"
            )
        m = as_matrix(self.data, f"data for subject {self.subject_id!r}")
        if m.shape[0] < 2:
            raise InvalidDataError(
                f"subject {self.subject_id!r} needs at least 2 time points, got {m.shape[0]}"
            )
        if m.flags.writeable:
            m = m.copy()
            m.flags.writeable = False
        object.__setattr__(self, "data", m)

    @property
    def n_timepoints(self) -> int:
        return self.data.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.data.shape[1]

    def thin_svd(self, rows: np.ndarray) -> TruncatedSvd:
        """Full-rank :func:`truncated_svd` of ``data[rows]``.

        Computed on the first request for a given ``rows`` and reused
        afterwards, so every method, fold, fit and mapping that shares this
        subject object factors its data once.
        """
        rows = np.asarray(rows, dtype=int)
        key = rows.tobytes()
        svd = self._svds.get(key)
        if svd is None:
            m = self.data[rows]
            svd = self._svds[key] = truncated_svd(m, min(m.shape))
        return svd


@dataclass(frozen=True)
class LabelMatrix:
    """One-hot class labels over time: a (classes x time points) 0/1 matrix.

    Every column sums to exactly 1 (a labeled time point) or 0 (an unlabeled
    rest point).  At least two classes are required.

    The layout (:attr:`labeled_mask`, :attr:`labeled_indices` and
    :meth:`class_of`) is derived once, from the column sums the check
    takes, and every array the matrix holds or returns is read-only: like
    :class:`SubjectData`, a writable ``onehot`` is copied, so a later write
    to the caller's array cannot reach the labels or leave their layout
    stale.  ``dataclasses.replace`` derives the layout anew.
    """

    onehot: np.ndarray
    _mask: np.ndarray = field(init=False, compare=False, repr=False)
    _indices: np.ndarray = field(init=False, compare=False, repr=False)
    _classes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = as_matrix(self.onehot, "label matrix")
        if not ((m == 0.0) | (m == 1.0)).all():
            raise InvalidDataError("label matrix entries must be 0 or 1")
        sums = m.sum(axis=0)
        mask = sums == 1.0
        if not (mask | (sums == 0.0)).all():
            bad = int(np.flatnonzero(~mask & (sums != 0.0))[0])
            raise InvalidDataError(
                f"label column {bad} sums to {sums[bad]:g}; columns must be one-hot or all-zero"
            )
        if m.shape[0] < 2:
            raise InvalidDataError(f"need at least 2 classes, got {m.shape[0]}")
        if m.flags.writeable:
            m = m.copy()
        classes = np.where(mask, m.argmax(axis=0), -1)
        indices = np.flatnonzero(mask)
        for name, a in (("onehot", m), ("_mask", mask), ("_indices", indices),
                        ("_classes", classes)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_classes(self) -> int:
        return self.onehot.shape[0]

    @property
    def n_timepoints(self) -> int:
        return self.onehot.shape[1]

    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask over time points that carry a class label."""
        return self._mask

    @property
    def labeled_indices(self) -> np.ndarray:
        return self._indices

    def class_of(self) -> np.ndarray:
        """Class index per time point, -1 for unlabeled points."""
        return self._classes


@dataclass(frozen=True)
class Dataset:
    """A group of subjects observed over a shared, temporally aligned run."""

    subjects: tuple[SubjectData, ...]
    labels: tuple[LabelMatrix, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))
        if not self.subjects:
            raise InvalidDataError("dataset has no subjects")
        if len(self.labels) != len(self.subjects):
            raise InvalidDataError(
                f"{len(self.subjects)} subjects but {len(self.labels)} label matrices"
            )
        first = self.subjects[0]
        for subj in self.subjects[1:]:
            if subj.data.shape != first.data.shape:
                raise InvalidDataError(
                    f"subject {subj.subject_id!r} has shape {subj.data.shape}, "
                    f"expected {first.data.shape} (subject {first.subject_id!r})"
                )
        ref = self.labels[0]
        for subj, lab in zip(self.subjects, self.labels):
            if lab.n_timepoints != subj.n_timepoints:
                raise InvalidDataError(
                    f"labels for subject {subj.subject_id!r} cover {lab.n_timepoints} "
                    f"time points, data has {subj.n_timepoints}"
                )
            if lab.n_classes != ref.n_classes:
                raise InvalidDataError(
                    f"labels for subject {subj.subject_id!r} have {lab.n_classes} "
                    f"classes, expected {ref.n_classes}"
                )
            if not np.array_equal(lab.labeled_mask, ref.labeled_mask):
                raise InvalidDataError(
                    f"subject {subj.subject_id!r} marks different time points as "
                    "labeled than the first subject; the rest mask must be shared"
                )
        if len(self.class_names) != ref.n_classes:
            raise InvalidDataError(
                f"{len(self.class_names)} class names for {ref.n_classes} classes"
            )
        ids = [s.subject_id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise InvalidDataError("subject ids must be unique")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_timepoints(self) -> int:
        return self.subjects[0].n_timepoints

    @property
    def n_voxels(self) -> int:
        return self.subjects[0].n_voxels

    @property
    def n_classes(self) -> int:
        return self.labels[0].n_classes

    @property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(s.subject_id for s in self.subjects)

    def labels_identical(self) -> bool:
        first = self.labels[0].onehot
        return all(np.array_equal(lab.onehot, first) for lab in self.labels[1:])


def _check_strict_labels(dataset: Dataset) -> None:
    if not dataset.labels_identical():
        raise InvalidDataError(
            "label matrices differ across subjects; pass strict_labels=False "
            "to allow per-subject label values"
        )


def _check_entry(entry) -> None:
    """Refuse a manifest subject entry of the wrong form."""
    if not isinstance(entry, dict):
        raise InvalidDataError(f"subject entry must be a JSON object, got {entry!r}")
    for key in ("id", "data", "labels"):
        if key not in entry:
            raise InvalidDataError(f"subject entry is missing required key {key!r}")
    for key in ("data", "labels"):
        if not isinstance(entry[key], str):
            raise InvalidDataError(f"subject entry {key!r} must be a file name, "
                                   f"got {entry[key]!r}")


def _digest_field(entry: dict):
    """The subject entry's ``data_sha256`` in lower case, or None without one."""
    if "data_sha256" not in entry:
        return None
    digest = entry["data_sha256"]
    if not (isinstance(digest, str) and _SHA256_HEX.fullmatch(digest)):
        raise InvalidDataError(
            f"subject entry 'data_sha256' must be 64 hex characters, got {digest!r}"
        )
    return digest.lower()


def _twin_name(digests) -> str:
    """The twin's file name: ``data-`` and the sha256 of the subjects' data
    digests joined in manifest order.

    Reordering, dropping or replacing a manifest entry, or editing a
    recorded digest, changes the name, so the twin written for other CSVs
    is not found.
    """
    return f"data-{hashlib.sha256(''.join(digests).encode('ascii')).hexdigest()}.npy"


def _read_twin(path: Path, n_subjects: int):
    """The read-only float64 (subjects x T x V) stack in ``path``, or None.

    A twin that is missing, unreadable, holds pickled objects, or is not a
    3-D float64 array with one slice per subject cannot serve and is
    ignored: the CSVs are parsed instead.
    """
    try:
        with open(path, "rb") as fh:
            twin = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if not (isinstance(twin, np.ndarray) and twin.dtype == np.float64
            and twin.ndim == 3 and twin.shape[0] == n_subjects):
        return None
    twin.flags.writeable = False
    return twin


def _matrix_from_twin(twin, i: int, raw: bytes, digest: str):
    """``twin[i]`` if it stands for the CSV bytes ``raw``, else None.

    The CSV must still have the digest the manifest recorded, and hold as
    many lines and fields as the slice has rows and columns.
    """
    t, v = twin.shape[1:]
    octets = np.frombuffer(raw, np.uint8)
    if (np.count_nonzero(octets == ord("\n")) != t
            or np.count_nonzero(octets == ord(",")) != t * (v - 1)):
        return None
    if hashlib.sha256(raw).hexdigest() != digest:
        return None
    return twin[i]


def _read_manifest(manifest_path: Path) -> tuple[dict, list]:
    """The checked manifest at ``manifest_path`` and its subjects' digests.

    A digest is None for an entry without ``data_sha256``.  Nothing but the
    manifest is read.
    """
    manifest = read_json_object(manifest_path)
    for key in ("class_names", "subjects"):
        if key not in manifest:
            raise InvalidDataError(f"manifest is missing required key {key!r}")
        if not isinstance(manifest[key], list):
            raise InvalidDataError(f"manifest key {key!r} must be a list")
    entries = manifest["subjects"]
    if not entries:
        raise InvalidDataError("manifest lists no subjects")
    for entry in entries:
        _check_entry(entry)
    return manifest, [_digest_field(entry) for entry in entries]


def _named_twin(manifest_path: Path):
    """The twin file name the manifest at ``manifest_path`` names, or None.

    A manifest that is missing, malformed or without a digest for every
    subject names no twin.
    """
    try:
        digests = _read_manifest(manifest_path)[1]
    except (OSError, InvalidDataError):
        return None
    return None if None in digests else _twin_name(digests)


def load_dataset(manifest_path, strict_labels: bool = True) -> Dataset:
    """Load a dataset from a JSON manifest.

    The manifest holds ``class_names`` and a ``subjects`` list of
    ``{"id", "data", "labels"}`` entries whose paths are resolved relative to
    the manifest's directory.  With ``strict_labels`` (the default) all
    subjects must share an identical label matrix.  Every entry is checked
    before any CSV is read.

    A manifest written by :func:`save_dataset` also gives each subject's
    ``data_sha256``.  When every subject has one, the binary twin named
    after these digests in manifest order is loaded once, and a subject's
    matrix is read from it whenever its data CSV still has that digest and
    the twin's slices match the CSV's line and field counts; otherwise, or
    when the twin is missing or unusable, the CSV is parsed.  Every data
    CSV is read either way, and nothing is written.  A manifest without
    the digests is loaded from its CSVs alone; a digest that is not 64 hex
    characters is invalid data.
    """
    manifest_path = Path(manifest_path)
    manifest, digests = _read_manifest(manifest_path)
    entries = manifest["subjects"]
    base = manifest_path.parent
    twin = None
    if None not in digests:
        twin = _read_twin(base / _twin_name(digests), len(entries))
    subjects, labels = [], []
    for i, (entry, digest) in enumerate(zip(entries, digests)):
        data_path = base / entry["data"]
        data = None
        if twin is not None:
            data = _matrix_from_twin(twin, i, data_path.read_bytes(), digest)
        if data is None:
            data = read_matrix_csv(data_path)
        subjects.append(SubjectData(str(entry["id"]), data))
        labels.append(LabelMatrix(read_matrix_csv(base / entry["labels"])))
    dataset = Dataset(tuple(subjects), tuple(labels), tuple(manifest["class_names"]))
    if strict_labels:
        _check_strict_labels(dataset)
    return dataset


def save_dataset(dataset: Dataset, out_dir, manifest_name: str = "manifest.json") -> Path:
    """Write a dataset as manifest + CSV files; returns the manifest path.

    Each subject gets ``<id>_data.csv`` and ``<id>_labels.csv``, and its
    manifest entry records the data CSV's sha256 as ``data_sha256``.  The
    data matrices are also stacked in manifest order into one ``.npy``
    twin named after those digests (``data-<sha256 of the joined
    digests>.npy``, see :func:`load_dataset`), so manifests in one
    directory share a twin only when they list the same CSV bytes in the
    same order.  Label CSVs get no twin: they are small.  The manifest is
    written last.  When it replaces a manifest that named another twin,
    that twin is then removed: another manifest in the directory that
    still names it parses its CSVs instead.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / manifest_name
    replaced = _named_twin(manifest_path)
    entries = []
    for subj, lab in zip(dataset.subjects, dataset.labels):
        data_name = f"{subj.subject_id}_data.csv"
        label_name = f"{subj.subject_id}_labels.csv"
        write_matrix_csv(out_dir / data_name, subj.data)
        write_matrix_csv(out_dir / label_name, lab.onehot)
        entries.append({"id": subj.subject_id, "data": data_name, "labels": label_name,
                        "data_sha256": hashlib.sha256(
                            (out_dir / data_name).read_bytes()).hexdigest()})
    twin_name = _twin_name(entry["data_sha256"] for entry in entries)
    np.save(out_dir / twin_name, np.stack([subj.data for subj in dataset.subjects]))
    manifest = {"class_names": list(dataset.class_names), "subjects": entries}
    write_json(manifest_path, manifest)
    if replaced not in (None, twin_name):
        (out_dir / replaced).unlink(missing_ok=True)
    return manifest_path


def _normalize_columns(m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Standardized columns of ``m``, read-only, and the indices of constant ones.

    The standard deviation is taken from the centered matrix, which is bit
    for bit ``m.std(axis=0, ddof=1)``: the same mean, squares and sum.
    """
    centered = m - m.mean(axis=0)
    std = np.sqrt(np.square(centered).sum(axis=0) / (m.shape[0] - 1))
    constant = std <= _CONSTANT_STD
    centered /= np.where(constant, 1.0, std)
    centered[:, constant] = 0.0
    centered.flags.writeable = False
    return centered, tuple(int(i) for i in np.flatnonzero(constant))


def normalize(dataset: Dataset) -> Dataset:
    """Column-standardize every subject: mean 0, sample variance 1 per voxel.

    Constant columns cannot be scaled; they are zeroed and recorded in the
    subject's ``zeroed_columns``.  The operation is idempotent up to floating
    point rounding.  Like every subject's data, the normalized matrices are
    read-only (see :class:`SubjectData`).
    """
    subjects = []
    for subj in dataset.subjects:
        data, zeroed = _normalize_columns(subj.data)
        subjects.append(replace(subj, data=data, zeroed_columns=zeroed))
    return Dataset(tuple(subjects), dataset.labels, dataset.class_names)
