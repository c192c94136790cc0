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

import functools
import hashlib
import json
import re
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidDataError
from .linalg import TruncatedSvd, as_matrix, gram_svd, truncated_svd

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


# Values :func:`write_matrix_csv` and :func:`_json_array` format at a time.
# Each block pays a fixed ~0.2 ms (about 90 numpy calls, the ``repr``
# fallback's set-up, one ``translate``), a third of the formatter's time at
# 4,096 values.  Against 4,096, 16,384 took the ``synth`` set-up of
# ``bench/run.py --seconds 8 --trace 0`` from 0.277 to 0.241 s on
# ``align-long`` and from 0.162 to 0.143 s on ``loso-wide`` (medians of 10
# alternating pairs, faster in 10 of 10; 2-vCPU host, one BLAS thread).
# Interleaved in one process, ``synth``'s writes on ``loso-wide`` took
# 118 ms at 4,096, 110 ms at 8,192, 106 ms at 16,384 and 156 ms at 32,768,
# where each 25,600-value subject is one block (slower than 16,384 in 16
# of 16 pairs).
_CSV_BLOCK = 1 << 14

_U64 = np.uint64
_FRACTION = _U64((1 << 52) - 1)
_POW10 = np.array([1, 10, 100, 1000], dtype=_U64)
# Per count of dropped digits, the bytes of a record's last word that keep
# their digit (see :func:`_format_block`).
_KEPT_DIGITS = np.array([2 ** 64 - 1, 2 ** 40 - 1, 2 ** 32 - 1, 2 ** 32 - 1], dtype=_U64)


@functools.cache
def _csv_tables():
    """The block formatter's lookup tables, indexed by the decimal scale s.

    A value with ``|x|`` in [1e-4, 2**53) is written from a 17-digit
    integer near ``|x| * 10**s`` (s in 0..21), so its decimal point falls
    after digit ``dp = 17 - s``.  The tables give ``5**s`` and ``10.0**s``;
    the leading text of a record (``"0."`` and ``-dp`` zeros when dp <= 0,
    all but its last character, right-aligned in bytes 1-4); and, for each
    of the record's three words, the mask of the bytes before byte
    ``5 + max(dp, 0)`` and the byte inserted there: the point, or the last
    leading character.
    """
    scales = range(22)
    pow5 = np.array([5 ** s for s in scales], dtype=_U64)
    pow10 = np.array([float(10 ** s) for s in scales])
    lead = np.zeros(22, _U64)
    below = np.zeros((3, 22), _U64)
    insert = np.zeros((3, 22), _U64)
    for s in scales:
        dp = 17 - s
        text = b"0." + b"0" * -dp if dp <= 0 else b"."
        lead[s] = int.from_bytes(b"\0" + text[:-1].rjust(4, b"\0"), "little")
        at = 5 + max(dp, 0)
        for w in range(3):
            local = at - 8 * w
            below[w, s] = (1 << (8 * min(max(local, 0), 8))) - 1
            if 0 <= local < 8:
                insert[w, s] = text[-1] << (8 * local)
    tables = (pow5, pow10, lead, below, insert)
    for table in tables:
        table.flags.writeable = False
    return tables


def _ascii8(v):
    """The eight decimal digits of each ``v < 10**8`` as ASCII bytes of a
    uint64, first digit in the lowest byte.

    The number is split in 4-digit halves, the halves in 2-digit lanes and
    those in digits, every lane divided by a multiply and shift at once.
    """
    hi = v // _U64(10000)
    x = hi | ((v - hi * _U64(10000)) << _U64(32))
    y = ((x * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)
    x = y | ((x - y * _U64(100)) << _U64(16))
    y = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    x = y | ((x - y * _U64(10)) << _U64(8))
    return x | _U64(0x3030303030303030)


def _format_block(x: np.ndarray, row_len: int, start: int) -> bytes:
    """CSV text of the contiguous float64 values ``x``: each value's
    ``repr``, then ``"\\n"`` after the last value of a row and ``","`` after
    the others, where ``x[0]`` has flat index ``start`` in a matrix of
    ``row_len`` columns.

    Values with ``|x|`` in [1e-4, 2**53) that are not powers of two are
    formatted here, exactly, by the shortest round-trip rule ``repr``
    follows (Ryu, Schubfach): ``x = m * 2**e`` is scaled to the 17-digit
    ``y = |x| * 10**s``, exact in 64-bit integers, and the rounding
    interval of ``x`` is ``y`` plus or minus ``h = 5**s * 2**(e+s-1)``.
    The fewest digits, 15 to 17, whose nearest candidate lies strictly
    inside the interval are kept.  Every value this cannot settle exactly
    goes through ``repr`` itself: zeros, subnormals, NaN, infinities and
    powers of two (whose interval is lopsided), magnitudes ``repr`` writes
    in exponent form and those from 2**53 on, a rounding tie between two
    candidates, and values that need 14 digits or fewer, round up into a
    new digit or are integral.  So the bytes are ``repr``'s by
    construction.

    Each value becomes a 24-byte record of three uint64 words, built
    across the whole block one word at a time: the sign in byte 0, the
    text before the digits in bytes 1-4, the digits from byte 5 with the
    point inserted, and the separator in byte 23.  Its text is the
    record's bytes with the NUL padding dropped.  A ``repr`` of 24
    characters leaves no room for the separator, so a block holding one is
    written by ``repr`` alone.
    """
    pow5, pow10, lead, below, insert = _csv_tables()
    n = x.size
    ax = np.abs(x)
    bits = ax.view(_U64)
    fast = (ax >= 1e-4) & (ax < 2.0 ** 53) & ((bits & _FRACTION) != _U64(0))
    # A stand-in for the rest keeps the arithmetic below in range and quiet.
    ax = np.where(fast, ax, 1.5)
    bits = ax.view(_U64)
    s = 16 - np.floor(np.log10(ax)).astype(np.intp)
    # In units of 2**-k (k in 1..48), y is ``4 * m * 5**s`` and h is
    # ``2 * 5**s``.
    k = (1077 - (bits >> _U64(52)).astype(np.intp) - s).astype(_U64)
    f = pow5[s]
    low = (((bits & _FRACTION) | _U64(1 << 52)) << _U64(2)) * f
    mask = (_U64(1) << k) - _U64(1)
    frac = low & mask
    # The integer part of y: ``low >> k`` is its low 64 - k bits, and the
    # float product, within 8 of it, gives the rest.
    whole = low >> k
    near = (ax * pow10[s]).astype(_U64)
    whole += (near - whole + (_U64(1 << 63) >> k)) & (~_U64(0) << (_U64(64) - k))
    # The interval ends ``y -+ h``, ``(2m -+ 1) * 5**s / 2**(k-1)``, are
    # integers only when k is 1, and then odd: never a multiple of ten, and
    # farther from y than the nearest integer.  So the interval is taken as
    # open, whatever the parity of m.
    half = f << _U64(1)
    top = whole + ((frac + half) >> k)            # floor(y + h)
    bottom = whole - ((half + mask - frac) >> k)  # floor(y - h)
    # log10 rounded across a power of ten leaves y outside its decade.
    settled = fast & (whole >= _U64(10 ** 16)) & (whole < _U64(10 ** 17))
    # Drop trailing digits while a multiple of 10**dropped stays inside the
    # interval, and take the multiple nearest y.
    dropped = np.zeros(n, np.intp)
    for p in _POW10[1:]:
        dropped += top // p > bottom // p
    p = _POW10[dropped]
    q = whole // p
    under = ((whole - q * p) << k) + frac
    over = (p << k) - under
    digits = (q + (over < under)) * p
    settled &= (over != under) & (dropped < 3) & (dropped < s) & (digits < _U64(10 ** 17))
    first = digits // _U64(10 ** 16)
    rest = digits - first * _U64(10 ** 16)
    upper = rest // _U64(10 ** 8)
    hi8 = _ascii8(upper)
    lo8 = _ascii8(rest - upper * _U64(10 ** 8))
    words = (lead[s] | ((x.view(_U64) >> _U64(63)) * _U64(ord("-")))
             | ((first | _U64(ord("0"))) << _U64(40)) | (hi8 << _U64(48)),
             (hi8 >> _U64(16)) | (lo8 << _U64(48)),
             (lo8 >> _U64(16)) & _KEPT_DIGITS[dropped])
    # Insert the point, moving the bytes from it on up by one.
    record = np.empty((n, 3), _U64)
    carry = _U64(0)
    for w, word in enumerate(words):
        kept = word & below[w][s]
        moved = word ^ kept
        record[:, w] = kept | (moved << _U64(8)) | carry | insert[w][s]
        carry = moved >> _U64(56)
    sep = np.full(n, ord(","), _U64)
    sep[(row_len - 1 - start % row_len)::row_len] = ord("\n")
    sep <<= _U64(56)
    record[:, 2] |= sep
    loose = np.flatnonzero(~settled)
    if loose.size:
        # One repr per distinct bit pattern: label matrices repeat two values.
        keys, which = np.unique(x[loose].view(_U64), return_inverse=True)
        text = [repr(v) for v in keys.view(np.float64).tolist()]
        if max(map(len, text)) > 23:
            ends = (sep >> _U64(56)).astype(np.uint8).tobytes().decode()
            return "".join(map(str.__add__, map(repr, x.tolist()), ends)).encode()
        record[loose] = np.array(text, dtype="S24").view(_U64).reshape(-1, 3)[which.reshape(-1)]
        record[loose, 2] |= sep[loose]
    return record.tobytes().translate(None, b"\0")


def write_matrix_csv(path, m, *, sha256=None) -> None:
    """Write a matrix as header-free CSV (LF newlines, shortest float repr).

    Every value is written as ``repr`` writes it, and the bytes equal
    ``",".join(map(repr, row)) + "\\n"`` per row.  The matrix is formatted
    and written in blocks of up to 16,384 values (:data:`_CSV_BLOCK`), a
    longer row in several, so memory stays at one block: see
    :func:`_format_block`, which settles most values with exact integer
    arithmetic over the block and leaves the rest to ``repr``.  A ``hashlib`` object passed as ``sha256`` is
    updated with every block written.  Anything but a non-empty 2-D matrix
    is refused before the file is opened: CSV cannot hold a zero-length
    dimension.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise InvalidDataError(
            f"can only write a non-empty 2-D matrix as CSV, got shape {m.shape}"
        )
    cols = m.shape[1]
    step = max(1, _CSV_BLOCK // cols)
    with open(path, "wb") as fh:
        for r in range(0, m.shape[0], step):
            flat = m[r:r + step].ravel()
            for i in range(0, flat.size, _CSV_BLOCK):
                block = _format_block(flat[i:i + _CSV_BLOCK], cols, i)
                fh.write(block)
                if sha256 is not None:
                    sha256.update(block)


def _indent(depth: int) -> bytes:
    """The line break and indent ``json.dumps(indent=2)`` puts before an
    item at nesting depth ``depth``."""
    return b"\n" + b"  " * depth


def _json_list(items: list[bytes], depth: int) -> bytes:
    """A JSON list of the encoded ``items`` at nesting depth ``depth``."""
    return b"".join((b"[", _indent(depth + 1), (b"," + _indent(depth + 1)).join(items),
                     _indent(depth), b"]"))


def _json_nest(rows: list[bytes], lead: tuple, depth: int) -> bytes:
    """The rows of an array whose leading axes have shape ``lead``, nested
    as JSON lists at depth ``depth``; each row's values are already
    separated by a comma and their line break and indent.  The rows of
    one 2-D slice are joined in one call, slices of leading axes in Python.
    """
    if len(lead) > 1:
        step = len(rows) // lead[0]
        return _json_list([_json_nest(rows[i:i + step], lead[1:], depth + 1)
                           for i in range(0, len(rows), step)], depth)
    if not lead:
        return _json_list(rows, depth)
    head, tail = b"[" + _indent(depth + 2), _indent(depth + 1) + b"]"
    return _json_list([b"".join((head, (tail + b"," + _indent(depth + 1) + head).join(rows),
                                 tail))], depth)


def _json_array(a: np.ndarray, depth: int) -> bytes:
    """``json.dumps(a.tolist(), indent=2)`` of a finite float64 array with
    at least one axis and none of length zero, placed at nesting depth
    ``depth``.

    The values are formatted as CSV by :func:`_format_block` in one pass
    of blocks, so each is written as ``repr`` (which ``json`` also uses for
    a finite float) writes it.  Each row end is then marked, each comma
    given the values' line break and indent, and the rows nested in their
    brackets by :func:`_json_nest`.
    """
    flat = np.ascontiguousarray(a).reshape(-1)
    text = b"".join(_format_block(flat[i:i + _CSV_BLOCK], a.shape[-1], i)
                    for i in range(0, flat.size, _CSV_BLOCK))
    rows = (text.replace(b"\n", b"|").replace(b",", b"," + _indent(depth + a.ndim))
            .split(b"|"))
    return _json_nest(rows[:-1], a.shape[:-1], depth)


# Stands in for each array :func:`write_json` formats itself while ``json``
# encodes the rest of the document.
_ARRAY_MARK = "\0ndarray\0"


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in one LF.

    The bytes are ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
    with every numpy array in the payload read as its ``tolist()``.  A
    float64 array with at least one axis, none of length zero and only
    finite values is formatted by :func:`_json_array`, through the block
    formatter the CSV writer uses, instead of one value at a time by
    ``json``'s encoder; any other array goes to ``json`` as ``tolist()``,
    as does every array of a payload holding a key or string that reads
    as :data:`_ARRAY_MARK`.  A payload without arrays is encoded by
    ``json`` alone.  The document is encoded whole and written in a
    single call.
    """
    arrays = []

    def encode(value, formatted=True):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if (formatted and value.dtype == np.float64 and value.ndim and value.size
                and np.isfinite(value).all()):
            arrays.append(value)
            return _ARRAY_MARK
        return value.tolist()

    text = json.dumps(payload, indent=2, sort_keys=True, default=encode) + "\n"
    pieces = text.split(json.dumps(_ARRAY_MARK))
    if len(pieces) != len(arrays) + 1:
        text = json.dumps(payload, indent=2, sort_keys=True,
                          default=functools.partial(encode, formatted=False)) + "\n"
        pieces = [text]
    document = [pieces[0].encode()]
    for array, before, after in zip(arrays, pieces, pieces[1:]):
        # json indents the line that holds the stand-in two spaces per depth.
        line = before[before.rfind("\n") + 1:]
        document += [_json_array(array, (len(line) - len(line.lstrip(" "))) // 2),
                     after.encode()]
    with open(path, "wb") as fh:
        fh.write(b"".join(document))


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


def _time_indices(values, what: str) -> np.ndarray:
    """``values`` as a 1-D integer array of strictly increasing time indices >= 0.

    Anything else is refused with :class:`InvalidDataError` naming ``what``:
    numpy would truncate a fraction, read a negative index from the end of
    the time axis, read a boolean mask as the indices 0 and 1, or index a
    stack of row sets with a 2-D array.  Floats that are whole numbers are
    accepted.
    """
    indices = np.asarray(values)
    if indices.ndim != 1:
        raise InvalidDataError(f"{what} must be a 1-D array, got shape {indices.shape}")
    if indices.dtype.kind == "f" and (np.isfinite(indices)
                                      & (indices == np.round(indices))).all():
        indices = indices.astype(int)
    if indices.dtype.kind not in "iu":
        raise InvalidDataError(f"{what} must be whole numbers, got {indices.tolist()}")
    if indices.size and (indices.min() < 0 or (np.diff(indices) <= 0).any()):
        raise InvalidDataError(
            f"{what} must be strictly increasing indices >= 0, got {indices.tolist()}"
        )
    return indices.astype(int, copy=False)


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

    def thin_svd(self, rows) -> TruncatedSvd:
        """Full-rank left SVD factor of ``data[rows]``.

        ``rows`` are strictly increasing time indices >= 0 (see
        :func:`_time_indices`).  The row set is factored through its
        smaller Gram matrix by :func:`gram_svd` when that result is
        certified, as it usually is for normalized data; one
        :func:`gram_svd` cannot certify (a zeroed constant voxel, say) gets
        the exact :func:`truncated_svd`.  Computed on the first request for
        a given ``rows`` and reused afterwards, so every method, fold, fit
        and mapping that shares this subject object factors its data once.
        The memo is keyed by the array ``rows`` is, so only a first request
        pays for checking it.
        """
        rows = np.asarray(rows)
        key = (rows.dtype.str, rows.shape, rows.tobytes())
        svd = self._svds.get(key)
        if svd is None:
            m = self.data[_time_indices(rows, "the factored rows")]
            svd = gram_svd(m)
            if svd is None:
                svd = truncated_svd(m, min(m.shape))
            self._svds[key] = svd
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
    for key, kind in (("id", "a string"), ("data", "a file name"), ("labels", "a file name")):
        if key not in entry:
            raise InvalidDataError(f"subject entry is missing required key {key!r}")
        if not isinstance(entry[key], str):
            raise InvalidDataError(f"subject entry {key!r} must be {kind}, got {entry[key]!r}")


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
        subjects.append(SubjectData(entry["id"], data))
        labels.append(LabelMatrix(read_matrix_csv(base / entry["labels"])))
    dataset = Dataset(tuple(subjects), tuple(labels), tuple(manifest["class_names"]))
    if strict_labels:
        _check_strict_labels(dataset)
    return dataset


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write a dataset as ``manifest.json`` + CSV files; returns the manifest path.

    Each subject gets ``<id>_data.csv`` and ``<id>_labels.csv``, and its
    manifest entry records the data CSV's sha256 as ``data_sha256``, hashed
    from the blocks as they are written rather than read back.  The
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
    manifest_path = out_dir / "manifest.json"
    replaced = _named_twin(manifest_path)
    entries = []
    for subj, lab in zip(dataset.subjects, dataset.labels):
        data_name = f"{subj.subject_id}_data.csv"
        label_name = f"{subj.subject_id}_labels.csv"
        digest = hashlib.sha256()
        write_matrix_csv(out_dir / data_name, subj.data, sha256=digest)
        write_matrix_csv(out_dir / label_name, lab.onehot)
        entries.append({"id": subj.subject_id, "data": data_name, "labels": label_name,
                        "data_sha256": digest.hexdigest()})
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
