"""Independent dense references for the outputs the benchmark times.

Nothing here imports ``multialign``.  Every reference is recomputed from the
CSV files on disk with plain numpy, through ridge Gram systems instead of
the program's SVDs, so a fault in the program cannot hide in its own check.

Where the mathematics leaves a result free, the check is invariant to that
freedom:

* LOSO accuracy and AUC come from a ridge classifier whose predictions do
  not change when the mapped features are rotated, so they do not depend on
  which basis of the shared space an eigensolver returns.
* ``align`` outputs are checked against the program's own template
  (``g.csv``): each ``z_<id>.csv`` must equal the ridge map of the subject
  onto that template, whatever basis the template was built from.
* Correlation profiles depend on the basis of the shared space.  Where the
  spectrum leaves that basis undetermined (a cluster of eigenvalues closer
  than ``CLUSTER_GAP`` of the largest), the reference is the range the
  statistic takes over rotations inside the cluster, not one number.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

# CLI defaults of ``--epsilon``, ``--ridge`` and ``--iters``.
EPSILON = 1e-4
RIDGE = 1.0
ITERATIONS = 10

# Tolerances, absolute.  Mapped features are compared relative to their
# largest magnitude; correlation and AUC values are in [-1, 1] and [0, 1].
Z_RTOL = 1e-6
ORTHONORMAL_TOL = 1e-8
AUC_TOL = 1e-6
RHO_TOL = 1e-6
# A classifier score margin below this (relative to the largest score) can
# flip a prediction under rounding, so that prediction may differ.
TIE_MARGIN = 1e-7
# Eigenvalues closer than this share of the largest form one cluster whose
# basis the eigensolver picks freely.
CLUSTER_GAP = 1e-6
# Random rotations sampled inside each cluster to bound a correlation.
ROTATION_SAMPLES = 24


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def read_csv(path) -> np.ndarray:
    """Parse a header-free numeric CSV written with one row per line."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").split("\n") if line]
    if not lines:
        raise CheckFailed(f"{path} is empty")
    cols = lines[0].count(",") + 1
    try:
        flat = np.array(list(map(float, ",".join(lines).split(","))))
        return flat.reshape(len(lines), cols)
    except ValueError as exc:
        raise CheckFailed(f"{path} is not a rectangular numeric CSV: {exc}") from exc


def load_dataset(manifest) -> tuple[list[str], list[np.ndarray], np.ndarray]:
    """Subject ids, raw data matrices and the shared label matrix."""
    manifest = Path(manifest)
    meta = json.loads(manifest.read_text(encoding="utf-8"))
    ids, xs, labels = [], [], None
    for entry in meta["subjects"]:
        ids.append(entry["id"])
        xs.append(read_csv(manifest.parent / entry["data"]))
        y = read_csv(manifest.parent / entry["labels"])
        if labels is not None and not np.array_equal(y, labels):
            raise CheckFailed("label matrices differ across subjects")
        labels = y
    return ids, xs, labels


def check_synth(manifest, subjects, classes, instances, length, voxels) -> None:
    """The generated dataset has the requested shape and round-robin labels."""
    ids, xs, labels = load_dataset(manifest)
    t = classes * instances * length
    if len(xs) != subjects or any(x.shape != (t, voxels) for x in xs):
        raise CheckFailed(f"dataset shape differs from {subjects} x ({t}, {voxels})")
    expected = np.repeat(np.tile(np.arange(classes), instances), length)
    if labels.shape != (classes, t) or not np.array_equal(labels.argmax(0), expected) \
            or not np.array_equal(labels.sum(0), np.ones(t)):
        raise CheckFailed("labels are not the round-robin one-hot layout")
    if len(set(ids)) != subjects:
        raise CheckFailed("subject ids repeat")


def standardize(x: np.ndarray) -> np.ndarray:
    """Column mean 0 and sample variance 1; constant columns become 0."""
    centered = x - x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    constant = std <= 1e-12
    out = centered / np.where(constant, 1.0, std)
    out[:, constant] = 0.0
    return out


def class_of(labels: np.ndarray) -> np.ndarray:
    out = np.full(labels.shape[1], -1)
    mask = labels.sum(axis=0) == 1.0
    out[mask] = labels[:, mask].argmax(axis=0)
    return out


def supervision(labels: np.ndarray, gamma: float | None) -> np.ndarray:
    """``Y (I - gamma J)``; ``gamma`` defaults to ``1/(2t)``."""
    t = labels.shape[1]
    gamma = 1.0 / (2.0 * t) if gamma is None else gamma
    return labels - gamma * labels.sum(axis=1)[:, None]


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Largest-magnitude entry of every column positive (the program's rule)."""
    anchor = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def ridge_map(x: np.ndarray, x_fit: np.ndarray) -> np.ndarray:
    """``H`` with ``H @ G = x (x_fit^T x_fit + eps I)^-1 x_fit^T G``.

    Solved on whichever side of ``x_fit`` is smaller, where the Gram matrix
    is full rank and the system well conditioned.
    """
    rows, cols = x_fit.shape
    if cols <= rows:
        gram = x_fit.T @ x_fit + EPSILON * np.eye(cols)
        return x @ np.linalg.solve(gram, x_fit.T)
    gram = x_fit @ x_fit.T + EPSILON * np.eye(rows)
    return np.linalg.solve(gram, x_fit @ x.T).T


def complement(m: np.ndarray) -> np.ndarray:
    """``I - m (m^T m + eps I)^-1 m^T`` for a coupled matrix ``m``."""
    rows, cols = m.shape
    if rows <= cols:
        # Push-through form: eps (m m^T + eps I)^-1, free of cancellation.
        return EPSILON * np.linalg.inv(m @ m.T + EPSILON * np.eye(rows))
    return np.eye(rows) - m @ np.linalg.solve(m.T @ m + EPSILON * np.eye(cols), m.T)


def _require_all_labeled(labels: np.ndarray) -> None:
    if (class_of(labels) < 0).any():
        raise CheckFailed("reference assumes every time point is labeled")


class Subjects:
    """Normalized subjects with their fold-independent ridge maps.

    Every time point must be labeled, as ``synth`` makes them: the
    references then need no rest-point bookkeeping.
    """

    def __init__(self, xs, labels):
        _require_all_labeled(labels)
        self.xs = [standardize(x) for x in xs]
        self.labels = labels
        self.maps = [ridge_map(x, x) for x in self.xs]
        self._complements = {}

    def coupled(self, method: str, gamma: float | None) -> list[np.ndarray]:
        if method == "rha":
            return self.xs
        kernel = supervision(self.labels, gamma)
        return [kernel @ x for x in self.xs]

    def complements(self, method: str, gamma: float | None) -> list[np.ndarray]:
        key = (method, gamma)
        if key not in self._complements:
            self._complements[key] = [complement(m) for m in self.coupled(method, gamma)]
        return self._complements[key]


def shared_space(sub: Subjects, method: str, train, gamma=None):
    """Shared space ``W`` and the eigenvalues it was chosen from.

    ``sha``/``rha``: the bottom-k eigenvectors of ``sum (I - P_i)``;
    ``sha_r``: the top-k left singular vectors of the iterated template.
    """
    if method == "sha_r":
        everyone, complements = sub.coupled(method, gamma), sub.complements(method, gamma)
        coupled = [everyone[i] for i in train]
        projectors = [np.eye(c.shape[0]) - complements[i] for c, i in zip(coupled, train)]
        template = sum(coupled) / len(coupled)
        for _ in range(ITERATIONS):
            template = sum(p @ template for p in projectors) / len(projectors)
        left, values, _ = np.linalg.svd(template, full_matrices=False)
        k = template.shape[0]
        return fix_signs(left[:, :k]), values[:k]
    u = sum(sub.complements(method, gamma)[i] for i in train)
    values, vectors = np.linalg.eigh((u + u.T) / 2.0)
    size = u.shape[0]
    k = size if method == "sha" else min(sub.xs[0].shape[1], size)
    return fix_signs(vectors[:, :k]), values


def template_of(sub: Subjects, method: str, w: np.ndarray, gamma=None) -> np.ndarray:
    if method == "rha":
        return w
    return supervision(sub.labels, gamma).T @ w


def mapped(sub: Subjects, method: str, train, subjects, gamma=None):
    """Features of ``subjects`` in the space fitted on ``train``."""
    if method == "none":
        return [sub.xs[i] for i in subjects], None
    w, values = shared_space(sub, method, train, gamma)
    template = template_of(sub, method, w, gamma)
    return [sub.maps[i] @ template for i in subjects], (w, values)


# --- classification -------------------------------------------------------

def _binary_auc(positive: np.ndarray, scores: np.ndarray) -> float:
    ranks = rankdata(scores)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return (float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loso(sub: Subjects, method: str, gamma=None) -> list[dict]:
    """Per-fold accuracy, AUC and the count of predictions a tie could flip."""
    classes_of = class_of(sub.labels)
    n = len(sub.xs)
    folds = []
    for held in range(n):
        train = [i for i in range(n) if i != held]
        feats, _ = mapped(sub, method, train, train + [held], gamma)
        x_train = np.vstack(feats[:-1])
        y_train = np.tile(classes_of, len(train))
        classes = np.unique(y_train)
        targets = np.where(y_train[:, None] == classes[None, :], 1.0, -1.0)
        aug = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
        penalty = np.full(aug.shape[1], RIDGE)
        penalty[-1] = 0.0
        coef = np.linalg.solve(aug.T @ aug + np.diag(penalty), aug.T @ targets)
        x_test = feats[-1]
        scores = x_test @ coef[:-1] + coef[-1]
        ordered = np.sort(scores, axis=1)
        margin = ordered[:, -1] - ordered[:, -2]
        ties = int((margin <= TIE_MARGIN * max(1.0, np.abs(scores).max())).sum())
        predicted = classes[scores.argmax(axis=1)]
        present = np.unique(classes_of)
        auc = float(np.mean([_binary_auc(classes_of == c, scores[:, col])
                             for col, c in enumerate(classes) if c in present]))
        folds.append({"accuracy": float((predicted == classes_of).mean()),
                      "auc": auc, "n_test": int(classes_of.size), "ties": ties})
    return folds


def check_loso(report_path, ids, method: str, folds) -> None:
    """``loso_<method>.json`` matches the reference fold by fold."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    if report.get("method") != method or len(report.get("folds", ())) != len(folds):
        raise CheckFailed(f"{report_path}: wrong method or fold count")
    for got, ref, sid in zip(report["folds"], folds, ids):
        if got["held_out"] != sid or got["n_test"] != ref["n_test"]:
            raise CheckFailed(f"{report_path}: fold {sid} has the wrong subject or size")
        slack = ref["ties"] / ref["n_test"] + 1e-12
        if abs(got["accuracy"] - ref["accuracy"]) > slack:
            raise CheckFailed(f"{report_path}: fold {sid} accuracy {got['accuracy']} "
                              f"vs reference {ref['accuracy']}")
        if got["auc"] is None or abs(got["auc"] - ref["auc"]) > AUC_TOL:
            raise CheckFailed(f"{report_path}: fold {sid} AUC {got['auc']} "
                              f"vs reference {ref['auc']}")


def summary(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def sweep_reference(sub: Subjects, gammas) -> list[tuple]:
    """Expected ``sweep.csv`` rows of ``loso sha``: (value, metric, (mean, std), tolerance)."""
    t = sub.labels.shape[1]
    rows = []
    for g in gammas:
        folds = loso(sub, "sha", g)
        slack = max(f["ties"] / f["n_test"] for f in folds) + 1e-12
        rows += [(g, "coupling_det", (1.0 - g * t, 0.0), 1e-12),
                 (g, "accuracy", summary([f["accuracy"] for f in folds]), slack),
                 (g, "auc", summary([f["auc"] for f in folds]), AUC_TOL)]
    return rows


def check_sweep(sweep_csv, rows) -> None:
    """Every ``sweep.csv`` row agrees with its LOSO reference."""
    lines = Path(sweep_csv).read_text(encoding="utf-8").splitlines()
    if lines[0] != "kind,value,metric,mean,std" or len(lines) != 1 + len(rows):
        raise CheckFailed(f"{sweep_csv}: unexpected header or row count")
    for line, (g, metric, ref, tol) in zip(lines[1:], rows):
        kind, value, name, mean, std = line.split(",")
        if kind != "gamma" or name != metric or float(value) != g:
            raise CheckFailed(f"{sweep_csv}: row {line!r} out of order")
        if abs(float(mean) - ref[0]) > tol or abs(float(std) - ref[1]) > tol:
            raise CheckFailed(f"{sweep_csv}: {metric} at gamma={g} is "
                              f"({mean}, {std}), reference {ref}")


# --- correlation profiles -------------------------------------------------

def instance_runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    classes = class_of(labels)
    runs, start, current = [], 0, -1
    for t, c in enumerate(list(classes) + [-1]):
        if c != current:
            if current >= 0:
                runs.append((current, start, t))
            start, current = t, c
    return runs


def _zscore_rows(m: np.ndarray) -> np.ndarray:
    m = m - m.mean(axis=-1, keepdims=True)
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def profile(features, labels) -> dict[str, tuple[float, float, int]]:
    """``rho1``..``rho4`` as (mean, std, pairs), one matmul per statistic."""
    runs = instance_runs(labels)
    lengths = {stop - start for _, start, stop in runs}
    if len(lengths) != 1:
        raise CheckFailed("reference assumes equal-length stimulus instances")
    n = len(features)
    upper = np.triu_indices(n, k=1)
    whole = _zscore_rows(np.stack([z.ravel() for z in features]))
    rho1 = np.clip(whole @ whole.T, -1.0, 1.0)[upper]
    blocks = _zscore_rows(np.stack([[z[s:e].ravel() for _, s, e in runs] for z in features]))
    corr = np.clip(np.einsum("aid,bjd->abij", blocks, blocks), -1.0, 1.0)[upper]
    cls = np.array([c for c, _, _ in runs])
    same = cls[:, None] == cls[None, :]
    eye = np.eye(len(runs), dtype=bool)
    out = {"rho1": rho1, "rho2": corr[:, eye], "rho3": corr[:, same & ~eye],
           "rho4": corr[:, ~same]}
    return {k: (*summary(v), int(v.size)) for k, v in out.items()}


def _clusters(values: np.ndarray, k: int) -> list[np.ndarray]:
    """Index groups among the first ``k`` eigenvalues closer than the gap."""
    scale = max(np.abs(values).max(), 1e-300)
    groups, current = [], [0]
    for i in range(1, k):
        if values[i] - values[i - 1] <= CLUSTER_GAP * scale:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return [np.array(g) for g in groups if len(g) > 1]


def correlation_reference(sub: Subjects, method: str, rng: np.random.Generator):
    """(low, high, pairs) per statistic over the shared-space bases allowed."""
    everyone = list(range(len(sub.xs)))
    features, fitted = mapped(sub, method, everyone, everyone)
    base = profile(features, sub.labels)
    ranges = {k: [v[0], v[0], v[1], v[1]] for k, v in base.items()}
    if fitted is not None and method in ("sha", "rha"):
        w, values = fitted
        clusters = _clusters(values, w.shape[1])
        for _ in range(ROTATION_SAMPLES if clusters else 0):
            rotated = w.copy()
            for idx in clusters:
                q, _ = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))
                rotated[:, idx] = w[:, idx] @ q
            template = template_of(sub, method, fix_signs(rotated))
            stats = profile([sub.maps[i] @ template for i in everyone], sub.labels)
            for key, (mean, std, _) in stats.items():
                r = ranges[key]
                r[0], r[1] = min(r[0], mean), max(r[1], mean)
                r[2], r[3] = min(r[2], std), max(r[3], std)
    return {k: (r, base[k][2]) for k, r in ranges.items()}


def check_corr(out_dir, methods, references) -> None:
    """``corr_summary.csv`` and per-method pair counts match the references.

    With a free basis the allowed interval is the sampled range widened by
    half its width on each side, since sampling under-covers the extremes.
    """
    out_dir = Path(out_dir)
    lines = (out_dir / "corr_summary.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "method,metric,mean,std" or len(lines) != 1 + 4 * len(methods):
        raise CheckFailed("corr_summary.csv: unexpected header or row count")
    for line in lines[1:]:
        method, metric, mean, std = line.split(",")
        (lo_m, hi_m, lo_s, hi_s), pairs = references[method][metric]
        for got, lo, hi in ((float(mean), lo_m, hi_m), (float(std), lo_s, hi_s)):
            pad = RHO_TOL + (hi - lo) / 2.0
            if not lo - pad <= got <= hi + pad:
                raise CheckFailed(f"corr {method} {metric}: {got} outside "
                                  f"[{lo}, {hi}] +- {pad:.3g}")
        report = json.loads((out_dir / f"corr_{method}.json").read_text(encoding="utf-8"))
        if report["report"][metric]["pairs"] != pairs:
            raise CheckFailed(f"corr {method} {metric}: pair count differs")


# --- align ----------------------------------------------------------------

def align_reference(manifest) -> list[tuple[str, np.ndarray]]:
    """Per subject, the ridge map that carries ``g.csv`` to ``z_<id>.csv``."""
    ids, xs, labels = load_dataset(manifest)
    _require_all_labeled(labels)
    return [(sid, ridge_map(x, x)) for sid, x in zip(ids, map(standardize, xs))]


def check_align(out_dir, reference) -> None:
    """Each ``z_<id>.csv`` is the ridge map onto ``g.csv``; ``w.csv`` is orthonormal."""
    out_dir = Path(out_dir)
    w = read_csv(out_dir / "w.csv")
    if np.abs(w.T @ w - np.eye(w.shape[1])).max() > ORTHONORMAL_TOL:
        raise CheckFailed("w.csv columns are not orthonormal")
    template = read_csv(out_dir / "g.csv")
    for sid, ridge in reference:
        expected = ridge @ template
        got = read_csv(out_dir / f"z_{sid}.csv")
        if got.shape != expected.shape:
            raise CheckFailed(f"z_{sid}.csv has shape {got.shape}, expected {expected.shape}")
        err = np.abs(got - expected).max() / max(np.abs(expected).max(), 1e-300)
        if err > Z_RTOL:
            raise CheckFailed(f"z_{sid}.csv differs from the ridge map by {err:.3g} (relative)")
