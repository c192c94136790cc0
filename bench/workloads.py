"""The benchmark's workloads: dataset shape, timed commands, expected counts.

Each workload is one ``synth`` dataset and the CLI commands a user runs on
it, back to back.  :meth:`Workload.expected` gives per-command counts worked
out by hand from the algorithms, not measured.  With ``S`` subjects:

* ``loso`` fits one model per fold on ``S - 1`` subjects (one SVD each,
  inside ``regularized_projector``) and maps all ``S`` subjects (one SVD
  each): ``S (2S - 1)`` SVDs, 496 at ``S = 16``.  Normalization is per
  subject, so ``sha`` factors ``S`` label-coupled matrices plus the ``S``
  data matrices it maps (32 distinct inputs), and the ``rha`` fit factors
  the very matrices it maps (16).
* ``corr`` fits and maps once per method (``none`` makes no SVD; ``sha_r``
  adds one for its template) and correlates ``S (S - 1) / 2`` subject pairs
  per method over ``n`` instances, ``m`` per class: ``1 + n + n (m - 1) +
  n (n - m)`` ``pearson`` calls per pair, 28,784 in all at ``S = 8``.
* ``sweep --kind gamma`` is one ``loso sha`` per value; only the
  label-coupled inputs change with gamma.
* ``align --method rha`` fits once and maps every subject through the
  matrices the fit factored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

GAMMAS = (0.0, 0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subjects: int
    classes: int
    instances: int
    instance_length: int
    voxels: int
    # (label, CLI arguments before --data/--out), run in this order per pass.
    commands: tuple[tuple[str, tuple[str, ...]], ...]

    def synth_args(self) -> list[str]:
        return ["synth", "--subjects", str(self.subjects), "--classes", str(self.classes),
                "--instances", str(self.instances),
                "--instance-length", str(self.instance_length),
                "--voxels", str(self.voxels)]

    def expected(self, label: str) -> dict:
        """Hand-computed counts for one command of this workload."""
        s, m = self.subjects, self.instances
        n = self.classes * m
        svd, distinct, fits, maps, pearson = {
            "loso_sha": (s * (2 * s - 1), 2 * s, s, s * s, 0),
            "loso_rha": (s * (2 * s - 1), s, s, s * s, 0),
            "corr": (2 * s + 2 * s + 2 * s + 1, 2 * s + 1, 4, 4 * s,
                     4 * s * (s - 1) // 2 * (1 + n + n * (m - 1) + n * (n - m))),
            "sweep": (len(GAMMAS) * s * (2 * s - 1), s + len(GAMMAS) * s,
                      len(GAMMAS) * s, len(GAMMAS) * s * s, 0),
            "align_rha": (2 * s, s, 1, s, 0),
        }[label]
        return {"linalg.truncated_svd_calls": svd, "linalg.svd_distinct": distinct,
                "alignment.fit_calls": fits, "alignment.map_subject_calls": maps,
                "metrics.pearson_calls": pearson}

    def tiny(self) -> "Workload":
        """The same commands on a dataset small enough for a self-test."""
        return replace(self, subjects=4, instances=2, instance_length=3,
                       voxels=max(self.classes, self.voxels // 10))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="loso-wide",
            why="loso sha then loso rha on wide subjects (V = 4T): per-fold SVDs do "
                "the work and metrics does none, so a correlation change reads flat",
            subjects=16, classes=4, instances=2, instance_length=10, voxels=320,
            commands=(("loso_sha", ("loso", "--method", "sha")),
                      ("loso_rha", ("loso", "--method", "rha"))),
        ),
        Workload(
            name="many-small",
            why="corr over all methods (29k Python-level pearson calls) then an "
                "8-point gamma sweep of loso on tiny subjects: per-call overhead, "
                "little BLAS work",
            subjects=8, classes=4, instances=4, instance_length=5, voxels=50,
            commands=(("corr", ("corr",)),
                      ("sweep", ("sweep", "--kind", "gamma", "--values",
                                 ",".join(str(g) for g in GAMMAS)))),
        ),
        Workload(
            name="align-long",
            why="align rha on long series (T = 600): dense T x T assembly and "
                "eigensolve, then 0.9M floats of CSV out; no folds, no correlation",
            subjects=6, classes=4, instances=15, instance_length=10, voxels=250,
            commands=(("align_rha", ("align", "--method", "rha")),),
        ),
    )
}
