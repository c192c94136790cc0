"""Synthetic multi-subject datasets with planted shared structure.

Each class gets an orthonormal signature in a small latent space; the
latent time course presents the classes round-robin in fixed-length
stimulus instances.  Every subject observes the latent course through its
own voxel embedding (a random orthonormal matrix, or the trivial embedding
into the leading coordinates) plus Gaussian noise.  All randomness derives
from a single seed through named substreams, so a configuration pins the
dataset bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, LabelMatrix, SubjectData, write_json
from .errors import InvalidArgumentError

ROTATIONS = ("orthogonal", "identity")


def substream(seed: int, name: str) -> np.random.Generator:
    """Deterministic RNG stream derived from ``seed`` and a stream name."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    )


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; defaults give 6 subjects, 4 classes, 80 time points."""

    subjects: int = 6
    classes: int = 4
    instances_per_class: int = 4
    instance_length: int = 5
    voxels: int = 50
    noise_sigma: float = 0.5
    rotation: str = "orthogonal"
    seed: int = 0

    def __post_init__(self):
        for name, floor in (("subjects", 2), ("classes", 2),
                            ("instances_per_class", 1), ("instance_length", 1)):
            if getattr(self, name) < floor:
                raise InvalidArgumentError(
                    f"{name} must be >= {floor}, got {getattr(self, name)}"
                )
        if self.voxels < self.classes:
            raise InvalidArgumentError(
                f"voxels ({self.voxels}) must be >= classes ({self.classes})"
            )
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise InvalidArgumentError(
                f"noise_sigma must be a finite value >= 0, got {self.noise_sigma}"
            )
        if self.rotation not in ROTATIONS:
            raise InvalidArgumentError(
                f"rotation must be one of {ROTATIONS}, got {self.rotation!r}"
            )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidArgumentError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )

    @property
    def n_timepoints(self) -> int:
        return self.classes * self.instances_per_class * self.instance_length


@dataclass(frozen=True)
class GroundTruth:
    """What the generator planted: signatures, latent course, per-subject maps."""

    signatures: np.ndarray            # (classes, classes), orthonormal rows
    latent: np.ndarray                # (time points, classes)
    rotations: tuple[np.ndarray, ...]  # per subject, (voxels, classes)


def _random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormal columns with a deterministic sign fix (QR of a Gaussian)."""
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    signs = np.sign(np.diagonal(r)).copy()
    signs[signs == 0] = 1.0
    return q * signs


def generate(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a dataset and its ground truth from a configuration."""
    n_classes = config.classes
    n_t = config.n_timepoints

    signatures = _random_orthonormal(
        substream(config.seed, "signatures"), n_classes, n_classes
    ).T  # orthonormal rows

    class_sequence = np.tile(np.arange(n_classes), config.instances_per_class)
    class_per_t = np.repeat(class_sequence, config.instance_length)
    latent = signatures[class_per_t]

    onehot = np.zeros((n_classes, n_t))
    onehot[class_per_t, np.arange(n_t)] = 1.0
    labels = LabelMatrix(onehot)

    subjects = []
    rotations = []
    for i in range(config.subjects):
        if config.rotation == "identity":
            rot = np.eye(config.voxels, n_classes)
        else:
            rot = _random_orthonormal(
                substream(config.seed, f"rotation:{i}"), config.voxels, n_classes
            )
        data = latent @ rot.T
        if config.noise_sigma > 0:
            noise = substream(config.seed, f"noise:{i}").standard_normal(data.shape)
            data = data + config.noise_sigma * noise
        subjects.append(SubjectData(f"sub{i:02d}", data))
        rotations.append(rot)

    dataset = Dataset(
        tuple(subjects),
        tuple(labels for _ in range(config.subjects)),
        tuple(f"class_{m}" for m in range(n_classes)),
    )
    return dataset, GroundTruth(signatures, latent, tuple(rotations))


def save_ground_truth(truth: GroundTruth, path) -> Path:
    """Write the planted structure as a JSON sidecar."""
    path = Path(path)
    payload = {
        "signatures": truth.signatures.tolist(),
        "latent": truth.latent.tolist(),
        "rotations": [r.tolist() for r in truth.rotations],
    }
    write_json(path, payload)
    return path
