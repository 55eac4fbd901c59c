"""Point cloud containers, KITTI-style scan I/O and synthetic scenes.

File formats:

* scan (``.bin``): little-endian float32 quadruples ``x, y, z, intensity``,
  no header. A file whose byte length is not a multiple of 16 is rejected.
* labels (``.label``): one little-endian uint32 per point; the semantic
  class id is the lower 16 bits, the upper 16 bits carry instance data and
  are ignored on read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TWO_PI = 2.0 * np.pi

# synthetic class ids
SYNTH_GROUND = 0
SYNTH_POLE = 1
SYNTH_BOX = 2
SYNTH_NUM_CLASSES = 3
SYNTH_IGNORE = 255


class FileFormatError(ValueError):
    """Raised when an on-disk scan or label file is malformed."""


@dataclass
class PointCloud:
    """A LiDAR return set: positions, intensities and optional labels."""

    xyz: np.ndarray
    intensity: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {self.xyz.shape}")
        if self.intensity.shape != (self.xyz.shape[0],):
            raise ValueError(
                f"intensity must be ({self.xyz.shape[0]},), got {self.intensity.shape}"
            )
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("xyz contains non-finite values")
        if not np.all(np.isfinite(self.intensity)):
            raise ValueError("intensity contains non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.xyz.shape[0],):
                raise ValueError(
                    f"labels must be ({self.xyz.shape[0]},), got {self.labels.shape}"
                )

    @property
    def n(self) -> int:
        return self.xyz.shape[0]

    def with_labels(self, labels: np.ndarray) -> "PointCloud":
        return PointCloud(self.xyz, self.intensity, labels)


def read_kitti_bin(path) -> PointCloud:
    """Read a KITTI-style ``.bin`` scan into a PointCloud (no labels)."""
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()
    if len(blob) % 16 != 0:
        raise FileFormatError(
            f"{path}: byte length is not a multiple of 16 (x,y,z,intensity float32)"
        )
    data = np.frombuffer(blob, dtype="<f4")
    pts = data.reshape(-1, 4).astype(np.float64)
    if not np.all(np.isfinite(pts)):
        raise FileFormatError(f"{path}: scan contains non-finite values")
    return PointCloud(pts[:, :3], pts[:, 3])


def write_kitti_bin(path, cloud: PointCloud) -> None:
    """Write a PointCloud as little-endian float32 quadruples."""
    out = np.empty((cloud.n, 4), dtype="<f4")
    out[:, :3] = cloud.xyz
    out[:, 3] = cloud.intensity
    out.tofile(os.fspath(path))


def read_raw_label_ids(path) -> np.ndarray:
    """Read a ``.label`` file and return the raw semantic ids (lower 16 bits)."""
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()
    if len(blob) % 4 != 0:
        raise FileFormatError(f"{path}: byte length is not a multiple of 4 (uint32 records)")
    raw = np.frombuffer(blob, dtype="<u4")
    return (raw & 0xFFFF).astype(np.int64)


def read_kitti_labels(path, label_map: "LabelMap") -> np.ndarray:
    """Read a ``.label`` file and remap raw semantic ids to training ids."""
    return label_map.remap(read_raw_label_ids(path))


def write_kitti_labels(path, raw_ids: np.ndarray) -> None:
    """Write raw semantic ids as little-endian uint32 (upper 16 bits zero)."""
    ids = np.asarray(raw_ids)
    if ids.size and (ids.min() < 0 or ids.max() > 0xFFFF):
        raise ValueError("raw label ids must fit in 16 bits")
    ids.astype("<u4").tofile(os.fspath(path))


@dataclass
class LabelMap:
    """Mapping between raw dataset label ids and contiguous training ids.

    ``raw_to_train`` maps raw semantic ids to training ids in ``[0, num_classes)``
    or to ``ignore_id``. Raw ids absent from the mapping decode to ``ignore_id``.
    """

    raw_to_train: dict
    num_classes: int
    ignore_id: int = SYNTH_IGNORE

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if 0 <= self.ignore_id < self.num_classes:
            raise ValueError("ignore_id must lie outside [0, num_classes)")
        lut = np.full(0x10000, self.ignore_id, dtype=np.int64)
        for raw, train in self.raw_to_train.items():
            raw = int(raw)
            train = int(train)
            if not 0 <= raw <= 0xFFFF:
                raise ValueError(f"raw id {raw} does not fit in 16 bits")
            if train != self.ignore_id and not 0 <= train < self.num_classes:
                raise ValueError(f"train id {train} out of range for raw id {raw}")
            lut[raw] = train
        self._lut = lut
        # representative raw id per training id: the smallest raw id mapping to it
        inv = np.zeros(self.num_classes, dtype=np.int64)
        seen = np.zeros(self.num_classes, dtype=bool)
        for raw in sorted(int(r) for r in self.raw_to_train):
            train = int(self.raw_to_train[raw])
            if train != self.ignore_id and not seen[train]:
                inv[train] = raw
                seen[train] = True
        self._inverse = inv
        self._inverse_seen = seen

    def remap(self, raw_ids: np.ndarray) -> np.ndarray:
        raw_ids = np.asarray(raw_ids, dtype=np.int64)
        if raw_ids.size and (raw_ids.min() < 0 or raw_ids.max() > 0xFFFF):
            raise ValueError("raw label ids must fit in 16 bits")
        return self._lut[raw_ids]

    def to_raw(self, train_ids: np.ndarray) -> np.ndarray:
        """Map training ids back to representative raw ids (for writing files)."""
        train_ids = np.asarray(train_ids, dtype=np.int64)
        if train_ids.size and (train_ids.min() < 0 or train_ids.max() >= self.num_classes):
            raise ValueError("train ids out of range")
        if train_ids.size and not self._inverse_seen[np.unique(train_ids)].all():
            raise ValueError("some train ids have no raw id in the mapping")
        return self._inverse[train_ids]


def identity_label_map(num_classes: int, ignore_id: int = SYNTH_IGNORE) -> LabelMap:
    return LabelMap({c: c for c in range(num_classes)}, num_classes, ignore_id)


@dataclass
class SyntheticSceneSpec:
    """Layout parameters for a deterministic synthetic LiDAR scene.

    The radial point density is proportional to 1/rho (uniform draws in
    radius), emulating the falloff of a rotating-beam sensor. Classes:
    ground plane (0), thin vertical poles (1), box-shaped objects (2), plus
    a small fraction of scattered clutter labelled ``SYNTH_IGNORE``.
    Intensity is material-correlated with overlapping per-class ranges.
    """

    seed: int
    num_points: int = 8192
    max_range: float = 50.0
    ground_extent: Optional[float] = None  # default: max_range - 0.5
    pole_count: int = 24
    pole_height: float = 5.0
    pole_radius: float = 0.08
    box_count: int = 16
    box_size: float = 2.0
    ground_fraction: float = 0.55
    pole_fraction: float = 0.20
    noise_fraction: float = 0.02
    inner_radius: float = 2.0
    ground_z_sigma: float = 0.02

    def __post_init__(self):
        if self.ground_extent is None:
            self.ground_extent = self.max_range - 0.5
        if self.num_points < 64:
            raise ValueError("num_points must be at least 64")
        if not 0 < self.ground_extent <= self.max_range:
            raise ValueError("ground_extent must lie in (0, max_range]")
        frac = self.ground_fraction + self.pole_fraction + self.noise_fraction
        if not 0.0 < frac < 1.0:
            raise ValueError("ground/pole/noise fractions must leave room for boxes")
        if self.pole_count < 1 or self.box_count < 1:
            raise ValueError("pole_count and box_count must be positive")
        if self.inner_radius >= self.max_range - 3.0:
            raise ValueError("inner_radius too large for max_range")


def _polar_to_xy(rho, theta):
    return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)


def generate_synthetic_scene(spec: SyntheticSceneSpec) -> PointCloud:
    """Generate a labelled synthetic scene, deterministic in ``spec.seed``.

    Args:
        spec: scene layout; identical specs yield bitwise-identical clouds.

    Returns:
        A labelled PointCloud with classes {ground=0, pole=1, box=2} and
        clutter labelled ``SYNTH_IGNORE``. Every point lies strictly inside
        ``max_range`` (planar radius).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_points
    n_ground = int(round(spec.ground_fraction * n))
    n_pole = int(round(spec.pole_fraction * n))
    n_noise = max(int(round(spec.noise_fraction * n)), 1)
    n_box = n - n_ground - n_pole - n_noise
    if n_box < 1:
        raise ValueError("num_points too small for the requested class fractions")

    # ground plane, uniform in radius so areal density falls off as 1/rho
    rho = rng.uniform(spec.inner_radius, spec.ground_extent, n_ground)
    theta = rng.uniform(-np.pi, np.pi, n_ground)
    gz = rng.normal(0.0, spec.ground_z_sigma, n_ground)
    ground = np.column_stack([_polar_to_xy(rho, theta), gz])

    # poles: thin vertical columns rooted on the ground
    pole_rho = rng.uniform(spec.inner_radius, spec.max_range - 1.0, spec.pole_count)
    pole_theta = rng.uniform(-np.pi, np.pi, spec.pole_count)
    pole_h = spec.pole_height * rng.uniform(0.7, 1.0, spec.pole_count)
    pole_xy = _polar_to_xy(pole_rho, pole_theta)
    which = rng.integers(0, spec.pole_count, n_pole)
    pz = rng.uniform(0.0, pole_h[which])
    pr = spec.pole_radius * np.sqrt(rng.uniform(0.0, 1.0, n_pole))
    pang = rng.uniform(0.0, TWO_PI, n_pole)
    poles = np.column_stack(
        [pole_xy[which, 0] + pr * np.cos(pang), pole_xy[which, 1] + pr * np.sin(pang), pz]
    )

    # boxes: cuboids sitting on the ground, points sampled on visible faces
    sizes = spec.box_size * rng.uniform(0.5, 1.0, (spec.box_count, 3))
    margin = 0.5 * np.hypot(sizes[:, 0], sizes[:, 1]) + 0.1
    box_rho = spec.inner_radius + rng.uniform(0.0, 1.0, spec.box_count) * (
        spec.max_range - margin - spec.inner_radius
    )
    box_theta = rng.uniform(-np.pi, np.pi, spec.box_count)
    box_yaw = rng.uniform(0.0, TWO_PI, spec.box_count)
    box_xy = _polar_to_xy(box_rho, box_theta)
    bw = rng.integers(0, spec.box_count, n_box)
    sx, sy, sz = sizes[bw, 0], sizes[bw, 1], sizes[bw, 2]
    # faces: -x, +x, -y, +y, top; weights proportional to face area
    areas = np.stack([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy], axis=1)
    cum = np.cumsum(areas, axis=1)
    pick = rng.uniform(0.0, 1.0, n_box)[:, None] * cum[:, -1:]
    face = (pick >= cum).sum(axis=1)
    u = rng.uniform(-0.5, 0.5, n_box)
    v = rng.uniform(-0.5, 0.5, n_box)
    lx = np.where(face == 0, -0.5 * sx, np.where(face == 1, 0.5 * sx, u * sx))
    ly = np.where(face == 2, -0.5 * sy, np.where(face == 3, 0.5 * sy, v * sy))
    ly = np.where(face < 2, u * sy, ly)
    lz = np.where(face == 4, 0.5 * sz, v * sz)
    cos_y, sin_y = np.cos(box_yaw[bw]), np.sin(box_yaw[bw])
    bx = box_xy[bw, 0] + cos_y * lx - sin_y * ly
    by = box_xy[bw, 1] + sin_y * lx + cos_y * ly
    boxes = np.column_stack([bx, by, lz + 0.5 * sz])

    # unlabelled clutter
    nrho = rng.uniform(spec.inner_radius, spec.max_range - 0.5, n_noise)
    ntheta = rng.uniform(-np.pi, np.pi, n_noise)
    nz = rng.uniform(-0.5, spec.pole_height, n_noise)
    noise = np.column_stack([_polar_to_xy(nrho, ntheta), nz])

    xyz = np.vstack([ground, poles, boxes, noise])
    labels = np.concatenate(
        [
            np.full(n_ground, SYNTH_GROUND, dtype=np.int64),
            np.full(n_pole, SYNTH_POLE, dtype=np.int64),
            np.full(n_box, SYNTH_BOX, dtype=np.int64),
            np.full(n_noise, SYNTH_IGNORE, dtype=np.int64),
        ]
    )
    # return strength tracks material: asphalt dark, metal poles bright,
    # painted boxes in between; ranges overlap so it stays a soft cue
    intensity = np.concatenate(
        [
            rng.uniform(0.05, 0.35, n_ground),
            rng.uniform(0.65, 0.95, n_pole),
            rng.uniform(0.35, 0.65, n_box),
            rng.uniform(0.0, 1.0, n_noise),
        ]
    )
    perm = rng.permutation(n)
    return PointCloud(xyz[perm], intensity[perm], labels[perm])
