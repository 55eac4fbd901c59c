"""Cylindrical and cubic voxel partitions of LiDAR point clouds.

The cylindrical grid bins points by (radius, azimuth, height); azimuth
always covers the full circle [-pi, pi). Points outside the radial or
height range are clamped into the boundary bins, so every point receives a
cell. Cell index along an axis is ``floor((v - v_min) / delta_v)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import ConfusionMatrix, compute_miou
from .pointcloud import PointCloud
from .sparse import SparseTensor

TWO_PI = 2.0 * np.pi


def wrap_angle(theta):
    """Normalize angles into [-pi, pi). Adding 2*pi never changes the result
    beyond floating round-off."""
    theta = np.asarray(theta, dtype=np.float64)
    return theta - TWO_PI * np.floor((theta + np.pi) / TWO_PI)


def cart_to_cyl(xyz: np.ndarray) -> np.ndarray:
    """(x, y, z) -> (rho, theta, z) with rho >= 0 and theta in [-pi, pi)."""
    xyz = np.asarray(xyz, dtype=np.float64)
    rho = np.hypot(xyz[..., 0], xyz[..., 1])
    theta = np.arctan2(xyz[..., 1], xyz[..., 0])
    # arctan2 returns values in [-pi, pi]; fold the single closed endpoint
    theta = np.where(theta >= np.pi, theta - TWO_PI, theta)
    return np.stack([rho, theta, xyz[..., 2]], axis=-1)


def cyl_to_cart(cyl: np.ndarray) -> np.ndarray:
    cyl = np.asarray(cyl, dtype=np.float64)
    rho, theta = cyl[..., 0], cyl[..., 1]
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), cyl[..., 2]], axis=-1)


def _bin_axis(values, lo, delta, count):
    idx = np.floor((values - lo) / delta).astype(np.int64)
    return np.clip(idx, 0, count - 1)


@dataclass(frozen=True)
class CylGridSpec:
    """Cylindrical grid: radius/height ranges and (radius, azimuth, height)
    bin counts. Azimuth spans [-pi, pi) implicitly."""

    rho_range: Tuple[float, float] = (0.0, 50.0)
    z_range: Tuple[float, float] = (-4.0, 2.0)
    resolution: Tuple[int, int, int] = (480, 360, 32)

    def __post_init__(self):
        if self.rho_range[0] < 0 or self.rho_range[1] <= self.rho_range[0]:
            raise ValueError(f"bad radius range {self.rho_range}")
        if self.z_range[1] <= self.z_range[0]:
            raise ValueError(f"bad height range {self.z_range}")
        if any(int(r) < 1 for r in self.resolution):
            raise ValueError(f"bad resolution {self.resolution}")
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))

    @property
    def lowers(self) -> np.ndarray:
        return np.array([self.rho_range[0], -np.pi, self.z_range[0]])

    @property
    def uppers(self) -> np.ndarray:
        return np.array([self.rho_range[1], np.pi, self.z_range[1]])

    @property
    def deltas(self) -> np.ndarray:
        return (self.uppers - self.lowers) / np.array(self.resolution, dtype=np.float64)

    @property
    def num_cells(self) -> int:
        h, w, l = self.resolution
        return h * w * l

    def axis_values(self, xyz: np.ndarray) -> np.ndarray:
        return cart_to_cyl(xyz)

    def bin_points(self, xyz: np.ndarray) -> np.ndarray:
        values = self.axis_values(xyz)
        lows, dels = self.lowers, self.deltas
        cols = [
            _bin_axis(values[:, a], lows[a], dels[a], self.resolution[a]) for a in range(3)
        ]
        return np.stack(cols, axis=1)

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """Axis-space (rho, theta, z) centers of the given cells."""
        return self.lowers + (np.asarray(cells, dtype=np.float64) + 0.5) * self.deltas

    def radial_cell_volume(self, h) -> np.ndarray:
        """Volume of a cell in radius bin h: (dtheta/2)(rho_out^2 - rho_in^2) dz."""
        h = np.asarray(h, dtype=np.float64)
        d_rho, d_theta, d_z = self.deltas
        r_in = self.rho_range[0] + h * d_rho
        r_out = r_in + d_rho
        return 0.5 * d_theta * (r_out**2 - r_in**2) * d_z

    def cell_planar_distance(self, cells: np.ndarray) -> np.ndarray:
        """Planar distance of each cell's center from the origin (= its
        center radius)."""
        cells = np.asarray(cells)
        return self.rho_range[0] + (cells[:, 0] + 0.5) * self.deltas[0]

    def distance_cell_counts(self, edges: np.ndarray) -> np.ndarray:
        h, w, l = self.resolution
        centers = self.rho_range[0] + (np.arange(h) + 0.5) * self.deltas[0]
        bins = _bin_by_edges(centers, edges)
        counts = np.zeros(len(edges) - 1, dtype=np.int64)
        hit = bins >= 0
        np.add.at(counts, bins[hit], w * l)
        return counts


@dataclass(frozen=True)
class CubicGridSpec:
    """Axis-aligned Cartesian grid used as the comparison partition."""

    x_range: Tuple[float, float] = (-50.0, 50.0)
    y_range: Tuple[float, float] = (-50.0, 50.0)
    z_range: Tuple[float, float] = (-4.0, 2.0)
    resolution: Tuple[int, int, int] = (240, 240, 96)

    def __post_init__(self):
        for rng in (self.x_range, self.y_range, self.z_range):
            if rng[1] <= rng[0]:
                raise ValueError(f"bad axis range {rng}")
        if any(int(r) < 1 for r in self.resolution):
            raise ValueError(f"bad resolution {self.resolution}")
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))

    @property
    def lowers(self) -> np.ndarray:
        return np.array([self.x_range[0], self.y_range[0], self.z_range[0]])

    @property
    def uppers(self) -> np.ndarray:
        return np.array([self.x_range[1], self.y_range[1], self.z_range[1]])

    @property
    def deltas(self) -> np.ndarray:
        return (self.uppers - self.lowers) / np.array(self.resolution, dtype=np.float64)

    @property
    def num_cells(self) -> int:
        h, w, l = self.resolution
        return h * w * l

    def axis_values(self, xyz: np.ndarray) -> np.ndarray:
        return np.asarray(xyz, dtype=np.float64)

    def bin_points(self, xyz: np.ndarray) -> np.ndarray:
        values = self.axis_values(xyz)
        lows, dels = self.lowers, self.deltas
        cols = [
            _bin_axis(values[:, a], lows[a], dels[a], self.resolution[a]) for a in range(3)
        ]
        return np.stack(cols, axis=1)

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        return self.lowers + (np.asarray(cells, dtype=np.float64) + 0.5) * self.deltas

    def cell_planar_distance(self, cells: np.ndarray) -> np.ndarray:
        centers = self.cell_centers(cells)
        return np.hypot(centers[:, 0], centers[:, 1])

    def distance_cell_counts(self, edges: np.ndarray) -> np.ndarray:
        nx, ny, nz = self.resolution
        xc = self.x_range[0] + (np.arange(nx) + 0.5) * self.deltas[0]
        yc = self.y_range[0] + (np.arange(ny) + 0.5) * self.deltas[1]
        dist = np.hypot(xc[:, None], yc[None, :]).ravel()
        bins = _bin_by_edges(dist, edges)
        counts = np.zeros(len(edges) - 1, dtype=np.int64)
        hit = bins >= 0
        np.add.at(counts, bins[hit], nz)
        return counts


DEFAULT_CYL_GRID = CylGridSpec()
# Equal total cell count (240*240*96 = 480*360*32) over the same extent.
DEFAULT_CUBIC_GRID = CubicGridSpec()
DEFAULT_DISTANCE_EDGES = tuple(float(e) for e in range(0, 55, 5))


@dataclass
class VoxelMapping:
    """Assignment of points to occupied cells.

    ``cells`` lists the occupied cell coordinates in ascending flat-index
    order; ``point_site`` gives each point's row in that list, ``point_cell``
    its flat cell index, and ``cell_points[m]`` the indices of the points in
    cell m.
    """

    point_cell: np.ndarray
    point_site: np.ndarray
    cells: np.ndarray
    cell_points: List[np.ndarray]
    spatial_shape: Tuple[int, int, int]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]


def assign_cells(cloud, grid) -> VoxelMapping:
    """Map every point of ``cloud`` to a cell of ``grid``.

    Out-of-range points are clamped into the boundary bins, so the mapping
    is total. Accepts a PointCloud or a raw (N, 3) array.
    """
    xyz = cloud.xyz if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"expected (N, 3) positions, got {xyz.shape}")
    res = grid.resolution
    cells3 = grid.bin_points(xyz)
    flat = (cells3[:, 0] * res[1] + cells3[:, 1]) * res[2] + cells3[:, 2]
    uniq, point_site = np.unique(flat, return_inverse=True)
    cells = np.stack(np.unravel_index(uniq, res), axis=1).astype(np.int64)
    if len(uniq):
        order = np.argsort(point_site, kind="stable")
        counts = np.bincount(point_site, minlength=len(uniq))
        cell_points = np.split(order, np.cumsum(counts)[:-1])
    else:
        cell_points = []
    return VoxelMapping(flat, point_site.astype(np.int64), cells, cell_points, tuple(res))


def scatter_features(
    point_features: np.ndarray, mapping: VoxelMapping, grid=None
) -> SparseTensor:
    """Reduce per-point features into their cells by elementwise maximum."""
    feats = np.asarray(point_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != mapping.point_site.shape[0]:
        raise ValueError("feature rows must match the mapped point count")
    if grid is not None and tuple(grid.resolution) != tuple(mapping.spatial_shape):
        raise ValueError("grid does not match the mapping's spatial shape")
    out = np.full((mapping.num_cells, feats.shape[1]), -np.inf)
    np.maximum.at(out, mapping.point_site, feats)
    return SparseTensor(mapping.cells, out, mapping.spatial_shape)


def scatter_max_winners(point_features: np.ndarray, mapping: VoxelMapping) -> np.ndarray:
    """Index of the point supplying each cell's maximum, per channel.

    Returns an (M, C) integer array. Ties (``-0.0`` equals ``0.0``) resolve
    to the point latest in storage order, which only pins determinism.
    """
    feats = np.asarray(point_features, dtype=np.float64)
    order = np.argsort(mapping.point_site, kind="stable")
    counts = np.bincount(mapping.point_site, minlength=mapping.num_cells)
    starts = np.cumsum(counts) - counts
    grouped = feats[order]
    cell_max = np.maximum.reduceat(grouped, starts, axis=0)
    rows = np.arange(len(order))[:, None]
    is_max = grouped == np.repeat(cell_max, counts, axis=0)
    return order[np.maximum.reduceat(np.where(is_max, rows, -1), starts, axis=0)]


def encode_cell_labels(
    mapping: VoxelMapping,
    point_labels: np.ndarray,
    mode: str,
    num_classes: int,
    ignore_id: int,
) -> np.ndarray:
    """Vote a label per occupied cell.

    ``majority`` picks the most frequent non-ignore label, ``minority`` the
    least frequent among those present; ties resolve to the smaller class
    id. Cells containing only ignore-labelled points get ``ignore_id``.
    """
    if mode not in ("majority", "minority"):
        raise ValueError(f"unknown encoding mode {mode!r}")
    labels = np.asarray(point_labels, dtype=np.int64)
    if labels.shape != mapping.point_site.shape:
        raise ValueError("labels must match the mapped point count")
    valid = labels != ignore_id
    if valid.any() and (labels[valid].min() < 0 or labels[valid].max() >= num_classes):
        raise ValueError("labels out of range")
    counts = np.zeros((mapping.num_cells, num_classes), dtype=np.int64)
    np.add.at(counts, (mapping.point_site[valid], labels[valid]), 1)
    any_valid = counts.sum(axis=1) > 0
    if mode == "majority":
        encoded = np.argmax(counts, axis=1)  # first max = smallest id
    else:
        masked = np.where(counts > 0, counts, np.iinfo(np.int64).max)
        encoded = np.argmin(masked, axis=1)  # first min = smallest id
    return np.where(any_valid, encoded, ignore_id).astype(np.int64)


def encoding_upper_bound_miou(
    cloud: PointCloud, grid, mode: str, num_classes: int, ignore_id: int
) -> float:
    """mIoU of predicting every point as its cell's encoded label.

    This bounds what any model running on the voxelized representation can
    achieve under the given vote scheme.
    """
    if cloud.labels is None:
        raise ValueError("cloud has no labels")
    if not np.any(cloud.labels != ignore_id):
        raise ValueError("cloud has no non-ignore labels")
    mapping = assign_cells(cloud, grid)
    encoded = encode_cell_labels(mapping, cloud.labels, mode, num_classes, ignore_id)
    pred = encoded[mapping.point_site]
    cm = ConfusionMatrix(num_classes, ignore_id)
    cm.update(cloud.labels, pred)
    _, miou = compute_miou(cm)
    return miou


# ---------------------------------------------------------------------------
# occupancy statistics


def _bin_by_edges(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Half-open binning: bin b covers [edges[b], edges[b+1]). Outside -> -1."""
    edges = np.asarray(edges, dtype=np.float64)
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[(values < edges[0]) | (values >= edges[-1])] = -1
    return idx


@dataclass
class OccupancyRow:
    scheme: str
    distance_lo: float
    distance_hi: float
    nonempty_proportion: Optional[float]


def occupancy_by_distance(
    clouds: Sequence[PointCloud],
    cyl_grid: CylGridSpec = DEFAULT_CYL_GRID,
    cubic_grid: CubicGridSpec = DEFAULT_CUBIC_GRID,
    distance_bins: Sequence[float] = DEFAULT_DISTANCE_EDGES,
) -> List[OccupancyRow]:
    """Proportion of non-empty cells per planar-distance bin, per scheme.

    Each cell contributes to the bin containing its center's planar
    distance from the origin; the reported proportion is averaged over the
    input clouds. Bins containing no cells report ``None``.
    """
    edges = np.asarray(distance_bins, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("distance_bins must be at least two increasing edges")
    if not clouds:
        raise ValueError("need at least one cloud")
    rows = []
    for scheme, grid in (("cylindrical", cyl_grid), ("cubic", cubic_grid)):
        totals = grid.distance_cell_counts(edges)
        acc = np.zeros(len(edges) - 1, dtype=np.float64)
        for cloud in clouds:
            mapping = assign_cells(cloud, grid)
            bins = _bin_by_edges(grid.cell_planar_distance(mapping.cells), edges)
            occ = np.zeros(len(edges) - 1, dtype=np.int64)
            hit = bins >= 0
            np.add.at(occ, bins[hit], 1)
            nonzero = totals > 0
            acc[nonzero] += occ[nonzero] / totals[nonzero]
        acc /= len(clouds)
        for b in range(len(edges) - 1):
            prop = float(acc[b]) if totals[b] > 0 else None
            rows.append(OccupancyRow(scheme, float(edges[b]), float(edges[b + 1]), prop))
    return rows


def write_occupancy_csv(rows: Sequence[OccupancyRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "distance_lo", "distance_hi", "nonempty_proportion"])
        for row in rows:
            prop = "" if row.nonempty_proportion is None else repr(row.nonempty_proportion)
            writer.writerow([row.scheme, row.distance_lo, row.distance_hi, prop])
