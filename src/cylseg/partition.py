"""Cylindrical and cubic voxel partitions of LiDAR point clouds.

The cylindrical grid bins points by (radius, azimuth, height); azimuth
always covers the full circle [-pi, pi). Points outside the radial or
height range are clamped into the boundary bins, so every point receives a
cell. Cell index along an axis is ``floor((v - v_min) / delta_v)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .metrics import ConfusionMatrix, compute_miou
from .pointcloud import TWO_PI, PointCloud
from .sparse import (
    SparseTensor,
    as_features,
    check_shape,
    in_lanes,
    key_coords,
    occupied_keys,
)


def _cyl_columns(xyz) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x, y, theta and z of (..., 3) positions, as four float64 arrays:
    radius is left to the caller, which makes it from x and y."""
    xyz = np.asarray(xyz, dtype=np.float64)
    x, y = xyz[..., 0], xyz[..., 1]
    theta = np.asarray(np.arctan2(y, x))
    # arctan2 returns values in [-pi, pi]; fold the single closed endpoint
    theta[theta >= np.pi] -= TWO_PI
    return x, y, theta, xyz[..., 2]


def cart_to_cyl(xyz: np.ndarray) -> np.ndarray:
    """(x, y, z) -> (rho, theta, z) with rho >= 0 and theta in [-pi, pi)."""
    x, y, theta, z = _cyl_columns(xyz)
    return np.stack([np.hypot(x, y), theta, z], axis=-1)


def _bin_axis(values, lo, delta, count, out=None):
    """``floor((v - lo) / delta)`` clamped to [0, count - 1] while still a
    float: past 2^63 the int64 cast would wrap to bin 0. The cast truncates,
    which on the clamped values is floor; NaN stays NaN. ``out`` is a float64
    scratch array for ``v - lo``, which may be ``values`` itself."""
    idx = np.subtract(values, lo, out=out)
    idx /= delta
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, count - 1, out=idx)
    return idx.astype(np.int64)


# r = sqrt(x*x + y*y) is within a few ulps of glibc's hypot (itself at most
# 1 ulp off) wherever x*x + y*y neither overflows nor loses all precision to
# underflow, which r in [2^-400, 2^400] ensures. Then hypot lies between
# r * (1 - 2^-48) and r * (1 + 2^-48), and as _bin_axis is monotone in its
# input, where those two bound bins agree hypot's bin is that bin too.
_RADIUS_SLACK = 2.0 ** -48
_RADIUS_RANGE = (2.0 ** -400, 2.0 ** 400)


def _radial_bins(x, y, lo, delta, count):
    """``_bin_axis(np.hypot(x, y), ...)``, calling ``hypot`` only on the
    points near a bin edge, at NaN, or outside ``_RADIUS_RANGE``."""
    r = np.multiply(x, x)
    r += y * y
    np.sqrt(r, out=r)
    odd = ~((r >= _RADIUS_RANGE[0]) & (r <= _RADIUS_RANGE[1]))  # NaN compares false
    high = r * (1 + _RADIUS_SLACK)
    high = _bin_axis(high, lo, delta, count, out=high)
    r *= 1 - _RADIUS_SLACK
    bins = _bin_axis(r, lo, delta, count, out=r)
    del r
    odd |= bins != high
    del high
    if odd.any():
        bins[odd] = _bin_axis(np.hypot(x[odd], y[odd]), lo, delta, count)
    return bins


class _Grid:
    """What the cylindrical and cubic grids share. A subclass defines its
    ranges, ``resolution``, ``lowers``, ``uppers``, ``_axis_bins`` (the
    per-axis cell indices of some positions, each value column dropped as
    soon as its axis is binned) and ``columns`` (the planar distance of each
    group of cells that ``stats`` bins together)."""

    def __post_init__(self):
        object.__setattr__(self, "resolution", check_shape(self.resolution))

    @property
    def deltas(self) -> np.ndarray:
        return (self.uppers - self.lowers) / np.array(self.resolution, dtype=np.float64)

    @property
    def num_cells(self) -> int:
        h, w, l = self.resolution
        return h * w * l

    def _axes(self):
        """(lower, delta, count) of each axis."""
        return zip(self.lowers, self.deltas, self.resolution)

    def bin_points(self, xyz: np.ndarray) -> np.ndarray:
        """(N, 3) cell coordinates of the positions."""
        return np.stack(self._axis_bins(xyz), axis=1)

    def cell_keys(self, xyz: np.ndarray) -> np.ndarray:
        """Flat cell index ``(h * W + w) * L + l`` of each position, made in
        place from the per-axis bins."""
        h, w, l = self._axis_bins(xyz)
        _, width, length = self.resolution
        h *= width
        h += w
        h *= length
        h += l
        return h

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """Axis-space centers of the given cells."""
        return self.lowers + (np.asarray(cells, dtype=np.float64) + 0.5) * self.deltas


@dataclass(frozen=True)
class CylGridSpec(_Grid):
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
        super().__post_init__()

    @property
    def lowers(self) -> np.ndarray:
        return np.array([self.rho_range[0], -np.pi, self.z_range[0]])

    @property
    def uppers(self) -> np.ndarray:
        return np.array([self.rho_range[1], np.pi, self.z_range[1]])

    def _axis_bins(self, xyz: np.ndarray) -> List[np.ndarray]:
        x, y, theta, z = _cyl_columns(xyz)
        rho_axis, theta_axis, z_axis = self._axes()
        bins = [_radial_bins(x, y, *rho_axis), _bin_axis(theta, *theta_axis, out=theta)]
        del theta
        return bins + [_bin_axis(z, *z_axis)]

    def columns(self) -> Tuple[np.ndarray, int]:
        """Each radial ring's planar distance (its centre radius) and the
        cells a ring holds: flat key ``k`` lies in ring ``k // cells``."""
        h, w, l = self.resolution
        return self.rho_range[0] + (np.arange(h) + 0.5) * self.deltas[0], w * l


@dataclass(frozen=True)
class CubicGridSpec(_Grid):
    """Axis-aligned Cartesian grid used as the comparison partition."""

    x_range: Tuple[float, float] = (-50.0, 50.0)
    y_range: Tuple[float, float] = (-50.0, 50.0)
    z_range: Tuple[float, float] = (-4.0, 2.0)
    resolution: Tuple[int, int, int] = (240, 240, 96)

    def __post_init__(self):
        for rng in (self.x_range, self.y_range, self.z_range):
            if rng[1] <= rng[0]:
                raise ValueError(f"bad axis range {rng}")
        super().__post_init__()

    @property
    def lowers(self) -> np.ndarray:
        return np.array([self.x_range[0], self.y_range[0], self.z_range[0]])

    @property
    def uppers(self) -> np.ndarray:
        return np.array([self.x_range[1], self.y_range[1], self.z_range[1]])

    def _axis_bins(self, xyz: np.ndarray) -> List[np.ndarray]:
        xyz = np.asarray(xyz, dtype=np.float64)
        return [_bin_axis(xyz[:, i], *axis) for i, axis in enumerate(self._axes())]

    def columns(self) -> Tuple[np.ndarray, int]:
        """Each x-y column's planar distance (of its centre) and the cells a
        column holds: flat key ``k`` lies in column ``k // cells``."""
        nx, ny, nz = self.resolution
        xc = self.x_range[0] + (np.arange(nx) + 0.5) * self.deltas[0]
        yc = self.y_range[0] + (np.arange(ny) + 0.5) * self.deltas[1]
        return np.hypot(xc[:, None], yc[None, :]).ravel(), nz


DEFAULT_CYL_GRID = CylGridSpec()
# Equal total cell count (240*240*96 = 480*360*32) over the same extent.
DEFAULT_CUBIC_GRID = CubicGridSpec()
DEFAULT_DISTANCE_EDGES = tuple(float(e) for e in range(0, 55, 5))


@dataclass
class VoxelMapping:
    """Assignment of points to occupied cells.

    ``cells`` lists the occupied cell coordinates in ascending flat-index
    order; ``point_site`` gives each point's row in that list.
    """

    point_site: np.ndarray
    cells: np.ndarray
    spatial_shape: Tuple[int, int, int]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @functools.cached_property
    def grouping(self):
        """The points grouped by cell, made once per mapping: the stable
        argsort of ``point_site``, each cell's point count, and where each
        cell's run of points starts in that order.

        A stable sort's permutation is unique, and numpy sorts 16-bit keys
        stably by radix: so the points are sorted by the low 16 bits of their
        site, then, above 2^16 cells, stably by the high 16 bits of the sites
        in that order (sites stay below ``MAX_CELLS`` = 2^28)."""
        site = self.point_site
        order = np.argsort(site.astype(np.uint16), kind="stable")
        if self.num_cells > 1 << 16:
            high = (site.take(order) >> 16).astype(np.uint16)
            order = order.take(np.argsort(high, kind="stable"))
        counts = np.bincount(site, minlength=self.num_cells)
        return order, counts, np.cumsum(counts) - counts


def _raw_positions(cloud) -> np.ndarray:
    """The (N, 3) positions of a PointCloud or a raw array, in their dtype.
    A raw array must be finite; a PointCloud checked its own when made."""
    if isinstance(cloud, PointCloud):
        return cloud.xyz
    xyz = np.asarray(cloud)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"expected (N, 3) positions, got {xyz.shape}")
    if not np.isfinite(xyz).all():
        raise ValueError("positions contain non-finite values")
    return xyz


def _widened(xyz: np.ndarray) -> np.ndarray:
    """(N, 3) positions as float64. Any other dtype is widened into one
    contiguous array per axis: a float32 scan's strided (N, 3) view widens
    several times faster that way."""
    return xyz if xyz.dtype == np.float64 else np.array(xyz.T, dtype=np.float64, order="C").T


def as_positions(cloud) -> np.ndarray:
    """The positions of a PointCloud or a raw array, as (N, 3) float64."""
    return _widened(_raw_positions(cloud))


def assign_cells(cloud, grid) -> VoxelMapping:
    """Map every point of ``cloud`` to a cell of ``grid``.

    Out-of-range points are clamped into the boundary bins, so the mapping
    is total. Accepts a PointCloud or a raw (N, 3) array, which must be
    finite: a NaN point has no cell, and an infinite one is no far point.
    """
    flat = grid.cell_keys(as_positions(cloud))
    keys, rank = occupied_keys(flat, grid.num_cells)
    point_site = rank[flat].astype(np.int64)
    return VoxelMapping(point_site, key_coords(keys, grid.resolution), tuple(grid.resolution))


def scatter_features(point_features: np.ndarray, mapping: VoxelMapping) -> SparseTensor:
    """Reduce per-point features into their cells by elementwise maximum,
    in their dtype (float32 stays float32, anything else becomes float64).

    Each cell's points are reduced in storage order; every cell of a mapping
    holds at least one point."""
    feats = as_features(point_features)
    if feats.ndim != 2 or feats.shape[0] != mapping.point_site.shape[0]:
        raise ValueError("feature rows must match the mapped point count")
    order, _, starts = mapping.grouping
    out = np.maximum.reduceat(feats.take(order, axis=0), starts, axis=0)
    return SparseTensor(mapping.cells, out, mapping.spatial_shape)


def scatter_max_winners(
    point_features: np.ndarray, mapping: VoxelMapping, cell_max: np.ndarray
) -> np.ndarray:
    """Index of the point supplying each cell's maximum, per channel, given
    the maxima ``cell_max`` that ``scatter_features`` pooled.

    Returns an (M, C) integer array. Ties (``-0.0`` equals ``0.0``) resolve
    to the point latest in storage order, which only pins determinism.
    """
    order, counts, starts = mapping.grouping
    grouped = as_features(point_features).take(order, axis=0)
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
    keys = mapping.point_site[valid] * num_classes + labels[valid]
    counts = np.bincount(keys, minlength=mapping.num_cells * num_classes)
    counts = counts.reshape(mapping.num_cells, num_classes)
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


def _count_in_bins(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """How many ``values`` fall in each half-open bin [edges[b], edges[b+1]);
    values below ``edges[0]`` or at or above ``edges[-1]`` count nowhere."""
    slot = np.searchsorted(np.asarray(edges, dtype=np.float64), values, side="right")
    return np.bincount(slot, minlength=len(edges) + 1)[1:-1]


@dataclass
class OccupancyRow:
    scheme: str
    distance_lo: float
    distance_hi: float
    nonempty_proportion: Optional[float]


# Points a stats lane widens and bins at a time: a column of 2^16 float64s
# (512 KiB) stays in a typical L2 cache, where a 524k-point scan's does not.
_STATS_CHUNK = 1 << 16


def occupancy_by_distance(
    clouds: Sequence[Union[PointCloud, Callable[[], PointCloud]]],
    cyl_grid: CylGridSpec = DEFAULT_CYL_GRID,
    cubic_grid: CubicGridSpec = DEFAULT_CUBIC_GRID,
    distance_bins: Sequence[float] = DEFAULT_DISTANCE_EDGES,
) -> List[OccupancyRow]:
    """Proportion of non-empty cells per planar-distance bin, per scheme.

    Each cell contributes to the bin containing its center's planar
    distance from the origin; the reported proportion is averaged over the
    input clouds. Bins containing no cells report ``None``. The clouds are
    binned one per CPU (``in_lanes``) and summed in their order, so the
    rows do not depend on how many CPUs there are.

    Each item is a cloud (or raw (N, 3) positions) or a function of no
    arguments returning one, which its lane calls: a lane then holds one
    scan at a time, and no more than ``_STATS_CHUNK`` of its points widened.
    """
    edges = np.asarray(distance_bins, dtype=np.float64)
    if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
            or np.any(np.diff(edges) <= 0)):
        raise ValueError("distance_bins must be at least two increasing finite edges")
    if not clouds:
        raise ValueError("need at least one cloud")
    schemes = [(scheme, grid, *grid.columns())
               for scheme, grid in (("cylindrical", cyl_grid), ("cubic", cubic_grid))]

    def occupied(item):
        xyz = _raw_positions(item() if callable(item) else item)
        seen = [np.zeros(grid.num_cells, dtype=bool) for _, grid, _, _ in schemes]
        for lo in range(0, len(xyz), _STATS_CHUNK):
            part = _widened(xyz[lo:lo + _STATS_CHUNK])  # once, for both grids
            for table, (_, grid, _, _) in zip(seen, schemes):
                table[grid.cell_keys(part)] = True
        return [_count_in_bins(dist[np.flatnonzero(table) // cells], edges)
                for table, (_, _, dist, cells) in zip(seen, schemes)]

    per_cloud = in_lanes(occupied, clouds)
    rows = []
    for i, (scheme, _, dist, cells) in enumerate(schemes):
        totals = _count_in_bins(dist, edges) * cells
        nonzero = totals > 0
        acc = np.zeros(len(edges) - 1, dtype=np.float64)
        for occ in per_cloud:
            acc[nonzero] += occ[i][nonzero] / totals[nonzero]
        acc /= len(clouds)
        for b in range(len(edges) - 1):
            prop = float(acc[b]) if totals[b] > 0 else None
            rows.append(OccupancyRow(scheme, float(edges[b]), float(edges[b + 1]), prop))
    return rows
