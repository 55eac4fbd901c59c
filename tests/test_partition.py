import csv
import math
import os
import warnings

import numpy as np
import pytest

from cylseg.cli import main
from cylseg.config import load_config
from cylseg.partition import (
    DEFAULT_CUBIC_GRID,
    DEFAULT_CYL_GRID,
    CubicGridSpec,
    CylGridSpec,
    assign_cells,
    cart_to_cyl,
    encode_cell_labels,
    encoding_upper_bound_miou,
    occupancy_by_distance,
    scatter_features,
    scatter_max_winners,
    _count_in_bins,
)
from cylseg.pointcloud import (
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_kitti_bin,
    write_kitti_bin,
)
from cylseg.sparse import MAX_CELLS
from helpers import cell_points, traced_memory


def _cyl_to_cart(cyl):
    """(rho, theta, z) -> (x, y, z), the inverse of ``cart_to_cyl``."""
    cyl = np.asarray(cyl, dtype=np.float64)
    rho, theta = cyl[..., 0], cyl[..., 1]
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), cyl[..., 2]], axis=-1)


def _point_keys(mapping):
    """Each point's flat cell key, from the cell of its site."""
    return np.ravel_multi_index(mapping.cells[mapping.point_site].T, mapping.spatial_shape)


def _cloud(xyz, labels=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    cloud = PointCloud(xyz, np.zeros(len(xyz)))
    if labels is not None:
        cloud = cloud.with_labels(np.asarray(labels, dtype=np.int64))
    return cloud


# ---------------------------------------------------------------- coordinates


def test_cart_to_cyl_axis_cases():
    out = cart_to_cyl(np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(out[0], [1.0, 0.0, 5.0])
    np.testing.assert_allclose(out[1], [1.0, math.pi / 2, 0.0])


def test_cart_to_cyl_345_triangle():
    out = cart_to_cyl(np.array([[3.0, 4.0, 2.0]]))
    np.testing.assert_allclose(out[0], [5.0, math.atan2(4.0, 3.0), 2.0])


def test_cart_to_cyl_origin_convention():
    out = cart_to_cyl(np.zeros((1, 3)))
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0


def test_cyl_round_trip():
    rng = np.random.default_rng(5)
    xyz = rng.uniform(-40, 40, size=(500, 3))
    back = _cyl_to_cart(cart_to_cyl(xyz))
    np.testing.assert_allclose(back, xyz, rtol=1e-12, atol=1e-12)


def test_theta_always_in_half_open_interval():
    rng = np.random.default_rng(6)
    cyl = cart_to_cyl(rng.uniform(-10, 10, size=(2000, 3)))
    assert np.all(cyl[:, 1] >= -math.pi) and np.all(cyl[:, 1] < math.pi)


def test_angle_wrap_does_not_change_cell():
    # the same physical direction expressed with a +2*pi angle offset must
    # land in the same azimuth bin after normalization
    grid = CylGridSpec(rho_range=(0.0, 10.0), z_range=(-1.0, 1.0), resolution=(4, 8, 2))
    rng = np.random.default_rng(7)
    theta = rng.uniform(-math.pi, math.pi, size=200)
    rho = rng.uniform(0.1, 9.9, size=200)
    z = rng.uniform(-0.9, 0.9, size=200)
    a = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    b = np.stack([rho * np.cos(theta + 2 * math.pi), rho * np.sin(theta + 2 * math.pi), z], axis=1)
    ma = assign_cells(_cloud(a), grid)
    mb = assign_cells(_cloud(b), grid)
    np.testing.assert_array_equal(_point_keys(ma), _point_keys(mb))


# -------------------------------------------------------------------- binning


@pytest.mark.parametrize("grid", [DEFAULT_CYL_GRID, DEFAULT_CUBIC_GRID])
def test_cell_keys_drops_each_axis_column_once_it_is_binned(grid):
    # the cylindrical grid's rho and theta columns used to live until the
    # last axis was binned: a peak of 6 arrays of N float64s instead of 4
    n = 1 << 16
    xyz = np.random.default_rng(12).uniform(-50.0, 50.0, (n, 3))
    with traced_memory() as memory:
        grid.cell_keys(xyz)
        peak = memory.peak()
    assert peak <= 4.5 * 8 * n, peak / (8 * n)


def test_assign_cells_minimum_bin():
    cloud = _cloud([[0.1 * math.cos(-math.pi), 0.1 * math.sin(-math.pi), -4.0]])
    mapping = assign_cells(cloud, DEFAULT_CYL_GRID)
    assert mapping.cells.tolist() == [[0, 0, 0]]


def test_assign_cells_clamps_out_of_range_radius():
    cloud = _cloud([[60.0, 0.0, 0.0]])
    mapping = assign_cells(cloud, DEFAULT_CYL_GRID)
    assert mapping.cells[0, 0] == DEFAULT_CYL_GRID.resolution[0] - 1


def test_far_out_points_land_in_the_boundary_bin_on_their_side():
    # (v - lo) / delta beyond 2^63 used to wrap in the int64 cast, so the
    # clip put these points in bin 0 and numpy warned of an invalid cast
    far = 1e30
    cyl_points = [[far, 0, 0], [-far, 0, 0], [0, far, 0], [0, -far, 0], [1, 0, far], [1, 0, -far]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cyl = DEFAULT_CYL_GRID.bin_points(np.array(cyl_points, dtype=np.float64))
        cubic = DEFAULT_CUBIC_GRID.bin_points(np.vstack([far * np.eye(3), -far * np.eye(3)]))
    assert not [str(w.message) for w in caught]
    assert cyl[:4, 0].tolist() == [DEFAULT_CYL_GRID.resolution[0] - 1] * 4
    assert cyl[4:, 2].tolist() == [DEFAULT_CYL_GRID.resolution[2] - 1, 0]
    np.testing.assert_array_equal(np.diag(cubic[:3]), np.array(DEFAULT_CUBIC_GRID.resolution) - 1)
    np.testing.assert_array_equal(np.diag(cubic[3:]), 0)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
_EDGE_GRIDS = {
    "semantic_kitti": load_config(os.path.join(CONFIGS, "semantic_kitti.cfg")).grid,
    "toy": load_config(os.path.join(CONFIGS, "toy_train.cfg")).grid,
    "odd": CylGridSpec((0.3, 7.7), (-1.0, 1.0), (37, 9, 4)),
    "tiny_radii": CylGridSpec((1e-200, 3e-200), (-1.0, 1.0), (37, 9, 4)),
    "huge_radii": CylGridSpec((0.0, 1e300), (-1.0, 1.0), (37, 9, 4)),
}


def _hypot_keys(grid, xyz):
    """Flat keys from cart_to_cyl's hypot radius, floored and clipped."""
    with np.errstate(invalid="ignore", over="ignore"):  # NaN casts to an arbitrary bin
        idx = np.floor((cart_to_cyl(xyz) - grid.lowers) / grid.deltas)
        idx = np.clip(idx, 0, np.array(grid.resolution) - 1).astype(np.int64)
    _, w, l = grid.resolution
    return (idx[:, 0] * w + idx[:, 1]) * l + idx[:, 2]


@pytest.mark.parametrize("name", sorted(_EDGE_GRIDS))
def test_radial_bins_equal_hypots_at_every_edge(name):
    # the radius is sqrt(x*x + y*y) away from bin edges, with hypot only near
    # one; 1e155 squared overflows and 3e-155 or 1e-170 squared underflows
    grid = _EDGE_GRIDS[name]
    rng = np.random.default_rng(31)
    count = grid.resolution[0]
    edges = grid.rho_range[0] + np.arange(count + 1) * grid.deltas[0]
    steps = np.concatenate([-np.arange(1, 41), np.arange(1, 41)])
    rho = (edges[:, None] + steps * np.spacing(edges)[:, None]).ravel().repeat(12)
    theta = rng.uniform(-math.pi, math.pi, rho.size)
    xyz = np.stack([rho * np.cos(theta), rho * np.sin(theta), rng.uniform(-2, 2, rho.size)], 1)
    odd = [np.nan, np.inf, -np.inf, 1e155, -1e155, 3e-155, 1e-170, 0.0, -0.0, 1.0]
    x, y = np.meshgrid(odd, odd)
    special = np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], 1)
    with np.errstate(invalid="ignore", over="ignore"):
        for positions in (xyz, xyz.astype(np.float32), special):
            np.testing.assert_array_equal(grid.cell_keys(positions), _hypot_keys(grid, positions))


def test_a_stats_lane_bins_its_scan_in_chunks():
    # a lane widens, keys and marks 2^16 points at a time into its two cell
    # tables; binning the whole float32 scan at once peaked at ~30 MiB
    scene = generate_synthetic_scene(SyntheticSceneSpec(seed=3, num_points=524_288))
    cloud = PointCloud(scene.xyz.astype(np.float32), scene.intensity.astype(np.float32))
    with traced_memory() as memory:
        occupancy_by_distance([cloud])
        peak = memory.peak()
    tables = DEFAULT_CYL_GRID.num_cells + DEFAULT_CUBIC_GRID.num_cells
    assert peak <= tables + 12 * 8 * 2**16, (peak - tables) / (8 * 2**16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_positions_must_be_finite(bad):
    # a NaN point used to land in cell (0, 0, 21), with only a RuntimeWarning
    # from the cast, and to count as an occupied cell
    xyz = np.array([[bad, 0.0, 0.0], [1.0, 1.0, 0.0]])
    for run in (lambda: assign_cells(xyz, DEFAULT_CYL_GRID), lambda: occupancy_by_distance([xyz])):
        with pytest.raises(ValueError, match="positions contain non-finite values"):
            run()


@pytest.mark.parametrize("bins", [2**60, 2**63 - 1])
def test_an_axis_of_more_than_2_to_the_53_bins_keeps_far_points_in_its_last_bin(bins):
    # such an axis, whose last bin float64 cannot hold, no longer exists: the
    # cell bound rejects its grid when built, so no far point can miss its bin
    with pytest.raises(ValueError, match=r"more than 2\^28"):
        CylGridSpec(resolution=(bins, 1, 1))


@pytest.mark.parametrize("grid_class", [CylGridSpec, CubicGridSpec])
def test_grids_hold_at_most_2_to_the_28_cells(grid_class):
    # building a grid allocates nothing per cell
    assert grid_class(resolution=(2**14, 2**7, 2**7)).num_cells == MAX_CELLS == 2**28
    for resolution in [(2**28 + 1, 1, 1), (17, 15790321, 1), (2**22, 2**22, 2**20)]:
        with pytest.raises(ValueError, match=r"more than 2\^28"):
            grid_class(resolution=resolution)


def _unique_reference(xyz, grid):
    """Each point's flat cell key, and assign_cells's point_site and cells,
    as np.unique over the stacked bins gives them."""
    bins = grid.bin_points(xyz)
    _, w, l = grid.resolution
    flat = (bins[:, 0] * w + bins[:, 1]) * l + bins[:, 2]
    keys, site = np.unique(flat, return_inverse=True)
    cells = np.stack(np.unravel_index(keys, grid.resolution), axis=1).astype(np.int64)
    return flat, site.astype(np.int64), cells


def _corner_points(grid, cyl):
    """Points at the centres of the grid's first and last cells."""
    corners = grid.cell_centers(np.array([[0, 0, 0], np.array(grid.resolution) - 1]))
    return _cyl_to_cart(corners) if cyl else corners


_CLAMPED = {  # beyond rho_max (or x/y range), and above and below the z range
    True: [[80.0, 0.0, 0.0], [0.0, -60.0, 1.0], [1.0, 1.0, 9.0], [1.0, -1.0, -9.0],
           [-55.0, -55.0, 50.0]],
    False: [[80.0, 0.0, 0.0], [0.0, -80.0, 1.0], [1.0, 1.0, 9.0], [1.0, -1.0, -9.0],
            [-75.0, 75.0, -50.0]],
}


@pytest.mark.parametrize("cyl", [True, False], ids=["cylindrical", "cubic"])
@pytest.mark.parametrize("case", ["empty", "one", "corners", "clamped", "all"])
def test_assign_cells_equals_the_unique_reference_on_edge_cases(cyl, case):
    grid = DEFAULT_CYL_GRID if cyl else DEFAULT_CUBIC_GRID
    xyz = {
        "empty": np.zeros((0, 3)),
        "one": np.array([[3.0, -2.0, 0.5]]),
        "corners": _corner_points(grid, cyl),
        "clamped": np.array(_CLAMPED[cyl]),
    }
    xyz["all"] = np.vstack([xyz["corners"], xyz["clamped"], xyz["one"], xyz["clamped"]])
    mapping = assign_cells(xyz[case], grid)
    for got, want in zip((_point_keys(mapping), mapping.point_site, mapping.cells),
                         _unique_reference(xyz[case], grid)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype == np.int64
    if case == "corners":
        assert _point_keys(mapping).tolist() == [0, grid.num_cells - 1]
    if case == "clamped":
        sites = mapping.cells[mapping.point_site]
        on_edge = (sites == 0) | (sites == np.array(grid.resolution) - 1)
        assert on_edge.any(axis=1).all()


def test_assign_cells_matches_brute_force_binning():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    rng = np.random.default_rng(11)
    xyz = rng.uniform(-5, 5, size=(1000, 3))
    mapping = assign_cells(_cloud(xyz), grid)

    cyl = cart_to_cyl(xyz)
    lowers = np.array([0.0, -math.pi, -2.0])
    deltas = np.array([8.0 / 4, 2 * math.pi / 4, 4.0 / 4])
    idx = np.floor((cyl - lowers) / deltas).astype(np.int64)
    idx = np.clip(idx, 0, 3)
    got = mapping.cells[mapping.point_site]
    np.testing.assert_array_equal(got, idx)


def test_mapping_partitions_points():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    rng = np.random.default_rng(12)
    mapping = assign_cells(_cloud(rng.uniform(-5, 5, size=(300, 3))), grid)
    seen = np.concatenate(cell_points(mapping))
    assert len(seen) == 300
    assert sorted(seen.tolist()) == list(range(300))


def test_cell_points_equal_the_eager_split_lists():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(6, 5, 4))
    rng = np.random.default_rng(13)
    for n in (0, 1, 7, 500):
        mapping = assign_cells(_cloud(rng.uniform(-6, 6, size=(n, 3))), grid)
        # reference: the lists assign_cells used to build for every mapping
        if mapping.num_cells:
            order = np.argsort(mapping.point_site, kind="stable")
            counts = np.bincount(mapping.point_site, minlength=mapping.num_cells)
            expected = np.split(order, np.cumsum(counts)[:-1])
        else:
            expected = []
        got = cell_points(mapping)
        assert len(got) == len(expected) == mapping.num_cells
        for site, (a, b) in enumerate(zip(got, expected)):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, np.flatnonzero(mapping.point_site == site))
            assert a.dtype == b.dtype


def test_pooling_and_its_winners_share_one_grouping_sort(monkeypatch):
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(6, 5, 4))
    rng = np.random.default_rng(16)
    mapping = assign_cells(_cloud(rng.uniform(-6, 6, size=(200, 3))), grid)
    feats = rng.standard_normal((200, 3))
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    pooled = scatter_features(feats, mapping)
    winners = scatter_max_winners(feats, mapping, pooled.features)
    cells = cell_points(mapping)
    assert len(sorts) == 1
    np.testing.assert_array_equal(feats[winners, np.arange(3)], pooled.features)
    assert all(np.all(mapping.point_site[c] == site) for site, c in enumerate(cells))


def test_empty_cloud_gives_empty_mapping():
    mapping = assign_cells(_cloud(np.zeros((0, 3))), DEFAULT_CYL_GRID)
    assert mapping.cells.shape == (0, 3)
    assert _point_keys(mapping).shape == (0,)


# ------------------------------------------------------------------ scatter


def test_scatter_single_point_is_identity():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    mapping = assign_cells(_cloud([[1.0, 0.0, 0.0]]), grid)
    out = scatter_features(np.array([[2.5, -1.0]]), mapping)
    np.testing.assert_array_equal(out.features, [[2.5, -1.0]])
    assert out.spatial_shape == (4, 4, 4)


def test_scatter_two_points_one_cell_elementwise_max():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    mapping = assign_cells(_cloud([[1.0, 0.1, 0.0], [1.0, 0.1, 0.0]]), grid)
    assert mapping.num_cells == 1
    out = scatter_features(np.array([[1.0, 5.0], [3.0, 2.0]]), mapping)
    np.testing.assert_array_equal(out.features, [[3.0, 5.0]])


def test_scatter_matches_group_by_max_oracle():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    rng = np.random.default_rng(13)
    xyz = rng.uniform(-5, 5, size=(200, 3))
    feats = rng.standard_normal((200, 3))
    mapping = assign_cells(_cloud(xyz), grid)
    out = scatter_features(feats, mapping)
    for site, members in enumerate(cell_points(mapping)):
        np.testing.assert_array_equal(out.features[site], feats[members].max(axis=0))


@pytest.mark.parametrize("n", [0, 1, 400])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_equals_the_maximum_at_reference_bit_for_bit(dtype, n):
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(3, 3, 2))
    rng = np.random.default_rng(16)
    mapping = assign_cells(_cloud(rng.uniform(-5, 5, size=(n, 3))), grid)
    # three channels of exact -1.0, -0.0 and +0.0, so most cell maxima tie
    # between signed zeros, and three of random values
    ties = rng.choice(np.array([-1.0, -0.0, 0.0]), size=(n, 3))
    feats = np.hstack([ties, rng.standard_normal((n, 3))]).astype(dtype)
    # reference: the per-point maximum that scatter_features took before
    reference = np.full((mapping.num_cells, 6), -np.inf, dtype=dtype)
    np.maximum.at(reference, mapping.point_site, feats)
    out = scatter_features(feats, mapping).features
    assert out.dtype == dtype and out.shape == reference.shape
    np.testing.assert_array_equal(out, reference)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(reference))


def test_scatter_max_winners_select_the_max_rows():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    rng = np.random.default_rng(14)
    xyz = rng.uniform(-5, 5, size=(60, 3))
    feats = rng.standard_normal((60, 4))
    mapping = assign_cells(_cloud(xyz), grid)
    scattered = scatter_features(feats, mapping)
    winners = scatter_max_winners(feats, mapping, scattered.features)
    cols = np.arange(4)
    np.testing.assert_array_equal(feats[winners, cols], scattered.features)
    # every winner must be a member of its own cell
    for site, members in enumerate(cell_points(mapping)):
        assert set(winners[site].tolist()) <= set(members.tolist())


def test_scatter_max_winners_ties_go_to_the_latest_point():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    # points 0, 2, 3 share one cell and points 1, 4 another, interleaved
    xyz = [[1.0, 0.1, 0.0], [-1.0, -0.1, 1.0], [1.0, 0.1, 0.0], [1.0, 0.1, 0.0], [-1.0, -0.1, 1.0]]
    feats = np.array([
        [0.0, -0.0, 2.0, 5.0],
        [7.0, 1.0, -3.0, -0.0],
        [-0.0, 0.0, 2.0, 1.0],
        [-1.0, -0.0, 2.0, 5.0],
        [7.0, 0.5, -3.0, 0.0],
    ])
    mapping = assign_cells(_cloud(xyz), grid)
    assert sorted(map(sorted, (m.tolist() for m in cell_points(mapping)))) == [[0, 2, 3], [1, 4]]
    winners = scatter_max_winners(feats, mapping, scatter_features(feats, mapping).features)
    want = {0: [2, 3, 3, 3], 1: [4, 1, 4, 4]}  # keyed by each cell's first point
    for site, members in enumerate(cell_points(mapping)):
        assert winners[site].tolist() == want[int(members[0])]

    # tie-heavy random case against a per-channel stable-sort reference
    rng = np.random.default_rng(15)
    mapping = assign_cells(_cloud(rng.uniform(-5, 5, size=(300, 3))), grid)
    feats = rng.integers(-2, 3, size=(300, 5)) * np.where(rng.random((300, 5)) < 0.5, -1.0, 1.0)
    ends = np.cumsum(np.bincount(mapping.point_site)) - 1
    reference = np.stack(
        [np.lexsort((feats[:, c], mapping.point_site))[ends] for c in range(5)], axis=1
    )
    pooled = scatter_features(feats, mapping).features
    np.testing.assert_array_equal(scatter_max_winners(feats, mapping, pooled), reference)


def test_scatter_rejects_row_count_mismatch():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    mapping = assign_cells(_cloud([[1.0, 0.0, 0.0]]), grid)
    with pytest.raises(ValueError):
        scatter_features(np.zeros((2, 2)), mapping)


# ----------------------------------------------------------- label encoding


def _one_cell_mapping(n_points):
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(1, 1, 1))
    xyz = np.tile([[1.0, 0.0, 0.0]], (n_points, 1))
    return assign_cells(_cloud(xyz), grid)


def test_encode_majority_and_minority_basic():
    mapping = _one_cell_mapping(3)
    labels = np.array([1, 1, 2])
    assert encode_cell_labels(mapping, labels, "majority", 3, 255).tolist() == [1]
    assert encode_cell_labels(mapping, labels, "minority", 3, 255).tolist() == [2]


def test_encode_singleton_cell():
    mapping = _one_cell_mapping(1)
    labels = np.array([3])
    for mode in ("majority", "minority"):
        assert encode_cell_labels(mapping, labels, mode, 4, 255).tolist() == [3]


def test_encode_tie_breaks_to_smaller_id():
    mapping = _one_cell_mapping(4)
    labels = np.array([1, 1, 2, 2])
    assert encode_cell_labels(mapping, labels, "majority", 3, 255).tolist() == [1]
    assert encode_cell_labels(mapping, labels, "minority", 3, 255).tolist() == [1]


def test_encode_ignore_only_cell_stays_ignored():
    mapping = _one_cell_mapping(2)
    labels = np.array([255, 255])
    assert encode_cell_labels(mapping, labels, "majority", 3, 255).tolist() == [255]


def test_encode_ignore_points_do_not_vote():
    mapping = _one_cell_mapping(3)
    labels = np.array([255, 255, 2])
    assert encode_cell_labels(mapping, labels, "majority", 3, 255).tolist() == [2]


def test_encode_rejects_unknown_mode():
    mapping = _one_cell_mapping(1)
    with pytest.raises(ValueError):
        encode_cell_labels(mapping, np.array([0]), "plurality", 3, 255)


# ------------------------------------------------------------ encoding bound


def test_bound_is_one_on_label_pure_cloud():
    # one point per cell: every cell trivially pure
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    xyz = np.array([[1.0, 0.0, -1.5], [3.0, 0.0, 0.5], [5.0, 0.0, 1.5]])
    cloud = _cloud(xyz, labels=[0, 1, 2])
    for mode in ("majority", "minority"):
        assert encoding_upper_bound_miou(cloud, grid, mode, 3, 255) == 1.0


def test_bound_two_point_shared_cell_hand_computed():
    # both points in one cell, classes 0 and 1; the majority tie encodes 0,
    # so class 0 scores 1 TP 1 FP and class 1 scores 1 FN: mIoU (1/2 + 0)/2
    mapping_grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(1, 1, 1))
    cloud = _cloud([[1.0, 0.0, 0.0], [1.0, 0.1, 0.0]], labels=[0, 1])
    got = encoding_upper_bound_miou(cloud, mapping_grid, "majority", 2, 255)
    assert got == pytest.approx(0.25)


def test_bound_majority_dominates_minority_on_random_clouds():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(-5, 5, size=(400, 3))
        cloud = _cloud(xyz, labels=rng.integers(0, 3, size=400))
        maj = encoding_upper_bound_miou(cloud, grid, "majority", 3, 255)
        mino = encoding_upper_bound_miou(cloud, grid, "minority", 3, 255)
        assert maj >= mino
        assert maj < 1.0 and mino < 1.0  # dense random labels always mix cells


def test_bound_requires_labels():
    cloud = _cloud([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        encoding_upper_bound_miou(cloud, DEFAULT_CYL_GRID, "majority", 3, 255)


# ---------------------------------------------------------------- occupancy


def test_count_in_bins_equals_the_bin_then_add_at_reference():
    edges = np.array([0.0, 5.0, 10.0, 12.5, 50.0])
    rng = np.random.default_rng(17)
    values = np.concatenate([
        [-7.0, np.nextafter(0.0, -1.0)],  # below edges[0]
        edges,  # exactly on every edge, edges[-1] included
        [np.nextafter(50.0, 60.0), 80.0],  # above edges[-1]
        rng.uniform(-10.0, 60.0, 500),
    ])
    # reference: the half-open binning to -1 outside, then np.add.at, that
    # the occupancy counters used before
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[(values < edges[0]) | (values >= edges[-1])] = -1
    reference = np.zeros(len(edges) - 1, dtype=np.int64)
    np.add.at(reference, idx[idx >= 0], 1)
    got = _count_in_bins(values, edges)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, reference)
    np.testing.assert_array_equal(_count_in_bins(edges, edges), [1, 1, 1, 1])


def test_occupancy_saturated_tiny_grid():
    cyl = CylGridSpec(rho_range=(0.0, 4.0), z_range=(0.0, 1.0), resolution=(2, 4, 1))
    cubic = CubicGridSpec(x_range=(-4.0, 4.0), y_range=(-4.0, 4.0), z_range=(0.0, 1.0), resolution=(2, 2, 2))
    # drop one point in every cylindrical cell center
    all_cells = np.stack(np.meshgrid(*[np.arange(r) for r in cyl.resolution], indexing="ij"), axis=-1)
    xyz = _cyl_to_cart(cyl.cell_centers(all_cells.reshape(-1, 3)))
    rows = occupancy_by_distance([_cloud(xyz)], cyl, cubic, distance_bins=(0.0, 2.0, 4.0))
    cyl_rows = [r for r in rows if r.scheme == "cylindrical"]
    assert len(cyl_rows) == 2
    for row in cyl_rows:
        assert row.nonempty_proportion == 1.0


@pytest.mark.parametrize("edges", [(0.0, np.nan, 20.0), (0.0, 20.0, np.inf), (-np.inf, 0.0, 20.0)])
def test_occupancy_rejects_non_finite_edges(edges):
    with pytest.raises(ValueError, match="distance_bins must be at least two increasing finite edges"):
        occupancy_by_distance([_cloud(np.zeros((1, 3)))], distance_bins=edges)


def test_occupancy_empty_cloud_is_zero_everywhere():
    cloud = _cloud(np.zeros((0, 3)))
    rows = occupancy_by_distance([cloud])
    for row in rows:
        if row.nonempty_proportion is not None:
            assert row.nonempty_proportion == 0.0


def test_occupancy_csv_format(tmp_path, capsys):
    # the stats CSV holds a header, then each occupancy row as it comes; a bin
    # with no cells (None) is an empty cell
    scans = tmp_path / "scans"
    scans.mkdir()
    for seed in range(2):
        spec = SyntheticSceneSpec(seed=seed, num_points=300, max_range=20.0)
        write_kitti_bin(scans / f"{seed:06d}.bin", generate_synthetic_scene(spec))
    cfg_path = os.path.join(CONFIGS, "toy_train.cfg")
    cfg = load_config(cfg_path)
    rows = occupancy_by_distance([read_kitti_bin(scans / f"{seed:06d}.bin") for seed in range(2)],
                                 cfg.grid, cfg.cubic, cfg.stats.edges)
    assert any(row.nonempty_proportion is None for row in rows)
    path = tmp_path / "occ.csv"
    assert main(["stats", "--config", cfg_path, "--scans", str(scans),
                 "--output", str(path)]) == 0
    capsys.readouterr()
    with open(path, newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == ["scheme", "distance_lo", "distance_hi", "nonempty_proportion"]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        prop = "" if row.nonempty_proportion is None else row.nonempty_proportion
        assert line == [row.scheme, *map(str, (row.distance_lo, row.distance_hi, prop))]


def test_occupancy_cylindrical_wins_far_field_on_synthetic_scene():
    # single-scene smoke check of the far-field ordering; the 20-scene sweep
    # with the shipped scene density lives in the acceptance suite
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=1, num_points=524_288))
    rows = occupancy_by_distance([cloud])
    by_bin = {}
    for r in rows:
        by_bin.setdefault((r.distance_lo, r.distance_hi), {})[r.scheme] = r.nonempty_proportion
    far = [b for b in by_bin if b[0] >= 20.0]
    assert far
    for b in far:
        assert by_bin[b]["cylindrical"] >= by_bin[b]["cubic"]
