import math

import numpy as np
import pytest

from cylseg.partition import (
    DEFAULT_CYL_GRID,
    CubicGridSpec,
    CylGridSpec,
    assign_cells,
    cart_to_cyl,
    cyl_to_cart,
    encode_cell_labels,
    encoding_upper_bound_miou,
    occupancy_by_distance,
    scatter_features,
    scatter_max_winners,
    write_occupancy_csv,
)
from cylseg.pointcloud import PointCloud, SyntheticSceneSpec, generate_synthetic_scene


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
    back = cyl_to_cart(cart_to_cyl(xyz))
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
    np.testing.assert_array_equal(ma.point_cell, mb.point_cell)


# -------------------------------------------------------------------- binning


def test_assign_cells_minimum_bin():
    cloud = _cloud([[0.1 * math.cos(-math.pi), 0.1 * math.sin(-math.pi), -4.0]])
    mapping = assign_cells(cloud, DEFAULT_CYL_GRID)
    assert mapping.cells.tolist() == [[0, 0, 0]]


def test_assign_cells_clamps_out_of_range_radius():
    cloud = _cloud([[60.0, 0.0, 0.0]])
    mapping = assign_cells(cloud, DEFAULT_CYL_GRID)
    assert mapping.cells[0, 0] == DEFAULT_CYL_GRID.resolution[0] - 1


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
    seen = np.concatenate(mapping.cell_points)
    assert len(seen) == 300
    assert sorted(seen.tolist()) == list(range(300))


def test_empty_cloud_gives_empty_mapping():
    mapping = assign_cells(_cloud(np.zeros((0, 3))), DEFAULT_CYL_GRID)
    assert mapping.cells.shape == (0, 3)
    assert mapping.point_cell.shape == (0,)


def test_cell_volume_grows_with_radius():
    vol = DEFAULT_CYL_GRID.radial_cell_volume(np.arange(480))
    assert np.all(np.diff(vol) > 0)


# ------------------------------------------------------------------ scatter


def test_scatter_single_point_is_identity():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    mapping = assign_cells(_cloud([[1.0, 0.0, 0.0]]), grid)
    out = scatter_features(np.array([[2.5, -1.0]]), mapping, grid)
    np.testing.assert_array_equal(out.features, [[2.5, -1.0]])
    assert out.spatial_shape == (4, 4, 4)


def test_scatter_two_points_one_cell_elementwise_max():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    mapping = assign_cells(_cloud([[1.0, 0.1, 0.0], [1.0, 0.1, 0.0]]), grid)
    assert mapping.num_cells == 1
    out = scatter_features(np.array([[1.0, 5.0], [3.0, 2.0]]), mapping, grid)
    np.testing.assert_array_equal(out.features, [[3.0, 5.0]])


def test_scatter_matches_group_by_max_oracle():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(4, 4, 4))
    rng = np.random.default_rng(13)
    xyz = rng.uniform(-5, 5, size=(200, 3))
    feats = rng.standard_normal((200, 3))
    mapping = assign_cells(_cloud(xyz), grid)
    out = scatter_features(feats, mapping, grid)
    for site, members in enumerate(mapping.cell_points):
        np.testing.assert_array_equal(out.features[site], feats[members].max(axis=0))


def test_scatter_max_winners_select_the_max_rows():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    rng = np.random.default_rng(14)
    xyz = rng.uniform(-5, 5, size=(60, 3))
    feats = rng.standard_normal((60, 4))
    mapping = assign_cells(_cloud(xyz), grid)
    winners = scatter_max_winners(feats, mapping)
    scattered = scatter_features(feats, mapping, grid)
    cols = np.arange(4)
    np.testing.assert_array_equal(feats[winners, cols], scattered.features)
    # every winner must be a member of its own cell
    for site, members in enumerate(mapping.cell_points):
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
    assert sorted(map(sorted, (m.tolist() for m in mapping.cell_points))) == [[0, 2, 3], [1, 4]]
    winners = scatter_max_winners(feats, mapping)
    want = {0: [2, 3, 3, 3], 1: [4, 1, 4, 4]}  # keyed by each cell's first point
    for site, members in enumerate(mapping.cell_points):
        assert winners[site].tolist() == want[int(members[0])]

    # tie-heavy random case against a per-channel stable-sort reference
    rng = np.random.default_rng(15)
    mapping = assign_cells(_cloud(rng.uniform(-5, 5, size=(300, 3))), grid)
    feats = rng.integers(-2, 3, size=(300, 5)) * np.where(rng.random((300, 5)) < 0.5, -1.0, 1.0)
    ends = np.cumsum(np.bincount(mapping.point_site)) - 1
    reference = np.stack(
        [np.lexsort((feats[:, c], mapping.point_site))[ends] for c in range(5)], axis=1
    )
    np.testing.assert_array_equal(scatter_max_winners(feats, mapping), reference)


def test_scatter_rejects_row_count_mismatch():
    grid = CylGridSpec(rho_range=(0.0, 8.0), z_range=(-2.0, 2.0), resolution=(2, 2, 2))
    mapping = assign_cells(_cloud([[1.0, 0.0, 0.0]]), grid)
    with pytest.raises(ValueError):
        scatter_features(np.zeros((2, 2)), mapping, grid)


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


def test_occupancy_saturated_tiny_grid():
    cyl = CylGridSpec(rho_range=(0.0, 4.0), z_range=(0.0, 1.0), resolution=(2, 4, 1))
    cubic = CubicGridSpec(x_range=(-4.0, 4.0), y_range=(-4.0, 4.0), z_range=(0.0, 1.0), resolution=(2, 2, 2))
    # drop one point in every cylindrical cell center
    all_cells = np.stack(np.meshgrid(*[np.arange(r) for r in cyl.resolution], indexing="ij"), axis=-1)
    xyz = cyl_to_cart(cyl.cell_centers(all_cells.reshape(-1, 3)))
    rows = occupancy_by_distance([_cloud(xyz)], cyl, cubic, distance_bins=(0.0, 2.0, 4.0))
    cyl_rows = [r for r in rows if r.scheme == "cylindrical"]
    assert len(cyl_rows) == 2
    for row in cyl_rows:
        assert row.nonempty_proportion == 1.0


def test_occupancy_empty_cloud_is_zero_everywhere():
    cloud = _cloud(np.zeros((0, 3)))
    rows = occupancy_by_distance([cloud])
    for row in rows:
        if row.nonempty_proportion is not None:
            assert row.nonempty_proportion == 0.0


def test_occupancy_csv_format(tmp_path):
    cloud = _cloud(np.zeros((0, 3)))
    rows = occupancy_by_distance([cloud])
    path = tmp_path / "occ.csv"
    write_occupancy_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,distance_lo,distance_hi,nonempty_proportion"
    assert len(lines) == len(rows) + 1


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
