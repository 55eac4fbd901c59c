import gc
import struct
import warnings

import numpy as np
import pytest

from cylseg.pointcloud import (
    LabelMap,
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    identity_label_map,
    read_kitti_bin,
    read_kitti_labels,
    read_raw_label_ids,
    write_kitti_bin,
    write_kitti_labels,
)


def test_read_bin_two_known_points(tmp_path):
    path = tmp_path / "scan.bin"
    blob = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, -1.0, 0.0, 2.0, 0.25)
    path.write_bytes(blob)
    cloud = read_kitti_bin(path)
    assert cloud.xyz.shape == (2, 3)
    np.testing.assert_allclose(cloud.xyz, [[1, 2, 3], [-1, 0, 2]])
    np.testing.assert_allclose(cloud.intensity, [0.5, 0.25])


def test_read_bin_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    cloud = read_kitti_bin(path)
    assert cloud.xyz.shape == (0, 3)
    assert cloud.intensity.shape == (0,)


def test_read_bin_rejects_bad_length(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(ValueError):
        read_kitti_bin(path)


def test_bin_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    raw = rng.standard_normal(4 * 33).astype("<f4").tobytes()
    src = tmp_path / "src.bin"
    src.write_bytes(raw)
    cloud = read_kitti_bin(src)
    dst = tmp_path / "dst.bin"
    write_kitti_bin(dst, cloud)
    assert dst.read_bytes() == raw


def test_label_semantic_bits(tmp_path):
    # instance id lives in the upper 16 bits and must be dropped
    path = tmp_path / "a.label"
    path.write_bytes(struct.pack("<I", 0x000A0005))
    lm = LabelMap({5: 2}, num_classes=3)
    labels = read_kitti_labels(path, lm)
    assert labels.tolist() == [2]


def test_label_upper_bits_never_matter(tmp_path):
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 6, size=50, dtype=np.uint32)
    inst = rng.integers(0, 2**16, size=50, dtype=np.uint32) << 16
    lm = identity_label_map(6)
    a = tmp_path / "a.label"
    b = tmp_path / "b.label"
    a.write_bytes(raw.astype("<u4").tobytes())
    b.write_bytes((raw | inst).astype("<u4").tobytes())
    np.testing.assert_array_equal(read_kitti_labels(a, lm), read_kitti_labels(b, lm))


def test_label_unmapped_id_becomes_ignore(tmp_path):
    path = tmp_path / "a.label"
    path.write_bytes(struct.pack("<I", 0))
    lm = LabelMap({5: 0}, num_classes=1, ignore_id=255)
    assert read_kitti_labels(path, lm).tolist() == [255]


def test_label_rejects_bad_length(tmp_path):
    path = tmp_path / "bad.label"
    path.write_bytes(b"\x00" * 6)
    with pytest.raises(ValueError):
        read_raw_label_ids(path)


def test_readers_close_their_files(tmp_path):
    scan = tmp_path / "a.bin"
    write_kitti_bin(scan, PointCloud(np.ones((2, 3)), np.zeros(2)))
    label = tmp_path / "a.label"
    write_kitti_labels(label, np.array([1, 2]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_kitti_bin(scan)
        read_raw_label_ids(label)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_label_write_read_round_trip(tmp_path):
    raw = np.array([10, 44, 81, 10], dtype=np.uint32)
    path = tmp_path / "out.label"
    write_kitti_labels(path, raw)
    np.testing.assert_array_equal(read_raw_label_ids(path), raw)


def test_label_map_inverse_picks_smallest_raw_id():
    # two raw ids collapse onto train id 0; to_raw must be deterministic
    lm = LabelMap({10: 0, 252: 0, 11: 1}, num_classes=2)
    assert lm.to_raw(np.array([0, 1, 0])).tolist() == [10, 11, 10]


def test_label_map_remap_vectorized():
    lm = LabelMap({1: 0, 2: 1}, num_classes=2, ignore_id=255)
    out = lm.remap(np.array([1, 2, 3, 1], dtype=np.uint32))
    assert out.tolist() == [0, 1, 255, 0]


def test_synthetic_same_seed_is_bitwise_identical():
    spec = SyntheticSceneSpec(seed=11, num_points=2000)
    a = generate_synthetic_scene(spec)
    b = generate_synthetic_scene(spec)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.intensity, b.intensity)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_range_and_class_coverage():
    cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=0, num_points=10_000, max_range=50.0))
    rho = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
    assert cloud.xyz.shape == (10_000, 3)
    assert float(rho.max()) <= 50.0
    # all three real classes present; stray noise points carry the ignore id
    assert set(np.unique(cloud.labels)) - {255} == {0, 1, 2}
    assert cloud.intensity.min() >= 0.0 and cloud.intensity.max() <= 1.0


def test_synthetic_density_falls_with_radius():
    # per-area density in the [5,10) annulus should beat [40,45) on every seed
    inner_area = np.pi * (10.0**2 - 5.0**2)
    outer_area = np.pi * (45.0**2 - 40.0**2)
    for seed in range(20):
        cloud = generate_synthetic_scene(SyntheticSceneSpec(seed=seed, num_points=8192))
        rho = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
        inner = np.count_nonzero((rho >= 5.0) & (rho < 10.0)) / inner_area
        outer = np.count_nonzero((rho >= 40.0) & (rho < 45.0)) / outer_area
        assert inner > outer


def test_point_cloud_with_labels_keeps_geometry():
    cloud = PointCloud(np.zeros((3, 3)), np.zeros(3))
    labeled = cloud.with_labels(np.array([0, 1, 2]))
    assert labeled.labels.tolist() == [0, 1, 2]
    assert labeled.xyz is cloud.xyz
