"""A large conv, and a large conv's input gradient, runs in blocks of output
rows, on as many threads as there are CPUs, and gives the same bytes
whatever the number of threads; so do the occupancy statistics, which bin
one cloud per thread through the same lanes."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from cylseg import partition, sparse
from cylseg.network import Conv
from cylseg.pointcloud import SyntheticSceneSpec, generate_synthetic_scene
from cylseg.selftest import NETWORK_KERNELS, random_sparse
from cylseg.sparse import (
    SparseTensor,
    build_rulebook,
    inverse_conv_backward,
    sparse_conv_backward,
    sparse_conv_forward,
)


def _spans(rows, macs):
    """The ``(lo, hi)`` row blocks that ``in_row_blocks`` runs a job of
    ``macs`` multiply-adds over ``rows`` rows in, in row order."""
    spans = []
    sparse.in_row_blocks(rows, macs, lambda lo, hi: spans.append((lo, hi)))
    return sorted(spans)


def _blocks(rows, count):
    """The runner's ``count`` row blocks (1, 2, 4 or 8) of ``rows`` rows."""
    return _spans(rows, count * sparse._BLOCK_MACS)


def _conv_blocks(rb, c_in, c_out):
    """How many row blocks the runner splits a conv over ``rb`` into."""
    return len(_spans(len(rb.out_coords), rb.num_pairs * c_in * c_out))


def _empty_out(x, params, rb):
    return np.empty((len(rb.out_coords), params.weights.shape[2]), dtype=x.features.dtype)


def _conv_on_lanes(x, params, rb, blocks, lanes):
    """The blocks run lane by lane on this thread, last lane first."""
    weights = params.weights.astype(x.features.dtype, copy=False)
    out = _empty_out(x, params, rb)
    spans = _blocks(len(out), blocks)
    for lane in reversed(range(lanes)):
        for lo, hi in spans[lane::lanes]:
            sparse._conv_rows(x.features, weights, params.bias, rb, out, lo, hi)
    return out


def _conv_by_masks(x, params, rb, blocks):
    """Reference: per block, per offset in order, the pairs a mask picks
    through gather, GEMM and scatter (the identity offset's too)."""
    weights = params.weights.astype(x.features.dtype, copy=False)
    out = _empty_out(x, params, rb)
    for lo, hi in _blocks(len(out), blocks):
        out[lo:hi] = params.bias
        for k, (in_idx, out_idx) in enumerate(rb.pairs):
            keep = (out_idx >= lo) & (out_idx < hi)
            if keep.any():
                out[out_idx[keep]] += x.features[in_idx[keep]] @ weights[k]
    return out


def _with_inverse(rng, x, rb):
    """The rulebook on ``x``, and its transpose on random features as wide."""
    back = rb.transposed()
    channels = x.num_channels
    u = SparseTensor(back.in_coords, rng.standard_normal((len(back.in_coords), channels)),
                     back.in_shape)
    return (x, rb), (u, back)


def _cases(rng, sites, min_channels, max_channels):
    """(input, params, rulebook) over every network kernel, each rulebook
    and its transpose, float64 and float32; the sites shuffled are rejected."""
    for kernel in NETWORK_KERNELS:
        x = sites(kernel)
        perm = rng.permutation(x.num_sites)
        with pytest.raises(ValueError, match="duplicate sites or out of order"):
            SparseTensor(x.coords[perm], x.features[perm], x.spatial_shape)
        for inp, book in _with_inverse(rng, x, build_rulebook(x, kernel)):
            c_out = int(rng.integers(min_channels, max_channels + 1))
            params = Conv(kernel, inp.num_channels, c_out, rng)
            params.bias[:] = rng.standard_normal(c_out)
            for dtype in (np.float64, np.float32):
                yield inp.with_features(inp.features.astype(dtype)), params, book


def _small_sites(rng):
    return lambda kernel: random_sparse(rng, max_shape=(12, 12, 12), max_channels=16,
                                        max_sites=600)


def test_row_blocks_cover_the_rows_in_order():
    for rows in (0, 1, 5, 64, 1001):
        for blocks in (1, 2, 4, 8):
            spans = _blocks(rows, blocks)
            assert len(spans) == blocks
            assert spans[0][0] == 0 and spans[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert max(hi - lo for lo, hi in spans) - min(hi - lo for lo, hi in spans) <= 1


def test_block_count_keeps_blocks_large_and_the_toy_convs_whole():
    block = sparse._BLOCK_MACS
    assert len(_spans(1000, 7_600_000)) == 1  # the toy network's largest conv
    assert len(_spans(1000, 2 * block - 1)) == 1
    for macs in (2 * block, 3 * block, 4 * block, 9 * block, 16 * block, 10**12):
        blocks = len(_spans(1000, macs))
        assert blocks in (2, 4, 8)
        assert macs // blocks >= block
        assert blocks == sparse._MAX_BLOCKS or macs < 2 * blocks * block


def test_every_lane_count_gives_the_same_bytes():
    rng = np.random.default_rng(71)
    kinds = set()
    for x, params, rb in _cases(rng, _small_sites(rng), 1, 16):
        for blocks in (1, 2, 4, 8):
            ref = _conv_by_masks(x, params, rb, blocks)
            for lanes in (1, 2, 3, 4):
                got = _conv_on_lanes(x, params, rb, blocks, lanes)
                assert got.tobytes() == ref.tobytes(), (rb.kernel, blocks, lanes)
        whole = sparse_conv_forward(x, params, rb).features
        np.testing.assert_array_equal(whole, _conv_on_lanes(x, params, rb, 1, 1))
        tol = 1e-4 if x.features.dtype == np.float32 else 1e-12
        np.testing.assert_allclose(_conv_on_lanes(x, params, rb, 8, 2), whole, atol=tol)
        assert not any((np.diff(o) < 0).any() for _, o in rb.pairs), rb.kernel
        kinds.add((rb.kernel, x.features.dtype.name))
    # every kernel in both dtypes
    assert len(kinds) == 2 * len(NETWORK_KERNELS)


def _large_sites(rng, count=20_000, shape=(40, 40, 24), channels=96):
    """Random sites dense enough that every network kernel's conv at
    ``channels`` wide splits into blocks."""
    def sites(kernel):
        flat = np.sort(rng.choice(np.prod(shape), size=count, replace=False))
        coords = np.stack(np.unravel_index(flat, shape), axis=1)
        return SparseTensor(coords, rng.standard_normal((count, channels)), shape)
    return sites


def test_large_convs_split_into_blocks_with_the_whole_convs_bytes():
    # Blocks of at least _BLOCK_MACS keep each per-offset GEMM on the BLAS
    # path whose rows do not depend on how many rows the call has; far
    # smaller blocks do not (OpenBLAS's small-matrix kernels), which is why
    # in_row_blocks never makes them.
    rng = np.random.default_rng(72)
    split = set()
    for x, params, rb in _cases(rng, _large_sites(rng), 96, 96):
        _, c_in, c_out = params.weights.shape
        blocks = _conv_blocks(rb, c_in, c_out)
        if blocks == 1:
            continue
        whole = _conv_on_lanes(x, params, rb, 1, 1)
        assert _conv_on_lanes(x, params, rb, blocks, 2).tobytes() == whole.tobytes(), (
            rb.kernel, blocks, x.features.dtype)
        split.add(rb.kernel)
    assert split == set(NETWORK_KERNELS)


def _large_conv(seed):
    """A float32 3x3x3 conv that splits into blocks."""
    rng = np.random.default_rng(seed)
    x = _large_sites(rng, channels=64)(NETWORK_KERNELS[1])
    x = x.with_features(x.features.astype(np.float32))
    rb = build_rulebook(x, NETWORK_KERNELS[1])
    params = Conv(rb.kernel, 64, 64, rng)
    params.bias[:] = rng.standard_normal(64)
    assert _conv_blocks(rb, 64, 64) > 1
    return x, params, rb


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool yet, and eight CPUs seen, more than most test machines have;
    a pool the test makes is shut down after it."""
    monkeypatch.setattr(sparse, "_POOL", None)
    monkeypatch.setattr(sparse, "_cpu_count", lambda: 8)
    yield
    if sparse._POOL is not None:
        sparse._POOL.shutdown()


def test_a_large_conv_runs_on_the_pool_with_the_bytes_of_one_lane(fresh_pool):
    x, params, rb = _large_conv(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for book in (rb, rb.transposed()):
            blocks = _conv_blocks(book, 64, 64)
            assert blocks == 8
            for _ in range(3):
                got = sparse_conv_forward(x, params, book).features
                assert got.tobytes() == _conv_on_lanes(x, params, book, blocks, 1).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert sparse._POOL is not None


def test_a_large_conv_backward_splits_with_the_input_gradient_bytes_of_one_block(
    fresh_pool, monkeypatch
):
    spans = []
    conv_rows = sparse._conv_rows
    monkeypatch.setattr(sparse, "_conv_rows", lambda *a: spans.append(a[-2:]) or conv_rows(*a))
    x, params, rb = _large_conv(7)
    x = x.with_features(x.features.astype(np.float64))
    adjoint = Conv(rb.kernel, 64, 64, np.random.default_rng())
    adjoint.weights = params.weights.transpose(0, 2, 1)
    rng = np.random.default_rng(8)
    for book in (rb, rb.transposed()):
        inp = x if book is rb else SparseTensor(
            book.in_coords, rng.standard_normal((len(book.in_coords), 64)), book.in_shape)
        grad = SparseTensor(book.out_coords, rng.standard_normal((len(book.out_coords), 64)),
                            book.out_shape)
        whole = _conv_on_lanes(grad, adjoint, book.transposed(), 1, 1)
        blocks = _spans(inp.num_sites, book.num_pairs * 64 * 64)
        assert len(blocks) > 1
        for lanes in (1, 2):
            monkeypatch.setattr(sparse, "_cpu_count", lambda: lanes)
            spans.clear()
            grad_in = sparse_conv_backward(inp, params, book, grad.features)[0]
            assert sorted(spans) == blocks
            assert grad_in.tobytes() == whole.tobytes(), (book is rb, lanes)


def test_conv_backward_never_runs_a_traced_forward(monkeypatch):
    # a tracer wraps the forward and inverse forward by name: a backward that
    # called them would be counted as a forward
    calls = []
    for name in ("sparse_conv_forward", "inverse_conv_forward"):
        real = getattr(sparse, name)
        monkeypatch.setattr(sparse, name,
                            lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
    rng = np.random.default_rng(10)
    x = random_sparse(rng, max_shape=(9, 9, 9))
    for kernel in NETWORK_KERNELS:
        rb = build_rulebook(x, kernel)
        params = Conv(kernel, x.num_channels, 3, rng)
        sparse_conv_backward(x, params, rb, rng.standard_normal((len(rb.out_coords), 3)))
        u = SparseTensor(rb.out_coords, rng.standard_normal((len(rb.out_coords), 2)),
                         rb.out_shape)
        inverse = Conv(kernel, 2, 3, rng)
        inverse_conv_backward(u, inverse, rb, rng.standard_normal((len(rb.in_coords), 3)))
    assert calls == []
    sparse.inverse_conv_forward(u, inverse, rb)
    assert calls == ["inverse_conv_forward", "sparse_conv_forward"]


def test_a_small_conv_makes_no_pool(fresh_pool):
    rng = np.random.default_rng(9)
    x = random_sparse(rng, max_shape=(9, 9, 9))
    rb = build_rulebook(x, NETWORK_KERNELS[1])
    params = Conv(rb.kernel, x.num_channels, 4, rng)
    sparse_conv_forward(x, params, rb)
    assert sparse._POOL is None


def test_importing_the_package_leaves_the_pool_module_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparse.__file__)))
    probe = "import sys, cylseg.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


def _occupancy_clouds(count, points=3_000):
    return [generate_synthetic_scene(SyntheticSceneSpec(seed=40 + i, num_points=points))
            for i in range(count)]


DEFAULT_GRIDS = (partition.DEFAULT_CYL_GRID, partition.DEFAULT_CUBIC_GRID)


def _serial_occupancy(clouds, grids=DEFAULT_GRIDS, edges=partition.DEFAULT_DISTANCE_EDGES):
    """Reference: the rows of the cylindrical and the cubic grid of
    ``grids``, one grid and then one cloud after another, on this thread,
    each cell at the planar distance of its centre (``cell_centers``): the
    radius, or the norm of x and y. A grid's totals are those of its lowest
    height layer times the layer count, since no distance depends on the
    height."""
    edges = np.asarray(edges, dtype=np.float64)
    rows = []
    for scheme, grid in zip(("cylindrical", "cubic"), grids):
        def planar(cells):
            centers = grid.cell_centers(cells)
            if scheme == "cylindrical":
                return centers[:, 0]
            return np.hypot(centers[:, 0], centers[:, 1])

        h, w, l = grid.resolution
        layer = np.stack(np.meshgrid(np.arange(h), np.arange(w), [0], indexing="ij"), axis=-1)
        totals = partition._count_in_bins(planar(layer.reshape(-1, 3)), edges) * l
        nonzero = totals > 0
        acc = np.zeros(len(edges) - 1)
        for cloud in clouds:
            cells = partition.assign_cells(cloud, grid).cells
            occ = partition._count_in_bins(planar(cells), edges)
            acc[nonzero] += occ[nonzero] / totals[nonzero]
        acc /= len(clouds)
        rows += [(scheme, float(lo), float(hi), float(a) if n else None)
                 for lo, hi, a, n in zip(edges[:-1], edges[1:], acc, nonzero)]
    return rows


def _occupancy(clouds, grids=DEFAULT_GRIDS, edges=partition.DEFAULT_DISTANCE_EDGES):
    return [(r.scheme, r.distance_lo, r.distance_hi, r.nonempty_proportion)
            for r in partition.occupancy_by_distance(clouds, *grids, edges)]


def test_occupancy_rows_on_odd_grids_and_edges_are_the_serial_loops():
    # rings of 2 m from rho = 1, centred at 2, 4, ..., 14; cubic columns of
    # 2 m, x-y centres between 1 and 13.6 m out. The edge 4 lies on a ring
    # centre, -5 and 0 below every distance, 20 and 30 past the grids.
    grids = (partition.CylGridSpec((1.0, 15.0), (-2.0, 3.0), (7, 5, 3)),
             partition.CubicGridSpec((-10.0, 12.0), (-9.0, 9.0), (-2.0, 3.0), (11, 9, 3)))
    assert grids[0].cell_centers([[1, 0, 0]])[0, 0] == 4.0
    clouds = [generate_synthetic_scene(SyntheticSceneSpec(seed=60 + i, num_points=2_000,
                                                          max_range=16.0))
              for i in range(3)]
    for edges in ((-5.0, 0.0, 4.0, 5.5, 20.0, 30.0), (0.0, 50.0)):
        rows = _occupancy(clouds, grids, edges)
        assert repr(rows) == repr(_serial_occupancy(clouds, grids, edges)), edges
        assert {r[3] is None for r in rows} == ({True, False} if len(edges) > 2 else {False})


def test_occupancy_rows_are_the_serial_loops_at_every_lane_count(fresh_pool, monkeypatch):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for count in (1, 2, 5):
            clouds = _occupancy_clouds(count)
            expected = repr(_serial_occupancy(clouds))
            for lanes in (8, 3, 2, 1):
                monkeypatch.setattr(sparse, "_cpu_count", lambda: lanes)
                assert repr(_occupancy(clouds)) == expected, (count, lanes)
    finally:
        sys.setswitchinterval(interval)


def test_one_cloud_or_one_cpu_makes_no_pool(fresh_pool, monkeypatch):
    _occupancy(_occupancy_clouds(1))
    assert sparse._POOL is None
    monkeypatch.setattr(sparse, "_cpu_count", lambda: 1)
    _occupancy(_occupancy_clouds(5))
    assert sparse._POOL is None


def test_a_malformed_cloud_on_a_pool_lane_raises_the_serial_loops_error(
    fresh_pool, monkeypatch
):
    monkeypatch.setattr(sparse, "_cpu_count", lambda: 2)
    clouds = _occupancy_clouds(3)
    bad = clouds[:1] + [np.zeros((50, 2))] + clouds[1:]  # index 1 runs on the pool's lane
    with pytest.raises(ValueError) as serial:
        _serial_occupancy(bad)
    with pytest.raises(ValueError) as lanes:
        _occupancy(bad)
    assert str(lanes.value) == str(serial.value) == "expected (N, 3) positions, got (50, 2)"
    assert sparse._POOL is not None
    assert _occupancy(clouds) == _serial_occupancy(clouds)


def test_in_lanes_waits_for_every_lane_when_the_callers_raises(fresh_pool, monkeypatch):
    monkeypatch.setattr(sparse, "_cpu_count", lambda: 3)
    finished = []

    def work(item):
        if item == 0:
            raise KeyError(item)
        time.sleep(0.05)
        finished.append(item)
        return item

    with pytest.raises(KeyError):
        sparse.in_lanes(work, range(3))
    assert sorted(finished) == [1, 2]
    assert sparse.in_lanes(lambda item: item * item, range(7)) == [i * i for i in range(7)]
    assert sparse.in_lanes(work, []) == []


def test_a_lane_that_calls_in_lanes_raises_instead_of_waiting(fresh_pool, monkeypatch):
    # a pool lane's nested call would wait on the pool it occupies; with the
    # fixture's eight-CPU pool it would find a free thread instead, so a
    # nested call that does not raise fails the test rather than hanging it
    failures = []

    def nested(item):
        return sparse.in_lanes(lambda inner: inner, range(2))

    def call():
        for _ in range(2):  # the caller's flag is cleared again
            try:
                sparse.in_lanes(nested, range(2))  # two lanes
            except RuntimeError as exc:
                failures.append(str(exc))
        failures.append(sparse.in_lanes(lambda item: item + 1, range(3)))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    if caller.is_alive():
        pytest.fail("a nested in_lanes call is waiting on its pool")
    assert failures[:2] == ["in_lanes called from inside a lane, whose pool it would wait on"] * 2
    assert failures[2:] == [[1, 2, 3]]

    # the conv row blocks and the stats lanes, on the same pool threads
    x, params, rb = _large_conv(4)
    got = sparse_conv_forward(x, params, rb).features
    assert got.tobytes() == _conv_on_lanes(x, params, rb, 8, 1).tobytes()
    clouds = _occupancy_clouds(3)
    assert _occupancy(clouds) == _serial_occupancy(clouds)


def _in_child(x, params, rb, expected, clouds, rows):
    got = sparse_conv_forward(x, params, rb).features
    assert got.tobytes() == expected
    assert sparse._cpu_count() == 8 and len(clouds) == 2  # two lanes
    assert _occupancy(clouds) == rows


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_a_forked_child_runs_a_large_conv(fresh_pool):
    x, params, rb = _large_conv(6)
    expected = sparse_conv_forward(x, params, rb).features.tobytes()
    assert sparse._POOL is not None  # the child inherits it, but not its threads
    clouds = _occupancy_clouds(2)  # binned on two lanes in the child
    child = multiprocessing.get_context("fork").Process(
        target=_in_child, args=(x, params, rb, expected, clouds, _serial_occupancy(clouds))
    )
    child.start()
    child.join(timeout=60)
    if child.exitcode is None:
        child.kill()
        child.join()
        pytest.fail("the forked child hung")
    assert child.exitcode == 0
