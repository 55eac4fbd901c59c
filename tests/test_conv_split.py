"""A large conv runs in blocks of output rows, on as many threads as there
are CPUs, and gives the same bytes whatever the number of threads."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from cylseg import sparse
from cylseg.selftest import NETWORK_KERNELS, random_sparse
from cylseg.sparse import (
    SparseTensor,
    build_rulebook,
    init_conv_params,
    sparse_conv_forward,
)


def _empty_out(x, params, rb):
    return np.empty((len(rb.out_coords), params.weights.shape[2]), dtype=x.features.dtype)


def _conv_on_lanes(x, params, rb, blocks, lanes):
    """The blocks run lane by lane on this thread, last lane first."""
    weights = params.weights.astype(x.features.dtype, copy=False)
    out = _empty_out(x, params, rb)
    spans = sparse._row_blocks(len(out), blocks)
    for lane in reversed(range(lanes)):
        sparse._conv_lane(spans, lanes, lane, x.features, weights, params.bias, rb, out)
    return out


def _conv_by_masks(x, params, rb, blocks):
    """Reference: per block, per offset in order, the pairs a mask picks
    through gather, GEMM and scatter (the identity offset's too)."""
    weights = params.weights.astype(x.features.dtype, copy=False)
    out = _empty_out(x, params, rb)
    for lo, hi in sparse._row_blocks(len(out), blocks):
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
    """(input, params, rulebook) over every network kernel, sorted and
    shuffled coords, each rulebook and its transpose, float64 and float32."""
    for kernel in NETWORK_KERNELS:
        x = sites(kernel)
        perm = rng.permutation(x.num_sites)
        shuffled = SparseTensor(x.coords[perm], x.features[perm], x.spatial_shape)
        for on in (x, shuffled):
            for inp, book in _with_inverse(rng, on, build_rulebook(on.coords, on.spatial_shape,
                                                                   kernel)):
                c_out = int(rng.integers(min_channels, max_channels + 1))
                params = init_conv_params(kernel, inp.num_channels, c_out, rng)
                params.bias[:] = rng.standard_normal(c_out)
                for dtype in (np.float64, np.float32):
                    yield inp.with_features(inp.features.astype(dtype)), params, book


def _small_sites(rng):
    return lambda kernel: random_sparse(rng, max_shape=(12, 12, 12), max_channels=16,
                                        max_sites=600)


def test_row_blocks_cover_the_rows_in_order():
    for rows in (0, 1, 5, 64, 1001):
        for blocks in (1, 2, 3, 4, 8):
            spans = sparse._row_blocks(rows, blocks)
            assert len(spans) == blocks
            assert spans[0][0] == 0 and spans[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert max(hi - lo for lo, hi in spans) - min(hi - lo for lo, hi in spans) <= 1


def test_block_count_keeps_blocks_large_and_the_toy_convs_whole():
    block = sparse._BLOCK_MACS
    assert sparse._block_count(7_600_000) == 1  # the toy network's largest conv
    assert sparse._block_count(2 * block - 1) == 1
    for macs in (2 * block, 3 * block, 4 * block, 9 * block, 16 * block, 10**12):
        blocks = sparse._block_count(macs)
        assert blocks in (2, 4, 8)
        assert macs // blocks >= block
        assert blocks == sparse._MAX_BLOCKS or macs < 2 * blocks * block


def test_every_lane_count_gives_the_same_bytes():
    rng = np.random.default_rng(71)
    kinds = set()
    for x, params, rb in _cases(rng, _small_sites(rng), 1, 16):
        for blocks in (1, 2, 3, 4, 8):
            ref = _conv_by_masks(x, params, rb, blocks)
            for lanes in (1, 2, 3, 4):
                got = _conv_on_lanes(x, params, rb, blocks, lanes)
                assert got.tobytes() == ref.tobytes(), (rb.kernel, blocks, lanes)
        whole = sparse_conv_forward(x, params, rb).features
        np.testing.assert_array_equal(whole, _conv_on_lanes(x, params, rb, 1, 1))
        tol = 1e-4 if x.features.dtype == np.float32 else 1e-12
        np.testing.assert_allclose(_conv_on_lanes(x, params, rb, 8, 2), whole, atol=tol)
        unsorted = any((np.diff(o) < 0).any() for _, o in rb.pairs)
        kinds.add((rb.kernel, x.features.dtype.name, unsorted))
    # every kernel in both dtypes, with sorted and with unsorted out_idx
    assert len({k[:2] for k in kinds}) == 2 * len(NETWORK_KERNELS)
    assert {k[2] for k in kinds} == {False, True}


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
    # _block_count never makes them.
    rng = np.random.default_rng(72)
    split = set()
    for x, params, rb in _cases(rng, _large_sites(rng), 96, 96):
        _, c_in, c_out = params.weights.shape
        blocks = sparse._block_count(rb.num_pairs * c_in * c_out)
        if blocks == 1:
            continue
        whole = _conv_on_lanes(x, params, rb, 1, 1)
        assert _conv_on_lanes(x, params, rb, blocks, 2).tobytes() == whole.tobytes(), (
            rb.kernel, blocks, x.features.dtype)
        split.add(rb.kernel)
    assert split == set(NETWORK_KERNELS)


def _large_conv(seed):
    """A float32 3x3x3 conv that splits into blocks, on shuffled sites, so
    that its transpose has unsorted ``out_idx``."""
    rng = np.random.default_rng(seed)
    x = _large_sites(rng, channels=64)(NETWORK_KERNELS[1])
    perm = rng.permutation(x.num_sites)
    x = SparseTensor(x.coords[perm], x.features[perm].astype(np.float32), x.spatial_shape)
    rb = build_rulebook(x.coords, x.spatial_shape, NETWORK_KERNELS[1])
    params = init_conv_params(rb.kernel, 64, 64, rng)
    params.bias[:] = rng.standard_normal(64)
    assert sparse._block_count(rb.num_pairs * 64 * 64) > 1
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
            blocks = sparse._block_count(book.num_pairs * 64 * 64)
            assert blocks == 8
            for _ in range(3):
                got = sparse_conv_forward(x, params, book).features
                assert got.tobytes() == _conv_on_lanes(x, params, book, blocks, 1).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert sparse._POOL is not None


def test_a_small_conv_makes_no_pool(fresh_pool):
    rng = np.random.default_rng(9)
    x = random_sparse(rng, max_shape=(9, 9, 9))
    rb = build_rulebook(x.coords, x.spatial_shape, NETWORK_KERNELS[1])
    params = init_conv_params(rb.kernel, x.num_channels, 4, rng)
    sparse_conv_forward(x, params, rb)
    assert sparse._POOL is None


def test_importing_the_package_leaves_the_pool_module_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparse.__file__)))
    probe = "import sys, cylseg.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


def _conv_in_child(x, params, rb, expected):
    got = sparse_conv_forward(x, params, rb).features
    assert got.tobytes() == expected


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_a_forked_child_runs_a_large_conv(fresh_pool):
    x, params, rb = _large_conv(6)
    expected = sparse_conv_forward(x, params, rb).features.tobytes()
    assert sparse._POOL is not None  # the child inherits it, but not its threads
    child = multiprocessing.get_context("fork").Process(
        target=_conv_in_child, args=(x, params, rb, expected)
    )
    child.start()
    child.join(timeout=60)
    if child.exitcode is None:
        child.kill()
        child.join()
        pytest.fail("the forked child's conv hung")
    assert child.exitcode == 0
