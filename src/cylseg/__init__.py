"""Cylindrical-voxel LiDAR segmentation toolkit.

Pure-numpy implementation of a cylindrical partition pipeline for outdoor
point cloud segmentation: KITTI-style scan I/O, cylindrical/cubic voxel
grids, submanifold sparse 3D convolutions with hand-written backward passes,
an asymmetrical residual encoder-decoder with per-point refinement, weighted
cross-entropy plus Lovasz-softmax training, and a small CLI.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the user set a count, before numpy loads: the
# program runs its own lanes, one per CPU, and the BLAS thread count changes
# the order of the GEMM sums, so a checkpoint's bytes would depend on the
# machine. A program that imported numpy before cylseg keeps its setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .pointcloud import (
    FileFormatError,
    LabelMap,
    PointCloud,
    SyntheticSceneSpec,
    generate_synthetic_scene,
    read_kitti_bin,
    read_kitti_labels,
    write_kitti_bin,
    write_kitti_labels,
)
from .partition import (
    CubicGridSpec,
    CylGridSpec,
    VoxelMapping,
    assign_cells,
    cart_to_cyl,
    encode_cell_labels,
    encoding_upper_bound_miou,
    occupancy_by_distance,
    scatter_features,
)
from .sparse import (
    KernelSpec,
    Rulebook,
    SparseTensor,
    build_rulebook,
    dense_conv_oracle,
    densify,
    inverse_conv_forward,
    sparse_conv_forward,
)
from .network import NetworkConfig, SegmentationNetwork, point_input_features
from .metrics import ConfusionMatrix, compute_miou
