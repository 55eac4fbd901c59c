"""Helpers the tests share."""

import tracemalloc

import numpy as np


def conv_weight_count(module) -> int:
    """Total number of convolution weights (bias and norm excluded)."""
    return sum(
        arr.size for name, arr in module.named_params().items() if name.endswith("weights")
    )


def cell_points(mapping):
    """Per cell of ``mapping``, the indices of its points in ascending order."""
    if mapping.num_cells == 0:
        return []
    order, _, starts = mapping.grouping
    return np.split(order, starts[1:])


class traced_memory:
    """Traces allocations inside a ``with`` block, numpy's arrays included.

    ``peak()`` is the most bytes traced at once since the block began or
    since the last ``peak()``, which starts a new peak; ``live()`` is the
    bytes traced now. Only what the block allocates counts.
    """

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()

    @staticmethod
    def peak() -> int:
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return top

    @staticmethod
    def live() -> int:
        return tracemalloc.get_traced_memory()[0]
