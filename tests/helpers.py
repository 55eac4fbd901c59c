"""Helpers the tests share."""

import numpy as np


def cell_points(mapping):
    """Per cell of ``mapping``, the indices of its points in ascending order."""
    if mapping.num_cells == 0:
        return []
    order, _, starts = mapping.grouping
    return np.split(order, starts[1:])
