# Clean twin of the shard storage layer: blocks are built float64.
import numpy as np


def coerce_block(block):
    dense = np.asarray(block, dtype=np.float64)
    return np.asfortranarray(dense, dtype="float64")


def empty_block(rows, columns):
    return np.zeros((rows, columns), dtype="f8")
