# Seeded violation for the shard storage layer: a block built float32
# would hand low-precision values to every float64 gather.
import numpy as np


def coerce_block(block):
    return np.asarray(block, dtype=np.float32)
