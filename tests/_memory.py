"""What a network's layers keep between calls, for the memory tests."""

from __future__ import annotations

import numpy as np

#: Private layer attributes that hold no batch data: ``Conv2d`` /
#: ``MaxPool2d`` index tables are a function of the input geometry alone.
GEOMETRY_ATTRIBUTES = frozenset({"_index_tables"})


def retained_cache_bytes(network) -> int:
    """Array bytes reachable from the private state of ``network``'s layers.

    That is what the forward caches hold (im2col matrices, argmax indices,
    masks, inputs); weights and gradients are public attributes and not
    counted, and neither are the :data:`GEOMETRY_ATTRIBUTES`, excluded by
    name — every other private container, dicts included, is counted.
    """

    def array_bytes(value) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            return sum(array_bytes(item) for item in value)
        return 0

    return sum(
        array_bytes(value)
        for layer in network.layers
        for name, value in vars(layer).items()
        if name.startswith("_") and name not in GEOMETRY_ATTRIBUTES
    )
