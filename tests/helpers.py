"""Per-block views for tests that state inputs and references block by block.

The package stores an element as one stack per size class; these helpers
translate to and from a list of matrices in block order.
"""

import numpy as np

from qha.algebra import AlgebraElement
from qha.groups import QuadratureGroup


def element(shape, blocks):
    """Element of ``shape`` whose block k is ``blocks[k]``."""
    return AlgebraElement(shape, [np.stack([np.asarray(blocks[k], dtype=complex) for k in idx])
                                  for idx, _ in shape.size_classes])


def blocks_of(x):
    """The blocks of ``x``, in block order."""
    out = [None] * len(x.shape.block_dims)
    for (idx, _), stack in zip(x.shape.size_classes, x.stacks):
        for k, b in zip(idx, stack):
            out[k] = b
    return out


def nodes_of(action):
    """Every node of the action's group, in node order."""
    group = action.group
    if isinstance(group, QuadratureGroup):
        return list(group.nodes)
    return list(group.elements())
