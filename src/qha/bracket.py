"""Bracket products and the norms of sampled functions.

The bracket of two algebra elements under an action is the complex function
on the group g -> trace((g.y)* x), sampled as ``action.bracket_values`` in
fixed node order, so all reductions are deterministic.  Its integrals and
L^r norms are taken against ``action.haar.weights``.  For positive x and y
it agrees with trace(x^{1/2} (g.y) x^{1/2}) and is nonnegative.  The
symmetry defect reads both of its sides from ``Action.symmetry_values``.
On stacks of trials (see ``algebra``) a bracket holds one row of values per
trial, and its norms and the defect give one value per trial.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    AlgebraElement,
    exponent_groups,
    take_rows,
    trial_values,
    weighted_sum,
)
from .actions import Action


def bracket(x: AlgebraElement, y: AlgebraElement, action: Action) -> np.ndarray:
    """Sampled bracket g -> trace((g.y)* x) on the action's nodes:
    ``action.bracket_values``, one row per trial of stacks."""
    return action.bracket_values(x, y)


def function_p_norm(values: np.ndarray, weights, r) -> float | np.ndarray:
    """L^r norm of a sampled function: (sum w |v|^r)^{1/r}; r = inf is the sup.

    Values with one row per trial take one exponent or one per trial.  Each
    trial's final root is taken on a float64 scalar, as a single norm's is.
    """
    v = np.abs(values)
    stacked = v.reshape(-1, v.shape[-1])
    out = np.empty(len(stacked))
    for rv, idx in exponent_groups(r, len(stacked)).items():
        rows = take_rows(stacked, idx)
        if rv == math.inf:
            out[idx] = np.max(rows, axis=-1, initial=0.0)
        else:
            out[idx] = [np.float64(t) ** (1.0 / rv) for t in weighted_sum(rows ** rv, weights).tolist()]
    return trial_values(out.reshape(v.shape[:-1]))


def bracket_symmetry_defect(x: AlgebraElement, y: AlgebraElement, action: Action) -> float:
    """max over g of |<x|y>(g^{-1}) - conj(<y|x>(g))|, relative to max over g
    of |<x|y>(g^{-1})|, one per trial of stacks.

    The identity holds for every x and y, by trace invariance alone:
    tr((g^{-1}.y)* x) = tr(y* (g.x)) = conj(tr((g.x)* y)).  Without the
    conjugate it holds only where the bracket is real, as for hermitian x
    and y.  The scale is floored at 1e-300.  Both sides come from
    ``action.symmetry_values``: at every node of a finite group, and at the
    sampled nodes of the wavelet, whose node set is not closed under
    inversion.
    """
    vxy, vyx = action.symmetry_values(x, y)
    defect = np.abs(vxy - vyx.conj()).max(axis=-1)
    return trial_values(defect / np.maximum(np.abs(vxy).max(axis=-1), 1e-300))
