"""Bracket products, their group integrals and norms.

The bracket of two algebra elements under an action is the complex function
on the group g -> trace((g.y)* x).  For positive x and y this agrees with
trace(x^{1/2} (g.y) x^{1/2}) and is nonnegative.  Values are computed densely
at every node in fixed node order, so all reductions are deterministic; the
symmetry defect reads both of its sides from the action
(``Action.symmetry_values``).  On stacks of trials (see ``algebra``) a
bracket holds one row of values per trial, and its integral and norms give
one value per trial.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    AlgebraElement,
    ParameterError,
    exponent_groups,
    take_rows,
    trial_values,
    weighted_sum,
)
from .actions import Action


class BracketFunction:
    """Sampled bracket values with their integration weights: one value per
    node, or one row of them per trial.  Immutable, with read-only arrays."""

    __slots__ = ("values", "weights")

    def __init__(self, values, weights):
        v = np.asarray(values, dtype=complex)
        w = np.asarray(weights, dtype=float)
        if v.shape[-1:] != w.shape or w.ndim != 1 or v.ndim > 2:
            raise ParameterError("need one value and one weight per node")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("BracketFunction is immutable")

    def __len__(self) -> int:
        """The node count."""
        return self.values.shape[-1]


def bracket(x: AlgebraElement, y: AlgebraElement, action: Action) -> BracketFunction:
    """Sampled bracket g -> trace((g.y)* x) on the action's nodes, with its Haar weights."""
    return BracketFunction(action.bracket_values(x, y), action.haar.weights)


def integrate_bracket(bf: BracketFunction) -> complex | np.ndarray:
    """Haar-weighted sum of the bracket values."""
    return weighted_sum(bf.values, bf.weights)


def function_p_norm(bf: BracketFunction, r) -> float | np.ndarray:
    """L^r norm of the sampled function: (sum w |v|^r)^{1/r}; r = inf is the sup.

    A bracket of a stack takes one exponent or one per trial.  Each trial's
    final root is taken on a float64 scalar, as a single norm's is.
    """
    v = np.abs(bf.values)
    stacked = v.reshape(-1, v.shape[-1])
    out = np.empty(len(stacked))
    for rv, idx in exponent_groups(r, len(stacked)).items():
        rows = take_rows(stacked, idx)
        if rv == math.inf:
            out[idx] = np.max(rows, axis=-1, initial=0.0)
        else:
            out[idx] = [np.float64(t) ** (1.0 / rv) for t in weighted_sum(rows ** rv, bf.weights).tolist()]
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
