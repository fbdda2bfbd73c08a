"""Bracket products, their group integrals and norms, and weight convolution.

The bracket of two algebra elements under an action is the complex function
on the group g -> trace((g.y)* x).  For positive x and y this agrees with
trace(x^{1/2} (g.y) x^{1/2}) and is nonnegative.  Values are computed densely
at every node in fixed node order, so all reductions are deterministic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import functools
import math

import numpy as np

from .algebra import AlgebraElement, NotPositiveError, ParameterError, WeightKernel
from .actions import Action
from .groups import HaarModel, QuadratureGroup


class InverseClosureError(Exception):
    """The quadrature node set is not closed under inversion."""


@dataclass(frozen=True)
class BracketFunction:
    """Sampled bracket values with their integration weights and provenance.

    ``labels`` is the tuple of node labels or a function that builds it;
    ``node_labels`` calls that function once, on first use.
    """

    values: np.ndarray
    weights: np.ndarray
    labels: tuple[str, ...] | Callable[[], tuple[str, ...]]
    provenance: str = ""

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if v.shape != w.shape or v.ndim != 1:
            raise ParameterError("need one value and one weight per node")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def node_labels(self) -> tuple[str, ...]:
        if callable(self.labels):
            object.__setattr__(self, "labels", tuple(self.labels()))
        return self.labels

    def to_table(self) -> str:
        """Two-column export: node label, complex value."""
        lines = [f"# {self.provenance}".rstrip()]
        for lab, v in zip(self.node_labels, self.values):
            lines.append(f"{lab}\t{v.real:.12e}{v.imag:+.12e}j")
        return "\n".join(lines) + "\n"


def _node_labels(action: Action) -> tuple[str, ...]:
    group = action.group
    if isinstance(group, QuadratureGroup):
        return tuple(group.node_label(i) for i in range(group.node_count))
    return tuple(group.labels)


def bracket(x: AlgebraElement, y: AlgebraElement, action: Action, haar: HaarModel,
            provenance: str = "") -> BracketFunction:
    """Sampled bracket g -> trace((g.y)* x) on the action's nodes."""
    values = action.bracket_values(x, y)
    return BracketFunction(values, haar.weights, functools.partial(_node_labels, action),
                           provenance=provenance or f"bracket@{action.kind}")


def integrate_bracket(bf: BracketFunction) -> complex:
    """Haar-weighted sum of the bracket values."""
    return complex(np.dot(bf.weights, bf.values))


def bracket_integral(x: AlgebraElement, y: AlgebraElement, action: Action,
                     haar: HaarModel) -> complex:
    """Integral of the bracket, using the action's collapsed fast path if any."""
    return action.bracket_integral(x, y, haar.weights)


def function_p_norm(bf: BracketFunction, r: float) -> float:
    """L^r norm of the sampled function: (sum w |v|^r)^{1/r}; r = inf is the sup."""
    if r == math.inf:
        return float(np.abs(bf.values).max()) if len(bf) else 0.0
    r = float(r)
    if r < 1.0:
        raise ParameterError(f"function norm exponent must be >= 1, got {r}")
    return float(np.dot(bf.weights, np.abs(bf.values) ** r) ** (1.0 / r))


def bracket_symmetry_defect(x: AlgebraElement, y: AlgebraElement, action: Action,
                            haar: HaarModel) -> float:
    """max over g of |<x|y>(g^{-1}) - <y|x>(g)|, relative to max over g of |<x|y>(g)|.

    The scale is floored at 1e-300.  Requires a node set closed under
    inversion: finite groups always are; quadrature groups whose nodes are
    not inverse-closed are unsupported and raise InverseClosureError rather
    than being silently skipped.
    """
    group = action.group
    vxy = action.bracket_values(x, y)
    vyx = action.bracket_values(y, x)
    if isinstance(group, QuadratureGroup):
        inv = _inverse_node_index(group)
    else:
        inv = group.inverse_table
    return float(np.abs(vxy[inv] - vyx).max()) / max(float(np.abs(vxy).max()), 1e-300)


def _inverse_node_index(group: QuadratureGroup) -> np.ndarray:
    nodes = group.nodes
    scale = np.abs(nodes).max() + 1.0
    index = np.empty(group.node_count, dtype=int)
    for i in range(group.node_count):
        inv = group.inverse(nodes[i])
        dist = np.abs(nodes - inv).max(axis=1)
        j = int(np.argmin(dist))
        if dist[j] > 1e-9 * scale:
            raise InverseClosureError(
                f"node set of {group.label} is not inverse-closed "
                f"(inverse of node {i} missing by {dist[j]:.3e})"
            )
        index[i] = j
    return index


def convolve_weight(f, K: WeightKernel, action: Action, haar: HaarModel) -> WeightKernel:
    """Convolution of a function with a weight: kernel = sum w_i f(g_i) (g_i . K).

    ``f`` maps group elements (indices or parameter vectors) to scalars.  For
    nonnegative f and a positive kernel the result is positive; eigenvalues
    below the positivity clamp raise NotPositiveError as a numerical failure.
    """
    elems = action.node_elements()
    fvals = np.array([f(g) for g in elems], dtype=complex)
    coeffs = haar.weights * fvals
    raw = action.orbit_sum(coeffs, K.kernel)
    herm_defect = raw.hermitian_defect()
    scale = 1.0 + raw.max_abs_entry()
    if herm_defect > 1e-9 * scale:
        raise NotPositiveError(
            f"convolved kernel is not hermitian (defect {herm_defect:.3e}); "
            "the integrand must produce a weight"
        )
    sym = 0.5 * (raw + raw.adjoint())
    return WeightKernel(sym)
