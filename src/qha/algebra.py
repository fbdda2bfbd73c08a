"""Finite-dimensional tracial operator algebras.

An algebra here is a direct sum of full complex matrix blocks, with a trace
that weights block k by a positive scalar.  Every finite-dimensional von
Neumann algebra has this form, so a plain hermitian eigendecomposition gives
the spectral powers the laws need.  Elements are immutable; every operation
returns a new element.

An element is stored as one (m, n, n) stack per size class: the m blocks of
size n, in block order.  Every operation, the spectral ones included (the
trace, singular values, hermitian eigendecompositions), is one numpy call
per size class, so a diagonal algebra costs one call, not one per atom.
``vec`` and ``basis`` run class by class, which is block order unless blocks
of different sizes interleave.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

# Relative eigenvalue clamp below which "positive" tolerates roundoff noise.
EPS_PSD = 1e-10


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class ShapeMismatchError(AlgebraError):
    """Operands live on different block structures."""


class NotPositiveError(AlgebraError):
    """A (nearly) positive semidefinite hermitian input was required."""


class DomainError(AlgebraError):
    """A scalar function is undefined on part of the spectrum."""


class ParameterError(AlgebraError, ValueError):
    """Invalid numeric parameter, e.g. a norm exponent below 1."""


@dataclass(frozen=True)
class AlgebraShape:
    """Block structure: matrix sizes and the trace weight of each block."""

    block_dims: tuple[int, ...]
    trace_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.block_dims) != len(self.trace_weights):
            raise ShapeMismatchError("block_dims and trace_weights differ in length")
        if len(self.block_dims) == 0:
            raise ShapeMismatchError("algebra needs at least one block")
        if any(int(n) < 1 or int(n) != n for n in self.block_dims):
            raise ShapeMismatchError("block dimensions must be positive integers")
        if any(not (w > 0) for w in self.trace_weights):
            raise ShapeMismatchError("trace weights must be positive")
        object.__setattr__(self, "block_dims", tuple(int(n) for n in self.block_dims))
        object.__setattr__(self, "trace_weights", tuple(float(w) for w in self.trace_weights))

    @functools.cached_property
    def size_classes(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Blocks grouped by size: (block indices, their trace weights) per
        distinct size, in order of first appearance."""
        weights = np.array(self.trace_weights)
        classes = []
        for n in dict.fromkeys(self.block_dims):
            idx = tuple(k for k, m in enumerate(self.block_dims) if m == n)
            classes.append((idx, weights[list(idx)]))
        return tuple(classes)

    @property
    def total_dim(self) -> int:
        """Real dimension of the linearization, sum of n_k^2."""
        return int(sum(n * n for n in self.block_dims))

    @functools.cached_property
    def stack_shapes(self) -> tuple[tuple[int, int, int], ...]:
        """(m, n, n) of the stack holding each size class's m blocks of size n."""
        return tuple((len(idx), self.block_dims[idx[0]], self.block_dims[idx[0]])
                     for idx, _ in self.size_classes)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, [np.zeros(s, dtype=complex) for s in self.stack_shapes], copy=False)

    def identity(self) -> AlgebraElement:
        return self.scalar(1.0)

    def scalar(self, c: complex) -> AlgebraElement:
        return AlgebraElement(self, [np.broadcast_to(c * np.eye(s[1], dtype=complex), s)
                                     for s in self.stack_shapes])

    def basis(self) -> Iterator[AlgebraElement]:
        """Matrix-unit basis in ``vec`` order: size class by size class, the
        blocks of a class in block order, row-major inside each block.  This is
        block order unless blocks of different sizes interleave."""
        for c, s in enumerate(self.stack_shapes):
            for k in range(math.prod(s)):
                stacks = [np.zeros(t, dtype=complex) for t in self.stack_shapes]
                stacks[c].flat[k] = 1.0
                yield AlgebraElement(self, stacks, copy=False)


class AlgebraElement:
    """Immutable element of a block algebra: one read-only complex (m, n, n)
    stack per entry of ``shape.size_classes``, row i holding the block
    ``idx[i]`` of that class."""

    __slots__ = ("shape", "stacks")

    def __init__(self, shape: AlgebraShape, stacks, copy: bool = True):
        if len(stacks) != len(shape.stack_shapes):
            raise ShapeMismatchError("need one stack per size class")
        stored = []
        for expected, s in zip(shape.stack_shapes, stacks):
            arr = np.array(s, dtype=complex, copy=copy)
            if arr.shape != expected:
                raise ShapeMismatchError(f"stack of shape {arr.shape}, expected {expected}")
            arr.setflags(write=False)
            stored.append(arr)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stacks", tuple(stored))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _require_same_shape(self, other: AlgebraElement) -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live on different algebras")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, [a + b for a, b in zip(self.stacks, other.stacks)], copy=False)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, [a - b for a, b in zip(self.stacks, other.stacks)], copy=False)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.shape, [-a for a in self.stacks], copy=False)

    def __mul__(self, c) -> AlgebraElement:
        c = complex(c)
        return AlgebraElement(self.shape, [c * a for a in self.stacks], copy=False)

    __rmul__ = __mul__

    def __matmul__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, [a @ b for a, b in zip(self.stacks, other.stacks)], copy=False)

    def adjoint(self) -> AlgebraElement:
        return AlgebraElement(self.shape, [a.conj().swapaxes(1, 2) for a in self.stacks], copy=False)

    def hermitian_defect(self) -> float:
        return max(float(np.abs(a - a.conj().swapaxes(1, 2)).max()) for a in self.stacks)

    def max_abs_entry(self) -> float:
        return max(float(np.abs(a).max()) for a in self.stacks)

    def vec(self) -> np.ndarray:
        """Row-major concatenation of the stacks, in the order of AlgebraShape.basis."""
        return np.concatenate(self.stacks, axis=None)

    def __repr__(self) -> str:
        dims = "+".join(str(n) for n in self.shape.block_dims)
        return f"AlgebraElement(dims={dims}, sup={self.max_abs_entry():.3e})"


def sup_distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest absolute entry of a - b, a cheap proxy for the operator norm gap."""
    return (a - b).max_abs_entry()


def trace(x: AlgebraElement) -> complex:
    """Weighted trace: sum of trace_weights[k] * tr(block k)."""
    return complex(sum(w @ np.trace(s, axis1=1, axis2=2)
                       for (_, w), s in zip(x.shape.size_classes, x.stacks)))


def _singular_values(x: AlgebraElement) -> list[np.ndarray]:
    """Singular values, one (m, n) array per size class."""
    return [np.linalg.svd(s, compute_uv=False) for s in x.stacks]


def op_norm(x: AlgebraElement) -> float:
    """Operator norm: the largest singular value over all blocks."""
    return max(float(s[:, 0].max()) for s in _singular_values(x))


def p_norm(x: AlgebraElement, p: float) -> float:
    """Trace p-norm (trace of |x|^p) ** (1/p); p = inf gives the operator norm."""
    if p == math.inf:
        return op_norm(x)
    p = float(p)
    if p < 1.0:
        raise ParameterError(f"norm exponent must be >= 1, got {p}")
    total = sum(float(w @ np.sum(s ** p, axis=1))
                for (_, w), s in zip(x.shape.size_classes, _singular_values(x)))
    return float(total ** (1.0 / p))


def eigh_blocks(x: AlgebraElement, herm_tol: float = 1e-9) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hermitian eigendecompositions, one stacked pair (w, v) of shapes (m, n)
    and (m, n, n) per size class of ``x.shape.size_classes``; rejects
    non-hermitian input."""
    scale = 1.0 + x.max_abs_entry()
    if x.hermitian_defect() > herm_tol * scale:
        raise NotPositiveError("element is not hermitian within tolerance")
    return [np.linalg.eigh(0.5 * (s + s.conj().swapaxes(1, 2))) for s in x.stacks]


def from_eigh(shape: AlgebraShape, eig, f: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
    """Element with the eigenvectors of ``eig`` (from eigh_blocks) and the
    eigenvalues f(w), f taking and returning one stacked array per class."""
    return AlgebraElement(shape, [(v * f(w)[:, None, :]) @ v.conj().swapaxes(1, 2) for w, v in eig],
                          copy=False)


def power(x: AlgebraElement, t: float) -> AlgebraElement:
    """Spectral power x^t of a hermitian PSD element.

    Noise-level negative eigenvalues are clamped to zero first.  Non-positive
    eigenvalues under a negative or fractional-negative power raise DomainError.
    """
    scale = op_norm(x)
    eig = eigh_blocks(x)
    low = min(float(w.min()) for w, _ in eig)
    if low < -EPS_PSD * max(scale, 1e-300):
        raise NotPositiveError(f"eigenvalue {low:.3e} below positivity clamp")

    def vals_of(w: np.ndarray) -> np.ndarray:
        wc = np.clip(w, 0.0, None)
        if t < 0 and np.any(wc == 0.0):
            raise DomainError("negative power of a singular element")
        with np.errstate(divide="raise", invalid="raise"):
            return wc ** t

    return from_eigh(x.shape, eig, vals_of)


def random_element(shape: AlgebraShape, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Seeded complex Gaussian element.  Each size class draws its real and
    imaginary parts block by block, so on a shape with a single size class
    the stream is consumed as by one draw per block in block order."""
    stacks = []
    for m, n, _ in shape.stack_shapes:
        z = rng.standard_normal((m, 2, n, n))
        stacks.append(scale * (z[:, 0] + 1j * z[:, 1]))
    return AlgebraElement(shape, stacks, copy=False)


def random_positive_element(
    shape: AlgebraShape, rng: np.random.Generator, floor: float = 1e-6
) -> AlgebraElement:
    """Seeded positive element z*z + delta*1 with delta = floor * ||z*z||_inf.

    The floor keeps spectra away from the singular corner so that negative
    powers stay well conditioned.
    """
    z = random_element(shape, rng)
    zz = z.adjoint() @ z
    delta = floor * op_norm(zz)
    return zz + shape.scalar(delta)
