"""Finite-dimensional tracial operator algebras.

An algebra here is a direct sum of full complex matrix blocks, with a trace
that weights block k by a positive scalar.  Every finite-dimensional von
Neumann algebra has this form, so a plain hermitian eigendecomposition gives
the spectral powers the laws need.  Elements are immutable; every operation
returns a new element.

Spectral work (the trace, singular values, hermitian eigendecompositions)
runs per size class: the blocks of one size are stacked and handed to a
single batched LAPACK call, so a diagonal algebra costs one call, not one
per atom.
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

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, [np.zeros((n, n), dtype=complex) for n in self.block_dims])

    def identity(self) -> AlgebraElement:
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.block_dims])

    def scalar(self, c: complex) -> AlgebraElement:
        return AlgebraElement(self, [c * np.eye(n, dtype=complex) for n in self.block_dims])

    def basis(self) -> Iterator[AlgebraElement]:
        """Matrix-unit basis, block by block, row-major inside each block."""
        for k, n in enumerate(self.block_dims):
            for i in range(n):
                for j in range(n):
                    blocks = [np.zeros((m, m), dtype=complex) for m in self.block_dims]
                    blocks[k][i, j] = 1.0
                    yield AlgebraElement(self, blocks)


class AlgebraElement:
    """Immutable element of a block algebra."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks, copy: bool = True):
        if len(blocks) != len(shape.block_dims):
            raise ShapeMismatchError("wrong number of blocks")
        stored = []
        for n, b in zip(shape.block_dims, blocks):
            arr = np.array(b, dtype=complex, copy=copy)
            if arr.shape != (n, n):
                raise ShapeMismatchError(f"block of shape {arr.shape}, expected {(n, n)}")
            arr.setflags(write=False)
            stored.append(arr)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", tuple(stored))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _require_same_shape(self, other: AlgebraElement) -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live on different algebras")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)], copy=False)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)], copy=False)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.shape, [-a for a in self.blocks], copy=False)

    def __mul__(self, c) -> AlgebraElement:
        c = complex(c)
        return AlgebraElement(self.shape, [c * a for a in self.blocks], copy=False)

    __rmul__ = __mul__

    def __matmul__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)], copy=False)

    def adjoint(self) -> AlgebraElement:
        return AlgebraElement(self.shape, [a.conj().T for a in self.blocks], copy=False)

    def hermitian_defect(self) -> float:
        return max(float(np.abs(a - a.conj().T).max()) for a in self.blocks)

    def max_abs_entry(self) -> float:
        return max(float(np.abs(a).max()) for a in self.blocks)

    def vec(self) -> np.ndarray:
        """Row-major concatenation of all blocks; basis order matches AlgebraShape.basis."""
        return np.concatenate(self.blocks, axis=None)

    def __repr__(self) -> str:
        dims = "+".join(str(n) for n in self.shape.block_dims)
        return f"AlgebraElement(dims={dims}, sup={self.max_abs_entry():.3e})"


def sup_distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest absolute entry of a - b, a cheap proxy for the operator norm gap."""
    return (a - b).max_abs_entry()


def _stacks(x: AlgebraElement) -> list[np.ndarray]:
    """One (m, n, n) array per size class; a class of one block is a view of it."""
    return [x.blocks[idx[0]][None] if len(idx) == 1 else np.stack([x.blocks[k] for k in idx])
            for idx, _ in x.shape.size_classes]


def _unstack(shape: AlgebraShape, stacks) -> AlgebraElement:
    """Element whose blocks are the rows of one (m, n, n) array per size class."""
    blocks = [None] * len(shape.block_dims)
    for (idx, _), stack in zip(shape.size_classes, stacks):
        for k, b in zip(idx, stack):
            blocks[k] = b
    return AlgebraElement(shape, blocks, copy=False)


def trace(x: AlgebraElement) -> complex:
    """Weighted trace: sum of trace_weights[k] * tr(block k)."""
    return complex(sum(w @ np.trace(s, axis1=1, axis2=2)
                       for (_, w), s in zip(x.shape.size_classes, _stacks(x))))


def _singular_values(x: AlgebraElement) -> list[np.ndarray]:
    """Singular values, one (m, n) array per size class."""
    return [np.linalg.svd(s, compute_uv=False) for s in _stacks(x)]


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
    return [np.linalg.eigh(0.5 * (s + s.conj().swapaxes(1, 2))) for s in _stacks(x)]


def from_eigh(shape: AlgebraShape, eig, f: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
    """Element with the eigenvectors of ``eig`` (from eigh_blocks) and the
    eigenvalues f(w), f taking and returning one stacked array per class."""
    return _unstack(shape, [(v * f(w)[:, None, :]) @ v.conj().swapaxes(1, 2) for w, v in eig])


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
    """Seeded complex Gaussian element."""
    blocks = [
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for n in shape.block_dims
    ]
    return AlgebraElement(shape, blocks, copy=False)


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
