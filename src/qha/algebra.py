"""Finite-dimensional tracial operator algebras.

An algebra here is a direct sum of t full complex n x n matrix blocks, with
a trace that weights block k by a positive scalar; a hermitian
eigendecomposition of each block gives the spectral powers the laws need.
Elements are immutable; every operation returns a new element.

All blocks have one size because the laws assume an ergodic automorphic
action: an automorphism maps each block onto a block of the same size, and
ergodicity makes the action transitive on the blocks (otherwise the sum of
the central projections over one block orbit is a non-scalar fixed point).
An element is therefore stored as one read-only (t, n, n) array, row k
holding block k, and every operation, the spectral ones included (the trace,
singular values, hermitian eigendecompositions), is one stacked numpy call,
so a diagonal algebra costs one call, not one per atom.
"""

from __future__ import annotations

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
    """Block structure: t = len(trace_weights) blocks of size block_dim, and
    the trace weight of each block."""

    block_dim: int
    trace_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.trace_weights) == 0:
            raise ShapeMismatchError("algebra needs at least one block")
        if int(self.block_dim) < 1 or int(self.block_dim) != self.block_dim:
            raise ShapeMismatchError("block dimension must be a positive integer")
        if any(not (w > 0) for w in self.trace_weights):
            raise ShapeMismatchError("trace weights must be positive")
        object.__setattr__(self, "block_dim", int(self.block_dim))
        object.__setattr__(self, "trace_weights", tuple(float(w) for w in self.trace_weights))

    @property
    def blocks_shape(self) -> tuple[int, int, int]:
        """(t, n, n) of the array holding an element's blocks."""
        return (len(self.trace_weights), self.block_dim, self.block_dim)

    @property
    def total_dim(self) -> int:
        """Real dimension of the linearization, t n^2."""
        return math.prod(self.blocks_shape)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, np.zeros(self.blocks_shape, dtype=complex), copy=False)

    def identity(self) -> AlgebraElement:
        return self.scalar(1.0)

    def scalar(self, c: complex) -> AlgebraElement:
        return AlgebraElement(self, np.broadcast_to(c * np.eye(self.block_dim, dtype=complex),
                                                    self.blocks_shape))

    def basis(self) -> Iterator[AlgebraElement]:
        """Matrix-unit basis in ``vec`` order: block by block, row-major inside
        each block."""
        for k in range(self.total_dim):
            blocks = np.zeros(self.blocks_shape, dtype=complex)
            blocks.flat[k] = 1.0
            yield AlgebraElement(self, blocks, copy=False)


class AlgebraElement:
    """Immutable element of a block algebra: one read-only complex (t, n, n)
    array ``blocks`` whose row k is block k."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks, copy: bool = True):
        arr = np.array(blocks, dtype=complex, copy=copy)
        if arr.shape != shape.blocks_shape:
            raise ShapeMismatchError(f"blocks of shape {arr.shape}, expected {shape.blocks_shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", arr)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def _require_same_shape(self, other: AlgebraElement) -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live on different algebras")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, self.blocks + other.blocks, copy=False)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, self.blocks - other.blocks, copy=False)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.shape, -self.blocks, copy=False)

    def __mul__(self, c) -> AlgebraElement:
        return AlgebraElement(self.shape, complex(c) * self.blocks, copy=False)

    __rmul__ = __mul__

    def __matmul__(self, other: AlgebraElement) -> AlgebraElement:
        self._require_same_shape(other)
        return AlgebraElement(self.shape, self.blocks @ other.blocks, copy=False)

    def adjoint(self) -> AlgebraElement:
        return AlgebraElement(self.shape, self.blocks.conj().swapaxes(1, 2), copy=False)

    def hermitian_defect(self) -> float:
        return float(np.abs(self.blocks - self.blocks.conj().swapaxes(1, 2)).max())

    def max_abs_entry(self) -> float:
        return float(np.abs(self.blocks).max())

    def vec(self) -> np.ndarray:
        """Row-major flattening of the blocks, in the order of AlgebraShape.basis."""
        return self.blocks.reshape(-1)

    def __repr__(self) -> str:
        t, n, _ = self.shape.blocks_shape
        return f"AlgebraElement(blocks={t}x{n}x{n}, sup={self.max_abs_entry():.3e})"


def sup_distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest absolute entry of a - b, a cheap proxy for the operator norm gap."""
    return (a - b).max_abs_entry()


def trace(x: AlgebraElement) -> complex:
    """Weighted trace: sum of trace_weights[k] * tr(block k)."""
    return complex(np.array(x.shape.trace_weights) @ np.trace(x.blocks, axis1=1, axis2=2))


def trace_pairing(a: AlgebraElement, b: AlgebraElement) -> complex:
    """trace(a b) without forming the product:
    sum_k trace_weights[k] * sum_ij a_k[i, j] b_k[j, i]."""
    a._require_same_shape(b)
    return complex(np.array(a.shape.trace_weights) @ np.einsum("kij,kji->k", a.blocks, b.blocks))


def op_norm(x: AlgebraElement) -> float:
    """Operator norm: the largest singular value over all blocks."""
    return float(np.linalg.svd(x.blocks, compute_uv=False)[:, 0].max())


def p_norm(x: AlgebraElement, p: float) -> float:
    """Trace p-norm (trace of |x|^p) ** (1/p); p = inf gives the operator norm.

    For p = 2 the squared singular values of a block sum to its squared
    entries, so the weighted Frobenius sum needs no SVD.
    """
    if p == math.inf:
        return op_norm(x)
    p = float(p)
    if p < 1.0:
        raise ParameterError(f"norm exponent must be >= 1, got {p}")
    b = x.blocks
    if p == 2.0:
        per_block = np.sum(np.abs(b) ** 2, axis=(1, 2))
    else:
        per_block = np.sum(np.linalg.svd(b, compute_uv=False) ** p, axis=1)
    total = float(np.array(x.shape.trace_weights) @ per_block)
    return float(total ** (1.0 / p))


def _hermitian_blocks(x: AlgebraElement) -> np.ndarray:
    """The blocks of (x + x*) / 2; rejects non-hermitian input."""
    if x.hermitian_defect() > 1e-9 * (1.0 + x.max_abs_entry()):
        raise NotPositiveError("element is not hermitian within tolerance")
    b = x.blocks
    return 0.5 * (b + b.conj().swapaxes(1, 2))


def eigh_blocks(x: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition of every block, one stacked pair (w, v) of
    shapes (t, n) and (t, n, n); rejects non-hermitian input."""
    return np.linalg.eigh(_hermitian_blocks(x))


def eigvalsh_blocks(x: AlgebraElement) -> np.ndarray:
    """The eigenvalues alone of every block, stacked (t, n) and ascending in
    each row; rejects non-hermitian input."""
    return np.linalg.eigvalsh(_hermitian_blocks(x))


def from_eigh(shape: AlgebraShape, eig, f: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
    """Element with the eigenvectors of ``eig`` (from eigh_blocks) and the
    eigenvalues f(w), f taking and returning the stacked (t, n) array."""
    w, v = eig
    return AlgebraElement(shape, (v * f(w)[:, None, :]) @ v.conj().swapaxes(1, 2), copy=False)


def power(x: AlgebraElement, t: float) -> AlgebraElement:
    """Spectral power x^t of a hermitian PSD element.

    Noise-level negative eigenvalues are clamped to zero first.  Non-positive
    eigenvalues under a negative or fractional-negative power raise DomainError.
    """
    scale = op_norm(x)
    eig = eigh_blocks(x)
    low = float(eig[0].min())
    if low < -EPS_PSD * max(scale, 1e-300):
        raise NotPositiveError(f"eigenvalue {low:.3e} below positivity clamp")

    def vals_of(w: np.ndarray) -> np.ndarray:
        wc = np.clip(w, 0.0, None)
        if t < 0 and np.any(wc == 0.0):
            raise DomainError("negative power of a singular element")
        with np.errstate(divide="raise", invalid="raise"):
            return wc ** t

    return from_eigh(x.shape, eig, vals_of)


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Seeded complex Gaussian element.  The real and imaginary parts are
    drawn block by block, so the stream is consumed as by one draw per block
    in block order."""
    t, n, _ = shape.blocks_shape
    z = rng.standard_normal((t, 2, n, n))
    return AlgebraElement(shape, z[:, 0] + 1j * z[:, 1], copy=False)


def random_positive_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Seeded positive element z*z + delta*1 with delta = 1e-6 * ||z*z||_inf.

    The floor keeps spectra away from the singular corner so that negative
    powers stay well conditioned.
    """
    z = random_element(shape, rng)
    zz = z.adjoint() @ z
    return zz + shape.scalar(1e-6 * op_norm(zz))
