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
so a diagonal algebra costs one call, not one per atom.  On 1 x 1 blocks
(a commutative algebra) the spectral ones are read off the entries with no
LAPACK call: the modulus, the real part and the eigenvector 1.  A stack
with zero rows or columns in a block takes its singular values block by
block, each on its nonzero rows and columns.

The same array may carry a leading trial axis, (B, t, n, n): a stack of B
elements that the law checks evaluate in one pass.  Products, sums and
adjoints act trial by trial; ``trace``, ``trace_pairing``, ``op_norm`` and
``p_norm`` return one Python scalar for a single element and an array of B
values for a stack, each value bit for bit the one its trial alone gives.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np

# Relative eigenvalue clamp below which "positive" tolerates roundoff noise.
EPS_PSD = 1e-10
# Bytes below which trials are stacked into one temporary: glibc's default
# mmap threshold.  Larger blocks are fresh mappings whose release grows the
# heap, so kernels take their trials in pieces below it (``stack_size``).
STACK_BYTES = 128 * 1024


def stack_size(trial_bytes: int) -> int:
    """Trials per stacked temporary of ``trial_bytes`` bytes a trial: as many
    as stay below STACK_BYTES, and at least one."""
    return max(1, (STACK_BYTES - 1) // trial_bytes)


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


class _ShapeFields(NamedTuple):
    block_dim: int
    trace_weights: tuple[float, ...]


class AlgebraShape(_ShapeFields):
    """Block structure: t = len(trace_weights) blocks of size block_dim, and
    the trace weight of each block."""

    __slots__ = ()

    def __new__(cls, block_dim: int, trace_weights) -> AlgebraShape:
        if len(trace_weights) == 0:
            raise ShapeMismatchError("algebra needs at least one block")
        if int(block_dim) < 1 or int(block_dim) != block_dim:
            raise ShapeMismatchError("block dimension must be a positive integer")
        if any(not 0 < w < math.inf for w in trace_weights):
            raise ShapeMismatchError("trace weights must be positive and finite")
        return super().__new__(cls, int(block_dim), tuple(float(w) for w in trace_weights))

    @classmethod
    def _make(cls, fields) -> AlgebraShape:  # _replace builds through _make: validate there too
        return cls(*fields)

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
    array ``blocks`` whose row k is block k, or a (B, t, n, n) stack of B
    elements (see the module docstring)."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks, copy: bool = True):
        arr = np.array(blocks, dtype=complex, copy=copy)
        if arr.shape[-3:] != shape.blocks_shape or arr.ndim > 4:
            raise ShapeMismatchError(f"blocks of shape {arr.shape}, expected {shape.blocks_shape} "
                                     "with at most one leading trial axis")
        arr.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", arr)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def trials(self) -> int | None:
        """B for a stack of B elements, None for a single element."""
        return self.blocks.shape[0] if self.blocks.ndim == 4 else None

    def trial(self, i: int) -> AlgebraElement:
        """Element i of a stack."""
        return AlgebraElement(self.shape, self.blocks[i], copy=False)

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
        return AlgebraElement(self.shape, self.blocks.conj().swapaxes(-1, -2), copy=False)

    def max_abs_entry(self) -> float:
        return float(np.abs(self.blocks).max())

    def is_hermitian(self) -> bool:
        """Every element of the stack is hermitian to 1e-9 (1 + its largest entry)."""
        b = self.blocks
        axes = (-3, -2, -1)
        defect = np.abs(b - b.conj().swapaxes(-1, -2)).max(axis=axes)
        return bool(np.all(defect <= 1e-9 * (1.0 + np.abs(b).max(axis=axes))))

    def vec(self) -> np.ndarray:
        """Row-major flattening of the blocks, in the order of AlgebraShape.basis;
        one row per element of a stack."""
        return self.blocks.reshape(self.blocks.shape[:-3] + (-1,))

    def __repr__(self) -> str:
        t, n, _ = self.shape.blocks_shape
        return f"AlgebraElement(blocks={t}x{n}x{n}, sup={self.max_abs_entry():.3e})"


def stack(elements) -> AlgebraElement:
    """The stack of single elements of one algebra, in order; a view of a
    lone element."""
    first, *rest = elements
    for x in rest:
        first._require_same_shape(x)
    return as_stack(first) if not rest else AlgebraElement(
        first.shape, np.stack([first.blocks] + [x.blocks for x in rest]), copy=False)


def as_stack(x: AlgebraElement) -> AlgebraElement:
    """x itself when it is a stack, else the stack of one."""
    return x if x.trials is not None else AlgebraElement(x.shape, x.blocks[None], copy=False)


def sup_distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """Largest absolute entry of a - b, a cheap proxy for the operator norm gap."""
    return (a - b).max_abs_entry()


def weighted_sum(values: np.ndarray, weights) -> np.ndarray:
    """sum_k weights[k] values[..., k], one value per row of ``values``.

    Each row is reduced by its own dot product (a row times a column), so
    every value is bit for bit ``weights @ row``; a stacked ``values @
    weights`` is a matrix-vector product, which sums in another order.
    """
    w = np.asarray(weights, dtype=float)
    return trial_values(np.matmul(values[..., None, :], w[:, None])[..., 0, 0])


def trial_values(values: np.ndarray):
    """A Python scalar for a single element's 0-d value, the array for a stack's."""
    return values.item() if values.ndim == 0 else values


def trace(x: AlgebraElement) -> complex | np.ndarray:
    """Weighted trace: sum of trace_weights[k] * tr(block k)."""
    return weighted_sum(np.trace(x.blocks, axis1=-2, axis2=-1), x.shape.trace_weights)


def trace_pairing(a: AlgebraElement, b: AlgebraElement) -> complex | np.ndarray:
    """trace(a b) without forming the product:
    sum_k trace_weights[k] * sum_ij a_k[i, j] b_k[j, i].

    ``einsum`` sums in an order set by its operands' strides, so both are
    taken C-ordered at their common shape (a copy only of an operand that is
    broadcast or laid out otherwise): a value depends on the entries alone,
    and a trial of a stack gets the value it gets alone."""
    a._require_same_shape(b)
    operands = [np.ascontiguousarray(v) for v in np.broadcast_arrays(a.blocks, b.blocks)]
    return weighted_sum(np.einsum("...kij,...kji->...k", *operands), a.shape.trace_weights)


def _singular_values(b: np.ndarray) -> np.ndarray:
    """Singular values (..., n) of a stack of n x n blocks, descending in each
    row; a 1 x 1 block's is the modulus of its entry, read without LAPACK.

    A block with zero rows or columns is, up to permutations, [S 0; 0 0], so
    its singular values are those of S, the block on its nonzero rows and
    columns, padded with zeros.  When every block has no zero row or column
    the stack takes one SVD call; otherwise each block takes one on its own
    support, so a trial of a stack gets the values it gets alone."""
    n = b.shape[-1]
    if n == 1:
        return np.abs(b[..., 0])
    # a stack without zero entries, the common case, has no zero row or
    # column either, and one reduction tells it
    if not b.all():
        blocks = b.reshape((-1, n, n))
        nonzero = blocks != 0
        rows, cols = nonzero.any(axis=-1), nonzero.any(axis=-2)
        if not (rows.all() and cols.all()):
            out = np.zeros((len(blocks), n))
            for k, (block, r, c) in enumerate(zip(blocks, rows, cols)):
                if r.any():
                    s = np.linalg.svd(block[np.ix_(r, c)], compute_uv=False)
                    out[k, :len(s)] = s
            return out.reshape(b.shape[:-1])
    return np.linalg.svd(b, compute_uv=False)


def _largest_singular(s: np.ndarray) -> np.ndarray:
    """The operator norm from stacked singular values (..., t, n)."""
    return s[..., 0].max(axis=-1)


def op_norm(x: AlgebraElement) -> float | np.ndarray:
    """Operator norm: the largest singular value over all blocks."""
    return trial_values(_largest_singular(_singular_values(x.blocks)))


def p_norm(x: AlgebraElement, p) -> float | np.ndarray:
    """Trace p-norm (trace of |x|^p) ** (1/p); p = inf gives the operator norm.

    A stack takes one exponent or one per trial, and one SVD of every trial
    unless each exponent is 2: for p = 2 the squared singular values of a
    block sum to its squared entries, so the weighted Frobenius sum needs no
    SVD.  Each trial's final root is taken on a Python float,
    whose pow rounds as a single norm's did (numpy's vectorized pow differs
    in the last bit on some inputs).
    """
    b = x.blocks
    stacked = b.reshape((-1,) + b.shape[-3:])
    groups = exponent_groups(p, len(stacked))
    s = _singular_values(stacked) if set(groups) != {2.0} else None
    out = np.empty(len(stacked))
    for pv, idx in groups.items():
        if pv == 2.0:
            per_block = np.sum(np.abs(take_rows(stacked, idx)) ** 2, axis=(-2, -1))
        elif pv == math.inf:
            out[idx] = _largest_singular(take_rows(s, idx))
            continue
        else:
            per_block = np.sum(take_rows(s, idx) ** pv, axis=-1)
        out[idx] = [t ** (1.0 / pv) for t in weighted_sum(per_block, x.shape.trace_weights).tolist()]
    return trial_values(out.reshape(b.shape[:-3]))


def exponent_groups(p, trials: int) -> dict[float, list[int]]:
    """The trials of each exponent among ``trials`` trials: ``p`` is one
    exponent for every trial or a sequence of one per trial.  Rejects an
    exponent below 1."""
    ps = [float(p)] * trials if np.ndim(p) == 0 else [float(v) for v in p]
    if len(ps) != trials:
        raise ParameterError(f"{len(ps)} exponents for {trials} trials")
    groups: dict[float, list[int]] = {}
    for i, pv in enumerate(ps):
        groups.setdefault(pv, []).append(i)
    if min(groups) < 1.0:
        raise ParameterError(f"norm exponent must be >= 1, got {min(groups)}")
    return groups


def take_rows(a: np.ndarray, idx: list[int]) -> np.ndarray:
    """Rows ``idx`` (ascending) of a; a itself when they are all of its rows."""
    return a if len(idx) == len(a) else a[idx]


def _hermitian_blocks(x: AlgebraElement) -> np.ndarray:
    """The blocks of (x + x*) / 2; rejects non-hermitian input."""
    if not x.is_hermitian():
        raise NotPositiveError("element is not hermitian within tolerance")
    b = x.blocks
    return 0.5 * (b + b.conj().swapaxes(-1, -2))


def _eigh(h: np.ndarray, vectors: bool):
    """Eigenvalues (..., n), ascending in each row, of a stack of hermitian
    n x n blocks, with the eigenvector stack when ``vectors``; a 1 x 1
    block's are its real entry and 1, read without LAPACK."""
    if h.shape[-1] == 1:
        w = h[..., 0].real.copy()
        return (w, np.ones_like(h)) if vectors else w
    return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)


def eigh_blocks(x: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition of every block, one stacked pair (w, v) of
    shapes (t, n) and (t, n, n); rejects non-hermitian input."""
    return _eigh(_hermitian_blocks(x), vectors=True)


def eigvalsh_blocks(x: AlgebraElement) -> np.ndarray:
    """The eigenvalues alone of every block, stacked (t, n) and ascending in
    each row; rejects non-hermitian input."""
    return _eigh(_hermitian_blocks(x), vectors=False)


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


def random_element(shape: AlgebraShape, rng: np.random.Generator,
                   trials: int | None = None) -> AlgebraElement:
    """Seeded complex Gaussian element, or a stack of ``trials`` of them.
    The real and imaginary parts are drawn block by block, so the stream is
    consumed as by one draw per block in block order, element by element."""
    t, n, _ = shape.blocks_shape
    lead = () if trials is None else (trials,)
    z = rng.standard_normal(lead + (t, 2, n, n))
    return AlgebraElement(shape, z[..., 0, :, :] + 1j * z[..., 1, :, :], copy=False)


def floored_gram(z: AlgebraElement) -> AlgebraElement:
    """The positive element z*z + delta*1 with delta = 1e-6 * ||z*z||_inf,
    trial by trial for a stack.

    The floor keeps spectra away from the singular corner so that negative
    powers stay well conditioned.
    """
    zz = z.adjoint() @ z
    delta = np.asarray(1e-6 * op_norm(zz), dtype=complex)[..., None, None, None]
    return AlgebraElement(z.shape, zz.blocks + delta * np.eye(z.shape.block_dim, dtype=complex), copy=False)


def random_positive_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Seeded positive element, ``floored_gram`` of a ``random_element``."""
    return floored_gram(random_element(shape, rng))
