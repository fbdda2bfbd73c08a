"""Group models with Haar weights.

Two kinds of groups are supported: exact finite groups given by an index
multiplication table or cyclic factor sizes, and the quadrature-discretized
affine group given by two axes of nodes with the positive Haar weights of a
product rule and its exact group law and modular function.  Both answer
``kind`` ("finite" or "quadrature", a scenario file's ``[group] kind``),
``name`` (its ``[group] spec``), ``node_count``, ``haar()`` (counting
weights on a finite group) and ``unimodular``.  A Haar integral is the dot
product of the weights with the values at the nodes, in fixed node order.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np


class GroupError(Exception):
    """Invalid group data (table, coordinates, quadrature axes)."""


class SubgroupError(GroupError):
    """An index set that is not a subgroup."""


class FiniteGroup:
    """Finite group on indices 0..N-1, from cyclic factor sizes or from a
    validated multiplication table.

    A group built from cyclic factors (``cyclic``, ``product``, ``dual``)
    records their sizes as ``structure`` and is a group by construction:
    element g has the row-major coordinates ``coords[g]``, one per factor,
    as in ``np.unravel_index``; the identity is 0, and ``compose`` and
    ``inverse`` (on indices or index arrays) add and negate coordinates.
    Its N x N ``table`` is formed only when read (``left_translation_action``
    takes it as its point table).
    """

    kind = "finite"
    unimodular = True

    def __init__(self, table=None, name: str = "", structure=None, generators=()):
        if (table is None) == (structure is None):
            raise GroupError("need either a multiplication table or cyclic factor sizes")
        self.structure = None
        if structure is not None:
            self.structure = tuple(int(m) for m in structure)
            if not self.structure or min(self.structure) < 1:
                raise GroupError("cyclic factor sizes must be positive")
            self.order = math.prod(self.structure)
            # row-major place values of the coordinates
            self._strides = np.array([math.prod(self.structure[k + 1:]) for k in range(len(self.structure))])
            self.identity = 0
        else:
            table = np.array(table, dtype=int)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise GroupError("multiplication table must be square")
            n = table.shape[0]
            if n < 1:
                raise GroupError("group must be nonempty")
            rng_row = np.arange(n)
            if not (np.sort(table, axis=1) == rng_row).all() or not (np.sort(table, axis=0) == rng_row[:, None]).all():
                raise GroupError("multiplication table is not a Latin square")
            two_sided = (table == rng_row).all(axis=1) & (table.T == rng_row).all(axis=1)
            if not two_sided.any():
                raise GroupError("table has no two-sided identity")
            self.identity = int(np.argmax(two_sided))
            self._check_associativity(table)
            self.table = _read_only(table)
            self.inverse_table = _read_only(np.argmax(table == self.identity, axis=1))
            self.order = n
        self.name = name or f"group({self.order})"
        self.generators = tuple(int(g) for g in generators)

    @staticmethod
    def _check_associativity(table: np.ndarray) -> None:
        """Exhaustive up to order 24, on 500 fixed-seed triples beyond."""
        n = table.shape[0]
        if n <= 24:
            left = table[table, :]          # (i,j,k) -> (i*j)*k
            right = table[:, table]         # (i,j,k) -> i*(j*k)
            ok = (left == right).all()
        else:
            i, j, k = np.random.default_rng(0).integers(0, n, size=(500, 3)).T
            ok = (table[table[i, j], k] == table[i, table[j, k]]).all()
        if not ok:
            raise GroupError("multiplication table is not associative")

    @cached_property
    def coords(self) -> np.ndarray | None:
        """The (N, k) coordinates of every element; None without ``structure``."""
        if self.structure is None:
            return None
        return _read_only(np.stack(np.unravel_index(np.arange(self.order), self.structure), axis=1))

    @cached_property
    def table(self) -> np.ndarray:
        """The N x N multiplication table, table[a, b] = ab."""
        g = np.arange(self.order)
        return _read_only(self.compose(g[:, None], g))

    @cached_property
    def inverse_table(self) -> np.ndarray:
        """The inverse of every element, in index order."""
        return _read_only(self.inverse(np.arange(self.order)))

    def elements(self) -> range:
        return range(self.order)

    @property
    def node_count(self) -> int:
        return self.order

    def haar(self) -> HaarModel:
        return counting_haar(self)

    def compose(self, a, b):
        """ab, elementwise over broadcast index arrays a and b."""
        ab = self.table[a, b] if self.structure is None else self.index_of_tuple(self.coords[a] + self.coords[b])
        return int(ab) if np.ndim(ab) == 0 else ab

    def inverse(self, a):
        """a^{-1}, elementwise over an index array a."""
        inv = self.inverse_table[a] if self.structure is None else self.index_of_tuple(-self.coords[a])
        return int(inv) if np.ndim(inv) == 0 else inv

    def modular(self, g: int) -> float:
        """Finite groups are unimodular."""
        return 1.0

    def index_of_tuple(self, coords):
        """Index of the element with cyclic coordinates ``coords``, each reduced
        modulo its factor; an (..., k) array gives the (...) array of indices."""
        if self.structure is None:
            raise GroupError("group has no cyclic coordinate structure")
        idx = np.asarray(coords) % self.structure @ self._strides
        return int(idx) if np.ndim(idx) == 0 else idx

    def is_subgroup(self, indices) -> bool:
        idx = distinct_indices(indices)
        if idx.size == 0 or not ((idx >= 0) & (idx < self.order)).all():
            return False
        member = np.zeros(self.order, dtype=bool)
        member[idx] = True
        return bool(member[self.identity] and member[self.compose(idx[:, None], idx)].all()
                    and member[self.inverse(idx)].all())

    def subgroup(self, indices) -> tuple["FiniteGroup", tuple[int, ...]]:
        """Subgroup as a standalone group plus the embedding into self."""
        idx = distinct_indices(indices)
        if not self.is_subgroup(idx):
            raise SubgroupError(f"{tuple(idx.tolist())} is not a subgroup of {self.name}")
        pos = np.empty(self.order, dtype=int)
        pos[idx] = np.arange(idx.size)
        sub = FiniteGroup(pos[self.compose(idx[:, None], idx)], name=f"{self.name}|sub{idx.size}")
        return sub, tuple(idx.tolist())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def distinct_indices(indices) -> np.ndarray:
    """The indices as an integer array, repeats dropped, first occurrences in order."""
    idx = np.asarray(indices, dtype=int).reshape(-1)
    return idx[~np.tril(idx[:, None] == idx, -1).any(axis=1)]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n."""
    if n < 1:
        raise GroupError(f"cyclic group order must be >= 1, got {n}")
    gens = (1 % n,) if n > 1 else ()
    return FiniteGroup(name=f"cyclic({n})", structure=(n,), generators=gens)


def product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product with index (g, h) -> g * |H| + h."""
    ng, nh = G.order, H.order
    name = f"{G.name}x{H.name}"
    gens = tuple(g * nh + H.identity for g in G.generators) + tuple(
        G.identity * nh + h for h in H.generators
    )
    if G.structure is not None and H.structure is not None:
        return FiniteGroup(name=name, structure=G.structure + H.structure, generators=gens)
    table = (G.table[:, None, :, None] * nh + H.table[None, :, None, :]).reshape(ng * nh, ng * nh)
    return FiniteGroup(table, name=name, generators=gens)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters (small n only)."""
    if not 1 <= n <= 6:
        raise GroupError("symmetric(n) supported for 1 <= n <= 6")
    perms = np.array(list(itertools.permutations(range(n))), dtype=int).reshape(-1, n)
    # a permutation is found by its base-n code; (p q)[k] = p[q[k]]
    weights = n ** np.arange(n - 1, -1, -1)
    index_of_code = np.zeros(n ** n, dtype=int)
    index_of_code[perms @ weights] = np.arange(len(perms))
    table = index_of_code[perms[:, perms] @ weights]
    gens = ()
    if n >= 2:
        transposition = [1, 0, *range(2, n)]
        ncycle = [*range(1, n), 0]
        gens = tuple(index_of_code[np.array([transposition, ncycle]) @ weights].tolist())
    return FiniteGroup(table, name=f"s{n}", generators=gens)


def dual(G: FiniteGroup) -> FiniteGroup:
    """Dual group of an abelian group built from cyclic factors, on G's indices.

    Character s is g -> exp(2 pi i sum_k s_k g_k / m_k), so characters
    compose exactly like the elements indexing them: the dual has G's
    structure and generators, and no character table is formed.
    """
    if G.structure is None:
        raise GroupError("the dual group needs an abelian group built from cyclic factors")
    return FiniteGroup(name=f"dual({G.name})", structure=G.structure, generators=G.generators)


def coset_lookup(G: FiniteGroup, h_indices) -> tuple[np.ndarray, np.ndarray]:
    """Representatives of the left cosets gH plus the map element -> coset index.

    Each coset is represented by its first element in the order identity,
    then 0, 1, ..., N-1; the representatives are listed in that order too.
    """
    idx = distinct_indices(h_indices)
    if not G.is_subgroup(idx):
        raise SubgroupError(f"{tuple(idx.tolist())} is not a subgroup of {G.name}")
    elems = np.arange(G.order)
    rank = elems.copy()
    rank[G.identity] = -1
    coset = G.compose(elems[:, None], idx)       # row g lists gH
    rep_of = coset[elems, np.argmin(rank[coset], axis=1)]
    reps = np.flatnonzero(rep_of == elems)
    reps = np.concatenate(([G.identity], reps[reps != G.identity]))
    pos = np.empty(G.order, dtype=int)
    pos[reps] = np.arange(reps.size)
    return reps, pos[rep_of]


class HaarModel:
    """Positive integration weights, one per node, a normalization tag and
    the total ``mass``: a read-only float vector (copied once unless it is
    one) and its ``np.sum``.  A quadrature group's model is ``_ProductHaar``."""

    def __init__(self, weights, normalization: str):
        w = weights
        if not (isinstance(w, np.ndarray) and w.dtype == float and not w.flags.writeable):
            w = _read_only(np.array(w, dtype=float))
        if w.ndim != 1 or not np.all(w > 0):
            raise GroupError("Haar weights must be a vector of positive reals")
        if normalization == "probability" and abs(w.sum() - 1.0) > 1e-12:
            raise GroupError("probability Haar weights must sum to 1")
        if normalization not in ("counting", "probability", "quadrature"):
            raise GroupError(f"unknown normalization tag {normalization!r}")
        self.weights = w
        self.normalization = normalization
        self.mass = float(np.sum(w))


class _ProductHaar(HaarModel):
    """A quadrature group's product rule: the group's ``haar_weights``, formed
    on first read, and the mass n_b sum(a_weights) from the axes."""

    def __init__(self, group: "QuadratureGroup"):
        self.normalization = "quadrature"
        self.mass = float(np.sum(group.a_weights)) * group.b_nodes.size
        self._group = group

    @property
    def weights(self) -> np.ndarray:
        return self._group.haar_weights


def counting_haar(G: FiniteGroup) -> HaarModel:
    return HaarModel(np.ones(G.order), "counting")


def probability_haar(G: FiniteGroup) -> HaarModel:
    return HaarModel(np.full(G.order, 1.0 / G.order), "probability")


class QuadratureGroup:
    """Quadrature model of the affine group: a product rule on the axis nodes
    ``a_nodes`` and ``b_nodes``.

    Node i * n_b + j is (a_i, b_j), with the Haar weight ``a_weights[i]``
    (the b rule's constant cell taken into it).  The group law is exact on
    parameter vectors along the last axis: the identity (1, 0), the product
    (a, b)(a', b') = (a a', a b' + b), the inverse (1/a, -b/a) and the
    modular function 1/a, while integration only ever evaluates integrands
    at the nodes, a set that need not be closed under composition.  The
    per-node arrays ``nodes`` and ``haar_weights`` are built on first read;
    ``nodes_at`` gives nodes by index without forming them.
    """

    kind = "quadrature"
    unimodular = False
    identity = _read_only(np.array([1.0, 0.0]))

    def __init__(self, a_nodes, b_nodes, a_weights, name: str = ""):
        self.a_nodes, self.b_nodes, self.a_weights = (
            _read_only(np.array(v, dtype=float)) for v in (a_nodes, b_nodes, a_weights))
        if self.a_nodes.ndim != 1 or self.b_nodes.ndim != 1:
            raise GroupError("axis nodes must be 1-d arrays")
        if self.a_weights.shape != self.a_nodes.shape or not np.all(self.a_weights > 0):
            raise GroupError("need one positive Haar weight per node of the a axis")
        self.name = name or "quadrature-group"

    @property
    def node_count(self) -> int:
        return self.a_nodes.size * self.b_nodes.size

    def nodes_at(self, idx) -> np.ndarray:
        """The nodes of the indices ``idx`` (an int or an array of them), one
        parameter vector along the last axis each."""
        a, b = np.divmod(idx, self.b_nodes.size)
        return np.stack([self.a_nodes[a], self.b_nodes[b]], axis=-1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The (node_count, 2) array of every node, in node order."""
        n_a, n_b = self.a_nodes.size, self.b_nodes.size
        return _read_only(np.column_stack([np.repeat(self.a_nodes, n_b), np.tile(self.b_nodes, n_a)]))

    @cached_property
    def haar_weights(self) -> np.ndarray:
        """The Haar weight of every node, in node order."""
        return _read_only(np.repeat(self.a_weights, self.b_nodes.size))

    def compose(self, p, q) -> np.ndarray:
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        return np.stack([p[..., 0] * q[..., 0], p[..., 0] * q[..., 1] + p[..., 1]], axis=-1)

    def inverse(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.stack([1.0 / p[..., 0], -p[..., 1] / p[..., 0]], axis=-1)

    def modular(self, p) -> float | np.ndarray:
        """Delta of a parameter vector, or the array of Delta over a stack of them."""
        values = 1.0 / np.asarray(p, dtype=float)[..., 0]
        return float(values) if values.ndim == 0 else values

    def haar(self) -> HaarModel:
        return _ProductHaar(self)

    def __repr__(self) -> str:
        return f"QuadratureGroup({self.name}, nodes={self.node_count})"


def affine_group(a_min: float, a_max: float, n_a: int,
                 b_min: float, b_max: float, n_b: int) -> QuadratureGroup:
    """Scaling-and-shift group on nodes (a, b) with left Haar weight da db / a^2.

    The a-grid is log-uniform inclusive of both endpoints; the b-grid uses
    midpoint cells, placed about the centre of [b_min, b_max] so that
    b_min = -b_max gives nodes b_{n_b-1-m} = -b_m bit for bit.  Composition
    is (a,b)*(a',b') = (a a', a b' + b), the modular function is 1/a.
    Only the two axes and the a-axis weights d(log a) db / a are formed
    here: the per-node arrays are built on first read (see QuadratureGroup).
    """
    if not (0 < a_min < a_max):
        raise GroupError("need 0 < a_min < a_max")
    if n_a < 2 or n_b < 2:
        raise GroupError("need at least two nodes per axis")
    if not b_min < b_max:
        raise GroupError("need b_min < b_max")
    log_a = np.linspace(math.log(a_min), math.log(a_max), n_a)
    a_nodes = np.exp(log_a)
    d_log_a = (math.log(a_max) - math.log(a_min)) / (n_a - 1)
    db = (b_max - b_min) / n_b
    b_nodes = (b_min + b_max) / 2 + (2 * np.arange(n_b) + 1 - n_b) * (db / 2)
    return QuadratureGroup(a_nodes, b_nodes, d_log_a * db / a_nodes,
                           name=f"affine[{a_min:g},{a_max:g}]x[{b_min:g},{b_max:g}]")
