"""Group models with Haar weights.

Two kinds of groups are supported: exact finite groups given by an index
multiplication table, and quadrature-discretized locally compact groups given
by nodes, positive Haar weights, exact parameter maps for composition and
inverse, and a modular function.  A Haar integral is the dot product of the
weights with the values at the nodes, in fixed node order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class GroupError(Exception):
    """Invalid group data (table, labels, characters, quadrature maps)."""


class SubgroupError(GroupError):
    """An index set that is not a subgroup."""


class FiniteGroup:
    """Finite group on indices 0..N-1 with a validated multiplication table.

    ``structure`` records cyclic factor sizes when the group was built from
    cyclic groups; it enables character tables and tuple coordinates.
    """

    def __init__(self, table, labels=None, name: str = "", structure=None, generators=()):
        table = np.array(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupError("multiplication table must be square")
        n = table.shape[0]
        if n < 1:
            raise GroupError("group must be nonempty")
        rng_row = np.arange(n)
        if not (np.sort(table, axis=1) == rng_row).all() or not (np.sort(table, axis=0) == rng_row[:, None]).all():
            raise GroupError("multiplication table is not a Latin square")
        identity = -1
        for e in range(n):
            if (table[e] == rng_row).all() and (table[:, e] == rng_row).all():
                identity = e
                break
        if identity < 0:
            raise GroupError("table has no two-sided identity")
        self._check_associativity(table)
        inverse = np.empty(n, dtype=int)
        for g in range(n):
            hits = np.where(table[g] == identity)[0]
            inverse[g] = hits[0]
        table.setflags(write=False)
        inverse.setflags(write=False)
        self.table = table
        self.inverse_table = inverse
        self.identity = identity
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise GroupError("one label per element required")
        self.name = name or f"group({n})"
        self.structure = tuple(int(m) for m in structure) if structure is not None else None
        self.generators = tuple(int(g) for g in generators)

    @staticmethod
    def _check_associativity(table: np.ndarray) -> None:
        n = table.shape[0]
        if n <= 24:
            left = table[table, :]          # (i,j,k) -> (i*j)*k
            right = table[:, table]         # (i,j,k) -> i*(j*k)
            if not (left == right).all():
                raise GroupError("multiplication table is not associative")
            return
        rng = np.random.default_rng(0)
        for _ in range(500):
            i, j, k = rng.integers(0, n, size=3)
            if table[table[i, j], k] != table[i, table[j, k]]:
                raise GroupError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def elements(self) -> range:
        return range(self.order)

    def compose(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverse_table[a])

    def modular(self, g: int) -> float:
        """Finite groups are unimodular."""
        return 1.0

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def index_of_tuple(self, coords) -> int:
        if self.structure is None:
            raise GroupError("group has no cyclic coordinate structure")
        idx = 0
        for c, m in zip(coords, self.structure):
            idx = idx * m + (int(c) % m)
        return idx

    def tuple_of_index(self, g: int) -> tuple[int, ...]:
        if self.structure is None:
            raise GroupError("group has no cyclic coordinate structure")
        coords = []
        for m in reversed(self.structure):
            coords.append(g % m)
            g //= m
        return tuple(reversed(coords))

    def is_subgroup(self, indices) -> bool:
        idx = list(dict.fromkeys(int(i) for i in indices))
        if not idx or self.identity not in idx:
            return False
        s = set(idx)
        return all(self.compose(a, b) in s for a in idx for b in idx) and all(
            self.inverse(a) in s for a in idx
        )

    def subgroup(self, indices) -> tuple["FiniteGroup", tuple[int, ...]]:
        """Subgroup as a standalone group plus the embedding into self."""
        idx = tuple(dict.fromkeys(int(i) for i in indices))
        if not self.is_subgroup(idx):
            raise SubgroupError(f"{idx} is not a subgroup of {self.name}")
        pos = {g: i for i, g in enumerate(idx)}
        m = len(idx)
        table = np.array([[pos[self.compose(a, b)] for b in idx] for a in idx], dtype=int).reshape(m, m)
        labels = tuple(self.labels[g] for g in idx)
        return FiniteGroup(table, labels=labels, name=f"{self.name}|sub{m}"), idx

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n."""
    if n < 1:
        raise GroupError(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    gens = (1 % n,) if n > 1 else ()
    return FiniteGroup(table, name=f"cyclic({n})", structure=(n,), generators=gens)


def product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product with index (g, h) -> g * |H| + h."""
    ng, nh = G.order, H.order
    table = np.empty((ng * nh, ng * nh), dtype=int)
    for a in range(ng):
        for x in range(nh):
            row = G.table[a][:, None] * nh + H.table[x][None, :]
            table[a * nh + x] = row.reshape(-1)
    labels = tuple(f"({la},{lb})" for la in G.labels for lb in H.labels)
    structure = None
    if G.structure is not None and H.structure is not None:
        structure = G.structure + H.structure
    gens = tuple(g * nh + H.identity for g in G.generators) + tuple(
        G.identity * nh + h for h in H.generators
    )
    return FiniteGroup(table, labels=labels, name=f"{G.name}x{H.name}", structure=structure, generators=gens)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters (small n only)."""
    if not 1 <= n <= 6:
        raise GroupError("symmetric(n) supported for 1 <= n <= 6")
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.empty((m, m), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = pos[tuple(p[q[k]] for k in range(n))]
    labels = tuple("".join(str(k) for k in p) for p in perms)
    gens = ()
    if n >= 2:
        transposition = tuple([1, 0] + list(range(2, n)))
        ncycle = tuple(list(range(1, n)) + [0])
        gens = (pos[transposition], pos[ncycle])
    return FiniteGroup(table, labels=labels, name=f"s{n}", generators=gens)


class CharacterTable:
    """Characters of a finite abelian group, one row per character."""

    def __init__(self, group: FiniteGroup, table: np.ndarray, labels):
        table = np.asarray(table, dtype=complex)
        n = group.order
        if table.shape != (n, n):
            raise GroupError("character table must be square of group order")
        if np.abs(np.abs(table) - 1.0).max() > 1e-12:
            raise GroupError("characters must take unit-modulus values")
        gram = table @ table.conj().T / n
        if np.abs(gram - np.eye(n)).max() > 1e-12 * n:
            raise GroupError("characters are not orthogonal")
        table.setflags(write=False)
        self.group = group
        self.table = table
        self.labels = tuple(labels)

    def as_group(self) -> FiniteGroup:
        """The dual group; characters compose exactly like the elements indexing them."""
        return FiniteGroup(
            self.group.table,
            labels=self.labels,
            name=f"dual({self.group.name})",
            structure=self.group.structure,
            generators=self.group.generators,
        )


def dual_group(G: FiniteGroup) -> CharacterTable:
    """Character table of an abelian group built from cyclic factors."""
    if not G.is_abelian():
        raise GroupError("dual_group requires an abelian group")
    if G.structure is None:
        raise GroupError("dual_group requires a group built from cyclic factors")
    n = G.order
    table = np.empty((n, n), dtype=complex)
    for s in range(n):
        sc = G.tuple_of_index(s)
        for g in range(n):
            gc = G.tuple_of_index(g)
            phase = sum(a * b / m for a, b, m in zip(sc, gc, G.structure))
            table[s, g] = np.exp(2j * np.pi * phase)
    labels = tuple(f"chi{G.labels[s]}" for s in range(n))
    return CharacterTable(G, table, labels)


def coset_representatives(G: FiniteGroup, h_indices) -> list[int]:
    """Representatives of the left cosets gH, identity first."""
    idx = tuple(dict.fromkeys(int(i) for i in h_indices))
    if not G.is_subgroup(idx):
        raise SubgroupError(f"{idx} is not a subgroup of {G.name}")
    reps = []
    covered = np.zeros(G.order, dtype=bool)
    order = [G.identity] + [g for g in G.elements() if g != G.identity]
    for g in order:
        if not covered[g]:
            reps.append(g)
            for h in idx:
                covered[G.compose(g, h)] = True
    return reps


def coset_lookup(G: FiniteGroup, h_indices) -> tuple[list[int], np.ndarray]:
    """Coset representatives plus the map element -> coset index."""
    idx = tuple(dict.fromkeys(int(i) for i in h_indices))
    reps = coset_representatives(G, idx)
    coset_of = np.full(G.order, -1, dtype=int)
    for c, r in enumerate(reps):
        for h in idx:
            coset_of[G.compose(r, h)] = c
    return reps, coset_of


@dataclass(frozen=True)
class HaarModel:
    """Positive integration weights plus a normalization tag."""

    weights: np.ndarray
    normalization: str  # counting | probability | quadrature

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(w > 0):
            raise GroupError("Haar weights must be a vector of positive reals")
        if self.normalization == "probability" and abs(w.sum() - 1.0) > 1e-12:
            raise GroupError("probability Haar weights must sum to 1")
        if self.normalization not in ("counting", "probability", "quadrature"):
            raise GroupError(f"unknown normalization tag {self.normalization!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def counting_haar(G: FiniteGroup) -> HaarModel:
    return HaarModel(np.ones(G.order), "counting")


def probability_haar(G: FiniteGroup) -> HaarModel:
    return HaarModel(np.full(G.order, 1.0 / G.order), "probability")


class QuadratureGroup:
    """Quadrature model of a locally compact group.

    Nodes are parameter vectors; composition, inverse and the modular function
    are exact parameter maps, while integration only ever evaluates integrands
    at the nodes.  The node set need not be closed under composition.  The
    modular function maps parameter vectors along the last axis, so that one
    call on the node array gives ``modular_values``, Delta at every node.
    """

    def __init__(self, nodes, haar_weights, compose_fn, inverse_fn, identity,
                 modular_fn, label: str = ""):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 2:
            raise GroupError("nodes must be a 2-d array of parameter vectors")
        weights = np.array(haar_weights, dtype=float)
        if weights.shape != (nodes.shape[0],) or not np.all(weights > 0):
            raise GroupError("need one positive Haar weight per node")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.nodes = nodes
        self.haar_weights = weights
        self._compose = compose_fn
        self._inverse = inverse_fn
        self.identity = np.asarray(identity, dtype=float)
        self._modular = modular_fn
        modular_values = np.array(modular_fn(nodes), dtype=float)
        modular_values.setflags(write=False)
        self.modular_values = modular_values
        self.label = label or "quadrature-group"
        self._validate()

    def _validate(self) -> None:
        if abs(self.modular(self.identity) - 1.0) > 1e-12:
            raise GroupError("modular function must be 1 at the identity")
        rng = np.random.default_rng(0)
        m = self.node_count
        for _ in range(min(32, m * m)):
            p = self.nodes[rng.integers(m)]
            q = self.nodes[rng.integers(m)]
            r = self.nodes[rng.integers(m)]
            pq = self.compose(p, q)
            if abs(self.modular(pq) - self.modular(p) * self.modular(q)) > 1e-9 * self.modular(pq):
                raise GroupError("modular function is not multiplicative")
            if np.abs(self.compose(pq, r) - self.compose(p, self.compose(q, r))).max() > 1e-9:
                raise GroupError("composition map is not associative")
            if np.abs(self.compose(p, self.inverse(p)) - self.identity).max() > 1e-9:
                raise GroupError("inverse map is inconsistent with composition")

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def compose(self, p, q) -> np.ndarray:
        return np.asarray(self._compose(np.asarray(p, dtype=float), np.asarray(q, dtype=float)), dtype=float)

    def inverse(self, p) -> np.ndarray:
        return np.asarray(self._inverse(np.asarray(p, dtype=float)), dtype=float)

    def modular(self, p) -> float:
        return float(self._modular(np.asarray(p, dtype=float)))

    def haar(self) -> HaarModel:
        return HaarModel(self.haar_weights, "quadrature")

    def __repr__(self) -> str:
        return f"QuadratureGroup({self.label}, nodes={self.node_count})"


def affine_group(a_min: float, a_max: float, n_a: int,
                 b_min: float, b_max: float, n_b: int) -> QuadratureGroup:
    """Scaling-and-shift group on nodes (a, b) with left Haar weight da db / a^2.

    The a-grid is log-uniform inclusive of both endpoints; the b-grid uses
    midpoint cells.  Composition is (a,b)*(a',b') = (a a', a b' + b), the
    modular function is 1/a.
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
    b_nodes = b_min + (np.arange(n_b) + 0.5) * db
    nodes = np.empty((n_a * n_b, 2))
    weights = np.empty(n_a * n_b)
    for i, a in enumerate(a_nodes):
        nodes[i * n_b:(i + 1) * n_b, 0] = a
        nodes[i * n_b:(i + 1) * n_b, 1] = b_nodes
        weights[i * n_b:(i + 1) * n_b] = d_log_a * db / a
    return QuadratureGroup(
        nodes,
        weights,
        compose_fn=lambda p, q: np.array([p[0] * q[0], p[0] * q[1] + p[1]]),
        inverse_fn=lambda p: np.array([1.0 / p[0], -p[1] / p[0]]),
        identity=(1.0, 0.0),
        modular_fn=lambda p: 1.0 / p[..., 0],
        label=f"affine[{a_min:g},{a_max:g}]x[{b_min:g},{b_max:g}]",
    )
