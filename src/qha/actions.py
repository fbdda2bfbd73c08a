"""Group actions on tracial block algebras.

Concrete action kinds: unitary conjugation by a (projective) representation,
permutation of the atoms of a commutative algebra, translation of the dual of
a (twisted) group algebra, actions induced from a subgroup, and a quadrature
wavelet action of the scaling-and-shift group on a log-frequency grid.

Structural checkers live here as well: trace preservation, homomorphism /
automorphism / isometry defects, and the fixed-point dimension that
certifies ergodicity.  That count is read off the structure of each action
family: orbits of the point maps for permutation-type actions, the commutant
of the sampled unitaries for conjugation-type actions, and the inner action
for induced ones.  A dense stacked-SVD nullity is the fallback for
degenerate spectra on small algebras and the oracle the tests compare with.

Each family also has its own vectorized kernels for the bracket values
g -> trace((g.y)* x) and the orbit sum sum_g c_g (g.x): a gather through the
point table, stacked conjugations, pointwise products of symbols, or the
inner kernel composed with the coset gather.  ``apply`` stays the per-node
reference the tests compare them with.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    op_norm,
    p_norm,
    random_element,
    random_positive_element,
    sup_distance,
    trace,
)
from .groups import (
    FiniteGroup,
    QuadratureGroup,
    coset_lookup,
    cyclic,
    dual_group,
    product,
)
from .reports import CheckReport


class ActionError(Exception):
    """Invalid action data."""


class RepresentationError(ActionError):
    """Matrices fail to be unitary or to satisfy the twisted product law."""


class MeasureError(ActionError):
    """The point measure is not invariant under the point action."""


class GridError(ActionError):
    """A dilation step is incompatible with the frequency grid."""


class SymbolError(ActionError):
    """The twisted translates are not an orthogonal basis of the block."""


# ---------------------------------------------------------------------------
# representations


class UnitaryRep:
    """Finite family of unitaries U_g with U_g U_h = sigma(g, h) U_{gh}."""

    def __init__(self, group: FiniteGroup, matrices, cocycle: Callable[[int, int], complex] | None = None,
                 name: str = ""):
        mats = np.array(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise RepresentationError("need one square matrix per group element")
        mats.setflags(write=False)
        self.group = group
        self.matrices = mats
        self.cocycle = cocycle if cocycle is not None else (lambda a, b: 1.0 + 0.0j)
        self.name = name or f"rep({group.name},dim={mats.shape[1]})"
        self.validate()

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def validate(self, tol: float = 1e-11) -> None:
        G, U = self.group, self.matrices
        eye = np.eye(self.dim)
        for g in G.elements():
            if np.abs(U[g].conj().T @ U[g] - eye).max() > tol:
                raise RepresentationError(f"matrix {g} is not unitary")
        if abs(self.cocycle(G.identity, G.identity) - 1.0) > tol:
            raise RepresentationError("cocycle must be 1 at (e, e)")
        pairs = _sample_pairs(G.order, limit=24)
        for a, b in pairs:
            lhs = U[a] @ U[b]
            rhs = complex(self.cocycle(a, b)) * U[G.compose(a, b)]
            if np.abs(lhs - rhs).max() > tol:
                raise RepresentationError("matrices violate the twisted product law")
        for a, b in pairs:
            for c in (G.identity, pairs[0][0]):
                lhs = complex(self.cocycle(a, b)) * complex(self.cocycle(G.compose(a, b), c))
                rhs = complex(self.cocycle(a, G.compose(b, c))) * complex(self.cocycle(b, c))
                if abs(lhs - rhs) > tol:
                    raise RepresentationError("cocycle identity fails")


def _sample_pairs(n: int, limit: int) -> list[tuple[int, int]]:
    if n * n <= limit * limit:
        return [(a, b) for a in range(n) for b in range(n)]
    rng = np.random.default_rng(0)
    return [tuple(rng.integers(0, n, size=2)) for _ in range(limit * limit)]


def trivial_rep(G: FiniteGroup, dim: int = 1) -> UnitaryRep:
    mats = np.broadcast_to(np.eye(dim, dtype=complex), (G.order, dim, dim)).copy()
    return UnitaryRep(G, mats, name=f"trivial({G.name})")


def cyclic_character_rep(G: FiniteGroup, j: int) -> UnitaryRep:
    """One-dimensional representation chi_j of cyclic(n)."""
    if G.structure is None or len(G.structure) != 1:
        raise RepresentationError("cyclic_character_rep needs a cyclic group")
    n = G.structure[0]
    mats = np.array([[[np.exp(2j * np.pi * j * g / n)]] for g in range(n)])
    return UnitaryRep(G, mats, name=f"chi{j}({G.name})")


def s3_irreps() -> dict[str, UnitaryRep]:
    """The three irreducible representations of the symmetric group on 3 letters."""
    from .groups import symmetric

    G = symmetric(3)
    perms = [tuple(int(c) for c in lab) for lab in G.labels]
    triv = trivial_rep(G)

    def sign(p):
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        return s

    sgn = UnitaryRep(G, np.array([[[float(sign(p))]] for p in perms], dtype=complex), name="sign(s3)")
    # 2-d standard piece: permutation matrices restricted to the sum-zero plane
    q = np.array([[1.0 / math.sqrt(2), 1.0 / math.sqrt(6)],
                  [-1.0 / math.sqrt(2), 1.0 / math.sqrt(6)],
                  [0.0, -2.0 / math.sqrt(6)]])
    mats = []
    for p in perms:
        P = np.zeros((3, 3))
        for i, pi in enumerate(p):
            P[pi, i] = 1.0
        mats.append(q.T @ P @ q)
    std = UnitaryRep(G, np.array(mats, dtype=complex), name="std(s3)")
    return {"trivial": triv, "sign": sgn, "std": std}


def finite_weyl_heisenberg(n: int) -> UnitaryRep:
    """Translation-and-modulation family pi(k, l) = T_k M_l on C^n.

    Cocycle sigma((k,l),(k',l')) = exp(2*pi*i * l * k' / n); the family is
    irreducible for every n >= 2.
    """
    if n < 2:
        raise RepresentationError(f"need n >= 2, got {n}")
    G = product(cyclic(n), cyclic(n))
    omega = np.exp(2j * np.pi / n)
    mats = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            T = np.zeros((n, n), dtype=complex)
            for s in range(n):
                T[(s + k) % n, s] = 1.0
            M = np.diag(omega ** (l * np.arange(n)))
            mats[G.index_of_tuple((k, l))] = T @ M

    def sigma(a: int, b: int) -> complex:
        (_, l), (kp, _) = G.tuple_of_index(a), G.tuple_of_index(b)
        return complex(omega ** (l * kp))

    return UnitaryRep(G, mats, cocycle=sigma, name=f"wh({n})")


# Largest linearized dimension for which a dense SVD nullity is computed.
DENSE_LIMIT = 600
# The simple-spectrum commutant count is accepted only when its noise floor
# sits at least this factor below the coupling threshold.
CERTIFICATE_MARGIN = 10.0
# Fixed seed of the generic element, so that no scenario stream is consumed.
_GENERIC_SEED = 0x51A
# Nodes per stacked (nodes, n, n) temporary in the conjugation kernels, which
# bounds their memory at any group order.
NODE_SLICE = 32


@dataclass(frozen=True)
class CommutantCertificate:
    """How a commutant dimension was obtained, with the margins behind it.

    ``method`` is "spectral" when the count comes from a simple spectrum of
    the generic element and "dense-svd" when it comes from the stacked-SVD
    nullity.  ``rel_gap`` is the smallest eigenvalue gap of the generic
    element over its norm, ``noise_floor`` the Davis-Kahan bound K*eps/rel_gap
    on the rounding noise of the rotated couplings, and ``min_coupling`` the
    smallest coupling the component count relies on (the weakest edge of a
    maximum spanning forest; inf when no edge is needed).
    """

    dimension: int
    method: str
    rel_gap: float
    noise_floor: float
    min_coupling: float


def _stacked_nullity(maps, tol: float) -> int:
    """Common nullspace dimension of linear maps, by the SVD of their stack."""
    s = np.linalg.svd(np.vstack(maps), compute_uv=False)
    return int(np.sum(s <= tol))


def _union_find(n: int, pairs) -> tuple[int, int]:
    """Merge vertices along ``pairs`` in order; stop once one component is left.

    Returns the number of components and the index of the last merging pair
    (-1 when none merged).
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count, last = n, -1
    for i, (a, b) in enumerate(pairs):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
            count -= 1
            last = i
            if count == 1:
                break
    return count, last


def _orbit_count(point_maps) -> int:
    """Number of orbits of the points under the group the maps generate."""
    maps = np.asarray(point_maps, dtype=int)
    pairs = [(t, s) for row in maps.tolist() for t, s in enumerate(row) if t != s]
    return _union_find(maps.shape[1], pairs)[0]


def commutant_certificate(matrices, tol: float = 1e-8) -> CommutantCertificate:
    """Dimension of {X : X U = U X for every U in ``matrices``} (unitaries).

    The commutant of the unitaries is the commutant of the *-algebra they
    generate, so it commutes with the hermitian element h, a fixed-seed
    random combination of U + U* and i(U - U*).  When h = V diag(w) V* has a
    simple spectrum every commuting X is diagonal in V, and X = V diag(d) V*
    commutes with U exactly when d is constant across each nonzero entry of
    V* U V.  The dimension is then the number of connected components of the
    graph with an edge where some |V* U V| exceeds ``tol``, found by
    union-find over the couplings in decreasing order.  This costs one eigh
    and two products per unitary, O(K^3).

    The spectral count is accepted only when the Davis-Kahan noise floor
    K*eps*||h||/gap on the rotated couplings sits CERTIFICATE_MARGIN (10)
    times below ``tol``.  On the wavelet presets it sits 270 (fine), 890
    (default) and 2900 (coarse) times below 1e-8, and the weakest coupling
    the count relies on is 0.14 to 0.36.  Otherwise the spectrum is
    treated as degenerate: the stacked commutator SVD decides for K*K up to
    DENSE_LIMIT, and larger algebras raise ActionError with the measured gap
    rather than switch to an iterative solver.
    """
    mats = np.asarray(matrices, dtype=complex)
    K = mats.shape[1]
    if K == 1:
        return CommutantCertificate(1, "spectral", math.inf, 0.0, math.inf)
    rng = np.random.default_rng(_GENERIC_SEED)
    a, b = rng.standard_normal((2, mats.shape[0]))
    # a (U + U*) + b i(U - U*) = c U + (c U)* with c = a + ib
    m = np.einsum("g,gij->ij", a + 1j * b, mats)
    w, V = np.linalg.eigh(m + m.conj().T)
    norm = float(np.abs(w).max())
    rel_gap = float(np.diff(w).min()) / norm if norm > 0.0 else 0.0
    noise_floor = float(K * np.finfo(float).eps / rel_gap) if rel_gap > 0.0 else math.inf
    if noise_floor * CERTIFICATE_MARGIN > tol:
        if K * K > DENSE_LIMIT:
            raise ActionError(
                f"degenerate spectrum of the generic element at dim {K * K}: relative gap "
                f"{rel_gap:.3e}, noise floor {noise_floor:.3e} against tol {tol:.1e}; "
                f"the dense count needs dim <= {DENSE_LIMIT}"
            )
        eye = np.eye(K)
        dim = _stacked_nullity([np.kron(A, eye) - np.kron(eye, A.T) for A in mats], tol)
        return CommutantCertificate(dim, "dense-svd", rel_gap, noise_floor, math.nan)
    coupling = np.abs(V.conj().T @ mats @ V).max(axis=0)
    coupling = np.maximum(coupling, coupling.T)
    rows, cols = np.triu_indices(K, 1)
    weights = coupling[rows, cols]
    order = np.argsort(-weights, kind="stable")
    order = order[weights[order] > tol]
    count, last = _union_find(K, zip(rows[order], cols[order]))
    min_coupling = float(weights[order[last]]) if last >= 0 else math.inf
    return CommutantCertificate(count, "spectral", rel_gap, noise_floor, min_coupling)


# ---------------------------------------------------------------------------
# actions


class Action:
    """Map (group element, algebra element) -> algebra element.

    Subclasses implement ``apply`` and the vectorized kernels
    ``bracket_values`` and ``orbit_sum``.  All reductions run in fixed node
    order, so results are deterministic.
    """

    def __init__(self, group, shape: AlgebraShape, kind: str, sample_elements):
        self.group = group
        self.shape = shape
        self.kind = kind
        self.sample_elements = tuple(sample_elements)

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        raise NotImplementedError

    # -- group plumbing ------------------------------------------------------

    def modular_values(self) -> np.ndarray:
        """Delta(g) at every node, in node order."""
        if isinstance(self.group, QuadratureGroup):
            return self.group.modular_values
        return np.ones(self.group.order)

    # -- bulk operations -----------------------------------------------------

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        """trace((g.y)* x) at every node, in node order."""
        raise NotImplementedError

    def bracket_integral(self, x: AlgebraElement, y: AlgebraElement, weights: np.ndarray) -> complex:
        return complex(np.dot(weights, self.bracket_values(x, y)))

    def orbit_sum(self, coeffs: np.ndarray, x: AlgebraElement) -> AlgebraElement:
        """Sum of coeffs[i] * (g_i . x) over all nodes."""
        raise NotImplementedError

    # -- test elements and operator comparisons ------------------------------
    #
    # Exact models draw dense elements and compare operators entrywise or in
    # operator norm.  A quadrature model overrides these with the elements
    # and the weaker comparisons under which its errors converge.

    # appended to the semi-invariance notes to name the comparison
    comparison_note = ""

    def random_element(self, rng: np.random.Generator) -> AlgebraElement:
        return random_element(self.shape, rng)

    def random_positive(self, rng: np.random.Generator) -> AlgebraElement:
        return random_positive_element(self.shape, rng)

    def cross_check_distance(self, a: AlgebraElement, b: AlgebraElement) -> float:
        """Distance of two estimates of the same operator, relative to ``a``."""
        return sup_distance(a, b) / a.max_abs_entry()

    def semi_invariance_defect(self, d: AlgebraElement) -> float:
        """max over the sampled g of |g.d - Delta(g)^{-1} d| relative to |d|, entrywise."""
        scale = d.max_abs_entry()
        worst = 0.0
        for g in self.sample_elements:
            moved = self.apply(g, d)
            diff = moved - (1.0 / self.group.modular(g)) * d
            worst = max(worst, diff.max_abs_entry() / scale)
        return worst

    def off_scalar_norm(self, off: AlgebraElement) -> float:
        """Size of the part of an operator off the scalars: its operator norm."""
        return op_norm(off)

    # -- structure for the ergodicity count ----------------------------------

    def sampled_unitaries(self) -> np.ndarray | None:
        """Stacked U_g with g.x = U_g x U_g* for the sampled g, if the action is
        a conjugation of a single block."""
        return None

    def sampled_point_maps(self) -> np.ndarray | None:
        """One row per sampled g, a permutation of the atoms with the orbits of
        the action, if the action permutes the atoms of a diagonal algebra."""
        return None

    def trace_preservation_defect(self) -> float:
        """max over sampled elements and the matrix-unit basis of |tr(g.x) - tr(x)|."""
        worst = 0.0
        for g in self.sample_elements:
            for e in self.shape.basis():
                d = abs(trace(self.apply(g, e)) - trace(e))
                worst = max(worst, d)
        return worst


class ConjugationAction(Action):
    """g.x = U_g x U_g*; projective phases cancel, so this is a group action."""

    def __init__(self, rep: UnitaryRep, trace_weights: tuple[float, ...] = (1.0,)):
        shape = AlgebraShape((rep.dim,), trace_weights)
        gens = rep.group.generators or tuple(rep.group.elements())
        super().__init__(rep.group, shape, "conjugation", gens)
        self.rep = rep

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        U = self.rep.matrix(int(g))
        return AlgebraElement(self.shape, [U @ x.stacks[0] @ U.conj().T], copy=False)

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        # tr(U y* U* x) = sum_ij (U y*)_ij (x^T conj(U))_ij
        U = self.rep.matrices
        y_adj, x_t = y.stacks[0][0].conj().T, x.stacks[0][0].T
        out = np.empty(U.shape[0], dtype=complex)
        for s in range(0, U.shape[0], NODE_SLICE):
            Us = U[s:s + NODE_SLICE]
            out[s:s + NODE_SLICE] = np.einsum("gij,gij->g", Us @ y_adj, x_t @ Us.conj())
        return self.shape.trace_weights[0] * out

    def orbit_sum(self, coeffs: np.ndarray, x: AlgebraElement) -> AlgebraElement:
        U = self.rep.matrices
        c = np.asarray(coeffs, dtype=complex)
        xb = x.stacks[0][0]
        acc = np.zeros_like(xb)
        for s in range(0, U.shape[0], NODE_SLICE):
            Us = U[s:s + NODE_SLICE]
            # sum_g (c_g U_g x)_ij conj(U_g)_kj
            acc += np.tensordot(c[s:s + NODE_SLICE, None, None] * (Us @ xb), Us.conj(),
                                axes=([0, 2], [0, 2]))
        return AlgebraElement(self.shape, [acc[None]], copy=False)

    def sampled_unitaries(self) -> np.ndarray:
        return self.rep.matrices[[int(g) for g in self.sample_elements]]


def conjugation_action(rep: UnitaryRep, trace_weights: tuple[float, ...] = (1.0,)) -> ConjugationAction:
    return ConjugationAction(rep, trace_weights)


class PermutationAction(Action):
    """(g.x)(t) = x(g^{-1} t) on the diagonal algebra of a finite point set."""

    def __init__(self, group: FiniteGroup, point_table, mu, validate: bool = True):
        point_table = np.asarray(point_table, dtype=int)
        n, t = point_table.shape
        if n != group.order:
            raise ActionError("need one point permutation per group element")
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (t,) or not np.all(mu > 0):
            raise MeasureError("point measure must be positive on every atom")
        ident = point_table[group.identity]
        if not (ident == np.arange(t)).all():
            raise ActionError("identity must act trivially on points")
        for g in group.elements():
            if not (np.sort(point_table[g]) == np.arange(t)).all():
                raise ActionError("each group element must permute the points")
        pairs = _sample_pairs(group.order, limit=16)
        for a, b in pairs:
            if not (point_table[group.compose(a, b)] == point_table[a][point_table[b]]).all():
                raise ActionError("point maps do not compose with the group law")
        if validate:
            for g in group.elements():
                if np.abs(mu[point_table[g]] - mu).max() > 0:
                    raise MeasureError("point measure is not invariant under the action")
        shape = AlgebraShape((1,) * t, tuple(mu))
        gens = group.generators or tuple(group.elements())
        super().__init__(group, shape, "permutation", gens)
        self.point_table = point_table
        self.mu = mu
        # (g.x)(t) = x(src[g, t])
        self._src = point_table[group.inverse_table]

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.shape, [x.stacks[0][self._src[int(g)]]], copy=False)

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        return y.vec()[self._src].conj() @ (self.mu * x.vec())

    def orbit_sum(self, coeffs: np.ndarray, x: AlgebraElement) -> AlgebraElement:
        vals = np.asarray(coeffs, dtype=complex) @ x.vec()[self._src]
        return AlgebraElement(self.shape, [vals.reshape(-1, 1, 1)], copy=False)

    def sampled_point_maps(self) -> np.ndarray:
        return self.point_table[[int(g) for g in self.sample_elements]]


def permutation_action(group: FiniteGroup, point_table, mu, validate: bool = True) -> PermutationAction:
    return PermutationAction(group, point_table, mu, validate=validate)


def left_translation_action(G: FiniteGroup, mu=None) -> PermutationAction:
    """G acting on itself by left translation; counting measure by default."""
    if mu is None:
        mu = np.ones(G.order)
    return PermutationAction(G, G.table, mu)


def coset_action(G: FiniteGroup, h_indices, mu=None, validate: bool = True) -> PermutationAction:
    """G acting on the coset space G/H with a measure on the coset atoms."""
    reps, coset_of = coset_lookup(G, h_indices)
    t = len(reps)
    table = np.empty((G.order, t), dtype=int)
    for g in G.elements():
        for c, r in enumerate(reps):
            table[g, c] = coset_of[G.compose(g, r)]
    if mu is None:
        mu = np.ones(t)
    return PermutationAction(G, table, mu, validate=validate)


class DualTranslationAction(PermutationAction):
    """Dual of an abelian group translating the diagonalized group algebra.

    The algebra of the untwisted group von Neumann algebra of G is stored in
    its character coordinates: one 1-d block per character, trace weight 1/N,
    so that the trace of a twisted translate family element recovers its
    symbol at the identity.  omega moves the atom chi to chi omega^{-1}, so
    (omega.x)(chi) = x(chi omega): a permutation action of the dual group.
    """

    def __init__(self, G: FiniteGroup):
        chars = dual_group(G)
        dual = chars.as_group()
        n = G.order
        super().__init__(dual, dual.table[:, dual.inverse_table].T, np.full(n, 1.0 / n))
        self.kind = "dual-translation"
        self.base_group = G
        self.characters = chars

    def from_symbol(self, f: np.ndarray) -> AlgebraElement:
        """Element with symbol f: sum of f(g) * lambda(g)."""
        # row chi of the character table is chi(.), so the diagonal entry at
        # chi is sum_g f(g) chi(g)
        vals = self.characters.table @ np.asarray(f, dtype=complex)
        return AlgebraElement(self.shape, [vals.reshape(-1, 1, 1)], copy=False)

    def symbol(self, x: AlgebraElement) -> np.ndarray:
        """Recover f(g) = trace(lambda(g)* x); exact on this algebra."""
        return self.characters.table.conj().T @ x.vec() / self.base_group.order


class TwistedDualAction(Action):
    """Dual of cyclic(n)^2 acting on a nondegenerately twisted group algebra.

    For gcd(m, n) = 1 the twisted algebra is a single full n x n block with
    trace weight 1/n.  The action multiplies the symbol pointwise by the
    character: apply(omega, x) = sum_g omega(g) f(g) Lambda(g) with
    f(g) = trace(Lambda(g)* x) / n.  The n^2 translates Lambda(g) are checked
    once, on construction, to be an orthogonal basis of the block (Gram
    matrix n I), so every element is the sum of its symbol's translates.
    """

    def __init__(self, n: int, m: int):
        if math.gcd(m, n) != 1:
            raise ActionError(f"twist parameter m={m} must be coprime to n={n}")
        wh = finite_weyl_heisenberg(n)
        G = wh.group
        chars = dual_group(G)
        dual = chars.as_group()
        shape = AlgebraShape((n,), (1.0 / n,))
        gens = dual.generators or tuple(dual.elements())
        super().__init__(dual, shape, "twisted-dual", gens)
        self.base_group = G
        self.characters = chars
        self.n = n
        self.m = m
        lam = np.empty((G.order, n, n), dtype=complex)
        for g in G.elements():
            a, b = G.tuple_of_index(g)
            lam[g] = wh.matrix(G.index_of_tuple((a, (m * b) % n)))
        self.lambdas = lam
        # row g is Lambda(g) flattened
        self._rows = lam.reshape(n * n, n * n)
        gram = self._rows.conj() @ self._rows.T
        defect = float(np.abs(gram - n * np.eye(n * n)).max())
        if defect > 1e-10 * n:
            raise SymbolError(f"Gram matrix of the twisted translates is {defect:.3e} away from n I")

    def from_symbol(self, f: np.ndarray) -> AlgebraElement:
        stack = (np.asarray(f, dtype=complex) @ self._rows).reshape(1, self.n, self.n)
        return AlgebraElement(self.shape, [stack], copy=False)

    def symbol(self, x: AlgebraElement) -> np.ndarray:
        return (self._rows @ x.stacks[0].ravel().conj()).conj() / self.n

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        return self.from_symbol(self.characters.table[int(g)] * self.symbol(x))

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        # sum_g conj(omega(g) f_y(g)) f_x(g), conjugated outside the product
        return (self.characters.table @ (self.symbol(y) * self.symbol(x).conj())).conj()

    def orbit_sum(self, coeffs: np.ndarray, x: AlgebraElement) -> AlgebraElement:
        return self.from_symbol((np.asarray(coeffs, dtype=complex) @ self.characters.table)
                                * self.symbol(x))

    def sampled_unitaries(self) -> np.ndarray:
        # omega = (s, t) multiplies Lambda(a, b) by exp(2 pi i (s a + t b) / n),
        # which is conjugation by Lambda(-t/m, s/m)
        G, n, m_inv = self.base_group, self.n, pow(self.m, -1, self.n)
        idx = []
        for omega in self.sample_elements:
            s, t = G.tuple_of_index(int(omega))
            idx.append(G.index_of_tuple(((-t * m_inv) % n, (s * m_inv) % n)))
        return self.lambdas[idx]


def dual_action(G: FiniteGroup, m: int = 0):
    """Dual action on the (possibly twisted) group algebra of an abelian group.

    m = 0 works for any group built from cyclic factors; a nonzero twist needs
    G = cyclic(n) x cyclic(n) with gcd(m, n) = 1.
    """
    if m == 0:
        return DualTranslationAction(G)
    if G.structure is None or len(G.structure) != 2 or G.structure[0] != G.structure[1]:
        raise ActionError("twisted dual action needs cyclic(n) x cyclic(n)")
    return TwistedDualAction(G.structure[0], m)


class InducedAction(Action):
    """Action of G built from an action of a subgroup H on a smaller algebra.

    Elements are stored as one copy of the inner algebra per left coset of H,
    indexed by fixed representatives with the identity first; the total trace
    sums the inner trace over the copies.
    """

    def __init__(self, G: FiniteGroup, h_indices, inner: Action, iso):
        reps, coset_of = coset_lookup(G, h_indices)
        h_tuple = tuple(dict.fromkeys(int(i) for i in h_indices))
        iso = np.asarray(iso, dtype=int)
        if iso.shape != (len(h_tuple),):
            raise ActionError("iso must map each subgroup element to an inner group element")
        if not isinstance(inner.group, FiniteGroup) or inner.group.order != len(h_tuple):
            raise ActionError("inner action must live on a group of the subgroup's order")
        pos = {g: i for i, g in enumerate(h_tuple)}
        for i, a in enumerate(h_tuple):
            for j, b in enumerate(h_tuple):
                if inner.group.compose(int(iso[i]), int(iso[j])) != int(iso[pos[G.compose(a, b)]]):
                    raise ActionError("iso is not a group isomorphism onto the inner group")
        j_count = len(reps)
        dims = inner.shape.block_dims * j_count
        weights = inner.shape.trace_weights * j_count
        shape = AlgebraShape(dims, weights)
        gens = G.generators or tuple(G.elements())
        super().__init__(G, shape, "induced", gens)
        self.inner = inner
        self.reps = reps
        self.coset_of = coset_of
        # target coset and inner translate (already inverted) per (g, coset)
        self._target = np.empty((G.order, j_count), dtype=int)
        self._inner_elt = np.empty((G.order, j_count), dtype=int)
        for g in G.elements():
            ginv = G.inverse(g)
            for j, r in enumerate(reps):
                w = G.compose(ginv, r)
                a = coset_of[w]
                h = G.compose(G.inverse(reps[a]), w)
                self._target[g, j] = a
                self._inner_elt[g, j] = inner.group.inverse(int(iso[pos[h]]))

    @property
    def coset_count(self) -> int:
        return len(self.reps)

    # The induced shape repeats the inner blocks once per coset, so each size
    # class of it stacks the inner class's blocks coset after coset.

    def component(self, x: AlgebraElement, j: int) -> AlgebraElement:
        sizes = (m for m, _, _ in self.inner.shape.stack_shapes)
        return AlgebraElement(self.inner.shape, [s[j * m:(j + 1) * m] for m, s in zip(sizes, x.stacks)],
                              copy=False)

    def assemble(self, components) -> AlgebraElement:
        stacks = zip(*(c.stacks for c in components))
        return AlgebraElement(self.shape, [np.concatenate(s) for s in stacks], copy=False)

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        g = int(g)
        parts = []
        for j in range(self.coset_count):
            src = self.component(x, int(self._target[g, j]))
            parts.append(self.inner.apply(int(self._inner_elt[g, j]), src))
        return self.assemble(parts)

    # Component j of g.x is the inner translate by _inner_elt[g, j] of the
    # component a = _target[g, j] of x, so both kernels run the inner kernel
    # once per coset pair (a, j) and gather through the two tables.

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        J = self.coset_count
        xs = [self.component(x, j) for j in range(J)]
        ys = [self.component(y, a) for a in range(J)]
        inner = np.array([[self.inner.bracket_values(xs[j], ys[a]) for j in range(J)]
                          for a in range(J)])
        return inner[self._target, np.arange(J), self._inner_elt].sum(axis=1)

    def orbit_sum(self, coeffs: np.ndarray, x: AlgebraElement) -> AlgebraElement:
        J = self.coset_count
        folded = np.zeros((J, J, self.inner.group.order), dtype=complex)
        np.add.at(folded, (self._target, np.arange(J), self._inner_elt),
                  np.asarray(coeffs, dtype=complex)[:, None])
        xs = [self.component(x, a) for a in range(J)]
        parts = []
        for j in range(J):
            acc = self.inner.orbit_sum(folded[0, j], xs[0])
            for a in range(1, J):
                acc = acc + self.inner.orbit_sum(folded[a, j], xs[a])
            parts.append(acc)
        return self.assemble(parts)


def induced_action(G: FiniteGroup, h_indices, inner: Action, iso) -> InducedAction:
    return InducedAction(G, h_indices, inner, iso)


# ---------------------------------------------------------------------------
# wavelet action on a log-frequency grid


@dataclass(frozen=True)
class WaveletDesign:
    """Grid parameters for the scaling-and-shift quadrature scenario.

    Frequencies live on a log-uniform grid with ``steps_per_octave`` points
    per octave spanning ``octaves`` octaves around 1.  Dilations move the grid
    by up to ``max_shift`` steps; shifts in frequency act by modulation phases
    sampled at ``n_b`` midpoints of [-b_extent, b_extent].  The extent of the
    shift window is matched to the grid so that the truncated tails of the
    smooth test elements dominate the quadrature error; refining multiplies
    the grid density and the shift window together.
    """

    steps_per_octave: int = 16
    octaves: int = 6
    max_shift: int = 24
    b_extent: float = 8.0
    n_b: int = 256
    support_octaves: float = 0.75

    def scaled(self, s: int) -> "WaveletDesign":
        """Refine every quadrature axis by the integer factor s."""
        if s < 1:
            raise GridError("refinement factor must be >= 1")
        return WaveletDesign(
            steps_per_octave=self.steps_per_octave * s,
            octaves=self.octaves,
            max_shift=self.max_shift * s,
            b_extent=self.b_extent * s,
            n_b=self.n_b * s,
            support_octaves=self.support_octaves,
        )


class WaveletAction(Action):
    """Scaling-and-shift group acting by conjugation on B(l2(log-frequency grid)).

    A node (a, b) with a = ratio^j acts by a cyclic grid shift of j steps
    composed with modulation phases exp(-2*pi*i*b*xi_k).  Each node's operator
    is exactly unitary; only the composition law across nodes is approximate
    (wrap-around rows), so sampled checks use centrally supported elements.

    The truncated shift integral smears the continuum multiplier over a band
    of reciprocal width, so operator comparisons for this action are made in
    the weak sense: paired against the fixed family of smooth, centrally
    supported probe states from ``weak_probes``.
    """

    def __init__(self, design: WaveletDesign):
        from .groups import affine_group

        den = design.steps_per_octave
        K = design.octaves * den + 1
        h = design.max_shift
        if h < 1 or 2 * h >= K:
            raise GridError("max_shift must satisfy 1 <= max_shift < K/2")
        if design.support_octaves * den > h:
            raise GridError("element support cannot exceed the dilation range")
        self.design = design
        self.log_ratio = math.log(2.0) / den
        self.xi = np.exp2((np.arange(K) - (K - 1) / 2) / den)
        group = affine_group(
            a_min=2.0 ** (-h / den), a_max=2.0 ** (h / den), n_a=2 * h + 1,
            b_min=-design.b_extent, b_max=design.b_extent, n_b=design.n_b,
        )
        shape = AlgebraShape((K,), (1.0,))
        self.n_a = 2 * h + 1
        self.n_b = design.n_b
        self.shifts = np.arange(-h, h + 1)
        self.b_nodes = group.nodes[:design.n_b, 1].copy()
        self.db = float(2.0 * design.b_extent / design.n_b)
        # phase table p[j, k] = exp(-2*pi*i * b_j * xi_k) and its Haar-summed gram
        self.phases = np.exp(-2j * np.pi * np.outer(self.b_nodes, self.xi))
        self.b_kernel = self.db * (self.phases.T @ self.phases.conj())
        c = (K - 1) // 2
        self.center = c
        support_steps = int(round(design.support_octaves * den))
        self.window = slice(c - (h - support_steps), c + (h - support_steps) + 1)
        # sample nodes near the identity: one-step dilations and one-cell shifts
        i_c, j_c = h, design.n_b // 2
        sample_idx = (
            (i_c + 1) * design.n_b + j_c,
            (i_c - 1) * design.n_b + j_c + 1,
            i_c * design.n_b + j_c + 1,
            (i_c + 2) * design.n_b + j_c,
            i_c * design.n_b + j_c,
        )
        group.sampling_indices = tuple(sample_idx)
        sample = [group.nodes[i] for i in sample_idx]
        super().__init__(group, shape, "wavelet", sample)
        self._probes: list[AlgebraElement] | None = None

    # -- grid plumbing ---------------------------------------------------

    @property
    def grid_size(self) -> int:
        return self.xi.shape[0]

    def shift_of(self, a: float) -> int:
        j = round(math.log(a) / self.log_ratio)
        if abs(a - math.exp(j * self.log_ratio)) > 1e-9 * a:
            raise GridError(f"dilation {a:g} is not a grid step")
        return int(j)

    def matrix(self, g) -> np.ndarray:
        """Unitary of the node: modulation phases times a cyclic shift."""
        a, b = float(g[0]), float(g[1])
        j = self.shift_of(a)
        K = self.grid_size
        U = np.zeros((K, K), dtype=complex)
        rows = np.arange(K)
        U[rows, (rows + j) % K] = np.exp(-2j * np.pi * b * self.xi)
        return U

    def sampled_unitaries(self) -> np.ndarray:
        return np.array([self.matrix(g) for g in self.sample_elements])

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        a, b = float(g[0]), float(g[1])
        j = self.shift_of(a)
        phase = np.exp(-2j * np.pi * b * self.xi)
        rolled = self._dilated(x.stacks[0][0], j)
        return AlgebraElement(self.shape, [(rolled * np.outer(phase, phase.conj()))[None]], copy=False)

    # -- structured bulk paths --------------------------------------------

    def _dilated(self, y: np.ndarray, j: int) -> np.ndarray:
        return np.roll(y, shift=(-j, -j), axis=(0, 1))

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        xb, yb = x.stacks[0][0], y.stacks[0][0]
        out = np.empty(self.n_a * self.n_b, dtype=complex)
        P = self.phases
        for i, j in enumerate(self.shifts):
            A = (self._dilated(yb, j).conj() * xb).T
            out[i * self.n_b:(i + 1) * self.n_b] = ((P @ A) * P.conj()).sum(axis=1)
        return out

    def bracket_integral(self, x: AlgebraElement, y: AlgebraElement, weights: np.ndarray) -> complex:
        # weights are log-uniform in a and constant in b: collapse the b sum
        # through the precomputed phase gram instead of looping over nodes
        if np.asarray(weights).shape[0] != self.n_a * self.n_b:
            raise ActionError("weights do not match the node grid")
        xb, yb = x.stacks[0][0], y.stacks[0][0]
        d_log_a = self.log_ratio
        total = 0.0 + 0.0j
        for j in self.shifts:
            a = math.exp(j * self.log_ratio)
            Yd = self._dilated(yb, j).conj().T
            total += (d_log_a / a) * np.sum((Yd * self.b_kernel) * xb.T)
        return complex(total)

    def orbit_sum(self, coeffs: np.ndarray, x: AlgebraElement) -> AlgebraElement:
        coeffs = np.asarray(coeffs, dtype=complex).reshape(self.n_a, self.n_b)
        xb = x.stacks[0][0]
        acc = np.zeros_like(xb)
        P = self.phases
        for i, j in enumerate(self.shifts):
            c = coeffs[i]
            if np.allclose(c, c[0], rtol=0.0, atol=1e-14 * (abs(c[0]) + 1.0)):
                kernel = (c[0] / self.db) * self.b_kernel
            else:
                kernel = (P.T * c) @ P.conj()
            acc += self._dilated(xb, j) * kernel
        return AlgebraElement(self.shape, [acc[None]], copy=False)

    def trace_preservation_defect(self) -> float:
        # each node acts by an exactly unitary conjugation: the defect of the
        # trace functional is the unitarity defect of the node matrices
        worst = 0.0
        K = self.grid_size
        for g in self.sample_elements:
            U = self.matrix(g)
            worst = max(worst, float(np.abs(U.conj().T @ U - np.eye(K)).max()))
        return worst

    # -- smooth windowed test elements ---------------------------------------
    #
    # Elements are built from bump vectors with parameters given in octaves,
    # so the same random draw denotes the same continuum object at every grid
    # refinement and quadrature errors converge under refinement.

    def bump_vector(self, center_octaves: float, width_octaves: float,
                    modulation: float = 0.0) -> np.ndarray:
        """Gaussian log-frequency bump with a slow modulation, hard-cut at the
        declared support radius."""
        t = (np.arange(self.grid_size) - self.center) / self.design.steps_per_octave
        v = np.exp(-0.5 * ((t - center_octaves) / width_octaves) ** 2)
        v = v * np.exp(2j * np.pi * modulation * t)
        v[np.abs(t - center_octaves) > self.design.support_octaves] = 0.0
        return v

    def random_positive(self, rng: np.random.Generator, parts: int = 3) -> AlgebraElement:
        """Positive element: a few random smooth bumps plus a small spectral floor."""
        r = self.design.support_octaves
        K = self.grid_size
        mat = np.zeros((K, K), dtype=complex)
        for _ in range(parts):
            center = rng.uniform(-r / 3.0, r / 3.0)
            width = rng.uniform(0.12, 0.25)
            nu = rng.uniform(-1.0, 1.0)
            v = self.bump_vector(center, width, nu)
            mat += np.outer(v, v.conj())
        mat += 1e-7 * float(np.abs(np.diag(mat)).max()) * np.eye(K)
        return AlgebraElement(self.shape, [mat[None]], copy=False)

    def random_element(self, rng: np.random.Generator, parts: int = 3) -> AlgebraElement:
        """General (non-hermitian) element spanned by smooth windowed bumps."""
        r = self.design.support_octaves
        K = self.grid_size
        mat = np.zeros((K, K), dtype=complex)
        for _ in range(parts):
            cu, cw = rng.uniform(-r / 3.0, r / 3.0, size=2)
            wu, ww = rng.uniform(0.12, 0.25, size=2)
            nuu, nuw = rng.uniform(-1.0, 1.0, size=2)
            coeff = rng.standard_normal() + 1j * rng.standard_normal()
            u = self.bump_vector(cu, wu, nuu)
            w = self.bump_vector(cw, ww, nuw)
            mat += coeff * np.outer(u, w.conj())
        return AlgebraElement(self.shape, [mat[None]], copy=False)

    def weak_probes(self) -> list[AlgebraElement]:
        """Fixed family of smooth probe states for weak operator comparisons."""
        if self._probes is None:
            probes = []
            for center in (-0.5, -0.25, 0.0, 0.25, 0.5):
                for nu in (0.0, 0.7):
                    v = self.bump_vector(center, 0.18, nu)
                    probes.append(AlgebraElement(self.shape, [np.outer(v, v.conj())[None]], copy=False))
            self._probes = probes
        return self._probes

    def weak_pairing_defect(self, a: AlgebraElement, b: AlgebraElement) -> float:
        """max over probes of |trace((a - b) z)| / |trace(a z)|."""
        worst = 0.0
        for z in self.weak_probes():
            ref = trace(a @ z)
            worst = max(worst, abs(trace((a - b) @ z)) / max(abs(ref), 1e-300))
        return worst

    # -- comparisons in the weak sense ---------------------------------------

    comparison_note = " (weak pairing against smooth probes)"

    def cross_check_distance(self, a: AlgebraElement, b: AlgebraElement) -> float:
        return self.weak_pairing_defect(a, b)

    def semi_invariance_defect(self, d: AlgebraElement) -> float:
        """The smeared estimate paired against the probes: the discretization
        under which the truncated shift integral converges."""
        probes = self.weak_probes()
        refs = [trace(d @ z) for z in probes]
        worst = 0.0
        for g in self.sample_elements:
            moved = self.apply(g, d)
            scale = self.group.modular(g)
            for z, ref in zip(probes, refs):
                target = ref / scale
                worst = max(worst, abs(trace(moved @ z) - target) / max(abs(target), 1e-300))
        return worst

    def off_scalar_norm(self, off: AlgebraElement) -> float:
        """Largest entry inside the window, where the truncation leaves the
        estimate unsmeared."""
        return float(np.abs(off.stacks[0][0, self.window, self.window]).max())


def wavelet_action(design: WaveletDesign | None = None) -> WaveletAction:
    return WaveletAction(design if design is not None else WaveletDesign())


# ---------------------------------------------------------------------------
# structural checkers


def fixed_point_dimension(action: Action, tol: float = 1e-8) -> int:
    """Dimension of {x : g.x = x for the sampled elements g}; 1 means ergodic.

    Each action family has one exact count:

    - permutation and dual-translation actions: the orbits of the sampled
      point maps, by union-find (integer work, no tolerance);
    - conjugation-type actions (conjugation, wavelet, twisted dual): the
      commutant of the sampled unitaries from one generic hermitian element,
      see commutant_certificate for the tolerance and its margins;
    - induced actions: the count of the inner action, since a fixed point of
      the induced action is fixed by its component on the identity coset,
      which must itself be fixed by the inner action.

    Any other action takes the dense stacked-SVD count of
    dense_fixed_point_dimension.
    """
    if isinstance(action, InducedAction):
        return fixed_point_dimension(action.inner, tol)
    maps = action.sampled_point_maps()
    if maps is not None:
        return _orbit_count(maps)
    unitaries = action.sampled_unitaries()
    if unitaries is not None:
        return commutant_certificate(unitaries, tol).dimension
    return dense_fixed_point_dimension(action, tol)


def dense_fixed_point_dimension(action: Action, tol: float = 1e-8) -> int:
    """Oracle count: singular values at most ``tol`` of the linearized g.x - x
    stacked over the sampled g, for algebras of dimension up to DENSE_LIMIT."""
    dim = action.shape.total_dim
    if dim > DENSE_LIMIT:
        raise ActionError(f"dense fixed-point count needs dim <= {DENSE_LIMIT}, got {dim}")
    basis = list(action.shape.basis())
    maps = [np.array([(action.apply(g, e) - e).vec() for e in basis]).T
            for g in action.sample_elements]
    return _stacked_nullity(maps, tol)


def is_trace_preserving(action: Action, tol: float = 1e-10, scenario: str = "") -> CheckReport:
    """Report whether the trace is invariant under the sampled action elements."""
    defect = action.trace_preservation_defect()
    return CheckReport.bound(
        "trace-preservation",
        "trace(g.x) equals trace(x) over sampled g and a basis of x",
        defect, 0.0, tol_rel=0.0, tol_abs=tol, scenario=scenario,
        notes=f"defect={defect:.3e}",
    )


def homomorphism_defect(action: Action, rng: np.random.Generator,
                        pairs: int = 24, probes=None) -> float:
    """max over sampled pairs of sup|g.(h.x) - (gh).x|."""
    group = action.group
    if probes is None:
        probes = [action.random_element(rng)]
    if isinstance(group, QuadratureGroup):
        idx = np.array(group.sampling_indices or range(group.node_count))
        chosen = [(group.nodes[a], group.nodes[b])
                  for a in idx for b in idx][:pairs]
        compose = group.compose
    else:
        n = group.order
        if n <= 16:  # exhaustive for small groups, sampled beyond
            chosen = [(a, b) for a in range(n) for b in range(n)]
        else:
            chosen = [tuple(rng.integers(0, n, size=2)) for _ in range(pairs)]
        compose = group.compose
    worst = 0.0
    for a, b in chosen:
        for x in probes:
            lhs = action.apply(a, action.apply(b, x))
            rhs = action.apply(compose(a, b), x)
            scale = 1.0 + x.max_abs_entry()
            worst = max(worst, sup_distance(lhs, rhs) / scale)
    return worst


def automorphism_defect(action: Action, rng: np.random.Generator, trials: int = 5) -> float:
    """max defect of multiplicativity, *-preservation and unitality."""
    one = action.shape.identity()
    worst = 0.0
    for g in action.sample_elements:
        worst = max(worst, sup_distance(action.apply(g, one), one))
        for _ in range(trials):
            x = action.random_element(rng)
            y = action.random_element(rng)
            scale = 1.0 + x.max_abs_entry() * y.max_abs_entry()
            worst = max(
                worst,
                sup_distance(action.apply(g, x @ y), action.apply(g, x) @ action.apply(g, y)) / scale,
                sup_distance(action.apply(g, x.adjoint()), action.apply(g, x).adjoint())
                / (1.0 + x.max_abs_entry()),
            )
    return worst


def isometry_defect(action: Action, rng: np.random.Generator, trials: int = 4,
                    exponents=(1.0, 2.0, 3.0, math.inf)) -> float:
    """max over p of | ||g.x||_p - ||x||_p | / ||x||_p."""
    worst = 0.0
    for g in action.sample_elements:
        for _ in range(trials):
            x = action.random_element(rng)
            for p in exponents:
                ref = p_norm(x, p)
                if ref == 0.0:
                    continue
                worst = max(worst, abs(p_norm(action.apply(g, x), p) - ref) / ref)
    return worst
