"""Group actions on tracial block algebras.

Every *-automorphism of a sum of equal matrix blocks permutes the blocks and
conjugates each one by a unitary, so one finite class covers the finite
actions.  ``ConjugationAction`` maps block j of x to
U[g, j] x[src[g, j]] U[g, j]*: a (projective) representation on one block,
the twisted dual, whose translations are conjugations by Weyl operators, and
every induced action.  Its representation must be monomial (one nonzero
entry in each column of each block); other representations, such as the
two-dimensional irreducible ones of SL(2, 3), are out of scope.  A
permutation of the atoms of a diagonal algebra (left translation, cosets,
the dual translating the diagonalized group algebra) is the case of 1x1
blocks and unit phases: ``PermutationAction`` builds it from a point table
and keeps the gather as its ``apply``.  ``dual_action`` and
``induced_action`` are factories onto the class.  The other family is a
quadrature wavelet action of the scaling-and-shift group on a log-frequency
grid.  Every action carries the Haar model of its group, ``action.haar``,
fixed when the action is built: ``group.haar()`` (counting weights on a
finite group, the product rule on a quadrature one) unless the builder
passes another.  Every group integral reads it.

The structural checkers read certificates: each action carries
``action.structure``, residuals worked out from its generators that bound
its group-law, automorphism, isometry and trace defects.  The fixed-point
dimension that certifies ergodicity is chosen by ``group.kind``: the group
average of the hook ``character``, trace(x -> g.x), on a finite group
(Burnside's lemma), and on a quadrature one the commutant of the sampled
unitaries, counted exactly from their tables: no dense unitary is formed
and no eigendecomposition runs; ``ergodicity_note`` is the ergodicity
row's notes.  Randomized probes, the dense U* U residuals and a dense
stacked-SVD nullity are the oracles the tests compare with.

Each family has its own vectorized kernels for the bracket values
g -> trace((g.y)* x) and the orbit sum sum_g w_g Delta(g)^{-1} (g.x)
against the action's own Haar weights w.  A conjugation is held as
permutation and phase tables (every block monomial, one permutation times
one diagonal phase, as the Weyl operators are) and takes one quadratic form
or phase gram per class of nodes that share a permutation; on 1x1 blocks
the phases cancel and both kernels are a gather through the source rows.
The wavelet takes phase products and a circulant dilation sum.  ``apply``
stays the per-node reference the tests compare them with.  The bracket
kernels take stacks of trials (see ``algebra``): a conjugation gathers or
conjugates a stack's (trial, node) pairs in pieces no larger than a single
trial's, and the wavelet runs its per-element kernels trial by trial.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    as_stack,
    floored_gram,
    random_element,
    random_positive_element,
    stack,
    stack_size,
    sup_distance,
    trace_pairing,
    weighted_sum,
)
from .groups import (
    FiniteGroup,
    HaarModel,
    coset_lookup,
    distinct_indices,
    dual,
)
from .reports import CheckReport


class ActionError(Exception):
    """Invalid action data."""


class RepresentationError(ActionError):
    """Block matrices fail to be unitary or to compose as a group action."""


class MeasureError(ActionError):
    """The trace weights are not one per block, or a point measure is not
    invariant under the point action."""


class GridError(ActionError):
    """A dilation step is incompatible with the frequency grid."""


# ---------------------------------------------------------------------------
# representations and the group law of a conjugation


class MonomialStack:
    """A stack of monomial n x n matrices as two (..., n) tables, kept as
    read-only views: column c holds one nonzero entry, U[perm[c], c] =
    phase[c].  Indexing and ``reshape`` act on the leading axes."""

    def __init__(self, perm, phase):
        self.perm, self.phase = np.asarray(perm, dtype=int).view(), np.asarray(phase, dtype=complex).view()
        if self.perm.shape != self.phase.shape or self.perm.ndim < 1:
            raise ActionError("need one row index and one phase per column")
        self.perm.setflags(write=False)
        self.phase.setflags(write=False)

    @classmethod
    def from_dense(cls, U) -> "MonomialStack":
        """The tables of a dense (..., n, n) stack.  Every column of every
        matrix must hold exactly one nonzero entry, else RepresentationError
        names the first that does not: column c of U[g, j] on an action's
        (node, block) stack."""
        U = np.asarray(U, dtype=complex)
        if U.ndim < 2 or U.shape[-1] != U.shape[-2]:
            raise ActionError("need a stack of square matrices")
        support = U != 0
        counts = support.sum(axis=-2)
        if (counts != 1).any():
            *lead, c = np.argwhere(counts != 1)[0].tolist()
            raise RepresentationError(f"not monomial: column {c} of U{lead} holds "
                                      f"{counts[(*lead, c)]} nonzero entries")
        perm = support.argmax(axis=-2)
        # one entry of each column, in column order
        return cls(perm, U.swapaxes(-1, -2)[support.swapaxes(-1, -2)].reshape(perm.shape))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.perm.shape

    def __getitem__(self, idx) -> "MonomialStack":
        return MonomialStack(self.perm[idx], self.phase[idx])

    def reshape(self, *shape) -> "MonomialStack":
        return MonomialStack(self.perm.reshape(shape), self.phase.reshape(shape))

    def dense(self) -> np.ndarray:
        """The (..., n, n) matrices."""
        n = self.shape[-1]
        perm = self.perm.reshape(-1, n)
        U = np.zeros((len(perm), n, n), dtype=complex)
        U[np.arange(len(perm))[:, None], perm, np.arange(n)] = self.phase.reshape(-1, n)
        return U.reshape(self.shape + (n,))


def _law_bound(rd: np.ndarray, rp: np.ndarray, rq: np.ndarray, c: np.ndarray) -> float:
    """Bound on sup|P x P* - Q x Q*| / max|x| over pairs P = c Q + D, from
    (bounds on) the row gains rd, rp, rq of D, P and Q: the largest row sum
    of moduli, the factor by which x -> A x, or x -> x A*, can raise the
    largest entry of x.

    P x P* - Q x Q* = D x P* + c Q x D* + (|c|^2 - 1) Q x Q*, and x -> A x B*
    raises the largest entry by at most r(A) r(B).
    """
    return float(np.max(rd * (rp + np.abs(c) * rq) + np.abs(np.abs(c) ** 2 - 1.0) * rq ** 2))


def product_phases(U: MonomialStack, src: np.ndarray, group: FiniteGroup,
                   pairs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Phases c[p, j] with U[a, j] U[b, src[a, j]] = c[p, j] U[ab, j] + D for
    each row p = (a, b) of ``pairs``, max|D|, and the group-law residual.

    ``U`` is an (N, t, n) ``MonomialStack`` and ``src`` an (N, t) source
    table, both indexed by the elements of ``group``.  When the source rows
    compose, a.(b.x) = (ab).x for the action x_j -> U[g, j] x[src[g, j]] U[g, j]*
    exactly when every D vanishes; on one block this says U is a projective
    representation.  With P = U[a, j] U[b, src[a, j]] and Q = U[ab, j],
    c = tr(P Q*) / n, and the residual is ``_law_bound`` with
    r(P) <= r(U[a, j]) r(U[b, src[a, j]]).  P is monomial, with the
    permutation perm_a[perm_b] and the phases ph_b ph_a[perm_b]: c sums
    ph_P conj(ph_Q) over the columns where P and Q share their row, and a row
    of D holds at most one entry of each, O(t n) a pair in pieces below
    STACK_BYTES.
    """
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    a, b = pairs.T
    ab = group.compose(a, b)
    t, n = src.shape[1], U.shape[2]
    out = np.empty((len(pairs), t), dtype=complex)
    deviation, rd = np.empty((2,) + out.shape)
    perm, phase, blocks, cols = U.perm.reshape(-1), U.phase.reshape(-1), np.arange(t), np.arange(n)
    step = stack_size(16 * t * n)
    for s in range(0, len(pairs), step):
        sl = slice(s, s + step)
        # flat indices of the columns of U[a, j], U[b, src[a, j]] and U[ab, j]
        fa = (a[sl, None] * t + blocks)[..., None] * n
        fb = (b[sl, None] * t + src[a[sl]])[..., None] * n + cols
        fq = (ab[sl, None] * t + blocks)[..., None] * n + cols
        pb = perm[fb]
        p, q = phase[fb] * phase[fa + pb], phase[fq]
        # Q's phases where P holds its entry in the same row, 0 elsewhere
        shared = q * (perm[fa + pb] == perm[fq])
        out[sl] = c = (p * shared.conj()).sum(axis=-1) / n
        # the largest entry of D from P's columns and from Q's alone
        dp = np.abs(p - c[..., None] * shared).max(axis=-1)
        dq = np.abs(c[..., None] * (q - shared)).max(axis=-1)
        deviation[sl], rd[sl] = np.maximum(dp, dq), dp + dq
    r = np.abs(U.phase).max(axis=-1)  # one entry a row
    return out, float(deviation.max()), _law_bound(rd, r[a] * r[b[:, None], src[a]], r[ab], out)


def _stacks(x: AlgebraElement, y: AlgebraElement) -> tuple[np.ndarray, np.ndarray, bool]:
    """The blocks of x and y as (B, t, n, n) stacks of one trial count (a
    single element is the stack of one), and whether either was a stack."""
    xs, ys = np.broadcast_arrays(as_stack(x).blocks, as_stack(y).blocks)
    return xs, ys, x.trials is not None or y.trials is not None


def _trialwise(kernel, x: AlgebraElement, y: AlgebraElement):
    """kernel(x_block, y_block) of a one-block action on each trial of the
    stacks x and y, stacked; the kernel's own value for single elements."""
    xs, ys, stacked = _stacks(x, y)
    values = [kernel(a[0], b[0]) for a, b in zip(xs, ys)]
    if not stacked:
        return values[0]
    # a lone trial's row is viewed, not copied: a wavelet row is 200 KB
    return np.stack(values) if len(values) > 1 else np.asarray(values[0])[None]


def _permutes(rows: np.ndarray, n: int) -> bool:
    """Whether every row of ``rows`` (its last axis, of length n) permutes
    range(n): a range check, then one scatter of the rows' flat positions
    into a mask, which fills it exactly when no row repeats an entry (on
    n = 1 the range check alone)."""
    in_range = bool(rows.min() >= 0 and rows.max() < n)
    if not in_range or n == 1:
        return in_range
    seen = np.zeros(rows.size, dtype=bool)
    seen[(rows.reshape(-1, n) + np.arange(0, rows.size, n)[:, None]).ravel()] = True
    return bool(seen.all())


def _sample_pairs(n: int, limit: int) -> np.ndarray:
    """(P, 2) array of pairs: all n^2 when n <= limit, else limit^2 fixed-seed draws."""
    if n <= limit:
        return np.stack(np.divmod(np.arange(n * n), n), axis=1)
    return np.random.default_rng(0).integers(0, n, size=(limit * limit, 2))


# Representation stacks: monomial (N, n, n) arrays, or (N, n) ``MonomialStack``
# tables, indexed by the group's elements, which ``conjugation_action``
# validates.


def trivial_rep(G: FiniteGroup, dim: int = 1) -> np.ndarray:
    return np.broadcast_to(np.eye(dim, dtype=complex), (G.order, dim, dim)).copy()


def cyclic_character_rep(G: FiniteGroup, j: int) -> np.ndarray:
    """One-dimensional representation chi_j of cyclic(n)."""
    if G.structure is None or len(G.structure) != 1:
        raise RepresentationError("cyclic_character_rep needs a cyclic group")
    n = G.structure[0]
    # the angle 2 pi j g / n in real arithmetic: complex division rounds it otherwise
    return np.exp(1j * (2 * np.pi * j * np.arange(n) / n)).reshape(n, 1, 1)


def s3_irreps() -> tuple[FiniteGroup, dict[str, np.ndarray]]:
    """The symmetric group on 3 letters and its three irreducible
    representations, each monomial.

    The standard one acts on the sum-zero plane of C^3, here in the basis
    v_k(i) = omega^(k i) / sqrt(3), k = 1, 2, of eigenvectors of the
    3-cycles, omega = exp(2 pi i / 3): it is induced from a character of
    the 3-cycles, as every irreducible representation of a supersolvable
    group is induced from a linear character.  A permutation p(i) = s i + a
    (mod 3) maps v_k to omega^(-k s a) v_(k s): the 3-cycles (s = 1) are
    diag(omega^(-a), omega^(a)), the transpositions (s = -1) anti-diagonal
    with cube-root phases.
    """
    from .groups import symmetric

    G = symmetric(3)
    perms = np.array(list(itertools.permutations(range(3))))  # the element order of symmetric(3)
    # the sign as the parity of the inversions
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    sgn = ((-1.0) ** inversions).reshape(-1, 1, 1)
    a, s, k = perms[:, :1], (perms[:, 1:2] - perms[:, :1]) % 3, np.arange(1, 3)
    std = np.zeros((G.order, 2, 2), dtype=complex)
    # column k - 1 holds omega^(-k s a) in row k s - 1, its angle in real
    # arithmetic with the exponent reduced to -1, 0 or 1: omega and its
    # conjugate then hold opposite sines
    r = (1 - k * s * a) % 3 - 1
    std[np.arange(G.order)[:, None], (k * s) % 3 - 1, k - 1] = np.exp(1j * (2 * np.pi * r / 3))
    return G, {"trivial": trivial_rep(G), "sign": sgn, "std": std}


def finite_weyl_heisenberg(n: int) -> MonomialStack:
    """Translation-and-modulation family pi(k, l) = T_k M_l on C^n, as tables.

    Element (k, l) of cyclic(n) x cyclic(n), index k n + l, is the matrix with
    omega^(l s) in row (s + k) % n, column s, for omega = exp(2 pi i / n).  Its
    product phase pi(k, l) pi(k', l') = exp(2 pi i l k' / n) pi(k + k', l + l')
    is computed by ``product_phases`` when an action is built on the family.
    The family is irreducible for every n >= 2.
    """
    if n < 2:
        raise RepresentationError(f"need n >= 2, got {n}")
    k, l, s = np.ogrid[:n, :n, :n]
    # the angle of omega^(l s) reduced mod n first, in real arithmetic: a
    # power of the rounded root would lose accuracy with the exponent
    return MonomialStack(np.broadcast_to((s + k) % n, (n, n, n)).reshape(n * n, n),
                         np.broadcast_to(np.exp(1j * (2 * np.pi * ((l * s) % n) / n)), (n, n, n)).reshape(n * n, n))


# The joint-phase count is accepted only when its smallest gap sits at least
# this factor above the rounding floor K eps.
CERTIFICATE_MARGIN = 10.0


class CommutantCertificate(NamedTuple):
    """A commutant dimension with the margins behind it.

    ``rel_gap`` is the smallest distance between the joint phases of two
    indices under the diagonal members, over the largest phase modulus,
    ``noise_floor`` the rounding floor K*eps it is held against, and
    ``min_coupling`` the smallest phase modulus of the edges the component
    count joins along (inf when there is none).
    """

    dimension: int
    rel_gap: float
    noise_floor: float
    min_coupling: float


def _union_find(n: int, pairs) -> int:
    """The number of connected components of n vertices joined along ``pairs``."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = n
    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def commutant_certificate(U: MonomialStack, kept: np.ndarray) -> CommutantCertificate:
    """Dimension of {X : X U = U X for every U in ``U``}, an (m, K)
    ``MonomialStack`` of unitaries cut to the entries the (m, K) mask
    ``kept`` marks, counted exactly from the tables.

    The diagonal members (perm the identity) are diag(ph), and X commutes
    with them exactly when X[c, d] (ph[c] - ph[d]) vanishes for each: when
    the joint phases (ph_g[c])_g of every two indices differ, each
    commuting X is diagonal, X = diag(d).  diag(d) commutes with a monomial
    U, U[perm[c], c] = ph[c], exactly when d[perm[c]] ph[c] = ph[c] d[c]:
    d is constant along the edge (c, perm[c]), as ph[c] != 0.  The
    dimension is then the number of connected components of the other
    members' kept edges, found by union-find; an entry outside ``kept``
    joins nothing (the wavelet's wrap-around rows, which the truncated grid
    adds and the dilations do not have).  This costs O(m K^2) for the gaps
    and O(m K) for the edges; no eigendecomposition.

    The one threshold: the smallest joint-phase gap over the largest phase
    modulus must reach CERTIFICATE_MARGIN (10) times the rounding floor
    K * eps, else two indices are not separated and ActionError names the
    relative gap.  On the wavelet the diagonal members are the sample's
    a = 1 nodes, whose phases exp(-2 pi i b xi) the aliasing guard
    db (xi_max - xi_min) < 1 keeps apart: the gap is 1.6e-3 (fine), 3.3e-3
    (default) and 6.7e-3 (coarse), 3.8e9 to 6.1e10 times the margin times
    the floor, and every edge has |ph| = 1 to rounding.  Only the wavelet's
    count calls it; a finite group counts by its character.
    """
    K = U.shape[1]
    if K == 1:
        return CommutantCertificate(1, math.inf, 0.0, math.inf)
    diagonal = (U.perm == np.arange(K)).all(axis=1)
    ph = U.phase[diagonal]
    rows, cols = np.triu_indices(K, 1)
    gap = float(np.abs(ph[:, rows] - ph[:, cols]).max(axis=0, initial=0.0).min())
    rel_gap = gap / float(np.abs(U.phase).max())
    noise_floor = K * float(np.finfo(float).eps)
    if rel_gap < CERTIFICATE_MARGIN * noise_floor:
        raise ActionError(
            f"the diagonal members do not separate the indices at dim {K * K}: relative gap "
            f"{rel_gap:.3e} against {CERTIFICATE_MARGIN:g} times the floor {noise_floor:.3e}"
        )
    kept = kept[~diagonal]
    count = _union_find(K, zip(np.nonzero(kept)[1], U.perm[~diagonal][kept]))
    coupling = float(np.abs(U.phase[~diagonal][kept]).min(initial=math.inf))
    return CommutantCertificate(count, rel_gap, noise_floor, coupling)


# ---------------------------------------------------------------------------
# actions


class ActionStructure(NamedTuple):
    """Structural residuals of an action, worked out from its generators.

    Each bounds what a randomized probe of its law can see, up to the
    probe's own roundoff.  ``group_law`` bounds sup|a.(b.x) - (ab).x| / max|x|
    over the sampled pairs (``_law_bound``); ``automorphism``, ``isometry``
    and ``trace`` bound the defects of multiplicativity and unitality, of
    every trace p-norm, and of the trace on the matrix units, over the
    sampled elements (``_block_residuals``).  ``certificate`` names the
    structure the residuals come from.
    """

    certificate: str
    group_law: float
    automorphism: float
    isometry: float
    trace: float


def _block_residuals(src: np.ndarray, U: MonomialStack, weights) -> tuple[float, float, float]:
    """(automorphism, isometry, trace) residuals of the sampled elements,
    from their source rows and (m, t, n) monomial tables whose rows permute
    the columns.

    Block j of g.x is U x_k U* with k = src[g, j].  U* U is then diag(|ph|^2),
    so E = U* U - I is diag(|ph|^2 - 1) and the row gain r(U), the largest
    row sum of moduli, is max|ph|.  With eta = max ||E||_F, which bounds
    U U* - I and E in norm:
    g.(xy) - g.x g.y = U x_k (-E) y_k U* is at most r(U)^2 sum|E| max|x| max|y|,
    the unitality defect at most eta, and adjoints are kept exactly;
    ||g.x||_p / ||x||_p lies within (1 +- rho)(1 +- eta) for
    rho = max |w/w[src] - 1|, as block j carries block src[g, j] to weight
    w_j; and
    |tr(g.e) - tr(e)| <= max |w[src] - w| + max(w) max|E| on the matrix
    units e.  On a permutation's atoms, U = 1 and E = 0: the trace is
    invariant exactly when the weights are invariant under the source rows.
    """
    w = np.asarray(weights, dtype=float)
    moved = float(np.abs(w[src] - w).max())
    rho = float(np.abs(w / w[src] - 1.0).max())
    E = np.abs((U.phase * U.phase.conj()).real - 1.0)
    eta = math.sqrt(float((E ** 2).sum(axis=-1).max()))
    automorphism = max(eta, float((np.abs(U.phase).max(axis=-1) ** 2 * E.sum(axis=-1)).max()))
    return automorphism, rho + (1.0 + rho) * eta, moved + w.max() * float(E.max())


class Action:
    """Map (group element, algebra element) -> algebra element.

    Subclasses implement ``apply``, the kernels ``bracket_values`` and
    ``orbit_sum``, and ``structure`` (an ``ActionStructure``).  ``haar``
    holds one weight per node, the group's own model unless the builder
    passes one, and every group integral reads it: ``bracket_integral`` and
    ``orbit_sum``.  All reductions run in fixed node order, so results are
    deterministic.
    """

    def __init__(self, group, shape: AlgebraShape, kind: str, sample_elements,
                 haar: HaarModel | None = None):
        self.kind, self.group, self.shape = kind, group, shape
        self.sample_elements = tuple(sample_elements)
        self.haar = group.haar() if haar is None else haar
        if haar is not None and haar.weights.shape != (group.node_count,):
            raise ActionError("need one Haar weight per group node")

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        raise NotImplementedError

    # -- bulk operations -----------------------------------------------------

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        """trace((g.y)* x) at every node, in node order; one row per trial
        when x or y is a stack."""
        raise NotImplementedError

    def bracket_integral(self, x: AlgebraElement, y: AlgebraElement) -> complex | np.ndarray:
        """Haar integral of the bracket values, one per trial of a stack."""
        return weighted_sum(self.bracket_values(x, y), self.haar.weights)

    def symmetry_values(self, x: AlgebraElement, y: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
        """<x|y>(g^{-1}) and <y|x>(g) over the nodes g; one row per trial of
        stacks.  On a finite group, the bracket values read at
        ``inverse_table``."""
        return self.bracket_values(x, y)[..., self.group.inverse_table], self.bracket_values(y, x)

    def orbit_sum(self, x: AlgebraElement) -> AlgebraElement:
        """The modular-weighted Haar orbit sum_g w_g Delta(g)^{-1} (g.x) over
        all nodes, w = ``haar.weights``: D^{-1} of a unit-trace x."""
        raise NotImplementedError

    # -- test elements and operator comparisons ------------------------------
    #
    # Exact models draw dense elements and compare operators entrywise.  A
    # quadrature model overrides these with the elements and the weaker
    # comparisons under which its errors converge.

    # appended to the semi-invariance notes to name the comparison
    comparison_note = ""
    # the ergodicity row's notes
    ergodicity_note = "generators"
    # the kernel D^{-1} is compared with, fitted by expected_kernel_fit(d_inverse)
    expected_kernel: str | None = None

    def random_element(self, rng: np.random.Generator) -> AlgebraElement:
        return random_element(self.shape, rng)

    def random_positive(self, rng: np.random.Generator) -> AlgebraElement:
        return random_positive_element(self.shape, rng)

    def random_trials(self, rng: np.random.Generator, kinds: tuple[str, ...],
                      trials: int) -> tuple[AlgebraElement, ...]:
        """One element per entry of ``kinds`` (a ``random_positive`` one where
        it is "positive", a ``random_element`` where it is "general") for each
        of ``trials`` trials, each entry's elements stacked over the trials.

        The stream is consumed as by those draws one at a time, trial by
        trial: one Gaussian draw of every element, each positive one then
        ``floored_gram`` of its Gaussian.
        """
        k = len(kinds)
        z = random_element(self.shape, rng, trials * k).blocks
        drawn = (AlgebraElement(self.shape, z[j::k]) for j in range(k))
        return tuple(floored_gram(x) if kind == "positive" else x for x, kind in zip(drawn, kinds))

    def cross_check_distance(self, a: AlgebraElement, b: AlgebraElement) -> float:
        """Distance of two estimates of the same operator, relative to ``a``."""
        return sup_distance(a, b) / a.max_abs_entry()

    def semi_invariance_defect(self, est) -> float:
        """max over the sampled g of |g.D - Delta(g)^{-1} D| relative to |D|,
        entrywise, for the DufloEstimate ``est``."""
        d = est.d
        scale = d.max_abs_entry()
        worst = 0.0
        for g in self.sample_elements:
            moved = self.apply(g, d)
            diff = moved - (1.0 / self.group.modular(g)) * d
            worst = max(worst, diff.max_abs_entry() / scale)
        return worst

    def character(self) -> np.ndarray:
        """trace(x -> g.x) at every element of a finite group, in element
        order: ``fixed_point_dimension`` averages it."""
        raise NotImplementedError


class ConjugationAction(Action):
    """Block j of g.x is U[g, j] x[src[g, j]] U[g, j]*, on t blocks of size n.

    ``unitaries`` is one stack and ``src`` one (N, t) table, both indexed by
    the N group elements.  Every block must be monomial (the Weyl operators
    of ``wh:n`` and ``twisted-dual:n:m``, every one-dimensional
    representation, the standard one of S3, every action induced from
    these), and the stack is held as its (N, t, n) permutation and phase
    tables: a ``MonomialStack``, or a dense (N, t, n, n) stack read into one
    (``MonomialStack.from_dense``, which names the first column that is not
    monomial).  Conjugation by a (projective) representation is the case
    t = 1, a permutation of t atoms the case n = 1 with unit phases.  This
    is the one place a stack is validated: there must be one trace weight
    per block, the blocks must be unitary, the identity must act trivially,
    and over the sampled pairs (a, b) (all up to order 24, 576 beyond) the
    source rows must compose and every U[a, j] U[b, src[a, j]] must be a
    scalar multiple of U[ab, j] (``product_phases``; always so on 1x1
    blocks), whose residuals enter ``structure``.  The trace weights may
    move under the source rows: ``structure.trace`` records it.  ``kind``
    names the family, as a scenario file's ``[action] kind`` mirrors it.

    With U[g, j][pi(c), c] = ph(c), block j of g.x holds
    ph(c) x_src[c, d] conj(ph(d)) at (pi(c), pi(d)): ``apply`` is one
    scatter.  The (node, block) pairs fall into classes of one (block,
    source, pi) (``_classes``), so ``bracket_values`` takes per
    class one gather Z = conj(y_src) * x_j[pi, pi] and the quadratic forms
    ph^H Z ph of its pairs, and ``orbit_sum`` one phase gram
    sum_g w_g ph_g ph_g^H times x_src, added at [pi, pi].  On 1x1 blocks
    ph x conj(ph) = x to the unitality checked at build, and both kernels
    are a gather through the source rows, with no classes formed.
    """

    def __init__(self, group: FiniteGroup, unitaries, src, trace_weights, haar: HaarModel | None = None,
                 kind: str = "conjugation"):
        U = unitaries if isinstance(unitaries, MonomialStack) else MonomialStack.from_dense(unitaries)
        src = np.asarray(src, dtype=int)
        if len(U.shape) != 3 or U.shape[:2] != src.shape or U.shape[0] != group.order:
            raise ActionError("need a (t, n, n) unitary stack and a source row per group element")
        t, n = U.shape[1], U.shape[2]
        if np.shape(trace_weights) != (t,):
            raise MeasureError(f"need one trace weight per block: shape {np.shape(trace_weights)} for {t} blocks")
        if not _permutes(src, t):
            raise ActionError("each source row must permute the blocks")
        if not (src[group.identity] == np.arange(t)).all():
            raise ActionError("identity must act trivially")
        if (U.perm[group.identity] != np.arange(n)).any() or np.abs(U.phase[group.identity] - 1.0).max() > 1e-11:
            raise RepresentationError("the identity must be represented by I")
        # max|U U* - I|: max||phase|^2 - 1| when the rows permute the columns
        unitality = float(np.abs((U.phase * U.phase.conj()).real - 1.0).max()) if _permutes(U.perm, n) else math.inf
        if unitality > 1e-11:
            raise RepresentationError("block matrices are not unitary")
        pairs = _sample_pairs(group.order, limit=24)
        a, b = pairs.T
        if not (src[group.compose(a, b)] == src[b[:, None], src[a]]).all():
            raise ActionError("source rows do not compose with the group law")
        if n == 1:
            # block j of a.(b.x) - (ab).x is (|p|^2 - |q|^2) x[src] for p = U[a, j] U[b, src[a, j]] and
            # q = U[ab, j]: with eta = unitality, |p|^2 lies in [(1 - eta)^2, (1 + eta)^2], |q|^2 in
            # [1 - eta, 1 + eta]
            law = unitality * (3.0 + unitality)
        else:
            _, deviation, law = product_phases(U, src, group, pairs)
            if deviation > 1e-11:
                raise RepresentationError("U[a, j] U[b, src[a, j]] is not a scalar multiple of "
                                          "U[ab, j]: not a group action")
        shape = AlgebraShape(n, trace_weights)
        gens = group.generators or tuple(group.elements())
        super().__init__(group, shape, kind, gens, haar)
        self.unitaries = U
        self._src = src
        sampled = list(gens)
        automorphism, isometry, moved = _block_residuals(src[sampled], U[sampled], shape.trace_weights)
        self.structure = ActionStructure("unitary-stack", law, max(unitality, automorphism),
                                         isometry, moved)

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        g = int(g)
        U, xs = self.unitaries[g], x.blocks[self._src[g]]
        out = np.empty_like(xs)
        out[np.arange(len(xs))[:, None, None], U.perm[:, :, None], U.perm[:, None, :]] = (
            U.phase[:, :, None] * xs * U.phase.conj()[:, None, :])
        return AlgebraElement(self.shape, out, copy=False)

    def _class_phases(self, start: int, stop: int) -> np.ndarray:
        """The (stop - start, m, n) phases of the pairs of classes start to
        stop, gathered from the phase table through the class order."""
        perms, order = self._classes[:2]
        C, n = perms.shape
        m = len(order) // C
        return self.unitaries.phase.reshape(-1, n)[order[start * m:stop * m]].reshape(-1, m, n)

    @cached_property
    def _classes(self) -> tuple[np.ndarray, ...]:
        """(perms, order, blocks, sources) of the (node, block) pairs,
        grouped into classes of one (j, src[g, j], perm) on the first call
        of a kernel on blocks larger than 1x1.

        ``order`` lists the pairs (flat index g t + j) class by class, in node
        order within a class, m pairs a class; a class has the permutation
        ``perms``, the block j in ``blocks`` and src[g, j] in ``sources``.  The
        phases of its pairs stay in the table, read through ``order``
        (``_class_phases``).  The permutation part of a projective monomial
        representation is a homomorphism, so on a transitive action the
        classes are cosets of one size; when they differ in size, every pair
        is a class of its own.  They are sorted with ``lexsort``
        (``np.unique`` imports numpy.ma).
        """
        N, t, n = self.unitaries.shape
        pi, src = self.unitaries.perm.reshape(N * t, n), self._src.reshape(-1)
        keys = np.column_stack([np.tile(np.arange(t), N), src, pi])
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
        m = N * t // len(starts)
        if not (np.diff(starts, append=N * t) == m).all():
            starts, m = np.arange(N * t), 1
        first = order[starts]
        return pi[first], order, first % t, src[first]

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        xs, ys, stacked = _stacks(x, y)
        N, t = self._src.shape
        if self.shape.block_dim == 1:
            # conj(y[src]) . (w x) through the source rows; the gather as a
            # take keeps each trial's (N, t) operand contiguous, so that its
            # product stays the BLAS matrix-vector product of one trial, and
            # the trials are gathered in pieces below STACK_BYTES
            xv, yv = np.array(self.shape.trace_weights) * xs.reshape(-1, t), ys.reshape(-1, t)
            values = np.empty((len(xv), N), dtype=complex)
            step = stack_size(16 * N * t)
            for s in range(0, len(xv), step):
                moved = np.take(yv[s:s + step], self._src, axis=1)
                np.conjugate(moved, out=moved)
                values[s:s + step] = (moved @ xv[s:s + step, :, None])[..., 0]
            return values if stacked else values[0]
        out = np.empty((len(xs), N * t), dtype=complex)
        # Z = conj(y[src]) * x_j[pi, pi] once per class, then every pair of
        # the class as ph^H Z ph: one product with the conjugated phases and
        # one contraction, in pieces of classes and trials that keep each
        # temporary below STACK_BYTES
        perms, order, blocks, sources = self._classes
        C, n = perms.shape
        m = len(order) // C
        rows, cols = perms[:, :, None], perms[:, None, :]
        class_bytes = 16 * n * max(n, m)  # Z, the phases, or their product
        step = min(C, stack_size(class_bytes))
        per = stack_size(class_bytes * C) if step == C else 1
        for s in range(0, C, step):
            sl, pairs = slice(s, s + step), order[s * m:(s + step) * m]
            phases = self._class_phases(s, s + step)
            conj_phases = phases.conj()
            for b in range(0, len(xs), per):
                tb = slice(b, b + per)
                z = ys[tb, sources[sl]]
                np.conjugate(z, out=z)
                # not in place: numpy rounds an in-place product of a
                # one-element array differently
                z = z * xs[tb, blocks[sl, None, None], rows[sl], cols[sl]]
                quad = np.einsum("...kmc,kmc->...km", conj_phases @ z, phases)
                out[tb, pairs] = quad.reshape(len(quad), -1)
        values = out.reshape(len(xs), N, t) @ np.array(self.shape.trace_weights)
        return values if stacked else values[0]

    def orbit_sum(self, x: AlgebraElement) -> AlgebraElement:
        # a finite group is unimodular: the Haar weights alone.  Per class the
        # gram sum_g w_g ph_g ph_g^H, one (n, m) @ (m, n) product, times x_src
        # added at [pi, pi] of its block, in class order and in pieces of
        # classes below STACK_BYTES; on 1x1 blocks sum_g w_g x[src[g]]
        xs = x.blocks
        t, n = xs.shape[0], xs.shape[1]
        if n == 1:
            vals = np.asarray(self.haar.weights, dtype=complex) @ x.vec()[self._src]
            return AlgebraElement(self.shape, vals.reshape(-1, 1, 1), copy=False)
        acc = np.zeros_like(xs)
        perms, order, blocks, sources = self._classes
        C = len(perms)
        m = len(order) // C
        weights = self.haar.weights[order // t].reshape(C, m, 1)
        step = stack_size(16 * n * max(n, m))
        for s in range(0, C, step):
            sl = slice(s, s + step)
            phases = self._class_phases(s, s + step)
            gram = (weights[sl] * phases).swapaxes(1, 2) @ phases.conj()
            gram *= xs[sources[sl]]
            np.add.at(acc, (blocks[sl, None, None], perms[sl, :, None], perms[sl, None, :]), gram)
        return AlgebraElement(self.shape, acc, copy=False)

    def character(self) -> np.ndarray:
        """The sum of |tr U[g, j]|^2 over the blocks j that g keeps, src[g, j] = j:
        a monomial block's trace sums the phases on its fixed columns, here
        from the tables in pieces of elements below STACK_BYTES."""
        U, src = self.unitaries, self._src
        N, t, n = U.shape
        out = np.empty(N)
        step = stack_size(16 * t * n)
        for s in range(0, N, step):
            piece = U[s:s + step]
            tr = np.where(piece.perm == np.arange(n), piece.phase, 0.0).sum(axis=-1)
            out[s:s + step] = np.where(src[s:s + step] == np.arange(t), tr.real ** 2 + tr.imag ** 2, 0.0).sum(axis=-1)
        return out


def conjugation_action(G: FiniteGroup, U, haar: HaarModel | None = None) -> ConjugationAction:
    """g.x = U[g] x U[g]* on one full block, for a monomial (N, n, n) stack U,
    or a ``MonomialStack`` of shape (N, n), indexed by the elements of G;
    counting Haar weights by default."""
    U = U if isinstance(U, MonomialStack) else np.asarray(U)
    return ConjugationAction(G, U[:, None], np.zeros((G.order, 1), dtype=int), (1.0,), haar)


class PermutationAction(ConjugationAction):
    """(g.x)(t) = x(g^{-1} t) on the diagonal algebra of a finite point set,
    with the point measure ``mu`` as trace weights: the conjugation of 1x1
    blocks by unit phases with the source rows src[g] = point_table[g^{-1}].
    A measure that the points move raises MeasureError.  ``apply`` is the
    gather itself."""

    def __init__(self, group: FiniteGroup, point_table, mu, kind: str = "permutation"):
        point_table = np.asarray(point_table, dtype=int)
        if point_table.ndim != 2 or len(point_table) != group.order:
            raise ActionError(f"need one row of points per group element: point table of shape "
                              f"{point_table.shape} on {group.order} elements")
        units = point_table.shape + (1,)
        super().__init__(group, MonomialStack(np.zeros(units, dtype=int), np.ones(units)),
                         point_table[group.inverse_table], mu, kind=kind)
        if self.structure.trace != 0.0:
            raise MeasureError("point measure is not invariant under the action")

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.shape, x.blocks[self._src[int(g)]], copy=False)


def left_translation_action(G: FiniteGroup) -> PermutationAction:
    """G acting on itself by left translation, with counting measure."""
    return PermutationAction(G, G.table, np.ones(G.order))


def coset_action(G: FiniteGroup, h_indices) -> PermutationAction:
    """G acting on the coset space G/H with counting measure on the coset atoms."""
    reps, coset_of = coset_lookup(G, h_indices)
    return PermutationAction(G, coset_of[G.compose(np.arange(G.order)[:, None], reps)], np.ones(len(reps)))


def dual_action(G: FiniteGroup, m: int = 0) -> ConjugationAction:
    """Dual action on the (possibly twisted) group algebra of an abelian group.

    Both branches act by ``groups.dual(G)``, which is built from G itself.
    m = 0 works for any abelian group built from cyclic factors: the
    untwisted group algebra is stored in its character coordinates, one atom
    per character with trace weight 1/N, so that the trace of an element is
    its symbol at the identity.  omega moves the atom chi to chi omega^{-1},
    so (omega.x)(chi) = x(chi omega): a permutation action.  A nonzero twist
    needs G = cyclic(n) x cyclic(n) with gcd(m, n) = 1.  The twisted algebra
    is then one full n x n block with trace weight 1/n, spanned by the
    translates Lambda(a, b) = pi(a, m b) of the translation-modulation family
    pi.  The character (s, t) multiplies Lambda(a, b) by
    exp(2 pi i (s a + t b) / n), which is conjugation by pi(-t/m, s).
    """
    if m == 0:
        D = dual(G)
        point_table = D.compose(np.arange(D.order), D.inverse_table[:, None])
        return PermutationAction(D, point_table, np.full(G.order, 1.0 / G.order), "dual-translation")
    if G.structure is None or len(G.structure) != 2 or G.structure[0] != G.structure[1]:
        raise ActionError("twisted dual action needs cyclic(n) x cyclic(n)")
    n = G.structure[0]
    if math.gcd(m, n) != 1:
        raise ActionError(f"twist parameter m={m} must be coprime to n={n}")
    s, t = np.divmod(np.arange(n * n), n)
    psi = (-t * pow(m, -1, n)) % n * n + s
    U = finite_weyl_heisenberg(n)[psi][:, None]
    return ConjugationAction(dual(G), U, np.zeros((n * n, 1), dtype=int), (1.0 / n,), kind="twisted-dual")


def induced_action(G: FiniteGroup, h_indices, inner: Action, iso) -> ConjugationAction:
    """Action of G induced from an action of a subgroup H on a smaller algebra.

    Elements hold one copy of the inner algebra per left coset of H, in the
    order of fixed representatives r_a with the identity first, so block k of
    copy a is block a t + k.  Copy j of g.x is the inner translate by h^{-1}
    of copy a of x, where g^{-1} r_j = r_a h.  The result is the inner family
    on the larger algebra: a conjugation of J t blocks (a permutation of
    J t atoms when the inner blocks are 1x1 with unit phases).
    """
    reps, coset_of = coset_lookup(G, h_indices)
    sub = distinct_indices(h_indices)
    iso = np.asarray(iso, dtype=int)
    if iso.shape != sub.shape:
        raise ActionError("iso must map each subgroup element to an inner group element")
    if not isinstance(inner, ConjugationAction) or inner.group.order != sub.size:
        raise ActionError("inner action must be a conjugation on a group of the subgroup's order")
    pos = np.empty(G.order, dtype=int)
    pos[sub] = np.arange(sub.size)
    if not (inner.group.compose(iso[:, None], iso) == iso[pos[G.compose(sub[:, None], sub)]]).all():
        raise ActionError("iso is not a group isomorphism onto the inner group")
    J = len(reps)
    # per (g, coset j): w = g^{-1} r_j = r_a h gives the target coset a and
    # the inner element iso(h)^{-1}
    w = G.compose(G.inverse_table[:, None], reps)
    target = coset_of[w]
    h = G.compose(G.inverse_table[reps[target]], w)
    inner_elt = inner.group.inverse_table[iso[pos[h]]]
    t = len(inner.shape.trace_weights)
    src = (target[:, :, None] * t + inner._src[inner_elt]).reshape(G.order, J * t)
    U = inner.unitaries[inner_elt]
    return ConjugationAction(G, U.reshape(G.order, J * t, -1), src, inner.shape.trace_weights * J,
                             kind="induced")


# ---------------------------------------------------------------------------
# wavelet action on a log-frequency grid


class WaveletDesign(NamedTuple):
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
    supported probe states z = v v*, whose vectors v are the rows of
    ``probes``; ``pairings`` gives every trace(a z) as a quadratic form v* a v.

    The integrals use two exact identities.  Their weights are constant in
    b (da db / a^2 for ``bracket_integral``, da db / a for ``orbit_sum``),
    so summing over b first turns the phases into the gram ``b_kernel``, a
    real Dirichlet kernel in xi_k - xi_l in closed form.  The dilation sum
    that remains, sum_j s_j roll(m, (j, j)), keeps each cyclic diagonal of m:
    the main one is a circulant matvec over the n_a shifts, and the band one
    real GEMM over the rows with off-diagonal nonzeros and the diagonals they
    hold (``_band``, ``_band_sum``); the other diagonals stay exact zeros.

    ``bracket_values`` works on the nonzero rows r and columns c of x only,
    where conj(g.y) * x can be nonzero, as a bilinear form: with
    A_j = conj(y[r + j, c + j]) * x[r, c] and
    W_b[k, l] = exp(-2 pi i b (xi_{c_l} - xi_{r_k})), the value at (a_j, b)
    is sum_{k,l} A_j[k, l] W_b[k, l], one contraction over |r||c| for every
    dilation at once.  The b nodes are symmetric about 0 bit for bit, so
    W_{-b} = conj(W_b): for b >= 0 only, T_R = Re(W_b) . A and
    T_I = Im(W_b) . A are real GEMMs on the (|r||c|, 2 n_a) float view of
    all the A_j, and the values at +b and -b are T_R + i T_I and
    T_R - i T_I.  A is gathered in pieces of rows of r, and W and T are
    taken in chunks of b, each below STACK_BYTES.
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
        shape = AlgebraShape(K, (1.0,))
        self.n_a = 2 * h + 1
        self.n_b = design.n_b
        self.shifts = np.arange(-h, h + 1)
        self.b_nodes = group.b_nodes
        if not np.array_equal(self.b_nodes[::-1], -self.b_nodes):
            raise GridError("b nodes must be symmetric about 0 bit for bit: "
                            "bracket_values pairs each b with -b")
        self.db = float(2.0 * design.b_extent / design.n_b)
        if self.db * (self.xi[-1] - self.xi[0]) >= 1.0:
            raise GridError("shift spacing times frequency range must stay below 1, "
                            "else the b-grid aliases")
        # the Haar-summed gram of the phases, db sum_j exp(-2 pi i b_j (xi_k - xi_l)):
        # over the midpoints of [-b_extent, b_extent], symmetric about 0, it is
        # the real Dirichlet kernel db sin(pi n_b db delta) / sin(pi db delta)
        delta = self.xi[:, None] - self.xi
        off = delta != 0
        kernel = np.full((K, K), design.n_b * self.db)
        kernel[off] = (self.db * np.sin(np.pi * design.n_b * self.db * delta[off])
                       / np.sin(np.pi * self.db * delta[off]))
        self.b_kernel = kernel
        self.center = (K - 1) // 2
        centers, nus = np.repeat([-0.5, -0.25, 0.0, 0.25, 0.5], 2), np.tile([0.0, 0.7], 5)
        self.probes = self.bumps(centers, np.full(10, 0.18), nus)[0]
        # sample nodes near the identity: one-step dilations and one-cell shifts
        i_c, j_c = h, design.n_b // 2
        sample_idx = (
            (i_c + 1) * design.n_b + j_c,
            (i_c - 1) * design.n_b + j_c + 1,
            i_c * design.n_b + j_c + 1,
            (i_c + 2) * design.n_b + j_c,
            i_c * design.n_b + j_c,
        )
        super().__init__(group, shape, "wavelet", group.nodes_at(np.array(sample_idx)))
        # the Haar weights da db / a^2 with the b sum taken into ``b_kernel``:
        # log_ratio / a for the dilation by j, stored at the cyclic shift j % K
        self._dilation_weights = np.zeros(K)
        self._dilation_weights[self.shifts % K] = self.log_ratio / np.exp(self.shifts * self.log_ratio)
        # the orbit weights da db / a, constant in b, with the b sum taken into
        # ``b_kernel``: the weight of the dilation by j, stored at the shift -j % K
        self._orbit_weights = np.zeros(K)
        self._orbit_weights[-self.shifts % K] = (
            group.a_weights / group.modular(group.nodes_at(np.arange(self.n_a) * self.n_b)) / self.db)

    # -- grid plumbing ---------------------------------------------------

    @property
    def grid_size(self) -> int:
        return self.xi.shape[0]

    @cached_property
    def phases(self) -> np.ndarray:
        """Phase table p[j, k] = exp(-2 pi i b xi_k) over the nodes b >= 0,
        b = b_{n_b // 2 + j}, the only ones ``bracket_values`` reads; built
        on its first call."""
        return np.exp(-2j * np.pi * np.outer(self.b_nodes[self.n_b // 2:], self.xi))

    def shift_of(self, a: float) -> int:
        j = round(math.log(a) / self.log_ratio)
        if abs(a - math.exp(j * self.log_ratio)) > 1e-9 * a:
            raise GridError(f"dilation {a:g} is not a grid step")
        return int(j)

    def _sampled_shifts(self) -> np.ndarray:
        """The grid shift j(a) of each sampled node (a, b)."""
        return np.array([self.shift_of(g[0]) for g in self.sample_elements])

    def sampled_structure(self) -> tuple[np.ndarray, MonomialStack]:
        """The source rows and the (m, 1, K) tables of the sampled nodes: node
        (a, b) moves column c to row (c - j(a)) % K with that row's
        modulation phase exp(-2 pi i b xi)."""
        nodes = np.array(self.sample_elements)
        perm = (np.arange(self.grid_size) - self._sampled_shifts()[:, None]) % self.grid_size
        phase = np.exp(-2j * np.pi * nodes[:, 1, None] * self.xi[perm])
        return np.zeros((len(nodes), 1), dtype=int), MonomialStack(perm[:, None], phase[:, None])

    def sampled_on_grid(self) -> np.ndarray:
        """The (m, K) mask of the columns c whose row c - j(a) stays on the
        grid, 0 <= c - j < K: the rows ``structure`` keeps, where the tables
        of ``sampled_structure`` do not wrap around."""
        moved = np.arange(self.grid_size) - self._sampled_shifts()[:, None]
        return (moved >= 0) & (moved < self.grid_size)

    def apply(self, g, x: AlgebraElement) -> AlgebraElement:
        a, b = float(g[0]), float(g[1])
        j = self.shift_of(a)
        phase = np.exp(-2j * np.pi * b * self.xi)
        rolled = np.roll(x.blocks[0], shift=(-j, -j), axis=(0, 1))
        return AlgebraElement(self.shape, (rolled * np.outer(phase, phase.conj()))[None], copy=False)

    # -- structured bulk paths --------------------------------------------

    def _circulant_matvec(self, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum_j s[j % K] roll(v, j) over the n_a shifts j: one convolution of
        v wrapped by max_shift at either end."""
        h = self.design.max_shift
        return np.convolve(np.concatenate([v[-h:], v, v[:h]]), s[self.shifts % self.grid_size], "valid")

    def _band(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of m that hold off-diagonal nonzeros, and the cyclic
        diagonals e != 0 (entries (k, (k + e) % K)) they hold: row k of the
        diagonal form is the window at k of the doubled row k."""
        K = self.grid_size
        nz = m != 0
        nz.flat[::K + 1] = False
        rows = np.flatnonzero(nz.any(axis=1))
        held = sliding_window_view(np.tile(nz[rows], 2), K, axis=1)[np.arange(rows.size), rows]
        return rows, np.flatnonzero(held.any(axis=0))

    def _band_sum(self, s: np.ndarray, out: np.ndarray, rows: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Rows ``out`` of the diagonal form of sum_j s[j % K] roll(., (j, j))
        of a band held as m on ``rows``: circulant(s)[out, rows] @ m, one real
        GEMM, as a real circulant acts on real and imaginary parts alike."""
        return (s[(out[:, None] - rows) % self.grid_size] @ m.view(float)).view(complex)

    def bracket_values(self, x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
        return _trialwise(self._bracket_values, x, y)

    def _bracket_values(self, xb: np.ndarray, yb: np.ndarray) -> np.ndarray:
        # conj(g.y) * x vanishes off the nonzero rows r and columns c of x
        r = np.flatnonzero(np.any(xb != 0, axis=1))
        c = np.flatnonzero(np.any(xb != 0, axis=0))
        n_a, n_b, K = self.n_a, self.n_b, self.grid_size
        if r.size == 0:
            return np.zeros(n_a * n_b, dtype=complex)
        # node n_b - 1 - m carries -b_m.  Row h + p of acc takes T_R of node
        # h + p, row p of the phase table (b >= 0, and b = 0 at p = 0 when
        # n_b is odd); row h - 1 - q takes T_I of node h + odd + q (b > 0),
        # the row of its -b
        h = n_b // 2
        odd = n_b - 2 * h
        P = self.phases
        acc = np.zeros((n_b, 2 * n_a))
        TR, TI = acc[h:], acc[h - 1::-1]
        rows = (r[:, None] + self.shifts) % K * K
        cols = (c[:, None] + self.shifts) % K
        # pieces of rows of r for A, chunks of b for W and T: each below
        # STACK_BYTES, and each freed before the next is formed
        per_piece = stack_size(16 * n_a * c.size)
        per_chunk = min(stack_size(16 * min(per_piece, r.size) * c.size), stack_size(16 * n_a))
        for s in range(0, r.size, per_piece):
            rp = r[s:s + per_piece]
            # A[k, l, j] = conj(y[r_k + j, c_l + j]) x[r_k, c_l] for every
            # dilation j, as its (k l, 2 n_a) real view
            A = yb.reshape(-1)[rows[s:s + per_piece, None, :] + cols]
            np.conjugate(A, out=A)
            A *= xb[np.ix_(rp, c)][:, :, None]
            A = A.reshape(-1, n_a).view(float)
            for t in range(0, P.shape[0], per_chunk):
                Pt = P[t:t + per_chunk]
                L = Pt.shape[0]
                # W[b, k l] = exp(-2 pi i b (xi_{c_l} - xi_{r_k}))
                W = (Pt[:, rp].conj()[:, :, None] * Pt[:, None, c]).reshape(L, -1)
                TR[t:t + L] += np.ascontiguousarray(W.real) @ A
                lo = max(t, odd)  # b = 0 has no T_I
                TI[lo - odd:t + L - odd] += np.ascontiguousarray(W.imag[lo - t:]) @ A
                del W
            del A
        # in place: T_R + i T_I on the rows of +b, T_R - i T_I on those of -b
        TR, TI = TR[odd:].view(complex), TI.view(complex)
        iTI = 1j * TI
        np.subtract(TR, iTI, out=TI)
        np.add(TR, iTI, out=TR)
        return acc.view(complex).T.reshape(-1)

    def symmetry_values(self, x: AlgebraElement, y: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
        """Both sides at the sampled nodes g, through ``apply``, which takes
        any parameters: the inverse (1/a, -b/a) of a node leaves the b axis
        when a != 1, so the bracket values hold no <x|y>(g^{-1})."""
        xs, ys, stacked = _stacks(x, y)
        vxy, vyx = np.empty((2, len(xs), len(self.sample_elements)), dtype=complex)
        for i, (xb, yb) in enumerate(zip(xs, ys)):
            xt, yt = AlgebraElement(self.shape, xb, copy=False), AlgebraElement(self.shape, yb, copy=False)
            for k, g in enumerate(self.sample_elements):
                vxy[i, k] = trace_pairing(self.apply(self.group.inverse(g), yt).adjoint(), xt)
                vyx[i, k] = trace_pairing(self.apply(g, xt).adjoint(), yt)
        return (vxy, vyx) if stacked else (vxy[0], vyx[0])

    def bracket_integral(self, x: AlgebraElement, y: AlgebraElement) -> complex | np.ndarray:
        return _trialwise(self._bracket_integral, x, y)

    def _bracket_integral(self, xb: np.ndarray, yb: np.ndarray) -> complex:
        # sum_j w_j sum_{p,q} conj(y[p, q]) m[p - j, q - j], m = b_kernel * x, on
        # the main diagonal and the band diagonals of both, at the rows of y
        K, w = self.grid_size, self._dilation_weights
        diagonal = self._circulant_matvec(w, self.b_kernel.diagonal() * xb.diagonal())
        value = np.sum(yb.diagonal().conj() * diagonal)
        (rx, ex), (ry, ey) = self._band(xb), self._band(yb)
        e = np.intersect1d(ex, ey, assume_unique=True)
        if e.size:
            cx = (rx[:, None] + e) % K
            acc = self._band_sum(w, ry, rx, self.b_kernel[rx[:, None], cx] * xb[rx[:, None], cx])
            value += np.sum(yb[ry[:, None], (ry[:, None] + e) % K].conj() * acc)
        return complex(value)

    def orbit_sum(self, x: AlgebraElement) -> AlgebraElement:
        # the dilation sum on the main diagonal and on the band, at the rows
        # it reaches (the weights are positive), then the phase gram of the b sum
        K, s, xb = self.grid_size, self._orbit_weights, x.blocks[0]
        acc = np.zeros((K, K), dtype=complex)
        acc.flat[::K + 1] = self._circulant_matvec(s, xb.diagonal())
        rows, e = self._band(xb)
        if e.size:
            out = np.flatnonzero(self._circulant_matvec(s, np.isin(np.arange(K), rows)))
            band = self._band_sum(s, out, rows, xb[rows[:, None], (rows[:, None] + e) % K])
            acc[out[:, None], (out[:, None] + e) % K] = band
        acc *= self.b_kernel
        return AlgebraElement(self.shape, acc[None], copy=False)

    @cached_property
    def structure(self) -> ActionStructure:
        """Residuals of the sampled nodes, computed on first request.

        Node (a, b) sends row r to column r + j(a) with the phase
        p[r] = exp(-2 pi i b xi_r), so the product of the nodes g and h has
        the phase p_g[r] p_h[r + j(g)] on row r: the phase of gh wherever
        r + j(g) stays on the grid, where xi_{r + j(g)} = a_g xi_r.  The rows
        that wrap around, where the truncated grid breaks the law, are left
        out; the centrally supported test elements never reach them.
        """
        nodes = np.array(self.sample_elements)
        K = self.grid_size
        rows = np.arange(K)
        phases = np.exp(-2j * np.pi * np.outer(nodes[:, 1], self.xi))
        g, h = np.divmod(np.arange(len(nodes) ** 2), len(nodes))
        j = self._sampled_shifts()[g, None]
        inside = (rows + j >= 0) & (rows + j < K)
        P = np.where(inside, phases[g] * phases[h[:, None], (rows + j) % K], 0.0)
        b = self.group.compose(nodes[g], nodes[h])[:, 1]
        Q = np.where(inside, np.exp(-2j * np.pi * np.outer(b, self.xi)), 0.0)
        # a row of a shift-and-phase matrix holds one entry: its row gain is that modulus
        gain = [np.abs(A).max(axis=1) for A in (P - Q, P, Q)]
        law = _law_bound(*gain, np.ones(len(g)))
        return ActionStructure("node-phases", law, *_block_residuals(*self.sampled_structure(), (1.0,)))

    # -- smooth windowed test elements ---------------------------------------
    #
    # Elements are built from bump vectors with parameters given in octaves,
    # so the same random draw denotes the same continuum object at every grid
    # refinement and quadrature errors converge under refinement.

    @cached_property
    def octave_grid(self) -> np.ndarray:
        """The grid points in octaves from the center, (k - center) / steps_per_octave."""
        return (np.arange(self.grid_size) - self.center) / self.design.steps_per_octave

    def bumps(self, centers, widths, modulations) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian log-frequency bumps with a slow modulation, hard-cut at the
        declared support radius: one row per (center, width, modulation) in
        octaves, evaluated at once, and the index range [lo, hi) of each
        row's support (contiguous, as the grid increases)."""
        t = self.octave_grid
        d = t - np.asarray(centers, dtype=float)[:, None]
        inside = np.abs(d) <= self.design.support_octaves
        v = np.exp(-0.5 * (d / np.asarray(widths, dtype=float)[:, None]) ** 2, out=np.zeros(d.shape), where=inside)
        v = v * np.exp(2j * np.pi * np.asarray(modulations, dtype=float)[:, None] * t,
                       out=np.zeros(d.shape, dtype=complex), where=inside)
        lo = inside.argmax(axis=1)
        return v, np.stack([lo, lo + inside.sum(axis=1)], axis=1)

    def random_positive(self, rng: np.random.Generator) -> AlgebraElement:
        """Positive element: a few random smooth bumps plus a small spectral floor."""
        r = self.design.support_octaves
        # each row a bump's center, width and modulation, drawn in that order
        params = rng.uniform([-r / 3.0, 0.12, -1.0], [r / 3.0, 0.25, 1.0], size=(3, 3))
        V, _ = self.bumps(*params.T)
        # the sum of the three v v* as one rank-3 product
        mat = V.T @ V.conj()
        diagonal = mat.reshape(-1)[::self.grid_size + 1]
        diagonal += 1e-7 * float(np.abs(diagonal).max())
        return AlgebraElement(self.shape, mat[None], copy=False)

    def random_trials(self, rng: np.random.Generator, kinds: tuple[str, ...],
                      trials: int) -> tuple[AlgebraElement, ...]:
        """As Action.random_trials, one bump draw at a time."""
        drawn = [[(self.random_positive if kind == "positive" else self.random_element)(rng) for kind in kinds]
                 for _ in range(trials)]
        return tuple(stack(column) for column in zip(*drawn))

    def random_element(self, rng: np.random.Generator) -> AlgebraElement:
        """General (non-hermitian) element spanned by smooth windowed bumps."""
        r = self.design.support_octaves
        K = self.grid_size
        params, coeffs = [], []
        for _ in range(3):
            # the centers, widths and modulations of u and w, one row each, then the coefficient
            params.append(rng.uniform([[-r / 3.0], [0.12], [-1.0]], [[r / 3.0], [0.25], [1.0]], size=(3, 2)))
            coeffs.append(complex(*rng.standard_normal(2)))
        V, support = self.bumps(*np.concatenate(params, axis=1))
        mat = np.zeros((K, K), dtype=complex)
        # each rank-one term coeff u w* on the rows of u's support and the columns of w's
        for coeff, (u, w), ((u0, u1), (w0, w1)) in zip(coeffs, V.reshape(3, 2, K),
                                                       support.reshape(3, 2, 2)):
            mat[u0:u1, w0:w1] += coeff * np.outer(u[u0:u1], w[w0:w1].conj())
        return AlgebraElement(self.shape, mat[None], copy=False)

    def pairings(self, a: AlgebraElement) -> np.ndarray:
        """trace(a z) for every probe state z = v v*: the quadratic forms v* a v."""
        V = self.probes
        return np.sum((V.conj() @ a.blocks[0]) * V, axis=1)

    def weak_pairing_defect(self, a: AlgebraElement, b: AlgebraElement) -> float:
        """max over probes of |trace((a - b) z)| / |trace(a z)|."""
        ref = np.maximum(np.abs(self.pairings(a)), 1e-300)
        return float(np.max(np.abs(self.pairings(a - b)) / ref))

    # -- comparisons in the weak sense ---------------------------------------

    comparison_note = " (weak pairing against smooth probes)"
    ergodicity_note = "sampled generating set"
    expected_kernel = "inverse-frequency"

    def expected_kernel_fit(self, d_inverse: AlgebraElement) -> tuple[float, float]:
        """(c, residual): the least-squares multiple c of the inverse-frequency
        multiplier 1/xi in the probe pairings of ``d_inverse``, and the largest
        pairing residual relative to the largest pairing of c/xi."""
        pair_est = self.pairings(d_inverse).real
        pair_ref = self.pairings(AlgebraElement(self.shape, np.diag(1.0 / self.xi)[None])).real
        c = float(pair_est @ pair_ref / (pair_ref @ pair_ref))
        return c, float(np.abs(pair_est - c * pair_ref).max() / np.abs(c * pair_ref).max())

    def cross_check_distance(self, a: AlgebraElement, b: AlgebraElement) -> float:
        return self.weak_pairing_defect(a, b)

    def semi_invariance_defect(self, est) -> float:
        """The smeared estimate paired against the probes: the discretization
        under which the truncated shift integral converges.

        g = (a, b) maps D to P roll(D, -j) P* with P = diag(exp(-2 pi i b xi)),
        so the pairing of g.D with v is z* D z for the phase-rolled copy
        z = roll(P* v, j).  Every pairing of D and of each sampled g.D is such
        a quadratic form, and all of them take one solve against D^{-1}.
        """
        V = self.probes
        copies = [V]
        for g in self.sample_elements:
            phase = np.exp(-2j * np.pi * float(g[1]) * self.xi)
            copies.append(np.roll(V * phase.conj(), self.shift_of(float(g[0])), axis=1))
        Z = np.concatenate(copies).T
        forms = np.sum(Z.conj() * np.linalg.solve(est.d_inverse.blocks[0], Z), axis=0)
        refs, moved = forms[:len(V)], forms[len(V):].reshape(-1, len(V))
        worst = 0.0
        for g, pairs in zip(self.sample_elements, moved):
            target = refs / self.group.modular(g)
            defect = np.abs(pairs - target) / np.maximum(np.abs(target), 1e-300)
            worst = max(worst, float(defect.max()))
        return worst


# ---------------------------------------------------------------------------
# structural checkers


def fixed_point_dimension(action: Action) -> int:
    """Dimension of {x : g.x = x for every g}; 1 means ergodic.

    On a finite group of order N, Burnside's lemma: the mean P of the maps
    rho(g): x -> g.x projects onto the fixed points, whose dimension is
    tr P, the mean of ``action.character()``, rounded.  A conjugation is
    built with ||ph|^2 - 1| <= 1e-11 and U[a, j] U[b, src[a, j]] =
    c U[ab, j] + D, max|D| <= 1e-11, on every pair up to order 24 and 576
    drawn pairs beyond (the bound takes every pair).  P and Q then share
    every row, and ``_law_bound`` with r(D) <= 1e-11, r(P), r(Q) <=
    1 + 1.1e-11 and ||c|^2 - 1| <= 5.1e-11 gives eps = sup|a.(b.x) - (ab).x|
    / max|x| < 1e-10; on 1x1 blocks, where D = 0, the build's law bound
    eta (3 + eta) <= 3.1e-11 gives the same.  So P^2 - P, the mean of
    rho(a) rho(b) - rho(ab) over all pairs, has norm below eps, each
    eigenvalue l of P has |l^2 - l| < eps, within 2 eps of 0 or 1, and tr P
    lies within 2 d eps of an integer, d = t n^2.  The sums round by at most
    (2 n + t + log2 N + 4) eps_mach d (|tr U|^2 <= n^2 by (2 n + 2) eps_mach,
    then t blocks and N elements).  A mean farther than both from an
    integer is no group action: ActionError.

    On a quadrature group, the commutant of the sampled unitaries of its one
    block, counted exactly from their tables on the entries that stay on the
    grid (``commutant_certificate``, which states its one threshold): no
    eigendecomposition.
    """
    if action.group.kind == "quadrature":
        return commutant_certificate(action.sampled_structure()[1][:, 0], action.sampled_on_grid()).dimension
    chi = action.character()
    mean = float(np.mean(chi))
    count = round(mean)
    t, n, _ = action.shape.blocks_shape
    bound = action.shape.total_dim * (2e-10 + (2 * n + t + math.log2(len(chi)) + 4) * np.finfo(float).eps)
    if abs(mean - count) > bound:
        raise ActionError(f"the character averages {mean!r}, {abs(mean - count):.3e} from an "
                          f"integer against the bound {bound:.3e}: not a group action")
    return count


def is_trace_preserving(action: Action, *, tol: float) -> CheckReport:
    """Report whether the trace is invariant under the sampled action
    elements, from the trace residual of ``action.structure``, to ``tol``."""
    defect = action.structure.trace
    return CheckReport.bound(
        "trace-preservation",
        "trace(g.x) equals trace(x) over sampled g and a basis of x",
        defect, 0.0, tol_rel=0.0, tol_abs=tol,
        notes=f"defect={defect:.3e} certificate={action.structure.certificate}",
    )


def homomorphism_defect(action: Action) -> float:
    """Group-law residual of ``action.structure``."""
    return action.structure.group_law


def automorphism_defect(action: Action) -> float:
    """*-automorphism residual of ``action.structure``."""
    return action.structure.automorphism


def isometry_defect(action: Action) -> float:
    """p-norm isometry residual of ``action.structure``."""
    return action.structure.isometry
