"""Shared helpers for the tests: node walks, the character-table oracle, dual
symbols, per-element loop oracles, the per-trial oracles of the stacked
suite and the randomized probes of the structural laws."""

import itertools
import math
import weakref
from functools import partial

import numpy as np

import qha.duflo
from qha.actions import (
    ActionError,
    ConjugationAction,
    PermutationAction,
    WaveletAction,
    _law_bound,
    _sample_pairs,
    finite_weyl_heisenberg,
)
from qha.algebra import (
    AlgebraElement,
    AlgebraShape,
    NotPositiveError,
    ParameterError,
    _singular_values,
    p_norm,
    random_element,
    sup_distance,
    trace,
)
from qha.bracket import InverseClosureError, _inverse_node_index
from qha.duflo import CLAIMS, admissibility_tol
from qha.groups import GroupError, QuadratureGroup, cyclic, product
from qha.reports import CheckReport
from qha.scenarios import _cyclic_subgroup_indices


# The rows of every suite, in order, as the benchmark's workloads expect them.
FINITE_ROWS = (
    "action-validity", "trace-preservation", "ergodicity", "integrability-witness",
    "duflo-estimate", "duflo-scalar-form", "duflo-expected-scalar", "bracket-symmetry",
    "orthogonality-positive", "orthogonality-general", "semi-invariance",
    "admissibility-identities", "l1-inequality", "l1-equality", "young-inequality",
    "interpolation-bound", "holder-inequality", "alt-inequality",
)
WAVELET_ROWS = (
    "action-validity", "trace-preservation", "ergodicity", "integrability-witness",
    "duflo-estimate", "duflo-expected-kernel", "bracket-symmetry",
    "orthogonality-positive", "orthogonality-general", "semi-invariance",
    "admissibility-identities", "l1-inequality", "l1-equality", "young-inequality",
    "interpolation-bound", "holder-inequality", "alt-inequality",
)


def nodes_of(action):
    """Every node of the action's group, in node order."""
    group = action.group
    if isinstance(group, QuadratureGroup):
        return list(group.nodes)
    return list(group.elements())


def weyl_heisenberg(n):
    """The group cyclic(n) x cyclic(n) and its dense (n^2, n, n) Weyl-Heisenberg stack."""
    return product(cyclic(n), cyclic(n)), finite_weyl_heisenberg(n).dense()


# ---------------------------------------------------------------------------
# The character table of an abelian group built from cyclic factors: the
# oracle for ``groups.dual``, which indexes characters by G's elements and
# forms no table, and for the symbols of the untwisted dual action.


class CharacterTable:
    """Characters of a finite abelian group, one row per character."""

    def __init__(self, group, table):
        table = np.asarray(table, dtype=complex)
        n = group.order
        if table.shape != (n, n):
            raise GroupError("character table must be square of group order")
        if np.abs(np.abs(table) - 1.0).max() > 1e-12:
            raise GroupError("characters must take unit-modulus values")
        gram = table @ table.conj().T / n
        if np.abs(gram - np.eye(n)).max() > 1e-12 * n:
            raise GroupError("characters are not orthogonal")
        self.group = group
        self.table = table


def is_abelian(G):
    """Whether G commutes: always for a group of cyclic factors, else by its table."""
    return G.structure is not None or bool((G.table == G.table.T).all())


def tuple_of_index(G, g):
    """The cyclic coordinates of g, read off ``G.coords``."""
    if G.structure is None:
        raise GroupError("group has no cyclic coordinate structure")
    return tuple(G.coords[g].tolist())


def dual_group(G):
    """Character table with row s the character g -> exp(2 pi i sum_k s_k g_k / m_k)."""
    if not is_abelian(G):
        raise GroupError("dual_group requires an abelian group")
    if G.structure is None:
        raise GroupError("dual_group requires a group built from cyclic factors")
    # phase(s, g) = sum_k s_k g_k / m_k, accumulated factor by factor
    c = G.coords
    phase = sum(c[:, None, k] * c[None, :, k] / m for k, m in enumerate(G.structure))
    return CharacterTable(G, np.exp(2j * np.pi * phase))


# ---------------------------------------------------------------------------
# Symbols on the algebra of the untwisted dual action ``dual_action(G, 0)``:
# one atom per character with trace weight 1/N, the group algebra of G in its
# character coordinates.


def from_symbol(G, f):
    """Element with symbol f: sum of f(g) lambda(g).  Row chi of the character
    table is chi(.), so the atom at chi holds sum_g f(g) chi(g)."""
    n = G.order
    vals = dual_group(G).table @ np.asarray(f, dtype=complex)
    return AlgebraElement(AlgebraShape(1, np.full(n, 1.0 / n)), vals.reshape(-1, 1, 1))


def symbol(G, x):
    """Recover f(g) = trace(lambda(g)* x); exact on this algebra."""
    return dual_group(G).table.conj().T @ x.vec() / G.order


# ---------------------------------------------------------------------------
# Per-element loop definitions of the group, character, representation and
# induction constructors.  The package builds each of these as one array
# program; the tests assert that both give the same arrays, bit for bit.


def divisor_tuples(G):
    """Every tuple of factor sizes of a product-of-cyclics subgroup of G."""
    return itertools.product(*[[m for m in range(1, n + 1) if n % m == 0] for n in G.structure])


def cyclic_subgroups(G):
    """Index lists of every product-of-cyclics subgroup of G."""
    return [_cyclic_subgroup_indices(G, sub) for sub in divisor_tuples(G)]


def loop_tuple_of_index(G, g):
    """Cyclic coordinates of g, most significant factor first."""
    coords = []
    for m in reversed(G.structure):
        coords.append(g % m)
        g //= m
    return tuple(reversed(coords))


def loop_product_table(G, H):
    """Cayley table of G x H with index (g, h) -> g |H| + h, row by row."""
    ng, nh = G.order, H.order
    table = np.empty((ng * nh, ng * nh), dtype=int)
    for a in range(ng):
        for x in range(nh):
            row = G.table[a][:, None] * nh + H.table[x][None, :]
            table[a * nh + x] = row.reshape(-1)
    return table


def loop_symmetric_table(n):
    """Cayley table of the permutations of range(n) in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    table = np.empty((len(perms), len(perms)), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = pos[tuple(p[q[k]] for k in range(n))]
    return table


def loop_character_table(G):
    """chi_s(g) = exp(2 pi i sum_k s_k g_k / m_k), entry by entry."""
    n = G.order
    table = np.empty((n, n), dtype=complex)
    for s in range(n):
        sc = loop_tuple_of_index(G, s)
        for g in range(n):
            gc = loop_tuple_of_index(G, g)
            phase = sum(a * b / m for a, b, m in zip(sc, gc, G.structure))
            table[s, g] = np.exp(2j * np.pi * phase)
    return table


def loop_weyl_heisenberg(n):
    """T_k M_l at index k n + l, as a product of a shift and a diagonal."""
    mats = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            T = np.zeros((n, n), dtype=complex)
            for s in range(n):
                T[(s + k) % n, s] = 1.0
            M = np.diag(np.exp(1j * (2 * np.pi * (l * np.arange(n) % n) / n)))
            mats[k * n + l] = T @ M
    return mats


def loop_cyclic_characters(n, j):
    """The 1 x 1 matrices exp(2 pi i j g / n) of chi_j on cyclic(n)."""
    return np.array([[[np.exp(2j * np.pi * j * g / n)]] for g in range(n)])


def loop_s3_matrices():
    """Sign and standard matrices of s3, permutation by permutation: the
    standard one in the basis v_k(i) = omega^(k i) / sqrt(3), k = 1, 2,
    omega = exp(2 pi i / 3), where the permutation matrix of p maps v_k to
    omega^r v_k' exactly when k i = r + k' p(i) (mod 3) for every i, found
    by trying every k' and r."""
    perms = list(itertools.permutations(range(3)))
    sign, std = [], []
    for p in perms:
        s = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    s = -s
        sign.append([[float(s)]])
        M = np.zeros((2, 2), dtype=complex)
        for k in (1, 2):
            for kp in (1, 2):
                for r in (-1, 0, 1):
                    if all((k * i - r - kp * p[i]) % 3 == 0 for i in range(3)):
                        M[kp - 1, k - 1] = np.exp(1j * (2 * np.pi * r / 3))
        std.append(M)
    return np.array(sign, dtype=complex), np.array(std)


def loop_cosets(G, h_indices):
    """Left coset representatives (first in the order e, 0, 1, ...) and the
    map element -> coset, by covering the cosets one at a time."""
    idx = tuple(dict.fromkeys(int(i) for i in h_indices))
    reps = []
    covered = np.zeros(G.order, dtype=bool)
    for g in [G.identity] + [g for g in G.elements() if g != G.identity]:
        if not covered[g]:
            reps.append(g)
            for h in idx:
                covered[G.compose(g, h)] = True
    coset_of = np.full(G.order, -1, dtype=int)
    for c, r in enumerate(reps):
        for h in idx:
            coset_of[G.compose(r, h)] = c
    return reps, coset_of


def loop_coset_table(G, h_indices):
    """Point table of G on G/H: g r_c lies in coset table[g, c]."""
    reps, coset_of = loop_cosets(G, h_indices)
    table = np.empty((G.order, len(reps)), dtype=int)
    for g in G.elements():
        for c, r in enumerate(reps):
            table[g, c] = coset_of[G.compose(g, r)]
    return table


def loop_induced_maps(G, h_indices, inner_group, iso):
    """(target, inner_elt) per (g, coset j): g^{-1} r_j = r_a h gives the
    target coset a and the inner element iso(h)^{-1}."""
    reps, coset_of = loop_cosets(G, h_indices)
    h_tuple = tuple(dict.fromkeys(int(i) for i in h_indices))
    pos = {g: i for i, g in enumerate(h_tuple)}
    target = np.empty((G.order, len(reps)), dtype=int)
    inner_elt = np.empty((G.order, len(reps)), dtype=int)
    for g in G.elements():
        ginv = G.inverse(g)
        for j, r in enumerate(reps):
            w = G.compose(ginv, r)
            a = coset_of[w]
            h = G.compose(G.inverse(reps[a]), w)
            target[g, j] = a
            inner_elt[g, j] = inner_group.inverse(int(iso[pos[h]]))
    return target, inner_elt


# ---------------------------------------------------------------------------
# Randomized probes of the structural laws, applied element by element: the
# oracle for the residuals of ``action.structure`` that the action-validity
# and trace-preservation rows read.


def probe_homomorphism_defect(action, rng, probes=None):
    """max over sampled pairs of sup|g.(h.x) - (gh).x| / (1 + max|x|): every
    pair up to order 16, 24 random pairs beyond, and the first 24 pairs of
    sampled nodes on a quadrature group."""
    group = action.group
    if probes is None:
        probes = [action.random_element(rng)]
    if isinstance(group, QuadratureGroup):
        chosen = [(a, b) for a in action.sample_elements for b in action.sample_elements][:24]
    elif group.order <= 16:
        chosen = [(a, b) for a in group.elements() for b in group.elements()]
    else:
        chosen = [tuple(rng.integers(0, group.order, size=2)) for _ in range(24)]
    worst = 0.0
    for a, b in chosen:
        for x in probes:
            lhs = action.apply(a, action.apply(b, x))
            rhs = action.apply(group.compose(a, b), x)
            worst = max(worst, sup_distance(lhs, rhs) / (1.0 + x.max_abs_entry()))
    return worst


def probe_automorphism_defect(action, rng, trials=5):
    """max defect of multiplicativity, *-preservation and unitality over the
    sampled elements and random pairs."""
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


def probe_isometry_defect(action, rng, trials=4):
    """max over p in (1, 2, 3, inf) of | ||g.x||_p - ||x||_p | / ||x||_p."""
    worst = 0.0
    for g in action.sample_elements:
        for _ in range(trials):
            x = action.random_element(rng)
            for p in (1.0, 2.0, 3.0, math.inf):
                ref = p_norm(x, p)
                if ref == 0.0:
                    continue
                worst = max(worst, abs(p_norm(action.apply(g, x), p) - ref) / ref)
    return worst


def probe_trace_defect(action):
    """max over the sampled elements and the matrix-unit basis of |tr(g.e) - tr(e)|."""
    worst = 0.0
    for g in action.sample_elements:
        for e in action.shape.basis():
            worst = max(worst, abs(trace(action.apply(g, e)) - trace(e)))
    return worst


# ---------------------------------------------------------------------------
# Per-trial oracles of the stacked suite.  ``run_check`` draws a row's trials
# at once and evaluates them in one stacked call; these run them one trial
# at a time, as the suite did before, and the tests assert that both give
# the same reports and the same numbers, bit for bit.  Every row that draws
# elements is evaluated by its single-element formula on the loop kernels
# below (LOOP_CHECKS; brackets through ``loop_trial_bracket``), not by the
# stacked check, so the oracle also pins how a check combines its kernels:
# right-hand products, scales, notes and the worst-trial choice.


def loop_run_check(row, scn, est, rng, n):
    """The worst reports of ``n`` trials of one SUITE entry, one single-element
    draw and one single-element evaluation per trial."""
    if row.rows[0] in LOOP_CHECKS:
        evaluate = partial(LOOP_CHECKS[row.rows[0]], scn, est)
    else:
        check = qha.duflo.bind_tolerance(row, scn)
        evaluate = lambda point, *elements: row.call(check, scn, est, (point,), *elements)  # noqa: E731
    draw = {"positive": scn.action.random_positive, "general": scn.action.random_element}
    worst = ()
    for t in range(n):
        elements = [draw[kind](rng) for kind in row.draws]
        out = evaluate(row.grid[t % len(row.grid)], *elements)
        out = out if isinstance(out, tuple) else (out,)
        worst = out if not worst else tuple(
            new if new.rel_err > old.rel_err else old for new, old in zip(out, worst))
    if row.notes is not None:
        worst[0].notes = row.notes.format(n=n)
    return worst


def loop_trace(x):
    """sum_k w_k tr(block k) of a single element, as one dot product."""
    return complex(np.array(x.shape.trace_weights) @ np.trace(x.blocks, axis1=1, axis2=2))


def loop_p_norm(x, p):
    """Trace p-norm of a single element: op norm at inf, Frobenius sum at 2,
    else the singular values to the p, rooted on a Python float.  The
    singular values are the package's per-block primitive (the moduli of
    1 x 1 blocks, else LAPACK's on the block's nonzero rows and columns,
    padded with zeros), so that a stacked norm is checked bit for bit against
    its trials; tests/test_algebra.py checks the primitive against numpy's
    SVD of the whole block."""
    b = x.blocks
    if p == math.inf:
        return float(_singular_values(b)[:, 0].max())
    if p == 2.0:
        per_block = np.sum(np.abs(b) ** 2, axis=(1, 2))
    else:
        per_block = np.sum(_singular_values(b) ** p, axis=1)
    return float(float(np.array(x.shape.trace_weights) @ per_block) ** (1.0 / p))


def loop_function_p_norm(values, weights, r):
    """(sum w |v|^r)^{1/r} of one row of bracket values; the sup at inf."""
    if r == math.inf:
        return float(np.abs(values).max())
    return float(np.dot(weights, np.abs(values) ** r) ** (1.0 / r))


def loop_permutation_bracket(action, x, y):
    """trace((g.y)* x) of single elements on a permutation action, as one
    gather and one matrix-vector product."""
    return y.vec()[action._src].conj() @ (action.mu * x.vec())


def loop_trace_pairing(a, b):
    """trace(a b) of single elements, as one dot product over the blocks of
    the C-ordered operands."""
    pairs = np.einsum("kij,kji->k", np.ascontiguousarray(a.blocks), np.ascontiguousarray(b.blocks))
    return complex(np.array(a.shape.trace_weights) @ pairs)



# Largest linearized dimension for which a dense SVD nullity is computed:
# the small test wavelet's, K = 33.
DENSE_LIMIT = 33 * 33


def _stacked_nullity(maps, tol):
    """Common nullspace dimension of linear maps, by the SVD of their stack."""
    s = np.linalg.svd(np.vstack(maps), compute_uv=False)
    return int(np.sum(s <= tol))


def dense_fixed_point_dimension(action, tol=1e-8):
    """Oracle count: singular values at most ``tol`` of the linearized g.x - x
    stacked over the sampled g, for algebras of dimension up to DENSE_LIMIT."""
    dim = action.shape.total_dim
    if dim > DENSE_LIMIT:
        raise ActionError(f"dense fixed-point count needs dim <= {DENSE_LIMIT}, got {dim}")
    basis = list(action.shape.basis())
    maps = [np.array([(action.apply(g, e) - e).vec() for e in basis]).T
            for g in action.sample_elements]
    return _stacked_nullity(maps, tol)


# ---------------------------------------------------------------------------
# The wavelet's test elements drawn bump by bump, one rank-one term at a time
# over the whole grid: the oracle of the batched draws on their supports.


def wavelet_matrix(action, g):
    """The dense K x K unitary of the wavelet node g = (a, b): modulation
    phases exp(-2 pi i b xi) times a cyclic shift by j(a) steps."""
    a, b = float(g[0]), float(g[1])
    j = action.shift_of(a)
    K = action.grid_size
    U = np.zeros((K, K), dtype=complex)
    rows = np.arange(K)
    U[rows, (rows + j) % K] = np.exp(-2j * np.pi * b * action.xi)
    return U


def loop_bump_vector(action, center_octaves, width_octaves, modulation=0.0):
    """Gaussian log-frequency bump with a slow modulation, hard-cut at the
    declared support radius."""
    t = (np.arange(action.grid_size) - action.center) / action.design.steps_per_octave
    v = np.exp(-0.5 * ((t - center_octaves) / width_octaves) ** 2)
    v = v * np.exp(2j * np.pi * modulation * t)
    v[np.abs(t - center_octaves) > action.design.support_octaves] = 0.0
    return v


def loop_wavelet_positive(action, rng):
    """Three bumps v, drawn parameter by parameter, and sum v v* as one
    rank-3 product plus the spectral floor on the diagonal."""
    r = action.design.support_octaves
    bumps = []
    for _ in range(3):
        center = rng.uniform(-r / 3.0, r / 3.0)
        width = rng.uniform(0.12, 0.25)
        nu = rng.uniform(-1.0, 1.0)
        bumps.append(loop_bump_vector(action, center, width, nu))
    V = np.array(bumps)
    mat = V.T @ V.conj()
    diagonal = mat.reshape(-1)[::action.grid_size + 1]
    diagonal += 1e-7 * float(np.abs(diagonal).max())
    return mat


def loop_wavelet_element(action, rng):
    """Three terms coeff u w*, each added as a K x K outer product.  The
    product is held in a name: numpy multiplies an unnamed temporary of 256
    KiB or more (K >= 128) in place, which rounds otherwise in the last bit."""
    r = action.design.support_octaves
    K = action.grid_size
    mat = np.zeros((K, K), dtype=complex)
    for _ in range(3):
        cu, cw = rng.uniform(-r / 3.0, r / 3.0, size=2)
        wu, ww = rng.uniform(0.12, 0.25, size=2)
        nuu, nuw = rng.uniform(-1.0, 1.0, size=2)
        coeff = rng.standard_normal() + 1j * rng.standard_normal()
        u = loop_bump_vector(action, cu, wu, nuu)
        w = loop_bump_vector(action, cw, ww, nuw)
        term = np.outer(u, w.conj())
        mat += coeff * term
    return mat

# ---------------------------------------------------------------------------
# The dense oracle of a conjugation action: its (N, t, n, n) unitary stack,
# formed from the permutation and phase tables, and the conjugations and
# group-law residuals computed from it.

# Nodes per stacked (nodes, n, n) temporary of the dense oracles.
DENSE_SLICE = 32


def _row_gain(A):
    """Largest row sum of moduli over the last two axes: the factor by which
    x -> A x, or x -> x A*, can raise the largest entry of x."""
    return np.abs(A).sum(axis=-1).max(axis=-1)


def dense_block_residuals(src, U, weights):
    """``_block_residuals`` from dense (m, t, n, n) unitaries: E = |U* U - I|
    by one block product, eta = max ||E||_F, and the automorphism, isometry
    and trace residuals max(eta, r(U)^2 sum E), rho + (1 + rho) eta and
    max|w[src] - w| + max(w) max E."""
    w = np.asarray(weights, dtype=float)
    moved = float(np.abs(w[src] - w).max())
    rho = float(np.abs(w / w[src] - 1.0).max())
    E = np.abs(U.conj().swapaxes(2, 3) @ U - np.eye(U.shape[-1]))
    eta = math.sqrt(float((E ** 2).sum(axis=(2, 3)).max()))
    automorphism = max(eta, float((_row_gain(U) ** 2 * E.sum(axis=(2, 3))).max()))
    return automorphism, rho + (1.0 + rho) * eta, moved + w.max() * float(E.max())


def dense_unitaries(action):
    """The (N, t, n, n) unitary stack of a conjugation action."""
    return action.unitaries.dense()


def dense_apply(action, g, x):
    """g.x of a single element, block j as U[g, j] x[src[g, j]] U[g, j]*."""
    U = dense_unitaries(action)[g]
    return AlgebraElement(action.shape, U @ x.blocks[action._src[g]] @ U.conj().swapaxes(1, 2))


def dense_orbit_sum(action, x):
    """sum_g w_g U[g] x[src[g]] U[g]* of a single element, node by node."""
    U, src = dense_unitaries(action), action._src
    acc = np.zeros_like(x.blocks)
    for g, w in enumerate(action.haar.weights):
        acc += w * (U[g] @ x.blocks[src[g]] @ U[g].conj().swapaxes(1, 2))
    return AlgebraElement(action.shape, acc)


def dense_product_phases(U, src, group, pairs):
    """``product_phases`` of a dense (N, t, n, n) stack: P = U[a, j]
    U[b, src[a, j]] and Q = U[ab, j] by two block products a pair,
    c = tr(P Q*) / n, max|P - c Q| and the law bound from the row gains."""
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    a, b = pairs.T
    ab = group.compose(a, b)
    out = np.empty((len(pairs), src.shape[1]), dtype=complex)
    deviation, rd = np.empty((2,) + out.shape)
    for s in range(0, len(pairs), DENSE_SLICE):
        sl = slice(s, s + DENSE_SLICE)
        P, Q = U[a[sl]] @ U[b[sl, None], src[a[sl]]], U[ab[sl]]
        out[sl] = c = (P * Q.conj()).sum(axis=(2, 3)) / U.shape[-1]
        D = np.abs(P - c[..., None, None] * Q)
        deviation[sl], rd[sl] = D.max(axis=(2, 3)), D.sum(axis=3).max(axis=2)
    r = _row_gain(U)
    return out, float(deviation.max()), _law_bound(rd, r[a] * r[b[:, None], src[a]], r[ab], out)


def dense_structure(action):
    """(group_law, unitality, isometry, trace) of a conjugation action from
    its dense stack: ``dense_product_phases`` over the pairs the action
    samples, max|U U* - I|, and the sampled residuals."""
    U, src, group = dense_unitaries(action), action._src, action.group
    law = dense_product_phases(U, src, group, _sample_pairs(group.order, limit=24))[2]
    unitality = float(np.abs(U @ U.conj().swapaxes(-1, -2) - np.eye(U.shape[-1])).max())
    gens = list(action.sample_elements)
    _, isometry, moved = dense_block_residuals(src[gens], U[gens], action.shape.trace_weights)
    return law, unitality, isometry, moved


def loop_conjugation_bracket(action, x, y):
    """trace((g.y)* x) of single elements on a conjugation action, one
    DENSE_SLICE of nodes of the dense stack at a time."""
    U, src = dense_unitaries(action), action._src
    y_adj, x_t = y.blocks.conj().swapaxes(1, 2), x.blocks.swapaxes(1, 2)
    out = np.empty(src.shape, dtype=complex)
    for s in range(0, U.shape[0], DENSE_SLICE):
        Us = U[s:s + DENSE_SLICE]
        out[s:s + DENSE_SLICE] = np.einsum("gjab,gjab->gj", Us @ y_adj[src[s:s + DENSE_SLICE]],
                                           x_t @ Us.conj())
    return out @ np.array(action.shape.trace_weights)


class DenseConjugation:
    """x_j -> U[g, j] x[src[g, j]] U[g, j]* for a dense (N, t, n, n) stack
    that need not be monomial, on blocks of weight 1: the hooks that
    ``fixed_point_dimension``, ``dense_fixed_point_dimension`` and
    ``probe_homomorphism_defect`` read.  ``ConjugationAction`` holds only
    monomial stacks; this stand-in lets the counts see blocks that are not,
    and tables that do not compose, which the builder would reject."""

    def __init__(self, group, U, src):
        self.group, self.U, self.src = group, np.asarray(U, dtype=complex), np.asarray(src)
        self.shape = AlgebraShape(self.U.shape[-1], (1.0,) * self.U.shape[1])
        self.sample_elements = group.generators or tuple(group.elements())

    def apply(self, g, x):
        U = self.U[g]
        return AlgebraElement(self.shape, U @ x.blocks[self.src[g]] @ U.conj().swapaxes(1, 2))

    def random_element(self, rng):
        return random_element(self.shape, rng)

    def character(self):
        """The sum over the blocks j that g keeps of |tr U[g, j]|^2."""
        kept = self.src == np.arange(self.src.shape[1])
        return (np.abs(np.trace(self.U, axis1=-2, axis2=-1)) ** 2 * kept).sum(axis=1)


# loop_monomial_classes of each action, held no longer than the action
_MONOMIAL_CLASSES = weakref.WeakKeyDictionary()


def loop_monomial_classes(action):
    """The (node, block) pairs of a conjugation action grouped by (block,
    source block, permutation), read off the dense stack entry by entry:
    {(j, src, pi): [(g, j, phases), ...]} with U[g, j][pi[c], c] = phases[c]
    and the pairs of a class in node order; when the classes differ in size,
    every pair is a class of its own."""
    if action not in _MONOMIAL_CLASSES:
        _MONOMIAL_CLASSES[action] = _read_monomial_classes(action)
    return _MONOMIAL_CLASSES[action]


def _read_monomial_classes(action):
    U, src = dense_unitaries(action), action._src
    N, t, n = U.shape[:3]
    classes = {}
    for g in range(N):
        for j in range(t):
            pi, phases = [], []
            for c in range(n):
                (row,) = np.flatnonzero(U[g, j, :, c])
                pi.append(int(row))
                phases.append(U[g, j, row, c])
            classes.setdefault((j, int(src[g, j]), tuple(pi)), []).append((g, j, phases))
    if len({len(members) for members in classes.values()}) != 1:
        return {key + (g,): [(g, j, phases)] for key, members in classes.items()
                for g, j, phases in members}
    return classes


def loop_monomial_bracket(action, x, y):
    """trace((g.y)* x) of single elements on a monomial conjugation action,
    one class of ``loop_monomial_classes`` at a time: ph^H Z ph for every
    pair of the class, Z = conj(y_src) * x_j[pi, pi]."""
    out = np.empty(action._src.shape, dtype=complex)
    for (j, s, pi, *_), members in loop_monomial_classes(action).items():
        Z = y.blocks[s].conj() * x.blocks[j][np.ix_(pi, pi)]
        Phi = np.array([phases for _, _, phases in members])
        for (g, jj, _), v in zip(members, np.einsum("mc,mc->m", Phi.conj() @ Z, Phi)):
            out[g, jj] = v
    return out @ np.array(action.shape.trace_weights)


def loop_wavelet_bracket(action, x, y):
    """trace((g.y)* x) of single elements on the wavelet, one dilation at a
    time: for the shift j, the phase products (P_c A_j^T) * conj(P_r) summed
    over the rows, with A_j = conj(y[r + j, c + j]) * x[r, c] on the nonzero
    rows r and columns c of x and the phase table P of every b node, built
    here from the b nodes and the grid."""
    xb, yb = x.blocks[0], y.blocks[0]
    r = np.flatnonzero(np.any(xb != 0, axis=1))
    c = np.flatnonzero(np.any(xb != 0, axis=0))
    xs = xb[np.ix_(r, c)]
    P = np.exp(-2j * np.pi * np.outer(action.b_nodes, action.xi))
    Pc, Pr = P[:, c], P[:, r].conj()
    K = action.grid_size
    out = np.empty((action.n_a, action.n_b), dtype=complex)
    for i, j in enumerate(action.shifts):
        A = (yb[np.ix_((r + j) % K, (c + j) % K)].conj() * xs).T
        out[i] = ((Pc @ A) * Pr).sum(axis=1)
    return out.reshape(-1)


def loop_bracket_values(action, x, y):
    """Bracket values of single elements: the loop kernels of the finite
    families and the per-shift loop of the wavelet."""
    if isinstance(action, PermutationAction):
        return loop_permutation_bracket(action, x, y)
    if isinstance(action, ConjugationAction):
        return loop_monomial_bracket(action, x, y)
    return loop_wavelet_bracket(action, x, y)


def loop_trial_bracket(action, x, y):
    """Bracket values of one trial as the per-trial suite oracle takes them:
    the loop kernels of the finite families, which give the stacked kernels'
    values bit for bit, and the wavelet's own kernel on a single element,
    which its stacked call runs trial by trial (the per-shift loop sums in
    another order)."""
    if isinstance(action, WaveletAction):
        return action.bracket_values(x, y)
    return loop_bracket_values(action, x, y)


def loop_bracket_integral(action, x, y):
    """Haar integral of the bracket of single elements; the wavelet's own
    integral kernel."""
    if isinstance(action, (PermutationAction, ConjugationAction)):
        return complex(np.dot(action.haar.weights, loop_bracket_values(action, x, y)))
    return action.bracket_integral(x, y)


def loop_sandwich(est, t, y):
    """D^t y D^t of a single element."""
    dt = est.power(t)
    return dt @ y @ dt


def loop_int_power(x, r):
    acc = x
    for _ in range(r - 1):
        acc = acc @ x
    return acc


def _loop_integrability(scn, est, _, x):
    w = loop_bracket_integral(scn.action, x, x)
    tol = scn.tolerances["integrability-witness"]
    ok = math.isfinite(w.real) and w.real > 0 and abs(w.imag) <= tol * (1 + abs(w.real))
    return CheckReport.flag("integrability-witness", CLAIMS["integrability-witness"], ok,
                            notes=f"value={w.real:.6e}")


def _loop_symmetry(scn, est, _, x, y):
    claim = CLAIMS["bracket-symmetry"]
    group = scn.action.group
    try:
        inv = _inverse_node_index(group) if isinstance(group, QuadratureGroup) else group.inverse_table
    except InverseClosureError as exc:
        return CheckReport.skip("bracket-symmetry", claim, str(exc))
    vxy = loop_trial_bracket(scn.action, x, y)
    vyx = loop_trial_bracket(scn.action, y, x)
    defect = float(np.abs(vxy[inv] - np.conj(vyx)).max()) / max(float(np.abs(vxy).max()), 1e-300)
    return CheckReport.bound("bracket-symmetry", claim, defect, 0.0, tol_rel=0.0,
                             tol_abs=scn.tolerances["bracket-symmetry"])


def _loop_orthogonality(positive):
    def check(scn, est, _, x, y):
        lhs = loop_bracket_integral(scn.action, x, y)
        rhs = loop_trace(x) * loop_trace_pairing(est.d_inverse, y if positive else y.adjoint())
        name = "orthogonality-positive" if positive else "orthogonality-general"
        scale = scn.action.haar.mass * loop_p_norm(x, 2.0) * loop_p_norm(y, 2.0)
        tol = scn.tolerances[name]
        return CheckReport.equality(name, CLAIMS[name], lhs, rhs, tol_rel=tol, tol_abs=tol * scale)
    return check


def _loop_admissibility(scn, est, _, y):
    if float(np.abs(y.blocks - y.adjoint().blocks).max()) > 1e-9 * (1.0 + y.max_abs_entry()):
        raise NotPositiveError("admissibility check expects a hermitian positive element")
    tol = admissibility_tol(est)
    sand = loop_sandwich(est, -0.5, y)
    value = loop_trace(sand).real
    direct = loop_trace_pairing(est.d_inverse, y).real
    roundtrip = loop_trace(loop_sandwich(est, 0.5, sand)).real
    ty = loop_trace(y).real
    scale = max(abs(value), abs(direct), abs(ty), 1e-300)
    ok = abs(value - direct) <= tol * scale and abs(roundtrip - ty) <= tol * scale
    return CheckReport.flag("admissibility-identities", CLAIMS["admissibility-identities"], ok,
                            notes=f"value={value:.6e} tol={tol:.1e}")


def _loop_l1(scn, est, _, x, y):
    tol_ineq, tol_eq = scn.tolerances["l1-inequality"], scn.tolerances["l1-equality"]
    ytil = loop_sandwich(est, 0.5, y)
    values, w = loop_trial_bracket(scn.action, x, ytil), scn.action.haar.weights
    ineq = CheckReport.bound("l1-inequality", CLAIMS["l1-inequality"], float(np.dot(w, np.abs(values))),
                             loop_p_norm(x, 1.0) * loop_p_norm(y, 1.0), tol_rel=tol_ineq)
    scale = float(np.sum(w)) * loop_p_norm(x, 2.0) * loop_p_norm(ytil, 2.0)
    eq = CheckReport.equality("l1-equality", CLAIMS["l1-equality"], complex(np.dot(w, values)),
                              loop_trace(x) * loop_trace(y.adjoint()), tol_rel=tol_eq, tol_abs=tol_eq * scale)
    return ineq, eq


def _loop_young(scn, est, pqr, x, y):
    p, q, r = pqr
    d = est.d
    if loop_p_norm(d @ y - y @ d, math.inf) > 1e-9 * loop_p_norm(y, math.inf) * loop_p_norm(d, math.inf):
        raise ParameterError("y must commute with D for the convolution inequality")
    ytil = loop_sandwich(est, 1.0 / (2.0 * r), y)
    lhs = loop_function_p_norm(loop_trial_bracket(scn.action, x, ytil), scn.action.haar.weights, r)
    return CheckReport.bound("young-inequality", CLAIMS["young-inequality"], lhs,
                             loop_p_norm(x, p) * loop_p_norm(y, q), tol_rel=scn.tolerances["young-inequality"],
                             notes=f"p={p:g} q={q:g} r={r:g}")


def _loop_interpolation(scn, est, p, x, y):
    lhs = loop_function_p_norm(loop_trial_bracket(scn.action, x, y), scn.action.haar.weights, p)
    notes = f"p={p:g}"
    if p == math.inf:
        rhs = loop_p_norm(x, math.inf) * loop_p_norm(y, 1.0)
        notes += " sup-norm endpoint: sup|<x|y>| <= ||x||_inf ||y||_1"
    else:
        q = math.inf if p == 1.0 else p / (p - 1.0)
        y1 = loop_p_norm(y, 1.0)
        ys = loop_p_norm(loop_sandwich(est, -0.5, y), 1.0)
        rhs = loop_p_norm(x, p) * (y1 ** (0.0 if q == math.inf else 1.0 / q)) * (ys ** (1.0 / p))
    return CheckReport.bound("interpolation-bound", CLAIMS["interpolation-bound"], lhs, rhs,
                             tol_rel=scn.tolerances["interpolation-bound"], notes=notes)


def _loop_holder(scn, est, pqr, x, y):
    p, q, r = pqr
    return CheckReport.bound("holder-inequality", CLAIMS["holder-inequality"], loop_p_norm(x @ y, r),
                             loop_p_norm(x, p) * loop_p_norm(y, q), tol_rel=scn.tolerances["holder-inequality"],
                             notes=f"p={p:g} q={q:g} r={r:g}")


def _loop_alt(scn, est, r, a, b):
    lhs = loop_trace(loop_int_power(b @ a @ b, r)).real
    ar, br = loop_int_power(a, r), loop_int_power(b, r)
    return CheckReport.bound("alt-inequality", CLAIMS["alt-inequality"], lhs, loop_trace(br @ ar @ br).real,
                             tol_rel=scn.tolerances["alt-inequality"], notes=f"r={r}")


# The single-element formula of every SUITE row that draws elements, keyed by
# the row's first name: (scenario, estimate, grid point, *elements).
LOOP_CHECKS = {
    "integrability-witness": _loop_integrability,
    "bracket-symmetry": _loop_symmetry,
    "orthogonality-positive": _loop_orthogonality(True),
    "orthogonality-general": _loop_orthogonality(False),
    "admissibility-identities": _loop_admissibility,
    "l1-inequality": _loop_l1,
    "young-inequality": _loop_young,
    "interpolation-bound": _loop_interpolation,
    "holder-inequality": _loop_holder,
    "alt-inequality": _loop_alt,
}
