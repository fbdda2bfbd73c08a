"""Actions: representations, structural validation and its certificates,
fixed points, isometry."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qha.algebra
import qha.groups
from qha.algebra import (
    AlgebraElement,
    p_norm,
    random_element,
    random_positive_element,
    stack_size,
    sup_distance,
    trace,
)
from qha.actions import (
    CERTIFICATE_MARGIN,
    _block_residuals,
    ActionError,
    ActionStructure,
    ConjugationAction,
    GridError,
    MonomialStack,
    MeasureError,
    PermutationAction,
    RepresentationError,
    WaveletAction,
    WaveletDesign,
    automorphism_defect,
    commutant_certificate,
    conjugation_action,
    coset_action,
    cyclic_character_rep,
    dual_action,
    finite_weyl_heisenberg,
    fixed_point_dimension,
    homomorphism_defect,
    induced_action,
    is_trace_preserving,
    isometry_defect,
    left_translation_action,
    product_phases,
    s3_irreps,
    trivial_rep,
)
from qha.groups import affine_group, cyclic, probability_haar, product, symmetric
from qha.duflo import run_suite
from qha.scenarios import (
    _WAVELET_PRESETS,
    FINITE_TOLERANCES,
    Scenario,
    ScenarioSpec,
    build_scenario,
    list_builtins,
)

from helpers import (
    DenseConjugation,
    cyclic_subgroups,
    dense_apply,
    dense_block_residuals,
    dense_fixed_point_dimension,
    dense_orbit_sum,
    dense_product_phases,
    dense_structure,
    dense_unitaries,
    dual_group,
    from_symbol,
    loop_coset_table,
    loop_cyclic_characters,
    loop_bump_vector,
    loop_induced_maps,
    loop_conjugation_bracket,
    loop_s3_matrices,
    loop_wavelet_bracket,
    loop_wavelet_element,
    loop_wavelet_positive,
    loop_weyl_heisenberg,
    nodes_of,
    probe_automorphism_defect,
    probe_homomorphism_defect,
    probe_isometry_defect,
    probe_trace_defect,
    symbol,
    tuple_of_index,
    wavelet_matrix,
    weyl_heisenberg,
)


SMALL_WAVELET = WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                              b_extent=2.0, n_b=32, support_octaves=0.5)
# an odd number of b nodes, b = 0 among them, on a cell width 4/31 that is not dyadic
ODD_WAVELET = WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                            b_extent=2.0, n_b=31, support_octaves=0.5)


def _one_block_phases(U, G, pairs):
    """product_phases of the tables of a one-block stack, as one phase per pair."""
    src = np.zeros((G.order, 1), dtype=int)
    return product_phases(MonomialStack.from_dense(np.asarray(U)[:, None]), src, G, pairs)[0][:, 0]


class TestRepresentationStacks:
    """conjugation_action validates a representation stack when it is built."""

    @pytest.mark.parametrize("U1", [[[0.0, 2.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]],
                             ids=["phase-of-modulus-2", "two-columns-on-one-row"])
    def test_rejects_non_unitary(self, U1):
        # monomial tables that are not unitary: a phase off the unit circle,
        # or rows that do not permute the columns
        mats = np.array([np.eye(2), U1], dtype=complex)
        with pytest.raises(RepresentationError, match="not unitary"):
            conjugation_action(cyclic(2), mats)

    def test_rejects_wrong_product_law(self):
        # U_1 = diag(1, i) is unitary, but U_1 U_1 U_0* = diag(1, -1) is not a
        # multiple of I: not even a projective representation of cyclic(2)
        G = cyclic(2)
        mats = np.array([np.eye(2), np.diag([1.0, 1j])])
        with pytest.raises(RepresentationError, match="scalar multiple"):
            conjugation_action(G, mats)

    def test_rejects_non_identity_at_e(self):
        # U_0 = -1, U_1 = 1 multiplies with scalar phases, but U_e must be I
        G = cyclic(2)
        with pytest.raises(RepresentationError, match="identity"):
            conjugation_action(G, np.array([[[-1.0]], [[1.0]]]))

    def test_s3_irreps_validate(self):
        G, reps = s3_irreps()
        assert sorted(reps) == ["sign", "std", "trivial"]
        assert conjugation_action(G, reps["std"]).shape.block_dim == 2

    def test_cyclic_character(self):
        U = cyclic_character_rep(cyclic(8), 3)
        assert U.shape == (8, 1, 1)
        assert U[1, 0, 0] == pytest.approx(np.exp(2j * np.pi * 3 / 8))


class TestWeylHeisenberg:
    def test_identity_matrix(self):
        G, U = weyl_heisenberg(3)
        assert np.allclose(U[G.identity], np.eye(3))

    @pytest.mark.parametrize("n", [4, 5])
    def test_product_phase_matches_weyl_formula(self, n):
        # derived check: the computed phase of every pair is exp(2 pi i l k' / n)
        # and reproduces the matrix product
        G, U = weyl_heisenberg(n)
        pairs = np.array([(a, b) for a in G.elements() for b in G.elements()])
        phases = _one_block_phases(U, G, pairs)
        for (a, b), c in zip(pairs, phases):
            (_, l), (kp, _) = tuple_of_index(G, a), tuple_of_index(G, b)
            assert abs(c - np.exp(2j * np.pi * l * kp / n)) < 1e-12
            assert np.abs(U[a] @ U[b] - c * U[G.compose(a, b)]).max() < 1e-12

    def test_phase_formula(self):
        G, U = weyl_heisenberg(5)
        a = G.index_of_tuple((2, 3))
        b = G.index_of_tuple((4, 1))
        (c,) = _one_block_phases(U, G, [(a, b)])
        assert c == pytest.approx(np.exp(2j * np.pi * 3 * 4 / 5))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_irreducible(self, n):
        # the table count of the whole family against the dense nullity of
        # the generators' linearized g.x - x
        act = conjugation_action(*weyl_heisenberg(n))
        assert commutant_certificate(finite_weyl_heisenberg(n)).dimension == dense_fixed_point_dimension(act) == 1

    @pytest.mark.parametrize("n", [12, 24, 31])
    def test_entries_stay_unimodular_as_n_grows(self, n):
        # each entry is exp(2 pi i r / n) for the exponent r reduced mod n, so
        # neither the moduli nor the Gram residual grow with n
        U = finite_weyl_heisenberg(n).dense()
        eps = np.finfo(float).eps
        assert np.abs(np.abs(U[U != 0]) - 1.0).max() <= 2 * eps
        assert np.abs(U @ U.conj().swapaxes(1, 2) - np.eye(n)).max() <= 4 * eps

    def test_rejects_small_n(self):
        with pytest.raises(RepresentationError):
            finite_weyl_heisenberg(1)


class TestConjugationAction:
    def test_trivial_rep_identity_action(self):
        act = conjugation_action(cyclic(3), trivial_rep(cyclic(3), dim=2))
        rng = np.random.default_rng(0)
        x = random_element(act.shape, rng)
        for g in act.group.elements():
            assert sup_distance(act.apply(g, x), x) < 1e-14

    def test_unit_preserved(self):
        act = conjugation_action(*weyl_heisenberg(3))
        one = act.shape.identity()
        for g in act.group.elements():
            assert sup_distance(act.apply(g, one), one) < 1e-12

    def test_stack_is_read_only(self):
        # a dense stack is read into read-only tables; the caller's array stays writable
        G, U = weyl_heisenberg(3)
        tables = conjugation_action(G, U).unitaries
        assert isinstance(tables, MonomialStack)
        assert not tables.perm.flags.writeable and not tables.phase.flags.writeable
        assert U.flags.writeable

    def test_pauli_action_is_ergodic(self):
        # nullspace oracle: the fixed-point space of the n=2 family is the scalars
        act = conjugation_action(*weyl_heisenberg(2))
        assert fixed_point_dimension(act) == 1

    def test_trivial_action_fixed_dimension(self):
        act = conjugation_action(cyclic(2), trivial_rep(cyclic(2), dim=2))
        assert fixed_point_dimension(act) == 4

    @pytest.mark.parametrize("case", ["repeated-source", "moving-identity", "non-unitary", "haar-length"])
    def test_rejects_invalid_block_data(self, case):
        I, Z = np.eye(2), np.diag([1.0, -1.0])
        unitaries = np.array([[I, I], [Z, Z]])
        src = np.array([[0, 1], [1, 0]])
        haar = None
        if case == "repeated-source":
            src[1] = [0, 0]
        elif case == "moving-identity":
            src[0] = [1, 0]
        elif case == "non-unitary":
            unitaries[1, 0] = 2 * I
        else:
            haar = probability_haar(cyclic(3))
        with pytest.raises(ActionError):
            ConjugationAction(cyclic(2), unitaries, src, (1.0, 1.0), haar)

    def test_rejects_source_rows_that_break_composition(self):
        # every row permutes the two blocks and e fixes them, but 1 and 2 both
        # swap them, so src[1 * 1] = swap differs from src[1][src[1]] = id
        src = np.array([[0, 1], [1, 0], [1, 0]])
        unitaries = np.broadcast_to(np.eye(2), (3, 2, 2, 2))
        with pytest.raises(ActionError, match="compose"):
            ConjugationAction(cyclic(3), unitaries, src, (1.0, 1.0))

    def test_rejects_block_product_that_is_not_scalar(self):
        # the swap composes, and each block is unitary, but applying 1 twice
        # conjugates block 0 by U[1, 0] U[1, 1] = Z, which is not a scalar
        I, Z = np.eye(2), np.diag([1.0, -1.0])
        unitaries = np.array([[I, I], [I, Z]])
        src = np.array([[0, 1], [1, 0]])
        with pytest.raises(RepresentationError, match="scalar multiple"):
            ConjugationAction(cyclic(2), unitaries, src, (1.0, 1.0))

    def test_rejects_permutations_that_do_not_compose(self):
        # S S = I for the swap S of the first two of three columns, but
        # cyclic(3) needs U_1 U_1 = U_2 = S: P = I and Q = S share column 2,
        # so c = 1/3, and D = I - S / 3 has max|D| = 1 and row gain 4/3
        S = np.eye(3)[[1, 0, 2]]
        U, src = np.array([np.eye(3), S, S])[:, None], np.zeros((3, 1), dtype=int)
        pairs = np.array([(a, b) for a in range(3) for b in range(3)])
        c, deviation, law = product_phases(MonomialStack.from_dense(U), src, cyclic(3), pairs)
        dense = dense_product_phases(U, src, cyclic(3), pairs)
        assert np.abs(c - dense[0]).max() <= 1e-15 and deviation == dense[1] == 1.0
        assert law == pytest.approx(dense[2], abs=1e-15) and law == pytest.approx(4 / 3 * 4 / 3 + 8 / 9)
        with pytest.raises(RepresentationError, match="scalar multiple"):
            conjugation_action(cyclic(3), U[:, 0])

    def test_tables_report_the_gram_residual(self):
        # a phase of modulus 1 + 4e-12 passes the 1e-11 check, and the tables
        # report ||phase|^2 - 1| = 8e-12 as the dense U U* - I does
        G, U = weyl_heisenberg(3)
        U[4] *= 1 + 4e-12
        act = conjugation_action(G, U)
        assert isinstance(act.unitaries, MonomialStack) and 4 not in act.sample_elements
        unitality = dense_structure(act)[1]
        assert unitality == pytest.approx(8e-12, rel=1e-3)
        assert abs(act.structure.automorphism - unitality) <= 6 * np.finfo(float).eps / 2

    @pytest.mark.parametrize("sid", ["induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2",
                                     "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):wh2"])
    def test_block_phases_of_induced_wh2(self, sid):
        # every block of the induced action is a Weyl operator pi(k, l) of
        # cyclic(2)^2, so the phase of block j for the pair (a, b) is
        # exp(2 pi i l k' / 2) with (k, l) the operator of U[a, j] and
        # (k', l') that of U[b, src[a, j]]
        act = build_scenario(ScenarioSpec(sid)).action
        H, wh = weyl_heisenberg(2)
        U, src, G = dense_unitaries(act), act._src, act.group
        which = np.abs(U[:, :, None] - wh).max(axis=(3, 4)).argmin(axis=2)
        assert np.array_equal(U, wh[which])
        pairs = np.array([(a, b) for a in G.elements() for b in G.elements()])
        phases, _, law = product_phases(act.unitaries, src, G, pairs)
        assert law == act.structure.group_law < 1e-14
        a, b = pairs.T
        l = H.coords[which[a], 1]
        kp = H.coords[which[b[:, None], src[a]], 0]
        assert np.abs(phases - np.exp(2j * np.pi * l * kp / 2)).max() < 1e-12


class TestPermutationAction:
    def test_translation_transitive_ergodic(self):
        act = left_translation_action(cyclic(5))
        orbit = {0}
        frontier = [0]
        while frontier:
            t = frontier.pop()
            for g in act.group.elements():
                s = int(act.point_table[g, t])
                if s not in orbit:
                    orbit.add(s)
                    frontier.append(s)
        assert orbit == set(range(5))  # transitivity oracle
        assert fixed_point_dimension(act) == 1

    def test_coset_action_ergodic_orbit_oracle(self):
        act = coset_action(cyclic(6), [0, 2, 4])
        seen = {int(act.point_table[g, 0]) for g in act.group.elements()}
        assert seen == {0, 1}
        assert fixed_point_dimension(act) == 1

    def test_trivial_group_not_ergodic(self):
        G = cyclic(1)
        act = PermutationAction(G, np.array([[0, 1]]), np.array([1.0, 1.0]))
        assert fixed_point_dimension(act) == 2

    def test_rejects_non_invariant_measure(self):
        G = cyclic(2)
        with pytest.raises(MeasureError):
            PermutationAction(G, G.table, np.array([1.0, 2.0]))

    def test_rejects_table_that_breaks_composition(self):
        # every row permutes the points and e acts trivially, but 1 and 2
        # move the points alike, so point(1 * 1) != point(1) point(1)
        G = cyclic(3)
        with pytest.raises(ActionError, match="compose"):
            PermutationAction(G, np.array([[0, 1, 2], [1, 2, 0], [1, 2, 0]]), np.ones(3))

    def test_rejects_row_that_is_not_a_permutation(self):
        G = cyclic(2)
        with pytest.raises(ActionError, match="permute"):
            PermutationAction(G, np.array([[0, 1], [0, 0]]), np.ones(2))

    def test_validate_escape_for_fixtures(self):
        G = cyclic(2)
        act = PermutationAction(G, G.table, np.array([1.0, 2.0]), validate=False)
        rep = is_trace_preserving(act, tol=FINITE_TOLERANCES["trace-preservation"])
        assert not rep.passed


# The finite builtins of ``qha verify --all`` plus three larger instances of
# the same mechanisms.
ORACLE_IDS = (
    *(sid for sid in list_builtins() if not sid.startswith("affine-wavelet")),
    "translation:cyclic(64)", "twisted-dual:12:1", "wh:16", "broken-measure",
    "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):wh2", "twisted-dual:5:2",
)


# Every action family's kernels: the finite builtins and larger instances
# above, an induced action with a permutation inner action, and the wavelet.
KERNEL_IDS = (*ORACLE_IDS, "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):translation",
              "small-wavelet")


def _kernel_action(sid):
    if sid == "small-wavelet":
        return WaveletAction(SMALL_WAVELET)
    return build_scenario(ScenarioSpec(sid, seed=1729)).action


class TestKernelsMatchApply:
    """The vectorized kernels against the per-node ``apply`` loop they replace."""

    @pytest.mark.parametrize("sid", KERNEL_IDS)
    def test_bracket_values_match_generic_loop(self, sid):
        act = _kernel_action(sid)
        rng = np.random.default_rng(10)
        x, y = act.random_element(rng), act.random_element(rng)
        fast = act.bracket_values(x, y)
        slow = np.array([trace(act.apply(g, y).adjoint() @ x)
                         for g in nodes_of(act)])
        assert np.abs(fast - slow).max() < 1e-10 * (1 + np.abs(slow).max())

    @pytest.mark.parametrize("sid", KERNEL_IDS)
    def test_orbit_sum_matches_generic_loop(self, sid):
        # Haar weights over the modular function: on a finite group, which is
        # unimodular, the counting or (the irrep scenarios) probability weights
        act = _kernel_action(sid)
        x = act.random_element(np.random.default_rng(11))
        fast = act.orbit_sum(x)
        slow = act.shape.zero()
        for w, g in zip(act.haar.weights / act.modular_values(), nodes_of(act)):
            slow = slow + float(w) * act.apply(g, x)
        assert sup_distance(fast, slow) < 1e-9 * (1 + slow.max_abs_entry())


# The conjugation actions of ORACLE_IDS.
CONJUGATION_IDS = tuple(sid for sid in ORACLE_IDS
                        if sid.startswith(("irrep:", "wh:")) or sid.endswith(":wh2")
                        or (sid.startswith("twisted-dual:") and not sid.endswith(":0")))


def _rounding_bound(act, x, y):
    """First-order bound on |kernel - dense oracle| for every bracket value.

    The class kernel and ``loop_conjugation_bracket`` both evaluate
    v = sum_j w_j sum_{c,d} T_jcd over the n^2 products
    T = conj(ph_d) conj(y_dc) x_{pi d, pi c} ph_c of block j, whose moduli
    sum to at most ||y_src||_F ||x_j||_F.  With u = eps / 2 and a complex
    product off by at most 2 sqrt(2) u (Higham, Lemma 3.5):
    - the class kernel forms each T in three complex products and sums
      it in two sums of n terms: (6 sqrt(2) + 2 (n - 1)) u;
    - the dense oracle forms each T in three complex products (U y*,
      x^T conj(U) and their entrywise product; the other terms of U y* and
      x^T conj(U) are exact zeros) and sums it in one sum of n^2 terms:
      (6 sqrt(2) + n^2 - 1) u;
    - both sum the t blocks against the weights: t u each.
    The weights are invariant under the source rows, so by Cauchy-Schwarz
    sum_j w_j ||y_src||_F ||x_j||_F <= ||x||_2 ||y||_2, and the two
    differ by at most (n^2 + 2n + 2t + 17) u ||x||_2 ||y||_2.
    """
    n, t = act.shape.block_dim, act._src.shape[1]
    u = np.finfo(float).eps / 2
    return (n * n + 2 * n + 2 * t + 17) * u * p_norm(x, 2.0) * p_norm(y, 2.0)


def _sampled_tables(act):
    """The source rows and (m, t, n) monomial tables of the sampled elements,
    as ``structure`` reads them: the trivial table on a permutation's atoms."""
    if isinstance(act, WaveletAction):
        return act.sampled_structure()
    src = act._src[list(act.sample_elements)]
    if isinstance(act, PermutationAction):
        return src, MonomialStack(np.zeros(src.shape + (1,), dtype=int), np.ones(src.shape + (1,)))
    return src, act.unitaries[list(act.sample_elements)]


def _residual_rounding_bound(src, U, weights, residuals):
    """Bound on |table - dense| for each of the (automorphism, isometry,
    trace) residuals of ``_block_residuals`` against ``dense_block_residuals``
    on the same tables, ``residuals`` the table's values.

    With u = eps / 2, s = max|ph|^2, e = max||ph|^2 - 1| and n the block size:
    - the table forms |ph|^2 as the real part of ph conj(ph), a sum of two
      squares, within 2 u s; the dense U* U holds it as the lone nonzero
      term of its sum (the other terms are exact zeros), within 2 u s as
      well, plus an imaginary part of at most u s / 2 where the product is
      fused.  Subtracting 1 is exact (Sterbenz) and the dense modulus
      rounds by u, so the entries of E differ by at most d = (5 s + e) u,
      the 5 covering 4.5 and the second-order terms; every off-diagonal
      dense entry is an exact zero;
    - ||E||_F over a block's n entries then differs by at most sqrt(n) d,
      plus (n + 1) u ||E||_F <= (n + 1) u sqrt(n) e on each side for the
      squares, the sum and the root;
    - sum E differs by at most n d, plus (n - 1) u n e on each side for the
      sum, and r(U)^2 = max|ph|^2 is the same number in both (the dense row
      sums add exact zeros to one modulus), rounded alike; with the
      product's rounding, r^2 sum E differs by at most s n (d + 2 (n + 1) u e),
      and the automorphism residual, the larger of the two, by at most the
      larger difference;
    - the isometry residual rho + (1 + rho) eta, rho the same number, by
      (1 + rho) times eta's difference plus 4 u of itself; and
    - the trace residual max|w[src] - w| + max(w) max E by max(w) d plus
      4 u of itself.
    """
    u = np.finfo(float).eps / 2
    n = U.shape[-1]
    s = float(np.abs(U.phase).max()) ** 2
    e = float(np.abs(np.abs(U.phase) ** 2 - 1.0).max())
    w = np.asarray(weights, dtype=float)
    rho = float(np.abs(w / w[src] - 1.0).max())
    d = (5.0 * s + e) * u
    d_eta = math.sqrt(n) * (d + 2 * (n + 1) * u * e)
    _, isometry, trace_defect = residuals
    return (max(d_eta, s * n * (d + 2 * (n + 1) * u * e)),
            (1.0 + rho) * d_eta + 4 * u * isometry,
            w.max() * d + 4 * u * trace_defect)


# Every builtin, the negative control, the other two wavelet presets and the
# small test wavelet.
RESIDUAL_IDS = (*list_builtins(), "broken-measure", "affine-wavelet:fine", "affine-wavelet:coarse",
                "small-wavelet")


class TestBlockResiduals:
    @pytest.mark.parametrize("sid", RESIDUAL_IDS)
    def test_table_residuals_match_the_dense_formula(self, sid):
        # the residuals read off the tables against U* U - I formed densely
        # from the same tables, within the rounding bound derived above; the
        # action's structure holds the table's values
        act = _kernel_action(sid)
        src, U = _sampled_tables(act)
        weights = act.shape.trace_weights
        table = _block_residuals(src, U, weights)
        dense = dense_block_residuals(src, U.dense(), weights)
        bounds = _residual_rounding_bound(src, U, weights, table)
        for name, t, dn, bound in zip(("automorphism", "isometry", "trace"), table, dense, bounds):
            assert abs(t - dn) <= bound, (name, t, dn, bound)
        assert act.structure.automorphism >= table[0]
        assert (act.structure.isometry, act.structure.trace) == table[1:]

    def test_non_unitary_tables_match_the_dense_formula(self):
        # moduli within 10 % of 1 make every residual O(1e-1), far above
        # rounding, so a wrong formula for E or the row gain shows
        rng = np.random.default_rng(32)
        m, t, n = 4, 3, 5
        perm = rng.permuted(np.broadcast_to(np.arange(n), (m, t, n)), axis=-1)
        phase = rng.uniform(0.9, 1.1, (m, t, n)) * np.exp(2j * np.pi * rng.random((m, t, n)))
        U = MonomialStack(perm, phase)
        src = rng.permuted(np.broadcast_to(np.arange(t), (m, t)), axis=-1)
        weights = (1.0, 2.0, 0.5)
        table = _block_residuals(src, U, weights)
        dense = dense_block_residuals(src, U.dense(), weights)
        bounds = _residual_rounding_bound(src, U, weights, table)
        assert min(table) > 0.1
        for name, tb, dn, bound in zip(("automorphism", "isometry", "trace"), table, dense, bounds):
            assert abs(tb - dn) <= bound, (name, tb, dn, bound)

    def test_permutation_residuals_are_exact(self):
        # the trivial table of a permutation's atoms has E = 0: the dense
        # formula gives the same numbers bit for bit
        act = _kernel_action("broken-measure")
        src, U = _sampled_tables(act)
        table = _block_residuals(src, U, act.shape.trace_weights)
        assert table == dense_block_residuals(src, U.dense(), act.shape.trace_weights)
        assert table[0] == 0.0 and table[2] > 0.0


class TestMonomialKernel:
    """The quadratic-form bracket kernel that every conjugation takes, and
    the stacks that are rejected for want of it."""

    def test_monomial_stacks_take_the_quadratic_form(self):
        # every conjugation builtin holds its stack as tables
        for sid in ORACLE_IDS:
            act = _kernel_action(sid)
            assert isinstance(act, ConjugationAction) == (sid in CONJUGATION_IDS), sid
            if sid in CONJUGATION_IDS:
                assert isinstance(act.unitaries, MonomialStack), sid

    @pytest.mark.parametrize("sid", CONJUGATION_IDS)
    def test_matches_the_dense_kernel_within_rounding(self, sid):
        # the two kernels sum in different orders: equal up to a stated
        # rounding bound, not bit for bit
        act = _kernel_action(sid)
        rng = np.random.default_rng(12)
        for _ in range(3):
            x, y = act.random_element(rng), act.random_element(rng)
            diff = np.abs(act.bracket_values(x, y) - loop_conjugation_bracket(act, x, y)).max()
            assert diff <= _rounding_bound(act, x, y)

    def test_rotated_weyl_operators_are_rejected(self):
        # V U V* for a random unitary V, the identity left exact: the first
        # Weyl operator off it, U[1], holds nonzero entries in every column
        G, U = weyl_heisenberg(4)
        z = np.random.default_rng(15).standard_normal((2, 4, 4))
        V = np.linalg.qr(z[0] + 1j * z[1])[0]
        U[1:] = V @ U[1:] @ V.conj().T
        with pytest.raises(RepresentationError, match=r"column 0 of U\[1, 0\] holds 4 nonzero"):
            conjugation_action(G, U)

    def test_one_entry_off_the_support_is_rejected(self):
        # far inside the validation's unitarity tolerance 1e-11, but the
        # support is read exactly: column 0 of U[5] holds a second entry
        G, U = weyl_heisenberg(4)
        U[5, 0, 0] = 1e-13
        assert finite_weyl_heisenberg(4).dense()[5, 0, 0] == 0
        with pytest.raises(RepresentationError, match=r"column 0 of U\[5, 0\] holds 2 nonzero"):
            conjugation_action(G, U)

    @pytest.mark.parametrize("sid", CONJUGATION_IDS)
    def test_apply_matches_the_dense_stack(self, sid):
        # each entry of g.x is ph_c x_cd conj(ph_d), two complex products in
        # either path (U x U* has one nonzero term per entry), each within
        # 2 sqrt(2) u (Higham, Lemma 3.5): within 8 sqrt(2) u max|x| of each other
        act = _kernel_action(sid)
        x = act.random_element(np.random.default_rng(16))
        bound = 8 * math.sqrt(2) * np.finfo(float).eps / 2 * x.max_abs_entry()
        for g in act.group.elements():
            assert sup_distance(act.apply(g, x), dense_apply(act, g, x)) <= bound

    @pytest.mark.parametrize("sid", CONJUGATION_IDS)
    def test_orbit_sum_matches_the_dense_stack(self, sid):
        # every entry sums N terms w_g ph_c x_cd conj(ph_d) of modulus at most
        # w_g max|x|.  The node loop forms each in two complex products and a
        # scaling and adds them one by one: within (N - 1 + 4 sqrt(2) + 1) u
        # of the exact sum, relative to mass max|x|.  The class kernel sums
        # the m weighted phase products of a class, multiplies by x and adds
        # the N / m classes, and m + N / m <= N + 1: within (N + 4 sqrt(2)) u.
        act = _kernel_action(sid)
        x = act.random_element(np.random.default_rng(17))
        N, u = act.group.order, np.finfo(float).eps / 2
        bound = 2 * (N + 4 * math.sqrt(2) + 1) * u * act.haar.mass * x.max_abs_entry()
        assert sup_distance(act.orbit_sum(x), dense_orbit_sum(act, x)) <= bound

    @pytest.mark.parametrize("sid", CONJUGATION_IDS)
    def test_structure_matches_the_dense_stack(self, sid):
        # Both paths form the same quantities from the same phases, of
        # modulus 1 within 1e-11 (u = eps / 2, n the block size):
        # - the product phase p of a column in one complex product, the
        #   dense one as the lone nonzero term of a matrix product: they
        #   differ by at most 4 sqrt(2) u;
        # - c = sum p conj(q) / n over n nonzero terms (the dense trace adds
        #   exact zeros as well), each within ((n - 1) + 2 sqrt(2) + 1) u of
        #   the exact value, so with the products (2 n + 16) u apart;
        # - rd = max|p - c q| then lies within (2 n + 30) u, and the law
        #   bound rd (r_p + |c| r_q) + ||c|^2 - 1| r_q^2, with row gains r of
        #   1 within 1e-11 computed alike, within 2 (2 n + 30) u + 3 (2 n + 16) u;
        # - max|U U* - I| is ||ph|^2 - 1| in either, |ph|^2 to 2 u, plus an
        #   imaginary part of at most 2 u in the dense product.
        # The sampled residuals differ from the dense U* U formula within
        # ``_residual_rounding_bound``.
        act = _kernel_action(sid)
        law, unitality, isometry, trace_defect = dense_structure(act)
        n, u = act.shape.block_dim, np.finfo(float).eps / 2
        assert abs(act.structure.group_law - law) <= (10 * n + 108) * u
        src, U = _sampled_tables(act)
        automorphism = dense_block_residuals(src, U.dense(), act.shape.trace_weights)[0]
        bounds = _residual_rounding_bound(src, U, act.shape.trace_weights, act.structure[2:])
        assert abs(act.structure.automorphism - max(unitality, automorphism)) <= max(6 * u, bounds[0])
        assert abs(act.structure.isometry - isometry) <= bounds[1]
        assert abs(act.structure.trace - trace_defect) <= bounds[2]

    def test_tables_scale_without_the_dense_stack(self):
        # building wh:48 and running its suite keeps the (N, t, n) tables
        # (24 N t n bytes: an int permutation and a complex phase per column),
        # the class phases (16 N t n) and, while the classes are sorted, two
        # copies of the lexsort keys (16 N t (n + 2)): 56 N t n and a little.
        # The suite adds stacks of at most 12 trials of an element of
        # 16 t n^2 = 16 N t bytes (n^2 = N here) and their bracket rows, a
        # few hundred N t bytes: below 40 N t n more at n = 48.  The dense
        # stack alone, 16 N t n^2 bytes, is 8 times the bound.
        spec = ScenarioSpec("wh:48")
        run_suite(build_scenario(ScenarioSpec("wh:3")))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            scn = build_scenario(spec)
            reports = run_suite(scn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        act = scn.action
        N, t, n = act.unitaries.shape
        assert isinstance(act.unitaries, MonomialStack) and "table" not in vars(act.group)
        assert all(r.passed for r in reports)
        assert peak <= 96 * N * t * n < 16 * N * t * n * n, peak / (N * t * n)

    def test_classes_of_unequal_size_hold_one_pair_each(self):
        # both elements of cyclic(2) fix block 0, and 1 swaps the basis of
        # block 1: classes of 2, 1 and 1 pairs, so each pair is a class
        I, X = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        act = ConjugationAction(cyclic(2), np.array([[I, I], [I, X]]), np.array([[0, 1], [0, 1]]), (1.0, 1.0))
        assert act._class_phases(0, len(act._classes[0])).shape == (4, 1, 2)
        rng = np.random.default_rng(18)
        x, y = act.random_element(rng), act.random_element(rng)
        assert np.abs(act.bracket_values(x, y) - loop_conjugation_bracket(act, x, y)).max() <= _rounding_bound(act, x, y)
        bound = 2 * (2 + 4 * math.sqrt(2) + 1) * np.finfo(float).eps / 2 * act.haar.mass * x.max_abs_entry()
        assert sup_distance(act.orbit_sum(x), dense_orbit_sum(act, x)) <= bound

    def test_classes_are_cosets_of_one_size(self):
        # wh:4 = T_k M_l: pi is the shift by k, one class per k of the four
        # modulations l, and the phases are the diagonals of M_l
        act = _kernel_action("wh:4")
        perms, order, blocks, sources = act._classes
        phases = act._class_phases(0, len(perms))
        assert not blocks.any() and not sources.any()
        assert perms.tolist() == [[(c + k) % 4 for c in range(4)] for k in range(4)]
        assert order.tolist() == list(range(16))
        omega = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4)
        assert np.abs(phases - omega[None]).max() < 1e-15

    def test_building_leaves_numpy_ma_out(self):
        # the classes are sorted with lexsort: np.unique would import numpy.ma
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys\nfrom qha.scenarios import build_scenario, builtin\n"
                "act = build_scenario(builtin('wh:16')).action\n"
                "print(len(act._classes[0]), 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["16", "False"]


class TestDualAction:
    def test_trivial_character_is_identity(self):
        act = dual_action(product(cyclic(2), cyclic(2)), 0)
        rng = np.random.default_rng(1)
        x = random_element(act.shape, rng)
        e = act.group.identity
        assert sup_distance(act.apply(e, x), x) < 1e-14

    def test_trace_evaluates_symbol_at_identity(self):
        # trace of a symbol element is its value at the group identity
        G = product(cyclic(2), cyclic(2))
        act = dual_action(G, 0)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
        x = from_symbol(G, f)
        assert trace(x) == pytest.approx(f[G.identity])
        for omega in act.group.elements():
            moved = act.apply(omega, x)
            assert trace(moved) == pytest.approx(f[G.identity])

    def test_permutation_matches_symbol_formula(self):
        # oracle: translate the symbol pointwise and rebuild, per the definition
        G = product(cyclic(2), cyclic(4))
        act = dual_action(G, 0)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
        x = from_symbol(G, f)
        chars = dual_group(G).table
        for omega in act.group.elements():
            twisted = chars[omega] * f
            direct = from_symbol(G, twisted)
            assert sup_distance(act.apply(omega, x), direct) < 1e-11

    def test_symbol_round_trip(self):
        G = product(cyclic(4), cyclic(4))
        rng = np.random.default_rng(4)
        f = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
        x = from_symbol(G, f)
        assert x.shape == dual_action(G, 0).shape
        assert np.abs(symbol(G, x) - f).max() < 1e-11

    @pytest.mark.parametrize("m", [0, 1])
    def test_dual_group_is_the_character_table_group(self, m):
        # oracle: the dual group as the character table's group: G's table,
        # structure and generators, element s composing like the character
        # in row s
        G = product(cyclic(4), cyclic(4))
        chars = dual_group(G).table
        D = dual_action(G, m).group
        assert np.array_equal(D.table, G.table)
        assert (D.name, D.structure, D.generators) == (f"dual({G.name})", G.structure, G.generators)
        assert np.abs(chars[D.table] - chars[:, None] * chars[None, :]).max() < 1e-12

    def test_full_dual_is_ergodic(self):
        for G in (cyclic(4), product(cyclic(4), cyclic(4))):
            act = dual_action(G, 0)
            assert fixed_point_dimension(act) == 1

    def test_twisted_dual_is_inner_conjugation(self):
        # oracle: the symbol definition of the dual action, independent of the
        # conjugation the factory builds.  x = sum_g f(g) Lambda(g) with
        # Lambda(a, b) = pi(a, m b) and f(g) = tr(Lambda(g)* x) / n, and
        # omega.x = sum_g omega(g) f(g) Lambda(g)
        n, m = 4, 1
        act = dual_action(product(cyclic(n), cyclic(n)), m)
        G, wh = weyl_heisenberg(n)
        lam = np.array([wh[G.index_of_tuple((a, m * b))] for a, b in G.coords.tolist()])
        rng = np.random.default_rng(5)
        x = random_element(act.shape, rng)
        f = np.einsum("gij,ij->g", lam.conj(), x.blocks[0]) / n
        for s in range(n):
            for t in range(n):
                omega = act.group.index_of_tuple((s, t))
                chi = np.array([np.exp(2j * np.pi * (s * a + t * b) / n)
                                for a, b in G.coords.tolist()])
                direct = AlgebraElement(act.shape, [np.einsum("g,gij->ij", chi * f, lam)])
                assert sup_distance(act.apply(omega, x), direct) < 1e-10

    def test_twisted_dual_ergodic(self):
        act = dual_action(product(cyclic(3), cyclic(3)), 1)
        assert fixed_point_dimension(act) == 1

    def test_rejects_degenerate_twist(self):
        with pytest.raises(ActionError):
            dual_action(product(cyclic(4), cyclic(4)), 2)


def _induced_family(gtok, itok):
    """(G, h, inner, iso) of the induced scenarios with subgroup cyclic(2)^2."""
    G = {"c2c4": product(cyclic(2), cyclic(4)), "c4c4": product(cyclic(4), cyclic(4)),
         "c8c8": product(cyclic(8), cyclic(8))}[gtok]
    strides = np.array(G.structure) // 2
    h = [G.index_of_tuple((a * strides[0], b * strides[1])) for a in range(2) for b in range(2)]
    if itok == "wh2":
        H, wh = weyl_heisenberg(2)
        inner = conjugation_action(H, wh)
        iso = [H.index_of_tuple(np.array(tuple_of_index(G, g)) // strides) for g in h]
    else:
        inner = left_translation_action(G.subgroup(h)[0])
        iso = list(range(len(h)))
    return G, h, inner, iso


class TestInducedAction:
    def test_whole_group_recovers_inner(self):
        G, wh = weyl_heisenberg(2)
        inner = conjugation_action(G, wh)
        act = induced_action(G, list(G.elements()), inner, list(G.elements()))
        assert act.shape == inner.shape  # a single coset
        rng = np.random.default_rng(6)
        x = random_element(act.shape, rng)
        for g in G.elements():
            expect = inner.apply(g, AlgebraElement(inner.shape, x.blocks))
            got = act.apply(g, x)
            assert sup_distance(got, AlgebraElement(act.shape, expect.blocks)) < 1e-12

    def test_builtin_instance_ergodic(self):
        G, h, inner, iso = _induced_family("c2c4", "wh2")
        act = induced_action(G, h, inner, iso)
        assert act.shape.blocks_shape == (2, 2, 2)
        assert fixed_point_dimension(act) == 1

    def test_trace_of_identity(self):
        G, h, inner, iso = _induced_family("c2c4", "wh2")
        act = induced_action(G, h, inner, iso)
        index = G.order // len(h)
        assert trace(act.shape.identity()) == pytest.approx(index * trace(inner.shape.identity()))

    def test_homomorphism_all_pairs(self):
        G, h, inner, iso = _induced_family("c2c4", "wh2")
        act = induced_action(G, h, inner, iso)
        rng = np.random.default_rng(7)
        assert probe_homomorphism_defect(act, rng) < 1e-12
        assert homomorphism_defect(act) < 1e-12

    def test_rejects_bad_iso(self):
        G, h, inner, iso = _induced_family("c2c4", "wh2")
        bad = list(iso)
        bad[1] = bad[0]  # not injective, so not an isomorphism
        with pytest.raises(ActionError):
            induced_action(G, h, inner, bad)


class TestArrayConstructorsMatchLoops:
    """Representations, coset actions and induction against their per-element
    loop definitions (tests/helpers.py), bit for bit."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_weyl_heisenberg(self, n):
        assert np.array_equal(finite_weyl_heisenberg(n).dense(), loop_weyl_heisenberg(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_characters(self, n):
        for j in range(n):
            assert np.array_equal(cyclic_character_rep(cyclic(n), j), loop_cyclic_characters(n, j))

    def test_s3_irreps(self):
        sign, std = loop_s3_matrices()
        G, reps = s3_irreps()
        assert np.array_equal(G.table, symmetric(3).table)
        assert np.array_equal(reps["sign"], sign)
        assert np.array_equal(reps["std"], std)

    def test_s3_standard_character_and_group_law(self):
        # Basis-free facts of the standard representation rho (u = eps / 2).
        # Each phase exp(i theta), theta = 2 pi r / 3 with |r| <= 1 rounded
        # within 2 u |theta| < 4.2 u and cos, sin within u each, lies within
        # 6 u of its cube root.  So the character is 2 at e, 0 on the
        # transpositions (no diagonal entry) and within 2 * 6 u + u of -1 on
        # the 3-cycles.  An entry of rho(a) rho(b) has one nonzero term, the
        # product of two phases in one complex multiplication within
        # 2 sqrt(2) u (Higham, Lemma 3.5): within 12 u + 2 sqrt(2) u + 6 u
        # < 21 u of rho(ab).
        G, reps = s3_irreps()
        rho, sign = reps["std"], reps["sign"][:, 0, 0].real
        u = np.finfo(float).eps / 2
        chi = np.trace(rho, axis1=1, axis2=2)
        cycles = (sign > 0) & (np.arange(G.order) != G.identity)
        assert chi[G.identity] == 2 and not chi[sign < 0].any() and cycles.sum() == 2
        assert np.abs(chi[cycles] + 1).max() <= 13 * u
        a, b = np.divmod(np.arange(G.order ** 2), G.order)
        assert np.abs(rho[a] @ rho[b] - rho[G.compose(a, b)]).max() <= 21 * u

    @pytest.mark.parametrize("G", [
        *(cyclic(n) for n in range(1, 13)),
        product(cyclic(2), cyclic(4)),
        product(product(cyclic(3), cyclic(3)), cyclic(2)),
    ], ids=lambda G: G.name)
    def test_coset_action(self, G):
        for h in cyclic_subgroups(G):
            assert np.array_equal(coset_action(G, h).point_table, loop_coset_table(G, h))

    def test_coset_action_of_s3(self):
        G = symmetric(3)
        assert np.array_equal(coset_action(G, [0, 1]).point_table, loop_coset_table(G, [0, 1]))

    @pytest.mark.parametrize("gtok,itok", [("c2c4", "wh2"), ("c8c8", "wh2"), ("c4c4", "wh2"),
                                           ("c4c4", "translation"), ("c2c4", "translation")])
    def test_induced_action(self, gtok, itok):
        G, h, inner, iso = _induced_family(gtok, itok)
        act = induced_action(G, h, inner, iso)
        target, inner_elt = loop_induced_maps(G, h, inner.group, iso)
        t = len(inner.shape.trace_weights)
        src = (target[:, :, None] * t + inner._src[inner_elt]).reshape(G.order, -1)
        if itok == "wh2":
            n = inner.shape.block_dim
            assert np.array_equal(act._src, src)
            assert np.array_equal(dense_unitaries(act), dense_unitaries(inner)[inner_elt].reshape(G.order, -1, n, n))
        else:
            assert np.array_equal(act.point_table, src[G.inverse_table])

    @pytest.mark.parametrize("sid,gtok,itok", [
        ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", "c2c4", "wh2"),
        ("induced:cyclic(8)xcyclic(8):cyclic(2)xcyclic(2):wh2", "c8c8", "wh2"),
        ("induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):translation", "c4c4", "translation"),
    ])
    def test_induced_scenarios_build_the_same_action(self, sid, gtok, itok):
        act = build_scenario(ScenarioSpec(sid, seed=1729)).action
        ref = induced_action(*_induced_family(gtok, itok))
        assert np.array_equal(act._src, ref._src)


# Every wavelet design the presets, their refinement levels (scaled by 1, 2
# and 4) and the tests build.
DYADIC_WAVELETS = {
    "small-wavelet": SMALL_WAVELET,
    "bracket-refinement": WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                                        b_extent=4.0, n_b=64, support_octaves=0.5),
    "bracket-refinement-x2": WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                                           b_extent=4.0, n_b=64, support_octaves=0.5).scaled(2),
    **{f"{preset}-x{s}": design.scaled(s)
       for preset, design in _WAVELET_PRESETS.items() for s in (1, 2, 4)},
}


class TestWaveletAction:
    def test_identity_matrix(self):
        act = WaveletAction(SMALL_WAVELET)
        U = wavelet_matrix(act, act.group.identity)
        assert np.abs(U - np.eye(act.grid_size)).max() < 1e-12

    def test_node_unitarity(self):
        # every node operator is exactly unitary on the cyclic grid
        act = WaveletAction(SMALL_WAVELET)
        rng = np.random.default_rng(8)
        xi = rng.standard_normal(act.grid_size) + 1j * rng.standard_normal(act.grid_size)
        for i in range(0, act.group.node_count, 97):
            U = wavelet_matrix(act, act.group.nodes[i])
            assert abs(np.linalg.norm(U @ xi) - np.linalg.norm(xi)) < 1e-10

    def test_composition_on_window_rows(self):
        # derived check: matrix products agree on unwrapped rows
        act = WaveletAction(SMALL_WAVELET)
        g = np.array([2.0 ** (2 / 8), 0.3])
        h = np.array([2.0 ** (-1 / 8), -0.2])
        Ug, Uh = wavelet_matrix(act, g), wavelet_matrix(act, h)
        Ugh = wavelet_matrix(act, act.group.compose(g, h))
        rows = act.window
        assert np.abs((Ug @ Uh - Ugh)[rows, :]).max() < 1e-10

    def test_apply_matches_matrix_conjugation(self):
        act = WaveletAction(SMALL_WAVELET)
        rng = np.random.default_rng(9)
        x = act.random_element(rng)
        g = act.group.nodes[7]
        U = wavelet_matrix(act, g)
        direct = AlgebraElement(act.shape, [U @ x.blocks[0] @ U.conj().T])
        assert sup_distance(act.apply(g, x), direct) < 1e-12

    def test_modular_values_match_per_node(self):
        act = WaveletAction(SMALL_WAVELET)
        ref = np.array([act.group.modular(p) for p in act.group.nodes])
        assert np.array_equal(act.modular_values(), ref)

    def test_rejects_off_grid_dilation(self):
        act = WaveletAction(SMALL_WAVELET)
        with pytest.raises(GridError):
            act.shift_of(1.3)

    def test_sampled_ergodicity(self):
        act = WaveletAction(SMALL_WAVELET)
        assert fixed_point_dimension(act) == 1

    @pytest.mark.parametrize("name", DYADIC_WAVELETS)
    def test_b_nodes_are_the_uncentred_midpoints_bit_for_bit(self, name):
        # b_min + (m + 1/2) db, the midpoints before they were placed about
        # the centre: on these designs db is dyadic, both forms are exact and
        # no report moves
        design = DYADIC_WAVELETS[name]
        act = WaveletAction(design)
        db = 2 * design.b_extent / design.n_b
        uncentred = -design.b_extent + (np.arange(design.n_b) + 0.5) * db
        assert np.array_equal(act.b_nodes, uncentred)
        assert np.array_equal(act.group.nodes[:, 1], np.tile(uncentred, act.n_a))

    @pytest.mark.parametrize("n_b", [31, 33, 40, 41, 96])
    def test_b_nodes_are_symmetric_bit_for_bit(self, n_b):
        b = affine_group(0.5, 2.0, 5, -1.9, 1.9, n_b).nodes[:n_b, 1]
        assert np.array_equal(b[::-1], -b)
        assert np.all(np.diff(b) > 0)

    def test_odd_b_grid_holds_zero(self):
        act = WaveletAction(ODD_WAVELET)
        assert np.array_equal(act.b_nodes[::-1], -act.b_nodes)
        assert act.b_nodes[ODD_WAVELET.n_b // 2] == 0.0

    def test_asymmetric_b_nodes_are_rejected(self, monkeypatch):
        # the uncentred midpoints of the odd design miss the symmetry in the
        # last bit, and bracket_values pairs every b with -b
        def uncentred(a_min, a_max, n_a, b_min, b_max, n_b):
            group = affine_group(a_min, a_max, n_a, b_min, b_max, n_b)
            group.b_nodes = b_min + (np.arange(n_b) + 0.5) * ((b_max - b_min) / n_b)
            return group

        b = uncentred(0.5, 2.0, 3, -2.0, 2.0, 31).b_nodes
        assert not np.array_equal(b[::-1], -b)
        monkeypatch.setattr(qha.groups, "affine_group", uncentred)
        with pytest.raises(GridError, match="symmetric"):
            WaveletAction(ODD_WAVELET)

    def test_bracket_integral_matches_weighted_values(self):
        # every family integrates against its own action.haar: counting
        # (permutation, twisted dual), probability (s3) and quadrature weights
        actions = {sid: build_scenario(ScenarioSpec(sid)).action
                   for sid in ("translation:cyclic(6)", "irrep:s3:std", "twisted-dual:4:1")}
        actions["small-wavelet"] = WaveletAction(SMALL_WAVELET)
        assert actions["irrep:s3:std"].haar.normalization == "probability"
        wavelet = actions["small-wavelet"]
        assert np.array_equal(wavelet.haar.weights, wavelet.group.haar_weights)
        for name, act in actions.items():
            rng = np.random.default_rng(12)
            x, y = act.random_positive(rng), act.random_positive(rng)
            fast = act.bracket_integral(x, y)
            slow = np.dot(act.haar.weights, act.bracket_values(x, y))
            assert abs(fast - slow) < 1e-9 * (1 + abs(slow)), name


WAVELETS = {"small-wavelet": SMALL_WAVELET, "default": WaveletDesign()}


def _wavelet(grid):
    if grid == "small-wavelet":
        return WaveletAction(SMALL_WAVELET)
    if grid == "odd-n_b":
        return WaveletAction(ODD_WAVELET)
    return build_scenario(ScenarioSpec(f"affine-wavelet:{grid}")).action


def _dot_product_bound(x, y):
    """2 (n + 2) eps ||x||_F ||y||_F, n = |r||c| for the nonzero rows r and
    columns c of x: how far two evaluations of the wavelet bracket values can
    lie apart in floating point.

    Every value is a sum of n terms W conj(y) x with |W| = 1, over entries of
    y that are distinct for a fixed dilation, so the absolute terms sum to at
    most ||x||_F ||y||_F (Cauchy-Schwarz).  In any summation order, to first
    order in the unit roundoff u = eps / 2, an evaluation errs by at most
    (n - 1) u for the additions plus 6 u for the complex products that form a
    term and the combination of partial sums, times that sum: (n + 5) u,
    which is at most (n + 2) eps for n >= 1.  Two evaluations differ by at
    most twice that.
    """
    xb, yb = x.blocks[0], y.blocks[0]
    n = np.count_nonzero(np.any(xb != 0, axis=1)) * np.count_nonzero(np.any(xb != 0, axis=0))
    return 2 * (n + 2) * np.finfo(float).eps * np.linalg.norm(xb) * np.linalg.norm(yb)


BAND_KINDS = ("positive", "two-bump", "wrapping", "diagonal", "zero", "dense")


def _band_element(act, kind, rng):
    """One block of a band-kernel test input: ``random_positive`` with its
    floor on the whole diagonal; two bumps with a gap between their supports,
    coupled off the diagonal; a dense block whose rows and columns wrap past
    K - 1; a diagonal; zero; a dense random element."""
    K = act.grid_size
    if kind == "positive":
        return act.random_positive(rng).blocks[0]
    if kind == "two-bump":
        c = 1.6 * act.design.support_octaves
        u, w = loop_bump_vector(act, -c, 0.2, 0.3), loop_bump_vector(act, c, 0.15, -0.5)
        assert not (u * w).any() and not u[act.center] and not w[act.center]
        return np.outer(u, u.conj()) + np.outer(w, w.conj()) + (0.5 - 1j) * np.outer(u, w.conj())
    if kind == "diagonal":
        return np.diag(rng.standard_normal(K) + 1j * rng.standard_normal(K))
    if kind == "dense":
        return random_element(act.shape, rng).blocks[0]
    x = np.zeros((K, K), dtype=complex)
    if kind == "wrapping":
        idx = np.arange(-K // 8, K // 8) % K
        x[np.ix_(idx, idx)] = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal((idx.size, idx.size))
    return x


def _per_shift_sum(act, s, m):
    """sum_j s[j % K] roll(m, (j, j)) over the dilations j, one at a time."""
    return sum(s[j % act.grid_size] * np.roll(m, (j, j), axis=(0, 1)) for j in act.shifts)


def _dilation_sum_bound(act):
    """(2 n_a + 2) eps: how far two evaluations of an entry of
    b_kernel * sum_j s_j roll(m, (j, j)) can lie apart, relative to
    |b_kernel| sum_j |s_j| |m[. - j, . - j]|.

    The real and the imaginary part of the sum are each n_a real products
    summed in some order, and err by at most gamma_{n_a} times the sum of
    their absolute terms, so the complex sum by sqrt(2) gamma_{n_a} of the
    absolute one; the product with the real kernel adds u = eps / 2.  To
    first order an evaluation errs by (sqrt(2) n_a + 1) u, and two by at
    most twice that.
    """
    return (2 * act.n_a + 2) * np.finfo(float).eps


class TestWaveletKernels:
    """The circulant dilation sum, support restriction and probe quadratic
    forms against the per-node and per-shift definitions they rewrite."""

    @pytest.mark.parametrize("grid", ["small-wavelet", "default", "odd-n_b"])
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_orbit_sum_matches_the_per_shift_sum(self, grid, kind):
        act = _wavelet(grid)
        x = _band_element(act, kind, np.random.default_rng(40))
        s = act._orbit_weights
        ref = act.b_kernel * _per_shift_sum(act, s, x)
        fast = act.orbit_sum(AlgebraElement(act.shape, [x])).blocks[0]
        # each entry within the bound of its own dilation sum, so exactly zero
        # where no dilation reaches a nonzero of x
        bound = _dilation_sum_bound(act) * np.abs(act.b_kernel) * _per_shift_sum(act, np.abs(s), np.abs(x))
        assert np.all(np.abs(fast - ref) <= bound)
        # the cyclic diagonals x does not hold stay exact zeros
        K = act.grid_size
        diagonal = (np.arange(K) - np.arange(K)[:, None]) % K
        assert not fast[~np.isin(diagonal, diagonal[x != 0])].any()

    def test_orbit_sum_keeps_the_zero_diagonals(self):
        # a joint roll maps each cyclic diagonal of x to itself: the diagonals
        # where x vanishes stay exactly zero in the sum, wrapping or not
        act = WaveletAction(SMALL_WAVELET)
        K = act.grid_size
        rng = np.random.default_rng(46)
        x = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        diagonal = (np.arange(K) - np.arange(K)[:, None]) % K
        x[diagonal % 3 != 0] = 0.0
        fast = act.orbit_sum(AlgebraElement(act.shape, [x])).blocks[0]
        ref = act.b_kernel * _per_shift_sum(act, act._orbit_weights, x)
        assert np.abs(fast - ref).max() < 1e-12 * np.abs(ref).max()
        assert not fast[diagonal % 3 != 0].any()

    @pytest.mark.parametrize("grid", ["small-wavelet", "default", "odd-n_b"])
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_bracket_integral_matches_the_per_shift_sum(self, grid, kind):
        # sum_{p,q} conj(y[p, q]) S[p, q] with S = sum_j w_j roll(b_kernel * x, (j, j)),
        # against y of every kind
        act = _wavelet(grid)
        rng = np.random.default_rng(48)
        x = _band_element(act, kind, rng)
        m = act.b_kernel * x
        S = _per_shift_sum(act, act._dilation_weights, m)
        S_abs = _per_shift_sum(act, np.abs(act._dilation_weights), np.abs(m))
        for other in BAND_KINDS:
            y = _band_element(act, other, rng)
            ref = np.sum(y.conj() * S)
            fast = act.bracket_integral(AlgebraElement(act.shape, [x]), AlgebraElement(act.shape, [y]))
            # the sum of N = nnz(y) products, each of a dilation sum of n_a
            # terms: to first order in u = eps / 2, an evaluation errs by at
            # most (sqrt(2) n_a + 2 sqrt(2) + N - 1) u times the sum of the
            # absolute terms, below (N + 2 n_a + 4) u; two by twice that
            N = np.count_nonzero(y)
            bound = (N + 2 * act.n_a + 4) * np.finfo(float).eps * np.sum(np.abs(y) * S_abs)
            assert abs(fast - ref) <= bound, other
            if not (x.any() and y.any()):
                assert fast == 0

    @pytest.mark.parametrize("grid", ["small-wavelet", "coarse", "default", "fine", "scaled(4)"])
    def test_b_kernel_is_the_phase_gram(self, grid):
        if grid == "small-wavelet":
            act = WaveletAction(SMALL_WAVELET)
        elif grid == "scaled(4)":
            act = WaveletAction(WaveletDesign().scaled(4))
        else:
            act = build_scenario(ScenarioSpec(f"affine-wavelet:{grid}")).action
        P = np.exp(-2j * np.pi * np.outer(act.b_nodes, act.xi))
        oracle = act.db * (P.T @ P.conj())
        kernel = act.b_kernel
        assert kernel.dtype == np.float64
        assert np.array_equal(kernel, kernel.T)
        assert np.all(np.diag(kernel) == act.n_b * act.db)
        assert np.abs(kernel - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_phase_table_is_built_on_first_use(self):
        # bracket_values alone reads it, and only its rows b >= 0; an odd n_b
        # has b = 0 among them
        for design in (SMALL_WAVELET, ODD_WAVELET):
            act = WaveletAction(design)
            x = act.random_positive(np.random.default_rng(47))
            act.orbit_sum(x)
            act.bracket_integral(x, x)
            assert "phases" not in vars(act)
            act.bracket_values(x, x)
            P = vars(act)["phases"]
            assert P.shape == (act.n_b - act.n_b // 2, act.grid_size)
            full = np.exp(-2j * np.pi * np.outer(act.b_nodes, act.xi))
            assert np.array_equal(P, full[act.n_b // 2:])

    def test_aliased_b_grid_is_rejected(self):
        # db = 1 on a frequency range near 8: the b-grid cannot tell
        # frequencies an integer apart
        with pytest.raises(GridError, match="aliases"):
            WaveletAction(WaveletDesign(n_b=16))

    @pytest.mark.parametrize("preset", WAVELETS)
    def test_orbit_sum_matches_apply(self, preset):
        act = WaveletAction(WAVELETS[preset])
        x = act.random_element(np.random.default_rng(41))
        ref = np.zeros_like(x.blocks)
        for w, g in zip(act.haar.weights / act.modular_values(), nodes_of(act)):
            ref += w * act.apply(g, x).blocks
        fast = act.orbit_sum(x).blocks
        assert np.abs(fast - ref).max() < 1e-12 * np.abs(ref).max()

    def test_bracket_values_of_zero(self):
        act = WaveletAction(SMALL_WAVELET)
        y = act.random_element(np.random.default_rng(43))
        values = act.bracket_values(act.shape.zero(), y)
        assert values.shape == (act.group.node_count,) and not values.any()

    @pytest.mark.parametrize("corner", [(0, -1), (-1, 0), (-1, -1)])
    def test_bracket_values_single_corner_entry(self, corner):
        # one nonzero entry at a grid corner: every dilation wraps its row or column
        act = WaveletAction(SMALL_WAVELET)
        y = random_element(act.shape, np.random.default_rng(44))  # dense, to reach the corners
        mat = np.zeros((act.grid_size, act.grid_size), dtype=complex)
        mat[corner] = 1.0 - 2.0j
        x = AlgebraElement(act.shape, [mat])
        ref = np.array([trace(act.apply(g, y).adjoint() @ x) for g in nodes_of(act)])
        fast = act.bracket_values(x, y)
        assert np.abs(ref).max() > 0
        assert np.abs(fast - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("grid", ["small-wavelet", "coarse", "default", "odd-n_b"])
    @pytest.mark.parametrize("kind", ["general", "positive"])
    def test_bracket_values_match_the_per_shift_oracle(self, grid, kind):
        # a positive x carries a spectral floor on its whole diagonal: every
        # row and column of x is nonzero
        act = _wavelet(grid)
        rng = np.random.default_rng(49)
        x = act.random_positive(rng) if kind == "positive" else act.random_element(rng)
        y = act.random_element(rng)
        gap = np.abs(act.bracket_values(x, y) - loop_wavelet_bracket(act, x, y)).max()
        assert gap <= _dot_product_bound(x, y)

    @pytest.mark.parametrize("grid", ["small-wavelet", "default", "odd-n_b"])
    def test_bracket_values_match_across_piece_boundaries(self, grid, monkeypatch):
        act = _wavelet(grid)
        rng = np.random.default_rng(50)
        x, y = act.random_element(rng), act.random_element(rng)
        ref = act.bracket_values(x, y)
        # at a one-byte budget every piece of A is one row of r, every chunk
        # of W and T one b >= 0 with its -b
        monkeypatch.setattr(qha.algebra, "STACK_BYTES", 1)
        assert stack_size(16 * act.grid_size ** 2) == 1
        assert np.abs(act.bracket_values(x, y) - ref).max() <= _dot_product_bound(x, y)

    def test_default_bracket_takes_several_pieces(self):
        # at the real budget a piece of A holds |c| n_a entries a row of r, so
        # the default grid's elements are cut into more than one piece
        act = _wavelet("default")
        x = act.random_element(np.random.default_rng(51)).blocks[0]
        r, c = np.flatnonzero(np.any(x != 0, axis=1)), np.flatnonzero(np.any(x != 0, axis=0))
        assert 1 < stack_size(16 * act.n_a * c.size) < r.size

    def test_pairings_are_probe_traces(self):
        act = WaveletAction(SMALL_WAVELET)
        a = act.random_element(np.random.default_rng(45))
        assert act.probes.shape == (10, act.grid_size)
        ref = np.array([trace(a @ AlgebraElement(act.shape, [np.outer(v, v.conj())]))
                        for v in act.probes])
        assert np.abs(act.pairings(a) - ref).max() < 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("grid", ["small-wavelet", "coarse", "default"])
    def test_bracket_integral_matches_roll_sum(self, grid):
        # the dilation sum paired on the cyclic diagonals against the
        # per-shift definition: sum_j w_j trace(conj(y).T roll(b_kernel * x.T, (j, j)))
        act = _wavelet(grid)
        rng = np.random.default_rng(48)
        x, y = act.random_element(rng), act.random_element(rng)
        m = act.b_kernel * x.blocks[0].T
        ref = sum(act._dilation_weights[j % act.grid_size]
                  * np.sum(y.blocks[0].conj().T * np.roll(m, (j, j), axis=(0, 1)))
                  for j in act.shifts)
        assert abs(act.bracket_integral(x, y) - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("grid", ["small-wavelet", "default", "fine"])
    def test_random_positive_is_the_outer_product_sum(self, grid):
        # the rank-3 product with its floor added on the diagonal in place,
        # against the three outer products plus the floor times the identity,
        # drawn from the same stream in the same order
        act = _wavelet(grid)
        for seed in range(5):
            fast = act.random_positive(np.random.default_rng(seed)).blocks[0]
            rng, r, K = np.random.default_rng(seed), act.design.support_octaves, act.grid_size
            ref = np.zeros((K, K), dtype=complex)
            for _ in range(3):
                center = rng.uniform(-r / 3.0, r / 3.0)
                width = rng.uniform(0.12, 0.25)
                nu = rng.uniform(-1.0, 1.0)
                v = loop_bump_vector(act, center, width, nu)
                ref += np.outer(v, v.conj())
            ref += 1e-7 * float(np.abs(np.diag(ref)).max()) * np.eye(K)
            assert np.abs(fast - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("grid", ["small-wavelet", "default", "fine"])
    def test_batched_bumps_are_the_loop_bumps(self, grid):
        # every row bit for bit the bump evaluated alone, centers past both
        # ends of the grid included, and its support range the run of its
        # nonzero entries (empty for a bump off the grid)
        act = _wavelet(grid)
        rng = np.random.default_rng(53)
        edge = act.design.octaves / 2 + 1.5 * act.design.support_octaves
        params = np.stack([rng.uniform(-edge, edge, 64), rng.uniform(0.12, 0.25, 64),
                           rng.uniform(-1.0, 1.0, 64)])
        V, support = act.bumps(*params)
        for v, (c, w, nu), (lo, hi) in zip(V, params.T, support):
            assert v.tobytes() == loop_bump_vector(act, c, w, nu).tobytes()
            assert np.array_equal(np.flatnonzero(v), np.arange(lo, hi))
        assert (support[:, 0] == support[:, 1]).any() and (support[:, 0] == 0).any()
        assert (support[:, 1] == act.grid_size).any()
        probes = [loop_bump_vector(act, c, 0.18, nu) for c in (-0.5, -0.25, 0.0, 0.25, 0.5)
                  for nu in (0.0, 0.7)]
        assert act.probes.tobytes() == np.array(probes).tobytes()

    @pytest.mark.parametrize("grid", ["small-wavelet", "default", "coarse", "fine"])
    def test_draws_are_the_loop_draws(self, grid):
        # the batched draws consume the stream as the bump-by-bump oracle
        # does and give its arrays bit for bit
        act = _wavelet(grid)
        for seed in range(4):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                x = act.random_element(fast).blocks[0]
                assert x.tobytes() == loop_wavelet_element(act, slow).tobytes()
                x = act.random_positive(fast).blocks[0]
                assert x.tobytes() == loop_wavelet_positive(act, slow).tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state


class TestComparisonHooks:
    """Element draws and operator comparisons that the law checks delegate to."""

    def test_base_draws_are_dense_random_elements(self):
        act = conjugation_action(*weyl_heisenberg(3))
        a, b = np.random.default_rng(20), np.random.default_rng(20)
        assert sup_distance(act.random_element(a), random_element(act.shape, b)) == 0.0
        assert sup_distance(act.random_positive(a), random_positive_element(act.shape, b)) == 0.0

    def test_base_comparisons_are_entrywise(self):
        act = left_translation_action(cyclic(5), mu=np.full(5, 2.0))
        rng = np.random.default_rng(21)
        a, b = act.random_positive(rng), act.random_positive(rng)
        assert act.cross_check_distance(a, b) == (a - b).max_abs_entry() / a.max_abs_entry()
        defect = max(((act.apply(g, a) - a).max_abs_entry() / a.max_abs_entry())
                     for g in act.sample_elements)
        # the hook reads the estimate's D, here a
        assert defect > 0.1 and act.semi_invariance_defect(SimpleNamespace(d=a)) == defect

    def test_wavelet_cross_check_is_weak_pairing(self):
        act = WaveletAction(SMALL_WAVELET)
        rng = np.random.default_rng(22)
        a, b = act.random_positive(rng), act.random_positive(rng)
        assert act.cross_check_distance(a, b) == act.weak_pairing_defect(a, b)
        assert act.cross_check_distance(a, b) != (a - b).max_abs_entry() / a.max_abs_entry()


class TestStructuralCheckers:
    def test_trace_preserving_conjugation(self):
        act = conjugation_action(*weyl_heisenberg(3))
        rep = is_trace_preserving(act, tol=FINITE_TOLERANCES["trace-preservation"])
        assert rep.passed and rep.lhs < 1e-12

    def test_trace_preserving_invariant_measure(self):
        act = left_translation_action(cyclic(4))
        assert is_trace_preserving(act, tol=FINITE_TOLERANCES["trace-preservation"]).passed

    def test_homomorphism_small_groups_all_pairs(self):
        rng = np.random.default_rng(13)
        for act in (conjugation_action(*weyl_heisenberg(3)),
                    left_translation_action(cyclic(6)),
                    dual_action(product(cyclic(2), cyclic(2)), 0)):
            assert probe_homomorphism_defect(act, rng) <= 1e-10
            assert homomorphism_defect(act) <= 1e-10

    def test_automorphism_defects(self):
        rng = np.random.default_rng(14)
        G, reps = s3_irreps()
        act = conjugation_action(G, reps["std"])
        assert probe_automorphism_defect(act, rng) <= 1e-10
        assert automorphism_defect(act) <= 1e-10

    def test_isometry_on_p_norms(self):
        rng = np.random.default_rng(15)
        for act in (conjugation_action(*weyl_heisenberg(4)),
                    coset_action(cyclic(6), [0, 2, 4])):
            assert probe_isometry_defect(act, rng) <= 1e-9
            assert isometry_defect(act) <= 1e-9

    def test_permutation_laws_are_exact(self):
        # gathers through a point table that composes: no roundoff at all
        act = coset_action(cyclic(6), [0, 2, 4])
        assert act.structure == ActionStructure("point-table", 0.0, 0.0, 0.0, 0.0)

    def test_wavelet_structure_waits_for_a_request(self):
        act = WaveletAction(SMALL_WAVELET)
        assert "structure" not in vars(act)
        assert act.structure.certificate == "node-phases"
        assert vars(act)["structure"] is act.structure


# Every builtin, the families the CI determinism step runs, and the negative
# control: the certificates against the randomized probes they replace.
CERTIFIED_IDS = (
    *list_builtins(), "broken-measure",
    "twisted-dual:16:1", "induced:cyclic(8)xcyclic(8):cyclic(2)xcyclic(2):wh2",
    "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):translation", "translation:cyclic(64)",
    "twisted-dual:12:1", "wh:16", "twisted-dual:24:1", "twisted-dual:24:0", "twisted-dual:5:2",
    "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):wh2",
)
EPS = float(np.finfo(float).eps)


def _probes(act, seed=1729):
    """The three randomized probes of the action-validity row, with the draws
    the suite made before the certificates replaced them."""
    rng = np.random.default_rng(seed)
    hom = probe_homomorphism_defect(act, rng, [act.random_element(rng) for _ in range(2)])
    return hom, probe_automorphism_defect(act, rng, 3), probe_isometry_defect(act, rng, 3)


def _slack(act):
    """Roundoff of a probe's own products: 8 n eps for blocks of size n."""
    return 8 * act.shape.block_dim * EPS


class TestCertificatesAgainstProbes:
    """Each residual of ``action.structure`` bounds what the randomized probe
    of the same law measures, up to the probe's own roundoff, and the trace
    residual is the matrix-unit loop."""

    @pytest.mark.parametrize("sid", [*CERTIFIED_IDS, "small-wavelet"])
    def test_probes_stay_below_the_certificate(self, sid):
        act = (WaveletAction(SMALL_WAVELET) if sid == "small-wavelet"
               else build_scenario(ScenarioSpec(sid, seed=1729)).action)
        hom, aut, iso = _probes(act)
        cert = act.structure
        assert hom <= cert.group_law + _slack(act)
        assert aut <= cert.automorphism + _slack(act)
        assert iso <= cert.isometry + _slack(act)
        if act.shape.total_dim <= 1200:  # the loop applies g to every matrix unit
            weight = max(act.shape.trace_weights)
            assert abs(probe_trace_defect(act) - cert.trace) <= _slack(act) * weight
        assert homomorphism_defect(act) == cert.group_law
        assert automorphism_defect(act) == cert.automorphism
        assert isometry_defect(act) == cert.isometry
        assert is_trace_preserving(act, tol=FINITE_TOLERANCES["trace-preservation"]).lhs == cert.trace

    def test_certificate_reads_no_seed(self):
        act = build_scenario(ScenarioSpec("wh:3")).action
        assert act.structure == build_scenario(ScenarioSpec("wh:3", seed=7)).action.structure


def _mutant_rows(act):
    """The two structural rows of run_suite on a bare scenario around ``act``."""
    scn = Scenario(ScenarioSpec("mutant"), act, FINITE_TOLERANCES, default_trials=4)
    rows = {r.name: r for r in run_suite(scn)}
    return rows["action-validity"], rows["trace-preservation"]


class TestCertificateMutants:
    """Mutants built directly, past the checks of the scenario builders."""

    def test_conjugation_with_non_invariant_trace_weights(self):
        # the generator swaps two blocks whose weights differ: every block
        # product is I, so the build accepts it, but tr(g.x) != tr(x)
        unitaries = np.broadcast_to(np.eye(2), (2, 2, 2, 2))
        act = ConjugationAction(cyclic(2), unitaries, np.array([[0, 1], [1, 0]]), (1.0, 2.0))
        assert act.structure.trace == probe_trace_defect(act) == 1.0
        validity, trace_row = _mutant_rows(act)
        assert not trace_row.passed and trace_row.lhs == 1.0
        assert not validity.passed  # the p-norms move with the weights

    def test_permutation_with_non_invariant_measure(self):
        G = cyclic(3)
        act = PermutationAction(G, G.table, np.array([1.0, 2.0, 4.0]), validate=False)
        # the generator moves a point mass on the atom of weight 1 to the
        # atom of weight 2, which doubles its 1-norm
        assert act.structure.isometry == 1.0
        assert act.structure.trace == probe_trace_defect(act) == 3.0
        assert _probes(act)[2] <= act.structure.isometry
        validity, trace_row = _mutant_rows(act)
        assert not validity.passed and not trace_row.passed
        assert "certificate=point-table" in validity.notes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_stack_certificate_reads_at_least_the_probe(self, seed):
        # the phases move on the support, so the stack stays monomial
        G, U = weyl_heisenberg(3)
        noise = np.random.default_rng(seed).standard_normal(U.shape + (2,)) @ [1.0, 1j]
        noise[G.identity] = 0.0
        noise[U == 0] = 0.0
        act = conjugation_action(G, U + 1e-12 * noise / np.abs(noise).max())  # accepted
        hom, aut, iso = _probes(act)
        cert = act.structure
        assert 1e-13 < hom <= cert.group_law
        assert 1e-13 < aut <= cert.automorphism
        assert iso <= cert.isometry
        # on one block of weight 1 both read max |U* U - I|, computed apart
        assert probe_trace_defect(act) == pytest.approx(cert.trace, rel=1e-9)
        assert cert.trace > 1e-13
        validity, trace_row = _mutant_rows(act)
        assert validity.lhs >= max(hom, aut, iso) and validity.passed
        assert trace_row.lhs == cert.trace and trace_row.passed


def _direct_sum(*stacks):
    """Block-diagonal sum of representation stacks of one group."""
    dims = [U.shape[1] for U in stacks]
    mats = np.zeros((stacks[0].shape[0], sum(dims), sum(dims)), dtype=complex)
    pos = 0
    for U, d in zip(stacks, dims):
        mats[:, pos:pos + d, pos:pos + d] = U
        pos += d
    return mats


def _two_cycle_action():
    """cyclic(3) x cyclic(6) on C^6 by (a, b) -> sigma^a D^b: sigma shifts
    the two cycles (0 1 2) and (3 4 5), D = diag(zeta^e) for
    zeta = exp(2 pi i / 6) and the distinct exponents e = (0, 2, 4, 3, 5, 1).
    e grows by 2 along each cycle, so sigma D sigma* = zeta^-2 D and the
    tables form a projective representation; its commutant holds the
    diagonals constant on each cycle, dimension 2."""
    a, b, c = np.ogrid[:3, :6, :6]
    e = np.array([0, 2, 4, 3, 5, 1])
    perm = np.broadcast_to(3 * (c // 3) + (c % 3 + a) % 3, (3, 6, 6)).reshape(18, 6)
    phase = np.broadcast_to(np.exp(1j * (2 * np.pi * (b * e[c] % 6) / 6)), (3, 6, 6)).reshape(18, 6)
    return conjugation_action(product(cyclic(3), cyclic(6)), MonomialStack(perm, phase))


class TestErgodicityCount:
    @pytest.mark.parametrize("sid", ORACLE_IDS)
    def test_structured_count_matches_dense_oracle(self, sid):
        act = build_scenario(ScenarioSpec(sid, seed=1729)).action
        assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 1

    @pytest.mark.parametrize("sid", ORACLE_IDS)
    def test_character_is_the_trace_of_apply(self, sid):
        # trace(x -> g.x) over the matrix-unit basis: the coefficient of e_k
        # in g.e_k, summed over k, at every element
        act = build_scenario(ScenarioSpec(sid, seed=1729)).action
        basis = list(act.shape.basis())
        direct = [sum(act.apply(g, e).vec()[k] for k, e in enumerate(basis))
                  for g in act.group.elements()]
        assert np.abs(act.character() - np.array(direct)).max() < 1e-12 * act.shape.total_dim

    @pytest.mark.parametrize("act", [
        conjugation_action(*weyl_heisenberg(3)),
        dual_action(product(cyclic(5), cyclic(5)), 2),
        WaveletAction(SMALL_WAVELET),
    ], ids=["conjugation", "twisted-dual", "wavelet"])
    def test_sampled_unitaries_conjugate_like_apply(self, act):
        rng = np.random.default_rng(16)
        x = random_element(act.shape, rng)
        blocks = x.blocks
        # the sampled rows of the tables, as the structure residuals read them
        src, tables = _sampled_tables(act)
        for g, row, Us in zip(act.sample_elements, src, tables.dense()):
            direct = AlgebraElement(act.shape, [U @ blocks[k] @ U.conj().T for k, U in zip(row, Us)])
            assert sup_distance(act.apply(g, x), direct) < 1e-10

    @pytest.mark.parametrize("case", ["small-wavelet", "std+sign", "two-cycles"])
    def test_table_count_matches_dense_oracle(self, case):
        # small-wavelet: the sampled shift-and-phase tables, one component.
        # std + sign of s3: the 3-cycles are diagonal with distinct joint
        # phases, the transpositions join the two indices of std and keep
        # sign's, so 2 components.  two-cycles: the table of _two_cycle_action,
        # one component per cycle
        if case == "small-wavelet":
            act, expected = WaveletAction(SMALL_WAVELET), 1
            tables = act.sampled_structure()[1][:, 0]
        else:
            if case == "std+sign":
                G, reps = s3_irreps()
                act = conjugation_action(G, _direct_sum(reps["std"], reps["sign"]))
            else:
                act = _two_cycle_action()
            expected, tables = 2, act.unitaries[:, 0]
        assert commutant_certificate(tables).dimension == dense_fixed_point_dimension(act) == expected
        assert fixed_point_dimension(act) == expected

    def test_degenerate_spectrum_counts_by_character(self):
        # std (x) 1_2: every diagonal member repeats each phase twice, so the
        # table count refuses it and names the gap; the character counts the
        # commutant 1 (x) M_2, dimension 4
        G, reps = s3_irreps()
        mats = np.array([np.kron(U, np.eye(2)) for U in reps["std"]])
        act = conjugation_action(G, mats)
        with pytest.raises(ActionError, match="relative gap"):
            commutant_certificate(MonomialStack.from_dense(mats))
        assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 4

    def test_trivial_rep_dim2(self):
        act = conjugation_action(cyclic(3), trivial_rep(cyclic(3), dim=2))
        assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 4

    def test_non_transitive_permutation(self):
        G = cyclic(2)
        act = PermutationAction(G, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]), np.ones(4))
        assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 2

    def test_induction_from_trivial_action(self):
        # cyclic(4) induced from the trivial action of {0, 2} on M_2: the two
        # coset copies form one orbit with identity holonomies, so the fixed
        # points are the copies of any 2 x 2 matrix
        G = cyclic(4)
        act = induced_action(G, [0, 2], conjugation_action(cyclic(2), trivial_rep(cyclic(2), dim=2)), [0, 1])
        assert act.kind == "induced" and act.shape.blocks_shape == (2, 2, 2)
        assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 4

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4], ids=["diagonal", "rotated"])
    def test_block_swap_with_holonomy(self, theta):
        # the generator of cyclic(4) swaps two 2 x 2 blocks and conjugates them
        # by A and B = A* Z, Z = diag(1, -1); its square conjugates block 0 by
        # A B = Z, so a fixed x has x_0 = Z x_0 Z, a diagonal matrix.  theta = 0
        # is A = 1; the rotation A = R(theta) gives blocks with no zero
        # entry, whose traces the character sums over whole diagonals.
        # A = R(theta) is not monomial, so the dense stand-in carries the
        # action to the counts.
        c, s = np.cos(theta), np.sin(theta)
        A, Z = np.array([[c, -s], [s, c]]), np.diag([1.0, -1.0])
        gen, gen_src = np.array([A, A.T @ Z]), np.array([1, 0])
        unitaries, src = [np.array([np.eye(2), np.eye(2)])], [np.arange(2)]
        for _ in range(3):
            unitaries.append(gen @ unitaries[-1][gen_src])
            src.append(src[-1][gen_src])
        act = DenseConjugation(cyclic(4), np.array(unitaries), np.array(src))
        assert probe_homomorphism_defect(act, np.random.default_rng(17)) < 1e-14
        assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 2
        if theta == 0.0:
            act = ConjugationAction(cyclic(4), np.array(unitaries), np.array(src), (1.0, 1.0))
            assert homomorphism_defect(act) < 1e-14
            assert fixed_point_dimension(act) == dense_fixed_point_dimension(act) == 2

    def test_large_degenerate_action_counts(self):
        # the trivial action on M_25 fixes every element: the character is
        # 625 = n^2 at both elements, past the reach of the dense oracle
        act = conjugation_action(cyclic(2), trivial_rep(cyclic(2), dim=25))
        assert fixed_point_dimension(act) == 625

    def test_phases_perturbed_below_the_thresholds_still_count(self):
        # moduli 1 + 4e-12 and angles within 2e-12 keep ||ph|^2 - 1| and the
        # product residuals of wh:4 below the 1e-11 the builder accepts; the
        # mean character stays 1 within the bound of fixed_point_dimension
        tables = finite_weyl_heisenberg(4)
        rng = np.random.default_rng(29)
        phase = tables.phase * (1 + 4e-12) * np.exp(1j * rng.uniform(-2e-12, 2e-12, tables.shape))
        phase[0] = 1.0
        act = conjugation_action(product(cyclic(4), cyclic(4)), MonomialStack(tables.perm, phase))
        assert fixed_point_dimension(act) == 1
        assert abs(np.mean(act.character()) - 1.0) <= 2e-10 * act.shape.total_dim

    @pytest.mark.parametrize("case", ["sources", "unitaries"])
    def test_tables_that_do_not_compose_raise(self, case):
        # sources: element 2 = 1 + 1 of cyclic(3) swaps the blocks as 1 does,
        # so the character averages 2/3.  unitaries: diag(1, exp(i)) squares
        # to no multiple of 1, and the character averages 3 + cos(1)
        if case == "sources":
            act = DenseConjugation(cyclic(3), np.ones((3, 2, 1, 1)), np.array([[0, 1], [1, 0], [1, 0]]))
        else:
            act = DenseConjugation(cyclic(2), np.array([[np.eye(2)], [np.diag([1.0, np.exp(1j)])]]),
                                   np.zeros((2, 1), dtype=int))
        with pytest.raises(ActionError, match="not a group action"):
            fixed_point_dimension(act)

    @pytest.mark.parametrize("preset", ["coarse", "default", "fine", "small"])
    def test_wavelet_certificate(self, preset):
        if preset == "small":
            act = WaveletAction(SMALL_WAVELET)
        else:
            act = build_scenario(ScenarioSpec(f"affine-wavelet:{preset}")).action
        # the a = 1 nodes separate the grid with a gap far above the margin,
        # and every shift edge has a unit phase
        cert = commutant_certificate(act.sampled_structure()[1][:, 0])
        assert cert.dimension == fixed_point_dimension(act) == 1
        assert cert.noise_floor == act.grid_size * np.finfo(float).eps
        assert cert.rel_gap > 1e6 * CERTIFICATE_MARGIN * cert.noise_floor
        assert abs(cert.min_coupling - 1.0) <= 2 * np.finfo(float).eps

    def test_import_leaves_scipy_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, qha; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
