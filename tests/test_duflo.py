"""Scaling-operator estimation and certification of the operator laws."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qha.algebra import (
    AlgebraElement,
    AlgebraShape,
    ParameterError,
    eigh_blocks,
    eigvalsh_blocks,
    from_eigh,
    op_norm,
    p_norm,
    random_element,
    random_positive_element,
    stack_size,
    sup_distance,
    trace,
)
from qha.actions import (
    WaveletAction,
    conjugation_action,
    s3_irreps,
)
from qha.actions import WaveletDesign
from qha.cli import refinement_metrics
import qha.duflo
from qha.duflo import (
    ALT_POWERS,
    CLAIMS,
    HOLDER_GRID,
    SUITE,
    YOUNG_GRID,
    EstimateError,
    InconsistencyError,
    admissibility_report,
    admissibility_tol,
    check_admissibility,
    check_alt,
    check_holder,
    check_interpolation,
    check_l1,
    check_orthogonality,
    check_semi_invariance,
    check_young,
    estimate_duflo,
    run_suite,
    suite_entry,
)
from qha.groups import cyclic, probability_haar
from qha.reports import CheckReport
from qha.scenarios import (
    _WAVELET_PRESETS,
    BUILTIN_IDS,
    FINITE_TOLERANCES,
    Scenario,
    build_scenario,
    builtin,
    refined_wavelet,
)

from helpers import (
    FINITE_ROWS,
    LOOP_CHECKS,
    WAVELET_ROWS,
    ScaledWavelet,
    loop_run_check,
    point_conjugation,
    weyl_heisenberg,
)


def _estimate(sid, seed=101):
    scn = build_scenario(builtin(sid, seed=seed))
    x1, x2 = scn.duflo_pair()
    est = estimate_duflo(scn.action, x1, x2, cross_tol=scn.tolerances["duflo-estimate"])
    return scn, est


class TestEstimate:
    def test_wh_brute_force_oracle(self):
        # oracle first: the exhaustive matrix-coefficient sum over all n^2
        # elements is n ||xi||^2 ||eta||^2, which pins D = (1/n) 1
        n = 3
        G, U = weyl_heisenberg(n)
        rng = np.random.default_rng(0)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        total = sum(abs(np.vdot(U[g] @ eta, xi)) ** 2
                    for g in G.elements())
        expect = n * np.linalg.norm(xi) ** 2 * np.linalg.norm(eta) ** 2
        assert total == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_wh_scalar(self, n):
        scn, est = _estimate(f"wh:{n}")
        assert est.scalar_flag
        assert est.scalar_value == pytest.approx(1.0 / n, rel=1e-12)

    @pytest.mark.parametrize("rep_name, dim", [("trivial", 1), ("sign", 1), ("std", 2)])
    def test_s3_irrep_dimension(self, rep_name, dim):
        scn, est = _estimate(f"irrep:s3:{rep_name}")
        assert est.scalar_flag
        assert est.scalar_value == pytest.approx(float(dim), rel=1e-12)

    def test_translation_exact_one(self):
        scn, est = _estimate("translation:cyclic(6)")
        assert abs(est.scalar_value - 1.0) <= 1e-12

    def test_cross_check_independence(self):
        for sid in ("wh:4", "translation:cyclic(6)", "irrep:s3:std",
                    "cosets:cyclic(6):cyclic(3)",
                    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"):
            scn, est = _estimate(sid)
            assert est.cross_check_residual <= 1e-8

    def test_rejects_non_positive_test_element(self):
        scn = build_scenario(builtin("wh:2"))
        rng = scn.rng("bad")
        x = random_element(scn.action.shape, rng)
        from qha.algebra import NotPositiveError

        with pytest.raises(NotPositiveError):
            estimate_duflo(scn.action, x)

    def test_inconsistency_error_on_broken_scenario(self):
        # with a non-invariant measure the two orbit densities disagree
        G = cyclic(2)
        act = point_conjugation(G, G.table, (1.0, 2.0))
        x1 = AlgebraElement(act.shape, [np.array([[1.0]]), np.array([[0.0]])])
        x2 = AlgebraElement(act.shape, [np.array([[0.0]]), np.array([[0.5]])])
        with pytest.raises(InconsistencyError):
            estimate_duflo(act, x1, x2, cross_tol=1e-8)

    def test_estimate_non_ergodic_raises(self):
        from qha.actions import trivial_rep

        act = conjugation_action(cyclic(2), trivial_rep(cyclic(2), dim=2))
        rng = np.random.default_rng(5)
        x = random_positive_element(act.shape, rng)
        # trivial action: the orbit density stays the (positive) test element,
        # which is fine; but a rank-deficient test element is not
        xi = np.array([1.0, 0.0])
        x = AlgebraElement(act.shape, [np.outer(xi, xi)])
        with pytest.raises(EstimateError):
            estimate_duflo(act, x)

    def test_powers(self):
        scn, est = _estimate("wh:4")
        half = est.power(0.5)
        assert sup_distance(half @ half, est.d) < 1e-10
        minus = est.power(-1.0)
        assert sup_distance(minus, est.d_inverse) < 1e-10

    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_lazy_values_equal_the_eager_ones(self, sid):
        # the eager construction: eigh of D^{-1}, D and its powers from that
        # eigenbasis, and the scalar diagnostics of that D
        scn, est = _estimate(sid)
        assert "spectrum" not in vars(est) and "d" not in vars(est)
        # the eigenvalues too are formed on first read, by eigvalsh
        assert "eigenvalues" not in vars(est)
        assert np.array_equal(est.eigenvalues, eigvalsh_blocks(est.d_inverse))
        eig = eigh_blocks(est.d_inverse)
        d = from_eigh(est.d_inverse.shape, eig, np.reciprocal)
        assert np.array_equal(est.d.blocks, d.blocks)
        for t in (-0.5, 0.5, 1.0):
            eager = from_eigh(d.shape, eig, lambda w: w ** (-t))
            assert np.array_equal(est.power(t).blocks, eager.blocks)
        # cond(D) and the smallest eigenvalue read the eigvalsh eigenvalues,
        # eigh's to a few ulps: LAPACK's eigenvalue-only tridiagonal solver is
        # another algorithm than the one that also returns eigenvectors
        w = eig[0]
        eps = np.finfo(float).eps
        assert est.min_eigenvalue == pytest.approx(float(w.min()), rel=8 * eps, abs=0.0)
        assert est.condition() == pytest.approx(float(w.max() / w.min()), rel=8 * eps, abs=0.0)
        # the scalar diagnostics read the eigvalsh spectrum; the eager ones form
        # D - c 1.  Both solvers are backward stable, so each eigenvalue of
        # D^{-1} moves by at most about n eps ||D^{-1}||, and each eigenvalue
        # 1/w of D by n eps cond(D) of itself: c, a positive mean of them, by
        # n eps cond(D) |c|, and ||D - c 1|| / |c| by n eps cond(D) times
        # (||D|| / |c| + 1); the factor 2 covers the products and sums of the
        # eager D, each n eps of ||D||
        c, off = est._scalar_form
        c_eager = trace(d).real / trace(d.shape.identity()).real
        off_eager = op_norm(d - d.shape.scalar(c_eager)) / abs(c_eager)
        rounding = 2 * d.shape.block_dim * eps * est.condition()
        assert abs(c - c_eager) <= rounding * abs(c)
        assert abs(off - off_eager) <= rounding * (1.0 / (est.min_eigenvalue * abs(c)) + 1.0)
        assert est.off_scalar_residual == off
        assert est.scalar_flag == (off <= 1e-8) == (off_eager <= 1e-8)
        assert est.scalar_value == (c if off <= 1e-8 else None)

    @pytest.mark.parametrize("sid", ["wh:4", "irrep:s3:std", "affine-wavelet:default"])
    def test_scalar_diagnostics_form_no_eigenbasis(self, sid):
        scn, est = _estimate(sid)
        flag, value, off = est.scalar_flag, est.scalar_value, est.off_scalar_residual
        assert flag == (value is not None) == (off <= 1e-8)
        assert "spectrum" not in vars(est) and "d" not in vars(est)

    def test_scalar_flag_tolerance_is_the_finite_estimate_entry(self):
        # the off-scalar part of D is resolved only to the agreement of two
        # estimates of D^{-1}, the finite duflo-estimate entry
        assert qha.duflo.SCALAR_FLAG_TOL == FINITE_TOLERANCES["duflo-estimate"] == 1e-8

    def test_non_positive_d_inverse_raises(self, monkeypatch):
        # a D^{-1} with a negative eigenvalue fails the eigenvalue-only
        # positivity test, and no eigenbasis is taken
        scn = build_scenario(builtin("wh:3"))
        original = qha.duflo._orbit_density

        def mutant(action, x):
            d_inv = original(action, x)
            e0 = np.zeros(d_inv.blocks.shape, dtype=complex)
            e0[:, 0, 0] = 2.0 * np.linalg.eigvalsh(d_inv.blocks).max()
            return d_inv - AlgebraElement(d_inv.shape, e0)

        monkeypatch.setattr(qha.duflo, "_orbit_density", mutant)
        monkeypatch.setattr(qha.duflo, "eigh_blocks", lambda x: pytest.fail("eigh taken"))
        with pytest.raises(EstimateError, match="not positive definite"):
            estimate_duflo(scn.action, *scn.duflo_pair(), cross_tol=scn.tolerances["duflo-estimate"])

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, 0.5, 2.0)], ids=["one-block", "weighted-blocks"])
    @pytest.mark.parametrize("ratio", [1e-12 * (1 - 1e-2), 1e-12 * (1 + 1e-2), 1e-3, 1e-20, -1e-3])
    def test_positivity_verdict_is_the_eigvalsh_rule(self, weights, ratio, monkeypatch):
        # D^{-1} with largest eigenvalue 1 in the first block and smallest
        # ratio in the last: the estimate passes exactly when the eigvalsh
        # rule min_eig > 1e-12 max_eig over all blocks does, and eigvalsh is
        # taken only where the shifted Cholesky factorization fails
        n, t = 8, len(weights)
        rng = np.random.default_rng(60)
        w = np.geomspace(1.0, 1e-6, n) * np.geomspace(1.0, 1e-2, t)[:, None]
        w[-1, -1] = ratio
        V = np.linalg.qr(rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n)))[0]
        blocks = (V * w[:, None, :]) @ V.conj().swapaxes(1, 2)
        d_inv = AlgebraElement(AlgebraShape(n, weights), 0.5 * (blocks + blocks.conj().swapaxes(1, 2)))
        eig = np.linalg.eigvalsh(d_inv.blocks)
        rule = eig.min() > 1e-12 * eig.max()
        assert rule == (ratio > 1e-12)
        calls = []
        monkeypatch.setattr(qha.duflo, "_orbit_density", lambda action, x: d_inv)
        monkeypatch.setattr(qha.duflo, "eigvalsh_blocks", lambda x: calls.append(x) or eigvalsh_blocks(x))
        if rule:
            estimate_duflo(None, None)
        else:
            with pytest.raises(EstimateError, match="not positive definite"):
                estimate_duflo(None, None)
        assert bool(calls) == (ratio < 1e-6)

    def test_refine_levels_form_no_eigenvalue(self, monkeypatch):
        # every level of refine --grids 3 certifies positivity by Cholesky and
        # reads no eigenvalue of D^{-1}
        levels = [refined_wavelet(build_scenario(builtin("affine-wavelet:default")), level) for level in range(3)]

        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue was formed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for scn in levels:
            metrics = refinement_metrics(scn)
            assert metrics["nodes"] == scn.action.group.node_count and metrics["cross_check"] > 0

    def test_refine_level_working_set(self):
        # complex K x K arrays live at the peak of a level, the estimate of
        # the cross-check density: both test elements, the normalized copy,
        # D^{-1}, the raw orbit sum and its hermitian part; the action's real
        # b_kernel is half of one more.  One more is left for the arrays of
        # size K and of the axes, none of which holds a value per node.
        live = 2 + 1 + 1 + 1 + 1 + 0.5
        c = live + 0.5
        spec = builtin("affine-wavelet:default")
        refinement_metrics(refined_wavelet(build_scenario(spec), 0))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            scn = refined_wavelet(build_scenario(spec), 2)
            refinement_metrics(scn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K = scn.action.shape.block_dim
        assert scn.action.group.node_count == 197632
        assert peak <= c * 16 * K * K, peak / (16 * K * K)

    def test_estimate_is_c_ordered(self):
        for sid in ("affine-wavelet:coarse", "wh:4", "twisted-dual:4:1"):
            scn = build_scenario(builtin(sid))
            est = estimate_duflo(scn.action, *scn.duflo_pair())
            assert est.d_inverse.blocks.flags.c_contiguous, sid

    def test_inverse_pair_multiplies_to_identity(self):
        for sid in ("wh:4", "irrep:s3:std", "twisted-dual:4:1", "affine-wavelet:coarse"):
            scn = build_scenario(builtin(sid))
            x1, x2 = scn.duflo_pair()
            est = estimate_duflo(scn.action, x1, x2)
            one = scn.action.shape.identity()
            gap = sup_distance(est.d @ est.d_inverse, one)
            assert gap <= 1e-8 * op_norm(est.d @ est.d_inverse), sid


class TestOrthogonality:
    def test_identity_pair_wh(self):
        scn, est = _estimate("wh:4")
        one = scn.action.shape.identity()
        rep = check_orthogonality(scn.action, est, one, one,
                                  positive=True, tol=1e-9)
        assert rep.passed
        # counting Haar, n = 4: lhs = sum_g trace(1) = 16 * 4, rhs agrees
        assert rep.lhs.real == pytest.approx(64.0, rel=1e-12)

    def test_s3_rank_one_six_term_oracle(self):
        # oracle: the explicit 6-term matrix-coefficient sum with probability
        # Haar equals <xi, xi'> conj(<eta, eta'>) / d for the 2-dim irrep
        G, reps = s3_irreps()
        U = reps["std"]
        act = conjugation_action(G, U, haar=probability_haar(G))
        rng = np.random.default_rng(1)
        vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
        xi, xip, eta, etap = vecs
        lhs = sum((1.0 / 6.0) * np.vdot(U[g] @ eta, xi)
                  * np.conj(np.vdot(U[g] @ etap, xip))
                  for g in G.elements())
        rhs = np.vdot(xip, xi) * np.conj(np.vdot(etap, eta)) / 2.0
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # the same statement through the bracket machinery with rank-ones
        x = AlgebraElement(act.shape, [np.outer(xi, xip.conj())])
        y = AlgebraElement(act.shape, [np.outer(eta, etap.conj())])
        est = estimate_duflo(act, act.shape.identity())
        rep_check = check_orthogonality(act, est, x, y,
                                        positive=False, tol=1e-9)
        assert rep_check.passed

    @pytest.mark.parametrize("sid", BUILTIN_IDS)
    def test_right_side_is_the_sandwich_trace(self, sid):
        # trace(x) trace(D^{-1} y) is trace(x) trace(D^{-1/2} y D^{-1/2}) to
        # the roundoff of the spectral route, whose size admissibility_tol states
        scn, est = _estimate(sid)
        rng = scn.rng("orth-rhs")
        tol = admissibility_tol(est)
        for positive, draw in ((True, scn.action.random_positive), (False, scn.action.random_element)):
            x, y = draw(rng), draw(rng)
            y_eff = y if positive else y.adjoint()
            sandwich = est.sandwich(-0.5, y_eff)
            rhs = check_orthogonality(scn.action, est, x, y, positive=positive, tol=1e-9).rhs
            expected = trace(x) * trace(sandwich)
            assert abs(rhs - expected) <= tol * abs(trace(x)) * p_norm(sandwich, 1.0)

    def test_right_side_takes_no_spectral_power(self, monkeypatch):
        scn, est = _estimate("affine-wavelet:default")
        monkeypatch.setattr(type(est), "power", lambda self, t: pytest.fail("power called"))
        rng = scn.rng("orth-rhs")
        x, y = scn.action.random_positive(rng), scn.action.random_positive(rng)
        assert check_orthogonality(scn.action, est, x, y, tol=scn.tolerances["orthogonality-positive"]).passed

    def test_traceless_first_argument(self):
        scn, est = _estimate("wh:3")
        rng = scn.rng("traceless")
        x = random_element(scn.action.shape, rng)
        x = x - (trace(x) / trace(scn.action.shape.identity())) * scn.action.shape.identity()
        y = scn.action.random_positive(rng)
        lhs = scn.action.bracket_integral(x, y)
        assert abs(lhs) <= 1e-10 * p_norm(x, 2.0) * p_norm(y, 2.0) * scn.action.group.order

    def test_positive_pairs_all_finite_builtins(self):
        for sid in ("wh:2", "wh:5", "translation:cyclic(6)", "irrep:s3:std",
                    "cosets:cyclic(6):cyclic(3)", "twisted-dual:4:1",
                    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"):
            scn, est = _estimate(sid)
            rng = scn.rng("orth")
            for _ in range(5):
                x = scn.action.random_positive(rng)
                y = scn.action.random_positive(rng)
                rep = check_orthogonality(scn.action, est, x, y,
                                          positive=True, tol=1e-9)
                assert rep.passed, (sid, rep.rel_err)

    def test_general_pairs_adjoint_form(self):
        scn, est = _estimate("wh:4")
        rng = scn.rng("general")
        for _ in range(10):
            x = scn.action.random_element(rng)
            y = scn.action.random_element(rng)
            rep = check_orthogonality(scn.action, est, x, y,
                                      positive=False, tol=1e-9)
            assert rep.passed

    def test_bilinearity_cross_validation(self):
        # all 16 matrix-unit combinations pass iff random elements pass
        scn, est = _estimate("wh:2")
        basis = list(scn.action.shape.basis())
        basis_ok = all(
            check_orthogonality(scn.action, est, ei, ej,
                                positive=False, tol=1e-9).passed
            for ei in basis for ej in basis
        )
        rng = scn.rng("bilinear")
        random_ok = all(
            check_orthogonality(scn.action, est,
                                scn.action.random_element(rng), scn.action.random_element(rng),
                                positive=False, tol=1e-9).passed
            for _ in range(8)
        )
        assert basis_ok and random_ok


class TestPower:
    def test_each_exponent_is_computed_once(self, monkeypatch):
        _, est = _estimate("irrep:s3:std")
        calls, eighs = [], []
        original, original_eigh = qha.duflo.from_eigh, qha.duflo.eigh_blocks
        monkeypatch.setattr(qha.duflo, "from_eigh", lambda *a: calls.append(a) or original(*a))
        monkeypatch.setattr(qha.duflo, "eigh_blocks", lambda x: eighs.append(x) or original_eigh(x))
        half = est.power(0.5)
        assert est.power(0.5) is half and est.power(-0.5) is not half
        # the estimate took no eigenbasis; the first power took the one both share
        assert len(calls) == 2 and len(eighs) == 1
        assert sup_distance(half @ half, est.d) <= 1e-12 * op_norm(est.d)


class TestSemiInvariance:
    def test_finite_builtins(self):
        for sid in ("wh:4", "translation:cyclic(6)", "twisted-dual:4:1",
                    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"):
            scn, est = _estimate(sid)
            rep = check_semi_invariance(scn.action, est, tol=1e-9)
            assert rep.passed, sid

    @pytest.mark.parametrize("sid", ["affine-wavelet:coarse", "affine-wavelet:default"])
    @pytest.mark.parametrize("seed", [101, 1729])
    def test_wavelet_forms_match_the_pairings_of_d(self, sid, seed):
        # the quadratic forms of one solve against D^{-1}, against the probe
        # pairings of D and of each sampled g.D formed from the eigenbasis
        scn = build_scenario(builtin(sid, seed=seed))
        act = scn.action
        est = estimate_duflo(act, *scn.duflo_pair())
        defect = act.semi_invariance_defect(est)
        assert "spectrum" not in vars(est) and "d" not in vars(est)
        refs = act.pairings(est.d)
        oracle = 0.0
        for g in act.sample_elements:
            target = refs / act.group.modular(g)
            moved = act.pairings(act.apply(g, est.d))
            oracle = max(oracle, float(np.max(np.abs(moved - target) / np.abs(target))))
        # the defect is a pairing difference relative to the pairing, so
        # pairings that agree to cond(D) K eps relative move it by about that
        assert abs(defect - oracle) <= est.condition() * act.grid_size * np.finfo(float).eps

    def test_trivial_group_edge(self):
        scn, est = _estimate("translation:cyclic(1)")
        rep = check_semi_invariance(scn.action, est, tol=1e-12)
        assert rep.passed and rep.lhs == 0.0


class TestAdmissibility:
    def test_identity_gives_trace_of_d_inverse(self):
        scn, est = _estimate("wh:4")
        ok, value = check_admissibility(scn.action.shape.identity(), est, tol=admissibility_tol(est))
        assert ok.tolist() == [True]
        assert value[0] == pytest.approx(trace(est.d_inverse).real, rel=1e-11)

    def test_d_itself_gives_trace_of_identity(self):
        scn, est = _estimate("wh:4")
        ok, value = check_admissibility(est.d, est, tol=admissibility_tol(est))
        assert ok.tolist() == [True]
        assert value[0] == pytest.approx(trace(scn.action.shape.identity()).real, rel=1e-11)

    def test_two_path_identity_random(self):
        scn, est = _estimate("irrep:s3:std")
        rng = scn.rng("adm")
        for _ in range(20):
            ok, _ = check_admissibility(scn.action.random_positive(rng), est, tol=1e-11)
            assert ok.tolist() == [True]

    def test_tolerance_from_conditioning(self):
        # a scalar D leaves the floor; the wavelet's cond(D) K eps lifts it
        _, est = _estimate("wh:4")
        assert admissibility_tol(est) == 1e-11
        scn, est = _estimate("affine-wavelet:default")
        w = np.linalg.eigvalsh(est.d_inverse.blocks[0])
        expected = (w.max() / w.min()) * scn.action.shape.block_dim * np.finfo(float).eps
        assert admissibility_tol(est) == pytest.approx(expected, rel=1e-6)
        assert 1e-8 < admissibility_tol(est) < 1e-6

    def test_perturbed_d_inverse_still_fails(self):
        # D^{-1} off its cached spectrum by 1e-8 breaks the direct identity
        scn, est = _estimate("wh:4")
        bad = replace(est, d_inverse=(1.0 + 1e-8) * est.d_inverse)
        bad.spectrum = est.spectrum
        y = scn.action.random_positive(scn.rng("adm"))
        assert check_admissibility(y, est, tol=admissibility_tol(est))[0].tolist() == [True]
        assert check_admissibility(y, bad, tol=admissibility_tol(bad))[0].tolist() == [False]
        report = admissibility_report(y, bad)
        assert not report.passed and "tol=1.0e-11" in report.notes


class TestL1:
    def test_wh2_identity_sixteen_term_oracle(self):
        # oracle: direct 16-term sum for x = y = 1 equals trace(1)^2 = 4 with
        # D^{1/2} 1 D^{1/2} = D
        scn, est = _estimate("wh:2")
        act = scn.action
        one = scn.action.shape.identity()
        direct = 0.0
        for g in act.group.elements():
            moved = act.apply(g, est.d)
            direct += trace(moved.adjoint() @ one).real
        ineq, eq = check_l1(one, one, est, act, tol=(1e-9, 1e-9))
        assert eq.lhs.real == pytest.approx(direct, rel=1e-12)
        assert eq.rhs.real == pytest.approx(4.0, rel=1e-12)
        assert eq.passed and ineq.passed

    def test_positive_pair_consistency_with_orthogonality(self):
        scn, est = _estimate("wh:3")
        rng = scn.rng("l1pos")
        x = scn.action.random_positive(rng)
        y = scn.action.random_positive(rng)
        ineq, eq = check_l1(x, y, est, scn.action, tol=(1e-9, 1e-9))
        assert eq.passed
        # the equality side equals the orthogonality right-hand side with
        # y replaced by D^{1/2} y D^{1/2}
        ytil = est.sandwich(0.5, y)
        rep = check_orthogonality(scn.action, est, x, ytil,
                                  positive=True, tol=1e-9)
        assert rep.passed
        assert eq.lhs == pytest.approx(rep.lhs, rel=1e-11)

    def test_non_hermitian_inequality_slack(self):
        scn, est = _estimate("irrep:s3:std")
        rng = scn.rng("l1gen")
        for _ in range(20):
            x = scn.action.random_element(rng)
            y = scn.action.random_element(rng)
            ineq, eq = check_l1(x, y, est, scn.action, tol=(1e-9, 1e-9))
            assert ineq.passed and eq.passed
            assert ineq.lhs <= ineq.rhs + 1e-9 * ineq.rhs


class TestYoung:
    def test_translation_reduces_to_classical_convolution(self):
        # oracle: on the translation scenario the bracket is the correlation
        # sum, computed here by direct double loops
        n = 6
        scn, est = _estimate(f"translation:cyclic({n})")
        act = scn.action
        rng = scn.rng("young-classical")
        xf = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yf = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = AlgebraElement(act.shape, [np.array([[v]]) for v in xf])
        y = AlgebraElement(act.shape, [np.array([[v]]) for v in yf])
        vals = act.bracket_values(x, y)
        for g in range(n):
            corr = sum(xf[t] * np.conj(yf[(t - g) % n]) for t in range(n))
            assert vals[g] == pytest.approx(corr, abs=1e-12)
        # classical Young via the machinery (D = 1)
        for p, q, r in YOUNG_GRID:
            rep = check_young(x, y, p, q, r, est, act, tol=1e-9)
            assert rep.passed

    def test_equality_at_ones_for_positive_pair(self):
        scn, est = _estimate("wh:3")
        rng = scn.rng("young-eq")
        x = scn.action.random_positive(rng)
        y = scn.action.random_positive(rng)
        rep = check_young(x, y, 1.0, 1.0, 1.0, est, scn.action, tol=1e-9)
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-10)  # equality case

    def test_seeded_grid_wh4(self):
        scn, est = _estimate("wh:4")
        rng = scn.rng("young-grid")
        for t in range(40):
            p, q, r = YOUNG_GRID[t % len(YOUNG_GRID)]
            x = scn.action.random_element(rng)
            y = scn.action.random_element(rng)
            rep = check_young(x, y, p, q, r, est, scn.action, tol=1e-9)
            assert rep.passed

    def test_rejects_bad_exponents(self):
        scn, est = _estimate("wh:2")
        one = scn.action.shape.identity()
        with pytest.raises(ParameterError):
            check_young(one, one, 2.0, 2.0, math.inf, est, scn.action, tol=1e-9)
        with pytest.raises(ParameterError):
            check_young(one, one, 1.0, 2.0, 3.0, est, scn.action, tol=1e-9)

    def test_rejects_non_commuting(self):
        # a windowed element does not commute with the non-scalar quadrature D
        design = WaveletDesign(steps_per_octave=8, octaves=4, max_shift=8,
                               b_extent=4.0, n_b=64, support_octaves=0.5)
        act = WaveletAction(design)
        rng = np.random.default_rng(3)
        x1 = act.random_positive(rng)
        x2 = act.random_positive(rng)
        est = estimate_duflo(act, x1, x2)
        y = act.random_positive(rng)
        with pytest.raises(ParameterError):
            check_young(y, y, 1.0, 1.0, 1.0, est, act, tol=1e-9)


class TestInterpolation:
    def test_p1_matches_l1_bound(self):
        scn, est = _estimate("wh:3")
        rng = scn.rng("interp1")
        x = scn.action.random_element(rng)
        y = scn.action.random_element(rng)
        rep = check_interpolation(x, y, 1.0, est, scn.action, tol=1e-9)
        assert rep.passed
        # p = 1: bound is ||x||_1 ||D^{-1/2} y D^{-1/2}||_1
        expect = p_norm(x, 1.0) * p_norm(est.sandwich(-0.5, y), 1.0)
        assert rep.rhs == pytest.approx(expect, rel=1e-12)

    def test_endpoint_sup_bound(self):
        scn, est = _estimate("wh:4")
        rng = scn.rng("interp-inf")
        for _ in range(10):
            x = scn.action.random_element(rng)
            y = scn.action.random_element(rng)
            rep = check_interpolation(x, y, math.inf, est, scn.action,
                                      tol=1e-9)
            assert rep.passed
            assert rep.rhs == pytest.approx(p_norm(x, math.inf) * p_norm(y, 1.0), rel=1e-12)
            # one claim for the row; the notes name the endpoint variant
            assert rep.claim == CLAIMS["interpolation-bound"]
            assert rep.notes == "p=inf sup-norm endpoint: sup|<x|y>| <= ||x||_inf ||y||_1"

    def test_p2_seeded(self):
        scn, est = _estimate("wh:4")
        rng = scn.rng("interp2")
        for _ in range(20):
            rep = check_interpolation(scn.action.random_element(rng), scn.action.random_element(rng),
                                      2.0, est, scn.action, tol=1e-9)
            assert rep.passed


class TestSpotInequalities:
    def test_holder_grid(self):
        scn, _ = _estimate("wh:4")
        rng = scn.rng("holder")
        for t in range(30):
            p, q, r = HOLDER_GRID[t % len(HOLDER_GRID)]
            rep = check_holder(scn.action.random_element(rng), scn.action.random_element(rng),
                               p, q, r, tol=1e-9)
            assert rep.passed

    def test_alt_powers(self):
        scn, _ = _estimate("wh:4")
        rng = scn.rng("alt")
        for t in range(30):
            r = ALT_POWERS[t % len(ALT_POWERS)]
            rep = check_alt(scn.action.random_positive(rng), scn.action.random_positive(rng),
                            r, tol=1e-9)
            assert rep.passed


class TestRunSuite:
    def test_s3_suite_all_pass(self):
        reports = run_suite(build_scenario(builtin("irrep:s3:std")))
        assert reports and all(r.passed for r in reports)

    def test_wh4_suite_all_pass(self):
        reports = run_suite(build_scenario(builtin("wh:4")))
        assert reports and all(r.passed for r in reports)

    def test_broken_measure_fails_trace_preservation(self):
        reports = run_suite(build_scenario(builtin("broken-measure")))
        by_name = {r.name: r for r in reports}
        assert not by_name["trace-preservation"].passed
        assert not all(r.passed for r in reports)

    def test_non_trace_preserving_wavelet_fails_the_structural_rows(self):
        # g.x = a^{1/2} U_g x U_g*: a homomorphism that moves the trace and the unit
        scn = Scenario(builtin("affine-wavelet:default"), ScaledWavelet(_WAVELET_PRESETS["default"]))
        failed = {r.name for r in run_suite(scn) if not r.passed}
        assert {"trace-preservation", "action-validity"} <= failed
        passed = {r.name for r in run_suite(build_scenario(builtin("affine-wavelet:default"))) if r.passed}
        assert {"trace-preservation", "action-validity"} <= passed

    @pytest.mark.parametrize("sid,rows", [
        ("broken-measure", tuple(r for r in FINITE_ROWS if r != "duflo-expected-scalar")),
        ("affine-wavelet:coarse", WAVELET_ROWS),
    ])
    def test_rows_after_a_failed_estimate_are_skipped(self, sid, rows):
        reports = run_suite(build_scenario(builtin(sid)))
        assert tuple(r.name for r in reports) == rows
        estimate = rows.index("duflo-estimate")
        assert not reports[estimate].passed
        assert reports[estimate].claim == CLAIMS["duflo-estimate"]
        later = reports[estimate + 1:]
        assert all(r.skipped and r.passed for r in later)
        assert {r.notes for r in later} == {f"no estimate of D: {reports[estimate].notes}"}
        # the claims are those of a run in which the estimate succeeds
        claims = {r.name: r.claim for r in run_suite(build_scenario(builtin(
            "wh:3" if sid == "broken-measure" else "affine-wavelet:default")))}
        assert all(r.claim == claims[r.name] for r in later)

    def test_claims_and_suite_name_the_same_rows(self):
        rows = [name for row in SUITE for name in row.rows]
        assert len(rows) == len(set(rows))
        # trace-preservation's claim is with is_trace_preserving in qha.actions
        assert set(CLAIMS) == set(rows) - {"trace-preservation"}

    @pytest.mark.parametrize("sid", ["broken-measure", "affine-wavelet:coarse"])
    def test_skipped_rows_are_the_applicable_entries_after_the_estimate(self, sid):
        scn = build_scenario(builtin(sid))
        after = next(i for i, row in enumerate(SUITE) if "duflo-estimate" in row.rows) + 1
        expected = [name for row in SUITE[after:] if row.applies(scn) for name in row.rows]
        assert [r.name for r in run_suite(scn) if r.skipped] == expected

    def test_structural_rows_draw_no_random_elements(self, monkeypatch):
        tags = []
        original = Scenario.rng
        monkeypatch.setattr(Scenario, "rng", lambda self, tag: tags.append(tag) or original(self, tag))
        run_suite(build_scenario(builtin("wh:3")))
        assert "action-validity" not in tags

    def test_deterministic_reports(self):
        r1 = run_suite(build_scenario(builtin("wh:3")))
        r2 = run_suite(build_scenario(builtin("wh:3")))
        assert [r.row() for r in r1] == [r.row() for r in r2]

    @pytest.mark.parametrize("sid,rows", [("wh:3", FINITE_ROWS),
                                          ("affine-wavelet:default", WAVELET_ROWS)])
    def test_row_names_pinned(self, sid, rows):
        reports = run_suite(build_scenario(builtin(sid)))
        assert tuple(r.name for r in reports) == rows
        assert all(r.passed for r in reports)
        skipped = [r.name for r in reports if r.skipped]
        # the wavelet's D has no commuting trace-class elements
        assert skipped == (["young-inequality"] if sid.startswith("affine") else [])

    def test_trial_counts_and_notes_follow_trials(self):
        reports = run_suite(build_scenario(builtin("wh:3")), trials=20)
        by_name = {r.name: r for r in reports}
        assert by_name["orthogonality-positive"].notes == "worst of 5 positive pairs"
        assert by_name["orthogonality-general"].notes == "worst of 5 general pairs"

    def test_rebound_check_reaches_the_suite(self, monkeypatch):
        # the suite looks each check up in the module when it runs, so a
        # rebinding of qha.duflo.check_holder (as a tracer or a fault
        # injection does) replaces the row's one stacked call, which sees
        # every trial with its grid point and returns the worst report
        original = qha.duflo.check_holder
        calls = []

        def broken(*args, **kwargs):
            rep = original(*args, **kwargs)
            calls.append((args, rep))
            rep.passed = False
            return rep

        monkeypatch.setattr(qha.duflo, "check_holder", broken)
        reports = run_suite(build_scenario(builtin("wh:3")))
        n = max(len(HOLDER_GRID), 12 // 2)
        assert len(calls) == 1
        (x, y, *pqr), rep = calls[0]
        assert x.trials == y.trials == n
        assert list(zip(*pqr)) == [HOLDER_GRID[t % len(HOLDER_GRID)] for t in range(n)]
        assert isinstance(rep, CheckReport)
        failed = [r.name for r in reports if not r.passed]
        assert failed == ["holder-inequality"]

    @pytest.mark.parametrize("sid", ["wh:3", "affine-wavelet:default"])
    def test_every_check_returns_a_report_or_a_tuple_of_them(self, sid, monkeypatch):
        # benchmarks/child.py --break-check marks every report a check returns
        returned = []
        for name in {row.check for row in SUITE}:
            original = getattr(qha.duflo, name)
            monkeypatch.setattr(qha.duflo, name,
                                lambda *a, _f=original, **k: returned.append(_f(*a, **k)) or returned[-1])
        reports = run_suite(build_scenario(builtin(sid)))
        flat = [rep for out in returned for rep in (out if isinstance(out, tuple) else (out,))]
        assert all(isinstance(rep, CheckReport) for rep in flat)
        # every row but the one the suite skips itself came from a check
        skipped_by_suite = {"young-inequality"} if sid.startswith("affine") else set()
        assert {rep.name for rep in flat} == {r.name for r in reports} - skipped_by_suite


ORACLE_IDS = BUILTIN_IDS + ("broken-measure", "twisted-dual:24:1")


class TestStackedSuite:
    """run_check draws a row's trials at once and evaluates them in one
    stacked call; the per-trial loop, which evaluates each trial by the
    single-element formula of its row (helpers.LOOP_CHECKS), gives the same
    reports, every field and number bit for bit."""

    # both seeds at the default trial counts; 40 trials (several chunks on
    # the larger algebras and the wavelet) at the default seed
    @pytest.mark.parametrize("seed,trials", [(1729, None), (103, None), (1729, 40)])
    @pytest.mark.parametrize("sid", ORACLE_IDS)
    def test_rows_match_the_per_trial_oracle(self, sid, seed, trials, monkeypatch):
        scn = build_scenario(builtin(sid, seed=seed))
        stacked = run_suite(scn, trials=trials)
        monkeypatch.setattr(qha.duflo, "run_check", loop_run_check)
        oracle = run_suite(scn, trials=trials)
        assert [r.row() for r in stacked] == [r.row() for r in oracle]
        assert stacked == oracle

    def test_the_oracle_evaluates_every_drawing_row_by_its_own_formula(self):
        assert {row.rows[0] for row in SUITE if row.draws} == set(LOOP_CHECKS)

    def test_forty_trials_span_several_chunks(self):
        # the oracle cases above include stacks cut into chunks
        scn = build_scenario(builtin("twisted-dual:24:1"))
        assert stack_size(16 * scn.action.shape.total_dim * 2) < suite_entry("young-inequality").trials(40)
        wavelet = build_scenario(builtin("affine-wavelet:default"))
        assert stack_size(16 * wavelet.action.shape.total_dim) == 1

    @pytest.mark.parametrize("sid", ["wh:3", "translation:cyclic(6)", "twisted-dual:4:1",
                                     "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2",
                                     "affine-wavelet:default"])
    def test_stacked_draw_equals_sequential_draws(self, sid):
        scn = build_scenario(builtin(sid))
        kinds = ("positive", "general", "positive")
        stacks = scn.action.random_trials(scn.rng("draws"), kinds, 5)
        rng = scn.rng("draws")
        draw = {"positive": scn.action.random_positive, "general": scn.action.random_element}
        singles = [[draw[kind](rng) for kind in kinds] for _ in range(5)]
        for j, st in enumerate(stacks):
            assert st.trials == 5
            for i in range(5):
                assert np.array_equal(st.blocks[i], singles[i][j].blocks)

    def test_stacked_draw_leaves_the_stream_where_the_loop_does(self):
        scn = build_scenario(builtin("wh:3"))
        a, b = scn.rng("draws"), scn.rng("draws")
        scn.action.random_trials(a, ("general", "general"), 4)
        for _ in range(4):
            scn.action.random_element(b), scn.action.random_element(b)
        assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    def test_wavelet_checks_see_one_trial_a_call(self, monkeypatch):
        scn = build_scenario(builtin("affine-wavelet:default"))
        trials = []
        original = qha.duflo.check_holder
        monkeypatch.setattr(qha.duflo, "check_holder",
                            lambda x, y, *a, **k: trials.append(x.trials) or original(x, y, *a, **k))
        run_suite(scn)
        assert trials == [1] * max(len(HOLDER_GRID), scn.default_trials // 2)
