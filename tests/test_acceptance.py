"""Acceptance criteria: analytically pinned constants and inequality suites.

Each criterion is one test that prints a single PASS/FAIL line (visible with
pytest -s; pytest -v shows one line per criterion either way) and asserts the
stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from qha.algebra import AlgebraElement, trace
from qha.actions import conjugation_action
from qha.cli import refinement_metrics
from qha.duflo import (
    ALT_POWERS,
    HOLDER_GRID,
    INTERPOLATION_EXPONENTS,
    YOUNG_GRID,
    check_alt,
    check_holder,
    check_interpolation,
    check_l1,
    check_orthogonality,
    check_semi_invariance,
    check_young,
    estimate_duflo,
)
from qha.groups import cyclic, product
from qha.scenarios import BUILTIN_IDS, build_scenario, builtin, refined_wavelet

from helpers import dual_group, from_symbol, weyl_heisenberg


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert passed, f"{criterion}: {detail}"


def _estimate(sid):
    scn = build_scenario(builtin(sid))
    x1, x2 = scn.duflo_pair()
    est = estimate_duflo(scn.action, x1, x2, cross_tol=scn.tolerances["duflo-estimate"])
    return scn, est


def test_criterion_1_compact_irrep_constant():
    """Every irrep of s3 and of cyclic(8), probability Haar: D = dim * 1."""
    t0 = time.monotonic()
    worst = 0.0
    ids = [f"irrep:s3:{r}" for r in ("trivial", "sign", "std")]
    ids += [f"irrep:cyclic(8):chi{j}" for j in range(8)]
    for sid in ids:
        scn, est = _estimate(sid)
        expect = scn.expected_scalar
        assert est.scalar_flag, sid
        worst = max(worst, abs(est.scalar_value - expect) / expect)
    elapsed = time.monotonic() - t0
    _report("criterion-1 irrep constant", worst <= 1e-9 and elapsed < 1.0,
            f"worst rel err {worst:.2e} over {len(ids)} irreps in {elapsed:.2f}s (budget 1s)")


def test_criterion_2_weyl_heisenberg_family():
    """wh:n for n in {2,3,4,5,8}: D = (1/n) 1 and 100 seeded orthogonality pairs."""
    t0 = time.monotonic()
    # independent oracle: exhaustive matrix-coefficient sum for one n
    n0 = 3
    G, U = weyl_heisenberg(n0)
    rng = np.random.default_rng(42)
    xi = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
    eta = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
    total = sum(abs(np.vdot(U[g] @ eta, xi)) ** 2 for g in G.elements())
    oracle_gap = abs(total - n0 * np.linalg.norm(xi) ** 2 * np.linalg.norm(eta) ** 2) / total

    worst_d = worst_orth = 0.0
    for n in (2, 3, 4, 5, 8):
        scn, est = _estimate(f"wh:{n}")
        worst_d = max(worst_d, abs(est.scalar_value - 1.0 / n) * n)
        rng = scn.rng("acceptance-orthogonality")
        for _ in range(100):
            x = scn.action.random_positive(rng)
            y = scn.action.random_positive(rng)
            rep_check = check_orthogonality(scn.action, est, x, y,
                                            positive=True, tol=1e-9)
            worst_orth = max(worst_orth, rep_check.rel_err)
    elapsed = time.monotonic() - t0
    ok = oracle_gap <= 1e-11 and worst_d <= 1e-9 and worst_orth <= 1e-9 and elapsed < 10.0
    _report("criterion-2 translation-modulation family", ok,
            f"oracle gap {oracle_gap:.2e}, worst D err {worst_d:.2e}, "
            f"worst orthogonality {worst_orth:.2e}, {elapsed:.1f}s (budget 10s)")


def test_criterion_3_translation_and_cosets():
    """translation:cyclic(6) has D = 1 to 1e-12; cosets:cyclic(6):cyclic(3) has D^{-1} = 3."""
    t0 = time.monotonic()
    scn_t, est_t = _estimate("translation:cyclic(6)")
    err_t = abs(est_t.scalar_value - 1.0)

    scn_c, est_c = _estimate("cosets:cyclic(6):cyclic(3)")
    d_inv_scalar = trace(est_c.d_inverse).real / trace(scn_c.action.shape.identity()).real
    err_c = abs(d_inv_scalar - 3.0)

    # double-sum oracle: nu_A(B) = mu(A)^{-1} sum_g mu(A intersect gB) on atoms
    act = scn_c.action
    point_table = act._src[act.group.inverse_table]  # (g.x)(t) = x(g^{-1} t)
    counts = np.zeros((2, 2))
    for g in act.group.elements():
        for b in range(2):
            gb = int(point_table[g, b])
            for a in range(2):
                counts[a, b] += 1.0 if gb == a else 0.0
    oracle_ok = np.allclose(counts, 3.0)

    elapsed = time.monotonic() - t0
    ok = err_t <= 1e-12 and err_c <= 1e-10 and oracle_ok
    _report("criterion-3 translation and cosets", ok,
            f"translation |D-1|={err_t:.2e}, cosets |D^-1 - 3|={err_c:.2e}, "
            f"orbit-count oracle {'ok' if oracle_ok else 'mismatch'}, {elapsed:.2f}s")


def test_criterion_4_fourier_inversion():
    """twisted-dual:8:0 reproduces the inversion sum with d = 64 against a DFT oracle."""
    t0 = time.monotonic()
    scn, est = _estimate("twisted-dual:8:0")
    act = scn.action
    G = product(cyclic(8), cyclic(8))  # the dual group shares its table
    assert np.array_equal(act.group.table, G.table)
    N = G.order
    assert N == 64

    d_inv_scalar = trace(est.d_inverse).real / trace(scn.action.shape.identity()).real
    err_d = abs(d_inv_scalar - 64.0) / 64.0

    rng = scn.rng("fourier")
    f1 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    f2 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    F = f1 * np.conj(f2)
    chars = dual_group(G).table  # chars[omega, g]
    F_hat = chars.conj() @ F      # direct DFT oracle: sum_g F(g) conj(omega(g))

    worst = 0.0
    for g in G.elements():
        # translate the symbols so they evaluate at g at the identity slot,
        # push them through the bracket machinery, and integrate over the dual
        shift = np.array([f1[G.compose(g, h)] for h in G.elements()])
        shift2 = np.array([f2[G.compose(g, h)] for h in G.elements()])
        x = from_symbol(G, shift)
        y = from_symbol(G, shift2)
        lhs = act.bracket_integral(x, y)
        oracle = complex(chars[:, g] @ F_hat)   # sum_omega F_hat(omega) omega(g)
        target = 64.0 * F[g]
        scale = max(abs(target), 1.0)
        worst = max(worst, abs(lhs - oracle) / scale, abs(lhs - target) / scale)
    elapsed = time.monotonic() - t0
    ok = err_d <= 1e-9 and worst <= 1e-9
    _report("criterion-4 Fourier inversion", ok,
            f"|d-64|/64={err_d:.2e}, worst inversion residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_induced_identity():
    """Both sides of the induced-trace identity agree for 50 seeded elements."""
    t0 = time.monotonic()
    scn, est = _estimate("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2")
    act = scn.action
    # the inner action of the subgroup cyclic(2)xcyclic(2); the induced
    # algebra holds one copy of its 2 x 2 block per coset, coset after coset
    inner = conjugation_action(*weyl_heisenberg(2))
    t = len(inner.shape.trace_weights)
    coset_count = len(act.shape.trace_weights) // t

    # independent estimate of the subgroup scaling operator
    from qha.algebra import random_positive_element

    rng = scn.rng("inner-estimate")
    z1 = random_positive_element(inner.shape, rng)
    z2 = random_positive_element(inner.shape, rng)
    inner_est = estimate_duflo(inner, z1, z2, cross_tol=1e-8)

    worst = 0.0
    rng = scn.rng("induced-identity")
    for _ in range(50):
        y = scn.action.random_element(rng)
        lhs = trace(est.d_inverse @ y)
        rhs = 0.0 + 0.0j
        for j in range(coset_count):
            yj = AlgebraElement(inner.shape, y.blocks[j * t:(j + 1) * t])
            rhs += trace(inner_est.d_inverse @ yj)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9
    _report("criterion-5 induced-trace identity", ok,
            f"worst rel gap {worst:.2e} over 50 seeded elements, {elapsed:.2f}s")


@pytest.mark.parametrize("sid", ["wh:4", "irrep:s3:std", "translation:cyclic(6)"])
def test_criterion_6_inequality_suites(sid):
    """200 seeded trials per scenario across every inequality family."""
    t0 = time.monotonic()
    scn, est = _estimate(sid)
    act = scn.action
    rng = scn.rng("acceptance-inequalities")
    worst_violation = 0.0
    worst_equality = 0.0
    for t in range(200):
        x = scn.action.random_element(rng)
        y = scn.action.random_element(rng)
        xp = scn.action.random_positive(rng)
        yp = scn.action.random_positive(rng)

        ineq, eq = check_l1(x, y, est, act, tol=(1e-9, 1e-9))
        worst_violation = max(worst_violation, ineq.rel_err)
        worst_equality = max(worst_equality, eq.rel_err)

        p, q, r = YOUNG_GRID[t % len(YOUNG_GRID)]
        worst_violation = max(worst_violation,
                              check_young(x, y, p, q, r, est, act,
                                          tol=1e-9).rel_err)

        pi = INTERPOLATION_EXPONENTS[t % len(INTERPOLATION_EXPONENTS)]
        worst_violation = max(worst_violation,
                              check_interpolation(x, y, pi, est, act,
                                                  tol=1e-9).rel_err)

        ph, qh, rh = HOLDER_GRID[t % len(HOLDER_GRID)]
        worst_violation = max(worst_violation,
                              check_holder(x, y, ph, qh, rh, tol=1e-9).rel_err)

        ra = ALT_POWERS[t % len(ALT_POWERS)]
        worst_violation = max(worst_violation,
                              check_alt(xp, yp, ra, tol=1e-9).rel_err)
    elapsed = time.monotonic() - t0
    ok = worst_violation <= 1e-9 and worst_equality <= 1e-9 and elapsed < 60.0
    _report(f"criterion-6 inequality suite [{sid}]", ok,
            f"worst violation {worst_violation:.2e}, worst equality gap "
            f"{worst_equality:.2e}, {elapsed:.1f}s (budget 60s)")


def test_criterion_7_semi_invariance_and_uniqueness():
    """All finite builtins: semi-invariance <= 1e-9 and cross-check <= 1e-8."""
    t0 = time.monotonic()
    worst_semi = worst_cross = 0.0
    finite_ids = [sid for sid in BUILTIN_IDS if not sid.startswith("affine-wavelet")]
    for sid in finite_ids:
        scn, est = _estimate(sid)
        worst_cross = max(worst_cross, est.cross_check_residual)
        semi = check_semi_invariance(scn.action, est, tol=1e-9)
        worst_semi = max(worst_semi, float(semi.lhs.real if isinstance(semi.lhs, complex)
                                           else semi.lhs))
    elapsed = time.monotonic() - t0
    ok = worst_semi <= 1e-9 and worst_cross <= 1e-8
    _report("criterion-7 semi-invariance and uniqueness", ok,
            f"worst semi-invariance {worst_semi:.2e}, worst cross-check "
            f"{worst_cross:.2e} over {len(finite_ids)} finite builtins, {elapsed:.1f}s")


def test_criterion_8_quadrature_refinement():
    """Default grid within 1e-2 and strictly decreasing over two refinements."""
    t0 = time.monotonic()
    spec = builtin("affine-wavelet:default")
    rows = [refinement_metrics(refined_wavelet(build_scenario(spec), level)) for level in range(3)]
    orth = [r["orthogonality"] for r in rows]
    semi = [r["semi_invariance"] for r in rows]
    elapsed = time.monotonic() - t0
    ok = (orth[0] <= 1e-2 and semi[0] <= 1e-2
          and orth[0] > orth[1] > orth[2]
          and semi[0] > semi[1] > semi[2]
          and elapsed < 120.0)
    detail = (f"orthogonality {orth[0]:.2e} -> {orth[1]:.2e} -> {orth[2]:.2e}, "
              f"semi-invariance {semi[0]:.2e} -> {semi[1]:.2e} -> {semi[2]:.2e}, "
              f"{elapsed:.1f}s (budget 120s)")
    _report("criterion-8 quadrature refinement", ok, detail)
