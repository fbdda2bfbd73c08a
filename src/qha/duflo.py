"""Estimation of the invariance-scaling operator and certification of its laws.

The central object is the positive invertible operator D that turns the
integrated bracket into a product of traces:

    integral of <x|y> over the group  =  trace(x) * trace(D^{-1/2} y D^{-1/2})

for positive x, y under an ergodic trace-preserving integrable action.  D is
estimated by direct Haar summation of the modular-weighted orbit of a
normalized positive test element, and every theorem-level law (orthogonality,
semi-invariance, admissibility identities, L1 contraction, the convolution
inequality, the interpolation bound) is then certified as an independent
numerical check producing a CheckReport.

The checks that take elements take stacks of trials (see ``algebra``), with
one grid point or one per trial, and report the worst trial: the first of
largest rel_err, so that a later trial replaces the kept one only when its
rel_err is strictly larger.  A single element is the stack of one, so the
suite's stacked call and a one-trial call run the same code.

For general (non-hermitian) y the bracket is conjugate-linear in y, so the
equality-type laws carry an adjoint on y: the right-hand sides below use
trace(D^{-1/2} y* D^{-1/2}) and trace(x) * trace(y*).  For hermitian y this
is the same statement without the adjoint.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .algebra import (
    AlgebraElement,
    NotPositiveError,
    ParameterError,
    as_stack,
    eigh_blocks,
    eigvalsh_blocks,
    from_eigh,
    op_norm,
    p_norm,
    stack,
    stack_size,
    take_rows,
    trace,
    trace_pairing,
    weighted_sum,
)
from .actions import (
    Action,
    automorphism_defect,
    fixed_point_dimension,
    homomorphism_defect,
    is_trace_preserving,
    isometry_defect,
)
from .bracket import (
    InverseClosureError,
    bracket,
    bracket_symmetry_defect,
    function_p_norm,
    integrate_bracket,
)
from .reports import CheckReport

# Exponent grids: boundary and interior cases of the validity regions.
YOUNG_GRID: tuple[tuple[float, float, float], ...] = (
    (1.0, 1.0, 1.0),
    (1.0, 4 / 3, 4 / 3),
    (4 / 3, 1.0, 4 / 3),
    (1.0, 2.0, 2.0),
    (2.0, 1.0, 2.0),
    (1.0, 4.0, 4.0),
    (4.0, 1.0, 4.0),
    (4 / 3, 4 / 3, 2.0),
    (4 / 3, 2.0, 4.0),
    (2.0, 4 / 3, 4.0),
)
HOLDER_GRID: tuple[tuple[float, float, float], ...] = (
    (2.0, 2.0, 1.0),
    (4.0, 4.0, 2.0),
    (4 / 3, 4.0, 1.0),
    (4.0, 4 / 3, 1.0),
    (2.0, 4.0, 4 / 3),
    (4.0, 2.0, 4 / 3),
)
INTERPOLATION_EXPONENTS: tuple[float, ...] = (1.0, 4 / 3, 2.0, 4.0, math.inf)
ALT_POWERS: tuple[int, ...] = (1, 2, 3, 4)
# Hypotheses, not row tolerances: a check raises ParameterError when an
# exponent triple misses its relation by more than EXPONENT_SLACK, or when the
# y of the convolution inequality fails to commute with D to COMMUTE_SLACK.
EXPONENT_SLACK = 1e-12
COMMUTE_SLACK = 1e-9
# The one claim of every row of SUITE but trace-preservation, whose claim is
# with is_trace_preserving; every report of the row carries it, failed or
# skipped, with the particulars of the trial in its notes.
CLAIMS: dict[str, str] = {
    "action-validity": "homomorphism, *-automorphism and p-norm isometry defects",
    "ergodicity": "fixed-point dimension of the sampled action is 1",
    "integrability-witness": "the bracket integral of a positive test element is finite and positive",
    "duflo-estimate": "cross-check residual of two independent test elements",
    "duflo-scalar-form": "unimodular group: D is a constant multiple of the identity",
    "duflo-expected-scalar": "estimated D equals the analytically pinned scalar multiple of 1",
    "duflo-expected-kernel": ("D^{-1} pairs with smooth probes as a multiple of the "
                              "inverse-frequency multiplier"),
    "bracket-symmetry": "<x|y>(g^{-1}) = conj(<y|x>(g))",
    "orthogonality-positive": "integral of <x|y> = trace(x) trace(D^{-1/2} y D^{-1/2})",
    "orthogonality-general": "integral of <x|y> = trace(x) trace(D^{-1/2} y D^{-1/2}) "
                             "(adjoint form for non-hermitian y)",
    "semi-invariance": "g.D = Delta(g)^{-1} D over sampled g",
    "admissibility-identities": "trace_{D^{-1}}(y) = trace(D^{-1/2} y D^{-1/2}) and its round trip",
    "l1-inequality": "integral of |<x|D^{1/2} y D^{1/2}>| <= trace|x| trace|y|",
    "l1-equality": "integral of <x|D^{1/2} y D^{1/2}> = trace(x) trace(y*) (adjoint form)",
    "young-inequality": "||<x|D^{1/(2r)} y D^{1/(2r)}>||_r <= ||x||_p ||y||_q",
    "interpolation-bound": "||<x|y>||_p <= ||x||_p ||y||_1^{1/q} ||D^{-1/2} y D^{-1/2}||_1^{1/p}",
    "holder-inequality": "||x y||_r <= ||x||_p ||y||_q",
    "alt-inequality": "trace((b a b)^r) <= trace(b^r a^r b^r)",
}


# The off-scalar residual at or below which D is scalar: the finite
# ``duflo-estimate`` entry, the agreement of two estimates of D^{-1} from
# independent test elements, so no smaller off-scalar part is resolved.
SCALAR_FLAG_TOL = 1e-8


class EstimateError(Exception):
    """The scaling-operator estimate failed (non-positive or inconsistent)."""


class InconsistencyError(EstimateError):
    """Two independent test elements disagree beyond tolerance."""


@dataclass
class DufloEstimate:
    """Estimated scaling operator D, held as D^{-1}.

    The eigenvalues of D^{-1} (one ``eigvalsh``, read by the scalar
    diagnostics, the smallest eigenvalue and cond(D)), its eigendecomposition,
    D and its powers are computed on first use and cached: a caller that only
    pairs with D^{-1} or solves against it forms no eigenvalue, and one that
    asks whether D is scalar forms no eigenbasis.
    """

    d_inverse: AlgebraElement
    cross_check_residual: float = 0.0

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The stacked eigenvalues of D^{-1}, ascending in each block."""
        return eigvalsh_blocks(self.d_inverse)

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of D^{-1}."""
        return float(self.eigenvalues.min())

    def condition(self) -> float:
        """cond(D), the ratio of the extreme eigenvalues of D^{-1}."""
        w = self.eigenvalues
        return float(w.max() / w.min())

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of D^{-1}: the stacked eigenvalues and eigenvectors."""
        return eigh_blocks(self.d_inverse)

    @cached_property
    def d(self) -> AlgebraElement:
        """D, the spectral inverse of D^{-1}."""
        return from_eigh(self.d_inverse.shape, self.spectrum, np.reciprocal)

    def power(self, t: float) -> AlgebraElement:
        """D^t through the spectrum of D^{-1}, computed once per exponent."""
        powers = self.__dict__.setdefault("_powers", {})
        if t not in powers:
            powers[t] = from_eigh(self.d_inverse.shape, self.spectrum, lambda w: w ** (-t))
        return powers[t]

    def sandwich(self, t, y: AlgebraElement) -> AlgebraElement:
        """D^t y D^t; on a stack y, t may give one exponent per trial."""
        dt = self.power(t) if np.ndim(t) == 0 else stack(self.power(u) for u in t)
        return dt @ y @ dt

    @cached_property
    def _scalar_form(self) -> tuple[float, float]:
        """(c = trace(D) / trace(1), ||D - c 1||_op / |c|), from the spectrum:
        D - c 1 has the eigenvalues 1/w - c for the eigenvalues w of D^{-1}."""
        inv = np.reciprocal(self.eigenvalues)
        weights = self.d_inverse.shape.trace_weights
        trace_one = weighted_sum(np.full(len(weights), inv.shape[1]), weights)
        c = weighted_sum(inv.sum(axis=1), weights) / trace_one
        return c, float(np.abs(inv - c).max()) / abs(c)

    @property
    def off_scalar_residual(self) -> float:
        return self._scalar_form[1]

    @property
    def scalar_flag(self) -> bool:
        """D is a multiple of the identity to SCALAR_FLAG_TOL."""
        return self.off_scalar_residual <= SCALAR_FLAG_TOL

    @property
    def scalar_value(self) -> float | None:
        return self._scalar_form[0] if self.scalar_flag else None


def estimate_duflo(
    action: Action,
    x_test: AlgebraElement,
    x_test_alt: AlgebraElement | None = None,
    *,
    cross_tol: float | None = None,
) -> DufloEstimate:
    """Estimate D from the modular-weighted orbit sum of a positive test element.

    D^{-1} = sum_i w_i Delta(g_i)^{-1} (g_i . x) with trace(x) normalized to 1
    and w the action's Haar weights; D is its spectral inverse, formed on
    first use.  Its eigenvalues must pass min_eig > 1e-12 max_eig, else
    EstimateError.  A Cholesky factorization of fl(block - tau 1) certifies
    this, with N = max_k ||block_k||_inf >= max_eig and tau = (1e-12 +
    2 n (n + 1) eps) N for blocks of size n: run to completion, it gives
    R* R = block - tau 1 + E, ||E||_2 <= sqrt(2) gamma_{n+2} ||R||_F^2 <=
    1.07 n (n + 1) eps N (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thm 10.3, in complex arithmetic, where a product errs
    by sqrt(2) gamma_2; ||R||_F^2 = trace(R* R) <= n N), and the shift rounds
    by eps N / 2, so min_eig > 1e-12 N + 0.68 n (n + 1) eps N, a margin for
    eigvalsh's rounding too.  Else the eigvalsh rule decides.  A second
    test element cross-checks the estimate; residuals beyond
    ``cross_tol`` raise InconsistencyError.  Both residuals are measured in
    the action's own comparison (see Action).
    """
    d_inv = _orbit_density(action, x_test)
    n = d_inv.shape.block_dim
    tau = (1e-12 + 2 * n * (n + 1) * np.finfo(float).eps) * np.abs(d_inv.blocks).sum(axis=-1).max()
    if not _cholesky_completes(d_inv.blocks - tau * np.eye(n)):
        w = eigvalsh_blocks(d_inv)
        min_eig, max_eig = float(w.min()), float(w.max())
        if min_eig <= 1e-12 * max_eig:
            raise EstimateError(
                f"orbit density is not positive definite (min eig {min_eig:.3e}); "
                "the action looks non-ergodic or non-integrable at this quadrature"
            ) from None

    cross = 0.0
    if x_test_alt is not None:
        d_inv_alt = _orbit_density(action, x_test_alt)
        cross = action.cross_check_distance(d_inv, d_inv_alt)
        if cross_tol is not None and cross > cross_tol:
            raise InconsistencyError(
                f"independent test elements disagree by {cross:.3e} > {cross_tol:.1e}; "
                "quadrature too coarse or action not ergodic"
            )
    return DufloEstimate(d_inverse=d_inv, cross_check_residual=cross)


def _cholesky_completes(h: np.ndarray) -> bool:
    """Whether LAPACK's Cholesky factorization runs to completion on every
    hermitian block of the stack h.  On 1 x 1 blocks it reads the answer off
    the entries, with no LAPACK call: the factorization's one step takes the
    root of the real entry, and fails when it is not positive (or NaN)."""
    if h.shape[-1] == 1:
        return bool((h.real > 0.0).all())
    try:
        # the factor is freed as the call returns
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _orbit_density(action: Action, x_test: AlgebraElement) -> AlgebraElement:
    tau = trace(x_test)
    if abs(tau.imag) > 1e-10 * (1.0 + abs(tau.real)) or tau.real <= 0:
        raise NotPositiveError("test element must be positive with positive trace")
    if not x_test.is_hermitian():
        raise NotPositiveError("test element must be hermitian")
    x = (1.0 / tau.real) * x_test
    raw = action.orbit_sum(x).blocks
    # the hermitian part in one C-ordered buffer, as 0.5 (raw + raw*) rounds
    sym = np.conjugate(raw.swapaxes(-1, -2), out=np.empty_like(raw))
    sym += raw
    sym *= 0.5
    return AlgebraElement(x.shape, sym, copy=False)


# ---------------------------------------------------------------------------
# individual checks, one per row


def check_action_validity(action: Action, *, tol: float) -> CheckReport:
    """Group-law, *-automorphism and isometry residuals of ``action.structure``."""
    hom, aut, iso = homomorphism_defect(action), automorphism_defect(action), isometry_defect(action)
    return CheckReport.bound(
        "action-validity", CLAIMS["action-validity"], max(hom, aut, iso), 0.0, tol_rel=0.0, tol_abs=tol,
        notes=f"hom={hom:.2e} aut={aut:.2e} iso={iso:.2e} certificate={action.structure.certificate}")


def check_ergodicity(action: Action, quadrature: bool) -> CheckReport:
    """Fixed-point dimension of the action, which must be 1, exactly."""
    return CheckReport.equality(
        "ergodicity", CLAIMS["ergodicity"], float(fixed_point_dimension(action)), 1.0, tol_rel=0.0,
        notes="sampled generating set" if quadrature else "generators")


def _worst(reports: list[CheckReport]) -> CheckReport:
    """The first report of largest rel_err: a later trial replaces the kept
    one only when its rel_err is strictly larger."""
    worst = reports[0]
    for rep in reports[1:]:
        if rep.rel_err > worst.rel_err:
            worst = rep
    return worst


def _per_trial(value, trials: int) -> list:
    """One grid value per trial: the entries of a sequence, else ``value``
    for every trial."""
    return list(value) if np.ndim(value) else [value] * trials


def check_integrability(action: Action, x: AlgebraElement, *, tol: float) -> CheckReport:
    """The bracket integral of a positive element is finite and positive, its
    imaginary part at most ``tol`` relative."""
    x = as_stack(x)
    reports = []
    for w in action.bracket_integral(x, x).tolist():
        ok = math.isfinite(w.real) and w.real > 0 and abs(w.imag) <= tol * (1 + abs(w.real))
        reports.append(CheckReport.flag("integrability-witness", CLAIMS["integrability-witness"], ok,
                                        notes=f"value={w.real:.6e}"))
    return _worst(reports)


def check_estimate(est: DufloEstimate | EstimateError, *, tol: float) -> CheckReport:
    """Cross-check residual of the estimate, or the failure that stopped it."""
    if isinstance(est, EstimateError):
        return CheckReport.flag("duflo-estimate", CLAIMS["duflo-estimate"], False, notes=str(est))
    cross = est.cross_check_residual
    return CheckReport.bound(
        "duflo-estimate", CLAIMS["duflo-estimate"], cross, 0.0, tol_rel=0.0, tol_abs=tol,
        notes=f"min_eig={est.min_eigenvalue:.3e} cross={cross:.3e} scalar={est.scalar_flag}")


def check_scalar_form(est: DufloEstimate, *, tol: float) -> CheckReport:
    """Off-scalar residual of D, which vanishes on a unimodular group."""
    off = est.off_scalar_residual
    return CheckReport.bound("duflo-scalar-form", CLAIMS["duflo-scalar-form"], off, 0.0, tol_rel=0.0,
                             tol_abs=tol, notes=f"off-scalar residual={off:.3e}")


def check_expected_scalar(est: DufloEstimate, expected: float, *, tol: float) -> CheckReport:
    """trace(D) / trace(1) against the scenario's analytic scalar."""
    lhs = est._scalar_form[0]
    return CheckReport.equality("duflo-expected-scalar", CLAIMS["duflo-expected-scalar"], lhs, expected,
                                tol_rel=tol, notes=f"off-scalar residual={est.off_scalar_residual:.3e}")


def check_expected_kernel(action: Action, est: DufloEstimate, *, tol: float) -> CheckReport:
    """Residual of the action's fit of D^{-1} by its ``expected_kernel``."""
    c, res = action.expected_kernel_fit(est.d_inverse)
    return CheckReport.bound("duflo-expected-kernel", CLAIMS["duflo-expected-kernel"], res, 0.0,
                             tol_rel=0.0, tol_abs=tol, notes=f"fit={c:.6e} residual={res:.3e} (weak pairing)")


def check_bracket_symmetry(x: AlgebraElement, y: AlgebraElement, action: Action,
                           *, tol: float) -> CheckReport:
    """Defect of <x|y>(g^{-1}) = conj(<y|x>(g)); skipped on a grid not closed under inverses."""
    claim = CLAIMS["bracket-symmetry"]
    try:
        defects = bracket_symmetry_defect(as_stack(x), as_stack(y), action)
    except InverseClosureError as exc:
        return CheckReport.skip("bracket-symmetry", claim, str(exc))
    return _worst([CheckReport.bound("bracket-symmetry", claim, defect, 0.0, tol_rel=0.0, tol_abs=tol)
                   for defect in defects.tolist()])


def check_orthogonality(action: Action, est: DufloEstimate, x: AlgebraElement, y: AlgebraElement,
                        *, positive: bool = True, tol: float) -> CheckReport:
    """Integrated bracket against trace(x) * trace(D^{-1/2} y D^{-1/2}).

    The right-hand side is taken as trace(x) * trace(D^{-1} y), the same
    number by cyclicity of the trace, computed as a trace pairing with no
    spectral power or product; the admissibility-identities row certifies
    the identity at the estimate.  For the general form (any x, y) the
    right-hand side carries the adjoint of y; see the module docstring.
    """
    x, y = as_stack(x), as_stack(y)
    lhs = action.bracket_integral(x, y).tolist()
    y_eff = y if positive else y.adjoint()
    rhs = [tx * ty for tx, ty in zip(trace(x).tolist(), trace_pairing(est.d_inverse, y_eff).tolist())]
    name = "orthogonality-positive" if positive else "orthogonality-general"
    # every bracket value is bounded by ||x||_2 ||y||_2, so the Haar mass sets
    # the scale against which a vanishing integral counts as exact
    mass = action.haar.mass
    scales = [mass * nx * ny for nx, ny in zip(p_norm(x, 2.0).tolist(), p_norm(y, 2.0).tolist())]
    return _worst([CheckReport.equality(name, CLAIMS[name], l, r, tol_rel=tol, tol_abs=tol * scale)
                   for l, r, scale in zip(lhs, rhs, scales)])


def check_semi_invariance(action: Action, est: DufloEstimate, *, tol: float) -> CheckReport:
    """Defect of g.D = Delta(g)^{-1} D over the sampled elements, at most ``tol``.

    Exact finite models compare matrices entrywise; a quadrature model
    compares in its own weak sense (Action.semi_invariance_defect).
    """
    worst = action.semi_invariance_defect(est)
    return CheckReport.bound(
        "semi-invariance", CLAIMS["semi-invariance"], worst, 0.0, tol_rel=0.0, tol_abs=tol,
        notes=f"defect={worst:.3e}{action.comparison_note}",
    )


def admissibility_tol(est: DufloEstimate) -> float:
    """max(1e-11, cond(D) n eps) for blocks of size n.

    Both identities run D^{+-1/2} through the eigenbasis of D^{-1}, whose
    roundoff grows like its condition number times the block size.
    """
    return max(1e-11, est.condition() * est.d_inverse.shape.block_dim * float(np.finfo(float).eps))


def check_admissibility(y: AlgebraElement, est: DufloEstimate,
                        *, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Value trace(D^{-1/2} y D^{-1/2}) plus both density-weight identities.

    Checks trace(D^{-1} y) = trace(D^{-1/2} y D^{-1/2}) and the round trip
    trace(D^{1/2} (D^{-1/2} y D^{-1/2}) D^{1/2}) = trace(y), to relative
    ``tol`` (the suite's is ``admissibility_tol``).  Every element is
    admissible in a finite-dimensional model; the identities are certified
    rather than membership.  Returns one verdict and one value per trial, a
    single element being the stack of one.
    """
    if not y.is_hermitian():
        raise NotPositiveError("admissibility check expects a hermitian positive element")
    ys = as_stack(y)
    sand = est.sandwich(-0.5, ys)
    ok, values = [], []
    for value, direct, roundtrip, ty in zip(trace(sand).real.tolist(),
                                            trace_pairing(est.d_inverse, ys).real.tolist(),
                                            trace(est.sandwich(0.5, sand)).real.tolist(),
                                            trace(ys).real.tolist()):
        scale = max(abs(value), abs(direct), abs(ty), 1e-300)
        ok.append(abs(value - direct) <= tol * scale and abs(roundtrip - ty) <= tol * scale)
        values.append(value)
    return np.array(ok), np.array(values)


def admissibility_report(y: AlgebraElement, est: DufloEstimate) -> CheckReport:
    """The admissibility-identities row, at the tolerance the estimate
    derives (admissibility_tol), which its notes print."""
    tol = admissibility_tol(est)
    oks, values = check_admissibility(y, est, tol=tol)
    return _worst([CheckReport.flag("admissibility-identities", CLAIMS["admissibility-identities"],
                                    ok, notes=f"value={value:.6e} tol={tol:.1e}")
                   for ok, value in zip(oks.tolist(), values.tolist())])


def check_l1(x: AlgebraElement, y: AlgebraElement, est: DufloEstimate, action: Action,
             *, tol: tuple[float, float]) -> tuple[CheckReport, CheckReport]:
    """L1 contraction and the trace-product identity for <x|D^{1/2} y D^{1/2}>.

    Inequality: integral of |<x|D^{1/2} y D^{1/2}>| <= trace|x| trace|y|.
    Equality:   integral of  <x|D^{1/2} y D^{1/2}>  = trace(x) trace(y*).
    ``tol`` holds the inequality's tolerance, then the equality's.  On
    stacks, the worst trial of each.
    """
    tol_ineq, tol_eq = tol
    x, y = as_stack(x), as_stack(y)
    ytil = est.sandwich(0.5, y)
    bf = bracket(x, ytil, action)
    lhs_ineq = weighted_sum(np.abs(bf.values), bf.weights).tolist()
    rhs_ineq = [a * b for a, b in zip(p_norm(x, 1.0).tolist(), p_norm(y, 1.0).tolist())]
    ineq = _worst([CheckReport.bound("l1-inequality", CLAIMS["l1-inequality"], l, r, tol_rel=tol_ineq)
                   for l, r in zip(lhs_ineq, rhs_ineq)])
    lhs_eq = integrate_bracket(bf).tolist()
    rhs_eq = [a * b for a, b in zip(trace(x).tolist(), trace(y.adjoint()).tolist())]
    mass = float(np.sum(bf.weights))
    scales = [mass * a * b for a, b in zip(p_norm(x, 2.0).tolist(), p_norm(ytil, 2.0).tolist())]
    eq = _worst([CheckReport.equality("l1-equality", CLAIMS["l1-equality"], l, r, tol_rel=tol_eq,
                                      tol_abs=tol_eq * scale) for l, r, scale in zip(lhs_eq, rhs_eq, scales)])
    return ineq, eq


def check_young(x: AlgebraElement, y: AlgebraElement, p, q, r, est: DufloEstimate, action: Action,
                *, tol: float) -> CheckReport:
    """Convolution inequality ||<x|D^{1/(2r)} y D^{1/(2r)}>||_r <= ||x||_p ||y||_q.

    Requires 1/p + 1/q = 1 + 1/r with 1 <= p, q <= r < inf and y commuting
    with D (enforced; automatic for scalar D).  Stacks take one exponent
    triple or one per trial.
    """
    x, y = as_stack(x), as_stack(y)
    ps, qs, rs = (_per_trial(v, y.trials) for v in (p, q, r))
    for pv, qv, rv in zip(ps, qs, rs):
        if not (1.0 <= pv <= rv and 1.0 <= qv <= rv and rv < math.inf):
            raise ParameterError(f"invalid exponents p={pv}, q={qv}, r={rv}")
        if abs(1.0 / pv + 1.0 / qv - 1.0 - 1.0 / rv) > EXPONENT_SLACK:
            raise ParameterError(f"exponents must satisfy 1/p + 1/q = 1 + 1/r, got {pv}, {qv}, {rv}")
    # With E = D - c 1, ||Dy - yD|| = ||Ey - yE|| <= 2 ||E|| ||y|| and
    # |c| <= ||D||: the guard cannot fire while 2 ||E|| / |c| (twice
    # ``off_scalar_residual``) is at most COMMUTE_SLACK.  ||D||_op is the
    # largest 1/w over the eigenvalues w of D^{-1}
    if 2.0 * est.off_scalar_residual > COMMUTE_SLACK and np.any(
            op_norm(est.d @ y - y @ est.d)
            > COMMUTE_SLACK * op_norm(y) * float(np.reciprocal(est.eigenvalues).max())):
        raise ParameterError("y must commute with D for the convolution inequality")
    ytil = est.sandwich([1.0 / (2.0 * rv) for rv in rs], y)
    lhs = function_p_norm(bracket(x, ytil, action), rs).tolist()
    rhs = [a * b for a, b in zip(p_norm(x, ps).tolist(), p_norm(y, qs).tolist())]
    return _worst([CheckReport.bound("young-inequality", CLAIMS["young-inequality"], l, rh, tol_rel=tol,
                                     notes=f"p={pv:g} q={qv:g} r={rv:g}")
                   for l, rh, pv, qv, rv in zip(lhs, rhs, ps, qs, rs)])


def check_interpolation(x: AlgebraElement, y: AlgebraElement, p, est: DufloEstimate, action: Action,
                        *, tol: float) -> CheckReport:
    """Interpolation bound ||<x|y>||_p <= ||x||_p ||y||_1^{1/q} ||D^{-1/2} y D^{-1/2}||_1^{1/p}.

    The p = inf endpoint is checked as the documented sup-norm variant
    ||<x|y>||_inf <= ||x||_inf ||y||_1, which its notes name.  Stacks take
    one exponent or one per trial.
    """
    x, y = as_stack(x), as_stack(y)
    ps = _per_trial(p, y.trials)
    if min(ps) < 1.0:
        raise ParameterError(f"exponent must be >= 1, got {min(ps)}")
    lhs = function_p_norm(bracket(x, y, action), ps).tolist()
    y1 = p_norm(y, 1.0).tolist()
    # ||D^{-1/2} y D^{-1/2}||_1 on the trials of finite p only
    finite = [i for i, pv in enumerate(ps) if pv != math.inf]
    ys = {}
    if finite:
        y_fin = AlgebraElement(y.shape, take_rows(y.blocks, finite), copy=False)
        ys = dict(zip(finite, p_norm(est.sandwich(-0.5, y_fin), 1.0).tolist()))
    xp = p_norm(x, ps).tolist()
    reports = []
    for i, pv in enumerate(ps):
        notes = f"p={pv:g}"
        if pv == math.inf:
            rhs = xp[i] * y1[i]
            notes += " sup-norm endpoint: sup|<x|y>| <= ||x||_inf ||y||_1"
        else:
            q = math.inf if pv == 1.0 else pv / (pv - 1.0)
            rhs = xp[i] * (y1[i] ** (0.0 if q == math.inf else 1.0 / q)) * (ys[i] ** (1.0 / pv))
        reports.append(CheckReport.bound("interpolation-bound", CLAIMS["interpolation-bound"], lhs[i], rhs,
                                         tol_rel=tol, notes=notes))
    return _worst(reports)


def check_holder(x: AlgebraElement, y: AlgebraElement, p, q, r, *, tol: float) -> CheckReport:
    """Trace-norm product inequality ||x y||_r <= ||x||_p ||y||_q for 1/p + 1/q = 1/r;
    stacks take one exponent triple or one per trial."""
    x, y = as_stack(x), as_stack(y)
    ps, qs, rs = (_per_trial(v, y.trials) for v in (p, q, r))
    if any(abs(1.0 / pv + 1.0 / qv - 1.0 / rv) > EXPONENT_SLACK for pv, qv, rv in zip(ps, qs, rs)):
        raise ParameterError("exponents must satisfy 1/p + 1/q = 1/r")
    lhs = p_norm(x @ y, rs).tolist()
    rhs = [a * b for a, b in zip(p_norm(x, ps).tolist(), p_norm(y, qs).tolist())]
    return _worst([CheckReport.bound("holder-inequality", CLAIMS["holder-inequality"], l, rh,
                                     tol_rel=tol, notes=f"p={pv:g} q={qv:g} r={rv:g}")
                   for l, rh, pv, qv, rv in zip(lhs, rhs, ps, qs, rs)])


def check_alt(a: AlgebraElement, b: AlgebraElement, r, *, tol: float) -> CheckReport:
    """Sandwich-power inequality trace((b a b)^r) <= trace(b^r a^r b^r), integer r >= 1;
    stacks take one power or one per trial."""
    a, b = as_stack(a), as_stack(b)
    rs = _per_trial(r, a.trials)
    if any(rv < 1 or int(rv) != rv for rv in rs):
        raise ParameterError("power must be a positive integer")
    rs = [int(rv) for rv in rs]
    lhs = trace(_int_power(b @ a @ b, rs)).real.tolist()
    ar, br = _int_power(a, rs), _int_power(b, rs)
    rhs = trace(br @ ar @ br).real.tolist()
    return _worst([CheckReport.bound("alt-inequality", CLAIMS["alt-inequality"], l, rh, tol_rel=tol,
                                     notes=f"r={rv}") for l, rh, rv in zip(lhs, rhs, rs)])


def _int_power(x: AlgebraElement, rs: list[int]) -> AlgebraElement:
    """x^r on trial i of the stack x for r = rs[i], each by the r - 1
    successive products x @ x @ ... that a single power takes."""
    acc, out = x.blocks, None
    for k in range(1, max(rs) + 1):
        if k > 1:
            acc = acc @ x.blocks
        done = [i for i, r in enumerate(rs) if r == k]
        if len(done) == len(rs):
            return AlgebraElement(x.shape, acc, copy=False)
        if done:
            out = np.empty_like(acc) if out is None else out
            out[done] = acc[done]
    return AlgebraElement(x.shape, out, copy=False)


# ---------------------------------------------------------------------------
# scenario suite


def _pairs(trials: int) -> int:
    return max(4, trials // 4)


class SuiteCheck(NamedTuple):
    """One entry of the suite: the worst report of a few seeded trials.

    Each trial draws one element per entry of ``draws`` ("positive" or
    "general") from the scenario's rng stream ``tag`` and takes the next
    point of ``grid``.  ``run_check`` draws the trials at once, each entry's
    elements stacked over them, and calls ``call(check, scenario, estimate,
    points, *stacks)`` with the tuple of the trials' grid points; the
    estimate is a ``DufloEstimate``, the ``EstimateError`` that stopped it,
    or None before the duflo-estimate row.  ``check`` names a function of
    this module, looked up when the row runs, so rebinding the module
    attribute reaches the suite, and called with the rows' tolerances bound
    (``bind_tolerance``); it returns the worst trial's report, or one per
    position of a tuple, named by ``rows``.  ``notes`` ("{n}" is the
    trial count) replaces the worst report's notes; ``skip`` is the reason
    reported instead when D is not scalar, so no element commutes with it;
    ``applies`` says whether a scenario has the rows at all.
    """

    rows: tuple[str, ...]
    check: str
    call: Callable[..., CheckReport | tuple[CheckReport, ...]]
    tag: str | None = None
    draws: tuple[str, ...] = ()
    trials: Callable[[int], int] = lambda t: 1
    grid: tuple = (None,)
    notes: str | None = None
    skip: str | None = None
    applies: Callable[..., bool] = lambda scenario: True


# Every row of a scenario's report, in order.  The rows after duflo-estimate
# need D and are skipped when the estimate fails.
SUITE: tuple[SuiteCheck, ...] = (
    SuiteCheck(("action-validity",), "check_action_validity", lambda f, s, e, _: f(s.action)),
    SuiteCheck(("trace-preservation",), "is_trace_preserving", lambda f, s, e, _: f(s.action)),
    SuiteCheck(("ergodicity",), "check_ergodicity",
               lambda f, s, e, _: f(s.action, s.is_quadrature)),
    # the stream of Scenario.duflo_pair: x is the estimate's first test element
    SuiteCheck(("integrability-witness",), "check_integrability",
               lambda f, s, e, _, x: f(s.action, x), tag="duflo", draws=("positive",)),
    SuiteCheck(("duflo-estimate",), "check_estimate", lambda f, s, e, _: f(e)),
    SuiteCheck(("duflo-scalar-form",), "check_scalar_form", lambda f, s, e, _: f(e),
               applies=lambda s: bool(np.all(s.action.modular_values() == 1.0))),
    SuiteCheck(("duflo-expected-scalar",), "check_expected_scalar",
               lambda f, s, e, _: f(e, s.expected_scalar),
               applies=lambda s: s.expected_scalar is not None),
    SuiteCheck(("duflo-expected-kernel",), "check_expected_kernel",
               lambda f, s, e, _: f(s.action, e),
               applies=lambda s: s.action.expected_kernel is not None),
    SuiteCheck(("bracket-symmetry",), "check_bracket_symmetry",
               lambda f, s, e, _, x, y: f(x, y, s.action), tag="symmetry",
               draws=("positive", "positive")),
    SuiteCheck(("orthogonality-positive",), "check_orthogonality",
               lambda f, s, e, _, x, y: f(s.action, e, x, y, positive=True),
               tag="orthogonality", draws=("positive", "positive"), trials=_pairs,
               notes="worst of {n} positive pairs"),
    SuiteCheck(("orthogonality-general",), "check_orthogonality",
               lambda f, s, e, _, x, y: f(s.action, e, x, y, positive=False),
               tag="orthogonality", draws=("general", "general"), trials=_pairs,
               notes="worst of {n} general pairs"),
    SuiteCheck(("semi-invariance",), "check_semi_invariance", lambda f, s, e, _: f(s.action, e)),
    SuiteCheck(("admissibility-identities",), "admissibility_report",
               lambda f, s, e, _, y: f(y, e), tag="admissibility", draws=("positive",)),
    SuiteCheck(("l1-inequality", "l1-equality"), "check_l1",
               lambda f, s, e, _, x, y: f(x, y, e, s.action),
               tag="l1", draws=("general", "general"), trials=_pairs),
    SuiteCheck(("young-inequality",), "check_young",
               lambda f, s, e, pqr, x, y: f(x, y, *zip(*pqr), e, s.action),
               tag="young", draws=("general", "general"),
               trials=lambda t: max(len(YOUNG_GRID), t), grid=YOUNG_GRID,
               skip=("no trace-class element commutes with D in this scenario "
                     "(the hypothesis set is empty for a diffuse scaling operator)")),
    SuiteCheck(("interpolation-bound",), "check_interpolation",
               lambda f, s, e, p, x, y: f(x, y, p, e, s.action),
               tag="interpolation", draws=("general", "general"),
               trials=lambda t: max(len(INTERPOLATION_EXPONENTS), t // 2),
               grid=INTERPOLATION_EXPONENTS),
    SuiteCheck(("holder-inequality",), "check_holder",
               lambda f, s, e, pqr, x, y: f(x, y, *zip(*pqr)),
               tag="holder", draws=("general", "general"),
               trials=lambda t: max(len(HOLDER_GRID), t // 2), grid=HOLDER_GRID),
    SuiteCheck(("alt-inequality",), "check_alt", lambda f, s, e, r, a, b: f(a, b, r),
               tag="alt", draws=("positive", "positive"),
               trials=lambda t: max(len(ALT_POWERS), t // 2), grid=ALT_POWERS),
)


def suite_entry(name: str) -> SuiteCheck:
    """The SUITE entry that reports the row ``name``."""
    return next(row for row in SUITE if name in row.rows)


def bind_tolerance(row: SuiteCheck, scn) -> Callable[..., CheckReport | tuple[CheckReport, ...]]:
    """The check function of a SUITE entry with ``tol`` bound to its row's
    entry in the scenario's tolerance table (see scenarios.Scenario), or to
    the pair of entries of check_l1's two rows.  admissibility-identities
    and ergodicity have no entry: the one derives its tolerance from the
    estimate, the other compares integers exactly."""
    check = globals()[row.check]
    tol = [scn.tolerances[name] for name in row.rows if name in scn.tolerances]
    if not tol:
        return check
    return partial(check, tol=tuple(tol) if len(tol) > 1 else tol[0])


def run_check(row: SuiteCheck, scn, est: DufloEstimate | EstimateError | None,
              rng: np.random.Generator | None, n: int) -> tuple[CheckReport, ...]:
    """The worst reports of ``n`` trials of one SUITE entry on the scenario
    ``scn``, drawing from ``rng``: one stacked draw and one call of the
    check per chunk of trials, as many as keep the draw of their elements
    below algebra.STACK_BYTES (every trial of a row, on the finite builtins
    at the default trial counts; one trial a call on the wavelet).  A chunk
    replaces the worst report only when its own is strictly worse, as a
    later trial would."""
    check = bind_tolerance(row, scn)
    chunk = stack_size(16 * scn.shape.total_dim * max(1, len(row.draws)))
    worst: tuple[CheckReport, ...] = ()
    for start in range(0, n, chunk):
        trials = range(start, min(start + chunk, n))
        stacks = scn.random_trials(rng, row.draws, len(trials)) if row.draws else ()
        out = row.call(check, scn, est, tuple(row.grid[t % len(row.grid)] for t in trials), *stacks)
        del stacks  # freed before the next chunk is drawn
        out = out if isinstance(out, tuple) else (out,)
        worst = out if not worst else tuple(
            new if new.rel_err > old.rel_err else old for new, old in zip(out, worst))
    if row.notes is not None:
        worst[0].notes = row.notes.format(n=n)
    return worst


def run_suite(scenario, *, trials: int | None = None) -> list[CheckReport]:
    """Run every entry of SUITE that applies to a scenario (see
    scenarios.Scenario), in order, with deterministic seeding.

    D is estimated once from ``scenario.duflo_pair()``, when the duflo-estimate
    row runs; when that fails, every later entry is reported skipped with the
    estimate's message.
    """
    scn = scenario
    trials = trials if trials is not None else scn.default_trials
    reports: list[CheckReport] = []
    rngs: dict[str | None, np.random.Generator | None] = {None: None}
    est = no_estimate = None
    for row in SUITE:
        if not row.applies(scn):
            continue
        reason = no_estimate or (row.skip if row.skip and not est.scalar_flag else None)
        if reason:
            reports.extend(CheckReport.skip(name, CLAIMS[name], reason) for name in row.rows)
            continue
        if "duflo-estimate" in row.rows:
            try:
                est = estimate_duflo(scn.action, *scn.duflo_pair(), cross_tol=scn.tolerances["duflo-estimate"])
            except EstimateError as exc:
                est, no_estimate = exc, f"no estimate of D: {exc}"
        if row.tag not in rngs:
            rngs[row.tag] = scn.rng(row.tag)
        reports.extend(run_check(row, scn, est, rngs[row.tag], row.trials(trials)))
    return reports
