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

For general (non-hermitian) y the bracket is conjugate-linear in y, so the
equality-type laws carry an adjoint on y: the right-hand sides below use
trace(D^{-1/2} y* D^{-1/2}) and trace(x) * trace(y*).  For hermitian y this
is the same statement without the adjoint.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import (
    AlgebraElement,
    NotPositiveError,
    ParameterError,
    eigh_blocks,
    from_eigh,
    op_norm,
    p_norm,
    trace,
    trace_pairing,
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
# The claim of every row after the estimate of D; a row skipped after a
# failed estimate repeats it.
CLAIMS: dict[str, str] = {
    "duflo-scalar-form": "unimodular group: D is a constant multiple of the identity",
    "bracket-symmetry": "<x|y>(g^{-1}) = <y|x>(g)",
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


class EstimateError(Exception):
    """The scaling-operator estimate failed (non-positive or inconsistent)."""


class InconsistencyError(EstimateError):
    """Two independent test elements disagree beyond tolerance."""


@dataclass
class DufloEstimate:
    """Estimated scaling operator D with its inverse and diagnostics."""

    d_inverse: AlgebraElement
    d: AlgebraElement
    scalar_flag: bool
    scalar_value: float | None
    off_scalar_residual: float
    cross_check_residual: float
    min_eigenvalue: float

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of D^{-1}, cached (the estimator sets it)."""
        eig = getattr(self, "_eig", None)
        if eig is None:
            eig = eigh_blocks(self.d_inverse)
            self._eig = eig
        return eig

    def power(self, t: float) -> AlgebraElement:
        """D^t through the spectrum of D^{-1} (cached by the estimator),
        computed once per exponent."""
        powers = self.__dict__.setdefault("_powers", {})
        if t not in powers:
            powers[t] = from_eigh(self.d.shape, self._spectrum(), lambda w: w ** (-t))
        return powers[t]

    def condition(self) -> float:
        """cond(D), the ratio of the extreme eigenvalues of D^{-1}."""
        w = self._spectrum()[0]
        return float(w.max() / w.min())

    def sandwich(self, t: float, y: AlgebraElement) -> AlgebraElement:
        """D^t y D^t."""
        dt = self.power(t)
        return dt @ y @ dt


def estimate_duflo(
    action: Action,
    x_test: AlgebraElement,
    x_test_alt: AlgebraElement | None = None,
    *,
    cross_tol: float | None = None,
) -> DufloEstimate:
    """Estimate D from the modular-weighted orbit sum of a positive test element.

    D^{-1} = sum_i w_i Delta(g_i)^{-1} (g_i . x) with trace(x) normalized to 1
    and w the action's Haar weights;
    D is its spectral inverse.  A second test element cross-checks the
    estimate; residuals beyond ``cross_tol`` raise InconsistencyError.  Both
    residuals are measured in the action's own comparison (see Action).
    """
    d_inv = _orbit_density(action, x_test)

    eig = eigh_blocks(d_inv)
    min_eig, max_eig = float(eig[0].min()), float(eig[0].max())
    if min_eig <= 1e-12 * max_eig:
        raise EstimateError(
            f"orbit density is not positive definite (min eig {min_eig:.3e}); "
            "the action looks non-ergodic or non-integrable at this quadrature"
        )
    d = from_eigh(d_inv.shape, eig, np.reciprocal)

    tau_one = trace(d.shape.identity()).real
    d_scalar = trace(d).real / tau_one
    off = d - d.shape.scalar(d_scalar)
    off_res = action.off_scalar_norm(off) / abs(d_scalar)
    scalar_flag = off_res <= 1e-8

    cross = 0.0
    if x_test_alt is not None:
        d_inv_alt = _orbit_density(action, x_test_alt)
        cross = action.cross_check_distance(d_inv, d_inv_alt)
        if cross_tol is not None and cross > cross_tol:
            raise InconsistencyError(
                f"independent test elements disagree by {cross:.3e} > {cross_tol:.1e}; "
                "quadrature too coarse or action not ergodic"
            )

    est = DufloEstimate(
        d_inverse=d_inv,
        d=d,
        scalar_flag=scalar_flag,
        scalar_value=d_scalar if scalar_flag else None,
        off_scalar_residual=off_res,
        cross_check_residual=cross,
        min_eigenvalue=min_eig,
    )
    est._eig = eig
    return est


def _orbit_density(action: Action, x_test: AlgebraElement) -> AlgebraElement:
    tau = trace(x_test)
    if abs(tau.imag) > 1e-10 * (1.0 + abs(tau.real)) or tau.real <= 0:
        raise NotPositiveError("test element must be positive with positive trace")
    if x_test.hermitian_defect() > 1e-9 * (1.0 + x_test.max_abs_entry()):
        raise NotPositiveError("test element must be hermitian")
    x = (1.0 / tau.real) * x_test
    coeffs = action.haar.weights / action.modular_values()
    raw = action.orbit_sum(coeffs, x)
    return 0.5 * (raw + raw.adjoint())


# ---------------------------------------------------------------------------
# individual law checks


def check_orthogonality(
    action: Action,
    est: DufloEstimate,
    x: AlgebraElement,
    y: AlgebraElement,
    *,
    positive: bool = True,
    tol_rel: float = 1e-9,
    scenario: str = "",
) -> CheckReport:
    """Integrated bracket against trace(x) * trace(D^{-1/2} y D^{-1/2}).

    The right-hand side is taken as trace(x) * trace(D^{-1} y), the same
    number by cyclicity of the trace, computed as a trace pairing with no
    spectral power or product; the admissibility-identities row certifies
    the identity at the estimate.  For the general form (any x, y) the
    right-hand side carries the adjoint of y; see the module docstring.
    """
    lhs = action.bracket_integral(x, y)
    y_eff = y if positive else y.adjoint()
    rhs = trace(x) * trace_pairing(est.d_inverse, y_eff)
    name = "orthogonality-positive" if positive else "orthogonality-general"
    # every bracket value is bounded by ||x||_2 ||y||_2, so the Haar mass sets
    # the scale against which a vanishing integral counts as exact
    scale = float(np.sum(action.haar.weights)) * p_norm(x, 2.0) * p_norm(y, 2.0)
    return CheckReport.equality(name, CLAIMS[name], lhs, rhs, tol_rel=tol_rel,
                                tol_abs=tol_rel * scale, scenario=scenario)


def check_semi_invariance(
    action: Action,
    est: DufloEstimate,
    *,
    tol_rel: float = 1e-9,
    scenario: str = "",
) -> CheckReport:
    """Defect of g.D = Delta(g)^{-1} D over the sampled elements.

    Exact finite models compare matrices entrywise; a quadrature model
    compares in its own weak sense (Action.semi_invariance_defect).
    """
    worst = action.semi_invariance_defect(est.d)
    return CheckReport.bound(
        "semi-invariance", CLAIMS["semi-invariance"],
        worst, 0.0, tol_rel=0.0, tol_abs=tol_rel, scenario=scenario,
        notes=f"defect={worst:.3e}{action.comparison_note}",
    )


def admissibility_tol(est: DufloEstimate) -> float:
    """max(1e-11, cond(D) n eps) for blocks of size n.

    Both identities run D^{+-1/2} through the eigenbasis of D^{-1}, whose
    roundoff grows like its condition number times the block size.
    """
    return max(1e-11, est.condition() * est.d.shape.block_dim * float(np.finfo(float).eps))


def check_admissibility(y: AlgebraElement, est: DufloEstimate,
                        tol: float | None = None) -> tuple[bool, float]:
    """Value trace(D^{-1/2} y D^{-1/2}) plus both density-weight identities.

    Checks trace(D^{-1} y) = trace(D^{-1/2} y D^{-1/2}) and the round trip
    trace(D^{1/2} (D^{-1/2} y D^{-1/2}) D^{1/2}) = trace(y), to relative
    ``tol`` (default ``admissibility_tol``).  Every element is admissible in
    a finite-dimensional model; the identities are certified rather than
    membership.
    """
    if y.hermitian_defect() > 1e-9 * (1.0 + y.max_abs_entry()):
        raise NotPositiveError("admissibility check expects a hermitian positive element")
    if tol is None:
        tol = admissibility_tol(est)
    sand = est.sandwich(-0.5, y)
    value = trace(sand).real
    direct = trace_pairing(est.d_inverse, y).real
    roundtrip = trace(est.sandwich(0.5, sand)).real
    ty = trace(y).real
    scale = max(abs(value), abs(direct), abs(ty), 1e-300)
    ok = abs(value - direct) <= tol * scale and abs(roundtrip - ty) <= tol * scale
    return ok, value


def admissibility_report(y: AlgebraElement, est: DufloEstimate, *, scenario: str = "") -> CheckReport:
    tol = admissibility_tol(est)
    ok, value = check_admissibility(y, est, tol=tol)
    return CheckReport.flag(
        "admissibility-identities", CLAIMS["admissibility-identities"],
        ok, scenario=scenario, notes=f"value={value:.6e} tol={tol:.1e}",
    )


def check_l1(
    x: AlgebraElement,
    y: AlgebraElement,
    est: DufloEstimate,
    action: Action,
    *,
    tol_rel: float = 1e-9,
    scenario: str = "",
) -> tuple[CheckReport, CheckReport]:
    """L1 contraction and the trace-product identity for <x|D^{1/2} y D^{1/2}>.

    Inequality: integral of |<x|D^{1/2} y D^{1/2}>| <= trace|x| trace|y|.
    Equality:   integral of  <x|D^{1/2} y D^{1/2}>  = trace(x) trace(y*).
    """
    ytil = est.sandwich(0.5, y)
    bf = bracket(x, ytil, action)
    lhs_ineq = float(np.dot(bf.weights, np.abs(bf.values)))
    rhs_ineq = p_norm(x, 1.0) * p_norm(y, 1.0)
    ineq = CheckReport.bound(
        "l1-inequality", CLAIMS["l1-inequality"],
        lhs_ineq, rhs_ineq, tol_rel=tol_rel, scenario=scenario,
    )
    lhs_eq = integrate_bracket(bf)
    rhs_eq = trace(x) * trace(y.adjoint())
    scale = float(np.sum(bf.weights)) * p_norm(x, 2.0) * p_norm(ytil, 2.0)
    eq = CheckReport.equality(
        "l1-equality", CLAIMS["l1-equality"],
        lhs_eq, rhs_eq, tol_rel=tol_rel, tol_abs=tol_rel * scale, scenario=scenario,
    )
    return ineq, eq


def check_young(
    x: AlgebraElement,
    y: AlgebraElement,
    p: float,
    q: float,
    r: float,
    est: DufloEstimate,
    action: Action,
    *,
    tol_rel: float = 1e-9,
    scenario: str = "",
) -> CheckReport:
    """Convolution inequality ||<x|D^{1/(2r)} y D^{1/(2r)}>||_r <= ||x||_p ||y||_q.

    Requires 1/p + 1/q = 1 + 1/r with 1 <= p, q <= r < inf and y commuting
    with D (enforced; automatic for scalar D).
    """
    if not (1.0 <= p <= r and 1.0 <= q <= r and r < math.inf):
        raise ParameterError(f"invalid exponents p={p}, q={q}, r={r}")
    if abs(1.0 / p + 1.0 / q - 1.0 - 1.0 / r) > 1e-12:
        raise ParameterError(f"exponents must satisfy 1/p + 1/q = 1 + 1/r, got {p}, {q}, {r}")
    commutator = est.d @ y - y @ est.d
    bound = 1e-9 * op_norm(y) * op_norm(est.d)
    if op_norm(commutator) > bound:
        raise ParameterError("y must commute with D for the convolution inequality")
    ytil = est.sandwich(1.0 / (2.0 * r), y)
    bf = bracket(x, ytil, action)
    lhs = function_p_norm(bf, r)
    rhs = p_norm(x, p) * p_norm(y, q)
    return CheckReport.bound(
        "young-inequality", CLAIMS["young-inequality"], lhs, rhs, tol_rel=tol_rel, scenario=scenario,
        notes=f"p={p:g} q={q:g} r={r:g}",
    )


def check_interpolation(
    x: AlgebraElement,
    y: AlgebraElement,
    p: float,
    est: DufloEstimate,
    action: Action,
    *,
    tol_rel: float = 1e-9,
    scenario: str = "",
) -> CheckReport:
    """Interpolation bound ||<x|y>||_p <= ||x||_p ||y||_1^{1/q} ||D^{-1/2} y D^{-1/2}||_1^{1/p}.

    The p = inf endpoint is checked as the documented sup-norm variant
    ||<x|y>||_inf <= ||x||_inf ||y||_1.
    """
    if p < 1.0:
        raise ParameterError(f"exponent must be >= 1, got {p}")
    bf = bracket(x, y, action)
    lhs = function_p_norm(bf, p)
    if p == math.inf:
        rhs = p_norm(x, math.inf) * p_norm(y, 1.0)
        claim = "sup|<x|y>| <= ||x||_inf ||y||_1 (endpoint variant)"
    else:
        q = math.inf if p == 1.0 else p / (p - 1.0)
        y1 = p_norm(y, 1.0)
        ys = p_norm(est.sandwich(-0.5, y), 1.0)
        rhs = p_norm(x, p) * (y1 ** (0.0 if q == math.inf else 1.0 / q)) * (ys ** (1.0 / p))
        claim = CLAIMS["interpolation-bound"]
    return CheckReport.bound(
        "interpolation-bound", claim, lhs, rhs, tol_rel=tol_rel, scenario=scenario,
        notes=f"p={p:g}",
    )


def check_holder(x: AlgebraElement, y: AlgebraElement, p: float, q: float, r: float,
                 *, tol_rel: float = 1e-9, scenario: str = "") -> CheckReport:
    """Trace-norm product inequality ||x y||_r <= ||x||_p ||y||_q for 1/p + 1/q = 1/r."""
    if abs(1.0 / p + 1.0 / q - 1.0 / r) > 1e-12:
        raise ParameterError("exponents must satisfy 1/p + 1/q = 1/r")
    lhs = p_norm(x @ y, r)
    rhs = p_norm(x, p) * p_norm(y, q)
    return CheckReport.bound(
        "holder-inequality", CLAIMS["holder-inequality"],
        lhs, rhs, tol_rel=tol_rel, scenario=scenario, notes=f"p={p:g} q={q:g} r={r:g}",
    )


def check_alt(a: AlgebraElement, b: AlgebraElement, r: int,
              *, tol_rel: float = 1e-9, scenario: str = "") -> CheckReport:
    """Sandwich-power inequality trace((b a b)^r) <= trace(b^r a^r b^r), integer r >= 1."""
    if r < 1 or int(r) != r:
        raise ParameterError("power must be a positive integer")
    r = int(r)
    lhs = trace(_int_power(b @ a @ b, r)).real
    ar, br = _int_power(a, r), _int_power(b, r)
    rhs = trace(br @ ar @ br).real
    return CheckReport.bound(
        "alt-inequality", CLAIMS["alt-inequality"],
        lhs, rhs, tol_rel=tol_rel, scenario=scenario, notes=f"r={r}",
    )


def _int_power(x: AlgebraElement, r: int) -> AlgebraElement:
    acc = x
    for _ in range(r - 1):
        acc = acc @ x
    return acc


# ---------------------------------------------------------------------------
# scenario suite


@dataclass(frozen=True)
class SuiteCheck:
    """One law check of the suite: the worst report of a few seeded trials.

    Each trial draws one element per entry of ``draws`` ("positive",
    "general", or "commuting": an element commuting with D) from the
    scenario's rng stream ``tag``, takes the next point of ``grid``, and calls
    ``call(check, scenario, estimate, point, *elements)``.  ``check`` names a
    function of this module; it is looked up when the row runs, so rebinding
    the module attribute reaches the suite.  A trial replaces the worst report
    only when its rel_err is strictly larger; a check that returns a tuple
    keeps one worst per position.  ``rows`` names the reports, in order.
    ``notes`` ("{n}" is the trial count) replaces the worst report's notes.
    ``skip`` is the reason reported instead when the scenario has no element
    commuting with D.
    """

    rows: tuple[str, ...]
    tag: str | None
    check: str
    draws: tuple[str, ...]
    trials: Callable[[int], int]
    call: Callable[..., CheckReport | tuple[CheckReport, ...]]
    grid: tuple = (None,)
    notes: str | None = None
    skip: str | None = None


def _pairs(trials: int) -> int:
    return max(4, trials // 4)


def _once(trials: int) -> int:
    return 1


# The checks after the estimate of D, in report order.
SUITE: tuple[SuiteCheck, ...] = (
    SuiteCheck(("orthogonality-positive",), "orthogonality", "check_orthogonality",
               ("positive", "positive"), _pairs,
               lambda f, s, e, _, x, y: f(s.action, e, x, y, positive=True, tol_rel=s.tol_rel),
               notes="worst of {n} positive pairs"),
    SuiteCheck(("orthogonality-general",), "orthogonality", "check_orthogonality",
               ("general", "general"), _pairs,
               lambda f, s, e, _, x, y: f(s.action, e, x, y, positive=False, tol_rel=s.tol_rel),
               notes="worst of {n} general pairs"),
    SuiteCheck(("semi-invariance",), None, "check_semi_invariance", (), _once,
               lambda f, s, e, _: f(s.action, e, tol_rel=s.tol_rel)),
    SuiteCheck(("admissibility-identities",), "admissibility", "admissibility_report",
               ("positive",), _once,
               lambda f, s, e, _, y: f(y, e)),
    SuiteCheck(("l1-inequality", "l1-equality"), "l1", "check_l1", ("general", "general"), _pairs,
               lambda f, s, e, _, x, y: f(x, y, e, s.action, tol_rel=s.ineq_tol)),
    SuiteCheck(("young-inequality",), "young", "check_young", ("general", "commuting"),
               lambda t: max(len(YOUNG_GRID), t),
               lambda f, s, e, pqr, x, y: f(x, y, *pqr, e, s.action, tol_rel=s.ineq_tol),
               grid=YOUNG_GRID,
               skip=("no trace-class element commutes with D in this scenario "
                     "(the hypothesis set is empty for a diffuse scaling operator)")),
    SuiteCheck(("interpolation-bound",), "interpolation", "check_interpolation",
               ("general", "general"),
               lambda t: max(len(INTERPOLATION_EXPONENTS), t // 2),
               lambda f, s, e, p, x, y: f(x, y, p, e, s.action, tol_rel=s.ineq_tol),
               grid=INTERPOLATION_EXPONENTS),
    SuiteCheck(("holder-inequality",), "holder", "check_holder", ("general", "general"),
               lambda t: max(len(HOLDER_GRID), t // 2),
               lambda f, s, e, pqr, x, y: f(x, y, *pqr, tol_rel=1e-9),
               grid=HOLDER_GRID),
    SuiteCheck(("alt-inequality",), "alt", "check_alt", ("positive", "positive"),
               lambda t: max(len(ALT_POWERS), t // 2),
               lambda f, s, e, r, a, b: f(a, b, r, tol_rel=1e-9),
               grid=ALT_POWERS),
)


def run_suite(scenario, *, trials: int | None = None) -> list[CheckReport]:
    """Run every check of a scenario in a fixed order with deterministic seeding.

    ``scenario`` provides the action with its Haar model, tolerances, element
    draws and optional expectations; see scenarios.Scenario.  The structural
    checks and the estimate of D come first, then the rows of SUITE.
    """
    scn = scenario
    action = scn.action
    sid = scn.scenario_id
    trials = trials if trials is not None else scn.default_trials
    reports: list[CheckReport] = []

    hom, aut, iso = homomorphism_defect(action), automorphism_defect(action), isometry_defect(action)
    reports.append(CheckReport.bound(
        "action-validity",
        "homomorphism, *-automorphism and p-norm isometry defects",
        max(hom, aut, iso), 0.0, tol_rel=0.0, tol_abs=1e-9, scenario=sid,
        notes=f"hom={hom:.2e} aut={aut:.2e} iso={iso:.2e} certificate={action.structure.certificate}",
    ))

    reports.append(is_trace_preserving(action, scenario=sid))

    dim = fixed_point_dimension(action)
    reports.append(CheckReport.equality(
        "ergodicity", "fixed-point dimension of the sampled action is 1",
        float(dim), 1.0, tol_rel=0.0, tol_abs=0.0, scenario=sid,
        notes="sampled generating set" if scn.is_quadrature else "generators",
    ))

    x1, x2 = scn.duflo_pair()
    witness = action.bracket_integral(x1, x1)
    ok = math.isfinite(witness.real) and witness.real > 0 and abs(witness.imag) <= 1e-9 * (1 + abs(witness.real))
    reports.append(CheckReport.flag(
        "integrability-witness",
        "the bracket integral of a positive test element is finite and positive",
        ok, scenario=sid, notes=f"value={witness.real:.6e}",
    ))

    try:
        est = estimate_duflo(action, x1, x2, cross_tol=scn.cross_tol)
    except EstimateError as exc:
        reports.append(CheckReport.flag(
            "duflo-estimate", "orbit-density estimate of D succeeded", False,
            scenario=sid, notes=str(exc),
        ))
        # every later row needs D: each is skipped with the estimate's message,
        # so the scenario lists the rows of a passing run
        expected = scn.expected_claims()
        claims = {**CLAIMS, **expected}
        names = [*([] if scn.is_quadrature else ["duflo-scalar-form"]), *expected,
                 "bracket-symmetry", *(name for row in SUITE for name in row.rows)]
        reports.extend(CheckReport.skip(name, claims[name], f"no estimate of D: {exc}", scenario=sid)
                       for name in names)
        return reports

    notes = (
        f"min_eig={est.min_eigenvalue:.3e} cross={est.cross_check_residual:.3e} "
        f"scalar={est.scalar_flag}"
    )
    reports.append(CheckReport.bound(
        "duflo-estimate", "cross-check residual of two independent test elements",
        est.cross_check_residual, 0.0, tol_rel=0.0, tol_abs=scn.cross_tol,
        scenario=sid, notes=notes,
    ))

    if not scn.is_quadrature:
        reports.append(CheckReport.bound(
            "duflo-scalar-form", CLAIMS["duflo-scalar-form"],
            est.off_scalar_residual, 0.0, tol_rel=0.0, tol_abs=1e-9, scenario=sid,
            notes=f"off-scalar residual={est.off_scalar_residual:.3e}",
        ))

    reports.extend(scn.expected_reports(est))

    rng = scn.rng("symmetry")
    xs = scn.random_positive(rng)
    ys = scn.random_positive(rng)
    try:
        defect = bracket_symmetry_defect(xs, ys, action)
        reports.append(CheckReport.bound(
            "bracket-symmetry", CLAIMS["bracket-symmetry"],
            defect, 0.0, tol_rel=0.0, tol_abs=1e-10, scenario=sid,
        ))
    except InverseClosureError as exc:
        reports.append(CheckReport.skip(
            "bracket-symmetry", CLAIMS["bracket-symmetry"], str(exc), scenario=sid,
        ))

    draw = {
        "positive": scn.random_positive,
        "general": scn.random_element,
        "commuting": lambda rng: scn.commuting_element(rng, est),
    }
    rngs: dict[str | None, np.random.Generator | None] = {None: None}
    for row in SUITE:
        if row.skip is not None and not scn.has_commuting_elements:
            reports.extend(CheckReport.skip(name, CLAIMS[name], row.skip, scenario=sid)
                           for name in row.rows)
            continue
        if row.tag not in rngs:
            rngs[row.tag] = scn.rng(row.tag)
        rng = rngs[row.tag]
        check = partial(globals()[row.check], scenario=sid)
        n = row.trials(trials)
        worst_of: tuple[CheckReport, ...] = ()
        for t in range(n):
            elements = [draw[kind](rng) for kind in row.draws]
            out = row.call(check, scn, est, row.grid[t % len(row.grid)], *elements)
            out = out if isinstance(out, tuple) else (out,)
            worst_of = out if not worst_of else tuple(
                new if new.rel_err > old.rel_err else old for new, old in zip(out, worst_of))
        if row.notes is not None:
            worst_of[0].notes = row.notes.format(n=n)
        reports.extend(worst_of)
    return reports
