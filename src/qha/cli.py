"""Command-line entry point: verify scenario suites, inspect D, refine grids.

Exit codes: 0 all checks passed, 1 at least one check or estimate failed,
2 configuration error (unknown scenario, unreadable file, bad flags).
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .duflo import EstimateError, estimate_duflo, run_check, run_suite, suite_entry
# not called here (refine runs the suite's entries); benchmarks/selftest.py checks this binding
from .duflo import check_orthogonality  # noqa: F401
from .reports import all_passed
from .scenarios import (
    BUILTIN_IDS,
    ConfigError,
    Scenario,
    ScenarioSpec,
    build_scenario,
    list_builtins,
    load_scenario,
    refined_wavelet,
)

if TYPE_CHECKING:  # imported on use, see _parser
    import argparse

ENV_SEED = "QHA_SEED"


class RunConfig(NamedTuple):
    """One resolved invocation: a command, scenario sources, output surface."""

    command: str
    specs: tuple[ScenarioSpec, ...]
    fmt: str = "text"
    out: str | None = None
    grids: int = 3
    trials: int | None = None


def _parser() -> argparse.ArgumentParser:
    import argparse  # loaded only when a command line is parsed
    ap = argparse.ArgumentParser(
        prog="qha",
        description="Verify scaling-operator laws on builtin and configured scenarios.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", action="append", default=[],
                       help="builtin id or scenario file path (repeatable)")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed override (falls back to ${ENV_SEED}, then the builtin default)")

    # each subcommand registers only the flags it reads
    pv = sub.add_parser("verify", help="run the full check suite")
    common(pv)
    pv.add_argument("--all", action="store_true", help="run every builtin scenario")
    pv.add_argument("--format", choices=("text", "structured"), default="text")
    pv.add_argument("--tol-rel", type=float, default=None, help="relative tolerance override")
    pv.add_argument("--trials", type=int, default=None, help="seeded trials per aggregate check")
    pd = sub.add_parser("duflo", help="estimate D and print its diagnostics")
    common(pd)
    pd.add_argument("--all", action="store_true", help="run every builtin scenario")
    pr = sub.add_parser("refine", help="rerun quadrature metrics at successive grid refinements")
    common(pr)
    pr.add_argument("--grids", type=int, default=3, help="number of grid resolutions (>= 2)")
    sub.add_parser("list", help="print the builtin scenario catalog")
    return ap


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"${ENV_SEED} must be an integer, got {env!r}")
    return None


def resolve_config(args) -> RunConfig:
    """Turn parsed flags into a RunConfig with fully resolved scenario specs."""
    if args.command == "list":
        return RunConfig(command="list", specs=())
    seed = _resolve_seed(args)
    tol_rel = getattr(args, "tol_rel", None)
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    ids: list[str] = []
    if getattr(args, "all", False):
        ids.extend(BUILTIN_IDS)
    ids.extend(args.scenario)
    if not ids:
        raise ConfigError("no scenario given; use --scenario <id|path>"
                          + (" or --all" if hasattr(args, "all") else ""))
    specs: list[ScenarioSpec] = []
    for token in ids:
        if os.path.sep in token or token.endswith(".ini") or os.path.exists(token):
            if not os.path.exists(token):
                raise ConfigError(f"scenario file {token!r} does not exist")
            spec = load_scenario(token)
        else:
            spec = ScenarioSpec(token)
        specs.append(ScenarioSpec(
            spec.scenario_id,
            seed=seed if seed is not None else spec.seed,
            tol_rel=tol_rel if tol_rel is not None else spec.tol_rel,
        ))
    return RunConfig(
        command=args.command,
        specs=tuple(specs),
        fmt=getattr(args, "format", "text"),
        out=args.out,
        grids=getattr(args, "grids", 3),
        trials=trials,
    )


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(cfg: RunConfig) -> int:
    lines: list[str] = ["qha-report v1"] if cfg.fmt == "structured" else []
    failed = 0
    for spec in cfg.specs:
        scn = build_scenario(spec)
        reports = run_suite(scn, trials=cfg.trials)
        if cfg.fmt == "structured":
            lines.append(f"scenario {spec.scenario_id}")
            lines.append(f"seed {spec.seed}")
            lines.extend(r.row() for r in reports)
            n_fail = sum(not r.passed for r in reports)
            lines.append(f"summary checks={len(reports)} failed={n_fail}")
        else:
            lines.append(f"== {spec.scenario_id} (seed {spec.seed})")
            lines.extend(r.text_row() for r in reports)
        if not all_passed(reports):
            failed += 1
    if cfg.fmt == "text":
        lines.append(f"scenarios: {len(cfg.specs)}, failed: {failed}")
    _emit(lines, cfg.out)
    return 1 if failed else 0


def cmd_duflo(cfg: RunConfig) -> int:
    lines: list[str] = []
    code = 0
    for spec in cfg.specs:
        scn = build_scenario(spec)
        try:
            est = estimate_duflo(scn.action, *scn.duflo_pair(), cross_tol=scn.tolerances["duflo-estimate"])
        except EstimateError as exc:
            lines.append(f"== {spec.scenario_id}: estimate failed: {exc}")
            code = 1
            continue
        semi, = run_check(suite_entry("semi-invariance"), scn, est, None, 1)
        lines.append(f"== {spec.scenario_id}")
        spectra = np.sort(1.0 / est.eigenvalues, axis=1)
        for k, spectrum in enumerate(spectra):
            shown = ", ".join(f"{v:.9g}" for v in spectrum[:8])
            more = "" if spectrum.size <= 8 else f", ... ({spectrum.size} total)"
            lines.append(f"  block {k}: spectrum of D = [{shown}{more}]")
        if est.scalar_flag:
            lines.append(f"  scalar: yes, D = {est.scalar_value:.12g} * 1")
        else:
            lines.append(f"  scalar: no (off-scalar residual {est.off_scalar_residual:.3e})")
        lines.append(f"  cross-check residual: {est.cross_check_residual:.3e}")
        lines.append(f"  semi-invariance defect: {semi.lhs:.3e}")
    _emit(lines, cfg.out)
    return code


def cmd_refine(cfg: RunConfig) -> int:
    if cfg.grids < 2:
        raise ConfigError("refinement needs at least 2 grid resolutions")
    lines: list[str] = []
    for spec in cfg.specs:
        scn = build_scenario(spec)
        if scn.action.group.kind != "quadrature":
            raise ConfigError(f"scenario {spec.scenario_id!r} has an exact finite group; "
                              "refinement is meaningless")
        lines.append(f"== {spec.scenario_id}: residual vs grid refinement")
        lines.append(f"{'level':>5} {'nodes':>8} {'orthogonality':>15} {'semi-invariance':>16} {'cross-check':>12}")
        for level in range(cfg.grids):
            metrics = refinement_metrics(scn if level == 0 else refined_wavelet(scn, level))
            lines.append(
                f"{level:>5} {metrics['nodes']:>8} {metrics['orthogonality']:>15.6e} "
                f"{metrics['semi_invariance']:>16.6e} {metrics['cross_check']:>12.6e}"
            )
    _emit(lines, cfg.out)
    return 0


def refinement_metrics(scn: Scenario) -> dict:
    """Orthogonality, semi-invariance and cross-check residuals of one grid
    level, the scenario ``refined_wavelet`` builds for it.  D is estimated
    from ``Scenario.duflo_pair()`` as by the suite, with no cross-check
    tolerance, so at level 0 the cross-check and semi-invariance columns are
    the duflo-estimate and semi-invariance rows of ``qha verify``; the
    orthogonality column is the suite's orthogonality-positive entry, worst
    of 3 pairs, on the scenario's "refine" stream."""
    est = estimate_duflo(scn.action, *scn.duflo_pair(), cross_tol=None)
    ortho, = run_check(suite_entry("orthogonality-positive"), scn, est, scn.rng("refine"), 3)
    semi, = run_check(suite_entry("semi-invariance"), scn, est, None, 1)
    return {"nodes": scn.action.group.node_count, "orthogonality": ortho.rel_err,
            "semi_invariance": semi.lhs, "cross_check": est.cross_check_residual}


def cmd_list(_cfg: RunConfig) -> int:
    for sid in list_builtins():
        print(sid)
    print("affine-wavelet:coarse  (refinement level for refine; fails duflo-estimate under verify; "
          "excluded from --all)")
    print("broken-measure  (negative-control fixture; excluded from --all)")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "duflo":
            return cmd_duflo(cfg)
        if cfg.command == "refine":
            return cmd_refine(cfg)
        if cfg.command == "list":
            return cmd_list(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
