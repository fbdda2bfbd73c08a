"""Benchmark harness: end-to-end and per-layer metrics for three workloads.

    python3 benchmarks/bench.py --workload {finite,wavelet-verify,wavelet-refine}
                                [--seed 1729] [--seconds 40] [--trace 0|1]

Load model: a closed loop with one client.  Every pass of a workload runs in
a fresh child interpreter (``child.py``) with OpenMP/OpenBLAS/MKL pinned to
one thread; the seed reaches the program only as ``ScenarioSpec(seed=...)``.

``--trace 0`` measures the end-to-end metrics with tracing off.  One warm-up
child (import and set-up only: it compiles and caches the package's bytecode
and pages in the libraries) runs first and is discarded.  Then passes, one
fresh child each, start while the next is expected to end within
``--seconds`` (at least three passes).

- ``setup_s``: median over the passes of ``import qha`` plus building every
  scenario of the workload.
- ``run_s``: median over the passes of the wall time of the checks.
- ``peak_rss_mb``: median over the passes of the child's peak RSS.
- ``check_pass_ratio``: law checks passed over checks attempted; a suite that
  raises counts every check it would have reported as failed.

The machine's speed drifts by a quarter and more over tens of minutes, and
that drift moves every time alike.  So each pass child also times a fixed
probe kernel of the benchmark's own right after its checks, and
``setup_s`` and ``run_s`` are the child's wall times scaled by
``PROBE_REF_S / probe_s``: wall times at the speed where the probe takes
``PROBE_REF_S``.  The unscaled medians go to the result file as ``wall``.

``--trace 1`` runs traced, untraced, traced, then one untraced child at the
default BLAS thread count, and reports the per-layer metrics: calls, self
time and total time of every wrapped layer (see ``tracing.py``), the LAPACK
and ARPACK counters, ``tracing.overhead_s`` (mean traced ``run_s`` minus the
untraced ``run_s`` between them) and both thread settings' ``run_s``.

Every run checks the outputs: all children of a run give the same report
digest, every expected check row is present, no suite raises, every check of
``finite`` and ``wavelet-verify`` passes, call counts repeat exactly across
the two traced children, and in ``finite`` the broken-measure negative
control still fails.  The last line of stdout is one
JSON object with ``correct``, ``attempted`` (suites or refinement runs),
``failed`` and ``metrics``; the exit code is 1 when an output check fails and
2 when a child cannot run.  A result file with the environment, every
child's record and the span dumps goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0
# Reference speed: the probe's time at which scaled times equal wall times.
PROBE_REF_S = 0.4
MIN_PASSES = 3
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "check_pass_ratio": "ratio"}


class ChildError(Exception):
    """A child interpreter failed to produce its record."""


def child_env(pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS and k != "QHA_SEED"}
    env["PYTHONHASHSEED"] = "0"
    if pinned:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.records: list[dict] = []

    def child(self, *flags: str, pinned: bool = True, role: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.t0)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(pinned), capture_output=True,
                                  text=True, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise ChildError(f"{role} child ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise ChildError(f"{role} child exited {proc.returncode}:\n{proc.stderr.strip()}")
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise ChildError(f"{role} child printed no record:\n{proc.stdout[-2000:]}")
        rec["role"] = role
        self.records.append(rec)
        return rec

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def verify_outputs(full: list[dict], traced: list[dict]) -> list[str]:
    """Every output check of the run; returns the failures."""
    problems = []
    digests = {r["report_sha256"] for r in full}
    if len(digests) != 1:
        problems.append(f"report digests differ across children: {sorted(digests)}")
    for r in full:
        for sid, err in r["errors"].items():
            problems.append(f"{r['role']}: {sid} raised: {err.strip().splitlines()[-1]}")
        for sid, names in r["expected"].items():
            got = [name for name, _ in r["checks"].get(sid, [])]
            if sid not in r["errors"] and got != names:
                problems.append(f"{r['role']}: {sid} reported checks {got}, expected {names}")
            failing = [name for name, ok in r["checks"].get(sid, []) if not ok]
            if r["must_pass"] and failing:
                problems.append(f"{r['role']}: {sid} failed {failing}")
        if r.get("negative_control_failed") is False:
            problems.append(f"{r['role']}: broken-measure negative control passed")
    if len(traced) == 2:
        a, b = (t["layers"] for t in traced)
        moved = [k for k in a if (k.endswith(".calls") or k.endswith(".matvecs")) and a[k] != b[k]]
        if moved:
            problems.append(f"counts differ between two traced runs: {moved}")
    return problems


def pass_ratio(full: list[dict]) -> float:
    attempted = passed = 0
    for r in full:
        for sid, names in r["expected"].items():
            attempted += len(names)
            if sid not in r["errors"]:
                passed += sum(ok for _, ok in r["checks"].get(sid, []))
    return passed / attempted


def suites(full: list[dict]) -> tuple[int, int]:
    """Operations attempted (suites or refinement runs) and those that failed."""
    attempted = failed = 0
    for r in full:
        for sid, names in r["expected"].items():
            attempted += 1
            got = [name for name, _ in r["checks"].get(sid, [])]
            failed += sid in r["errors"] or got != names
    return attempted, failed


def scaled(rec: dict, key: str) -> float:
    """A child's time at the reference machine speed, by its probe."""
    return rec[key] * PROBE_REF_S / rec["probe_s"]


def measure(run: Runner, seconds: float) -> tuple[dict, list[dict]]:
    run.child("--setup-only", role="warm-up")
    start = run.elapsed()
    passes = []
    while True:
        passes.append(run.child(role="pass"))
        per_pass = (run.elapsed() - start) / len(passes)
        if len(passes) >= MIN_PASSES and run.elapsed() - start + per_pass > seconds:
            break
    metrics = {
        "setup_s": statistics.median(scaled(r, "setup_s") for r in passes),
        "run_s": statistics.median(scaled(r, "run_s") for r in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "check_pass_ratio": pass_ratio(passes),
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    return metrics, passes


def measure_traced(run: Runner, spans_stem: Path) -> tuple[dict, list[dict], list[dict]]:
    t1 = run.child("--traced", "--spans", f"{spans_stem}-1.npz", role="traced")
    plain = run.child(role="untraced")
    t2 = run.child("--traced", "--spans", f"{spans_stem}-2.npz", role="traced")
    default = run.child(pinned=False, role="default-threads")
    values = {}
    for key, v in t1["layers"].items():
        if key.endswith((".calls", ".matvecs")):
            values[key] = v
        else:
            values[key] = (v + t2["layers"][key]) / 2
    values["tracing.overhead_s"] = (t1["run_s"] + t2["run_s"]) / 2 - plain["run_s"]
    values["threads_1.run_s"] = plain["run_s"]
    values["threads_default.run_s"] = default["run_s"]
    metrics = {}
    for key, v in values.items():
        unit = "count" if key.endswith((".calls", ".matvecs")) else "s"
        metrics[key] = {"value": v, "unit": unit}
    return metrics, [t1, plain, t2], [t1, t2]


def predictions(metrics: dict, workload: str) -> dict:
    """The layer shares the benchmark was built to watch, as measured."""
    def v(key):
        return metrics[key]["value"]
    run_s = v("threads_1.run_s")
    out = {"fixed_point_dimension_share": v("actions.fixed_point_dimension.total_s") / run_s,
           "bracket_values_share": v("actions.bracket_values.total_s") / run_s}
    if workload == "wavelet-verify":
        out["holds"] = out["fixed_point_dimension_share"] > 0.5
    elif workload == "finite":
        out["holds"] = out["bracket_values_share"] > 0.5
    else:
        out["holds"] = v("actions.fixed_point_dimension.calls") == 0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qha" / "__init__.py").is_file():
        print(f"error: no qha package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, full, traced = measure_traced(run, RESULTS / f"spans-{stem}")
        else:
            (metrics, full), traced = measure(run, args.seconds), []
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = verify_outputs(full, traced)
    attempted, failed = suites(full)
    env = full[0]["env"]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": run.elapsed(), "env": env,
        "pinned_threads": dict.fromkeys(THREAD_VARS, "1"),
        "report_sha256": full[0]["report_sha256"], "problems": problems,
        "metrics": metrics, "children": run.records,
    }
    if not args.trace:
        result["wall"] = {key: statistics.median(r[key] for r in full)
                          for key in ("setup_s", "run_s", "probe_s")}
    else:
        default = run.records[-1]
        result["default_threads_same_report"] = default["report_sha256"] == full[0]["report_sha256"]
        result["predictions"] = predictions(metrics, args.workload)
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} nproc={env['nproc']} threads=1")
    print(f"# report sha256 {result['report_sha256']}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    if args.trace:
        print(f"# predictions {json.dumps(result['predictions'])}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
