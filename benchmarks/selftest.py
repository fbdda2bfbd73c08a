"""Self-tests for the benchmark itself (about 50 s on two cores).

    python3 benchmarks/selftest.py [--seed 1729]

1. The wrappers reach every binding: names imported into other modules,
   ``qha.bracket`` the module (not the package's function of that name), the
   ``Action`` overrides and the numpy LAPACK attributes.
2. A traced child gives the same report digest as an untraced one.
3. Two traced children with the same seed give exactly the same counts.
4. Breaking a law check lowers ``check_pass_ratio``.
5. The report each workload hashes is byte for byte what the CLI prints
   (``qha verify --format structured`` and ``qha refine``).

Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys

import bench
import workloads


def check_wrappers() -> str | None:
    sys.path.insert(0, str(bench.ROOT / "src"))
    import numpy as np
    import qha  # noqa: F401
    import qha.cli

    import tracing

    mods = sys.modules
    before = np.linalg.svd
    tracing.install(tracing.Tracer())
    pairs = {
        "qha.cli.estimate_duflo": (mods["qha.cli"].estimate_duflo, mods["qha.duflo"].estimate_duflo),
        "qha.cli.run_suite": (mods["qha.cli"].run_suite, mods["qha.duflo"].run_suite),
        "qha.cli.check_orthogonality": (mods["qha.cli"].check_orthogonality,
                                        mods["qha.duflo"].check_orthogonality),
        "qha.duflo.fixed_point_dimension": (mods["qha.duflo"].fixed_point_dimension,
                                            mods["qha.actions"].fixed_point_dimension),
        "qha.bracket": (mods["qha"].bracket, mods["qha.bracket"].bracket),
        "qha.duflo.trace": (mods["qha.duflo"].trace, mods["qha.algebra"].trace),
    }
    for name, (a, b) in pairs.items():
        if a is not b or not hasattr(a, "__wrapped__"):
            return f"{name} is not the shared wrapper"
    actions = mods["qha.actions"]
    for cls in (actions.WaveletAction, actions.PermutationAction, actions.ConjugationAction):
        if not hasattr(vars(cls)["apply"], "__wrapped__"):
            return f"{cls.__name__}.apply is not wrapped"
    if np.linalg.svd is before:
        return "numpy.linalg.svd is not counted"
    return None


def run_child(run: bench.Runner, *flags: str) -> dict:
    return run.child(*flags, role=" ".join(flags) or "untraced")


def cli_digest(workload: str, seed: int) -> str:
    work = workloads.make(workload)
    if isinstance(work, workloads.Refine):
        argv = ["refine", "--scenario", workloads.WAVELET, "--grids", str(workloads.REFINE_GRIDS)]
    else:
        argv = ["verify", "--format", "structured"]
        for sid in work.scenario_ids():
            argv += ["--scenario", sid]
    code = ("import sys; sys.path.insert(0, 'src'); from qha.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--seed", str(seed)],
                          cwd=bench.ROOT, env=bench.child_env(True), capture_output=True)
    if proc.returncode not in (0, 1):
        raise bench.ChildError(proc.stderr.decode())
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()
    results = {}

    results["wrappers reach every binding"] = check_wrappers()

    refine = bench.Runner("wavelet-refine", args.seed)
    plain = run_child(refine)
    t1 = run_child(refine, "--traced")
    t2 = run_child(refine, "--traced")
    results["traced report equals untraced report"] = (
        None if t1["report_sha256"] == plain["report_sha256"] else "digests differ")
    results["counts repeat across two traced runs"] = (
        bench.verify_outputs([t1, t2], [t1, t2]) or None)

    verify = bench.Runner("wavelet-verify", args.seed)
    clean = run_child(verify)
    broken = run_child(verify, "--break-check", "check_holder")
    r_clean, r_broken = bench.pass_ratio([clean]), bench.pass_ratio([broken])
    results["a broken check lowers check_pass_ratio"] = (
        None if r_broken < r_clean else f"ratio {r_broken} not below {r_clean}")

    finite = bench.Runner("finite", args.seed).child(role="finite")
    for name, rec in (("finite", finite), ("wavelet-verify", clean), ("wavelet-refine", plain)):
        cli = cli_digest(name, args.seed)
        results[f"{name} report equals the CLI's"] = (
            None if cli == rec["report_sha256"] else f"{rec['report_sha256']} != {cli}")

    for name, problem in results.items():
        print(f"{'ok  ' if not problem else 'FAIL'} {name}" + (f": {problem}" if problem else ""))
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
