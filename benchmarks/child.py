"""One pass of one workload in a fresh interpreter; prints one JSON record.

    python3 benchmarks/child.py --workload NAME --seed N [--traced] [--setup-only]
                                [--spans PATH] [--break-check NAME]

The record holds the set-up time (``import qha`` plus building every
scenario), the wall time of the checks, the peak RSS, the time of the speed
probe run after the checks, the sha256 of the report text, every check's
name and verdict, the suites that raised and, in the finite workload,
whether the broken-measure negative control still fails.  With ``--traced``
the layer wrappers are installed before any scenario is built, the probe is
skipped, and the record also holds the per-layer summary.
``--break-check`` makes every report of one law check fail, so the
self-test can show that a broken check lowers the pass ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def probe() -> float:
    """Seconds a fixed reference kernel takes: the machine's current speed.

    The kernel is the benchmark's own and mixes what the workloads do: a
    Python loop of small-matrix numpy and LAPACK calls, and elementwise
    products and reductions over 193 x 193 and 385 x 385 complex arrays.
    Large arrays are allocated once, so the time does not depend on how
    the allocator's state was left by the checks before it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (1, 2, 4, 8)]
    arrays = [rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)) for n in (193, 385)]
    bufs = [np.empty(a.shape[1:], dtype=complex) for a in arrays]

    def kernel(reps: int) -> None:
        for _ in range(40 * reps):
            for a in small:
                np.trace(a.conj().T @ a)
                np.linalg.svd(a, compute_uv=False)
        for _ in range(4 * reps):
            for (x, y), buf in zip(arrays, bufs):
                np.multiply(x, y, out=buf)
                buf.sum()

    kernel(8)
    t0 = time.perf_counter()
    kernel(60)
    return time.perf_counter() - t0


def break_check(qha, name: str) -> None:
    """Fault injection for the self-test: every report of ``name`` fails."""
    duflo = qha.duflo
    original = getattr(duflo, name)

    def broken(*args, **kwargs):
        out = original(*args, **kwargs)
        for rep in out if isinstance(out, tuple) else (out,):
            rep.passed = False
        return out

    setattr(duflo, name, broken)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--break-check", default=None)
    args = ap.parse_args()

    import workloads

    work = workloads.make(args.workload)
    src = ROOT / "src"
    if not (src / "qha" / "__init__.py").is_file():
        print(f"no qha package under {src}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import qha  # noqa: F401  (the timed import)
    import qha.cli

    t_import = time.perf_counter()
    mods = SimpleNamespace(**{m: sys.modules[f"qha.{m}"] for m in ("scenarios", "duflo", "cli")})
    if Path(mods.duflo.__file__).resolve().parent != src / "qha":
        print(f"imported qha from {mods.duflo.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    on_request = lambda i: None  # noqa: E731
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        on_request = lambda i: setattr(tracer, "request", i)  # noqa: E731
        t0 += time.perf_counter() - t_import  # installing wrappers is not set-up
    if args.break_check:
        break_check(mods, args.break_check)

    built = work.build(mods, args.seed)
    t_setup = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "env": environment(),
              "setup_s": t_setup - t0}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    t1 = time.perf_counter()
    result = work.run(mods, built, args.seed, on_request)
    run_s = time.perf_counter() - t1
    record.update(
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # after the peak is read; traced children, whose LAPACK calls are
        # counted, skip it
        probe_s=None if tracer else probe(),
        report_sha256=hashlib.sha256(result.report.encode()).hexdigest(),
        checks=result.checks,
        errors=result.errors,
        expected={sid: list(names) for sid, names in work.expected.items()},
        must_pass=work.must_pass,
    )
    if tracer is not None:
        on_request(-1)
        record["layers"] = tracer.summary()
        if args.spans:
            tracer.save(args.spans, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    if args.workload == "finite":
        record["negative_control_failed"] = workloads.negative_control_failed(mods, args.seed)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
