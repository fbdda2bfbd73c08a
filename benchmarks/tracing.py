"""Outside-in layer tracing: wrap the package's public functions from here.

``install`` replaces each traced function in every ``qha.*`` namespace that
holds it (names imported with ``from .x import f`` are separate bindings),
the ``Action`` methods defined in ``vars(cls)`` of every subclass, and two
class methods.  Each wrapped call records a span (name, start, end, parent,
request) in flat arrays kept in memory; ``save`` writes them out at exit and
``summary`` turns them into per-layer calls, self time and total time.

A call into a layer made directly from the same layer (``apply_adjoint``
falling back to ``apply``, an induced action applying its inner action,
``random_positive_element`` drawing a ``random_element``) is part of the
outer span, so ``actions.apply.calls`` counts node evaluations.

Counters that are not spans: LAPACK calls through ``numpy.linalg`` and the
matrix-vector products ARPACK asks of the operator handed to
``scipy.sparse.linalg.eigsh``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span).  Modules are reached through sys.modules:
# ``qha.bracket`` on the package is the function of that name.
FUNCTIONS = (
    ("qha.algebra", "trace", "algebra.trace"),
    ("qha.algebra", "p_norm", "algebra.p_norm"),
    ("qha.algebra", "power", "algebra.power"),
    ("qha.algebra", "random_element", "algebra.random_element"),
    ("qha.algebra", "random_positive_element", "algebra.random_element"),
    ("qha.actions", "fixed_point_dimension", "actions.fixed_point_dimension"),
    ("qha.actions", "homomorphism_defect", "actions.validity"),
    ("qha.actions", "automorphism_defect", "actions.validity"),
    ("qha.actions", "isometry_defect", "actions.validity"),
    ("qha.actions", "is_trace_preserving", "actions.validity"),
    ("qha.bracket", "bracket", "bracket.bracket"),
    ("qha.bracket", "function_p_norm", "bracket.function_p_norm"),
    ("qha.bracket", "bracket_symmetry_defect", "bracket.bracket_symmetry_defect"),
    ("qha.duflo", "estimate_duflo", "duflo.estimate_duflo"),
    ("qha.duflo", "run_suite", "duflo.run_suite"),
    ("qha.duflo", "check_orthogonality", "duflo.check_orthogonality"),
    ("qha.duflo", "check_semi_invariance", "duflo.check_semi_invariance"),
    ("qha.duflo", "check_admissibility", "duflo.check_admissibility"),
    ("qha.duflo", "check_l1", "duflo.check_l1"),
    ("qha.duflo", "check_young", "duflo.check_young"),
    ("qha.duflo", "check_interpolation", "duflo.check_interpolation"),
    ("qha.duflo", "check_holder", "duflo.check_holder"),
    ("qha.duflo", "check_alt", "duflo.check_alt"),
    ("qha.scenarios", "build_scenario", "scenarios.build_scenario"),
    ("qha.scenarios", "refined_wavelet", "scenarios.refined_wavelet"),
    ("qha.groups", "affine_group", "groups.affine_group"),
    ("qha.cli", "refinement_metrics", "cli.refinement_metrics"),
)
# (module, class, method, span).  DufloEstimate.power is the spectral power
# the suite uses for D^t; qha.algebra.power is the public one.
METHODS = (
    ("qha.algebra", "AlgebraElement", "__matmul__", "algebra.matmul"),
    ("qha.duflo", "DufloEstimate", "power", "algebra.power"),
    ("qha.groups", "FiniteGroup", "__init__", "groups.FiniteGroup"),
)
ACTION_METHODS = {
    "apply": "actions.apply",
    "apply_adjoint": "actions.apply",
    "bracket_values": "actions.bracket_values",
    "bracket_integral": "actions.bracket_integral",
    "orbit_sum": "actions.orbit_sum",
}
LAPACK = ("svd", "eigh", "eigvalsh")
MATVECS = "actions.fixed_point_dimension.matvecs"

SPANS = tuple(dict.fromkeys(
    [s for _, _, s in FUNCTIONS] + [s for *_, s in METHODS] + list(ACTION_METHODS.values())
))
COUNTERS = tuple(f"lapack.{f}.calls" for f in LAPACK) + (MATVECS,)


class Tracer:
    """Spans in flat arrays: span i has name id, start, end, parent, request."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPANS)}
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack = [-1]
        self.stack_name = [-1]
        self.request = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, fn, span: str):
        sid = self.ids[span]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack_name[-1] == sid:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(sid)
            self.parent.append(self.stack[-1])
            self.req.append(self.request)
            self.end.append(0.0)
            self.stack.append(i)
            self.stack_name.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
                self.stack_name.pop()

        return traced

    def count(self, fn, counter: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict[str, float]:
        """Per-span calls, self_s and total_s, plus the counters."""
        name = np.frombuffer(self.name, dtype=np.int16).astype(np.intp)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n = len(SPANS)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=dur - covered, minlength=n)
        out: dict[str, float] = {}
        for i, span in enumerate(SPANS):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
            out[f"{span}.total_s"] = float(total[i])
        out.update(self.counters)
        return out

    def save(self, path: str, run_id: str) -> None:
        np.savez_compressed(
            path, run_id=np.array(run_id), names=np.array(SPANS),
            name=np.frombuffer(self.name, dtype=np.int16), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
        )


def _rebind(original, replacement) -> int:
    """Point every binding of ``original`` in a qha namespace at ``replacement``."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "qha" and not modname.startswith("qha."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; call after importing qha, before building."""
    import scipy.sparse.linalg as sla

    for modname, attr, span in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        if _rebind(original, tracer.wrap(original, span)) == 0:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")
    for modname, clsname, meth, span in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        setattr(cls, meth, tracer.wrap(vars(cls)[meth], span))
    base = sys.modules["qha.actions"].Action
    todo, seen = [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for meth, span in ACTION_METHODS.items():
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap(vars(cls)[meth], span))
    for f in LAPACK:
        setattr(np.linalg, f, tracer.count(getattr(np.linalg, f), f"lapack.{f}.calls"))

    eigsh = sla.eigsh

    def counted_eigsh(A, *args, **kwargs):
        op = sla.aslinearoperator(A)

        def matvec(v):
            tracer.counters[MATVECS] += 1
            return op.matvec(v)

        return eigsh(sla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), *args, **kwargs)

    sla.eigsh = counted_eigsh
