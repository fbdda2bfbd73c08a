"""The benchmark's three workloads: what each builds, runs and reports.

Every workload is one pass of a user-facing command, split into set-up
(building every scenario) and the checks.  A pass returns the report text the
command would print, the law checks it attempted with their verdicts, and the
scenario suites or refinement runs that raised.

- ``finite``: ``qha verify --all`` without the wavelet, plus three larger
  instances of the same mechanisms (cyclic translation, twisted dual with a
  full block, Weyl-Heisenberg).  It exercises the generic per-node
  ``Action.apply``/``bracket_values`` path and the per-block algebra loops,
  and bypasses ARPACK and the wavelet kernels.
- ``wavelet-verify``: ``qha verify --scenario affine-wavelet:default``.  Most
  of its time is the ARPACK ergodicity count in ``fixed_point_dimension``.
- ``wavelet-refine``: ``qha refine --scenario affine-wavelet:default
  --grids 3``.  A large working set on the wavelet's structured kernels that
  never calls ``fixed_point_dimension``: the control for work on ergodicity,
  and the workload where a storage change could cost memory.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass, field

# The 21 finite builtins of ``qha verify --all``, then three larger instances
# of the mechanisms behind the ROADMAP's cyclic(128), 12:0 and 16:1 cases at
# about a quarter of their cost.  Fixed here so that a new builtin does not
# change the workload.
FINITE_IDS = (
    "irrep:s3:trivial", "irrep:s3:sign", "irrep:s3:std",
    *(f"irrep:cyclic(8):chi{j}" for j in range(8)),
    "wh:2", "wh:3", "wh:4", "wh:5", "wh:8",
    "translation:cyclic(6)", "cosets:cyclic(6):cyclic(3)",
    "twisted-dual:8:0", "twisted-dual:4:1",
    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2",
    "translation:cyclic(64)", "twisted-dual:12:1", "wh:16",
)
WAVELET = "affine-wavelet:default"
REFINE_GRIDS = 3
NEGATIVE_CONTROL = "broken-measure"

# The rows each suite reports, in order.  A missing or extra row fails the run.
FINITE_CHECKS = (
    "action-validity", "trace-preservation", "ergodicity", "integrability-witness",
    "duflo-estimate", "duflo-scalar-form", "duflo-expected-scalar", "bracket-symmetry",
    "orthogonality-positive", "orthogonality-general", "semi-invariance",
    "admissibility-identities", "l1-inequality", "l1-equality", "young-inequality",
    "interpolation-bound", "holder-inequality", "alt-inequality",
)
WAVELET_CHECKS = (
    "action-validity", "trace-preservation", "ergodicity", "integrability-witness",
    "duflo-estimate", "duflo-expected-kernel", "bracket-symmetry",
    "orthogonality-positive", "orthogonality-general", "semi-invariance",
    "admissibility-identities", "l1-inequality", "l1-equality", "young-inequality",
    "interpolation-bound", "holder-inequality", "alt-inequality",
)
# README: "the table must decrease down the rows", for each residual column.
REFINE_COLUMNS = ("orthogonality", "semi-invariance", "cross-check")
REFINE_CHECKS = tuple(f"{col}-level{lv}" for col in REFINE_COLUMNS
                      for lv in range(1, REFINE_GRIDS))


@dataclass
class Pass:
    """Outcome of one pass of a workload's checks."""

    report: str
    checks: dict[str, list[tuple[str, bool]]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


class Workload:
    """A workload's scenarios and their expected check rows.

    ``qha`` in the methods is a namespace of the package's submodules
    (``scenarios``, ``duflo``, ``cli``), reached through ``sys.modules``.
    """

    expected: dict[str, tuple[str, ...]]
    # Whether every check must pass for the output to count as correct.
    must_pass = True

    def scenario_ids(self) -> tuple[str, ...]:
        return tuple(self.expected)

    def build(self, qha, seed: int) -> list:
        """Set-up: build every scenario of the workload."""
        return [qha.scenarios.build_scenario(qha.scenarios.ScenarioSpec(sid, seed=seed))
                for sid in self.scenario_ids()]

    def run(self, qha, built: list, seed: int, on_request) -> Pass:
        raise NotImplementedError


class Verify(Workload):
    """``qha verify --format structured`` over the built scenarios."""

    def __init__(self, expected: dict[str, tuple[str, ...]]):
        self.expected = expected

    def run(self, qha, built, seed, on_request) -> Pass:
        out = Pass(report="")
        lines = ["qha-report v1"]
        for i, scn in enumerate(built):
            on_request(i)
            sid = scn.scenario_id
            try:
                reports = qha.duflo.run_suite(scn)
            except Exception:  # a raising suite is recorded and fails the run
                out.errors[sid] = traceback.format_exc()
                continue
            # same lines as qha.cli.cmd_verify in structured format
            lines.append(f"scenario {sid}")
            lines.append(f"seed {scn.seed}")
            lines.extend(r.row() for r in reports)
            n_fail = sum(not r.passed for r in reports)
            lines.append(f"summary checks={len(reports)} failed={n_fail}")
            out.checks[sid] = [(r.name, bool(r.passed)) for r in reports]
        out.report = "\n".join(lines) + "\n"
        return out


class Refine(Workload):
    """``qha refine --grids 3`` on the default wavelet, checked for decrease."""

    expected = {WAVELET: REFINE_CHECKS}
    # The residuals do not always fall: the cross-check column rises at
    # level 2 at every seed tried, the orthogonality column at some seeds.
    # The pass ratio records this; it does not make the output incorrect.
    must_pass = False

    def run(self, qha, built, seed, on_request) -> Pass:
        out = Pass(report="")
        on_request(0)
        spec = qha.scenarios.ScenarioSpec(WAVELET, seed=seed)
        cfg = qha.cli.RunConfig(command="refine", specs=(spec,), grids=REFINE_GRIDS)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                qha.cli.cmd_refine(cfg)
        except Exception:  # a raising refinement is recorded and fails the run
            out.errors[WAVELET] = traceback.format_exc()
            return out
        out.report = buf.getvalue()
        out.checks[WAVELET] = refine_checks(out.report)
        return out


def refine_checks(table: str) -> list[tuple[str, bool]]:
    """Each residual column must fall at each refinement step."""
    rows = table.splitlines()
    header = rows[1].split()
    values = [dict(zip(header, row.split())) for row in rows[2:]]
    checks = []
    for col in REFINE_COLUMNS:
        for lv in range(1, len(values)):
            checks.append((f"{col}-level{lv}", float(values[lv][col]) < float(values[lv - 1][col])))
    return checks


def make(name: str) -> Workload:
    if name == "finite":
        return Verify({sid: FINITE_CHECKS for sid in FINITE_IDS})
    if name == "wavelet-verify":
        return Verify({WAVELET: WAVELET_CHECKS})
    if name == "wavelet-refine":
        return Refine()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("finite", "wavelet-verify", "wavelet-refine")


def negative_control_failed(qha, seed: int) -> bool:
    """The broken-measure fixture must still report at least one failed check."""
    scn = qha.scenarios.build_scenario(qha.scenarios.ScenarioSpec(NEGATIVE_CONTROL, seed=seed))
    return not all(r.passed for r in qha.duflo.run_suite(scn))
