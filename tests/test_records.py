"""Immutable records: value semantics, defaults, validation, and what
importing the package loads."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qha.actions import ActionStructure, CommutantCertificate, WaveletDesign
from qha.algebra import AlgebraShape, ShapeMismatchError
from qha.cli import RunConfig
from qha.duflo import SUITE, SuiteCheck
from qha.scenarios import DEFAULT_SEED, ConfigError, ScenarioSpec, build_scenario

SRC = Path(__file__).resolve().parent.parent / "src"
SPEC = ScenarioSpec("wh:2", seed=7, tol_rel=1e-8)
# two separately built instances of each record with equal fields
EQUAL_PAIRS = {
    "AlgebraShape": (AlgebraShape(2, (1.0, 0.5)), AlgebraShape(2.0, [1, 0.5])),
    "ScenarioSpec": (SPEC, ScenarioSpec("wh:2", np.int64(7), 1e-8)),
    "WaveletDesign": (WaveletDesign(), WaveletDesign(16, 6, 24, 8.0, 256, 0.75)),
    "RunConfig": (RunConfig("verify", (SPEC,)), RunConfig("verify", (ScenarioSpec("wh:2", 7, 1e-8),))),
    "SuiteCheck": (SUITE[0], SuiteCheck(*SUITE[0])),
    "CommutantCertificate": (CommutantCertificate(1, 0.5, 1e-14, math.inf),
                             CommutantCertificate(1, 0.5, 1e-14, math.inf)),
    "ActionStructure": (ActionStructure("unitary-stack", 0.0, 1e-16, 0.0, 0.0),
                        ActionStructure("unitary-stack", 0.0, 1e-16, 0.0, 0.0)),
}


def fresh_interpreter(code: str) -> list[str]:
    """The words ``code`` prints when run by a new interpreter on the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


class TestImportCost:
    def test_import_leaves_configparser_and_argparse_out(self):
        code = "import sys, qha; print('configparser' in sys.modules, 'argparse' in sys.modules)"
        assert fresh_interpreter(code) == ["False", "False"]

    def test_cli_import_leaves_configparser_and_argparse_out(self):
        code = "import sys, qha.cli; print('configparser' in sys.modules, 'argparse' in sys.modules)"
        assert fresh_interpreter(code) == ["False", "False"]

    def test_loading_a_file_brings_configparser_in(self, tmp_path):
        path = tmp_path / "wh2.ini"
        path.write_text("[scenario]\nid = wh:2\nseed = 3\n")
        code = ("import sys\nfrom qha.scenarios import load_scenario\n"
                "print('configparser' in sys.modules)\n"
                f"spec = load_scenario({str(path)!r})\n"
                "print('configparser' in sys.modules, spec.scenario_id, spec.seed)")
        assert fresh_interpreter(code) == ["False", "True", "wh:2", "3"]

    @pytest.mark.parametrize("record", [AlgebraShape, ScenarioSpec, WaveletDesign, RunConfig, SuiteCheck,
                                        CommutantCertificate, ActionStructure])
    def test_records_are_not_dataclasses(self, record):
        assert not dataclasses.is_dataclass(record)


class TestValueSemantics:
    @pytest.mark.parametrize("name", sorted(EQUAL_PAIRS))
    def test_equal_fields_compare_and_hash_equal(self, name):
        a, b = EQUAL_PAIRS[name]
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a == tuple(b) and hash(a) == hash(tuple(b))

    @pytest.mark.parametrize("name", sorted(EQUAL_PAIRS))
    def test_assignment_raises(self, name):
        rec = EQUAL_PAIRS[name][0]
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = None


class TestDefaults:
    def test_wavelet_design(self):
        assert WaveletDesign() == (16, 6, 24, 8.0, 256, 0.75)
        assert WaveletDesign()._fields == ("steps_per_octave", "octaves", "max_shift", "b_extent",
                                           "n_b", "support_octaves")
        assert WaveletDesign().scaled(2) == WaveletDesign(32, 6, 48, 16.0, 512, 0.75)

    def test_scenario_spec(self):
        spec = ScenarioSpec("wh:2")
        assert (spec.scenario_id, spec.seed, spec.tol_rel) == ("wh:2", DEFAULT_SEED, None)
        assert DEFAULT_SEED == 1729

    def test_run_config(self):
        cfg = RunConfig("list", ())
        assert (cfg.fmt, cfg.out, cfg.grids, cfg.trials) == ("text", None, 3, None)

    def test_suite_check(self):
        row = SuiteCheck(("row",), "check_row", print)
        assert (row.tag, row.draws, row.grid, row.notes, row.skip) == (None, (), (None,), None, None)
        assert row.trials(40) == 1 and row.applies(object()) is True

    def test_algebra_shape_normalizes(self):
        shape = AlgebraShape(2.0, [1])
        assert shape == (2, (1.0,))
        assert type(shape.block_dim) is int and type(shape.trace_weights[0]) is float
        assert shape.blocks_shape == (1, 2, 2) and shape.total_dim == 4


class TestValidation:
    @pytest.mark.parametrize("dim, weights", [
        (2, ()), (2, (0.0,)), (2, (1.0, -0.5)), (2, (1.0, math.nan)),
        (2, (1.0, math.inf)), (2, (math.inf,)), (0, (1.0,)), (2.5, (1.0,)),
    ])
    def test_algebra_shape_rejects(self, dim, weights):
        with pytest.raises(ShapeMismatchError):
            AlgebraShape(dim, weights)

    @pytest.mark.parametrize("seed", [-1, 1.5, 7.0, "7", None])
    def test_spec_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ScenarioSpec("wh:2", seed=seed)

    @pytest.mark.parametrize("tol_rel", [0.0, -1.0, math.inf, math.nan])
    def test_spec_rejects_tolerance(self, tol_rel):
        with pytest.raises(ConfigError, match="relative tolerance"):
            ScenarioSpec("wh:2", tol_rel=tol_rel)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), 0])
    def test_spec_accepts_integer_seeds(self, seed):
        scn, ref = (build_scenario(ScenarioSpec("wh:2", seed=s)) for s in (seed, int(seed)))
        assert scn.spec == ref.spec
        assert scn.rng("t").integers(1 << 30) == ref.rng("t").integers(1 << 30)

    def test_replace_validates_as_the_constructor_does(self):
        shape = AlgebraShape(2, (1.0,))._replace(block_dim=3.0)
        assert shape == (3, (1.0,)) and type(shape.block_dim) is int
        with pytest.raises(ShapeMismatchError):
            AlgebraShape(2, (1.0,))._replace(trace_weights=(math.inf,))
        assert ScenarioSpec("wh:2")._replace(seed=3) == ("wh:2", 3, None)
        with pytest.raises(ConfigError):
            ScenarioSpec("wh:2")._replace(seed=1.5)
