"""The names the benchmark's tracer wraps still exist in the package.

``benchmarks/tracing.py`` rebinds package functions and methods by name; a
deleted or renamed one would only fail inside a benchmark child.  This reads
the two tables there (without changing them) and resolves every entry, and
checks the imported bindings and the ``apply`` overrides that
``benchmarks/selftest.py`` expects the tracer to reach.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = _tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TABLES.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, meth", [(m, c, f) for m, c, f, _ in TABLES.METHODS])
def test_traced_method_resolves(module, cls, meth):
    # install() wraps vars(cls)[meth], so the class itself must define it
    assert meth in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("cls", ["WaveletAction", "PermutationAction", "ConjugationAction"])
def test_action_class_defines_apply(cls):
    # the self-test requires each of these classes' own apply to be wrapped
    assert "apply" in vars(getattr(importlib.import_module("qha.actions"), cls))


# (module, attribute, home module): a name imported with ``from .x import f``
# that the self-test requires to be the same wrapped object as at home
SHARED = (
    ("qha.cli", "estimate_duflo", "qha.duflo"),
    ("qha.cli", "run_suite", "qha.duflo"),
    ("qha.cli", "check_orthogonality", "qha.duflo"),
    ("qha.duflo", "fixed_point_dimension", "qha.actions"),
    ("qha.duflo", "trace", "qha.algebra"),
)


@pytest.mark.parametrize("module, attr, home", SHARED)
def test_shared_binding_is_the_home_object(module, attr, home):
    assert getattr(importlib.import_module(module), attr) is getattr(importlib.import_module(home), attr)
