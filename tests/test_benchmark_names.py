"""Every dirikit name the benchmark harness looks up still exists.

``perfbench/`` drives dirikit from outside: ``tracing.py`` wraps the
functions it lists in ``TRACED`` and one span per suite of
``SUITE_NAMES``, and ``ops.py`` calls ``dk.<name>`` on the imported
package.  A rename there breaks every benchmark run, so the lists are
read here from the source text, without importing or running it.
"""

import ast
import importlib
from pathlib import Path

import dirikit
import dirikit.cli
from dirikit.suites import SUITES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracing.py assigns no {name}")


def test_every_traced_function_exists():
    traced = _literal(_tree("tracing.py"), "TRACED")
    missing = [
        f"{module}.{attr}"
        for module, attrs in traced.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"dirikit.{module}"), attr, None))
    ]
    assert missing == []


def test_the_traced_suites_are_the_registered_ones():
    assert set(SUITES) == set(_literal(_tree("tracing.py"), "SUITE_NAMES"))


def test_the_grid_the_tracer_counts_exists():
    assert isinstance(dirikit.QuadratureSpec.default(), dirikit.QuadratureSpec)


def test_every_name_the_operations_call_exists():
    # ops.py reaches dirikit through a parameter named dk
    names = {
        node.attr
        for node in ast.walk(_tree("ops.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "dk"
    }
    assert {"AnalyticFunction", "SUITES", "cli"} <= names
    assert [name for name in sorted(names) if not hasattr(dirikit, name)] == []
    assert callable(dirikit.cli.main)
