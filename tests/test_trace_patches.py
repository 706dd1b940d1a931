"""The benchmark reaches the package by name; each name must still exist.

bench/tracing.PATCHES wraps package functions by name, and the bench
scripts call the package as lz.<name>, with lz the package as
bench/run.import_package imports it (leonardz, and leonardz.cli).  A
rename in the package breaks the benchmark on a path that only some of
its options run, so both are resolved here.
"""

import ast
import importlib.util
from pathlib import Path

import leonardz
import leonardz.cli  # noqa: F401  (the tracer patches leonardz.cli too)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.PATCHES
               if not callable(getattr(getattr(leonardz, module, None), attr, None))]
    assert tracing.PATCHES
    assert missing == []


def lz_chains(tree):
    """Each attribute chain lz.a.b... in the syntax tree, as (a, b, ...)."""
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "lz":
            yield tuple(reversed(names))


def resolves(names):
    obj = leonardz
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_bench_package_names_resolve():
    """Every lz.<name> chain in bench/*.py, such as lz.intersection_a_closed,
    lz.matrix_m or lz.cli.render_analysis, resolves on the package."""
    chains = {(path.name, ".".join(names))
              for path in sorted(BENCH.glob("*.py"))
              for names in lz_chains(ast.parse(path.read_text()))}
    assert {"lz.intersection_a_closed", "lz.matrix_m", "lz.field_arith",
            "lz.cli.render_analysis"} <= {f"lz.{chain}" for _, chain in chains}
    assert sorted((path, chain) for path, chain in chains
                  if not resolves(chain.split("."))) == []
