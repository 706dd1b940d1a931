"""The benchmark's span tracer wraps package names; each must still exist."""

import importlib.util
from pathlib import Path

import leonardz
import leonardz.cli  # noqa: F401  (the tracer patches leonardz.cli too)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.PATCHES
               if not callable(getattr(getattr(leonardz, module, None), attr, None))]
    assert tracing.PATCHES
    assert missing == []
