"""Every exported name resolves: a name deleted from a module but left in
its ``__all__`` (or in the package's own imports) makes
``from reidbasket.<module> import *`` raise.  So does every name the bench
tracer rebinds from outside the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import reidbasket

MODULES = sorted(
    path.stem for path in Path(reidbasket.__file__).parent.glob("*.py")
    if not path.stem.startswith("_")
)


def test_modules_are_found():
    assert {"core", "packing", "canonical", "criteria", "classify", "fixtures", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"reidbasket.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(reidbasket.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(f"reidbasket.{module}"), attr), (module, attr)


def test_bench_tracer_names_resolve():
    # ``bench/tracer.py`` imports only the standard library; a name it
    # spans or counts that no longer resolves loses its per-layer metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [f"{layer}.{fn}" for layer, fns in tracer.SPANNED.items() for fn in fns]
    assert len(names) > 10
    for name in [*names, tracer.COUNTED]:
        layer, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"reidbasket.{layer}"), fn, None)), name
    assert tracer.ADMITS == "classify.admits"
    assert callable(importlib.import_module("reidbasket.classify").ClassificationConstraints.admits)
