"""Every exported name resolves: a name deleted from a module but left in
its ``__all__`` (or in the package's lazy re-exports) makes
``from reidbasket.<module> import *`` raise.  So does every name the bench
tracer rebinds from outside the package."""

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
    # the package re-exports names of ``core`` lazily: each one resolves on
    # first use to the very object ``core`` holds
    core = importlib.import_module("reidbasket.core")
    assert len(reidbasket.__all__) == len(set(reidbasket.__all__)) == 18
    for attr in reidbasket.__all__:
        assert getattr(reidbasket, attr) is getattr(core, attr), attr
    star: dict = {}
    exec("from reidbasket import *", star)
    assert {name: star[name] for name in reidbasket.__all__} == {
        name: getattr(core, name) for name in reidbasket.__all__
    }
    with pytest.raises(AttributeError):
        reidbasket.no_such_name
    from reidbasket import cli

    assert cli is importlib.import_module("reidbasket.cli")


def test_budget_names_moved_to_core_are_the_same_objects():
    core, packing = (importlib.import_module(f"reidbasket.{name}") for name in ("core", "packing"))
    assert packing.ClosureTruncated is core.ClosureTruncated
    assert packing.MAX_VISITED is core.MAX_VISITED


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
    cls = importlib.import_module("reidbasket.classify").ClassificationConstraints
    admits = cls.__dict__["admits"]
    # the tracer's own lookups find every name, and put each back
    traced = tracer.Tracer()
    try:
        traced.install()
        rebound = {f"{original.__module__.removeprefix('reidbasket.')}.{attr}" for _, attr, original in traced._restore}
        assert rebound >= {*names, tracer.COUNTED, tracer.ADMITS}
    finally:
        traced.uninstall()
    assert cls.__dict__["admits"] is admits
