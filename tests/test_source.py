"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

import dialectic.legacy


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no behaviour may rest on one
    root = Path(dialectic.legacy.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert root / "legacy.py" in paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_wrappers_find_every_name_they_wrap(monkeypatch):
    # the traced benchmark rebinds public names of the package by name; a
    # rename breaks it, so install it here and check that it undoes itself
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    mods = {m: importlib.import_module("dialectic." + m)
            for m in layers.MODULES}
    owners = list(mods.values()) + [
        obj for mod in mods.values() for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__]
    before = [dict(vars(owner)) for owner in owners]
    rec = tracer.Recorder()
    try:
        layers.install(rec, SimpleNamespace(package="dialectic", **mods))
        wrapped = [owner for owner, old in zip(owners, before)
                   if dict(vars(owner)) != old]
        assert mods["cli"] in wrapped
        assert mods["opponents"].PartialPSystem in wrapped
    finally:
        rec.uninstall()
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner
        assert all(now[k] is old[k] for k in old), owner
