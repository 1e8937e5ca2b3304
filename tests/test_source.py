"""Rules on the package source itself."""

import ast
from pathlib import Path

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
