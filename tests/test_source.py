"""Rules on the package source itself.

Run as a script, it prints the total and code lines of each module of
``src/dialectic``, counted as ROADMAP aim 2 says (see ``count_lines``):

    python tests/test_source.py
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path
from types import SimpleNamespace

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(text):
    """(total, code) lines of one module.  A code line holds a token other
    than a comment, a newline or an indent; the lines of docstrings (a
    string literal that opens a module, class or function body) are not
    code."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs)


def test_count_lines_leaves_out_comments_blanks_and_docstrings():
    text = ('"""Module\n   docstring."""\n'   # 2 docstring lines
            "# a comment\n"
            "\n"
            "def f(x):\n"                        # code
            "    '''One line.'''\n"        # docstring
            "    y = (x +\n"                     # code, continued
            "         1)  # trailing\n"          # code
            "    s = '''two\n"                # a string, not a docstring
            "    lines'''\n"
            "    return y \\\n"                  # backslash continuation
            "        + 1\n")
    assert count_lines(text) == (12, 7)
    assert count_lines("") == (0, 0)


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no behaviour may rest on one
    import dialectic.legacy
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


def repeated_blocks(paths, span=3, least=60):
    """Each run of ``span`` consecutive lines, of ``least`` characters or
    more, that occurs more than once, as "name:line" of every occurrence.
    Blank lines, comments and import statements are left out, and every
    line's whitespace is collapsed."""
    seen = {}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        imports = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.update(range(node.lineno, node.end_lineno + 1))
        lines = [(no, " ".join(line.split()))
                 for no, line in enumerate(text.splitlines(), 1)
                 if no not in imports]
        lines = [(no, line) for no, line in lines
                 if line and not line.startswith("#")]
        for i in range(len(lines) - span + 1):
            block = tuple(line for _, line in lines[i:i + span])
            if sum(map(len, block)) >= least:
                seen.setdefault(block, []).append(
                    "%s:%d" % (path.name, lines[i][0]))
    return sorted(where for where in seen.values() if len(where) > 1)


def test_no_block_of_code_is_written_twice():
    # the same bookkeeping written twice is one helper waiting to be made
    import dialectic.legacy
    root = Path(dialectic.legacy.__file__).parent
    assert repeated_blocks(sorted(root.rglob("*.py"))) == []


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src" / "dialectic"
    sums = [0, 0]
    for path in sorted(src.rglob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        sums = [a + b for a, b in zip(sums, counts)]
        print("%6d %6d  %s" % (*counts, path.relative_to(src.parent)))
    print("%6d %6d  total (lines, code lines)" % tuple(sums))
