"""No public API that nothing calls.

Every public module-level function or class of chernpatch must be named
somewhere in the package, the demos or the benchmark, as a Name or an
Attribute node of their syntax trees; every public method as an Attribute
node, since a bare name of the same spelling (a local variable or a
parameter) does not call it.  Strings (``__all__`` entries, docstrings) do
not count, and neither do the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chernpatch"
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions():
    """(module:qualified name, bare name, is a method) of each public
    definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield f"{path.stem}:{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, _DEFS[:2])
                            and not item.name.startswith("_")):
                        yield (f"{path.stem}:{node.name}.{item.name}",
                               item.name, True)


def _used_names():
    """(bare names, attribute names) used in the package, demos and
    benchmark."""
    names, attrs = set(), set()
    for folder in USERS:
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
    return names, attrs


def test_every_public_definition_has_a_user():
    names, attrs = _used_names()
    unused = [qual for qual, name, method in _public_definitions()
              if name not in attrs and (method or name not in names)]
    assert unused == []
