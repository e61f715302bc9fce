"""No public API that nothing calls.

Every public module-level function or class of chernpatch, and every
public method, must be named somewhere in the package, the demos or the
benchmark: as a Name or an Attribute node of their syntax trees.  Strings
(``__all__`` entries, docstrings) do not count, and neither do the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chernpatch"
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions():
    """(module:qualified name, bare name) of each public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield f"{path.stem}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, _DEFS[:2])
                            and not item.name.startswith("_")):
                        yield f"{path.stem}:{node.name}.{item.name}", item.name


def _used_names():
    names = set()
    for folder in USERS:
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_has_a_user():
    used = _used_names()
    unused = [qual for qual, name in _public_definitions() if name not in used]
    assert unused == []
