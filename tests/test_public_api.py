"""No public API that nothing calls, no private helper either, and no
instance attribute that nothing reads.

Every module-level function or class of chernpatch must be named somewhere
in the package, the demos or the benchmark, as a Name or an Attribute node
of their syntax trees; every method as an Attribute node, since a bare name
of the same spelling (a local variable or a parameter) does not call it.
This holds for private names (a leading underscore) as for public ones;
only dunder methods, which Python calls itself, are exempt.  Strings
(``__all__`` entries, docstrings) do not count, and neither do the tests.
Every attribute a method of the package stores on self, every field of a
dataclass and every ``__slots__`` entry must be loaded, as an Attribute
node, in the same places.  Every module-level import of the package (its
``__init__`` aside) and of the demos must be used, as a Name node, in its
module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chernpatch"
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(private):
    """(module:qualified name, bare name, is a method) of each public
    definition, or of each private one (dunders aside) if private."""
    def chosen(name):
        return name.startswith("_") == private and not _dunder(name)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if chosen(node.name):
                yield f"{path.stem}:{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS[:2]) and chosen(item.name):
                        yield (f"{path.stem}:{node.name}.{item.name}",
                               item.name, True)


def _trees(folders):
    """(path, syntax tree) of each module in the folders."""
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _used_names():
    """(bare names, attribute names) used in the package, demos and
    benchmark."""
    names, attrs = set(), set()
    for _, tree in _trees(USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _self_stores():
    """(module:line, attribute) of each self.attribute = ... (or a tuple of
    such targets) in the package."""
    for path, tree in _trees([PACKAGE]):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield f"{path.stem}:{node.lineno}", node.attr


def _record_fields():
    """(module:class.field, field) of each field of a @dataclass class and
    each __slots__ entry in the package."""
    for path, tree in _trees([PACKAGE]):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in node.decorator_list]
            dataclass = any(getattr(d, "id", getattr(d, "attr", None))
                            == "dataclass" for d in decorators)
            for item in node.body:
                if (dataclass and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    names = [item.target.id]
                elif (isinstance(item, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__slots__"
                              for t in item.targets)):
                    names = [e.value for e in item.value.elts]
                else:
                    continue
                for name in names:
                    yield f"{path.stem}:{node.name}.{name}", name


def _loaded_attributes():
    return {node.attr for _, tree in _trees(USERS) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unused(private):
    names, attrs = _used_names()
    return [qual for qual, name, method in _definitions(private)
            if name not in attrs and (method or name not in names)]


def test_every_public_definition_has_a_user():
    assert _unused(private=False) == []


def test_every_private_helper_has_a_user():
    assert _unused(private=True) == []


def test_every_instance_attribute_is_read():
    loaded = _loaded_attributes()
    assert [f"{where} self.{attr}" for where, attr in _self_stores()
            if attr not in loaded] == []


def test_every_record_field_is_read():
    loaded = _loaded_attributes()
    assert [where for where, name in _record_fields()
            if name not in loaded] == []


def _unused_imports():
    """(module:name) of each name a module-level import binds in the package
    (its __init__ aside) or a demo that no Name node of the module uses."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    for path in modules + sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    yield f"{path.stem}:{name}"


def test_every_module_level_import_is_used():
    assert list(_unused_imports()) == []
