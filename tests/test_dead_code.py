"""The package carries no dead code that a syntax walk can see: no module
imports a name it never uses, no top-level private function or class goes
unreferenced, and no private method of a class goes unread. The checks read
the source with the standard library's ast module, so a class, helper or
method left behind by a deletion fails here.
"""

import ast
from pathlib import Path

import schmidt_gates

PACKAGE = Path(schmidt_gates.__file__).resolve().parent


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree) -> list:
    """Every name read anywhere in the tree."""
    return [node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)]


def unused_imports(tree) -> list:
    """Names the module imports (outside `from __future__`) and never
    reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set(_loaded_names(tree))
    return [name for name in imported if name not in used]


def _private(name: str) -> bool:
    """Whether a name starts with one underscore (not a dunder)."""
    return name.startswith("_") and not name.startswith("__")


def unreferenced_privates(trees: dict) -> list:
    """(module, name) of each top-level function or class whose name
    starts with one underscore and that no code of the package reads or
    imports, other than its own body."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _private(node.name)):
                continue
            own = {id(n) for n in ast.walk(node)}
            here = any(isinstance(n, ast.Name) and n.id == node.name
                       and id(n) not in own for n in ast.walk(tree))
            elsewhere = any(
                isinstance(n, ast.ImportFrom)
                and any(a.name == node.name for a in n.names)
                for other, t in trees.items() if other != module
                for n in ast.walk(t))
            if not (here or elsewhere):
                found.append((module, node.name))
    return found


def unread_private_methods(trees: dict) -> list:
    """(module, class.method) of each method of a top-level class whose
    name starts with one underscore and that no code of the package reads
    as an attribute, other than its own body."""
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.FunctionDef)
                        and _private(node.name)):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not any(isinstance(n, ast.Attribute) and n.attr == node.name
                           and isinstance(n.ctx, ast.Load) and id(n) not in own
                           for t in trees.values() for n in ast.walk(t)):
                    found.append((module, f"{cls.name}.{node.name}"))
    return found


def test_checks_find_what_they_look_for():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .x import _kept, _unused\n"
        "def _dead(n):\n    return _dead(n - 1)\n"
        "class _Helper:\n    pass\n"
        "class Thing:\n"
        "    def _unread(self):\n        return self._unread()\n"
        "    def _read(self):\n        return 1\n"
        "    def __len__(self):\n        return self._read()\n"
        "def run():\n    return np.pi, _kept, _Helper\n")
    assert unused_imports(tree) == ["os", "_unused"]
    assert unreferenced_privates({"m.py": tree}) == [("m.py", "_dead")]
    assert unread_private_methods({"m.py": tree}) == [("m.py",
                                                       "Thing._unread")]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports only to export
    found = {module: names for module, tree in _modules().items()
             if module != "__init__.py" and (names := unused_imports(tree))}
    assert found == {}


def test_every_private_definition_is_referenced():
    assert unreferenced_privates(_modules()) == []
    assert unread_private_methods(_modules()) == []
