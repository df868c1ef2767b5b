"""The package carries no dead code that a syntax walk can see: no module
imports a name it never uses (a function-local import, as the CLI makes
for numpy and the numerical layers, is read in its own function), every
entry of the package's lazy export table names a definition of its
module, no top-level private function or class goes unreferenced, no
private method of a class goes unread, no public
function, class or method serves only the unit tests, and no field of a
dataclass goes unread, and no field a scenario schema declares goes
unread by the CLI. The checks read the source with the standard
library's ast module, so a class, helper, method or field left behind by a
deletion fails here.
"""

import ast
import inspect
from pathlib import Path

import schmidt_gates
from schmidt_gates import cli

from test_readme import python_blocks

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
    reads: an import at the top level is read anywhere in the module, one
    inside a function is read in that function."""
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # the innermost function around each node; outer scopes come first in
    # the walk, so an inner one overwrites them
    scope = {}
    for outer in [tree, *functions]:
        scope.update((id(node), outer) for node in ast.walk(outer))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [a.asname or a.name.partition(".")[0]
                        for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported = [a.asname or a.name for a in node.names]
        else:
            continue
        used = set(_loaded_names(scope[id(node)]))
        found += [name for name in imported if name not in used]
    return found


def _top_level_names(tree) -> set:
    """Names a module binds at its top level: definitions and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def stale_exports(trees: dict, exports: dict) -> list:
    """(name, module) of each entry of a lazy export table whose module
    does not define the name at its top level."""
    return [(name, module) for name, module in exports.items()
            if name not in _top_level_names(trees[f"{module}.py"])]


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


def _readers() -> list:
    """The code besides the package that public API may serve: README's
    Python blocks and the acceptance suite."""
    return [ast.parse(block) for block in python_blocks()] + [
        ast.parse(Path(__file__).with_name("test_acceptance.py")
                  .read_text(encoding="utf-8"))]


def _loads(tree) -> list:
    """(node id, name) of every name and attribute the tree reads."""
    return [(id(n), n.id if isinstance(n, ast.Name) else n.attr)
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)]


def unread_publics(trees: dict, readers: list) -> list:
    """(module, name) of each public top-level function or class, and
    (module, class.method) of each public method of a top-level class, that
    nothing reads as a name or an attribute: neither the package, outside
    the definition's own body and the `__init__`, whose export table only
    names it, nor the trees in `readers`. `run_<command>` is exempt,
    because `main` looks it up by name."""
    package = {m: t for m, t in trees.items() if m != "__init__.py"}
    loads = [load for tree in package.values() for load in _loads(tree)]
    outside = {name for tree in readers for _, name in _loads(tree)}
    found = []
    for module, tree in package.items():
        defs = [(node, node.name) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(node, f"{cls.name}.{node.name}") for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        for node, label in defs:
            if node.name.startswith(("_", "run_")) or node.name in outside:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and i not in own
                       for i, name in loads):
                found.append((module, label))
    return found


def _dataclass(cls) -> bool:
    """Whether a class definition is decorated with dataclass, called with
    options or not."""
    for decorator in cls.decorator_list:
        name = (decorator.func if isinstance(decorator, ast.Call)
                else decorator)
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def unread_fields(trees: dict, readers: list) -> list:
    """(module, class.field) of each field declared on a top-level
    dataclass of the package that nothing reads as an attribute: neither
    the package nor the trees in `readers`."""
    read = {n.attr for tree in [*trees.values(), *readers]
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(module, f"{cls.name}.{node.target.id}")
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _dataclass(cls)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and node.target.id not in read]


def _schema_fields(schema) -> list:
    """(name, schema) of every property a JSON schema declares, at any
    depth."""
    if isinstance(schema, list):
        return [field for item in schema for field in _schema_fields(item)]
    if not isinstance(schema, dict):
        return []
    return [*schema.get("properties", {}).items(),
            *(field for value in schema.values()
              for field in _schema_fields(value))]


def _definitions(tree, root: str) -> set:
    """ids of the nodes of the top-level definition `root` and of every
    top-level definition it is built from, followed through the names
    they read."""
    top = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            top.update((t.id, node) for t in node.targets
                       if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top[node.name] = node
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in top and name not in seen:
            seen.add(name)
            todo += _loaded_names(top[name])
    return {id(n) for name in seen for n in ast.walk(top[name])}


def unread_scenario_fields(tree, root: str, schemas: dict,
                           constructors: dict) -> list:
    """Sorted names of the properties declared in `schemas` that are
    neither a const (a tag or the schema version), nor a string the tree
    reads as a subscript or passes as a positional argument outside the
    definitions `root` is built from, nor a parameter of one of the
    `constructors`, which take a segment's other fields as keywords."""
    skip = _definitions(tree, root)
    read = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            read.add(node.slice)
        elif isinstance(node, ast.Call):
            read.update(node.args)
    keys = {n.value for n in read
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    keys.update(name for build in constructors.values()
                for name in inspect.signature(build).parameters)
    return sorted({name for name, schema in _schema_fields(schemas)
                   if "const" not in schema and name not in keys})


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
        "def run():\n    return np.pi, _kept, _Helper\n"
        "def local():\n    import json\n    from . import y, z\n"
        "    def inner():\n        return y\n    return 1\n"
        "def reader():\n    return json, z\n")
    assert unused_imports(tree) == ["os", "_unused", "json", "z"]
    assert stale_exports({"m.py": tree}, {"run": "m", "Thing": "m",
                                          "gone": "m"}) == [("gone", "m")]
    assert unreferenced_privates({"m.py": tree}) == [("m.py", "_dead")]
    assert unread_private_methods({"m.py": tree}) == [("m.py",
                                                       "Thing._unread")]
    api = ast.parse(
        "def shown():\n    return Tool().used()\n"
        "def tested():\n    return tested()\n"
        "def run_thing():\n    return 1\n"
        "class Tool:\n"
        "    def used(self):\n        return self.spare()\n"
        "    def spare(self):\n        return 1\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def __repr__(self):\n        return ''\n"
        "class Spare:\n    pass\n")
    exports = ast.parse("from .m import Spare, tested\n")
    readme = ast.parse("print(shown())\n")
    assert unread_publics({"m.py": api, "__init__.py": exports},
                          [readme]) == [("m.py", "tested"), ("m.py", "Spare"),
                                        ("m.py", "Tool.unused")]
    data = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Point:\n    x: float\n    y: float\n    flag: bool\n"
        "    def norm(self):\n        return self.x\n"
        "@dataclass\n"
        "class Pair:\n    first: int\n    second: int\n"
        "class Plain:\n    unread: int\n"
        "def use(pair):\n    return pair.first\n")
    readme = ast.parse("print(Point(1, 2, True).y)\n")
    assert unread_fields({"m.py": data}, [readme]) == [
        ("m.py", "Point.flag"), ("m.py", "Pair.second")]


def test_scenario_field_check_finds_unread_fields():
    # a key named by the schema's own definitions, or one the code writes,
    # is not read; a constructor's parameter and a subscript key are
    source = (
        "_N = {'type': 'number'}\n"
        "def _obj(props, *order):\n"
        "    return {'type': 'object', 'properties': props,\n"
        "            'required': list(order)}\n"
        "SCHEMAS = {'run': _obj({'tag': {'const': 'run'}, 'read': _N,\n"
        "                        'built': _N, 'spare': _N, 'written': _N,\n"
        "                        'nested': _obj({'deep': _N})}, 'spare')}\n"
        "def run(s):\n"
        "    out = {'written': s['read'], 'nested': s.get('nested')}\n"
        "    return out, BUILD[s.pop('tag')](**s)\n")
    namespace = {}
    exec(source, namespace)
    assert unread_scenario_fields(
        ast.parse(source), "SCHEMAS", namespace["SCHEMAS"],
        {"x": lambda built: None}) == ["deep", "spare", "written"]


# The benchmark's scenarios still send samples_per_segment; since every
# segment is propagated exactly, nothing reads it.
UNREAD_SCENARIO_FIELDS = ["samples_per_segment"]


def test_every_scenario_field_is_read():
    assert unread_scenario_fields(
        _modules()["cli.py"], "SCENARIO_SCHEMAS", cli.SCENARIO_SCHEMAS,
        cli._segment_constructors()) == UNREAD_SCENARIO_FIELDS


def test_no_module_imports_a_name_it_never_uses():
    found = {module: names for module, tree in _modules().items()
             if (names := unused_imports(tree))}
    assert found == {}


def test_every_export_names_a_definition_of_its_module():
    # the export table is text, so a name deleted from its module would
    # fail only on first access to it
    assert stale_exports(_modules(), schmidt_gates._EXPORTS) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_privates(_modules()) == []
    assert unread_private_methods(_modules()) == []


def test_every_public_definition_has_a_reader():
    assert unread_publics(_modules(), _readers()) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(_modules(), _readers()) == []
