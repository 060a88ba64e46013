"""Source hygiene that no installed linter checks: a module reads every name it
imports, some file reads every function, class and variable the package
defines at module level, and some file of the program reads every method of a
package class, so a leftover import, helper, constant or method shows once its
last use is gone, or once only tests use it."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oltsp_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
PROGRAM = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")
                 if not p.name.startswith("test_"))


def unread_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # ``np.zeros`` reads ``np``: an attribute chain starts from a loaded name.
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_modules_are_found():
    assert {"cli.py", "engine.py", "instance.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_unread_import_is_caught():
    source = "from .engine import check_pairing, simulate\nimport numpy as np\n" \
             "np.zeros(1)\ncheck_pairing()\n"
    assert unread_imports(source) == ["simulate"]


def defined_names(source: str) -> list:
    """The functions, classes and variables ``source`` defines at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return names


def read_names(source: str) -> set:
    """Every name ``source`` reads: loaded names, attributes, imported names and
    whole string constants (``getattr(module, "name")``).  A definition's reads
    of its own name, such as a recursive call, do not count."""
    read = set()
    for stmt in ast.parse(source).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        read |= names - {getattr(stmt, "name", None)}
    return read


def unread_definitions(source: str, readers) -> list:
    """Module-level names defined in ``source`` that no source in ``readers``
    reads.  Names are matched alone, not by module."""
    read = set().union(*(read_names(r) for r in readers))
    return sorted(set(defined_names(source)) - read)


def test_every_defined_name_is_read():
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    unread = {p.name: unread_definitions(p.read_text(encoding="utf-8"), readers)
              for p in MODULES}
    assert {name: defs for name, defs in unread.items() if defs} == {}


def test_unread_definition_is_caught():
    source = "def used():\n    pass\n\ndef left_over(n):\n    return left_over(n - 1)\n\n" \
             "class Kept:\n    pass\n\nused(Kept)\n"
    assert unread_definitions(source, [source]) == ["left_over"]
    constants = "CAP = 9\nLIMIT: int = 18\nLOW, HIGH = 0, 1\nused(LIMIT, HIGH)\n"
    assert unread_definitions(constants, [constants]) == ["CAP", "LOW"]


def unread_methods(source: str, readers) -> list:
    """``Class.method`` for each method of a module-level class in ``source``
    whose name no source in ``readers`` reads.  Python calls the dunder
    methods itself, so they are left out."""
    read = set().union(*(read_names(r) for r in readers))
    return sorted(f"{node.name}.{item.name}" for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                  and item.name not in read)


def test_every_method_is_read_by_the_program():
    readers = [p.read_text(encoding="utf-8") for p in PROGRAM]
    unread = {p.name: unread_methods(p.read_text(encoding="utf-8"), readers) for p in MODULES}
    assert {name: methods for name, methods in unread.items() if methods} == {}


def test_method_read_only_by_tests_is_caught():
    source = "class Route:\n    steps = [('_step',)]\n\n    def __init__(self):\n" \
             "        self.ready = True\n\n    def _step(self):\n        return self.go()\n\n" \
             "    def go(self):\n        pass\n\n    def left_over(self):\n        pass\n"
    test = "Route().left_over()\n"
    assert unread_methods(source, [source]) == ["Route.left_over"]
    assert unread_methods(source, [source, test]) == []


def stored_attributes(source: str) -> list:
    """``Class.attribute`` for each attribute that a module-level class in
    ``source`` stores on ``self``, in any of its methods."""
    return sorted({f"{cls.name}.{node.attr}" for cls in ast.parse(source).body
                   if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self"})


def loaded_attributes(source: str) -> set:
    """Every attribute ``source`` reads, and every whole string constant
    (``getattr(obj, "name")``).  Stores, augmented ones included, and ``del``
    do not count."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unread_attributes(source: str, readers) -> list:
    """The attributes of ``stored_attributes(source)`` whose name no source
    in ``readers`` reads.  Names are matched alone, not by class."""
    read = set().union(*(loaded_attributes(r) for r in readers))
    return [name for name in stored_attributes(source) if name.partition(".")[2] not in read]


def test_every_stored_attribute_is_read():
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    unread = {p.name: unread_attributes(p.read_text(encoding="utf-8"), readers) for p in MODULES}
    assert {name: attrs for name, attrs in unread.items() if attrs} == {}


def test_unread_attribute_is_caught():
    source = "class Ring:\n    def __init__(self):\n        self.kept, self.window = 1, 2\n" \
             "        self.count = 0\n        self.gone = 3\n\n    def step(self):\n" \
             "        self.count += 1\n        del self.gone\n        return self.kept\n"
    assert unread_attributes(source, [source]) == ["Ring.count", "Ring.gone", "Ring.window"]
    test = "assert Ring().window == 2\n"
    assert unread_attributes(source, [source, test]) == ["Ring.count", "Ring.gone"]
