"""Source hygiene that no installed linter checks: a module reads every name it
imports, so a leftover import shows once its last use is gone."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oltsp_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
