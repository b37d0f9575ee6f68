"""Every name a package module imports is used in that module, and every
module-level private name is used somewhere in the package.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import statement must appear somewhere as a name.
The package __init__ is left out of the import check, as it imports to
re-export. A module-level _name (not a dunder) must be read somewhere in
src/: as a name, an attribute or an imported name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cavitrap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a import b, c\nos.sep\nc()\n") == [
        "b", "math",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources):
    """Module-level _names defined in one of sources and read in none."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names = (n for n in ast.walk(target) if isinstance(n, ast.Name))
                    defined.update(n.id for n in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def test_checker_flags_an_unused_private_name():
    a = (
        "def _kept():\n    pass\n"
        "def _lattice_terms():\n    pass\n"
        "_A, _B = 1, 2\n__all__ = []\n"
    )
    b = "from a import _kept\nimport a\na._B\n"
    assert unused_private_names([a, b]) == ["_A", "_lattice_terms"]


def test_no_unused_private_names():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unused_private_names(sources) == []
