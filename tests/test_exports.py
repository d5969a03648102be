"""Every name a module exports resolves, so a deletion that forgets an
``__all__`` entry fails here rather than in a user's import; and every
name a module imports is read, so a deletion that leaves an import
behind fails here too."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modgal

MODULES = ["modgal"] + [f"modgal.{m.name}" for m in pkgutil.iter_modules(modgal.__path__)]

TESTS = Path(__file__).resolve().parent
SOURCES = sorted(Path(modgal.__file__).resolve().parent.rglob("*.py")) + sorted(
    TESTS.rglob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names the module's imports bind and nothing reads; a name
    listed in ``__all__`` counts as read."""
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES]
)
def test_every_import_is_read(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []
