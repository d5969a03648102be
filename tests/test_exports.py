"""Every name a module exports resolves, so a deletion that forgets an
``__all__`` entry fails here rather than in a user's import; every
name a module imports is read, so a deletion that leaves an import
behind fails here too; only ``_splitprime`` reads the split-prime
images of s; and inside it only ``refuted`` sizes a certificate."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modgal

MODULES = ["modgal"] + [f"modgal.{m.name}" for m in pkgutil.iter_modules(modgal.__path__)]

TESTS = Path(__file__).resolve().parent
PACKAGE = sorted(Path(modgal.__file__).resolve().parent.rglob("*.py"))
SOURCES = PACKAGE + sorted(TESTS.rglob("*.py"))


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


# The names through which a module evaluates identities on the images,
# and the attributes of ``Residues`` that hold the images and their bound
_SLOT_NAMES = {"refuted", "primes_over", "sigma_slots"}
_SLOT_ATTRIBUTES = {"l1", "at"}


def _slot_reads(tree: ast.Module) -> list[str]:
    """The split-prime names the module imports and the image
    attributes it reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in _SLOT_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in _SLOT_ATTRIBUTES:
            found.append(f".{node.attr}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "_splitprime.py"], ids=lambda p: p.name
)
def test_only_splitprime_reads_slot_images(path):
    assert _slot_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_galois_action_imports_no_numpy():
    # it formats what ``_splitprime`` certifies and reads no residues
    path = next(p for p in PACKAGE if p.name == "galois_action.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "numpy" not in modules


def _owners(tree: ast.Module, found) -> set[str]:
    """The top-level functions and methods (``Class.method``) of the
    module with a node for which ``found`` holds; code outside any of
    them is ``<module>``, or the class name in a class body."""
    owners = set()
    for top in tree.body:
        inner = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in inner:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name if node is top else f"{top.name}.{node.name}"
            else:
                name = top.name if isinstance(top, ast.ClassDef) else "<module>"
            if any(found(n) for n in ast.walk(node)):
                owners.add(name)
    return owners


def test_only_refuted_sizes_a_certificate():
    # each identity declares its degree and mass to ``refuted``, which
    # alone turns them into a bound and picks the primes
    path = next(p for p in PACKAGE if p.name == "_splitprime.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = _owners(tree, lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "primes_over")
    reads = _owners(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "l1")
    assert calls == {"refuted"}
    assert reads <= {"refuted", "Residues.__init__"}
