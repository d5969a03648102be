"""Every name a module exports resolves, so a deletion that forgets an
``__all__`` entry fails here rather than in a user's import; every
name a module imports is read, so a deletion that leaves an import
behind fails here too; every name a docstring or comment cites
resolves, so a deletion that leaves a citation behind fails as well;
only ``_splitprime`` reads the split-prime images of s; and inside it
only ``refuted`` sizes a certificate."""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
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


# A name cited in double backticks: dotted (``module.name``,
# ``Class.attr``) or an UPPER_CASE constant
_CITED = re.compile(r"``((?:[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)|(?:_?[A-Z][A-Z0-9_]*))``")


def _citations(source: str) -> list[str]:
    """The names the module's docstrings and comments cite."""
    texts = [
        tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            texts.append(ast.get_docstring(node, clean=False) or "")
    return [name for text in texts for name in _CITED.findall(text)]


def _resolves(scope, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(scope, part):
            return False
        scope = getattr(scope, part)
    return True


def test_cited_names_resolve():
    # a citation resolves in the citing module, or as a name of the
    # package or of one of its modules
    modules = {name: importlib.import_module(name) for name in MODULES}
    unresolved = []
    cited = 0
    for path in PACKAGE:
        module = modules["modgal" if path.stem == "__init__" else f"modgal.{path.stem}"]
        for name in _citations(path.read_text()):
            cited += 1
            bare = name.removeprefix("modgal.")
            if not any(_resolves(scope, bare) for scope in (module, modgal, *modules.values())):
                unresolved.append(f"{path.name}: {name}")
    assert cited > 0
    assert unresolved == []


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
