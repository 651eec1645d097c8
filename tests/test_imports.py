"""Import hygiene of the package modules: every imported name is used in its
module, exported through its __all__, or marked `# noqa: F401` on its line
(a name kept for something that looks it up there); and every module-level
private name is read somewhere in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dstfid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """(bound name, line) of every module-level import but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used_exported_or_marked(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    kept = _used(tree) | _exported(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imported(tree)
              if name not in kept and "# noqa: F401" not in lines[line - 1]]
    assert unused == []


def test_a_leftover_import_is_caught():
    tree = ast.parse("import math\nfrom os import path, sep  # noqa: F401\n"
                     "__all__ = ['sep']\n\ndef f(x: 'Path') -> int:\n    return 1\n")
    kept = _used(tree) | _exported(tree)
    assert [name for name, _ in _imported(tree) if name not in kept] == ["math", "path"]


def _private_defined(tree: ast.Module):
    """Every module-level private name a def, class or assignment binds,
    dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in targets
                    if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, looks up as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _unread_private(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_read, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in _private_defined(tree) if name not in read]


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unread_private(trees) == []


def test_an_unread_helper_is_caught():
    a = ast.parse("_KEEP = 1\n_LEFT, _PAIR = 2, 3\n__dunder__ = 4\n_ANN: int = 5\n\n"
                  "def _helper():\n    return _KEEP\n\n"
                  "def _stale():\n    return 0\n\n"
                  "class _Unused:\n    pass\n")
    b = ast.parse("import a\nfrom a import _helper\nprint(a._PAIR)\n")
    assert _unread_private({"a.py": a, "b.py": b}) == [
        "a.py: _LEFT", "a.py: _ANN", "a.py: _stale", "a.py: _Unused"]


def test_importing_the_package_loads_no_scipy():
    # scipy is a test-side dependency: the package and its CLI run without it
    code = ("import sys, dstfid, dstfid.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
