"""The package surface: every module-level import in a module is used there,
and every name the package exports exists."""

import ast
import pathlib

import orlicztf

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "orlicztf"


def _unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in used]


def test_every_module_import_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in _unused_imports(p)]
    assert not unused, unused


def test_every_exported_name_resolves():
    missing = [name for name in orlicztf.__all__ if not hasattr(orlicztf, name)]
    assert not missing, missing
