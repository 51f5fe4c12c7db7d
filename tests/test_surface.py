"""The package surface: every module-level import in a module is used there,
and every name the package exports exists."""

import ast
import importlib.util
import pathlib
import re

import numpy as np

import orlicztf
from orlicztf import psido

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orlicztf"


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


def _names_read(path: pathlib.Path) -> set:
    """The names a Python file reads: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_every_exported_name_is_read_outside_its_module():
    """An exported name earns its place: another package module, the
    benchmark or the README reads it, not only its own module, the package
    __init__ and the tests."""
    modules = {p.stem: _names_read(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text())).union(
        *map(_names_read, (ROOT / "benchmark").glob("*.py")))
    unread = []
    for name in orlicztf.__all__:
        home = getattr(orlicztf, name).__module__.rpartition(".")[2]
        if name not in outside.union(*(v for k, v in modules.items() if k != home)):
            unread.append(f"{home}.{name}")
    assert not unread, unread


# the layers of the package docstring, from the ground up
LAYERS = ("young", "weights", "field", "orlicz", "tfa", "modspace", "psido", "entropy",
          "verify", "cli")


def _package_imports(path: pathlib.Path) -> set:
    """The package modules a module imports, at any depth of its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orlicztf"):
            parts = node.module.split(".")
            found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("orlicztf."))
    return found


def test_each_layer_imports_only_the_layers_below_it():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS) | {"__init__"}
    upward = [f"{name} imports {dep}"
              for i, name in enumerate(LAYERS)
              for dep in sorted(_package_imports(SRC / f"{name}.py"))
              if dep not in LAYERS[:i]]
    assert not upward, upward
    assert not _package_imports(SRC / "young.py")


def test_the_benchmark_tracer_installs_and_puts_every_original_back():
    """The benchmark's span tracer (benchmark/spans.py, read here, not
    changed) wraps layer functions by their names, so a deleted or renamed
    traced name fails its install; uninstall restores numpy's FFT entry
    points and the package functions."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ffts = {name: getattr(np.fft, name) for name in ("fft", "ifft", "fftn", "ifftn")}
    symbol_norm = psido.symbol_norm
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert {name: getattr(np.fft, name) for name in ffts} == ffts
    assert psido.symbol_norm is symbol_norm
