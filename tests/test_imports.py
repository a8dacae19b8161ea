"""Every name a library module imports is used in that module, and the
package binds no submodule's name to anything but that submodule.

__init__.py is left out of the first check: its imports are the public
API, re-exported.  A name counts as used when it appears as a Python name
anywhere in the module's code (docstrings and comments do not count).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import instrorder

SRC = Path(__file__).resolve().parent.parent / "src" / "instrorder"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def shadowed_submodules(package) -> list:
    names = [m.name for m in pkgutil.iter_modules(package.__path__)]
    return sorted(
        name
        for name in names
        if name in vars(package)
        and vars(package)[name] is not importlib.import_module(f"{package.__name__}.{name}")
    )


def test_no_package_name_shadows_a_submodule():
    assert shadowed_submodules(instrorder) == []
    from instrorder import simulate

    assert simulate.is_isometric_channel is instrorder.is_isometric_channel


def test_the_shadow_check_sees_a_shadow(monkeypatch):
    monkeypatch.setattr(instrorder, "order", instrorder.order.witness_error)
    assert shadowed_submodules(instrorder) == ["order"]


def test_the_check_sees_an_unused_import():
    source = "from .errors import NotMeasureAndPrepare, ParseError\nimport numpy as np\nraise ParseError(np.pi)\n"
    assert unused_imports(source) == [(1, "NotMeasureAndPrepare")]
