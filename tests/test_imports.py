"""Every module-level import in the library is used by its module, and no
module but numfield, whose embeddings give the log-vector screen, names a
floating-point library."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "anosov"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


@pytest.mark.parametrize("module", [f"anosov.{p.stem}" for p in MODULES if p.stem != "numfield"])
def test_exact_modules_hold_no_mpmath(module):
    # every verdict path is exact: no floating-point library in it
    mod = importlib.import_module(module)
    assert "mpmath" not in vars(mod)
    assert "mpmath" not in mod.__loader__.get_source(module)
