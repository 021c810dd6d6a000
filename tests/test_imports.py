"""Every name a module of the package imports is used in that module.

Two kinds of name may be imported and not used: the names the benchmark
tracer wraps on that module (`tracing.patch_targets`), which it looks up
there, and the names the module exports in its `__all__`."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "obliq"
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def unused_imports(source):
    """The names `source` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_every_import_is_used(path):
    module = importlib.import_module(_module_name(path))
    kept = {attr for owner, attr, _ in tracing.patch_targets() if owner is module}
    kept.update(getattr(module, "__all__", ()))
    unused = [name for name in unused_imports(path.read_text()) if name not in kept]
    assert not unused, f"{_module_name(path)} imports {unused} and never uses them"


def test_a_leftover_import_is_found():
    source = "from .gates import Program, as_seed\n\nW = Program\n"
    assert unused_imports(source) == ["as_seed"]
