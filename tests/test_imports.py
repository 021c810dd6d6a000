"""Every name a module of the package imports is used in that module, and
every name the package defines is read somewhere.

Two kinds of name may be imported and not used: the names the benchmark
tracer wraps on that module (`tracing.patch_targets`), which it looks up
there, and the names the module exports in its `__all__`.

A function, class, method or module constant of the package must be read
by the package or the benchmark (`perfbench/*.py`) other than where it is
defined: as a loaded name, an attribute, the original name of an aliased
import or a tracer target. `UNREAD` lists the few that stay unread, each
with its reason."""

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


# definitions that nothing in the package or the benchmark reads, and why
# they stay
UNREAD = {
    **dict.fromkeys(("zero_program", "split_program", "concat_programs", "save_program"),
                    "the public program API"),
    **dict.fromkeys(("audit_mask_average", "audit_query_uniformity"),
                    "a secrecy audit that ROADMAP item 4 wires into the runs"),
    **dict.fromkeys(("num_live", "amplitudes", "norm_error"),
                    "test-only, until ROADMAP item 7 moves it into the tests"),
}


def definitions(source):
    """The functions, classes, methods and module constants `source`
    defines at its top level; dunder names are called implicitly."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(e.id for t in node.targets for e in ast.walk(t)
                         if isinstance(e, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def reads(source):
    """The names `source` reads: loaded names and attributes, and the
    original names of its aliased imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(a.name.rpartition(".")[2] for a in node.names if a.asname)
    return read


def unread_definitions(defining, reading, also_read=()):
    """(module, name) for each definition of the `defining` sources (module:
    source) that no source of `reading` reads and `also_read` does not
    name, sorted."""
    read = set(also_read).union(*map(reads, reading))
    return sorted((module, name) for module, source in defining.items()
                  for name in definitions(source) - read)


def test_every_definition_is_read():
    defining = {_module_name(path): path.read_text() for path in MODULES}
    reading = list(defining.values()) + [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    # a tracer target is read where the tracer looks it up
    unread = unread_definitions(defining, reading,
                                {attr for _, attr, _ in tracing.patch_targets()})
    flagged = [(module, name) for module, name in unread if name not in UNREAD]
    assert not flagged, f"defined and never read: {flagged}"
    stale = sorted(set(UNREAD) - {name for _, name in unread})
    assert not stale, f"UNREAD lists {stale}, which something reads or nothing defines"


def test_an_unread_definition_is_found():
    source = ("class Run:\n    def _derived_h(self, j):\n        return j\n\n"
              "    def _round_a(self, j):\n        return j\n\n\nRun()._round_a(1)\n")
    assert unread_definitions({"toqc": source}, [source]) == [("toqc", "_derived_h")]
