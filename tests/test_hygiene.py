"""Source hygiene: every name a package module imports is used or
exported, and every module-level function or class is referenced or
exported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conekit"


def exported_names(tree) -> set[str]:
    """The strings listed in the module's `__all__` assignments."""
    return {e.value
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in ast.walk(node.value)
            if isinstance(e, ast.Constant) and isinstance(e.value, str)}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads and
    does not list in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    exported = exported_names(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unused_and_respects_all():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from .a import b, c as d, e\n"
              "__all__ = ['e']\n"
              "x = np.zeros(d)\n")
    assert unused_imports(source) == ["b (line 3)", "os (line 2)"]


def module_reads(trees) -> list[tuple[ast.stmt, set[str]]]:
    """(statement, names it reads as a name or an attribute) for every
    top-level statement of every module."""
    return [(top, {n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(top)
                   if isinstance(n, (ast.Name, ast.Attribute))})
            for tree in trees.values() for top in tree.body]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes, as "module:name", that no
    module reads (as a name or an attribute) outside the definition
    itself and no `__all__` lists."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    exported = set().union(*map(exported_names, trees.values()))
    reads = module_reads(trees)
    return sorted(
        f"{mod}:{node.name}"
        for mod, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported
        and not any(node.name in names for top, names in reads if top is not node))


def test_no_dead_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources) == []


def test_dead_scan_flags_unreferenced_definitions():
    sources = {
        "a": ("def used(): pass\n"
              "def only_recursive(n): return only_recursive(n - 1)\n"
              "class Exported: pass\n"
              "class Dead: pass\n"
              "__all__ = ['Exported']\n"),
        "b": ("from . import a\n"
              "def caller(): return a.used()\n"
              "caller()\n"),
    }
    assert dead_definitions(sources) == ["a:Dead", "a:only_recursive"]


def unread_parameters(source: str) -> list[str]:
    """Parameters, as "function(name)", that the body of their function
    (nested functions included) never reads.  The first parameter of a
    method, its instance or class, is exempt: an override must take it."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None]
        if id(node) in methods:
            params = params[1:]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"{node.name}({p})" for p in params if p not in read]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_parameter_scan_flags_unread_parameters():
    source = ("def passed_on(a, b, *rest, c=None, **kw):\n"
              "    def inner(x):\n"
              "        return a + c\n"
              "    return inner\n"
              "class K:\n"
              "    def method(self, used, unused):\n"
              "        return used\n"
              "    @classmethod\n"
              "    def make(cls):\n"
              "        return 0\n")
    assert unread_parameters(source) == [
        "inner(x)", "method(unused)", "passed_on(b)", "passed_on(kw)", "passed_on(rest)"]


# The documented entry points: exported although no package module
# reads them.  bottom_volume stays until the pipeline's bottom
# triangulation (ROADMAP item 9) calls it.
PUBLIC = {
    "compute", "RunOptions", "ConeInput",
    "ComputationResult", "HilbertSeries", "StatsRecord",
    "ConeKitError", "DomainError", "GradingNotPositiveError", "InputParseError",
    "InternalConsistencyError", "NotPointedError",
    "bottom_volume",
}


def unread_exports(sources: dict[str, str], public=frozenset()) -> list[str]:
    """Names in the `__all__` of the package's `__init__` that no other
    module reads outside their own definition, except the public ones."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    init = trees.pop("__init__")
    reads = module_reads(trees)
    return sorted(name for name in exported_names(init) - set(public)
                  if not any(name in names for top, names in reads
                             if getattr(top, "name", None) != name))


def test_every_export_is_read_or_public():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert PUBLIC <= exported_names(ast.parse(sources["__init__"]))
    assert unread_exports(sources, PUBLIC) == []


def test_export_scan_flags_unread_names():
    sources = {
        "__init__": ("from .a import helper, only_tests, recursive, run\n"
                     "__all__ = ['helper', 'only_tests', 'recursive', 'run']\n"),
        "a": ("def helper(): pass\n"
              "def only_tests(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def run(): return helper()\n"),
    }
    assert unread_exports(sources) == ["only_tests", "recursive", "run"]
    assert unread_exports(sources, {"run"}) == ["only_tests", "recursive"]


# The package's stages, earliest first: a module may import only modules
# before it.  __init__ and __main__ import the stages they expose or run.
LAYERS = ("errors", "linalg", "cone", "simplex", "subdivide", "approx", "collect",
          "pipeline", "cli")
ENTRY_MODULES = {"__init__", "__main__"}


def upward_imports(sources: dict[str, str], layers=LAYERS) -> list[str]:
    """Every import of a package module from a later (or the same) layer,
    as "module -> imported", and every module that the layer order does
    not list, as "module: no layer"."""
    rank = {mod: k for k, mod in enumerate(layers)}
    found = []
    for mod, source in sources.items():
        if mod in ENTRY_MODULES:
            continue
        if mod not in rank:
            found.append(f"{mod}: no layer")
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["conekit" if node.level else "", node.module]))
                names = [f"{base}.{a.name}" for a in node.names] if base == "conekit" else [base]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            targets = [name.split(".")[1] for name in names if name.startswith("conekit.")]
            found += [f"{mod} -> {t}" for t in targets if rank.get(t, len(layers)) >= rank[mod]]
    return sorted(found)


def test_no_module_imports_a_later_stage():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert set(sources) - ENTRY_MODULES == set(LAYERS)
    assert upward_imports(sources) == []


def test_layer_scan_flags_upward_imports():
    sources = {
        "__init__": "from .b import g\n",
        "a": "from . import b\nimport conekit.c\nfrom .x import y\n",
        "b": "from __future__ import annotations\nfrom . import a\nfrom .a import f\n",
        "c": "from conekit.b import g\nfrom .c import h\nimport os\n",
        "d": "from conekit import a, e\nfrom numpy import array\n",
        "stray": "from .a import f\n",
    }
    assert upward_imports(sources, ("a", "b", "c", "d")) == [
        "a -> b", "a -> c", "a -> x", "c -> c", "d -> e", "stray: no layer"]


# The one module that may fall back from int64 to Python ints on overflow:
# linalg.stack builds every integer array, so no other module needs its own.
OVERFLOW_MODULES = {"linalg"}


def overflow_handlers(sources: dict[str, str], allowed=OVERFLOW_MODULES) -> list[str]:
    """Every `except` clause that names OverflowError, alone or in a
    tuple, as "module (line N)", outside the allowed modules."""
    found = []
    for mod, source in sources.items():
        if mod in allowed:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                    isinstance(n, (ast.Name, ast.Attribute))
                    and (n.id if isinstance(n, ast.Name) else n.attr) == "OverflowError"
                    for n in ast.walk(node.type)):
                found.append(f"{mod} (line {node.lineno})")
    return sorted(found)


def test_only_linalg_catches_overflow():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert overflow_handlers(sources) == []


def test_overflow_scan_flags_handlers_outside_linalg():
    body = "try:\n    f()\n"
    sources = {
        "linalg": body + "except OverflowError:\n    pass\n",
        "a": body + "except (ValueError, OverflowError):\n    pass\n",
        "b": body + "except builtins.OverflowError as e:\n    raise\n",
        "c": body + "except ValueError:\n    pass\nexcept Exception:\n    pass\n",
        "d": body + "except:\n    pass\n",
    }
    assert overflow_handlers(sources) == ["a (line 3)", "b (line 3)"]
