import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import pytest

import klvkit

_MODULES = sorted(m.name for m in pkgutil.iter_modules(klvkit.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    """Each `__all__` entry exists, and each public function or class
    defined in the module is listed."""
    mod = importlib.import_module(f"klvkit.{name}")
    exported = mod.__all__
    assert [n for n in exported if not hasattr(mod, n)] == []
    public = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert sorted(public - set(exported)) == []


def test_benchmark_tracer_finds_every_name_it_patches():
    """bench/tracer.py rebinds library functions by name; a name that is
    gone would crash a traced benchmark run.  Load it without installing."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._PATCHES
    missing = [(m.__name__, attr) for m, attr, _, _ in tracer._PATCHES
               if not hasattr(m, attr)]
    assert missing == []


def _reads(paths) -> set:
    """Every name the files read: loaded names, attributes, and names
    imported from a module."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_every_export_is_read_outside_its_definition():
    """Each name in a module's `__all__`, constants included, is read by
    name in the package, in bench/, in tools/ or in the acceptance suite:
    an export that only its own tests reach is dead code."""
    root = pathlib.Path(__file__).resolve().parents[1]
    used = _reads([*pathlib.Path(klvkit.__file__).parent.glob("*.py"),
                   *root.glob("bench/*.py"), *root.glob("tools/*.py"),
                   root / "tests" / "test_acceptance.py"])
    unread = []
    for name in _MODULES:
        mod = importlib.import_module(f"klvkit.{name}")
        unread += [(name, n) for n in mod.__all__ if n not in used]
    assert unread == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_referenced_in_the_package():
    """Each private top-level function, class and constant of klvkit, and
    each private method, is read somewhere in the package by name or as
    an attribute: a helper that only tests reach is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(klvkit.__file__).parent.glob("*.py"))}
    defined = []
    used = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(name, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef) and _private(m.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [(mod, d) for mod, d in defined
              if _private(d.rpartition(".")[2]) and d.rpartition(".")[2] not in used]
    assert unused == []
