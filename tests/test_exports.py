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
