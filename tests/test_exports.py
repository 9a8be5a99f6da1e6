import importlib
import inspect
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
