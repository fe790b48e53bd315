import importlib
import pkgutil

import pytest

import equisphere

MODULES = ["equisphere"] + sorted(
    info.name for info in pkgutil.iter_modules(equisphere.__path__, "equisphere.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []
