"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import nigcdf

# ``__main__`` runs the CLI on import, so it is not a module to inspect
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(nigcdf.__path__) if info.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in nigcdf.__all__ if not hasattr(nigcdf, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"nigcdf.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
