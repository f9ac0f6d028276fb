"""Every ``repro`` package imports and exports what its ``__all__`` names."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    name
    for _, name, is_package in pkgutil.walk_packages(repro.__path__, "repro.")
    if is_package
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
