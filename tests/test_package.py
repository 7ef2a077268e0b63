"""Public names: every ``__all__`` entry exists, in each module and the package."""

import importlib
import pkgutil

import pytest

import threshold_spectra

MODULES = sorted(info.name for info in pkgutil.iter_modules(threshold_spectra.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"threshold_spectra.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_resolves():
    exported = threshold_spectra.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(threshold_spectra, n)] == []
