"""Public names and module boundaries: the core never reaches the identities."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import threshold_spectra
import threshold_spectra.identities

MODULES = sorted(info.name for info in pkgutil.iter_modules(threshold_spectra.__path__))
SOURCE = Path(threshold_spectra.__file__).parent


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


def test_package_exports_only_the_core():
    assert len(threshold_spectra.__all__) == 28
    for module in (threshold_spectra, threshold_spectra.spectral, threshold_spectra.identities):
        assert not hasattr(module, "Polynomial")
    for name in ("MaximizerPrediction", "ConjecturePair", "VerificationReport", "NEAR_TIE_TOL"):
        assert not hasattr(threshold_spectra, name)
        assert not hasattr(threshold_spectra.extremal, name)
    # one ranking: no near-tie band on the result, no tolerance parameters on the search
    assert "near_ties" not in {f.name for f in fields(threshold_spectra.ExtremalResult)}
    assert list(inspect.signature(threshold_spectra.find_extremal).parameters) == ["n", "m"]
    assert not set(threshold_spectra.__all__) & set(threshold_spectra.identities.__all__)


def package_imports(name):
    """The package modules that module ``name`` imports, by relative or absolute name."""
    tree = ast.parse((SOURCE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                found.add(node.module or "")
            elif (node.module or "").startswith("threshold_spectra."):
                found.add(node.module.split(".", 1)[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".", 1)[1]
                for alias in node.names
                if alias.name.startswith("threshold_spectra.")
            )
    return found


def test_only_identities_imports_identities():
    importers = [name for name in MODULES + ["__init__"] if "identities" in package_imports(name)]
    assert importers == []


@pytest.mark.parametrize("name", ["walks", "spectral"])
def test_kernels_import_only_the_graph_model(name):
    assert package_imports(name) == {"graph_model"}


def test_cli_does_not_load_identities():
    probe = "import sys, threshold_spectra.cli; print('threshold_spectra.identities' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"
