"""The package's public surface."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import swarmsched

MODULES = [swarmsched] + [
    importlib.import_module(f"swarmsched.{info.name}")
    for info in pkgutil.iter_modules(swarmsched.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    # `from module import *` is the only other thing that reads __all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_version_is_the_one_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert swarmsched.__version__ == tomllib.load(fh)["project"]["version"]
