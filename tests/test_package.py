"""The package's public surface."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import swarmsched

MODULES = [swarmsched] + [
    importlib.import_module(f"swarmsched.{info.name}")
    for info in pkgutil.iter_modules(swarmsched.__path__)
]

# The modules whose __all__ the package re-exports, in the package's order.
LIBRARY = [
    importlib.import_module(f"swarmsched.{name}")
    for name in ("domain", "metrics", "encoding", "optimizer", "baselines", "workload", "harness")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    # `from module import *` is the only other thing that reads __all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_exactly_its_library_modules_names():
    expected = ["__version__"] + [name for module in LIBRARY for name in module.__all__]
    assert swarmsched.__all__ == expected
    assert len(set(expected)) == len(expected)  # so no star import shadows another
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(swarmsched, name) is getattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda module: module.__name__)
def test_public_spelling_means_listed_in_all(module):
    public = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in public if name not in module.__all__] == []


def test_version_is_the_one_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert swarmsched.__version__ == tomllib.load(fh)["project"]["version"]
