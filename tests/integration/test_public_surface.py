"""Every name a ``repro`` package lists in ``__all__`` resolves.

One case per package that defines ``__all__``, found by walking the package
tree, so a deleted or renamed export fails here and not first in a user's
``from repro.x import *``.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


PACKAGES = _packages_with_all()


def test_the_walk_finds_the_top_level_and_nested_packages():
    assert "repro" in PACKAGES
    assert {"repro.chase", "repro.rewriting"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [item for item in exported if not hasattr(package, item)]
    assert not missing, missing
