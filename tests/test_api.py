import importlib
import pkgutil

import pytest

import hyperspec

MODULES = ["hyperspec"] + [
    f"hyperspec.{info.name}"
    for info in pkgutil.iter_modules(hyperspec.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
