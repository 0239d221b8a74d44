import importlib

import pytest


@pytest.mark.parametrize("package", ["ugatlab.numnet", "ugatlab.sim", "ugatlab.experiment"])
def test_every_all_entry_is_an_attribute(package):
    # a stale entry would otherwise fail only on `from package import *`
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
