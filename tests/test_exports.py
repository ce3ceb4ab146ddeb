import importlib
import pkgutil

import pytest

import leadopt

MODULES = sorted(
    f"leadopt.{info.name}" for info in pkgutil.iter_modules(leadopt.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
