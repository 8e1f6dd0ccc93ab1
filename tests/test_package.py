import importlib
import os
import re

import pytest

import vibdict


def test_version_matches_pyproject():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        match = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.MULTILINE)
    assert match is not None
    assert vibdict.__version__ == match.group(1)


def test_all_names_resolve_once():
    assert len(vibdict.__all__) == len(set(vibdict.__all__))
    missing = [name for name in vibdict.__all__ if not hasattr(vibdict, name)]
    assert missing == []


def test_exports_are_the_defining_modules_objects():
    for name in vibdict.__all__:
        module = importlib.import_module(f"vibdict.{vibdict._MODULE_OF[name]}")
        value = getattr(module, name)
        assert getattr(vibdict, name) is value, name
        # Defined there, not imported from another module.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from vibdict import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(vibdict.__all__)


def test_dir_lists_every_export():
    assert set(vibdict.__all__) <= set(dir(vibdict))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        vibdict.no_such_name
    assert not hasattr(vibdict, "no_such_name")
