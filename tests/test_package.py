import os
import re

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
