from __future__ import annotations

import doctest
import importlib
import pkgutil

import clanorbits


def test_every_module_passes_its_doctests():
    names = ["clanorbits"] + [
        m.name for m in pkgutil.iter_modules(clanorbits.__path__, "clanorbits.")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 4  # the parse_clan and length_stat examples in clans
