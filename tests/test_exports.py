"""The package's public names."""

from __future__ import annotations

import graphabm


def test_every_exported_name_resolves():
    missing = [name for name in graphabm.__all__ if not hasattr(graphabm, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from graphabm import *", namespace)
    assert set(graphabm.__all__) <= set(namespace)
