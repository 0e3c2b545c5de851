import importlib

import pytest


@pytest.fixture
def tree_search(monkeypatch):
    """Pin solve() to the tree search: a support-search work budget of 0
    refuses every input."""
    monkeypatch.setattr(importlib.import_module("intscore.solver"), "_SUPPORT_ELEMENTS", 0)
