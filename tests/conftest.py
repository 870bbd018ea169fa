from __future__ import annotations

import multiprocessing as mp

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child alive: every pool
    must end and join its workers before the call that made it returns.
    The children are killed afterwards, so that later tests start clean."""
    yield
    left = mp.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes left alive: {left}"
