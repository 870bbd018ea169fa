from __future__ import annotations

import multiprocessing as mp

import pytest
from hypothesis import Phase, settings

# Every run draws the same examples, so tier-1 is deterministic. A failing
# example is reported as drawn, not shrunk: shrinking changes no verdict,
# and can take minutes before a red run reports.
settings.register_profile("deterministic", derandomize=True,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("deterministic")


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
