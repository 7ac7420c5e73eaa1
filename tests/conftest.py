import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled.

    `evaluate` and `enumerate_geodesics` pause the collector; a pause that
    leaks would otherwise pass unseen, and would change the collector state
    of every test after it.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
