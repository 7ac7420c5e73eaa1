import gc
import os
import sys

import pytest

from hypident import curves

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled.

    `enumerate_geodesics`, and through it `iter_terms`, pauses the
    collector while it builds the records; a pause that leaks would
    otherwise pass unseen, and would change the collector state of every
    test after it.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def unreduced(monkeypatch):
    """Walk the spectrum from the given triple itself, in its own marking.

    Every walk starts at `curves.reduce_to_minimal(triple)`, which
    validates the triple; patched to the identity, it lets a test root the
    walk at a marked or an unvalidated triple.
    """
    monkeypatch.setattr(curves, "reduce_to_minimal", lambda triple: triple)
