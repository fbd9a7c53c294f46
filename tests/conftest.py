import threading

import pytest

from specgraph import experiments


@pytest.fixture(autouse=True)
def fresh_grids(monkeypatch):
    """Running-grid state of the test's own, for every test, so that its
    solver workers fork after the test's monkeypatches, whatever ran
    before; they are ended at the end.  The test fails if it leaves the grid
    lock held or a thread of its own alive, a job thread that outlived its
    grid included, or if a worker is still alive after _close()."""
    before = set(threading.enumerate())
    grids = experiments._RunningGrids()
    monkeypatch.setattr(experiments, "_running_grids", grids)
    yield grids
    try:
        assert not grids._lock.locked(), "a grid still holds the lock"
        left = set(threading.enumerate()) - before
        assert not left, f"threads of this test still alive: {left}"
    finally:
        workers = [proc for proc, _ in grids._workers]
        grids._close()
    leaked = [proc for proc in workers if proc.is_alive()]
    assert not leaked, f"solver workers alive after _close(): {leaked}"
