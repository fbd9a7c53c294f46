import pytest

from specgraph import experiments


@pytest.fixture
def fresh_grids(monkeypatch):
    """Running-grid state of this test's own, so that its solver pool forks
    after the test's monkeypatches; the pool is closed at the end."""
    grids = experiments._RunningGrids()
    monkeypatch.setattr(experiments, "_running_grids", grids)
    yield grids
    grids._close()
