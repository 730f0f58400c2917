import pytest

from cogaction.action import _WarpPlan


@pytest.fixture
def plan_builds(monkeypatch):
    """A list that gains one entry per warp plan built."""
    builds = []
    build = _WarpPlan.__init__

    def counted(self, flow):
        builds.append(flow)
        build(self, flow)

    monkeypatch.setattr(_WarpPlan, "__init__", counted)
    return builds
