import pytest

from cogaction import features
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


@pytest.fixture
def patch_fills(monkeypatch):
    """A list that gains the frames of each chunk of patches filled from a
    grid; chunks sliced from a kept patch matrix are not counted."""
    fills = []
    frame_patches = features._frame_patches

    def counted(grid, kernel, patches=None):
        for frames, chunk in frame_patches(grid, kernel, patches):
            if patches is None:
                fills.append((frames.start, frames.stop))
            yield frames, chunk

    monkeypatch.setattr(features, "_frame_patches", counted)
    return fills
