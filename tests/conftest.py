import numpy as np
import pytest

from cogaction import action, features
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
    """A list that gains one entry per call of the row-patch builder,
    ``_frame_rows``, wherever it is looked up (a kept matrix, a streamed
    convolution or tap adjoint, G's build): the frames it filled, in order,
    each named by the index of the grid frame that its rows hold."""
    fills = []
    frame_rows = features._frame_rows

    def recorded(grid, kernel):
        fills.append([])
        frames, height, width, channels = grid.shape
        reach = (kernel - 1) // 2
        for rows in frame_rows(grid, kernel):
            # rows (0, j) are the frame's channels, wrap-padded by r
            held = rows[:channels].reshape(channels, height + 2 * reach, -1)
            held = held[:, reach:reach + height, reach:reach + width]
            fills[-1].append([t for t in range(frames)
                              if np.array_equal(held, grid[t].transpose(2, 0, 1))])
            yield rows

    monkeypatch.setattr(features, "_frame_rows", recorded)
    monkeypatch.setattr(action, "_frame_rows", recorded)
    return fills
