import numpy as np
import pytest

from cogaction import action, features
from cogaction.action import _WarpPlan


@pytest.fixture
def plan_builds(monkeypatch):
    """A list that gains one entry per warp plan built.  The package builds
    none: only the tests' transport oracle does."""
    builds = []
    build = _WarpPlan.__init__

    def counted(self, flow):
        builds.append(flow)
        build(self, flow)

    monkeypatch.setattr(_WarpPlan, "__init__", counted)
    return builds


@pytest.fixture
def gram_builds(monkeypatch):
    """A list that gains one entry, the flow, per build of a motion term's
    matrix G (``action._motion_gram``)."""
    builds = []
    motion_gram = action._motion_gram

    def counted(grid, flow, kernel, residual_measure):
        builds.append(flow)
        return motion_gram(grid, flow, kernel, residual_measure)

    monkeypatch.setattr(action, "_motion_gram", counted)
    return builds


@pytest.fixture
def corner_builds(monkeypatch):
    """A list that gains one entry per call of ``action._bilinear_corners``:
    the frames of flow it covered and the corners it kept."""
    builds = []
    bilinear_corners = action._bilinear_corners

    def recorded(velocity):
        index, weight = bilinear_corners(velocity)
        builds.append((len(velocity), len(index)))
        return index, weight

    monkeypatch.setattr(action, "_bilinear_corners", recorded)
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
