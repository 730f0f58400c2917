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
    """A list that gains one entry per patch build from a grid, listing the
    frame ranges it filled: a kept matrix (``clip_patches``, as
    ``ActionInputs`` calls it) is one entry with the whole clip; a streamed
    convolution or tap adjoint is one entry with each of its bands."""
    fills = []
    row_patch_bands = features._row_patch_bands
    keep = action.clip_patches

    def bands(grid, kernel, n):
        fills.append([])
        for frames, patches in row_patch_bands(grid, kernel, n):
            fills[-1].append(frames)
            yield frames, patches

    def kept(grid, kernel):
        patches = keep(grid, kernel)
        if patches is not None:
            fills.append([range(grid.shape[0])])
        return patches

    monkeypatch.setattr(features, "_row_patch_bands", bands)
    monkeypatch.setattr(action, "clip_patches", kept)
    return fills
