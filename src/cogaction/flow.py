"""Per-pixel velocity fields: ground truth, a Horn-Schunck estimator, and file IO.

The learning objective treats the velocity field as an input.  Synthetic clips
come with exact ground truth; for real image sequences a classic Horn-Schunck
fixed-point iteration is provided as a coarse estimator.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .video import VideoClip

FLOW_MAGIC = "FLOW v1"


@dataclass(frozen=True)
class VelocityField:
    """Immutable (T, H, W, 2) field of (v1, v2) pixel/frame velocities.

    Component order matches the retina convention: v1 along columns (x1),
    v2 along rows (x2).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 4 or arr.shape[3] != 2:
            raise ValueError(f"velocity data must be (T, H, W, 2), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("velocity components must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def constant_flow(v, frames: int, height: int, width: int) -> VelocityField:
    """A velocity field equal to ``v = (v1, v2)`` at every site."""
    v1, v2 = float(v[0]), float(v[1])
    data = np.empty((frames, height, width, 2), dtype=np.float64)
    data[..., 0] = v1
    data[..., 1] = v2
    return VelocityField(data)


def _pair_gradients(f0: np.ndarray, f1: np.ndarray):
    """The classic 2x2x2 cube stencils with wrap, on (pairs, H, W) stacks: all
    three derivatives are centered at the same half-pixel point, which keeps
    them consistent."""

    def dx(f):
        step = np.roll(f, -1, axis=2) - f
        return 0.5 * (step + np.roll(step, -1, axis=1))

    def dy(f):
        step = np.roll(f, -1, axis=1) - f
        return 0.5 * (step + np.roll(step, -1, axis=2))

    ix = 0.5 * (dx(f0) + dx(f1))
    iy = 0.5 * (dy(f0) + dy(f1))
    diff = f1 - f0
    it = 0.25 * (diff + np.roll(diff, -1, axis=2) + np.roll(diff, -1, axis=1)
                 + np.roll(np.roll(diff, -1, axis=1), -1, axis=2))
    return ix, iy, it


def horn_schunck(clip: VideoClip, alpha: float, iters: int) -> VelocityField:
    """Estimate flow with the classic Horn-Schunck fixed-point iteration.

    Per frame pair: luminance (channel mean) cube-stencil gradients with wrap,
    the standard 4-neighbor average for the smoothness coupling, ``iters``
    sweeps; the pairs do not interact, so they all sweep together.  The last
    frame copies the penultimate pair's flow so the field matches the clip
    shape.
    """
    if alpha <= 0.0:
        raise ValueError(f"smoothness weight must be > 0, got {alpha}")
    if iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {iters}")
    # channel mean accumulated in sorted order: the reduction is then exactly
    # invariant under channel permutations
    lum = np.sort(clip.data, axis=3).mean(axis=3)
    ix, iy, it = _pair_gradients(lum[:-1], lum[1:])
    denom = alpha * alpha + ix * ix + iy * iy
    u = np.zeros(ix.shape, dtype=np.float64)
    w = np.zeros(ix.shape, dtype=np.float64)
    for _ in range(iters):
        ubar = (np.roll(u, 1, 1) + np.roll(u, -1, 1) + np.roll(u, 1, 2) + np.roll(u, -1, 2)) / 4.0
        wbar = (np.roll(w, 1, 1) + np.roll(w, -1, 1) + np.roll(w, 1, 2) + np.roll(w, -1, 2)) / 4.0
        shared = (ix * ubar + iy * wbar + it) / denom
        u = ubar - ix * shared
        w = wbar - iy * shared
    pairs = np.stack((u, w), axis=3)
    out = np.concatenate((pairs, pairs[-1:]))
    if not np.all(np.isfinite(out)):
        raise ValueError("flow estimate diverged to non-finite values")
    return VelocityField(out)


def require_matching(flow: VelocityField, frames: int, height: int, width: int) -> None:
    """Raise if the flow's dimensions do not match the companion grid."""
    if (flow.frames, flow.height, flow.width) != (frames, height, width):
        raise ValueError(
            f"velocity field {flow.frames}x{flow.height}x{flow.width} does not match "
            f"clip {frames}x{height}x{width}"
        )


# ---------------------------------------------------------------------------
# Flat binary flow format: ASCII header "FLOW v1 T H W\n", then little-endian
# float64 samples in (t, row, col, component) order.

def save_flow(flow: VelocityField, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"{FLOW_MAGIC} {flow.frames} {flow.height} {flow.width}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(flow.data, dtype="<f8").tobytes())


def load_flow(path) -> VelocityField:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read flow file {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: missing flow header")
    header = raw[:newline].decode("ascii", errors="replace").split()
    if len(header) != 5 or " ".join(header[:2]) != FLOW_MAGIC:
        raise ValueError(f"{path}: bad flow header {raw[:newline]!r}")
    try:
        frames, height, width = (int(tok) for tok in header[2:])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric flow dimensions") from exc
    body = raw[newline + 1:]
    count = frames * height * width * 2
    if len(body) != count * 8:
        raise ValueError(f"{path}: expected {count * 8} payload bytes, found {len(body)}")
    data = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(frames, height, width, 2)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: velocity components must be finite")
    return VelocityField(data)
