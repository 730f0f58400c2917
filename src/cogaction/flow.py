"""Per-pixel velocity fields: ground truth, a Horn-Schunck estimator, and file IO.

The learning objective treats the velocity field as an input.  Synthetic clips
come with exact ground truth; for real image sequences a classic Horn-Schunck
fixed-point iteration is provided as a coarse estimator.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        if 0 in arr.shape:
            raise ValueError(f"zero-sized frame or retina axis: shape {arr.shape}")
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


# Bytes one block of frame pairs may take in the sweep's work rows: 4 pairs
# of a 64x64 clip, whose 9 padded rows then stay in a 2 MiB L2 cache.
_SWEEP_BLOCK_BYTES = 5 << 18
_SWEEP_ROWS = 9


def check_horn_schunck(alpha: float, iters: int) -> None:
    """Reject Horn-Schunck parameters unless the smoothness weight ``alpha``
    is finite and > 0 and there is at least one sweep."""
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"smoothness weight alpha must be finite and > 0, got {alpha}")
    if iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {iters}")


def horn_schunck(clip, alpha: float, iters: int) -> VelocityField:
    """Estimate the flow of a ``VideoClip`` with the classic Horn-Schunck
    fixed-point iteration.

    Per frame pair: luminance (channel mean) cube-stencil gradients with wrap,
    the standard 4-neighbor average for the smoothness coupling, ``iters``
    sweeps.  The pairs do not interact, so they sweep in blocks sized to stay
    in cache, each block all ``iters`` times before the next starts.  The
    last frame copies the penultimate pair's flow so the field matches the
    clip shape.
    """
    check_horn_schunck(alpha, iters)
    # channel mean accumulated in sorted order: the reduction is then exactly
    # invariant under channel permutations
    lum = np.sort(clip.data, axis=3).mean(axis=3)
    ix, iy, it = _pair_gradients(lum[:-1], lum[1:])
    denom = alpha * alpha + ix * ix + iy * iy
    pairs, height, width = ix.shape
    # Each pair sits on an (H+2, W+2) plane whose border repeats the opposite
    # edge, so on a flat row of planes the four neighbours of every interior
    # site are contiguous slices at offsets -+(W+2) and -+1.  Border sites are
    # swept too, then overwritten by the wrap copies; gradients 0 and denom 1
    # there keep their values finite.
    row = width + 2
    plane = (height + 2) * row
    block = max(1, min(pairs, _SWEEP_BLOCK_BYTES // (_SWEEP_ROWS * 8 * plane)))
    # the result, which outlives the call, is allocated before the work rows,
    # which do not: the other order raised the deep workload's peak RSS by 2%
    out = np.empty((pairs + 1, height, width, 2))
    # Each work row holds a block and starts its interior, from which every
    # sweep reads and writes most of its slices, on a 64-byte cache line.
    # Left where the heap put it, the buffer made the deep workload's 3,000
    # sweeps take from 80 to 118 ms by its address modulo 64 (2-vCPU Xeon).
    stride = -(-block * plane // 8) * 8
    work = np.empty(_SWEEP_ROWS * stride + 7)
    start = (-(work.ctypes.data // 8) - row) % 8
    work = work[start:start + _SWEEP_ROWS * stride].reshape(_SWEEP_ROWS, stride)
    for first in range(0, pairs, block):
        count = min(block, pairs - first)
        size = count * plane
        # rows: u and w; their neighbour averages; ix and iy; it; denom; the
        # shared factor.  Once the averages are taken, the u and w rows hold
        # the products that make the update.
        rows = work[:, :size]
        rows.fill(0.0)
        rows[7].fill(1.0)
        planes = rows.reshape(_SWEEP_ROWS, count, height + 2, row)
        inside = planes[:, :, 1:-1, 1:-1]
        done = slice(first, first + count)
        inside[4], inside[5], inside[6], inside[7] = ix[done], iy[done], it[done], denom[done]
        uw, padded = rows[0:2], planes[0:2]
        inner = slice(row, size - row)
        swept = uw[:, inner]
        avg, grad = rows[2:4, inner], rows[4:6, inner]
        rate, weight, shared = rows[6, inner], rows[7, inner], rows[8, inner]
        up, down = uw[:, :size - 2 * row], uw[:, 2 * row:]
        left, right = uw[:, row - 1:size - row - 1], uw[:, row + 1:size - row + 1]
        for _ in range(iters):
            np.add(up, down, out=avg)
            avg += left
            avg += right
            avg *= 0.25
            np.multiply(grad, avg, out=swept)
            np.add(swept[0], swept[1], out=shared)
            shared += rate
            shared /= weight
            np.multiply(grad, shared, out=swept)
            np.subtract(avg, swept, out=swept)
            padded[:, :, 1:-1, 0] = padded[:, :, 1:-1, width]
            padded[:, :, 1:-1, -1] = padded[:, :, 1:-1, 1]
            padded[:, :, 0] = padded[:, :, height]
            padded[:, :, -1] = padded[:, :, 1]
        out[done] = np.moveaxis(inside[0:2], 0, -1)
    out[-1] = out[-2]
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
    # decoded as ASCII, so isdigit means 0-9: int would also take a sign or a '_'
    header = raw[:newline].decode("ascii", errors="replace").split()
    if (len(header) != 5 or " ".join(header[:2]) != FLOW_MAGIC
            or not all(tok.isdigit() for tok in header[2:])):
        raise ValueError(f"{path}: bad flow header {raw[:newline]!r}")
    frames, height, width = (int(tok) for tok in header[2:])
    body = raw[newline + 1:]
    count = frames * height * width * 2
    if len(body) != count * 8:
        raise ValueError(f"{path}: expected {count * 8} payload bytes, found {len(body)}")
    data = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(frames, height, width, 2)
    try:
        return VelocityField(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
