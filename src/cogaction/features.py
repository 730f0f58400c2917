"""Filter banks and the feature maps they induce.

A bank of ``n`` filters over ``m_in`` input channels with a K x K tap grid
maps a (T, H, W, m_in) grid to an activation field

    a_i(x, t) = 1/n + sum_j sum_(a,b) taps[i, j, a, b] * input_j(x - (a, b), t)

with toroidal wrap; offsets run over -(K-1)/2 .. (K-1)/2 on both axes (``a``
along columns/x1, ``b`` along rows/x2).  Activations are then mapped to
per-pixel probability vectors, either by a softmax or by clamping and
renormalizing (the "linear-penalty" mode, whose simplex constraints are
enforced during training by a penalty term instead).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MODES = ("softmax", "linear-penalty")
CLAMP_EPS = 1e-6
# bytes of one chunk's patch matrix in the convolution and its tap adjoint
PATCH_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class FilterBank:
    """Learnable taps (n, m_in, K, K) plus the constraint mode and layer index."""

    taps: np.ndarray
    mode: str = "softmax"
    layer: int = 1

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.taps, dtype=np.float64))
        if arr.ndim != 4:
            raise ValueError(f"taps must be (n, m_in, K, K), got shape {arr.shape}")
        n, _, ka, kb = arr.shape
        if n < 2:
            raise ValueError(f"need at least 2 output features, got n={n}")
        if ka != kb or ka % 2 == 0:
            raise ValueError(f"kernel must be square with odd side, got {ka}x{kb}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("taps must be finite")
        if self.mode not in MODES:
            raise ValueError(f"unknown constraint mode {self.mode!r}, expected one of {MODES}")
        if self.layer < 1:
            raise ValueError(f"layer index must be >= 1, got {self.layer}")
        arr.setflags(write=False)
        object.__setattr__(self, "taps", arr)

    @property
    def n(self) -> int:
        return self.taps.shape[0]

    @property
    def m_in(self) -> int:
        return self.taps.shape[1]

    @property
    def kernel(self) -> int:
        return self.taps.shape[2]

    def with_taps(self, taps: np.ndarray) -> "FilterBank":
        return FilterBank(taps, mode=self.mode, layer=self.layer)


def as_grid(data) -> np.ndarray:
    """Accept a VideoClip or a raw (T, H, W, c) array; return the array."""
    from .video import VideoClip

    if isinstance(data, VideoClip):
        return data.data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"input grid must be (T, H, W, c), got shape {arr.shape}")
    return arr


def _frame_patches(grid: np.ndarray, kernel: int):
    """Yield ``(frames, patches)`` per chunk of frames, as many as fit in
    PATCH_CHUNK_BYTES and at least one.  Row ``(t, r, c)``, column ``(u, v, j)``
    of the reused patch buffer holds ``grid[t, r + u - reach, c + v - reach, j]``."""
    reach = (kernel - 1) // 2
    padded = np.pad(grid, ((0, 0), (reach, reach), (reach, reach), (0, 0)), mode="wrap")
    windows = sliding_window_view(padded, (kernel, kernel), (1, 2)).transpose(0, 1, 2, 4, 5, 3)
    frames = len(grid)
    chunk = min(frames, max(1, PATCH_CHUNK_BYTES // windows[0].nbytes))
    buffer = np.empty((chunk,) + windows.shape[1:])
    for start in range(0, frames, chunk):
        patches = buffer[:min(chunk, frames - start)]
        patches[...] = windows[start:start + len(patches)]
        yield slice(start, start + len(patches)), patches.reshape(-1, windows[0, 0, 0].size)


def convolve_features(bank: FilterBank, data) -> np.ndarray:
    """Activation field (T, H, W, n) of the bank over a clip or feature field.

    Toroidal boundary.  Each chunk of frames is one matrix product of its patch
    matrix with the flipped taps; the chunking is fixed by the grid shape and
    every call takes this one path, so repeated evaluations are bit-identical.
    """
    grid = as_grid(data)
    if grid.shape[3] != bank.m_in:
        raise ValueError(
            f"layer {bank.layer} bank expects {bank.m_in} input channels, grid has {grid.shape[3]}"
        )
    n = bank.n
    taps = bank.taps[:, :, ::-1, ::-1].transpose(3, 2, 1, 0).reshape(-1, n)
    act = np.empty(grid.shape[:3] + (n,), dtype=np.float64)
    for frames, patches in _frame_patches(grid, bank.kernel):
        out = act[frames].reshape(-1, n)
        np.matmul(patches, taps, out=out)
        out += 1.0 / n
    return act


def convolution_tap_gradient(data, act_grad: np.ndarray, kernel: int) -> np.ndarray:
    """Adjoint of ``convolve_features`` in the taps: maps an activation-shaped
    gradient to a (n, m_in, K, K) tap-shaped gradient."""
    grid = as_grid(data)
    grad = np.asarray(act_grad, dtype=np.float64)
    n = grad.shape[3]
    total = np.zeros((n, kernel * kernel * grid.shape[3]), dtype=np.float64)
    for frames, patches in _frame_patches(grid, kernel):
        total += grad[frames].reshape(-1, n).T @ patches
    return total.reshape(n, kernel, kernel, -1)[:, ::-1, ::-1].transpose(0, 3, 2, 1).copy()


def dense_kernel_oracle(table: np.ndarray, data) -> np.ndarray:
    """Activation field of an unrestricted (non-convolutional) kernel table.

    ``table[i, j, rx, cx, ry, cy]`` couples output feature ``i`` at pixel
    ``(rx, cx)`` to input channel ``j`` at pixel ``(ry, cy)``:

        a_i(x, t) = 1/n + sum_j sum_y table[i, j, x, y] * input_j(y, t)

    Cost is O((H*W)^2); restricted to retinas up to 8x8.  Used as a test
    oracle: when the table encodes a translation-invariant kernel it must
    agree with ``convolve_features``.
    """
    grid = as_grid(data)
    table = np.asarray(table, dtype=np.float64)
    _, height, width, channels = grid.shape
    if height > 8 or width > 8:
        raise ValueError(f"dense oracle limited to 8x8 retinas, got {height}x{width}")
    if table.ndim != 6 or table.shape[1:] != (channels, height, width, height, width):
        raise ValueError(
            f"table shape {table.shape} does not match (n, {channels}, {height}, {width}, "
            f"{height}, {width})"
        )
    n = table.shape[0]
    act = np.einsum("ijrcsd,tsdj->trci", table, grid)
    return act + 1.0 / n


def dense_table_from_bank(bank: FilterBank, height: int, width: int) -> np.ndarray:
    """Expand a bank into the equivalent translation-invariant dense table."""
    if bank.kernel > min(height, width):
        raise ValueError("kernel larger than the retina: wrap would alias taps")
    reach = (bank.kernel - 1) // 2
    table = np.zeros((bank.n, bank.m_in, height, width, height, width), dtype=np.float64)
    rows = np.arange(height)
    cols = np.arange(width)
    for ia in range(bank.kernel):
        for ib in range(bank.kernel):
            a = ia - reach
            b = ib - reach
            ry = np.mod(rows - b, height)
            cy = np.mod(cols - a, width)
            table[:, :, rows[:, None], cols[None, :], ry[:, None], cy[None, :]] += \
                bank.taps[:, :, ia, ib, None, None]
    return table


def to_probabilities(act: np.ndarray, mode: str) -> np.ndarray:
    """Map activations to per-pixel probability vectors.

    softmax: exp-normalize over the feature axis (max-subtracted).
    linear-penalty: clamp to [CLAMP_EPS, 1] and renormalize; a projection used
    for reporting and entropy evaluation, not a training-time constraint.
    """
    arr = np.asarray(act, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activations must be finite")
    if mode == "softmax":
        shifted = arr - arr.max(axis=-1, keepdims=True)
        expd = np.exp(shifted)
        return expd / expd.sum(axis=-1, keepdims=True)
    if mode == "linear-penalty":
        clamped = np.clip(arr, CLAMP_EPS, 1.0)
        return clamped / clamped.sum(axis=-1, keepdims=True)
    raise ValueError(f"unknown constraint mode {mode!r}, expected one of {MODES}")


def probability_vjp(act: np.ndarray, probs: np.ndarray, probs_grad: np.ndarray) -> np.ndarray:
    """Backpropagate a probability-space gradient to activation space through
    the linear-penalty projection (clamp to [CLAMP_EPS, 1], renormalize)."""
    inner = np.sum(probs_grad * probs, axis=-1, keepdims=True)
    total = np.clip(act, CLAMP_EPS, 1.0).sum(axis=-1, keepdims=True)
    active = (act > CLAMP_EPS) & (act < 1.0)
    return np.where(active, (probs_grad - inner) / total, 0.0)


def stack_layers(banks, clip) -> list[np.ndarray]:
    """Feature fields of a chain of banks: layer z consumes layer z-1's field."""
    fields = []
    current = as_grid(clip)
    for index, bank in enumerate(banks, start=1):
        if bank.m_in != current.shape[3]:
            raise ValueError(
                f"layer {index}: bank expects {bank.m_in} input channels, "
                f"previous layer provides {current.shape[3]}"
            )
        current = to_probabilities(convolve_features(bank, current), bank.mode)
        fields.append(current)
    return fields


# ---------------------------------------------------------------------------
# Flat text serialization: header "n m K mode layer", then taps in
# (i, j, a, b) lexicographic order, one per line, 17 significant digits.

def save_bank(bank: FilterBank, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{bank.n} {bank.m_in} {bank.kernel} {bank.mode} {bank.layer}"]
    lines.extend(f"{value:.17e}" for value in bank.taps.ravel(order="C"))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_bank(path) -> FilterBank:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise ValueError(f"cannot read bank file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty bank file")
    header = lines[0].split()
    if len(header) != 5:
        raise ValueError(f"{path}: bad bank header {lines[0]!r}")
    try:
        n, m_in, kernel, layer = int(header[0]), int(header[1]), int(header[2]), int(header[4])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric bank header field") from exc
    mode = header[3]
    expected = n * m_in * kernel * kernel
    values = lines[1:]
    if len(values) != expected:
        raise ValueError(f"{path}: expected {expected} tap lines, found {len(values)}")
    try:
        taps = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric tap value") from exc
    return FilterBank(taps.reshape(n, m_in, kernel, kernel), mode=mode, layer=layer)
