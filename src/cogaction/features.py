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
# bytes of one chunk's patch matrix in the convolution and its tap adjoint;
# a clip whose whole matrix fits is kept once per layer (``clip_patches``)
PATCH_CHUNK_BYTES = 2 * 1024 * 1024


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


def _frame_patches(grid: np.ndarray, kernel: int, patches: np.ndarray | None = None):
    """Yield ``(frames, patches)`` per chunk of frames, as many as fit in
    PATCH_CHUNK_BYTES and at least one.  Row ``(u, v, j)``, column ``(t, r, c)``
    of the patch matrix holds ``grid[t, r + u - reach, c + v - reach, j]``, so
    each row is a copy of shifted frame rows.  Each chunk is copied into one
    reused buffer, or, given the whole clip's matrix as ``patches``, sliced
    from it; the chunking is the same either way."""
    frames = len(grid)
    frame_size = kernel * kernel * grid[0].size
    chunk = min(frames, max(1, PATCH_CHUNK_BYTES // (8 * frame_size)))
    if patches is not None:
        sites = grid.shape[1] * grid.shape[2]
        if patches.shape != (kernel * kernel * grid.shape[3], frames * sites):
            raise ValueError(f"patches of shape {patches.shape} are not the K={kernel} "
                             f"patch matrix of a {grid.shape} grid")
        for start in range(0, frames, chunk):
            stop = min(start + chunk, frames)
            yield slice(start, stop), patches[:, start * sites:stop * sites]
        return
    reach = (kernel - 1) // 2
    padded = np.pad(grid.transpose(3, 0, 1, 2), ((0, 0), (0, 0), (reach, reach), (reach, reach)),
                    mode="wrap")
    windows = sliding_window_view(padded, (kernel, kernel), (2, 3)).transpose(4, 5, 0, 1, 2, 3)
    buffer = np.empty(chunk * frame_size)
    for start in range(0, frames, chunk):
        count = min(chunk, frames - start)
        fill = buffer[:count * frame_size].reshape(windows.shape[:3] + (count,) + grid.shape[1:3])
        fill[...] = windows[:, :, :, start:start + count]
        yield slice(start, start + count), fill.reshape(kernel * kernel * grid.shape[3], -1)


def clip_patches(grid: np.ndarray, kernel: int) -> np.ndarray | None:
    """The patch matrix of the whole (T, H, W, c) grid, to pass as ``patches=``
    to ``convolve_features`` and ``convolution_tap_gradient``; None when it
    exceeds PATCH_CHUNK_BYTES, so that those stream chunks of frames."""
    if 8 * kernel * kernel * grid.size > PATCH_CHUNK_BYTES:
        return None
    return next(_frame_patches(grid, kernel))[1]


def _flat_taps(taps: np.ndarray) -> np.ndarray:
    """Taps (n, m_in, K, K) as the (n, K*K*m_in) matrix that multiplies a patch
    matrix: flipped on both kernel axes, columns in the patch rows' (u, v, j)
    order."""
    return taps[:, :, ::-1, ::-1].transpose(0, 3, 2, 1).reshape(len(taps), -1)


def _unflat_taps(flat: np.ndarray, kernel: int) -> np.ndarray:
    """Inverse of ``_flat_taps``: a new (n, m_in, K, K) array."""
    return flat.reshape(len(flat), kernel, kernel, -1)[:, ::-1, ::-1].transpose(0, 3, 2, 1).copy()


def convolve_features(bank: FilterBank, data, out: np.ndarray | None = None,
                      patches: np.ndarray | None = None) -> np.ndarray:
    """Activation field (T, H, W, n) of the bank over a clip or feature field.

    The field is held feature-major: it is a (T, H, W, n) view of (n, T, H, W)
    storage, new unless ``out`` (such a view) is given to write into.
    Toroidal boundary.  Each chunk of frames is one matrix product of the
    flipped taps with its patch matrix, taken from ``patches`` (the
    ``clip_patches`` of ``data``) when given and built otherwise.  The
    chunking is fixed by the grid shape and both sources hold the same
    numbers, so repeated evaluations are bit-identical.
    """
    grid = as_grid(data)
    if grid.shape[3] != bank.m_in:
        raise ValueError(
            f"layer {bank.layer} bank expects {bank.m_in} input channels, grid has {grid.shape[3]}"
        )
    n = bank.n
    taps = _flat_taps(bank.taps)
    if out is None:
        out = np.empty((n,) + grid.shape[:3]).transpose(1, 2, 3, 0)
    rows = out.transpose(3, 0, 1, 2)
    if rows.shape != (n,) + grid.shape[:3] or not rows.flags.c_contiguous:
        raise ValueError("out must be a (T, H, W, n) view of (n, T, H, W) storage")
    for frames, chunk_patches in _frame_patches(grid, bank.kernel, patches):
        chunk = rows[:, frames].reshape(n, -1)
        np.matmul(taps, chunk_patches, out=chunk)
        chunk += 1.0 / n
    return out


def convolution_tap_gradient(data, act_grad: np.ndarray, kernel: int,
                             patches: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of ``convolve_features`` in the taps: maps an activation-shaped
    (T, H, W, n) gradient to a (n, m_in, K, K) tap-shaped gradient.
    ``patches`` is as in ``convolve_features``."""
    grid = as_grid(data)
    rows = np.asarray(act_grad, dtype=np.float64).transpose(3, 0, 1, 2)
    n = len(rows)
    total = np.zeros((kernel * kernel * grid.shape[3], n), dtype=np.float64)
    for frames, chunk_patches in _frame_patches(grid, kernel, patches):
        total += chunk_patches @ rows[:, frames].reshape(n, -1).T
    return _unflat_taps(total.T, kernel)


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
    """Feature fields of a chain of banks: layer z consumes layer z-1's field.
    A bank whose channel count differs from its input's is rejected by
    ``convolve_features``, with the bank's layer index."""
    fields = []
    current = as_grid(clip)
    for bank in banks:
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
