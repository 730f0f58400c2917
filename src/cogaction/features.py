"""Filter banks and the feature maps they induce.

A bank of ``n`` filters over ``m_in`` input channels with a K x K tap grid
maps a (T, H, W, m_in) grid to an activation field

    a_i(x, t) = 1/n + sum_j sum_(a,b) taps[i, j, a, b] * input_j(x - (a, b), t)

with toroidal wrap; offsets run over -(K-1)/2 .. (K-1)/2 on both axes (``a``
along columns/x1, ``b`` along rows/x2).  Activations are then mapped to
per-pixel probability vectors, either by a softmax or by clamping and
renormalizing (the "linear-penalty" mode, whose simplex constraints are
enforced during training by a penalty term instead).

The convolution and its tap adjoint are matrix products.  A clip whose
whole patch matrix fits PATCH_CHUNK_BYTES keeps it (``clip_patches``) and
takes one product per call.  A larger clip is streamed in bands of row
patches (``_row_patch_bands``): only the kernel's column offsets are
expanded, its row offsets are column slices of the band, and BAND_BYTES
keeps a band in L2.  No call copies the whole clip.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MODES = ("softmax", "linear-penalty")
CLAMP_EPS = 1e-6
# bytes of the largest patch matrix a layer keeps for its whole clip
# (``clip_patches``); a larger clip is streamed in bands
PATCH_CHUNK_BYTES = 2 * 1024 * 1024
# Bytes the whole frames of one band of a streamed convolution or tap adjoint
# may take in their row patches and output buffers (``_bands``); a band holds
# at least one frame.  One padded 64x64 frame of the deep workload's layers,
# 1.15 and 1.39 MB, then stays in a 2 MiB L2 cache between the K products
# that read it.  Two such frames would not fit.
BAND_BYTES = 3 << 19


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


def _wrap_runs(start: int, length: int, period: int):
    """``(offset, first, count)`` runs of the indices start .. start+length-1
    taken modulo ``period``: entries offset .. offset+count-1 come from
    first .. first+count-1.  An index range longer than the period (a kernel
    wider than the frame) just gives more runs."""
    offset = 0
    while offset < length:
        first = (start + offset) % period
        count = min(period - first, length - offset)
        yield offset, first, count
        offset += count


def _wrap_pad(src: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (..., H + 2r, W + 2r) from ``src`` (..., H, W) on the
    torus: out entry (i, c) is src entry ((i - r) mod H, (c - r) mod W).
    Slice copies only, one per pair of wrap runs."""
    height, width = src.shape[-2:]
    reach = (out.shape[-1] - width) // 2
    col_runs = list(_wrap_runs(-reach, out.shape[-1], width))
    for row, first_row, rows in _wrap_runs(-reach, out.shape[-2], height):
        for col, first_col, cols in col_runs:
            out[..., row:row + rows, col:col + cols] = \
                src[..., first_row:first_row + rows, first_col:first_col + cols]


def clip_patches(grid: np.ndarray, kernel: int) -> np.ndarray | None:
    """The patch matrix of the whole (T, H, W, m) grid, to pass as
    ``patches=`` to ``convolve_features`` and ``convolution_tap_gradient``;
    None when it exceeds PATCH_CHUNK_BYTES, so that those stream bands of
    row patches.  Row ``(u, v, j)``, column ``(t, r, c)`` holds
    ``grid[t, r + u - reach, c + v - reach, j]``, wrapped."""
    if 8 * kernel * kernel * grid.size > PATCH_CHUNK_BYTES:
        return None
    frames, height, width, channels = grid.shape
    reach = (kernel - 1) // 2
    padded = np.empty((channels, frames, height + 2 * reach, width + 2 * reach))
    _wrap_pad(grid.transpose(3, 0, 1, 2), padded)
    windows = sliding_window_view(padded, (kernel, kernel), (2, 3)).transpose(4, 5, 0, 1, 2, 3)
    patches = np.empty(windows.shape[:3] + grid.shape[:3])
    patches[...] = windows
    return patches.reshape(kernel * kernel * channels, -1)


def _check_patches(patches: np.ndarray, grid: np.ndarray, kernel: int) -> None:
    if patches.shape != (kernel * kernel * grid.shape[3], grid[..., 0].size):
        raise ValueError(f"patches of shape {patches.shape} are not the K={kernel} "
                         f"patch matrix of a {grid.shape} grid")


def _bands(shape: tuple, kernel: int, n: int) -> list[range]:
    """The frames of each band of a (T, H, W, m) grid streamed with ``n``
    features, in order; together they cover every frame once.  A padded
    frame of a band costs its (v, j) row patches and two n-row output
    buffers, so BAND_BYTES sets how many whole frames a band holds, at
    least one."""
    frames, height, width, channels = shape
    reach = (kernel - 1) // 2
    frame_bytes = 8 * (height + 2 * reach) * (width + 2 * reach) * (kernel * channels + 2 * n)
    per = max(1, BAND_BYTES // frame_bytes)
    return [range(t, min(t + per, frames)) for t in range(0, frames, per)]


def _row_patch_bands(grid: np.ndarray, kernel: int, n: int):
    """Yield ``(frames, patches)`` per band of ``_bands``.  The band's
    frames, each wrap-padded by r on every side (``_wrap_pad``), are stacked
    into one tall image of padded width Wp and flattened per channel.  Row
    ``(v, j)`` of ``patches`` (K*m, size) is channel j of that image shifted
    left by v, so the patch rows of kernel row offset u are the columns from
    u*Wp on.  Every band is written into one buffer, reused."""
    _, height, width, channels = grid.shape
    reach = (kernel - 1) // 2
    wide = width + 2 * reach
    bands = _bands(grid.shape, kernel, n)
    most = len(bands[0]) * (height + 2 * reach) * wide
    # the v = 0 rows hold the padded image plus a tail of 2r zeros, which
    # the shifted rows read only into the last row's pad columns
    buffer = np.empty((kernel, channels, most + 2 * reach))
    source = grid.transpose(3, 0, 1, 2)
    for frames in bands:
        size = len(frames) * (height + 2 * reach) * wide
        image = buffer[0, :, :size + 2 * reach]
        image[:, size:] = 0.0
        _wrap_pad(source[:, frames.start:frames.stop],
                  image[:, :size].reshape(channels, len(frames), -1, wide))
        buffer[1:, :, :size] = sliding_window_view(image, size, axis=1)[:, 1:].transpose(1, 0, 2)
        yield frames, buffer[:, :, :size].reshape(kernel * channels, size)


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
    Toroidal boundary.  Given ``patches`` (the ``clip_patches`` of ``data``),
    the field is one matrix product of the flipped taps with them.  Without,
    each band of ``_row_patch_bands`` is the sum over kernel row offsets u of
    taps_u (n, K*m) times the band's row patches from column u*Wp on; the
    pad columns, and the rows between stacked frames, are dropped.  The
    bands are fixed by the grid shape, so repeated evaluations are
    bit-identical; the two paths sum in another order and agree to about
    1e-15.
    """
    grid = as_grid(data)
    if grid.shape[3] != bank.m_in:
        raise ValueError(
            f"layer {bank.layer} bank expects {bank.m_in} input channels, grid has {grid.shape[3]}"
        )
    n, kernel = bank.n, bank.kernel
    taps = _flat_taps(bank.taps)
    if out is None:
        out = np.empty((n,) + grid.shape[:3]).transpose(1, 2, 3, 0)
    dest = out.transpose(3, 0, 1, 2)
    if dest.shape != (n,) + grid.shape[:3] or not dest.flags.c_contiguous:
        raise ValueError("out must be a (T, H, W, n) view of (n, T, H, W) storage")
    if patches is not None:
        _check_patches(patches, grid, kernel)
        flat = dest.reshape(n, -1)
        np.matmul(taps, patches, out=flat)
        flat += 1.0 / n
        return out
    height, width = grid.shape[1:3]
    wide = width + kernel - 1
    row_taps = taps.reshape(n, kernel, -1).transpose(1, 0, 2)
    sums = None
    for frames, band in _row_patch_bands(grid, kernel, n):
        size = band.shape[1]
        span = size - (kernel - 1) * wide
        if sums is None:  # the first band is the largest
            sums = np.empty((2, n, size))
        acc, part = sums[:, :, :span]
        np.matmul(row_taps[0], band[:, :span], out=acc)
        for u in range(1, kernel):
            np.matmul(row_taps[u], band[:, u * wide:u * wide + span], out=part)
            acc += part
        # a copy, then the bias in place: np.add from this strided view
        # buffers it in a temporary
        band_out = dest[:, frames.start:frames.stop]
        band_out[...] = sums[0, :, :size].reshape(n, len(frames), -1, wide)[:, :, :height, :width]
        band_out += 1.0 / n
    return out


def convolution_tap_gradient(data, act_grad: np.ndarray, kernel: int,
                             patches: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of ``convolve_features`` in the taps: maps an activation-shaped
    (T, H, W, n) gradient to a (n, m_in, K, K) tap-shaped gradient.
    ``patches`` is as in ``convolve_features``.  A streamed band copies its
    gradient into a zero-padded (n, size) buffer laid out as the band's
    outputs, and adds the row patches from column u*Wp on times it to the
    taps of kernel row offset u."""
    grid = as_grid(data)
    grad = np.asarray(act_grad, dtype=np.float64).transpose(3, 0, 1, 2)
    n = len(grad)
    total = np.zeros((kernel * kernel * grid.shape[3], n))
    if patches is not None:
        _check_patches(patches, grid, kernel)
        total += patches @ grad.reshape(n, -1).T
        return _unflat_taps(total.T, kernel)
    height, width = grid.shape[1:3]
    wide = width + kernel - 1
    row_total = total.reshape(kernel, -1, n)
    buffer = None
    for frames, band in _row_patch_bands(grid, kernel, n):
        size = band.shape[1]
        span = size - (kernel - 1) * wide
        if buffer is None:  # the first band is the largest
            buffer = np.empty((n, size))
        padded = buffer[:, :size].reshape(n, len(frames), -1, wide)
        padded[:, :, height:] = 0.0
        padded[:, :, :height, width:] = 0.0
        padded[:, :, :height, :width] = grad[:, frames.start:frames.stop]
        ext = buffer[:, :span].T
        for u in range(kernel):
            row_total[u] += band[:, u * wide:u * wide + span] @ ext
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
        out = np.subtract(arr, arr.max(axis=-1, keepdims=True))
        np.exp(out, out=out)
    elif mode == "linear-penalty":
        out = np.clip(arr, CLAMP_EPS, 1.0)
    else:
        raise ValueError(f"unknown constraint mode {mode!r}, expected one of {MODES}")
    out /= out.sum(axis=-1, keepdims=True)
    return out


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
