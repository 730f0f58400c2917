"""Filter banks and the feature maps they induce.

A bank of ``n`` filters over ``m_in`` input channels with a K x K tap grid
maps a (T, H, W, m_in) grid to an activation field

    a_i(x, t) = 1/n + sum_j sum_(a,b) taps[i, j, a, b] * input_j(x - (a, b), t)

with toroidal wrap; offsets run over -(K-1)/2 .. (K-1)/2 on both axes (``a``
along columns/x1, ``b`` along rows/x2).  Activations are then mapped to
per-pixel probability vectors, either by a softmax or by clamping and
renormalizing (the "linear-penalty" mode, whose simplex constraints are
enforced during training by a penalty term instead).

The convolution and its tap adjoint are matrix products.  Every patch they,
and the motion term's matrix (``action._motion_gram``), read comes from
``_frame_rows``, one wrap-padded frame at a time: only the kernel's column
offsets are expanded, and its row offsets are column slices of the frame's
rows.  A clip whose whole patch matrix fits PATCH_CHUNK_BYTES keeps it
(``clip_patches``), with a last row of ones, and its convolution is the one
product ``x @ [P; 1]`` of the bank's affine rows ``x = [flat taps, 1/n]``
(``FilterBank._row``); a larger clip is streamed frame by frame, and no
call copies the whole clip.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .video import VideoClip

MODES = ("softmax", "linear-penalty")
CLAMP_EPS = 1e-6
# bytes of the largest patch matrix a layer keeps for its whole clip
# (``clip_patches``); a larger clip is streamed frame by frame
PATCH_CHUNK_BYTES = 2 * 1024 * 1024


def check_bank_spec(n: int, m_in: int, ka: int, kb: int, mode: str) -> None:
    """Reject a tap shape (n, m_in, K, K) or a mode that no bank may have."""
    if n < 2:
        raise ValueError(f"need at least 2 output features, got n={n}")
    if m_in < 1:
        raise ValueError(f"need at least 1 input channel, got m_in={m_in}")
    if ka != kb or ka < 1 or ka % 2 == 0:
        raise ValueError(f"kernel must be square with an odd side >= 1, got {ka}x{kb}")
    if mode not in MODES:
        raise ValueError(f"unknown constraint mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class FilterBank:
    """Learnable taps (n, m_in, K, K) plus the constraint mode and layer index.

    ``_row`` is the bank's affine rows (``_affine_rows``), built once per
    bank: the convolution and every tap-space term of the objective read
    them."""

    taps: np.ndarray
    mode: str = "softmax"
    layer: int = 1
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.taps, dtype=np.float64))
        if arr.ndim != 4:
            raise ValueError(f"taps must be (n, m_in, K, K), got shape {arr.shape}")
        check_bank_spec(*arr.shape, self.mode)
        if not np.all(np.isfinite(arr)):
            raise ValueError("taps must be finite")
        if self.layer < 1:
            raise ValueError(f"layer index must be >= 1, got {self.layer}")
        arr.setflags(write=False)
        object.__setattr__(self, "taps", arr)
        object.__setattr__(self, "_row", _affine_rows(arr))

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

    def _next(self, taps: np.ndarray) -> "FilterBank":
        """``with_taps`` without the checks of ``__post_init__``, for the
        optimizer's iterates and the finite-difference probes: ``taps`` is a
        new C-contiguous float64 array of this bank's shape that the caller
        made, and answers for being finite.  It is made read-only."""
        taps.setflags(write=False)
        bank = object.__new__(FilterBank)
        bank.__dict__.update(taps=taps, mode=self.mode, layer=self.layer,
                             _row=_affine_rows(taps))
        return bank


def as_grid(data) -> np.ndarray:
    """Accept a VideoClip or a raw (T, H, W, c) array; return the array.  A
    float64 4-D ndarray is returned as it is."""
    if type(data) is np.ndarray and data.dtype == np.float64 and data.ndim == 4:
        return data
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


def _frame_rows(grid: np.ndarray, kernel: int):
    """Yield the row patches of each frame of a (T, H, W, m) grid, in order:
    a (K*m, (H + 2r) * Wp) view, Wp = W + 2r, of one buffer that every frame
    overwrites.  Row ``(v, j)`` is channel j of the frame, wrap-padded by r
    on every side and flattened, shifted left by v.  The patch rows
    ``(u, v, j)`` of kernel row offset u are then the columns from u*Wp on,
    and the first W of each Wp of them are the frame's sites
    (``_patch_blocks``).  No other code wrap-pads a frame or expands its
    patches."""
    # the strided views below stay inside the buffer only for odd K
    if kernel % 2 == 0:
        raise ValueError(f"kernel must be odd, got {kernel}")
    frames, height, width, channels = grid.shape
    reach = (kernel - 1) // 2
    wide = width + 2 * reach
    size = (height + 2 * reach) * wide
    # row v = 0 holds the padded frame plus a tail of 2r zeros, which the
    # shifted rows read only into the last row's pad columns
    buffer = np.empty((kernel, channels, size + 2 * reach))
    image = buffer[0]
    image[:, size:] = 0.0
    padded = image[:, :size].reshape(channels, -1, wide)
    source = grid.transpose(3, 0, 1, 2)
    # padded entry (i, c) is the frame's ((i - r) mod H, (c - r) mod W): the
    # frame's rows go to padded rows r .. r+H-1 one column wrap run at a
    # time, then each other row wrap run is copied from those
    centre = padded[:, reach:reach + height]
    col_copies = [(centre[:, :, col:col + count], source[..., first:first + count])
                  for col, first, count in _wrap_runs(-reach, wide, width)]
    row_copies = [(padded[:, row:row + count], centre[:, first:first + count])
                  for row, first, count in _wrap_runs(-reach, padded.shape[1], height)
                  if row != reach]
    # [v - 1, j, p] = image[j, p + v]
    item = image.itemsize
    shifted = as_strided(image[:, 1:], (kernel - 1, channels, size),
                         (item, image.strides[0], item), writeable=False)
    rows = buffer[:, :, :size].reshape(kernel * channels, size)
    for t in range(frames):
        for dest, src in col_copies:
            dest[...] = src[:, t]
        for dest, src in row_copies:
            dest[...] = src
        buffer[1:, :, :size] = shifted
        yield rows


def _patch_blocks(rows: np.ndarray, kernel: int, height: int, width: int) -> np.ndarray:
    """The patch blocks of one frame's ``_frame_rows``, a read-only
    (K, K*m, H, W) view: block u holds the patch rows ``(u, v, j)`` of the
    frame's sites."""
    item = rows.itemsize
    wide = width + kernel - 1
    return as_strided(rows, (kernel, len(rows), height, width),
                      (item * wide, rows.strides[0], item * wide, item), writeable=False)


def clip_patches(grid: np.ndarray, kernel: int) -> np.ndarray | None:
    """The patch matrix of the whole (T, H, W, m) grid and a last row of
    ones, (K*K*m + 1, T*H*W), to pass as ``patches=`` to
    ``convolve_features`` and ``convolution_tap_gradient``; None when it
    exceeds PATCH_CHUNK_BYTES, so that those stream the row patches frame by
    frame.  Row ``(u, v, j)``, column ``(t, r, c)`` holds
    ``grid[t, r + u - reach, c + v - reach, j]``, wrapped."""
    frames, height, width, channels = grid.shape
    shape = (kernel * kernel * channels + 1, frames * height * width)
    if 8 * shape[0] * shape[1] > PATCH_CHUNK_BYTES:
        return None
    patches = np.empty(shape)
    blocks = patches[:-1].reshape(kernel, kernel * channels, frames, height, width)
    for t, rows in enumerate(_frame_rows(grid, kernel)):
        blocks[:, :, t] = _patch_blocks(rows, kernel, height, width)
    patches[-1] = 1.0
    return patches


def _check_patches(patches: np.ndarray, grid: np.ndarray, kernel: int) -> None:
    if patches.shape != (kernel * kernel * grid.shape[3] + 1, grid[..., 0].size):
        raise ValueError(f"patches of shape {patches.shape} are not the K={kernel} "
                         f"patch matrix of a {grid.shape} grid")


def _affine_rows(taps: np.ndarray) -> np.ndarray:
    """Taps (n, m_in, K, K) as the read-only affine rows x = [flat taps, 1/n],
    (n, K*K*m_in + 1), that multiply a kept patch matrix and its ones row:
    the flat taps are flipped on both kernel axes, in the patch rows'
    (u, v, j) order (``_unflat_view`` is the inverse)."""
    n, m_in, kernel = taps.shape[:3]
    rows = np.empty((n, kernel * kernel * m_in + 1))
    _unflat_view(rows[:, :-1], kernel)[...] = taps
    rows[:, -1] = 1.0 / n
    rows.setflags(write=False)
    return rows


def _unflat_view(flat: np.ndarray, kernel: int) -> np.ndarray:
    """An (n, m_in, K, K) view of the flat taps ``flat``, (n, K*K*m_in),
    such as ``_affine_rows`` without its last column."""
    return flat.reshape(len(flat), kernel, kernel, -1)[:, ::-1, ::-1].transpose(0, 3, 2, 1)


def convolve_features(bank: FilterBank, data, out: np.ndarray | None = None,
                      patches: np.ndarray | None = None) -> np.ndarray:
    """Activation field (T, H, W, n) of the bank over a clip or feature field.

    The field is held feature-major: it is a (T, H, W, n) view of (n, T, H, W)
    storage, new unless ``out`` (such a view) is given to write into.
    Toroidal boundary.  Given ``patches`` (the ``clip_patches`` of ``data``),
    the field is one matrix product of the bank's affine rows with them, the
    bias included.  Without, each frame's field is the sum over kernel row
    offsets u of the flat taps_u (n, K*m) times its ``_frame_rows`` from
    column u*Wp on, less the pad columns, plus 1/n.  Repeated evaluations
    are bit-identical; the two paths sum in another order and agree to
    about 1e-15.
    """
    grid = as_grid(data)
    if grid.shape[3] != bank.m_in:
        raise ValueError(
            f"layer {bank.layer} bank expects {bank.m_in} input channels, grid has {grid.shape[3]}"
        )
    n, kernel = bank.n, bank.kernel
    if out is None:
        out = np.empty((n,) + grid.shape[:3]).transpose(1, 2, 3, 0)
    dest = out.transpose(3, 0, 1, 2)
    if dest.shape != (n,) + grid.shape[:3] or not dest.flags.c_contiguous:
        raise ValueError("out must be a (T, H, W, n) view of (n, T, H, W) storage")
    if patches is not None:
        _check_patches(patches, grid, kernel)
        np.matmul(bank._row, patches, out=dest.reshape(n, -1))
        return out
    height, width = grid.shape[1:3]
    wide = width + kernel - 1
    span = height * wide
    row_taps = bank._row[:, :-1].reshape(n, kernel, -1).transpose(1, 0, 2)
    acc, part = np.empty((2, n, span))
    for t, rows in enumerate(_frame_rows(grid, kernel)):
        np.matmul(row_taps[0], rows[:, :span], out=acc)
        for u in range(1, kernel):
            np.matmul(row_taps[u], rows[:, u * wide:u * wide + span], out=part)
            acc += part
        # a copy, then the bias in place: np.add from this strided view
        # buffers it in a temporary
        frame = dest[:, t]
        frame[...] = acc.reshape(n, height, wide)[:, :, :width]
        frame += 1.0 / n
    return out


def convolution_tap_gradient(data, act_grad: np.ndarray, kernel: int,
                             patches: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of ``convolve_features`` in the taps: maps an activation-shaped
    (T, H, W, n) gradient to a (n, m_in, K, K) tap-shaped gradient.
    ``patches`` is as in ``convolve_features``.  Streamed, each frame's
    gradient is copied into a (n, H, Wp) buffer whose pad columns are 0,
    and its ``_frame_rows`` from column u*Wp on times it add to the taps of
    kernel row offset u."""
    grid = as_grid(data)
    grad = np.asarray(act_grad, dtype=np.float64)
    if grad.ndim != 4 or grad.shape[:3] != grid.shape[:3]:
        raise ValueError(f"an activation gradient of shape {grad.shape} does not cover "
                         f"the (T, H, W) sites of a {grid.shape} grid")
    grad = grad.transpose(3, 0, 1, 2)
    n = len(grad)
    total = np.zeros((kernel * kernel * grid.shape[3], n))
    if patches is not None:
        _check_patches(patches, grid, kernel)
        total += patches[:-1] @ grad.reshape(n, -1).T
        return _unflat_view(total.T, kernel).copy()
    height, width = grid.shape[1:3]
    wide = width + kernel - 1
    span = height * wide
    row_total = total.reshape(kernel, -1, n)
    padded = np.zeros((n, height, wide))
    ext = padded.reshape(n, span).T
    for t, rows in enumerate(_frame_rows(grid, kernel)):
        padded[:, :, :width] = grad[:, t]
        for u in range(kernel):
            row_total[u] += rows[:, u * wide:u * wide + span] @ ext
    return _unflat_view(total.T, kernel).copy()


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

_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def save_bank(bank: FilterBank, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{bank.n} {bank.m_in} {bank.kernel} {bank.mode} {bank.layer}"]
    lines.extend(f"{value:.17e}" for value in bank.taps.ravel(order="C"))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_bank(path) -> FilterBank:
    """Read a ``save_bank`` file.  Its counts are ASCII digits and its taps
    ASCII decimals (float would also take '_', 'nan' or 'inf'); every error
    names the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read bank file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty bank file")
    header = lines[0].split()
    if len(header) != 5 or not all(header[i].isdigit() for i in (0, 1, 2, 4)):
        raise ValueError(f"{path}: bad bank header {lines[0]!r}")
    n, m_in, kernel, layer = (int(header[i]) for i in (0, 1, 2, 4))
    expected = n * m_in * kernel * kernel
    values = lines[1:]
    if len(values) != expected:
        raise ValueError(f"{path}: expected {expected} tap lines, found {len(values)}")
    if not all(_DECIMAL.fullmatch(v) for v in values):
        raise ValueError(f"{path}: non-numeric tap value")
    taps = np.array([float(v) for v in values], dtype=np.float64)
    try:
        return FilterBank(taps.reshape(n, m_in, kernel, kernel), mode=header[3], layer=layer)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
