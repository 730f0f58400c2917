"""Video clips on a toroidal retina: synthesis, PGM/PPM sequence IO, feature-map export.

A clip is a dense ``(T, H, W, m)`` grid of samples in ``[0, 1]``.  The retina
coordinate convention used throughout the package: ``x1`` is the column index
(array axis 2), ``x2`` is the row index (array axis 1), origin top-left.
Velocities are ``(v1, v2)`` in pixels/frame along those axes.

Synthetic clips translate a deterministic base pattern with toroidal wrap and
bilinear sub-pixel interpolation, so motion ground truth is exact: frame ``t``
equals frame 0 resampled at offset ``t * velocity``.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._pcg64 import PCG64, check_seed
from .flow import constant_flow

PATTERN_KINDS = ("checkerboard", "sinusoid", "random-texture")


@dataclass(frozen=True)
class PatternSpec:
    """Deterministic base pattern for synthetic clips.

    ``period`` is the spatial period in pixels (checkerboard requires an even
    period; random-texture tiles a ``period x period`` noise patch, so it is
    periodic too).  ``seed`` is only used by random-texture and must be >= 0.
    """

    kind: str
    period: int = 8
    seed: int = 0
    channels: int = 1

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}, expected one of {PATTERN_KINDS}")
        if self.period < 2:
            raise ValueError(f"pattern period must be >= 2, got {self.period}")
        if self.kind == "checkerboard" and self.period % 2 != 0:
            raise ValueError("checkerboard period must be even")
        if self.channels < 1:
            raise ValueError(f"channel count must be >= 1, got {self.channels}")
        check_seed(self.seed)


@dataclass(frozen=True)
class VideoClip:
    """Immutable (T, H, W, m) sample grid with values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 4:
            raise ValueError(f"clip data must be (T, H, W, m), got shape {arr.shape}")
        t, h, w, m = arr.shape
        if t < 2:
            raise ValueError(f"clip needs at least 2 frames, got {t}")
        if h < 1 or w < 1 or m < 1:
            raise ValueError(f"zero-sized retina or channel axis: shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("clip samples must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("clip samples must lie in [0, 1]")
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

    @property
    def channels(self) -> int:
        return self.data.shape[3]


def pattern_frame(pattern: PatternSpec, height: int, width: int) -> np.ndarray:
    """Render the base pattern as an (H, W, m) array in [0, 1].  A
    random-texture's patch is drawn from the package's PCG64 stream seeded
    with ``pattern.seed`` (bit for bit numpy's ``Generator(PCG64(seed))``, as
    the tests check), without importing numpy's random subpackage."""
    p = pattern.period
    cols = np.arange(width)
    rows = np.arange(height)
    if pattern.kind == "checkerboard":
        half = p // 2
        board = ((rows[:, None] // half + cols[None, :] // half) % 2).astype(np.float64)
        frame = np.repeat(board[:, :, None], pattern.channels, axis=2)
    elif pattern.kind == "sinusoid":
        wave = np.sin(2.0 * np.pi * cols / p)[None, :] * np.sin(2.0 * np.pi * rows / p)[:, None]
        frame = np.repeat((0.5 + 0.5 * wave)[:, :, None], pattern.channels, axis=2)
    else:  # random-texture: toroidally tiled noise patch, one patch per channel
        tile = PCG64(pattern.seed).uniform(size=(p, p, pattern.channels))
        frame = tile[np.mod(rows, p)[:, None], np.mod(cols, p)[None, :], :]
    return np.clip(frame, 0.0, 1.0)


def translate_frame(frame: np.ndarray, d1: float, d2: float) -> np.ndarray:
    """Shift frame content by (d1 columns, d2 rows) with wrap and bilinear resampling.

    Integer offsets reduce to an exact roll (the fractional weights vanish).
    """
    k1 = math.floor(d1)
    k2 = math.floor(d2)
    f1 = d1 - k1
    f2 = d2 - k2
    out = (1.0 - f2) * (1.0 - f1) * np.roll(frame, (k2, k1), axis=(0, 1))
    out += (1.0 - f2) * f1 * np.roll(frame, (k2, k1 + 1), axis=(0, 1))
    out += f2 * (1.0 - f1) * np.roll(frame, (k2 + 1, k1), axis=(0, 1))
    out += f2 * f1 * np.roll(frame, (k2 + 1, k1 + 1), axis=(0, 1))
    return out


def check_synth_geometry(velocity, frames: int, height: int, width: int) -> None:
    """Reject a synthetic clip's geometry unless it has at least 2 frames, a
    non-empty retina, and a translation slow enough that each velocity
    component stays below the retina's smaller side over the clip."""
    if frames < 2:
        raise ValueError(f"need at least 2 frames, got {frames}")
    if height < 1 or width < 1:
        raise ValueError(f"retina must be at least 1x1, got {height}x{width}")
    v1, v2 = float(velocity[0]), float(velocity[1])
    limit = min(height, width) / frames
    if abs(v1) >= limit or abs(v2) >= limit:
        raise ValueError(
            f"velocity ({v1}, {v2}) too fast for a {height}x{width} retina over {frames} frames"
        )


def synth_translating_clip(pattern: PatternSpec, velocity, frames: int, height: int, width: int):
    """Synthesize a clip whose content moves rigidly at ``velocity`` pixels/frame.

    Returns ``(VideoClip, VelocityField)`` where the velocity field is the
    exact constant ground truth.  Frame ``t`` is frame 0 translated by
    ``t * velocity`` with toroidal wrap, so the transport condition holds
    exactly (up to bilinear resampling error for sub-pixel velocities).
    """
    check_synth_geometry(velocity, frames, height, width)
    v1, v2 = float(velocity[0]), float(velocity[1])
    base = pattern_frame(pattern, height, width)
    stack = np.empty((frames, height, width, pattern.channels), dtype=np.float64)
    stack[0] = base
    for t in range(1, frames):
        stack[t] = translate_frame(base, t * v1, t * v2)
    clip = VideoClip(np.clip(stack, 0.0, 1.0))
    return clip, constant_flow((v1, v2), frames, height, width)


# ---------------------------------------------------------------------------
# 8-bit binary PGM (P5) / PPM (P6) IO, maxval 255.

def _read_pnm(path) -> tuple[np.ndarray, str]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read image file {path}: {exc}") from exc

    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed, then exactly one whitespace byte before the data.
    # A comment runs to the end of its line and a token to the next
    # whitespace, so the match cannot backtrack into either.
    gap = rb"(?:\s|#[^\n]*(?![^\n]))*"
    header = re.match((gap + rb"([^\s#]\S*)(?!\S)") * 4, raw)
    if header is None:
        raise ValueError(f"truncated header in {path}")
    if header.end() == len(raw):
        raise ValueError(f"malformed header in {path}")
    tokens = header.groups()

    magic = tokens[0].decode("ascii", errors="replace")
    if magic not in ("P5", "P6"):
        raise ValueError(f"{path}: unsupported format {magic!r}, expected binary P5 or P6")
    # bytes.isdigit is ASCII 0-9 only; int would also take a sign or a '_'
    if not all(t.isdigit() for t in tokens[1:]):
        raise ValueError(f"{path}: non-numeric header field")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise ValueError(f"{path}: degenerate image size {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")

    channels = 1 if magic == "P5" else 3
    count = width * height * channels
    body = raw[header.end() + 1:]
    if len(body) != count:
        raise ValueError(f"{path}: expected {count} data bytes, found {len(body)}")
    pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(height, width, channels), magic


def _write_pnm(path, frame: np.ndarray) -> None:
    """Write an (H, W) or (H, W, {1,3}) array in [0, 1] as binary PGM/PPM."""
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(f"cannot save image with shape {arr.shape}: need 1 or 3 channels")
    h, w, ch = arr.shape
    magic = b"P5" if ch == 1 else b"P6"
    data = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def expand_path_pattern(path_pattern: str, t: int) -> Path:
    """Substitute the frame index into a ``{t}`` path pattern (zero-padded to 4)."""
    if "{t}" not in path_pattern:
        raise ValueError(f"path pattern {path_pattern!r} lacks a {{t}} placeholder")
    return Path(path_pattern.replace("{t}", f"{t:04d}"))


def load_image_sequence(path_pattern: str) -> VideoClip:
    """Load frames matching a ``{t}`` path pattern, t = 0, 1, ... until missing.

    All frames must share format (all PGM or all PPM) and dimensions; the
    channel count is 1 for PGM and 3 for PPM.  At least two frames required.
    """
    frames = []
    while (path := expand_path_pattern(path_pattern, len(frames))).exists():
        frame, magic = _read_pnm(path)
        if not frames:
            first_magic = magic
        elif magic != first_magic:
            raise ValueError(
                f"{path}: format {magic} does not match {first_magic} of the first frame"
            )
        elif frame.shape != frames[0].shape:
            raise ValueError(
                f"{path}: dimensions {frame.shape[1]}x{frame.shape[0]} do not match "
                f"the first frame's {frames[0].shape[1]}x{frames[0].shape[0]}"
            )
        frames.append(frame)
    if len(frames) < 2:
        raise ValueError(
            f"pattern {path_pattern!r} matched {len(frames)} frame(s), need at least 2"
        )
    return VideoClip(np.stack(frames, axis=0))


def save_clip(clip: VideoClip, directory, basename: str = "frame") -> list[Path]:
    """Write a clip as ``{basename}_tttt.pgm`` (m=1) or ``.ppm`` (m=3) frames."""
    if clip.channels not in (1, 3):
        raise ValueError(f"can only save 1- or 3-channel clips, got m={clip.channels}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if clip.channels == 1 else "ppm"
    paths = []
    for t in range(clip.frames):
        path = directory / f"{basename}_{t:04d}.{ext}"
        _write_pnm(path, clip.data[t])
        paths.append(path)
    return paths


def save_feature_maps(field: np.ndarray, directory) -> list[Path]:
    """Write one PGM per feature channel per frame: ``feat{i}_t{tttt}.pgm``.

    ``field`` is a (T, H, W, n) probability field; samples are mapped
    linearly [0, 1] -> [0, 255].
    """
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"feature field must be (T, H, W, n), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature field must be finite")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(arr.shape[3]):
        for t in range(arr.shape[0]):
            path = directory / f"feat{i}_t{t:04d}.pgm"
            _write_pnm(path, arr[t, :, :, i])
            paths.append(path)
    return paths
