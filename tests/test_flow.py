import re

import numpy as np
import pytest
from flow_oracle import roll_horn_schunck

from cogaction import (
    ActionInputs,
    PatternSpec,
    TemporalWeights,
    VelocityField,
    VideoClip,
    constant_flow,
    horn_schunck,
    init_bank,
    load_flow,
    save_flow,
    synth_translating_clip,
)
from cogaction import flow as flow_module


def shear_clip(seed, frames=3, height=16, width=16):
    """Top half translates (1,0), bottom half (-1,0): converged flow varies."""
    top, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=seed),
                                    (1, 0), frames, height // 2, width)
    bot, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=seed + 100),
                                    (-1, 0), frames, height // 2, width)
    return VideoClip(np.concatenate([top.data, bot.data], axis=1))


class TestConstantFlow:
    def test_zero(self):
        flow = constant_flow((0, 0), 3, 4, 5)
        assert flow.data.shape == (3, 4, 5, 2)
        assert np.all(flow.data == 0.0)

    def test_all_samples_equal_v(self):
        flow = constant_flow((1, -2), 2, 3, 3)
        assert np.all(flow.data[..., 0] == 1.0)
        assert np.all(flow.data[..., 1] == -2.0)

    def test_dimension_mismatch_rejected_at_use_site(self):
        clip, _ = synth_translating_clip(PatternSpec("sinusoid", 4), (0, 0), 3, 8, 8)
        bad = constant_flow((0, 0), 3, 8, 6)
        with pytest.raises(ValueError, match="does not match"):
            ActionInputs(clip, bad, TemporalWeights.uniform(3),
                         init_bank(2, 1, 3, "softmax", seed=0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            VelocityField(np.full((2, 2, 2, 2), np.inf))

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match=re.escape("shape (0, 4, 4, 2)")):
            constant_flow((0, 0), 0, 4, 4)


class TestHornSchunck:
    def test_static_clip_zero_flow(self):
        rng = np.random.default_rng(0)
        clip = VideoClip(np.tile(rng.uniform(size=(1, 8, 8, 1)), (4, 1, 1, 1)))
        flow = horn_schunck(clip, alpha=1.0, iters=50)
        assert np.abs(flow.data).max() == 0.0

    def test_uniform_brightness_zero_flow(self):
        # spatially constant frames: no gradient to attribute motion to
        frames = np.stack([np.full((6, 6, 1), v) for v in (0.2, 0.5, 0.8)])
        flow = horn_schunck(VideoClip(frames), alpha=1.0, iters=50)
        assert np.abs(flow.data).max() == 0.0

    @pytest.mark.parametrize("seed", [7, 11, 42])
    def test_translating_texture_band(self, seed):
        # band validated empirically on the synthetic oracle clips: the
        # estimator recovers v1 ~ 0.97 of the true 1.0 at alpha=1, iters=200
        clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=seed),
                                         (1, 0), 8, 32, 32)
        flow = horn_schunck(clip, alpha=1.0, iters=200)
        v1 = flow.data[:-1, :, :, 0].mean()
        v2 = np.abs(flow.data[:-1, :, :, 1]).mean()
        assert 0.7 <= v1 <= 1.3
        assert v2 < 0.3

    def test_last_frame_copies_penultimate(self):
        clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=1),
                                         (1, 0), 4, 12, 12)
        flow = horn_schunck(clip, alpha=1.0, iters=20)
        assert np.array_equal(flow.data[-1], flow.data[-2])

    def test_pairs_are_independent(self):
        rng = np.random.default_rng(3)
        clip = VideoClip(rng.uniform(size=(5, 9, 7, 2)))
        flow = horn_schunck(clip, alpha=1.0, iters=25)
        for t in range(clip.frames - 1):
            pair = horn_schunck(VideoClip(clip.data[t:t + 2]), alpha=1.0, iters=25)
            assert np.array_equal(flow.data[t], pair.data[0])
        assert np.array_equal(flow.data[-1], flow.data[-2])

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(1)
        arr = rng.uniform(size=(4, 10, 10, 3))
        direct = horn_schunck(VideoClip(arr), alpha=1.0, iters=30)
        permuted = horn_schunck(VideoClip(arr[..., [2, 0, 1]]), alpha=1.0, iters=30)
        assert np.array_equal(direct.data, permuted.data)

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_alpha_doubling_never_increases_variance(self, seed):
        clip = shear_clip(seed)
        previous = None
        for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
            flow = horn_schunck(clip, alpha=alpha, iters=200)
            var = flow.data[:-1].var(axis=(1, 2)).sum()
            if previous is not None:
                assert var <= previous * (1 + 1e-9)
            previous = var

    def test_rejects_bad_parameters(self):
        clip, _ = synth_translating_clip(PatternSpec("sinusoid", 4), (0, 0), 2, 4, 4)
        with pytest.raises(ValueError):
            horn_schunck(clip, alpha=0.0, iters=10)
        with pytest.raises(ValueError):
            horn_schunck(clip, alpha=1.0, iters=0)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_alpha(self, alpha):
        # inf used to return an all-zero flow, nan to sweep and then report
        # a diverged estimate
        clip, _ = synth_translating_clip(PatternSpec("sinusoid", 4), (1, 0), 2, 4, 4)
        with pytest.raises(ValueError, match="alpha must be finite"):
            horn_schunck(clip, alpha=alpha, iters=10)


def random_clip(seed, frames, height, width, channels=2):
    return VideoClip(np.random.default_rng(seed).uniform(size=(frames, height, width, channels)))


class TestHornSchunckOracle:
    """The blocked in-place sweeps against the roll-based oracle: the same
    float operations in the same order, so the flows must be equal."""

    def test_deep_clip(self):
        # the shape and motion of the deep workload: 16x64x64 RGB moving (1, 0.5)
        clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=5, channels=3),
                                         (1.0, 0.5), 16, 64, 64)
        assert np.array_equal(horn_schunck(clip, 1.0, 200).data,
                              roll_horn_schunck(clip, 1.0, 200).data)

    @pytest.mark.parametrize("shape", [(2, 6, 5), (2, 16, 16), (4, 1, 6), (4, 6, 1),
                                       (3, 2, 2), (5, 9, 7), (6, 9, 7), (8, 9, 7)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_shapes(self, shape):
        clip = random_clip(sum(shape), *shape)
        assert np.array_equal(horn_schunck(clip, 1.0, 25).data,
                              roll_horn_schunck(clip, 1.0, 25).data)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 8.0])
    @pytest.mark.parametrize("iters", [1, 25, 200])
    def test_alpha_and_iters(self, alpha, iters):
        clip = shear_clip(4, frames=6)
        assert np.array_equal(horn_schunck(clip, alpha, iters).data,
                              roll_horn_schunck(clip, alpha, iters).data)

    @pytest.mark.parametrize("budget", [1, 1 << 30], ids=["one-pair", "all-pairs"])
    @pytest.mark.parametrize("frames", [2, 6, 8])
    def test_block_sizes(self, monkeypatch, budget, frames):
        monkeypatch.setattr(flow_module, "_SWEEP_BLOCK_BYTES", budget)
        clip = random_clip(frames, frames, 9, 7)
        assert np.array_equal(horn_schunck(clip, 1.0, 25).data,
                              roll_horn_schunck(clip, 1.0, 25).data)

    def test_default_block_leaves_a_partial_last_block(self):
        # 64x64 sweeps 4 pairs per block, so 5 and 7 pairs end on a short one
        block = flow_module._SWEEP_BLOCK_BYTES // (flow_module._SWEEP_ROWS * 8 * 66 * 66)
        assert block == 4
        for frames in (6, 8):
            clip = random_clip(frames, frames, 64, 64, channels=1)
            assert np.array_equal(horn_schunck(clip, 1.0, 25).data,
                                  roll_horn_schunck(clip, 1.0, 25).data)


ONE_SITE = np.array([0.5, -0.25, 1.0, 2.0], dtype="<f8").tobytes()  # 2 frames of 1x1

# flow files and whether they load, or the error message with {path} for the file
FLOW_FILES = {
    "plain": (b"FLOW v1 2 1 1\n" + ONE_SITE, None),
    # int() would read these: a sign, a digit-group underscore, a non-ASCII digit
    "plus-and-underscore": (b"FLOW v1 +1 0_1 2\n" + ONE_SITE,
                            "{path}: bad flow header b'FLOW v1 +1 0_1 2'"),
    "negative-dimensions": (b"FLOW v1 -1 -1 2\n" + ONE_SITE,
                            "{path}: bad flow header b'FLOW v1 -1 -1 2'"),
    "negative-frames": (b"FLOW v1 -1 1 2\n" + ONE_SITE, "{path}: bad flow header b'FLOW v1 -1 1 2'"),
    "non-ascii-digit": ("FLOW v1 \u0662 1 1\n".encode() + ONE_SITE,
                        "{path}: bad flow header b'FLOW v1 \\xd9\\xa2 1 1'"),
    # a zero dimension needs no payload, so only the field's own size rule stops it
    "zero-frames": (b"FLOW v1 0 4 4\n",
                    "{path}: zero-sized frame or retina axis: shape (0, 4, 4, 2)"),
    "zero-height": (b"FLOW v1 1 0 4\n",
                    "{path}: zero-sized frame or retina axis: shape (1, 0, 4, 2)"),
    "zero-width": (b"FLOW v1 1 4 0\n",
                   "{path}: zero-sized frame or retina axis: shape (1, 4, 0, 2)"),
}


class TestFlowFile:
    @pytest.mark.parametrize("raw, expected", FLOW_FILES.values(), ids=FLOW_FILES.keys())
    def test_flow_file_table(self, tmp_path, raw, expected):
        path = tmp_path / "flow.bin"
        path.write_bytes(raw)
        if expected is None:
            assert load_flow(path).data.tobytes() == ONE_SITE
        else:
            with pytest.raises(ValueError) as info:
                load_flow(path)
            assert str(info.value) == expected.format(path=path)

    def test_bitexact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        flow = VelocityField(rng.standard_normal((3, 4, 5, 2)))
        path = tmp_path / "flow.bin"
        save_flow(flow, path)
        loaded = load_flow(path)
        assert np.array_equal(loaded.data, flow.data)

    def test_header_format(self, tmp_path):
        flow = constant_flow((1, 2), 2, 3, 4)
        path = tmp_path / "flow.bin"
        save_flow(flow, path)
        raw = path.read_bytes()
        header, _, _ = raw.partition(b"\n")
        assert header == b"FLOW v1 2 3 4"

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "flow.bin"
        path.write_bytes(b"FLOW v1 2 3 4\n" + b"\x00" * 7)
        with pytest.raises(ValueError, match="payload"):
            load_flow(path)
        path.write_bytes(b"NOTFLOW\n")
        with pytest.raises(ValueError, match="header"):
            load_flow(path)

    def test_nan_sample_names_file(self, tmp_path):
        path = tmp_path / "flow.bin"
        data = np.zeros((2, 3, 4, 2))
        data[1, 2, 0, 1] = np.nan
        path.write_bytes(b"FLOW v1 2 3 4\n" + data.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: velocity components must be finite")):
            load_flow(path)
