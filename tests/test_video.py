import re

import numpy as np
import pytest

from cogaction import PatternSpec, VideoClip, load_image_sequence, save_clip, save_feature_maps, synth_translating_clip
from cogaction.video import _read_pnm, _write_pnm, pattern_frame


def bilinear_oracle(base, d1, d2):
    """Direct per-pixel resampling of ``base`` at offset (d1, d2), wrap."""
    h, w = base.shape[:2]
    out = np.zeros_like(base)
    for r in range(h):
        for c in range(w):
            sr = r - d2
            sc = c - d1
            r0, c0 = int(np.floor(sr)), int(np.floor(sc))
            fr, fc = sr - r0, sc - c0
            out[r, c] = ((1 - fr) * (1 - fc) * base[r0 % h, c0 % w]
                         + (1 - fr) * fc * base[r0 % h, (c0 + 1) % w]
                         + fr * (1 - fc) * base[(r0 + 1) % h, c0 % w]
                         + fr * fc * base[(r0 + 1) % h, (c0 + 1) % w])
    return out


class TestSynthesis:
    def test_static_velocity_all_frames_identical(self):
        clip, flow = synth_translating_clip(PatternSpec("sinusoid", 8), (0, 0), 5, 12, 12)
        for t in range(1, 5):
            assert np.array_equal(clip.data[t], clip.data[0])
        assert np.all(flow.data == 0.0)

    def test_integer_shift_is_exact_roll(self):
        clip, _ = synth_translating_clip(PatternSpec("checkerboard", 8), (1, 0), 4, 16, 16)
        shifted = np.roll(clip.data[0], 3, axis=1)
        assert np.abs(clip.data[3] - shifted).max() == 0.0

    def test_subpixel_matches_direct_resampling_oracle(self):
        pattern = PatternSpec("random-texture", 8, seed=7)
        clip, _ = synth_translating_clip(pattern, (0.5, 0.25), 8, 16, 16)
        base = pattern_frame(pattern, 16, 16)
        for t in range(8):
            expected = bilinear_oracle(base, 0.5 * t, 0.25 * t)
            assert np.abs(clip.data[t] - expected).max() <= 1e-12

    def test_ground_truth_flow_is_constant(self):
        _, flow = synth_translating_clip(PatternSpec("sinusoid", 4), (0.5, -0.25), 3, 8, 8)
        assert np.all(flow.data[..., 0] == 0.5)
        assert np.all(flow.data[..., 1] == -0.25)

    def test_translation_composition(self):
        # v for T frames == 2v for T/2 frames at matching timestamps
        spec = PatternSpec("random-texture", 4, seed=3)
        full, _ = synth_translating_clip(spec, (1, 0), 8, 16, 16)
        half, _ = synth_translating_clip(spec, (2, 0), 4, 16, 16)
        for t in range(4):
            assert np.array_equal(full.data[2 * t], half.data[t])

    def test_determinism(self):
        spec = PatternSpec("random-texture", 8, seed=11, channels=3)
        a, _ = synth_translating_clip(spec, (0.3, 0.7), 4, 10, 10)
        b, _ = synth_translating_clip(spec, (0.3, 0.7), 4, 10, 10)
        assert np.array_equal(a.data, b.data)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            synth_translating_clip(PatternSpec("sinusoid", 8), (0, 0), 1, 8, 8)
        with pytest.raises(ValueError):
            synth_translating_clip(PatternSpec("sinusoid", 8), (0, 0), 4, 0, 8)
        with pytest.raises(ValueError):
            # too fast: would wrap more than the retina over the horizon
            synth_translating_clip(PatternSpec("sinusoid", 8), (3, 0), 4, 8, 8)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            PatternSpec("checkerboard", 7)
        with pytest.raises(ValueError):
            PatternSpec("plaid", 8)
        with pytest.raises(ValueError):
            PatternSpec("sinusoid", 1)

    def test_pattern_periodicity(self):
        frame = pattern_frame(PatternSpec("checkerboard", 8), 24, 24)
        assert np.array_equal(frame, np.roll(frame, 8, axis=0))
        assert np.array_equal(frame, np.roll(frame, 8, axis=1))
        noise = pattern_frame(PatternSpec("random-texture", 6, seed=1), 18, 18)
        assert np.array_equal(noise, np.roll(noise, 6, axis=1))


class TestClipInvariants:
    def test_range_and_shape_enforced(self):
        with pytest.raises(ValueError):
            VideoClip(np.full((2, 4, 4, 1), 1.5))
        with pytest.raises(ValueError):
            VideoClip(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            VideoClip(np.full((2, 4, 4, 1), np.nan))

    def test_immutable(self):
        clip, _ = synth_translating_clip(PatternSpec("sinusoid", 4), (0, 0), 2, 4, 4)
        with pytest.raises(ValueError):
            clip.data[0, 0, 0, 0] = 0.5


class TestImageIO:
    def test_load_p5_ones(self, tmp_path):
        for t in range(2):
            (tmp_path / f"img_{t:04d}.pgm").write_bytes(b"P5\n4 4\n255\n" + b"\xff" * 16)
        clip = load_image_sequence(str(tmp_path / "img_{t}.pgm"))
        assert clip.frames == 2 and clip.channels == 1
        assert np.all(clip.data == 1.0)

    def test_load_p6_zeros(self, tmp_path):
        for t in range(2):
            (tmp_path / f"img_{t:04d}.ppm").write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        clip = load_image_sequence(str(tmp_path / "img_{t}.ppm"))
        assert clip.channels == 3
        assert np.all(clip.data == 0.0)

    def test_byte_scaling(self, tmp_path):
        payload = bytes([0, 51, 102, 255])
        for t in range(2):
            (tmp_path / f"g_{t:04d}.pgm").write_bytes(b"P5\n2 2\n255\n" + payload)
        clip = load_image_sequence(str(tmp_path / "g_{t}.pgm"))
        assert np.array_equal(clip.data[0].ravel(), [0.0, 0.2, 0.4, 1.0])

    def test_dimension_mismatch_names_path(self, tmp_path):
        (tmp_path / "f_0000.pgm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        (tmp_path / "f_0001.pgm").write_bytes(b"P5\n3 2\n255\n" + b"\x00" * 6)
        with pytest.raises(ValueError, match="f_0001"):
            load_image_sequence(str(tmp_path / "f_{t}.pgm"))

    def test_mixed_formats_rejected(self, tmp_path):
        (tmp_path / "f_0000.pgm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        (tmp_path / "f_0001.pgm").write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="format"):
            load_image_sequence(str(tmp_path / "f_{t}.pgm"))

    def test_too_few_frames(self, tmp_path):
        (tmp_path / "f_0000.pgm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(ValueError, match="at least 2"):
            load_image_sequence(str(tmp_path / "f_{t}.pgm"))

    def test_bad_maxval_rejected(self, tmp_path):
        (tmp_path / "f_0000.pgm").write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="maxval"):
            load_image_sequence(str(tmp_path / "f_{t}.pgm"))

    @pytest.mark.parametrize("suffix", [".pgm", ".ppm"])
    @pytest.mark.parametrize("keep", [5, 10, -1], ids=["header", "header-end", "body"])
    def test_cut_short_names_file(self, tmp_path, suffix, keep):
        # an 11-byte header, then the body; the second frame keeps only
        # ``full[:keep]``: cut inside the header, before the whitespace byte
        # that ends it, or one body byte short
        full = {".pgm": b"P5\n4 4\n255\n" + b"\x80" * 16,
                ".ppm": b"P6\n2 2\n255\n" + b"\x80" * 12}[suffix]
        (tmp_path / f"f_0000{suffix}").write_bytes(full)
        (tmp_path / f"f_0001{suffix}").write_bytes(full[:keep])
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / f"f_0001{suffix}"))):
            load_image_sequence(str(tmp_path / f"f_{{t}}{suffix}"))

    def test_comment_in_header(self, tmp_path):
        raw = b"P5\n# a comment\n2 2\n255\n" + bytes([10, 20, 30, 40])
        (tmp_path / "c.pgm").write_bytes(raw)
        frame, magic = _read_pnm(tmp_path / "c.pgm")
        assert magic == "P5" and frame.shape == (2, 2, 1)

    def test_roundtrip_within_quantization(self, tmp_path):
        clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=5), (0.5, 0), 3, 8, 8)
        save_clip(clip, tmp_path, basename="rt")
        loaded = load_image_sequence(str(tmp_path / "rt_{t}.pgm"))
        assert np.abs(loaded.data - clip.data).max() <= 1.0 / 255.0

    def test_roundtrip_ppm(self, tmp_path):
        clip, _ = synth_translating_clip(
            PatternSpec("random-texture", 4, seed=2, channels=3), (0, 0), 2, 6, 6)
        save_clip(clip, tmp_path)
        loaded = load_image_sequence(str(tmp_path / "frame_{t}.ppm"))
        assert np.abs(loaded.data - clip.data).max() <= 1.0 / 255.0

    def test_exact_byte_roundtrip(self, tmp_path):
        values = np.arange(16, dtype=np.float64).reshape(4, 4, 1) / 255.0 * 12
        _write_pnm(tmp_path / "x.pgm", values)
        frame, _ = _read_pnm(tmp_path / "x.pgm")
        assert np.array_equal(np.rint(frame * 255), np.rint(values * 255))


class TestFeatureMaps:
    def test_file_count_and_names(self, tmp_path):
        field = np.full((2, 4, 4, 3), 1.0 / 3.0)
        paths = save_feature_maps(field, tmp_path)
        assert len(paths) == 6
        names = sorted(p.name for p in paths)
        assert names == ["feat0_t0000.pgm", "feat0_t0001.pgm", "feat1_t0000.pgm",
                         "feat1_t0001.pgm", "feat2_t0000.pgm", "feat2_t0001.pgm"]

    def test_constant_field_gray_value(self, tmp_path):
        field = np.full((1, 4, 4, 2), 0.5)
        save_feature_maps(field, tmp_path)
        frame, _ = _read_pnm(tmp_path / "feat0_t0000.pgm")
        assert np.all(np.rint(frame * 255) == round(255 / 2))

    def test_single_frame_pair(self, tmp_path):
        paths = save_feature_maps(np.full((1, 2, 2, 2), 0.25), tmp_path)
        assert len(paths) == 2
