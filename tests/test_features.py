import math

import numpy as np
import pytest

from cogaction import (
    FilterBank,
    PatternSpec,
    VideoClip,
    convolve_features,
    init_bank,
    load_bank,
    save_bank,
    stack_layers,
    synth_translating_clip,
    to_probabilities,
)
from cogaction import features
from cogaction.features import convolution_tap_gradient
from dense_oracle import dense_kernel_oracle, dense_table_from_bank


@pytest.fixture
def small_clip():
    rng = np.random.default_rng(3)
    return VideoClip(rng.uniform(size=(2, 5, 5, 1)))


class TestConvolution:
    def test_zero_taps_gives_uniform_offset(self, small_clip):
        bank = FilterBank(np.zeros((4, 1, 3, 3)))
        act = convolve_features(bank, small_clip)
        assert np.all(act == 0.25)

    def test_dirac_kernel_copies_input(self):
        rng = np.random.default_rng(1)
        clip = VideoClip(rng.uniform(size=(2, 6, 6, 3)))
        taps = np.eye(3).reshape(3, 3, 1, 1)
        act = convolve_features(FilterBank(taps), clip)
        assert np.abs(act - (clip.data + 1.0 / 3.0)).max() <= 1e-15

    def test_matches_dense_oracle(self, small_clip):
        bank = init_bank(3, 1, 3, "softmax", seed=4, scale=0.5)
        table = dense_table_from_bank(bank, 5, 5)
        direct = convolve_features(bank, small_clip)
        oracle = dense_kernel_oracle(table, small_clip)
        assert np.abs(direct - oracle).max() <= 1e-12

    def test_channel_mismatch_rejected(self, small_clip):
        bank = init_bank(3, 2, 3, "softmax", seed=0, scale=0.1)
        with pytest.raises(ValueError, match="channels"):
            convolve_features(bank, small_clip)

    def test_shift_equivariance_integer_shifts(self):
        clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=9), (0, 0), 2, 12, 12)
        bank = init_bank(3, 1, 3, "softmax", seed=5, scale=0.3)
        base = convolve_features(bank, clip)
        rng = np.random.default_rng(0)
        for _ in range(8):
            s1, s2 = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
            shifted_clip = np.roll(clip.data, (s2, s1), axis=(1, 2))
            shifted_act = convolve_features(bank, shifted_clip)
            assert np.array_equal(shifted_act, np.roll(base, (s2, s1), axis=(1, 2)))

    def test_linearity_in_taps(self, small_clip):
        a = init_bank(3, 1, 3, "softmax", seed=1, scale=0.4)
        b = init_bank(3, 1, 3, "softmax", seed=2, scale=0.4)
        combined = FilterBank(a.taps + b.taps)
        lhs = convolve_features(combined, small_clip)
        rhs = convolve_features(a, small_clip) + convolve_features(b, small_clip) - 1.0 / 3.0
        assert np.abs(lhs - rhs).max() <= 1e-12


def shifted_sum_convolution(bank, grid):
    """Reference convolution: one rolled copy of the grid per tap offset,
    accumulated in lexicographic offset order."""
    reach = (bank.kernel - 1) // 2
    act = np.full(grid.shape[:3] + (bank.n,), 1.0 / bank.n)
    for ia in range(bank.kernel):
        for ib in range(bank.kernel):
            shifted = np.roll(grid, (ib - reach, ia - reach), axis=(1, 2))
            act += np.einsum("thwj,ij->thwi", shifted, bank.taps[:, :, ia, ib])
    return act


def shifted_sum_tap_gradient(grid, act_grad, kernel):
    """Reference tap adjoint of ``shifted_sum_convolution``."""
    reach = (kernel - 1) // 2
    out = np.empty((act_grad.shape[3], grid.shape[3], kernel, kernel))
    for ia in range(kernel):
        for ib in range(kernel):
            shifted = np.roll(grid, (ib - reach, ia - reach), axis=(1, 2))
            out[:, :, ia, ib] = np.einsum("thwi,thwj->ij", act_grad, shifted)
    return out


def max_rel_diff(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# (m_in, K, T, H, W): H != W in all but one; in the last three the kernel is
# wider than the retina, and in the last its reach (4) exceeds both sides
KERNEL_CASES = [(1, 3, 5, 6, 8), (3, 3, 5, 7, 5), (8, 3, 5, 6, 8),
                (1, 5, 5, 9, 7), (3, 5, 5, 6, 8), (8, 5, 5, 8, 6),
                (1, 7, 3, 3, 4), (2, 7, 5, 3, 3), (3, 9, 5, 3, 2)]


class TestPatchKernels:
    """The patch-matrix convolution and tap adjoint against the shifted-sum
    reference, at every chunking: one frame, two frames (5 frames do not
    divide into them) and the whole clip."""

    @pytest.fixture(params=[1, 2, None], ids=["1-frame", "2-frame", "whole-clip"])
    def chunk_frames(self, request, monkeypatch):
        def set_for(m_in, kernel, height, width):
            frame_bytes = height * width * kernel * kernel * m_in * 8
            budget = 1 << 40 if request.param is None else request.param * frame_bytes
            monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", budget)
        return set_for

    @pytest.mark.parametrize("m_in,kernel,frames,height,width", KERNEL_CASES)
    def test_matches_shifted_sum(self, chunk_frames, m_in, kernel, frames, height, width):
        chunk_frames(m_in, kernel, height, width)
        rng = np.random.default_rng(m_in * 100 + kernel)
        grid = rng.uniform(size=(frames, height, width, m_in))
        bank = init_bank(4, m_in, kernel, "softmax", seed=kernel, scale=0.5)
        act_grad = rng.normal(size=(frames, height, width, 4))
        assert max_rel_diff(convolve_features(bank, grid),
                            shifted_sum_convolution(bank, grid)) <= 1e-12
        assert max_rel_diff(convolution_tap_gradient(grid, act_grad, kernel),
                            shifted_sum_tap_gradient(grid, act_grad, kernel)) <= 1e-12

    @pytest.mark.parametrize("m_in,kernel,frames,height,width", KERNEL_CASES)
    def test_adjoint_identity(self, chunk_frames, m_in, kernel, frames, height, width):
        chunk_frames(m_in, kernel, height, width)
        rng = np.random.default_rng(m_in * 100 + kernel + 1)
        grid = rng.uniform(size=(frames, height, width, m_in))
        bank = init_bank(3, m_in, kernel, "softmax", seed=kernel + 1, scale=0.5)
        g = rng.normal(size=(frames, height, width, 3))
        linear = convolve_features(bank, grid) - 1.0 / 3.0
        lhs = np.vdot(linear, g)
        rhs = np.vdot(bank.taps, convolution_tap_gradient(grid, g, kernel))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestDenseOracle:
    def test_zero_table(self, small_clip):
        table = np.zeros((4, 1, 5, 5, 5, 5))
        act = dense_kernel_oracle(table, small_clip)
        assert np.all(act == 0.25)

    def test_dirac_table_copies_input(self, small_clip):
        table = np.zeros((1, 1, 5, 5, 5, 5))
        # degenerate n=1 tables are fine for the oracle itself
        for r in range(5):
            for c in range(5):
                table[0, 0, r, c, r, c] = 1.0
        act = dense_kernel_oracle(table, small_clip)
        assert np.abs(act - (small_clip.data + 1.0)).max() <= 1e-15

    def test_oversized_retina_rejected(self):
        clip = VideoClip(np.zeros((2, 9, 9, 1)) + 0.5)
        with pytest.raises(ValueError, match="8x8"):
            dense_kernel_oracle(np.zeros((2, 1, 9, 9, 9, 9)), clip)


class TestProbabilities:
    def test_uniform_from_equal_activations(self):
        act = np.full((2, 3, 3, 4), 0.25)
        for mode in ("softmax", "linear-penalty"):
            probs = to_probabilities(act, mode)
            assert np.abs(probs - 0.25).max() <= 1e-15

    def test_softmax_hand_value(self):
        act = np.zeros((1, 1, 1, 3))
        act[..., 0] = 10.0
        probs = to_probabilities(act, "softmax")
        e10 = math.exp(10.0)
        expected = np.array([e10, 1.0, 1.0]) / (e10 + 2.0)
        assert np.abs(probs[0, 0, 0] - expected).max() <= 1e-14

    def test_projection_is_identity_on_distributions(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0.05, 1.0, size=(2, 4, 4, 3))
        dist = raw / raw.sum(axis=-1, keepdims=True)
        probs = to_probabilities(dist, "linear-penalty")
        assert np.abs(probs - dist).max() <= 1e-12

    def test_simplex_invariant(self):
        rng = np.random.default_rng(2)
        act = rng.uniform(-3, 3, size=(3, 6, 6, 5))
        for mode in ("softmax", "linear-penalty"):
            probs = to_probabilities(act, mode)
            assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-9
            assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(4)
        act = rng.uniform(-2, 2, size=(2, 5, 5, 4))
        shift = rng.uniform(-1, 1, size=(2, 5, 5, 1))
        a = to_probabilities(act, "softmax")
        b = to_probabilities(act + shift, "softmax")
        assert np.abs(a - b).max() <= 1e-12

    def test_non_finite_rejected(self):
        act = np.zeros((1, 1, 1, 2))
        act[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            to_probabilities(act, "softmax")


class TestStacking:
    def test_single_bank_equals_two_step(self, small_clip):
        bank = init_bank(3, 1, 3, "softmax", seed=6, scale=0.2)
        field = stack_layers([bank], small_clip)[0]
        manual = to_probabilities(convolve_features(bank, small_clip), "softmax")
        assert np.array_equal(field, manual)

    def test_zero_banks_stay_uniform(self, small_clip):
        b1 = FilterBank(np.zeros((3, 1, 3, 3)))
        b2 = FilterBank(np.zeros((4, 3, 3, 3)), layer=2)
        fields = stack_layers([b1, b2], small_clip)
        assert np.all(fields[0] == 1.0 / 3.0)
        assert np.all(fields[1] == 0.25)

    def test_two_layer_matches_manual_composition(self, small_clip):
        b1 = init_bank(3, 1, 3, "softmax", seed=1, scale=0.3)
        b2 = init_bank(4, 3, 3, "softmax", seed=2, scale=0.3, layer=2)
        fields = stack_layers([b1, b2], small_clip)
        f1 = to_probabilities(convolve_features(b1, small_clip), "softmax")
        f2 = to_probabilities(convolve_features(b2, f1), "softmax")
        assert np.abs(fields[0] - f1).max() <= 1e-12
        assert np.abs(fields[1] - f2).max() <= 1e-12

    def test_chain_mismatch_reports_layer(self, small_clip):
        b1 = init_bank(3, 1, 3, "softmax", seed=1, scale=0.3)
        b2 = init_bank(4, 5, 3, "softmax", seed=2, scale=0.3, layer=2)
        with pytest.raises(ValueError, match="layer 2"):
            stack_layers([b1, b2], small_clip)


class TestBankValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FilterBank(np.zeros((1, 1, 3, 3)))  # n < 2
        with pytest.raises(ValueError):
            FilterBank(np.zeros((2, 1, 4, 4)))  # even K
        with pytest.raises(ValueError):
            FilterBank(np.zeros((2, 1, 3, 5)))  # non-square
        with pytest.raises(ValueError):
            FilterBank(np.full((2, 1, 3, 3), np.inf))
        with pytest.raises(ValueError):
            FilterBank(np.zeros((2, 1, 3, 3)), mode="sigmoid")


class TestBankSerialization:
    def test_bitexact_roundtrip(self, tmp_path):
        bank = init_bank(4, 2, 5, "linear-penalty", seed=13, scale=0.7, layer=3)
        path = tmp_path / "bank.txt"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert np.array_equal(loaded.taps, bank.taps)
        assert (loaded.mode, loaded.layer) == ("linear-penalty", 3)

    def test_header_contents(self, tmp_path):
        bank = init_bank(2, 1, 3, "softmax", seed=0, scale=0.0)
        path = tmp_path / "bank.txt"
        save_bank(bank, path)
        assert path.read_text().splitlines()[0] == "2 1 3 softmax 1"

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("2 1 3 softmax\n0.0\n")
        with pytest.raises(ValueError, match="header"):
            load_bank(path)
        path.write_text("2 1 3 softmax 1\n0.0\n")
        with pytest.raises(ValueError, match="tap lines"):
            load_bank(path)
