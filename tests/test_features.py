import math
import tracemalloc

import numpy as np
import pytest

from cogaction import (
    FilterBank,
    PatternSpec,
    TemporalWeights,
    VelocityField,
    VideoClip,
    convolve_features,
    init_bank,
    load_bank,
    save_bank,
    stack_layers,
    synth_translating_clip,
    to_probabilities,
)
from cogaction import action, features
from cogaction.features import convolution_tap_gradient
from dense_oracle import dense_kernel_oracle, dense_table_from_bank
from objective_oracle import rolled_patches


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
    reference.  The streamed path runs over the clip's first frame, its
    first two frames and the whole clip: once through its frame loop, at
    the first reuse of its buffers, and to the end."""

    @pytest.fixture(params=[1, 2, None], ids=["1-frame", "2-frame", "whole-clip"])
    def length(self, request):
        """The number of leading frames of the case's clip to run on."""
        return request.param

    @pytest.mark.parametrize("m_in,kernel,frames,height,width", KERNEL_CASES)
    def test_matches_shifted_sum(self, length, m_in, kernel, frames, height, width):
        rng = np.random.default_rng(m_in * 100 + kernel)
        grid = rng.uniform(size=(frames, height, width, m_in))[:length]
        bank = init_bank(4, m_in, kernel, "softmax", seed=kernel, scale=0.5)
        act_grad = rng.normal(size=(frames, height, width, 4))[:length]
        assert max_rel_diff(convolve_features(bank, grid),
                            shifted_sum_convolution(bank, grid)) <= 1e-12
        assert max_rel_diff(convolution_tap_gradient(grid, act_grad, kernel),
                            shifted_sum_tap_gradient(grid, act_grad, kernel)) <= 1e-12

    @pytest.mark.parametrize("m_in,kernel,frames,height,width", KERNEL_CASES)
    def test_adjoint_identity(self, length, m_in, kernel, frames, height, width):
        rng = np.random.default_rng(m_in * 100 + kernel + 1)
        grid = rng.uniform(size=(frames, height, width, m_in))[:length]
        bank = init_bank(3, m_in, kernel, "softmax", seed=kernel + 1, scale=0.5)
        g = rng.normal(size=(frames, height, width, 3))[:length]
        linear = convolve_features(bank, grid) - 1.0 / 3.0
        lhs = np.vdot(linear, g)
        rhs = np.vdot(bank.taps, convolution_tap_gradient(grid, g, kernel))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("m_in,kernel,frames,height,width", KERNEL_CASES)
    def test_kept_patches_match_fresh_calls(self, length, monkeypatch, m_in, kernel,
                                            frames, height, width):
        rng = np.random.default_rng(m_in * 100 + kernel + 2)
        grid = rng.uniform(size=(frames, height, width, m_in))[:length]
        bank = init_bank(4, m_in, kernel, "softmax", seed=kernel + 2, scale=0.5)
        act_grad = rng.normal(size=(frames, height, width, 4))[:length]
        monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 1 << 40)
        kept = features.clip_patches(grid, kernel)
        before = kept.copy()
        # one kept matrix serves convolve, tap adjoint and convolve again
        act = convolve_features(bank, grid, patches=kept)
        tap = convolution_tap_gradient(grid, act_grad, kernel, patches=kept)
        again = convolve_features(bank, grid, patches=kept)
        assert np.array_equal(again, act)
        assert np.array_equal(kept, before)
        # the streamed frames sum the same products in another order
        assert max_rel_diff(convolve_features(bank, grid), act) <= 1e-13
        assert max_rel_diff(convolution_tap_gradient(grid, act_grad, kernel), tap) <= 1e-13

    @pytest.mark.parametrize("m_in,kernel,frames,height,width", KERNEL_CASES)
    def test_kept_patches_match_rolled_oracle(self, monkeypatch, m_in, kernel, frames, height,
                                              width):
        grid = np.random.default_rng(m_in * 100 + kernel + 3).uniform(
            size=(frames, height, width, m_in))
        monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 1 << 40)
        kept = features.clip_patches(grid, kernel)
        # the patch rows only copy grid entries; the last row is the bias's ones
        assert np.array_equal(kept[:-1], rolled_patches(grid, kernel))
        assert np.array_equal(kept[-1], np.ones(grid[..., 0].size))

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "streamed"])
    def test_gradient_of_another_shape_rejected(self, kept):
        grid = np.zeros((4, 6, 5, 2))
        patches = features.clip_patches(grid, 3) if kept else None
        with pytest.raises(ValueError, match=r"\(4, 1, 5, 3\).*\(4, 6, 5, 2\)"):
            convolution_tap_gradient(grid, np.zeros((4, 1, 5, 3)), 3, patches=patches)

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_even_kernel_rejected(self, kernel):
        grid = np.zeros((2, 5, 6, 1))
        with pytest.raises(ValueError, match="odd"):
            features.clip_patches(grid, kernel)
        with pytest.raises(ValueError, match="odd"):
            convolution_tap_gradient(grid, np.zeros((2, 5, 6, 3)), kernel)

    def test_patches_over_budget_not_kept(self, monkeypatch):
        # 18 patch rows and the ones row, of 120 sites
        grid = np.zeros((4, 5, 6, 2))
        monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 8 * 19 * 120)
        assert features.clip_patches(grid, 3).shape == (19, 120)
        monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 8 * 19 * 120 - 1)
        assert features.clip_patches(grid, 3) is None

    def test_patches_of_another_kernel_rejected(self):
        grid = np.zeros((4, 5, 6, 2))
        bank = init_bank(3, 2, 5, "softmax", seed=1)
        with pytest.raises(ValueError, match="K=5 patch matrix"):
            convolve_features(bank, grid, patches=features.clip_patches(grid, 3))


def allocated_peak(call):
    """Bytes allocated by ``call()`` at its peak beyond what was live
    before it, as tracemalloc sees them (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """A streamed convolution and tap adjoint, and the build of the motion
    term's matrix G, hold one frame's row patches, not the clip: on a
    16x64x64x8 grid (4.2 MB) with n = 8 and K = 3, a padded copy of the clip
    alone would be 4.5 MB."""

    @pytest.fixture
    def layer(self):
        rng = np.random.default_rng(17)
        grid = rng.uniform(size=(16, 64, 64, 8))
        bank = init_bank(8, 8, 3, "softmax", seed=17, scale=0.5)
        return grid, bank, rng.normal(size=(16, 64, 64, 8))

    @staticmethod
    def frame_bytes(grid, kernel, n, buffers):
        """One padded frame's row patches, K*m rows of (H + 2r)(W + 2r) + 2r
        entries, and ``buffers`` (n, H, W + 2r) frame buffers, plus 16 KiB
        for the tap-sized arrays and Python objects of a call."""
        _, height, width, channels = grid.shape
        wide = width + kernel - 1
        rows = kernel * channels * ((height + kernel - 1) * wide + kernel - 1)
        return 8 * (rows + buffers * n * height * wide) + (16 << 10)

    def test_convolve_allocates_one_frame(self, layer):
        grid, bank, _ = layer
        out = np.empty((8, 16, 64, 64)).transpose(1, 2, 3, 0)
        convolve_features(bank, grid, out=out)
        peak = allocated_peak(lambda: convolve_features(bank, grid, out=out))
        # the row patches, the products' sum and one product: 1.39 MB
        assert 0 < peak <= self.frame_bytes(grid, 3, 8, 2) < grid.nbytes

    def test_tap_adjoint_allocates_one_frame(self, layer):
        grid, _, act_grad = layer
        peak = allocated_peak(lambda: convolution_tap_gradient(grid, act_grad, 3))
        # the row patches and the zero-padded gradient: 1.12 MB
        assert 0 < peak <= self.frame_bytes(grid, 3, 8, 1) < grid.nbytes

    def test_motion_gram_holds_one_frame_pair(self, layer, corner_builds):
        grid = layer[0]
        frames, height, width, channels = grid.shape
        flow = VelocityField(np.random.default_rng(19).uniform(-2.5, 2.5, (frames, height, width, 2)))
        measure = TemporalWeights.uniform(frames).residual_measure(height, width)
        # one pair's corners: the peak of their build, 4 corners' sites and
        # weights (262 KB) and its temporaries
        pair_corners = allocated_peak(lambda: action._bilinear_corners(flow.data[:1]))
        corner_builds.clear()
        peak = allocated_peak(lambda: action._motion_gram(grid, flow, 3, measure))
        assert corner_builds == [(1, 4)] * (frames - 1)
        sites, columns = height * width, 9 * channels + 1
        # two frames' patch rows, a 4-corner gathered chunk, a chunk of
        # rows, and G with one chunk's product: 7.86 MB
        held = 8 * (2 * sites * columns + 5 * 1024 * columns + 2 * columns * columns)
        # the whole clip's corners would add 3.9 MB
        clip_corners = 16 * 4 * (frames - 1) * sites
        bound = held + self.frame_bytes(grid, 3, 8, 0) + pair_corners
        assert 0 < peak <= bound < held + clip_corners

    @pytest.mark.parametrize("mode", ["softmax", "linear-penalty"])
    def test_probabilities_allocate_one_field(self, mode):
        act = np.random.default_rng(18).normal(size=(16, 64, 64, 8))
        site_bytes = act.nbytes // 8
        peak = allocated_peak(lambda: to_probabilities(act, mode))
        # the output, plus per-site temporaries: the finiteness mask, the
        # max or the sum, and the reduction's own buffer
        assert act.nbytes < peak <= act.nbytes + 2 * site_bytes


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

    @pytest.mark.parametrize("taps", [np.full((2, 1, 3, 3), np.nan), np.full((2, 1, 3, 3), -np.inf),
                                      np.zeros((1, 1, 3, 3)), np.zeros((2, 0, 3, 3)),
                                      np.zeros((2, 1, 2, 2))],
                             ids=["nan", "inf", "one-feature", "no-input-channel", "even-kernel"])
    def test_public_constructors_reject_bad_taps(self, tmp_path, taps):
        # the optimizer's iterates and the finite-difference probes skip
        # these checks; every public way to a bank keeps them
        bank = init_bank(2, 1, 3, "softmax", seed=3)
        path = tmp_path / "bank.txt"
        header = "{} {} {} softmax 1".format(*taps.shape[:3])
        path.write_text("\n".join([header] + [repr(float(v)) for v in taps.ravel()]) + "\n")
        for build in (FilterBank, bank.with_taps, lambda _: load_bank(path)):
            with pytest.raises(ValueError):
                build(taps)
        with pytest.raises(ValueError, match="shape"):
            bank.with_taps(taps[0])

    def test_unchecked_successor_matches_with_taps(self):
        bank = init_bank(3, 2, 5, "linear-penalty", seed=4, layer=2)
        taps = bank.taps * 0.5
        checked, unchecked = bank.with_taps(taps), bank._next(taps.copy())
        assert (unchecked.mode, unchecked.layer) == (checked.mode, checked.layer)
        assert unchecked.taps.tobytes() == checked.taps.tobytes()
        assert unchecked._row.tobytes() == checked._row.tobytes()
        assert not unchecked.taps.flags.writeable and not unchecked._row.flags.writeable


# bank files and what loading them gives: the taps, or the error message with
# {path} for the file
BANK_FILES = {
    "plain": (b"2 1 1 softmax 1\n0.5\n-1.25e-3\n", (0.5, -1.25e-3)),
    "decimal-forms": (b"2 1 1 linear-penalty 1\n.5\n+5.E+2\n", (0.5, 500.0)),
    "save-bank-extremes": (b"2 1 1 softmax 1\n-0.00000000000000000e+00\n"
                           b"1.79769313486231571e+308\n", (-0.0, 1.7976931348623157e308)),
    # float() and int() would read these: a sign, '_', 'nan', 'inf'
    "plus-sign-count": (b"+2 1 1 softmax 1\n0.5\n0.5\n",
                        "{path}: bad bank header '+2 1 1 softmax 1'"),
    "underscore-layer": (b"2 1 1 softmax 0_1\n0.5\n0.5\n",
                         "{path}: bad bank header '2 1 1 softmax 0_1'"),
    "negative-kernel": (b"2 1 -1 softmax 1\n0.5\n0.5\n",
                        "{path}: bad bank header '2 1 -1 softmax 1'"),
    "underscore-tap": (b"2 1 1 softmax 1\n1_0\n0.5\n", "{path}: non-numeric tap value"),
    "nan-tap": (b"2 1 1 softmax 1\nnan\n0.5\n", "{path}: non-numeric tap value"),
    "inf-tap": (b"2 1 1 softmax 1\n0.5\n-inf\n", "{path}: non-numeric tap value"),
    "spaced-tap": (b"2 1 1 softmax 1\n0.5 \n0.5\n", "{path}: non-numeric tap value"),
    "overflowing-tap": (b"2 1 1 softmax 1\n1e999\n0.5\n", "{path}: taps must be finite"),
    "unknown-mode": (b"2 1 1 tanh 1\n0.5\n0.5\n", "{path}: unknown constraint mode 'tanh', "
                     "expected one of ('softmax', 'linear-penalty')"),
    "layer-zero": (b"2 1 1 softmax 0\n0.5\n0.5\n", "{path}: layer index must be >= 1, got 0"),
    "zero-input-channels": (b"2 0 3 softmax 1\n",
                            "{path}: need at least 1 input channel, got m_in=0"),
    "non-ascii-byte": (b"2 1 1 softmax 1\n0.5\n\xff\n", "cannot read bank file {path}: 'ascii' "
                       "codec can't decode byte 0xff in position 20: ordinal not in range(128)"),
}


class TestBankSerialization:
    @pytest.mark.parametrize("raw, expected", BANK_FILES.values(), ids=BANK_FILES.keys())
    def test_bank_file_table(self, tmp_path, raw, expected):
        path = tmp_path / "bank.txt"
        path.write_bytes(raw)
        if isinstance(expected, tuple):
            assert load_bank(path).taps.ravel().tobytes() == np.array(expected).tobytes()
        else:
            with pytest.raises(ValueError) as info:
                load_bank(path)
            assert str(info.value) == expected.format(path=path)

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
