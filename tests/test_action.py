import math

import numpy as np
import pytest

from cogaction import (
    ActionBreakdown,
    ActionInputs,
    Multipliers,
    PatternSpec,
    TemporalWeights,
    VelocityField,
    cognitive_action,
    constant_flow,
    convolve_features,
    horn_schunck,
    evaluate_bank,
    init_bank,
    spatial_parsimony,
    synth_translating_clip,
    temporal_parsimony,
)
from cogaction.action import (
    BREAKDOWN_CSV_HEADER,
    _WarpPlan,
    _motion_gram,
    action_value_and_gradient,
    conditional_entropy,
    spatial_parsimony_gradient,
    symbol_marginal,
    term_gradients,
)
from cogaction import features
from cogaction.features import FilterBank, stack_layers, to_probabilities
from cogaction.optimizer import build_weights, finite_diff_breakdowns, gradient_check_instances
from identity_probe import identity_probe
from objective_oracle import bilinear_corners, objective_step, rolled_patches, whole_clip_gram


def motion_term_loop_oracle(act, flow, h):
    """Straight-line recomputation: explicit loops, direct bilinear corner
    arithmetic for the trajectory-difference residual."""
    t_count, height, width, n = act.shape
    total = 0.0
    norm = h[:-1].sum() * height * width
    for t in range(t_count - 1):
        for r in range(height):
            for c in range(width):
                sr = r + flow.data[t, r, c, 1]
                sc = c + flow.data[t, r, c, 0]
                r0, c0 = math.floor(sr), math.floor(sc)
                fr, fc = sr - r0, sc - c0
                for i in range(n):
                    advected = ((1 - fr) * (1 - fc) * act[t + 1, r0 % height, c0 % width, i]
                                + (1 - fr) * fc * act[t + 1, r0 % height, (c0 + 1) % width, i]
                                + fr * (1 - fc) * act[t + 1, (r0 + 1) % height, c0 % width, i]
                                + fr * fc * act[t + 1, (r0 + 1) % height, (c0 + 1) % width, i])
                    residual = advected - act[t, r, c, i]
                    total += h[t] / norm * residual * residual
    return total


def transport_residual(act, flow):
    """The step's transport residual of a (T, H, W, n) field, feature-major
    (n, T-1, H, W): frames 1..T-1 gathered by the warp plan, minus frames
    0..T-2."""
    rows = np.ascontiguousarray(np.moveaxis(act, 3, 0))
    residual = np.empty_like(rows[:, 1:])
    _WarpPlan(flow).gather(rows[:, 1:], residual)
    return residual - rows[:, :-1]


TERMS = BREAKDOWN_CSV_HEADER.split(",")[1:]


def step_motion(bank, data, flow, weights):
    """M as the objective step computes it."""
    return cognitive_action(bank, bank, ActionInputs(data, flow, weights, bank), Multipliers(), 1.0).motion


class TestTemporalWeights:
    def test_uniform_measure_sums_to_one(self):
        w = TemporalWeights.uniform(5)
        assert abs(w.frame_measure(4, 6).sum() * 4 * 6 - 1.0) <= 1e-12

    def test_exponential_shape(self):
        w = TemporalWeights.exponential(4, 0.5)
        assert np.allclose(w.weights, [0.125, 0.25, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalWeights(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            TemporalWeights(np.zeros(3))
        with pytest.raises(ValueError):
            TemporalWeights.exponential(4, 1.5)

    def test_residual_measure_needs_head_mass(self):
        w = TemporalWeights(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="no mass"):
            w.residual_measure(2, 2)


class TestEntropies:
    def test_uniform_conditional_is_log_n(self):
        field = np.full((3, 4, 4, 4), 0.25)
        w = TemporalWeights.uniform(3)
        assert abs(identity_probe(field, w).conditional_entropy - math.log(4)) <= 1e-12

    def test_one_hot_conditional_is_zero(self):
        field = np.zeros((2, 3, 3, 3))
        field[..., 1] = 1.0
        w = TemporalWeights.uniform(2)
        assert conditional_entropy(field, w) == 0.0

    def test_conditional_hand_value(self):
        field = np.zeros((2, 2, 2, 3))
        field[..., 0] = 0.5
        field[..., 1] = 0.25
        field[..., 2] = 0.25
        w = TemporalWeights.uniform(2)
        # -sum p log p = 1.5 * ln 2, recomputed by hand
        assert abs(identity_probe(field, w).conditional_entropy - 1.5 * math.log(2)) <= 1e-12

    def test_uniform_marginal_is_log_n(self):
        field = np.full((2, 4, 4, 5), 0.2)
        w = TemporalWeights.uniform(2)
        assert abs(identity_probe(field, w).marginal_entropy - math.log(5)) <= 1e-12

    def test_half_one_hot_split(self):
        # half the sites emit symbol 0, half symbol 1: the ideal configuration;
        # its exact zeros keep it off the identity probe
        field = np.zeros((2, 4, 4, 2))
        field[:, :2, :, 0] = 1.0
        field[:, 2:, :, 1] = 1.0
        w = TemporalWeights.uniform(2)
        q = symbol_marginal(field, w)
        assert np.abs(q - 0.5).max() <= 1e-12
        assert abs(-float((q * np.log(q)).sum()) - math.log(2)) <= 1e-12
        assert conditional_entropy(field, w) == 0.0

    def test_marginal_hand_value(self):
        field = np.zeros((2, 2, 2, 3))
        field[..., 0] = 0.7
        field[..., 1] = 0.2
        field[..., 2] = 0.1
        w = TemporalWeights.uniform(2)
        expected = -(0.7 * math.log(0.7) + 0.2 * math.log(0.2) + 0.1 * math.log(0.1))
        assert abs(identity_probe(field, w).marginal_entropy - expected) <= 1e-12

    def test_uniform_index_is_zero(self):
        field = np.full((2, 3, 3, 4), 0.25)
        w = TemporalWeights.uniform(2)
        assert abs(identity_probe(field, w).info_index) <= 1e-12

    def test_index_bounds_on_random_fields(self):
        rng = np.random.default_rng(0)
        w = TemporalWeights.uniform(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            raw = rng.uniform(0.01, 1.0, size=(3, 5, 5, n))
            field = raw / raw.sum(axis=-1, keepdims=True)
            index = identity_probe(field, w).info_index
            assert -math.log(n) - 1e-12 <= index <= math.log(n) + 1e-12

    def test_off_simplex_marginal_rejected(self):
        field = np.full((2, 2, 2, 2), 0.3)
        w = TemporalWeights.uniform(2)
        with pytest.raises(ValueError, match="simplex"):
            symbol_marginal(field, w)

    @pytest.mark.parametrize("mode", ["softmax", "linear-penalty"])
    def test_nan_marginal_rejected(self, mode):
        # an iterate skips FilterBank's checks, so NaN taps reach the step;
        # abs(nan - 1) > 1e-9 is False, so only "not <=" rejects the marginal
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=2), (1, 0), 3, 6, 6)
        bank = init_bank(3, 1, 3, mode, seed=4)
        inputs = ActionInputs(clip, flow, TemporalWeights.uniform(3), bank)
        nan_bank = bank._next(np.full(bank.taps.shape, np.nan))
        with pytest.raises(ValueError, match="symbol marginal sums to nan, not 1"):
            cognitive_action(nan_bank, bank, inputs, Multipliers(), 1.0)

    def test_dimension_mismatch(self):
        field = np.full((3, 2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="frames"):
            conditional_entropy(field, TemporalWeights.uniform(4))

    @pytest.mark.parametrize("entry", [conditional_entropy, symbol_marginal])
    def test_non_finite_field_rejected(self, entry):
        field = np.full((2, 3, 3, 2), 0.5)
        field[1, 2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            entry(field, TemporalWeights.uniform(2))


class TestMotionResidual:
    def test_static_zero(self):
        clip, flow = synth_translating_clip(PatternSpec("sinusoid", 8), (0, 0), 4, 8, 8)
        bank = init_bank(3, 1, 3, "softmax", seed=1, scale=0.5)
        act = convolve_features(bank, clip)
        assert np.abs(transport_residual(act, flow)).max() == 0.0

    def test_spatially_uniform_reduces_to_temporal_difference(self):
        rng = np.random.default_rng(2)
        act = np.tile(rng.uniform(size=(4, 1, 1, 3)), (1, 6, 6, 1))
        flow = VelocityField(rng.uniform(-2, 2, size=(4, 6, 6, 2)))
        residual = transport_residual(act, flow)
        expected = np.moveaxis(act[1:] - act[:-1], 3, 0)
        assert np.abs(residual - expected).max() <= 1e-12

    def test_integer_checkerboard_exact_transport(self):
        clip, flow = synth_translating_clip(PatternSpec("checkerboard", 8), (1, 0), 6, 16, 16)
        for seed in range(3):
            bank = init_bank(4, 1, 3, "softmax", seed=seed, scale=0.5)
            act = convolve_features(bank, clip)
            assert np.abs(transport_residual(act, flow)).max() <= 1e-9

    def test_subpixel_second_order_convergence(self):
        # halving the spatial period grows the residual ~4x (second-order
        # interpolation error); band calibrated empirically at period 32->16
        bank = init_bank(3, 1, 3, "softmax", seed=4, scale=0.3)
        peaks = {}
        for period in (32, 16):
            clip, flow = synth_translating_clip(PatternSpec("sinusoid", period), (0.5, 0.25), 6, 64, 64)
            act = convolve_features(bank, clip)
            peaks[period] = np.abs(transport_residual(act, flow)).max()
        ratio = peaks[16] / peaks[32]
        assert 3.0 <= ratio <= 5.0

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="2 frames"):
            _WarpPlan(constant_flow((0, 0), 1, 4, 4))

    def test_integer_flow_plan_is_one_roll(self):
        rng = np.random.default_rng(9)
        plan = _WarpPlan(constant_flow((2, -1), 4, 5, 6))
        assert plan.index.shape[0] == plan.weight.shape[0] == 1
        tail = rng.standard_normal((2, 3, 5, 6))  # feature-major (n, T-1, H, W)
        out = np.empty_like(tail)
        plan.gather(tail, out)
        # the sample at (r, c) is (r - 1, c + 2) of the next frame
        assert np.array_equal(out, np.roll(tail, (1, -2), axis=(2, 3)))

    @pytest.mark.parametrize("velocity", ["sub-pixel", "integer", "zero", "half-row"])
    def test_plan_matches_plain_corners(self, velocity):
        # each corner is built in its own slot; the oracle's four corners,
        # less those of weight 0 everywhere, as flat sites of frames 1..T-1
        frames, height, width = 5, 7, 6
        rng = np.random.default_rng(12)
        flow = {"sub-pixel": VelocityField(rng.uniform(-2.5, 2.5, size=(frames, height, width, 2))),
                "integer": constant_flow((2, -1), frames, height, width),
                "zero": constant_flow((0, 0), frames, height, width),
                "half-row": constant_flow((-3, 0.5), frames, height, width)}[velocity]
        plan = _WarpPlan(flow)
        corners = [((t - 1) * height * width + r * width + c, weight)
                   for t, r, c, weight in bilinear_corners(flow) if weight.any()]
        assert len(corners) == {"sub-pixel": 4, "integer": 1, "zero": 1, "half-row": 2}[velocity]
        assert plan.index.dtype == np.int64
        assert np.array_equal(plan.index, np.array([index for index, _ in corners]))
        assert np.array_equal(plan.weight, np.array([weight for _, weight in corners]))

    def test_scatter_is_adjoint_of_gather(self):
        # flow in (-2.5, 2.5) on a 5x4 grid: many residual sites share a bin
        rng = np.random.default_rng(8)
        flow = VelocityField(rng.uniform(-2.5, 2.5, size=(4, 5, 4, 2)))
        plan = _WarpPlan(flow)
        x = rng.standard_normal((3, 3, 5, 4))  # feature-major (n, T-1, H, W)
        y = rng.standard_normal((3, 3, 5, 4))
        gathered = np.empty_like(x)
        plan.gather(x, gathered)
        scattered = np.zeros_like(y)
        plan.scatter(y, scattered)
        lhs = float(np.sum(gathered * y))
        rhs = float(np.sum(x * scattered))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


class TestGramBuilder:
    """``_motion_gram`` sums G one frame pair at a time, from each pair's own
    corners; the oracle gathers every row of the whole clip's patch matrix,
    built from ``np.roll`` shifts, along the whole clip's warp plan at once."""

    @staticmethod
    def assert_matches_whole_clip_gram(grid, flow, kernel, measure, corner_builds):
        """G against the oracle at 1e-12; returns the corners that G's build
        kept for each frame pair, having checked that it took one pair's
        corners at a time."""
        corner_builds.clear()
        gram = _motion_gram(grid, flow, kernel, measure)
        builds = list(corner_builds)
        expected = whole_clip_gram(_WarpPlan(flow), rolled_patches(grid, kernel), measure)
        assert gram.shape == (kernel * kernel * grid.shape[3] + 1,) * 2
        assert np.abs(gram - expected).max() <= 1e-12 * np.abs(expected).max()
        assert [frames for frames, _ in builds] == [1] * (len(grid) - 1)
        return [corners for _, corners in builds]

    @pytest.mark.parametrize("m_in,kernel,frames,height,width,weighting", [
        (1, 3, 2, 9, 7, "uniform"),
        (1, 5, 16, 40, 36, "exp:0.9"),  # 1,440 sites: a full and a short chunk
        (3, 5, 16, 12, 10, "exp:0.9"),
        (3, 3, 2, 11, 8, "uniform"),
        (8, 3, 16, 10, 13, "exp:0.9"),
        (8, 5, 2, 7, 9, "uniform"),
    ])
    def test_matches_whole_clip_gram(self, m_in, kernel, frames, height, width, weighting,
                                     corner_builds):
        rng = np.random.default_rng(m_in * 100 + kernel * 10 + frames)
        grid = rng.uniform(-1, 1, size=(frames, height, width, m_in))
        flow = VelocityField(rng.uniform(-2.5, 2.5, size=(frames, height, width, 2)))
        measure = build_weights(weighting, frames).residual_measure(height, width)
        corners = self.assert_matches_whole_clip_gram(grid, flow, kernel, measure, corner_builds)
        assert corners == [4] * (frames - 1)

    @pytest.mark.parametrize("m_in,kernel", [(1, 3), (3, 5)])
    def test_pairs_keep_their_own_corners(self, m_in, kernel, corner_builds):
        # an integer shift in the first pair, sub-pixel flow in the second:
        # the whole clip's plan keeps 4 corners for both, G's build 1 and 4
        rng = np.random.default_rng(21)
        grid = rng.uniform(-1, 1, size=(3, 9, 7, m_in))
        velocity = np.zeros((3, 9, 7, 2))
        velocity[0] = (2, -1)
        velocity[1] = rng.uniform(-2.5, 2.5, size=(9, 7, 2))
        measure = build_weights("exp:0.9", 3).residual_measure(9, 7)
        corners = self.assert_matches_whole_clip_gram(grid, VelocityField(velocity), kernel,
                                                      measure, corner_builds)
        assert corners == [1, 4]

    @pytest.mark.parametrize("m_in,kernel", [(1, 3), (3, 5), (8, 3)])
    @pytest.mark.parametrize("velocity", [(1, 0), (-2, 1)])
    def test_integer_translation_is_exactly_zero(self, m_in, kernel, velocity):
        clip, flow = synth_translating_clip(
            PatternSpec("random-texture", 8, seed=m_in, channels=m_in), velocity, 5, 24, 20)
        measure = build_weights("exp:0.9", 5).residual_measure(24, 20)
        assert not _motion_gram(clip.data, flow, kernel, measure).any()


class TestMotionTerm:
    def test_zero_residual_zero_term(self):
        clip, flow = synth_translating_clip(PatternSpec("checkerboard", 4), (2, 0), 4, 12, 12)
        bank = init_bank(3, 1, 3, "softmax", seed=7, scale=0.4)
        assert step_motion(bank, clip, flow, TemporalWeights.uniform(4)) == 0.0

    def test_single_site_value(self):
        # one residual of 2 at one site: M = 4 * site measure; a K=1 identity
        # bank makes the grid the activations, offset by 1/n
        grid = np.zeros((2, 4, 4, 3))
        grid[1, 2, 1, 0] = 2.0
        flow = constant_flow((0, 0), 2, 4, 4)
        w = TemporalWeights.uniform(2)
        expected = 4.0 / 16.0
        bank = FilterBank(np.eye(3)[:, :, None, None])
        assert abs(step_motion(bank, grid, flow, w) - expected) <= 1e-15

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        grid = rng.uniform(-1, 1, size=(3, 5, 4, 2))
        bank = init_bank(3, 2, 3, "softmax", seed=6, scale=0.5)
        flow = VelocityField(rng.uniform(-1.5, 1.5, size=(3, 5, 4, 2)))
        h = np.array([1.0, 2.0, 0.5])
        value = step_motion(bank, grid, flow, TemporalWeights(h))
        oracle = motion_term_loop_oracle(convolve_features(bank, grid), flow, h)
        assert value > 0.0
        assert abs(value - oracle) <= 1e-12


class TestParsimony:
    def test_constant_taps_zero(self):
        assert spatial_parsimony(np.full((2, 3, 5, 5), 0.7)) == 0.0

    def test_k1_zero(self):
        assert spatial_parsimony(np.ones((4, 2, 1, 1))) == 0.0

    def test_row_hand_value(self):
        row = np.zeros((1, 1, 3, 1))
        row[0, 0, 1, 0] = 1.0
        assert spatial_parsimony(row) == 1.0

    def test_row_gradient_stencil(self):
        row = np.zeros((1, 1, 3, 1))
        row[0, 0, 1, 0] = 1.0
        assert np.array_equal(spatial_parsimony_gradient(row).ravel(), [-1.0, 2.0, -1.0])

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_np_diff_forms(self, kernel):
        # the differences are taken as slices; np.diff does the same arithmetic
        taps = np.random.default_rng(kernel).uniform(-1, 1, size=(3, 2, kernel, kernel))
        da, db = np.diff(taps, axis=2), np.diff(taps, axis=3)
        assert spatial_parsimony(taps) == 0.5 * (float((da * da).sum()) + float((db * db).sum()))
        grad = np.zeros_like(taps)
        grad[:, :, :-1, :] -= da
        grad[:, :, 1:, :] += da
        grad[:, :, :, :-1] -= db
        grad[:, :, :, 1:] += db
        assert np.array_equal(spatial_parsimony_gradient(taps), grad)

    def test_temporal_zero_at_rest(self):
        bank = init_bank(3, 1, 3, "softmax", seed=3, scale=0.2)
        assert temporal_parsimony(bank, bank, 0.5) == 0.0

    def test_temporal_single_tap(self):
        now = np.zeros((2, 1, 3, 3))
        prev = now.copy()
        now[0, 0, 1, 1] = 0.3
        assert abs(temporal_parsimony(now, prev, 1.0) - 0.5 * 0.3 ** 2) <= 1e-15

    def test_temporal_matches_loop(self):
        rng = np.random.default_rng(9)
        now = rng.uniform(-1, 1, size=(3, 2, 3, 3))
        prev = rng.uniform(-1, 1, size=(3, 2, 3, 3))
        dtau = 0.7
        expected = 0.0
        for value, old in zip(now.ravel(), prev.ravel()):
            expected += 0.5 * ((value - old) / dtau) ** 2
        assert abs(temporal_parsimony(now, prev, dtau) - expected) <= 1e-12

    def test_temporal_rejects_bad_dtau(self):
        bank = init_bank(2, 1, 3, "softmax", seed=0, scale=0.1)
        with pytest.raises(ValueError):
            temporal_parsimony(bank, bank, 0.0)


class TestCompositeAction:
    def _instance(self, mode="softmax", seed=0):
        rng = np.random.default_rng(seed)
        clip, _ = synth_translating_clip(PatternSpec("random-texture", 4, seed=seed), (0.5, 0.25), 4, 8, 8)
        flow = VelocityField(rng.uniform(-1, 1, size=(4, 8, 8, 2)))
        bank = init_bank(3, 1, 3, mode, seed=seed + 1, scale=0.15)
        prev = bank.with_taps(bank.taps + rng.uniform(-0.05, 0.05, size=bank.taps.shape))
        w = TemporalWeights.uniform(4)
        lam = Multipliers(motion=1.2, spatial=0.3, temporal=0.8, constraint=0.5)
        return bank, prev, clip, flow, w, lam

    def test_zero_bank_static_uniform_clip_all_zero(self):
        from cogaction import VideoClip

        clip = VideoClip(np.full((3, 4, 4, 1), 0.5))
        flow = constant_flow((0, 0), 3, 4, 4)
        bank = init_bank(4, 1, 3, "softmax", seed=0, scale=0.0)
        w = TemporalWeights.uniform(3)
        lam = Multipliers(1, 1, 1, 1)
        result = cognitive_action(bank, bank, ActionInputs(clip, flow, w, bank), lam, 1.0)
        assert abs(result.info_index) <= 1e-12
        assert result.motion == 0.0
        assert result.spatial == 0.0
        assert result.temporal == 0.0
        assert abs(result.total) <= 1e-12

    def test_zero_multipliers_leave_neg_index(self):
        bank, prev, clip, flow, w, _ = self._instance()
        result = cognitive_action(bank, prev, ActionInputs(clip, flow, w, bank), Multipliers(), 0.5)
        assert abs(result.total + result.info_index) <= 1e-15

    def test_composite_matches_sum_of_parts(self):
        bank, prev, clip, flow, w, lam = self._instance(seed=5)
        result = cognitive_action(bank, prev, ActionInputs(clip, flow, w, bank), lam, 0.5)
        act = convolve_features(bank, clip)
        index = identity_probe(to_probabilities(act, bank.mode), w).info_index
        m_val = motion_term_loop_oracle(act, flow, w.weights)
        p_val = spatial_parsimony(bank)
        k_val = temporal_parsimony(bank, prev, 0.5)
        expected = -index + lam.motion * m_val + lam.spatial * p_val + lam.temporal * k_val
        assert abs(result.total - expected) <= 1e-12
        assert abs(result.info_index - index) <= 1e-12
        assert result.penalty == 0.0

    def test_penalty_populated_in_linear_mode(self):
        bank, prev, clip, flow, w, lam = self._instance(mode="linear-penalty", seed=7)
        result = cognitive_action(bank, prev, ActionInputs(clip, flow, w, bank), lam, 0.5)
        assert result.penalty > 0.0
        base = -result.info_index + lam.motion * result.motion + lam.spatial * result.spatial \
            + lam.temporal * result.temporal + lam.constraint * result.penalty
        assert abs(result.total - base) <= 1e-12

    def test_entropy_bounds_in_breakdown(self):
        bank, prev, clip, flow, w, lam = self._instance(seed=11)
        result = cognitive_action(bank, prev, ActionInputs(clip, flow, w, bank), lam, 0.5)
        n = bank.n
        assert 0.0 <= result.marginal_entropy <= math.log(n) + 1e-12
        assert 0.0 <= result.conditional_entropy <= math.log(n) + 1e-12
        assert result.motion >= 0.0 and result.spatial >= 0.0 and result.temporal >= 0.0

    def test_measure_rescaling_invariance(self):
        bank, prev, clip, flow, _, lam = self._instance(seed=13)
        w1 = TemporalWeights(np.array([1.0, 0.5, 2.0, 1.5]))
        w2 = TemporalWeights(np.array([1.0, 0.5, 2.0, 1.5]) * 37.0)
        a = cognitive_action(bank, prev, ActionInputs(clip, flow, w1, bank), lam, 0.5)
        b = cognitive_action(bank, prev, ActionInputs(clip, flow, w2, bank), lam, 0.5)
        for x, y in zip(a.values(), b.values()):
            assert abs(x - y) <= 1e-12

    def test_bit_identical_reruns(self):
        bank, prev, clip, flow, w, lam = self._instance(seed=17)
        a = cognitive_action(bank, prev, ActionInputs(clip, flow, w, bank), lam, 0.5)
        b = cognitive_action(bank, prev, ActionInputs(clip, flow, w, bank), lam, 0.5)
        assert a.values() == b.values()

    def test_csv_row_format(self):
        values = (1.0 / 3.0, 0.25, 1.0 / 3.0 - 0.25, 1e-18, 2.0, 0.0, 0.0, -0.05)
        row = ActionBreakdown(*values).csv_row(7)
        parts = row.split(",")
        assert parts[0] == "7"
        assert len(parts) == len(BREAKDOWN_CSV_HEADER.split(","))
        for text, value in zip(parts[1:], values):
            assert float(text) == value  # 17 significant digits round-trip
        assert ActionBreakdown(*values).csv_row(2, "final") == "2,final," + row.split(",", 1)[1]


def step(bank, prev, inputs, lam, dtau):
    breakdown, grad = action_value_and_gradient(bank, prev, inputs, lam, dtau)
    return breakdown.values(), grad


class TestWorkspaceReuse:
    """Every evaluation on one ``ActionInputs`` reuses its buffers; no result
    may depend on, or alias, what an earlier evaluation left there."""

    def _banks(self):
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=21),
                                            (0.5, 0.25), 5, 9, 8)
        lam = Multipliers(motion=1.1, spatial=0.2, temporal=0.3, constraint=0.7)
        a = init_bank(4, 1, 3, "softmax", seed=22, scale=0.2)
        # b shares a's shape (n, K), and so its buffers, but not its mode; c
        # has another feature count, d another kernel
        b = init_bank(4, 1, 3, "linear-penalty", seed=23, scale=0.08)
        c = init_bank(3, 1, 3, "softmax", seed=24, scale=0.2)
        d = init_bank(4, 1, 5, "softmax", seed=25, scale=0.2)
        return clip, flow, lam, a, b, c, d

    @pytest.mark.parametrize("other", ["same-n", "other-n", "same-n-other-k",
                                       "same-n-streamed-k"])
    def test_a_b_a_on_one_inputs(self, monkeypatch, other):
        """A, then B, then A again: B of a's shape runs on a's buffers; B of
        another shape is rejected, naming both shapes. Either way A repeats
        bit for bit and its returned gradient is left alone."""
        clip, flow, lam, a, b, c, d = self._banks()
        b = {"same-n": b, "other-n": c, "same-n-other-k": d, "same-n-streamed-k": d}[other]
        if other == "same-n-streamed-k":
            # a budget that keeps a's K=3 patches (25,920 bytes), not d's K=5
            monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 40_000)
        inputs = ActionInputs(clip, flow, TemporalWeights.uniform(5), a)
        assert inputs.gram is not None
        first, grad = step(a, a, inputs, lam, 0.5)
        kept = grad.copy()
        if other == "same-n":
            step(b, b, inputs, lam, 0.5)
        else:
            shape = r"\(3, 3\)" if other == "other-n" else r"\(4, 5\)"
            message = rf"a bank of \(n, K\) = {shape} on inputs built for \(n, K\) = \(4, 3\)"
            for entry in (cognitive_action, action_value_and_gradient):
                with pytest.raises(ValueError, match=message):
                    entry(b, b, inputs, lam, 0.5)
            with pytest.raises(ValueError, match=message):
                term_gradients(b, b, inputs, 0.5)
        assert np.array_equal(grad, kept)
        again, grad_again = step(a, a, inputs, lam, 0.5)
        assert again == first
        assert np.array_equal(grad_again, kept)
        assert cognitive_action(a, a, inputs, lam, 0.5).values() == first

    def test_two_inputs_interleaved(self):
        clip, flow, lam, a, b, _, _ = self._banks()
        one = ActionInputs(clip, flow, TemporalWeights.uniform(5), a)
        two = ActionInputs(clip, flow, build_weights("exp:0.9", 5), b)
        a_one, grad_a_one = step(a, a, one, lam, 0.5)
        b_two, grad_b_two = step(b, b, two, lam, 0.5)
        kept = grad_a_one.copy(), grad_b_two.copy()
        assert step(b, b, one, lam, 0.5)[0] != a_one
        assert step(a, a, two, lam, 0.5)[0] != b_two
        a_again, grad_a_again = step(a, a, one, lam, 0.5)
        b_again, grad_b_again = step(b, b, two, lam, 0.5)
        assert (a_again, b_again) == (a_one, b_two)
        assert np.array_equal(grad_a_again, kept[0]) and np.array_equal(grad_b_again, kept[1])
        assert np.array_equal(grad_a_one, kept[0]) and np.array_equal(grad_b_two, kept[1])


def assert_matches_oracle(bank, prev, data, flow, weights, lam, dtau, rel=1e-12,
                          cancelling=False):
    """Breakdown terms and tap gradient of the step against the (T, H, W, n)
    oracle, each within ``rel`` of the oracle's magnitude.  With
    ``cancelling``, I = S_Y - S_cond and A, which holds -I, are held within
    ``rel`` of S_Y instead: the entropies they cancel from."""
    breakdown, grad = action_value_and_gradient(bank, prev,
                                                ActionInputs(data, flow, weights, bank), lam, dtau)
    expected, expected_grad = objective_step(bank, prev, data, flow, weights, lam, dtau)
    assert np.all(np.isfinite(breakdown.values())) and np.all(np.isfinite(grad))
    for term, got, want in zip(TERMS, breakdown.values(), expected.values()):
        scale = abs(want)
        if cancelling and term in ("I", "A"):
            scale = max(scale, abs(expected.marginal_entropy))
        assert abs(got - want) <= rel * scale, term
    assert np.abs(grad - expected_grad).max() <= rel * np.abs(expected_grad).max()


class TestSoftmaxUnderflow:
    def test_underflowing_probabilities_match_oracle(self):
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=31),
                                            (0.5, 0.25), 4, 8, 8)
        base = init_bank(4, 1, 3, "softmax", seed=32, scale=0.1)
        bank = base.with_taps(base.taps * 2e4)
        prev = base.with_taps(base.taps * 1.999e4)
        probs = to_probabilities(convolve_features(bank, clip), "softmax")
        assert np.count_nonzero(probs == 0.0) > probs.size // 10  # exact 0.0, not tiny
        lam = Multipliers(motion=0.7, spatial=0.2, temporal=0.3)
        assert_matches_oracle(bank, prev, clip.data, flow, TemporalWeights.uniform(4), lam, 0.5)

    def test_partly_saturated_probabilities_match_oracle(self):
        # taps x30: most sites are nearly one-hot, yet no p is exactly 0, a
        # range the exact zeros above do not reach, for the step's
        # sum p log p = sum p (a - max) - log Z and its measure / Z fold
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=31),
                                            (0.5, 0.25), 6, 8, 8)
        base = init_bank(4, 1, 3, "softmax", seed=32, scale=0.25)
        bank = base.with_taps(base.taps * 30.0)
        prev = base.with_taps(base.taps * 29.9)
        probs = to_probabilities(convolve_features(bank, clip), "softmax")
        assert probs.min() > 0.0
        assert np.mean(probs.max(axis=3) > 0.99) > 0.5
        lam = Multipliers(motion=0.7, spatial=0.2, temporal=0.3)
        assert_matches_oracle(bank, prev, clip.data, flow, build_weights("exp:0.9", 6), lam, 0.5)


class TestOracleParity:
    """Linear-penalty runs are not pinned by the reference traces; the step
    must agree with the (T, H, W, n) oracle instead."""

    @pytest.mark.parametrize("number", range(20))
    def test_gradient_check_instance(self, number):
        instance = gradient_check_instances(20)[number]
        assert_matches_oracle(instance["bank"], instance["bank_prev"], instance["data"],
                              instance["flow"], instance["weights"], instance["lam"],
                              instance["dtau"])

    @pytest.mark.parametrize("mode", ["softmax", "linear-penalty"])
    @pytest.mark.parametrize("quiet", [0.0, 1e-320])
    def test_frame_without_mass(self, mode, quiet):
        # frames of weight 0 or subnormal weight: the softmax step recovers
        # k from measure * k, and must not divide by such a frame's measure
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=61),
                                            (0.5, 0.25), 5, 8, 8)
        bank = init_bank(4, 1, 3, mode, seed=62, scale=0.1 if mode == "softmax" else 0.05)
        lam = Multipliers(motion=0.7, spatial=0.2, temporal=0.3,
                          constraint=1.0 if mode == "linear-penalty" else 0.0)
        weights = TemporalWeights(np.array([1.0, quiet, 2.0, quiet, 1.0]))
        assert_matches_oracle(bank, bank.with_taps(bank.taps * 0.99), clip.data, flow, weights,
                              lam, 0.5)

    def test_deep_layer_two_shape(self):
        # layer 2 of a deep stack: m=8 feature field of a softmax layer over
        # an RGB clip, n=8, K=3, exp:0.9 weights, sub-pixel flow
        pattern = PatternSpec("random-texture", 8, seed=41, channels=3)
        clip, flow = synth_translating_clip(pattern, (0.5, 0.25), 16, 64, 64)
        field = stack_layers([init_bank(8, 3, 5, "softmax", seed=42, scale=0.1)], clip)[0]
        bank = init_bank(8, 8, 3, "linear-penalty", seed=43, scale=0.2, layer=2)
        rng = np.random.default_rng(44)
        prev = bank.with_taps(bank.taps + rng.uniform(-0.01, 0.01, size=bank.taps.shape))
        act = convolve_features(bank, field)
        assert 0.1 < np.mean((act > 1e-6) & (act < 1.0)) < 0.9  # the clamp cuts in places
        lam = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3, constraint=1.0)
        assert_matches_oracle(bank, prev, field, flow, build_weights("exp:0.9", 16), lam, 0.5)


def kept_and_streamed(monkeypatch, bank, prev, data, flow, weights, lam, dtau):
    """(breakdown values, step gradient, motion term gradient), first on fresh
    inputs under the default patch budget, which keep the patch matrix, then
    on fresh inputs under a budget below one frame, which stream row patches
    frame by frame."""
    results = []
    for budget, kept in ((features.PATCH_CHUNK_BYTES, True), (1, False)):
        monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", budget)
        inputs = ActionInputs(data, flow, weights, bank)
        breakdown, grad = action_value_and_gradient(bank, prev, inputs, lam, dtau)
        motion = term_gradients(bank, prev, inputs, dtau)["motion"]
        assert (inputs.patches is not None) == kept
        results.append((breakdown.values(), grad, motion))
    return results


def parity_cases():
    """name -> (bank, prev, data, flow, weights, lam, dtau)."""
    cases = {}
    for number, inst in enumerate(gradient_check_instances(20)):
        cases[f"check-grad-{number}"] = (inst["bank"], inst["bank_prev"], inst["data"],
                                         inst["flow"], inst["weights"], inst["lam"], inst["dtau"])
    lam = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)
    rng = np.random.default_rng(51)
    clip, flow = synth_translating_clip(PatternSpec("random-texture", 8, seed=51), (0.5, 0.25),
                                        16, 32, 32)
    bank = init_bank(4, 1, 3, "softmax", seed=52, scale=0.1)
    prev = bank.with_taps(bank.taps + rng.uniform(-0.01, 0.01, size=bank.taps.shape))
    cases["subpixel-32x32x16"] = (bank, prev, clip.data, flow, TemporalWeights.uniform(16),
                                  lam, 1.0)
    clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=53, channels=3),
                                     (1.0, 0.5), 8, 16, 16)
    bank = init_bank(4, 3, 5, "softmax", seed=54, scale=0.1)
    cases["horn-schunck-m3-k5"] = (bank, bank, clip.data, horn_schunck(clip, 1.0, 20),
                                   TemporalWeights.uniform(8), lam, 1.0)
    clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=55, channels=2),
                                        (0.5, -0.25), 8, 24, 24)
    bank = init_bank(4, 2, 3, "linear-penalty", seed=56, scale=0.2)
    prev = bank.with_taps(bank.taps + rng.uniform(-0.01, 0.01, size=bank.taps.shape))
    cases["linear-penalty-exp"] = (bank, prev, clip.data, flow, build_weights("exp:0.9", 8),
                                   Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3,
                                               constraint=1.0), 0.5)
    # the -I gradient with no penalty gradient to add it to; and -I alone
    cases["linear-penalty-no-constraint"] = (bank, prev, clip.data, flow,
                                             build_weights("exp:0.9", 8), lam, 0.5)
    case = cases["horn-schunck-m3-k5"]
    cases["softmax-zero-multipliers"] = case[:5] + (Multipliers(),) + case[6:]
    # a zero bank (init_scale = 0): the residual is only the bias's, the
    # rounding of the bilinear weights' sum; n = 4 keeps 1/n exact
    inst = gradient_check_instances(20)[1]
    bank = init_bank(4, inst["bank"].m_in, 3, "softmax", seed=0, scale=0.0)
    cases["zero-bank"] = (bank, bank, inst["data"], inst["flow"], inst["weights"], lam, 1.0)
    return cases


PARITY_CASES = parity_cases()


# cases whose I = S_Y - S_cond cancels below the oracle's 1e-12, and A with
# it: I 1.3e-11 and A 2.6e-12 relative on subpixel-32x32x16, both 1.1e-15
# absolute against 1.1e-15 on zero-bank
CANCELLING_INDEX = ("subpixel-32x32x16", "zero-bank")


class TestKeptTransportParity:
    """Every clip takes M and its tap gradient from the matrix G.  A kept
    patch matrix and row patches streamed frame by frame give the same
    numbers, and the oracle, which gathers along bilinear corners and
    spreads the residual's gradient with ``np.add.at``, checks G."""

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_kept_matches_streamed(self, monkeypatch, name):
        kept, streamed = kept_and_streamed(monkeypatch, *PARITY_CASES[name])
        for got, want in zip(kept[0], streamed[0]):
            assert abs(got - want) <= 1e-12 * abs(want)
        for got, want in zip(kept[1:], streamed[1:]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_matches_oracle(self, name):
        assert_matches_oracle(*PARITY_CASES[name], cancelling=name in CANCELLING_INDEX)

    def test_zero_bank_residual_is_the_bias_rounding(self):
        # the zero-bank case above reaches the bias row and column of G
        bank, prev, data, flow, weights, lam, dtau = PARITY_CASES["zero-bank"]
        inputs = ActionInputs(data, flow, weights, bank)
        assert cognitive_action(bank, prev, inputs, lam, dtau).motion > 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_nearly_invariant_bank_keeps_m_non_negative(self, seed):
        # two channels 1e-10 apart: the bank that cancels one against the
        # other is nearly invariant, G's smallest eigenvalue rounds to about
        # -1e-17 of its largest, and the quadratic form x G x^T rounds below
        # 0 at three of these four seeds
        n, kernel = 4, 3
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=seed),
                                            (0.5, 0.25), 8, 16, 16)
        noise = np.random.default_rng(seed).standard_normal(clip.data.shape)
        data = np.concatenate([clip.data, clip.data * (1.0 + 1e-10 * noise)], axis=3)
        weights = TemporalWeights.uniform(8)
        shape = FilterBank(np.zeros((n, data.shape[3], kernel, kernel)))
        gram = ActionInputs(data, flow, weights, shape).gram
        # the bilinear weights sum to exactly 1, so the bias entry of x meets
        # only zeros and x is the eigenvector wherever G reads it
        assert not gram[-1].any()
        values, vectors = np.linalg.eigh(gram)
        x = np.tile(vectors[:, 0], (n, 1))
        x[:, -1] = 1.0 / n
        bank = FilterBank(features._unflat_view(x[:, :-1], kernel).copy())
        motion = step_motion(bank, data, flow, weights)
        expected = objective_step(bank, bank, data, flow, weights, Multipliers(), 1.0)[0].motion
        assert motion >= 0.0
        assert abs(motion - expected) <= 1e-15 * values[-1] * (x * x).sum()


ENTRY_POINTS = {
    "cognitive_action": lambda bank, prev, data, flow, w, lam, dtau:
        cognitive_action(bank, prev, ActionInputs(data, flow, w, bank), lam, dtau),
    "action_value_and_gradient": lambda bank, prev, data, flow, w, lam, dtau:
        action_value_and_gradient(bank, prev, ActionInputs(data, flow, w, bank), lam, dtau),
    "term_gradients": lambda bank, prev, data, flow, w, lam, dtau:
        term_gradients(bank, prev, ActionInputs(data, flow, w, bank), dtau),
    "finite_diff_breakdowns": lambda bank, prev, data, flow, w, lam, dtau:
        finite_diff_breakdowns(bank, prev, ActionInputs(data, flow, w, bank), lam, dtau),
    # a standalone bank is its own predecessor, so it has no bank_prev case
    "evaluate_bank": lambda bank, prev, data, flow, w, lam, dtau:
        evaluate_bank(bank, data, flow, w, lam, dtau),
}

# bad input -> pattern its error message must match
BAD_INPUTS = {
    "channels": r"expects 2 input channels, grid has 1",
    "frames": r"temporal weights cover 5 frames",
    "flow": r"velocity field .* does not match",
    "bank_prev": r"bank shapes? .*differ",
    "dtau": r"step must be > 0",
    "nan-grid": r"must be finite",
}


def _inputs_with(bad):
    pattern = PatternSpec("random-texture", 4, seed=3)
    clip, flow = synth_translating_clip(pattern, (0.5, 0.25), 4, 8, 8)
    bank = init_bank(3, 1, 3, "softmax", seed=4, scale=0.15)
    args = {"bank": bank, "prev": bank, "data": clip, "flow": flow,
            "w": TemporalWeights.uniform(4), "dtau": 0.5}
    if bad == "channels":
        # a previous bank of the bank's own shape, so only the channel count is wrong
        args["bank"] = args["prev"] = init_bank(3, 2, 3, "softmax", seed=4, scale=0.15)
    elif bad == "frames":
        args["w"] = TemporalWeights.uniform(5)
    elif bad == "flow":
        args["flow"] = constant_flow((0.5, 0.25), 4, 8, 6)
    elif bad == "bank_prev":
        args["prev"] = init_bank(3, 1, 5, "softmax", seed=5, scale=0.15)
    elif bad == "dtau":
        args["dtau"] = 0.0
    elif bad == "nan-grid":
        args["data"] = clip.data.copy()
        args["data"][1, 2, 3, 0] = np.nan
    return args


@pytest.mark.parametrize("bad,entry", [
    (bad, entry) for entry in sorted(ENTRY_POINTS) for bad in sorted(BAD_INPUTS)
    if (bad, entry) != ("bank_prev", "evaluate_bank")])
def test_bad_input_fails_loudly(bad, entry):
    a = _inputs_with(bad)
    with pytest.raises(ValueError, match=BAD_INPUTS[bad]):
        ENTRY_POINTS[entry](a["bank"], a["prev"], a["data"], a["flow"], a["w"],
                            Multipliers(motion=1.0, spatial=0.1, temporal=0.1), a["dtau"])
