import math
import re

import numpy as np
import pytest

from cogaction import (
    ActionInputs,
    DivergenceError,
    LayerPlan,
    Multipliers,
    PatternSpec,
    TrainConfig,
    VelocityField,
    VideoClip,
    constant_flow,
    evaluate_bank,
    init_bank,
    stack_layers,
    synth_translating_clip,
    train_deep,
    train_layer,
)
from cogaction.action import TemporalWeights, action_value_and_gradient
from cogaction import features, optimizer
from cogaction.optimizer import build_weights, finite_diff_breakdowns


@pytest.fixture
def texture_instance():
    clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=3), (0.5, 0.25), 6, 12, 12)
    return clip, flow


class TestInitBank:
    def test_zero_scale_gives_zero_bank(self):
        bank = init_bank(3, 2, 3, "softmax", seed=1, scale=0.0)
        assert np.all(bank.taps == 0.0)
        assert not np.signbit(bank.taps).any()  # +0.0, so saved banks read 0.0, not -0.0

    def test_same_seed_bit_identical(self):
        a = init_bank(4, 1, 5, "softmax", seed=1, scale=0.2)
        b = init_bank(4, 1, 5, "softmax", seed=1, scale=0.2)
        assert np.array_equal(a.taps, b.taps)

    def test_different_seeds_differ(self):
        a = init_bank(4, 1, 5, "softmax", seed=1, scale=0.2)
        b = init_bank(4, 1, 5, "softmax", seed=2, scale=0.2)
        assert not np.array_equal(a.taps, b.taps)

    def test_taps_within_scale(self):
        bank = init_bank(4, 3, 3, "softmax", seed=9, scale=0.05)
        assert np.abs(bank.taps).max() <= 0.05

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            init_bank(1, 1, 3, "softmax", seed=0)
        with pytest.raises(ValueError):
            init_bank(2, 1, 4, "softmax", seed=0)
        # a negative side is odd, but no bank has one
        with pytest.raises(ValueError, match="odd side >= 1, got -1x-1"):
            init_bank(2, 1, -1, "softmax", seed=0)

    @pytest.mark.parametrize("scale", [-0.5, math.inf, -math.inf, math.nan])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match=re.escape(f"init scale must be finite and >= 0, "
                                                       f"got {scale}")):
            init_bank(2, 1, 3, "softmax", seed=0, scale=scale)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            init_bank(2, 1, 3, "softmax", seed=-1)


class TestTrainLayer:
    def test_zero_gradient_fixed_point(self):
        # zero bank on a constant clip, all multipliers zero: taps must not
        # move (power-of-two dimensions keep the measure arithmetic exact)
        clip = VideoClip(np.full((4, 8, 8, 1), 0.5))
        flow = constant_flow((0, 0), 4, 8, 8)
        bank = init_bank(4, 1, 3, "softmax", seed=0, scale=0.0)
        config = TrainConfig(step_size=0.5, steps=5, lam=Multipliers())
        trace = train_layer(bank, clip, flow, config)
        assert np.array_equal(trace.final_bank.taps, bank.taps)
        assert all(norm == 0.0 for norm in trace.grad_norms)

    def test_single_step_moves_exactly_minus_eta_grad(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=5, scale=0.1)
        lam = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)
        config = TrainConfig(step_size=0.2, steps=1, lam=lam)
        trace = train_layer(bank, clip, flow, config)
        w = TemporalWeights.uniform(6)
        grad = action_value_and_gradient(bank, bank, ActionInputs(clip.data, flow, w, bank), lam,
                                         config.effective_dtau())[1]
        assert np.array_equal(trace.final_bank.taps, bank.taps - 0.2 * grad)

    def test_trace_shape_and_finiteness(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=6, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=7, lam=Multipliers(motion=1.0))
        trace = train_layer(bank, clip, flow, config)
        assert len(trace.breakdowns) == 7
        assert len(trace.grad_norms) == 7
        assert all(np.isfinite(b.total) for b in trace.breakdowns)

    def test_breakdown_recorded_before_update(self, texture_instance, monkeypatch):
        # a trace row is the forward evaluation of the step's iterate, bit for
        # bit, in both modes, on a kept and a streamed clip, with zero and
        # nonzero multipliers, uniform and discounted weights; eval's promise
        # to reproduce summary.csv exactly rests on this
        from cogaction import cognitive_action

        clip, flow = texture_instance
        every = Multipliers(motion=1.1, spatial=0.2, temporal=0.3, constraint=0.7)
        cases = [("softmax", Multipliers(), "uniform", False, 0.1),
                 ("softmax", every, "exp:0.9", True, 0.1),
                 ("linear-penalty", every, "uniform", False, 0.01),
                 ("linear-penalty", every, "exp:0.9", True, 0.01)]
        kept_budget = features.PATCH_CHUNK_BYTES
        for mode, lam, weighting, streamed, scale in cases:
            monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 1 if streamed else kept_budget)
            bank = init_bank(3, 1, 3, mode, seed=7, scale=scale)
            config = TrainConfig(step_size=0.1, steps=3, lam=lam, weighting=weighting)
            trace = train_layer(bank, clip, flow, config)
            inputs = ActionInputs(clip.data, flow, build_weights(weighting, 6), bank)
            assert (inputs.patches is None) == streamed
            first = cognitive_action(bank, bank, inputs, lam, 0.1)
            assert trace.breakdowns[0].values() == first.values()
            # temporal term starts at zero: the first reference iterate is the init
            assert trace.breakdowns[0].temporal == 0.0
            grad = action_value_and_gradient(bank, bank, inputs, lam, 0.1)[1]
            second = bank.with_taps(bank.taps - 0.1 * grad)
            again = cognitive_action(second, bank, inputs, lam, 0.1)
            assert trace.breakdowns[1].values() == again.values()
            if lam.temporal:
                assert again.temporal > 0.0
            if mode == "linear-penalty":
                assert again.penalty > 0.0

    def test_divergence_aborts_with_step_index(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(4, 1, 3, "softmax", seed=8, scale=0.1)
        config = TrainConfig(step_size=1e9, steps=50, lam=Multipliers(motion=1.0))
        with pytest.raises(DivergenceError, match=r"step \d+"):
            train_layer(bank, clip, flow, config)

    def test_linear_penalty_divergence_aborts_with_step_index(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(4, 1, 3, "linear-penalty", seed=8, scale=0.1)
        config = TrainConfig(step_size=1e9, steps=50,
                             lam=Multipliers(motion=1.0, constraint=1.0))
        with pytest.raises(DivergenceError, match=r"step \d+"):
            train_layer(bank, clip, flow, config)

    def test_overflowing_last_update_aborts(self, texture_instance, overflow_at_step):
        # the update, not the step's gradient, turns non-finite; iterates
        # skip FilterBank's checks, so the trainer must catch it itself
        clip, flow = texture_instance
        overflow_at_step(2)
        bank = init_bank(4, 1, 3, "softmax", seed=8, scale=0.1)
        config = TrainConfig(step_size=4.0, steps=3, lam=Multipliers(motion=1.0))
        with pytest.raises(DivergenceError, match="non-finite taps after the update at step 2"):
            train_layer(bank, clip, flow, config)

    def test_reproducible_bit_identical(self, texture_instance):
        clip, flow = texture_instance
        config = TrainConfig(step_size=0.1, steps=10, lam=Multipliers(motion=1.0))
        runs = []
        for _ in range(2):
            bank = init_bank(3, 1, 3, "softmax", seed=9, scale=0.1)
            runs.append(train_layer(bank, clip, flow, config))
        assert np.array_equal(runs[0].final_bank.taps, runs[1].final_bank.taps)
        for a, b in zip(runs[0].breakdowns, runs[1].breakdowns):
            assert a.values() == b.values()

    def test_window_restricts_horizon(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=10, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=2, lam=Multipliers(), window=3)
        trace = train_layer(bank, clip, flow, config)
        short = VideoClip(clip.data[:3])
        short_flow = constant_flow((0.5, 0.25), 3, 12, 12)
        config_full = TrainConfig(step_size=0.1, steps=2, lam=Multipliers())
        trace_short = train_layer(bank, short, short_flow, config_full)
        assert np.array_equal(trace.final_bank.taps, trace_short.final_bank.taps)

    def test_zero_steps_returns_init(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=11, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=0, lam=Multipliers())
        trace = train_layer(bank, clip, flow, config)
        assert trace.breakdowns == []
        assert np.array_equal(trace.final_bank.taps, bank.taps)

    def test_window_longer_than_clip_rejected(self, texture_instance):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=12, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=1, lam=Multipliers(), window=99)
        with pytest.raises(ValueError, match="window"):
            train_layer(bank, clip, flow, config)

    def test_one_warp_plan_per_layer(self, texture_instance, gram_builds, plan_builds):
        # G is built once, straight from the flow: no warp plan
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=13, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=5, lam=Multipliers(motion=1.0))
        train_layer(bank, clip, flow, config)
        assert len(gram_builds) == 1
        assert plan_builds == []

    def test_one_warp_plan_per_finite_difference(self, texture_instance, gram_builds, plan_builds):
        clip, flow = texture_instance
        bank = init_bank(2, 1, 3, "softmax", seed=14, scale=0.1)
        inputs = ActionInputs(clip, flow, TemporalWeights.uniform(6), bank)
        finite_diff_breakdowns(bank, bank, inputs, Multipliers(motion=1.0), 1.0)
        assert len(gram_builds) == 1  # for 2 * 18 evaluations
        assert plan_builds == []

    def test_one_patch_fill_per_layer(self, texture_instance, patch_fills):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=13, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=5, lam=Multipliers(motion=1.0))
        train_layer(bank, clip, flow, config)
        # G's build and the kept matrix, both in the layer's constructor,
        # each filling frames 0..5 once, in order; no fill for 5 steps and
        # the final evaluation
        assert patch_fills == [[[t] for t in range(6)]] * 2

    def test_patches_streamed_over_budget(self, texture_instance, patch_fills, monkeypatch):
        clip, flow = texture_instance
        frame_bytes = 8 * 3 * 3 * clip.height * clip.width
        monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 2 * frame_bytes)
        bank = init_bank(3, 1, 3, "softmax", seed=13, scale=0.1)
        config = TrainConfig(step_size=0.1, steps=5, lam=Multipliers(motion=1.0))
        train_layer(bank, clip, flow, config)
        # G's build, then a convolve and a tap adjoint per step and the final
        # convolve: each fills frames 0..5 once, in order
        assert patch_fills == [[[t] for t in range(6)]] * 12


def standalone_breakdown(bank, grid, flow, config):
    """``evaluate_bank`` on the layer's windowed inputs."""
    window = config.window or grid.shape[0]
    return evaluate_bank(bank, grid[:window], VelocityField(flow.data[:window]),
                         build_weights(config.weighting, window), config.lam,
                         config.effective_dtau())


class TestFinalBreakdown:
    @pytest.mark.parametrize("steps, window, weighting", [
        (3, None, "uniform"), (3, 3, "exp:0.9"), (0, None, "uniform"),
    ], ids=["whole-clip", "window-exp", "zero-steps"])
    def test_equals_evaluate_bank(self, texture_instance, steps, window, weighting):
        clip, flow = texture_instance
        bank = init_bank(3, 1, 3, "softmax", seed=15, scale=0.1)
        lam = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)
        config = TrainConfig(step_size=0.1, steps=steps, lam=lam, window=window,
                             weighting=weighting)
        trace = train_layer(bank, clip, flow, config)
        expected = standalone_breakdown(trace.final_bank, clip.data, flow, config)
        assert trace.final_breakdown.values() == expected.values()
        assert trace.final_breakdown.temporal == 0.0

    def test_second_layer_of_deep_run(self, texture_instance):
        clip, flow = texture_instance
        lam = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)
        plans = [LayerPlan(3, 3, TrainConfig(step_size=0.1, steps=2, lam=lam), seed=16),
                 LayerPlan(4, 3, TrainConfig(step_size=0.1, steps=2, lam=lam, window=4),
                           mode="linear-penalty", seed=17)]
        traces = train_deep(clip, flow, plans)
        field = stack_layers([traces[0].final_bank], clip)[0]
        expected = standalone_breakdown(traces[1].final_bank, field, flow, plans[1].config)
        assert traces[1].final_breakdown.values() == expected.values()


class TestTrainDeep:
    def _plans(self, steps2=3):
        lam = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)
        return [
            LayerPlan(3, 3, TrainConfig(step_size=0.1, steps=4, lam=lam), seed=100 ^ 1),
            LayerPlan(4, 3, TrainConfig(step_size=0.1, steps=steps2, lam=lam), seed=100 ^ 2),
        ]

    def test_single_layer_equals_train_layer(self, texture_instance):
        clip, flow = texture_instance
        plan = self._plans()[0]
        traces = train_deep(clip, flow, [plan])
        direct = train_layer(plan.initial_bank(1), clip, flow, plan.config)
        assert np.array_equal(traces[0].final_bank.taps, direct.final_bank.taps)

    def test_zero_step_second_layer_keeps_init(self, texture_instance):
        clip, flow = texture_instance
        plans = self._plans(steps2=0)
        traces = train_deep(clip, flow, plans)
        expected = init_bank(4, 3, 3, "softmax", plans[1].seed, 0.1, layer=2)
        assert np.array_equal(traces[1].final_bank.taps, expected.taps)

    def test_matches_manual_freeze_then_train(self, texture_instance):
        clip, flow = texture_instance
        plans = self._plans()
        traces = train_deep(clip, flow, plans)

        from cogaction import convolve_features, to_probabilities

        bank1 = init_bank(3, 1, 3, "softmax", plans[0].seed, 0.1)
        trace1 = train_layer(bank1, clip, flow, plans[0].config)
        field1 = to_probabilities(convolve_features(trace1.final_bank, clip.data), "softmax")
        bank2 = init_bank(4, 3, 3, "softmax", plans[1].seed, 0.1, layer=2)
        trace2 = train_layer(bank2, field1, flow, plans[1].config)

        assert np.array_equal(traces[0].final_bank.taps, trace1.final_bank.taps)
        assert np.array_equal(traces[1].final_bank.taps, trace2.final_bank.taps)
        for a, b in zip(traces[1].breakdowns, trace2.breakdowns):
            assert a.values() == b.values()

    def test_propagates_only_into_a_next_layer(self, texture_instance, monkeypatch):
        clip, flow = texture_instance
        # train_deep propagates through features.stack_layers
        convolved = []
        convolve = features.convolve_features
        monkeypatch.setattr(features, "convolve_features",
                            lambda bank, data: convolved.append(bank) or convolve(bank, data))
        traces = train_deep(clip, flow, self._plans())
        assert convolved == [traces[0].final_bank]

    def test_layer_isolation(self, texture_instance):
        # training layer 2 must not touch layer 1's bank
        clip, flow = texture_instance
        traces = train_deep(clip, flow, self._plans())
        solo = train_deep(clip, flow, self._plans()[:1])
        assert np.array_equal(traces[0].final_bank.taps, solo[0].final_bank.taps)

    def test_bank_starts_from_plan(self, texture_instance):
        clip, flow = texture_instance
        plan = LayerPlan(3, 3, TrainConfig(step_size=0.1, steps=0), mode="linear-penalty",
                         seed=9, init_scale=0.5)
        (trace,) = train_deep(clip, flow, [plan])
        assert trace.final_bank.mode == "linear-penalty"
        assert np.array_equal(trace.final_bank.taps,
                              init_bank(3, 1, 3, "linear-penalty", seed=9, scale=0.5).taps)

    def test_error_reports_layer(self, texture_instance):
        clip, flow = texture_instance
        plans = self._plans()
        bad = LayerPlan(3, 3, TrainConfig(step_size=1e9, steps=50, lam=Multipliers(motion=1.0)))
        with pytest.raises(DivergenceError, match="layer 2"):
            train_deep(clip, flow, [plans[0], bad])


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.0, steps=1)
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.1, steps=-1)
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.1, steps=1, dtau=0.0)
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.1, steps=1, window=1)
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.1, steps=1, weighting="exp:2.0")

    def test_dtau_defaults_to_step_size(self):
        config = TrainConfig(step_size=0.25, steps=1)
        assert config.effective_dtau() == 0.25


class TestLayerPlan:
    def test_rejects_bad_values(self):
        config = TrainConfig(step_size=0.1, steps=1)
        with pytest.raises(ValueError, match="unknown constraint mode 'relu'"):
            LayerPlan(2, 3, config, mode="relu")
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            LayerPlan(2, 3, config, seed=-1)
        with pytest.raises(ValueError, match="init scale must be finite and >= 0, got -0.5"):
            LayerPlan(2, 3, config, init_scale=-0.5)
        with pytest.raises(ValueError, match="at least 2 output features, got n=1"):
            LayerPlan(1, 3, config)
        with pytest.raises(ValueError, match="odd side >= 1, got 4x4"):
            LayerPlan(2, 4, config)

    def test_checks_without_drawing(self, monkeypatch):
        # a plan is checked where it is built; its bank is drawn only to train
        def no_draw(*args, **kwargs):
            raise AssertionError("LayerPlan drew a bank")

        monkeypatch.setattr(optimizer, "init_bank", no_draw)
        LayerPlan(2, 3, TrainConfig(step_size=0.1, steps=1), mode="linear-penalty", seed=3)
