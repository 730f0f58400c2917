import numpy as np
import pytest

from cogaction import (
    ActionInputs,
    Multipliers,
    PatternSpec,
    TemporalWeights,
    VideoClip,
    VelocityField,
    convolve_features,
    init_bank,
    synth_translating_clip,
)
from cogaction import features
from cogaction.action import action_value_and_gradient, term_gradients
from cogaction.features import CLAMP_EPS
from cogaction.optimizer import (
    _clamp_margin,
    build_weights,
    finite_diff_breakdowns,
    gradient_check_instances,
    run_gradient_check,
)


def weighted_terms(terms, lam):
    """The composite gradient rebuilt from the per-term gradients."""
    return (-terms["info_index"] + lam.motion * terms["motion"]
            + lam.spatial * terms["spatial"] + lam.temporal * terms["temporal"]
            + lam.constraint * terms["penalty"])


def beyond_the_clamp_instance() -> dict:
    """A linear-penalty instance whose activations leave [0, 1] on both sides."""
    rng = np.random.Generator(np.random.PCG64(7))
    frames, height, width = 3, 6, 5
    pattern = PatternSpec("random-texture", 4, seed=7, channels=2)
    clip, _ = synth_translating_clip(pattern, (0.5, -0.25), frames, height, width)
    bank = init_bank(3, 2, 3, "linear-penalty", seed=57, scale=0.3)
    return {"bank": bank,
            "flow": VelocityField(rng.uniform(-1.5, 1.5, size=(frames, height, width, 2))),
            "bank_prev": bank.with_taps(bank.taps + rng.uniform(-0.05, 0.05, size=bank.taps.shape)),
            "data": clip.data, "weights": build_weights("exp:0.9", frames),
            "lam": Multipliers(motion=0.8, spatial=0.3, temporal=0.6, constraint=1.2),
            "dtau": 0.5}


def assert_terms_match_finite_differences(instance) -> dict:
    """Every term's tap gradient, and the step's, within 1e-5 of the central
    differences of the breakdown; returns the analytic gradients."""
    args = (instance["bank"], instance["bank_prev"],
            ActionInputs(instance["data"], instance["flow"], instance["weights"], instance["bank"]))
    lam, dtau = instance["lam"], instance["dtau"]
    numeric = finite_diff_breakdowns(*args, lam, dtau)
    analytic = term_gradients(*args, dtau)
    analytic["total"] = action_value_and_gradient(*args, lam, dtau)[1]
    for name, grad in analytic.items():
        err = np.abs(grad - numeric[name]) / (1.0 + np.abs(grad))
        assert err.max() <= 1e-5, name
    return analytic


class TestGradientOracle:
    def test_seeded_suite_passes(self):
        reports = run_gradient_check(count=20)
        assert len(reports) == 20
        assert {r["mode"] for r in reports} == {"softmax", "linear-penalty"}
        for report in reports:
            assert report["pass"], f"instance {report['instance']}: {report['max_rel_err']:.3e}"

    def test_terms_checked_in_isolation(self):
        # every term's own gradient agrees with the finite difference of that
        # term's breakdown value, independent of the multipliers
        reports = run_gradient_check(count=4)
        for report in reports:
            for term in ("info_index", "motion", "spatial", "temporal"):
                assert report[term] <= 1e-5

    def test_uniform_stationary_point(self):
        # zero bank -> uniform probabilities everywhere -> the index gradient
        # vanishes; verified against finite differences, not assumed
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=1), (0.5, 0), 4, 8, 8)
        bank = init_bank(3, 1, 3, "softmax", seed=0, scale=0.0)
        w = TemporalWeights.uniform(4)
        lam = Multipliers()  # A = -I only
        inputs = ActionInputs(clip, flow, w, bank)
        analytic = action_value_and_gradient(bank, bank, inputs, lam, 1.0)[1]
        numeric = finite_diff_breakdowns(bank, bank, inputs, lam, 1.0, eps=1e-5)["total"]
        assert np.abs(analytic).max() <= 1e-12
        assert np.abs(numeric).max() <= 1e-7

    def test_motion_gradient_zero_at_exact_transport(self):
        clip, flow = synth_translating_clip(PatternSpec("checkerboard", 8), (1, 0), 4, 16, 16)
        bank = init_bank(3, 1, 3, "softmax", seed=2, scale=0.4)
        w = TemporalWeights.uniform(4)
        grads = term_gradients(bank, bank, ActionInputs(clip, flow, w, bank), 1.0)
        assert np.abs(grads["motion"]).max() == 0.0

    def test_epsilon_halving_shrinks_error_quadratically(self):
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=2), (0.4, -0.3), 4, 10, 10)
        bank = init_bank(3, 1, 3, "softmax", seed=9, scale=0.2)
        prev = bank.with_taps(bank.taps + 0.03)
        w = TemporalWeights.uniform(4)
        lam = Multipliers(motion=1.0, spatial=0.5, temporal=0.5)
        inputs = ActionInputs(clip, flow, w, bank)
        analytic = action_value_and_gradient(bank, prev, inputs, lam, 0.3)[1]
        errors = []
        for eps in (4e-3, 2e-3, 1e-3):
            numeric = finite_diff_breakdowns(bank, prev, inputs, lam, 0.3, eps=eps)["total"]
            errors.append(np.abs(numeric - analytic).max())
        assert 3.0 <= errors[0] / errors[1] <= 5.0
        assert 3.0 <= errors[1] / errors[2] <= 5.0

    def test_eps_must_be_positive(self):
        clip, flow = synth_translating_clip(PatternSpec("sinusoid", 4), (0, 0), 2, 4, 4)
        bank = init_bank(2, 1, 3, "softmax", seed=0, scale=0.1)
        inputs = ActionInputs(clip, flow, TemporalWeights.uniform(2), bank)
        with pytest.raises(ValueError):
            finite_diff_breakdowns(bank, bank, inputs, Multipliers(), 1.0, eps=0.0)

    def test_gradient_composition_matches_weighted_terms(self):
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=4), (0.3, 0.2), 3, 8, 8)
        bank = init_bank(3, 1, 3, "linear-penalty", seed=5, scale=0.05)
        prev = bank.with_taps(bank.taps * 0.9)
        w = TemporalWeights.uniform(3)
        lam = Multipliers(motion=0.7, spatial=0.2, temporal=1.1, constraint=0.4)
        inputs = ActionInputs(clip, flow, w, bank)
        combined = action_value_and_gradient(bank, prev, inputs, lam, 0.6)[1]
        expected = weighted_terms(term_gradients(bank, prev, inputs, 0.6), lam)
        assert np.abs(combined - expected).max() <= 1e-12

    def test_finite_diff_breakdowns_cover_all_terms(self):
        clip, flow = synth_translating_clip(PatternSpec("random-texture", 4, seed=6), (0.5, 0), 3, 6, 6)
        bank = init_bank(2, 1, 3, "softmax", seed=7, scale=0.15)
        w = TemporalWeights.uniform(3)
        grads = finite_diff_breakdowns(bank, bank, ActionInputs(clip, flow, w, bank), Multipliers(), 1.0)
        assert set(grads) == {"info_index", "motion", "spatial", "temporal", "penalty", "total"}
        # softmax mode never produces a constraint penalty
        assert np.abs(grads["penalty"]).max() <= 1e-9

    @pytest.mark.parametrize("mode", ["softmax", "linear-penalty"])
    def test_wide_kernel_multichannel_discounted_subpixel(self, mode):
        # K=5, m=3, exp:0.9 weights and per-pixel sub-pixel flow, which the
        # seeded suite (K=3 throughout) never combines
        rng = np.random.Generator(np.random.PCG64(77))
        frames, height, width = 4, 7, 6
        pattern = PatternSpec("random-texture", 4, seed=8, channels=3)
        clip, _ = synth_translating_clip(pattern, (0.5, -0.25), frames, height, width)
        flow = VelocityField(rng.uniform(-1.5, 1.5, size=(frames, height, width, 2)))
        bank = init_bank(3, 3, 5, mode, seed=21, scale=0.02 if mode == "linear-penalty" else 0.1)
        prev = bank.with_taps(bank.taps + rng.uniform(-0.05, 0.05, size=bank.taps.shape))
        w = build_weights("exp:0.9", frames)
        lam = Multipliers(motion=1.3, spatial=0.4, temporal=0.7,
                          constraint=0.9 if mode == "linear-penalty" else 0.0)
        dtau = 0.4
        if mode == "linear-penalty":
            # a projection kink within reach of the finite-difference step
            # would invalidate the oracle, as in run_gradient_check
            assert _clamp_margin({"bank": bank, "data": clip.data}) >= 1e-4

        inputs = ActionInputs(clip, flow, w, bank)
        analytic = action_value_and_gradient(bank, prev, inputs, lam, dtau)[1]
        numeric = finite_diff_breakdowns(bank, prev, inputs, lam, dtau)["total"]
        assert (np.abs(analytic - numeric) / (1.0 + np.abs(analytic))).max() <= 1e-5

        composed = weighted_terms(term_gradients(bank, prev, inputs, dtau), lam)
        assert np.abs(composed - analytic).max() <= 1e-12

    def test_linear_penalty_beyond_the_clamp(self):
        # activations on both sides of [0, 1], so the projection's inactive
        # branch and both penalty excesses carry gradient; the seeded suite
        # keeps every activation inside the clamp's active range
        instance = beyond_the_clamp_instance()
        act = convolve_features(instance["bank"], instance["data"])
        assert np.mean(act < 0.0) > 0.05 and np.mean(act > 1.0) > 0.05
        # no kink within reach of the finite-difference step
        assert min(np.abs(act - kink).min() for kink in (0.0, CLAMP_EPS, 1.0)) >= 1e-4
        analytic = assert_terms_match_finite_differences(instance)
        for name, grad in analytic.items():
            assert np.abs(grad).max() > 0.0, name


@pytest.mark.parametrize("case", ["instance0", "instance1", "instance2", "instance3",
                                  "beyond-the-clamp"])
def test_streamed_patches_match_finite_differences(monkeypatch, case):
    # every check-grad instance keeps its patch matrix; under a budget below
    # one frame the convolution and its adjoint stream their patches instead
    monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 1)
    instance = (beyond_the_clamp_instance() if case == "beyond-the-clamp"
                else gradient_check_instances(4)[int(case[-1])])
    assert_terms_match_finite_differences(instance)
    inputs = ActionInputs(instance["data"], instance["flow"], instance["weights"], instance["bank"])
    assert inputs.patches is None
