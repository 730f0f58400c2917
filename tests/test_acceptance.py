"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The frozen step size (1.0) comes from the documented 3-point grid
search over {1e-2, 1e-1, 1} on the descent instance; see README.
"""

import csv
import functools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cogaction import (
    ActionInputs,
    Multipliers,
    PatternSpec,
    TemporalWeights,
    TrainConfig,
    TrainTrace,
    VideoClip,
    cognitive_action,
    convolve_features,
    evaluate_bank,
    init_bank,
    load_bank,
    stack_layers,
    synth_translating_clip,
    to_probabilities,
    train_layer,
)
from cogaction import features
from cogaction.action import BREAKDOWN_CSV_HEADER, _WarpPlan, action_value_and_gradient
from cogaction.cli import main
from cogaction.features import convolution_tap_gradient
from cogaction.optimizer import run_gradient_check
from dense_oracle import dense_kernel_oracle, dense_table_from_bank
from identity_probe import identity_probe
from objective_oracle import streamed_motion

FROZEN_STEP_SIZE = 1.0
A3_STEPS = 600
TERMS = BREAKDOWN_CSV_HEADER.split(",")[1:]

# Pinned training numbers: every REFERENCE_EVERY-th breakdown row, the final
# breakdown and the final taps of the A3 and A4 runs, held to REFERENCE_REL
# relative (REFERENCE_ABS absolute for values at or near 0).  A linear-penalty
# run amplifies a change of summation order about fivefold per step, so of it
# only every row of the first LINEAR_PREFIX_STEPS steps is pinned: the drift
# passes REFERENCE_REL some steps later.
REFERENCE_TRACES = Path(__file__).with_name("reference_traces.json")
REFERENCE_EVERY = 50
REFERENCE_REL = 1e-9
REFERENCE_ABS = 1e-14
LINEAR_PREFIX_STEPS = 10
A4_REPORT_LAM = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)

A3_CONFIG = f"""
[data]
source = synth
pattern = random-texture
period = 8
seed = 7
channels = 1
frames = 16
height = 32
width = 32
velocity = 1.0 0.0

[flow]
source = ground-truth

[train]
steps = {A3_STEPS}
step_size = {FROZEN_STEP_SIZE}
lambda_m = 1.0
lambda_p = 0.001
lambda_k = 0.001
seed = 12345
init_scale = 0.1

[layer1]
n = 4
k = 3

[output]
dir = out
save_features = false
"""


def report(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{criterion}: {detail}"


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file() and p.name != ".lock"}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def a3_runs(tmp_path_factory):
    """The descent instance, trained twice from the CLI for bit-identity."""
    root = tmp_path_factory.mktemp("a3")
    config = root / "a3.ini"
    config.write_text(A3_CONFIG, encoding="utf-8")
    outs = []
    start = time.monotonic()
    for name in ("run1", "run2"):
        out = root / name
        code = main(["train", "--config", str(config), "--out", str(out)])
        assert code == 0, f"A3 CLI training exited {code}"
        outs.append(out)
    return outs, (time.monotonic() - start) / 2.0


def traced_numbers(rows, final, taps, every=REFERENCE_EVERY):
    """The pinned numbers of one run, in the layout of REFERENCE_TRACES."""
    return {"rows": {str(step): [float(v) for v in rows[step]]
                     for step in range(0, len(rows), every)},
            "final_breakdown": [float(v) for v in final],
            "final_taps": [float(v) for v in np.ravel(taps)]}


def cli_run_numbers(out):
    """``traced_numbers`` of a one-layer CLI training tree."""
    rows = [[r[t] for t in TERMS] for r in read_rows(out / "layer1_trace.csv")]
    final = next(r for r in read_rows(out / "summary.csv") if r["phase"] == "final")
    return traced_numbers(rows, [final[t] for t in TERMS], load_bank(out / "layer1_bank.txt").taps)


def trace_numbers(trace, every=REFERENCE_EVERY):
    """``traced_numbers`` of a ``TrainTrace``."""
    return traced_numbers([b.values() for b in trace.breakdowns],
                          trace.final_breakdown.values(), trace.final_bank.taps, every)


def test_a1_gradient_oracle():
    start = time.monotonic()
    reports = run_gradient_check(count=20)
    elapsed = time.monotonic() - start
    worst = max(r["max_rel_err"] for r in reports)
    terms_ok = all(r[t] <= 1e-5 for r in reports
                   for t in ("info_index", "motion", "spatial", "temporal", "penalty"))
    modes = {r["mode"] for r in reports}
    ok = (len(reports) == 20 and all(r["pass"] for r in reports) and terms_ok
          and modes == {"softmax", "linear-penalty"} and elapsed <= 60.0)
    report("A1", ok, f"20 instances, terms jointly and in isolation, "
                     f"max rel err {worst:.2e} <= 1e-5", elapsed)


def test_a2_exact_transport(monkeypatch):
    # M as the training step computes it: from the motion term's matrix G,
    # which must be exactly 0
    start = time.monotonic()
    worst = 0.0
    gram_zero = True
    for velocity in ((1, 0), (-1, 1)):
        clip, flow = synth_translating_clip(PatternSpec("checkerboard", 8), velocity, 6, 24, 24)
        banks = [init_bank(4, 1, 3, "softmax", seed=seed, scale=0.5) for seed in range(10)]
        inputs = ActionInputs(clip, flow, TemporalWeights.uniform(6), banks[0])
        gram_zero &= not inputs.gram.any()
        for bank in banks:
            motion = cognitive_action(bank, bank, inputs, Multipliers(), 1.0).motion
            worst = max(worst, motion)
    # multi-channel clips on the full retina under patch budgets of 1, 3 and
    # 16 frames: the convolution streams row patches frame by frame under the
    # first two and keeps the whole clip's matrix under the last; inputs decide
    # once whether to keep it, so each budget gets its own inputs and G
    zero = 0
    for m_in, kernel in ((3, 5), (8, 3)):
        # a frame's patch rows and its ones row
        frame_bytes = 64 * 64 * (m_in * kernel * kernel + 1) * 8
        for velocity in ((1, 0), (-1, 1)):
            clip, flow = synth_translating_clip(
                PatternSpec("random-texture", 16, seed=m_in, channels=m_in), velocity, 16, 64, 64)
            for chunk in (1, 3, 16):
                monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", chunk * frame_bytes)
                banks = [init_bank(4, m_in, kernel, "softmax", seed=seed, scale=0.5)
                         for seed in range(3)]
                inputs = ActionInputs(clip, flow, TemporalWeights.uniform(16), banks[0])
                zero += not inputs.gram.any()
                for bank in banks:
                    motion = cognitive_action(bank, bank, inputs, Multipliers(), 1.0).motion
                    worst = max(worst, motion)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-18 and elapsed <= 5.0 and zero == 12 and gram_zero
    report("A2", ok, f"the step's M on integer-translating clips, 2 velocities: "
                     f"checkerboard x 10 banks (G exactly 0: {gram_zero}), "
                     f"64x64x16 (m=3, K=5) and (m=8, K=3) x 3 banks x 3 patch budgets "
                     f"({zero} of 12 with G exactly 0), "
                     f"max M {worst:.1e} <= 1e-18", elapsed)


def test_a3_descent_and_index(a3_runs):
    outs, elapsed = a3_runs
    out = outs[0]
    trace = read_rows(out / "layer1_trace.csv")
    summary = read_rows(out / "summary.csv")
    initial = next(r for r in summary if r["phase"] == "initial")
    final = next(r for r in summary if r["phase"] == "final")

    m_ok = float(final["M"]) <= 0.5 * float(initial["M"])
    # the flow is integer, so G is exactly 0 and so is M at every step: the
    # halving above cannot fail on this clip (A4 has sub-pixel flow)
    m_zero = all(float(r["M"]) == 0.0 for r in trace)
    i_ok = float(final["I"]) >= float(initial["I"]) - 1e-6
    totals = [float(r["A"]) for r in trace]
    worst_rise = max(totals[k + 1] - totals[k] for k in range(len(totals) - 1))
    descent_ok = worst_rise <= 1e-9
    ok = (m_ok and m_zero and i_ok and descent_ok and len(trace) == A3_STEPS
          and elapsed <= 300.0)
    report("A3", ok,
           f"eta={FROZEN_STEP_SIZE} frozen from grid search, {A3_STEPS} steps: "
           f"M {float(initial['M']):.2e}->{float(final['M']):.2e}, "
           f"M exactly 0 on every row (integer flow): {m_zero}, "
           f"I {float(initial['I']):.4f}->{float(final['I']):.4f}, "
           f"worst per-step rise {worst_rise:.2e} <= 1e-9", elapsed)


def a4_clip(seed):
    """(clip, flow) of the A4 setup: seed 7 trains, seed 8 is held out, a
    fresh texture from the same pattern family.  The velocity is sub-pixel,
    so transport is inexact and the motion term has teeth."""
    return synth_translating_clip(PatternSpec("random-texture", 8, seed=seed), (0.5, 0.25),
                                  16, 32, 32)


def a4_train(lam_m, steps=A3_STEPS):
    """The A4 softmax run at ``lambda_m``: the trace of ``steps`` steps."""
    lam = Multipliers(motion=lam_m, spatial=1e-3, temporal=1e-3)
    config = TrainConfig(step_size=FROZEN_STEP_SIZE, steps=steps, lam=lam,
                         mode="softmax", seed=12345, init_scale=0.1)
    bank = init_bank(4, 1, 3, "softmax", seed=config.seed, scale=config.init_scale)
    return train_layer(bank, *a4_clip(7), config)


def a4_held_out(bank):
    """The breakdown of a bank on the held-out clip; its M and I do not
    depend on the multipliers it is reported under."""
    clip, flow = a4_clip(8)
    return evaluate_bank(bank, clip.data, flow, TemporalWeights.uniform(16),
                         A4_REPORT_LAM, FROZEN_STEP_SIZE)


@pytest.fixture(scope="module")
def a4_runs():
    """The ablation pair, trained once: the motion-on and motion-off traces and
    their held-out breakdowns."""
    start = time.monotonic()
    traces = {"motion-on": a4_train(1.0), "motion-off": a4_train(0.0)}
    held_out = {label: a4_held_out(trace.final_bank) for label, trace in traces.items()}
    return traces, held_out, time.monotonic() - start


def test_a4_motion_invariance_ablation(a4_runs, tmp_path):
    _, held_out, elapsed = a4_runs
    rows = [f"run,{BREAKDOWN_CSV_HEADER.split(',', 1)[1]}"]
    for label, breakdown in held_out.items():
        rows.append(f"{label}," + breakdown.csv_row(0).split(",", 1)[1])
    (tmp_path / "summary.csv").write_text("\n".join(rows) + "\n", encoding="ascii")

    m_on = held_out["motion-on"].motion
    m_off = held_out["motion-off"].motion
    ratio_ok = 2.0 * m_on <= m_off
    indices_reported = all(math.isfinite(b.info_index) for b in held_out.values())
    ok = ratio_ok and indices_reported and elapsed <= 600.0
    report("A4", ok,
           f"held-out M: on {m_on:.3e} vs off {m_off:.3e} "
           f"({m_off / max(m_on, 1e-300):.0f}x), I on {held_out['motion-on'].info_index:.4f} "
           f"vs off {held_out['motion-off'].info_index:.4f} in summary.csv", elapsed)


def test_a5_oracle_equivalences(a3_runs, tmp_path):
    start = time.monotonic()
    outs, _ = a3_runs

    dense_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        clip = VideoClip(rng.uniform(size=(3, 4, 4, 2)))
        bank = init_bank(3, 2, 3, "softmax", seed=seed, scale=0.5)
        table = dense_table_from_bank(bank, 4, 4)
        diff = np.abs(convolve_features(bank, clip) - dense_kernel_oracle(table, clip)).max()
        dense_worst = max(dense_worst, diff)

    rng = np.random.default_rng(99)
    clip = VideoClip(rng.uniform(size=(3, 6, 6, 1)))
    b1 = init_bank(3, 1, 3, "softmax", seed=1, scale=0.3)
    b2 = init_bank(4, 3, 3, "softmax", seed=2, scale=0.3, layer=2)
    fields = stack_layers([b1, b2], clip)
    f1 = to_probabilities(convolve_features(b1, clip), "softmax")
    f2 = to_probabilities(convolve_features(b2, f1), "softmax")
    stack_worst = max(np.abs(fields[0] - f1).max(), np.abs(fields[1] - f2).max())

    run = outs[0]
    config = run.parent / "a3.ini"
    eval_out = tmp_path / "eval"
    code = main(["eval", "--config", str(config), "--bank", str(run / "layer1_bank.txt"),
                 "--out", str(eval_out)])
    assert code == 0
    final = read_rows(run / "summary.csv")[1]
    evaluated = read_rows(eval_out / "eval.csv")[0]
    eval_worst = max(abs(float(final[k]) - float(evaluated[k]))
                     for k in ("S_Y", "S_cond", "I", "M", "P", "K", "C_pen", "A"))

    elapsed = time.monotonic() - start
    ok = dense_worst <= 1e-12 and stack_worst <= 1e-12 and eval_worst <= 1e-12
    report("A5", ok, f"dense-kernel {dense_worst:.1e}, stacking {stack_worst:.1e}, "
                     f"eval-vs-final-trace {eval_worst:.1e}, all <= 1e-12", elapsed)


def test_a6_invariant_suites(a3_runs):
    start = time.monotonic()
    outs, _ = a3_runs
    rng = np.random.default_rng(0)

    entropy_ok = True
    weights = TemporalWeights.uniform(3)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        raw = rng.uniform(1e-6, 1.0, size=(3, 5, 5, n))
        field = raw / raw.sum(axis=-1, keepdims=True)
        s_cond = -np.sum(np.log(field) * field, axis=-1)
        entropy_ok &= bool(0.0 <= s_cond.min() and s_cond.max() <= math.log(n) + 1e-12)
        probe = identity_probe(field, weights)
        entropy_ok &= all(0.0 <= s <= math.log(n) + 1e-12
                          for s in (probe.marginal_entropy, probe.conditional_entropy))
        index = probe.info_index
        entropy_ok &= bool(-math.log(n) - 1e-12 <= index <= math.log(n) + 1e-12)

    simplex_worst = 0.0
    for mode in ("softmax", "linear-penalty"):
        act = rng.uniform(-3.0, 3.0, size=(3, 6, 6, 4))
        probs = to_probabilities(act, mode)
        simplex_worst = max(simplex_worst, np.abs(probs.sum(axis=-1) - 1.0).max())

    clip, _ = synth_translating_clip(PatternSpec("random-texture", 8, seed=4), (0, 0), 2, 12, 12)
    bank = init_bank(3, 1, 3, "softmax", seed=6, scale=0.3)
    base = convolve_features(bank, clip)
    shift_ok = True
    for _ in range(8):
        s1, s2 = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        shifted = convolve_features(bank, np.roll(clip.data, (s2, s1), axis=(1, 2)))
        shift_ok &= bool(np.array_equal(shifted, np.roll(base, (s2, s1), axis=(1, 2))))

    scale_clip, scale_flow = synth_translating_clip(
        PatternSpec("random-texture", 4, seed=9), (0.5, 0.25), 4, 8, 8)
    scale_bank = init_bank(3, 1, 3, "softmax", seed=10, scale=0.2)
    lam = Multipliers(motion=1.0, spatial=0.5, temporal=0.5)
    h = np.array([1.0, 0.5, 2.0, 1.5])
    a = cognitive_action(scale_bank, scale_bank,
                         ActionInputs(scale_clip, scale_flow, TemporalWeights(h), scale_bank),
                         lam, 0.5)
    b = cognitive_action(scale_bank, scale_bank,
                         ActionInputs(scale_clip, scale_flow, TemporalWeights(h * 41.0), scale_bank),
                         lam, 0.5)
    measure_worst = max(abs(x - y) for x, y in zip(a.values(), b.values()))

    rerun_ok = read_tree(outs[0]) == read_tree(outs[1])

    elapsed = time.monotonic() - start
    ok = (entropy_ok and simplex_worst <= 1e-9 and shift_ok
          and measure_worst <= 1e-12 and rerun_ok)
    report("A6", ok,
           f"entropy bounds on 100 fields, simplex {simplex_worst:.1e} <= 1e-9, "
           f"8 exact shifts, measure rescaling {measure_worst:.1e} <= 1e-12, "
           f"bit-identical CLI reruns of the descent instance", elapsed)


LINEAR_LAM = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3, constraint=1.0)
LINEAR_STEP_SIZE = 0.03


def linear_penalty_run(steps):
    """A linear-penalty run on the A4 training clip, at step 0.03 with
    lambda_c = 1."""
    config = TrainConfig(step_size=LINEAR_STEP_SIZE, steps=steps, lam=LINEAR_LAM,
                         mode="linear-penalty", seed=12345, init_scale=0.1)
    bank = init_bank(4, 1, 3, "linear-penalty", seed=config.seed, scale=config.init_scale)
    return train_layer(bank, *a4_clip(7), config)


@pytest.fixture(scope="module")
def linear_penalty_prefix():
    """The first LINEAR_PREFIX_STEPS steps of the linear-penalty run."""
    return linear_penalty_run(LINEAR_PREFIX_STEPS)


def test_reference_traces(a3_runs, a4_runs, linear_penalty_prefix):
    start = time.monotonic()
    reference = json.loads(REFERENCE_TRACES.read_text(encoding="ascii"))
    runs = {"A3": cli_run_numbers(a3_runs[0][0]),
            "subpixel linear-penalty": trace_numbers(linear_penalty_prefix, every=1)}
    runs.update((f"A4 {label}", trace_numbers(trace)) for label, trace in a4_runs[0].items())
    assert sorted(runs) == sorted(reference["runs"])

    worst = 0.0  # largest deviation as a fraction of its allowance
    for name, expected in reference["runs"].items():
        got = runs[name]
        assert got["rows"].keys() == expected["rows"].keys(), name
        pairs = [(got["final_breakdown"], expected["final_breakdown"]),
                 (got["final_taps"], expected["final_taps"])]
        pairs += [(got["rows"][step], row) for step, row in expected["rows"].items()]
        for values, pinned in pairs:
            assert len(values) == len(pinned), name
            for value, ref in zip(values, pinned):
                allowance = max(REFERENCE_REL * abs(ref), REFERENCE_ABS)
                worst = max(worst, abs(value - ref) / allowance)
    elapsed = time.monotonic() - start
    report("REF", worst <= 1.0,
           f"A3 and A4 trace rows every {REFERENCE_EVERY} steps, the first "
           f"{LINEAR_PREFIX_STEPS} linear-penalty rows, final breakdowns and taps "
           f"within {REFERENCE_REL:.0e} relative (floor {REFERENCE_ABS:.0e}) of "
           f"{REFERENCE_TRACES.name}: worst at {worst:.2e} of the allowance", elapsed)


def a4_streamed_motion_train(lam_m):
    """``a4_train`` with the motion term taken along the warp plan: each
    step's M and M's tap gradient come from the transport residual
    (``_WarpPlan.gather``), its adjoint (``_WarpPlan.scatter``) and the
    convolution's tap adjoint, the other terms from the step at lambda_m = 0.
    The same descent as ``train_layer``; a ``TrainTrace`` without grad_norms."""
    lam = Multipliers(motion=lam_m, spatial=1e-3, temporal=1e-3)
    rest = Multipliers(spatial=lam.spatial, temporal=lam.temporal)
    config = TrainConfig(step_size=FROZEN_STEP_SIZE, steps=A3_STEPS, lam=lam,
                         mode="softmax", seed=12345, init_scale=0.1)
    clip, flow = a4_clip(7)
    weights = TemporalWeights.uniform(16)
    current = previous = init_bank(4, 1, 3, "softmax", seed=config.seed,
                                   scale=config.init_scale)
    inputs = ActionInputs(clip, flow, weights, current)
    plan = _WarpPlan(flow)
    measure = weights.residual_measure(32, 32)
    dtau = config.effective_dtau()

    def evaluate(bank, prev):
        breakdown, grad = action_value_and_gradient(bank, prev, inputs, rest, dtau)
        act = convolve_features(bank, clip).transpose(3, 0, 1, 2)
        motion, act_grad = streamed_motion(plan, act, measure)
        grad += lam_m * convolution_tap_gradient(clip, act_grad.transpose(1, 2, 3, 0), 3)
        return replace(breakdown, motion=motion, total=breakdown.total + lam_m * motion), grad

    breakdowns = []
    for _ in range(config.steps):
        breakdown, grad = evaluate(current, previous)
        breakdowns.append(breakdown)
        previous = current
        current = current.with_taps(current.taps - config.step_size * grad)
    return TrainTrace(breakdowns, [], current, evaluate(current, current)[0])


def test_a4_streamed_run_matches_kept(a4_runs, monkeypatch):
    # the whole 600-step motion-on run again, on inputs that stream row
    # patches frame by frame, with M and its gradient taken by gather and
    # scatter along the warp plan instead of from G
    start = time.monotonic()
    kept = a4_runs[0]["motion-on"]
    monkeypatch.setattr(features, "PATCH_CHUNK_BYTES", 1)
    assert ActionInputs(*a4_clip(7), TemporalWeights.uniform(16), kept.final_bank).patches is None
    streamed = a4_streamed_motion_train(1.0)
    rows = zip(kept.breakdowns + [kept.final_breakdown],
               streamed.breakdowns + [streamed.final_breakdown], strict=True)
    row_worst = max(max(abs(a - b) for a, b in zip(k.values(), s.values()))
                    / max(abs(v) for v in k.values()) for k, s in rows)
    taps = kept.final_bank.taps
    taps_worst = np.abs(streamed.final_bank.taps - taps).max() / np.abs(taps).max()
    elapsed = time.monotonic() - start
    report("PARITY", row_worst <= 1e-12 and taps_worst <= 1e-12,
           f"A4 motion-on, {A3_STEPS} steps from G vs gather and scatter on streamed "
           f"patches: every trace row within "
           f"{row_worst:.1e} of its largest |term|, final taps {taps_worst:.1e} relative, "
           f"both <= 1e-12", elapsed)


def smallest_hessian_eigenvalue(bank, lam, dtau, eps=1e-6):
    """Smallest eigenvalue of the symmetrized Hessian of the step's analytic
    tap gradient at ``bank`` on the A4 training clip, by central differences.
    The temporal term's Hessian, lam_k / dtau^2, is the same for any previous
    bank, so the bank is its own."""
    inputs = ActionInputs(*a4_clip(7), TemporalWeights.uniform(16), bank)
    flat = bank.taps.ravel()
    columns = []
    for index in range(flat.size):
        grads = []
        for sign in (1.0, -1.0):
            taps = flat.copy()
            taps[index] += sign * eps
            probe = bank.with_taps(taps.reshape(bank.taps.shape))
            grads.append(action_value_and_gradient(probe, bank, inputs, lam, dtau)[1].ravel())
        columns.append((grads[0] - grads[1]) / (2.0 * eps))
    hessian = np.array(columns)
    return float(np.linalg.eigvalsh(0.5 * (hessian + hessian.T))[0])


def test_linear_penalty_drift_is_negative_curvature():
    # a perturbation along the Hessian's lowest eigenvector grows by
    # 1 + step * |lambda_min| per descent step: more than fourfold by step 15
    # of the linear-penalty run, where the clamp cuts into -I, while the
    # softmax A4 run stays within 5% of neutral
    start = time.monotonic()
    linear = LINEAR_STEP_SIZE * abs(smallest_hessian_eigenvalue(
        linear_penalty_run(15).final_bank, LINEAR_LAM, LINEAR_STEP_SIZE))
    softmax = [FROZEN_STEP_SIZE * abs(smallest_hessian_eigenvalue(
        a4_train(1.0, steps).final_bank, A4_REPORT_LAM, FROZEN_STEP_SIZE))
        for steps in (0, 5, 10, 15)]
    elapsed = time.monotonic() - start
    report("DRIFT", linear > 3.0 and max(softmax) < 0.05,
           f"step * |lambda_min| of the central-difference Hessian: linear-penalty "
           f"{linear:.2f} > 3 at step 15, softmax A4 at most {max(softmax):.3f} < 0.05 at "
           f"steps 0, 5, 10, 15", elapsed)


# held-out (I, M) of the A4 run's final bank at three values of lambda_m
HELD_OUT_TRADE_OFF = {
    0.0: (0.3468408982227898, 1.828749411319118),
    0.1: (0.26411688819023027, 0.9804410271422039),
    1.0: (0.010355869618052793, 0.004751435479920825),
}


@functools.cache
def a4_final_bank(lam_m):
    """The final bank of ``a4_train(lam_m)``, trained once per test run."""
    return a4_train(lam_m).final_bank


def test_held_out_trade_off(a4_runs):
    start = time.monotonic()
    held_out = {0.0: a4_runs[1]["motion-off"],
                0.1: a4_held_out(a4_final_bank(0.1)),
                1.0: a4_runs[1]["motion-on"]}
    got = {lam_m: (b.info_index, b.motion) for lam_m, b in held_out.items()}
    pinned = all(abs(value - ref) <= 1e-9 * abs(ref)
                 for lam_m, refs in HELD_OUT_TRADE_OFF.items()
                 for value, ref in zip(got[lam_m], refs))
    index = [got[lam_m][0] for lam_m in sorted(got)]
    falls = all(a > b for a, b in zip(index, index[1:]))
    elapsed = time.monotonic() - start
    report("TRADE", pinned and falls,
           "held-out I, M at lambda_m = 0, 0.1, 1: "
           + ", ".join(f"{i:.4f}, {m:.4f}" for i, m in (got[k] for k in sorted(got)))
           + " within 1e-9 of the pinned values; I falls as lambda_m rises", elapsed)


# Held-out (I, M) at equal invariance on the A4 setup.  Per lambda_m: the
# motion-on bank, and the best motion-off checkpoint of no larger M, with its
# step.  The motion-off run is checkpointed every FRONTIER_EVERY steps, each
# checkpoint a fresh ``train_layer`` from the last, so its temporal-parsimony
# reference restarts there.  The control trades I for M by spatial
# smoothing instead: lambda_m = 0, lambda_p = CONTROL_LAMBDA_P.
FRONTIER_EVERY = 10
EQUAL_M_FRONTIER = {
    0.1: ((0.26411688819023016, 0.9804410271422034), (0.2538116027039172, 0.9348963778956534, 360)),
    0.3: ((0.09173943867846701, 0.2076755846417414), (0.08131536306514364, 0.1891994275243825, 220)),
}
CONTROL_LAMBDA_P = 0.03
CONTROL_HELD_OUT = (0.01090238894068396, 0.011631518480071911)
# a collapsed bank carries under 1.5% of the log 4 nats that 4 features can
COLLAPSED_I = 0.02


def test_motion_term_beats_equal_m_frontier():
    start = time.monotonic()
    clip, flow = a4_clip(8)
    initial = init_bank(4, 1, 3, "softmax", seed=12345, scale=0.1)
    held = ActionInputs(clip.data, flow, TemporalWeights.uniform(16), initial)

    def held_out(bank):
        breakdown = cognitive_action(bank, bank, held, A4_REPORT_LAM, FROZEN_STEP_SIZE)
        return breakdown.info_index, breakdown.motion

    off = TrainConfig(step_size=FROZEN_STEP_SIZE, steps=FRONTIER_EVERY,
                      lam=Multipliers(spatial=1e-3, temporal=1e-3), seed=12345)
    checkpoints = [(*held_out(initial), 0)]
    bank = initial
    for step in range(FRONTIER_EVERY, A3_STEPS + 1, FRONTIER_EVERY):
        bank = train_layer(bank, *a4_clip(7), off).final_bank
        checkpoints.append((*held_out(bank), step))
    got = {}
    for lam_m in EQUAL_M_FRONTIER:
        on = held_out(a4_final_bank(lam_m))
        below = [point for point in checkpoints if point[1] <= on[1]]
        got[lam_m] = (on, max(below) if below else None)
    control_config = replace(off, steps=A3_STEPS,
                             lam=Multipliers(spatial=CONTROL_LAMBDA_P, temporal=1e-3))
    control = held_out(train_layer(initial, *a4_clip(7), control_config).final_bank)

    def close(values, refs):
        return all(abs(value - ref) <= 1e-9 * abs(ref) for value, ref in zip(values, refs))

    pinned = close(control, CONTROL_HELD_OUT) and all(
        best is not None and best[2] == ref_best[2] and close(on + best[:2], ref_on + ref_best[:2])
        for (on, best), (ref_on, ref_best) in zip(got.values(), EQUAL_M_FRONTIER.values()))
    above = all(best is not None and on[0] > best[0] for on, best in got.values())
    collapsed = control[0] < COLLAPSED_I and all(
        control[1] <= on[1] and control[0] < on[0] for on, _ in got.values())
    elapsed = time.monotonic() - start
    report("FRONTIER", pinned and above and collapsed,
           "held-out I of the motion-on bank vs the best motion-off checkpoint of no larger M: "
           + ", ".join(f"lambda_m {lam_m}: {on[0]:.4f} vs {best[0]:.4f} (step {best[2]})"
                       for lam_m, (on, best) in got.items() if best is not None)
           + f"; lambda_p {CONTROL_LAMBDA_P} control collapses to I {control[0]:.4f} at "
           f"M {control[1]:.4f}; all within 1e-9 of the pinned values", elapsed)
