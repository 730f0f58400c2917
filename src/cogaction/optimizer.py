"""Discrete gradient flow on the objective, layer by layer, plus the
finite-difference gradient oracle.

Training is plain gradient descent: the temporal-parsimony term already damps
the iterate trajectory, and an unadorned update keeps the analytic-vs-numeric
gradient comparison authoritative.  Deep stacks train greedily: a layer's
filters are frozen before the next layer sees its feature field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .action import (
    ActionBreakdown,
    ActionInputs,
    Multipliers,
    TemporalWeights,
    action_value_and_gradient,
    cognitive_action,
)
# nothing here calls to_probabilities; the benchmark under perfbench/ patches
# it in this module by name
from .features import (CLAMP_EPS, FilterBank, as_grid, check_bank_spec,  # noqa: F401
                       convolve_features, stack_layers, to_probabilities)
from .flow import VelocityField
from .video import PatternSpec, synth_translating_clip


class DivergenceError(RuntimeError):
    """Raised when the action or its gradient turns non-finite mid-run."""


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one layer's gradient-flow run, each read by ``train_layer``.

    Each default is what an experiment file's omitted key parses to.  ``dtau``
    (the tap-velocity time step) defaults to the step size; ``window`` restricts
    evaluation to the first ``window`` frames and defaults to the whole clip.
    ``weighting`` selects the temporal factor: "uniform" or "exp:<gamma>".
    """

    step_size: float = 0.1
    steps: int = 100
    lam: Multipliers = Multipliers(motion=1.0, spatial=1e-3, temporal=1e-3)
    dtau: float | None = None
    window: int | None = None
    weighting: str = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step size must be finite and > 0, got {self.step_size}")
        if self.steps < 0:
            raise ValueError(f"step count must be >= 0, got {self.steps}")
        if self.dtau is not None and not (math.isfinite(self.dtau) and self.dtau > 0.0):
            raise ValueError(f"dtau must be finite and > 0, got {self.dtau}")
        if self.window is not None and self.window < 2:
            raise ValueError(f"evaluation window must cover >= 2 frames, got {self.window}")
        build_weights(self.weighting, 2)  # validate eagerly

    def effective_dtau(self) -> float:
        return self.step_size if self.dtau is None else self.dtau


@dataclass(frozen=True)
class LayerPlan:
    """One layer of a deep run: its bank's shape, start and training settings."""

    features: int
    kernel: int
    config: TrainConfig
    mode: str = "softmax"
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        check_bank_start(self.features, 1, self.kernel, self.mode, self.seed, self.init_scale)

    def initial_bank(self, m_in: int, layer: int = 1) -> FilterBank:
        """The layer's starting bank over ``m_in`` input channels."""
        return init_bank(self.features, m_in, self.kernel, self.mode, self.seed,
                         self.init_scale, layer)


@dataclass
class TrainTrace:
    """Per-step breakdowns (recorded before each update), gradient max-norms,
    the bank after the final update and its standalone breakdown (K = 0).
    ``train_deep`` adds ``field``, the final bank's probability field over the
    layer's input, to every layer that a next layer trained on."""

    breakdowns: list[ActionBreakdown]
    grad_norms: list[float]
    final_bank: FilterBank
    final_breakdown: ActionBreakdown
    field: np.ndarray | None = None


def build_weights(spec: str, frames: int) -> TemporalWeights:
    """Temporal weights from a spec: "uniform" or "exp:<gamma>"."""
    if spec == "uniform":
        return TemporalWeights.uniform(frames)
    if spec.startswith("exp:"):
        try:
            gamma = float(spec[4:])
        except ValueError as exc:
            raise ValueError(f"bad temporal weighting {spec!r}") from exc
        return TemporalWeights.exponential(frames, gamma)
    raise ValueError(f"unknown temporal weighting {spec!r}, expected 'uniform' or 'exp:<gamma>'")


def check_bank_start(n: int, m_in: int, kernel: int, mode: str, seed: int, scale: float) -> None:
    """Reject what ``init_bank`` would draw no bank from, without drawing."""
    check_bank_spec(n, m_in, kernel, kernel, mode)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"init scale must be finite and >= 0, got {scale}")


def init_bank(n: int, m_in: int, kernel: int, mode: str, seed: int,
              scale: float = LayerPlan.init_scale, layer: int = 1) -> FilterBank:
    """Taps i.i.d. uniform in [-scale, scale] from a PCG64 stream seeded with
    ``seed``, so equal seeds give bit-identical banks on every platform."""
    check_bank_start(n, m_in, kernel, mode, seed, scale)
    rng = np.random.Generator(np.random.PCG64(seed))
    taps = rng.uniform(-scale, scale, size=(n, m_in, kernel, kernel))
    return FilterBank(taps, mode=mode, layer=layer)


def _windowed(data: np.ndarray, flow: VelocityField, config: TrainConfig):
    frames = data.shape[0]
    window = frames if config.window is None else config.window
    if window > frames:
        raise ValueError(f"evaluation window {window} exceeds the clip's {frames} frames")
    return data[:window], VelocityField(flow.data[:window]), build_weights(config.weighting, window)


def train_layer(bank: FilterBank, data, flow: VelocityField, config: TrainConfig) -> TrainTrace:
    """Minimize the objective by gradient descent from the given bank.

    Each step records the breakdown at the current iterate, then moves
    ``-step_size * gradient``.  The temporal-parsimony reference is the
    previous iterate (the initial bank at step 0, so K starts at 0).  The
    final bank is evaluated once more as its own predecessor, as
    ``evaluate_bank`` would on the same inputs.  An iterate is not checked
    again by ``FilterBank``: the step raises ``DivergenceError`` on a
    non-finite action, gradient or updated taps.
    """
    inputs = ActionInputs(*_windowed(as_grid(data), flow, config), bank)
    dtau = config.effective_dtau()
    current = previous = bank
    breakdowns: list[ActionBreakdown] = []
    grad_norms: list[float] = []
    # divergence is detected explicitly below; silence the float warnings a
    # blown-up iterate would otherwise spray
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(config.steps):
            breakdown, grad = action_value_and_gradient(
                current, previous, inputs, config.lam, dtau)
            # a NaN or inf in the gradient makes its max-norm non-finite
            grad_norm = float(np.abs(grad).max())
            if not (math.isfinite(breakdown.total) and math.isfinite(grad_norm)):
                raise DivergenceError(
                    f"non-finite action or gradient at step {step}: step size too large?"
                )
            breakdowns.append(breakdown)
            grad_norms.append(grad_norm)
            taps = current.taps - config.step_size * grad
            if not np.isfinite(taps).all():
                raise DivergenceError(
                    f"non-finite taps after the update at step {step}: step size too large?"
                )
            previous = current
            current = current._next(taps)
    final = cognitive_action(current, current, inputs, config.lam, dtau)
    return TrainTrace(breakdowns, grad_norms, current, final)


def train_deep(clip, flow: VelocityField, plans: list[LayerPlan]) -> list[TrainTrace]:
    """Greedy layer-wise training: layer z trains against the frozen feature
    field of layer z-1 (the clip for z=1), kept as that layer's ``field``."""
    traces: list[TrainTrace] = []
    current = as_grid(clip)
    for index, plan in enumerate(plans, start=1):
        if traces:
            current = traces[-1].field = stack_layers([traces[-1].final_bank], current)[0]
        try:
            trace = train_layer(plan.initial_bank(current.shape[3], index), current, flow,
                                plan.config)
        except (ValueError, DivergenceError) as exc:
            raise type(exc)(f"layer {index}: {exc}") from exc
        traces.append(trace)
    return traces


def evaluate_bank(bank: FilterBank, data, flow: VelocityField, weights: TemporalWeights,
                  lam: Multipliers, dtau: float) -> ActionBreakdown:
    """Breakdown at a standalone bank: no predecessor iterate, so K = 0."""
    return cognitive_action(bank, bank, ActionInputs(data, flow, weights, bank), lam, dtau)


# ---------------------------------------------------------------------------
# Finite-difference oracle.

def finite_diff_breakdowns(bank: FilterBank, bank_prev: FilterBank, inputs: ActionInputs,
                           lam: Multipliers, dtau: float,
                           eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradients of every breakdown field from
    ``info_index`` on, at once, one pair of evaluations per tap.  O(#taps)
    action evaluations; meant for small banks."""
    if eps <= 0.0:
        raise ValueError(f"finite-difference step must be > 0, got {eps}")
    flat = bank.taps.ravel()
    # values[0, i] and values[1, i]: the breakdown with tap i moved by +eps and -eps
    values = np.empty((2, flat.size, 8))
    for index in range(flat.size):
        for side, step in enumerate((eps, -eps)):
            taps = flat.copy()
            taps[index] += step
            probe = bank._next(taps.reshape(bank.taps.shape))
            values[side, index] = cognitive_action(probe, bank_prev, inputs, lam, dtau).values()
    # each gradient entry is 0 + v+/2e + (-v-)/2e, added in that order: the
    # bits of adding each probe's term into a zeroed gradient as it comes
    grads = (0.0 + values[0] / (2.0 * eps)) + (-values[1] / (2.0 * eps))
    names = ("info_index", "motion", "spatial", "temporal", "penalty", "total")
    return dict(zip(names, np.ascontiguousarray(grads[:, 2:].T).reshape(6, *bank.taps.shape)))


# ---------------------------------------------------------------------------
# The seeded gradient-check suite shared by the test suite and the CLI.

def gradient_check_instances(count: int = 20) -> list[dict]:
    """Small random instances (bank, data, flow, weights, multipliers) covering
    both constraint modes, random per-pixel flows and random multipliers."""
    instances = []
    for index in range(count):
        rng = np.random.Generator(np.random.PCG64(1000 + index))
        mode = "softmax" if index % 2 == 0 else "linear-penalty"
        height = int(rng.integers(4, 9))
        width = int(rng.integers(4, 9))
        frames = int(rng.integers(2, 7))
        channels = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        pattern = PatternSpec("random-texture", period=4, seed=int(rng.integers(0, 2**32)),
                              channels=channels)
        velocity = tuple(rng.uniform(-1.0, 1.0, size=2) * min(height, width) / (2 * frames))
        clip, _ = synth_translating_clip(pattern, velocity, frames, height, width)
        flow = VelocityField(rng.uniform(-1.5, 1.5, size=(frames, height, width, 2)))
        scale = 0.08 if mode == "linear-penalty" else 0.2
        bank = init_bank(n, channels, 3, mode, seed=int(rng.integers(0, 2**32)), scale=scale)
        prev = bank.with_taps(bank.taps + rng.uniform(-0.05, 0.05, size=bank.taps.shape))
        weighting = "uniform" if index % 3 else "exp:0.9"
        lam = Multipliers(motion=float(rng.uniform(0.0, 2.0)),
                          spatial=float(rng.uniform(0.0, 2.0)),
                          temporal=float(rng.uniform(0.0, 2.0)),
                          constraint=(float(rng.uniform(0.0, 2.0))
                                      if mode == "linear-penalty" else 0.0))
        instances.append({
            "bank": bank,
            "bank_prev": prev,
            "data": clip.data,
            "flow": flow,
            "weights": build_weights(weighting, frames),
            "lam": lam,
            "dtau": float(rng.uniform(0.05, 1.0)),
            "mode": mode,
        })
    return instances


def _clamp_margin(bank: FilterBank, inputs: ActionInputs) -> float:
    """Distance of the bank's activations on ``inputs`` to the projection
    clamp kinks."""
    act = convolve_features(bank, inputs.grid, patches=inputs.patches)
    return float(min(np.abs(act - CLAMP_EPS).min(), np.abs(act - 1.0).min()))


def run_gradient_check(count: int = 20) -> list[dict]:
    """Compare analytic and finite-difference gradients on the seeded suite.

    Returns one report per instance with the max relative error per term and
    jointly; relative error is |g_a - g_fd| / (1 + |g_a|) per tap, with a
    finite-difference step of 1e-5, and an instance passes when every one is
    at most 1e-5.  The joint analytic gradient is the one training follows,
    from ``action_value_and_gradient``.  Instances in linear-penalty mode are
    screened so no activation sits within 1e-4 of a projection kink, which
    would invalidate the finite-difference oracle.
    """
    from .action import term_gradients

    reports = []
    for number, instance in enumerate(gradient_check_instances(count)):
        bank = instance["bank"]
        inputs = ActionInputs(instance["data"], instance["flow"], instance["weights"], bank)
        if instance["mode"] == "linear-penalty" and _clamp_margin(bank, inputs) < 1e-4:
            raise RuntimeError(f"instance {number} sits on a projection kink; reseed the suite")
        args = (bank, instance["bank_prev"], inputs)
        lam, dtau = instance["lam"], instance["dtau"]
        fd = finite_diff_breakdowns(*args, lam, dtau, eps=1e-5)
        analytic = term_gradients(*args, dtau)
        analytic["total"] = action_value_and_gradient(*args, lam, dtau)[1]
        errors = {name: float((np.abs(grad - fd[name]) / (1.0 + np.abs(grad))).max())
                  for name, grad in analytic.items()}
        worst = float(np.max(list(errors.values())))  # not max(): a NaN must win
        reports.append({"instance": number, "mode": instance["mode"], **errors,
                        "max_rel_err": worst, "pass": worst <= 1e-5})
    return reports
