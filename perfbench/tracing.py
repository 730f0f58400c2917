"""Spans around the calls into each layer of ``cogaction``, installed from outside.

``instrument`` replaces the module-global names each layer looks up (and the
``_WarpPlan`` methods) with wrappers that record a span per call: its name,
start, end and parent span.  Spans stay in memory until the caller writes
them out.  Nothing under ``src/`` changes; ``restore`` puts every original
back.

Kernel counts for convolve and tap adjoint are computed from the array shapes
of each call: flops as the multiply-adds the shifted-sum algorithm performs,
bytes as the compulsory traffic (inputs read once, output written once).
Neither is measured.
"""

import functools
import statistics
import time

import numpy as np

_GIGA = 1e-9


def _grid_shape(data):
    return (data if isinstance(data, np.ndarray) else data.data).shape


def _convolve_counts(args, kwargs, result):
    bank, data = args[0], args[1]
    t, h, w, m = _grid_shape(data)
    n, _, k, _ = bank.taps.shape
    sites = t * h * w
    return {"gflop": _GIGA * k * k * sites * n * (2 * m + 1),
            "gbyte": _GIGA * 8 * (sites * m + n * m * k * k + sites * n)}


def _tap_adjoint_counts(args, kwargs, result):
    data, act_grad, kernel = args
    t, h, w, m = _grid_shape(data)
    sites, n = t * h * w, act_grad.shape[3]
    return {"gflop": _GIGA * kernel * kernel * sites * n * 2 * m,
            "gbyte": _GIGA * 8 * (sites * m + sites * n + n * m * kernel * kernel)}


def _sweep_count(args, kwargs, result):
    clip, _, iters = args
    return {"sweeps": iters * (clip.frames - 1)}


def _layer_steps(args, kwargs, result):
    return {"steps": len(result.breakdowns)}


def _layer_name(args, kwargs):
    return f"optimizer.train_layer.L{args[0].layer}"


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent, counts]``
    where ``parent`` is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, counts=None):
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, counts))
        self._restore.append((owner, attr, original))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: call count, self time, inclusive durations, summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, counts), covered in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [],
                                          "counts": {}})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["durations"].append(end - start)
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out


def instrument(tracer: Tracer, cog) -> None:
    """Wrap every layer boundary of the imported ``cogaction`` package."""
    action, cli, config, features, optimizer = (
        cog.action, cog.cli, cog.config, cog.features, cog.optimizer)
    for module in (action, optimizer, features):
        tracer.patch(module, "convolve_features", "features.convolve", _convolve_counts)
        tracer.patch(module, "to_probabilities", "features.to_probabilities")
    tracer.patch(action, "convolution_tap_gradient", "features.tap_adjoint", _tap_adjoint_counts)
    tracer.patch(action, "probability_vjp", "features.probability_vjp")
    for attr in ("conditional_entropy", "symbol_marginal"):
        tracer.patch(action, attr, "action.entropies")
    tracer.patch(action, "_neg_index_act_gradient", "action.neg_index_grad")
    tracer.patch(action._WarpPlan, "__init__", "action.warp_build")
    tracer.patch(action._WarpPlan, "gather", "action.gather")
    tracer.patch(action._WarpPlan, "scatter", "action.scatter")
    for attr in ("spatial_parsimony", "temporal_parsimony", "spatial_parsimony_gradient"):
        tracer.patch(action, attr, "action.parsimony")
    for attr in ("_constraint_penalty", "_constraint_penalty_act_gradient"):
        tracer.patch(action, attr, "action.penalty")
    tracer.patch(action, "term_gradients", "optimizer.term_gradients")
    tracer.patch(optimizer, "action_value_and_gradient", "action.step")
    tracer.patch(optimizer, "cognitive_action", "action.forward_eval")
    tracer.patch(optimizer, "train_layer", _layer_name, _layer_steps)
    tracer.patch(optimizer, "finite_diff_breakdowns", "optimizer.fd")
    tracer.patch(optimizer, "synth_translating_clip", "video.synth")
    tracer.patch(config, "synth_translating_clip", "video.synth")
    tracer.patch(config, "horn_schunck", "flow.horn_schunck", _sweep_count)
    tracer.patch(cli, "parse_config", "config.parse")
    # cli's own propagation between layers; its convolve is not counted
    # under features.convolve, so that span stays the objective's kernel
    tracer.patch(cli, "convolve_features", "cli.propagate")
    tracer.patch(cli, "to_probabilities", "cli.propagate")
    tracer.patch(cli, "_windowed_eval", "cli.summary_eval")
    for attr in ("save_bank", "save_feature_maps", "_write_rows"):
        tracer.patch(cli, attr, "cli.write")


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced call costs beyond the call itself, from a no-op."""
    probe = Tracer()
    bare = int
    traced = probe.wrap("probe", bare)
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            bare()
        middle = time.perf_counter()
        for _ in range(samples):
            traced()
        end = time.perf_counter()
        rounds.append(((end - middle) - (middle - start)) / samples)
        probe.spans.clear()
    return max(0.0, statistics.median(rounds))
