"""The benchmark's tracer patches names inside ``cogaction`` by name; a
refactor that drops or renames one must fail here, not as failed benchmark
operations.  So must a refactor that changes the arguments a count function
reads from a traced call.  The tracer is loaded from ``perfbench/tracing.py``
read-only."""

import functools
import importlib.util
from pathlib import Path

import pytest

import cogaction
from cogaction.cli import main
from cogaction.optimizer import gradient_check_instances

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = [cogaction.action, cogaction.action._WarpPlan, cogaction.cli, cogaction.config,
          cogaction.features, cogaction.optimizer]
# the functions ``instrument`` hands the tracer to label a span or count its work
COUNTERS = ("_convolve_counts", "_tap_adjoint_counts", "_sweep_count", "_layer_steps",
            "_layer_name")

# softmax layer 1 (m=2, K=5), linear-penalty layer 2 (m=4, K=3), sub-pixel flow
TWO_LAYER = """
[data]
source = synth
pattern = random-texture
period = 4
seed = 5
channels = 2
frames = 5
height = 10
width = 9
velocity = 0.5 0.25

[flow]
source = ground-truth

[train]
steps = 3
step_size = 0.1
lambda_m = 1.0
lambda_p = 0.001
lambda_k = 0.001
seed = 11

[layer1]
n = 4
k = 5
mode = softmax

[layer2]
n = 3
k = 3
steps = 2
mode = linear-penalty
lambda_c = 1.0
weights = exp:0.9

[output]
dir = out
save_features = true
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def assert_restored(before):
    for owner, names in zip(OWNERS, before):
        assert all(vars(owner)[name] is value for name, value in names.items())


def test_tracer_finds_every_name_and_restores_it():
    tracing = load_tracing()
    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, cogaction)  # KeyError: a patched name is gone
        patched = [(owner, name) for owner, names in zip(OWNERS, before)
                   for name, value in names.items() if vars(owner)[name] is not value]
    finally:
        tracer.restore()
    assert len(patched) > 0
    assert_restored(before)


def convolve_counts(n, m, k, grid):
    """Work of one convolution of an (n, m, K, K) bank over a (T, H, W, m) grid,
    as perfbench/README.md defines it."""
    t, h, w = grid
    sites = t * h * w
    return {"gflop": 1e-9 * k * k * sites * n * (2 * m + 1),
            "gbyte": 1e-9 * 8 * (sites * m + n * m * k * k + sites * n)}


def tap_adjoint_counts(n, m, k, grid):
    t, h, w = grid
    sites = t * h * w
    return {"gflop": 1e-9 * k * k * sites * n * 2 * m,
            "gbyte": 1e-9 * 8 * (sites * m + sites * n + n * m * k * k)}


def traced_run(argv):
    """Spans of ``cli.main(argv)`` under the benchmark's tracer, every count
    function guarded so that an exception in one is recorded."""
    tracing = load_tracing()
    raised = []

    def guarded(fn):
        @functools.wraps(fn)
        def run(*args):
            try:
                return fn(*args)
            except Exception as exc:
                raised.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
                raise
        return run

    for name in COUNTERS:
        setattr(tracing, name, guarded(getattr(tracing, name)))
    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, cogaction)
        code = main(argv)
    finally:
        tracer.restore()
    assert_restored(before)
    assert raised == []
    assert code == 0
    spans = {}
    for name, _, _, _, counts in tracer.spans:
        spans.setdefault(name, []).append(counts)
    return spans


def assert_counts(actual, expected):
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, rel=1e-12)


def test_counts_of_a_traced_two_layer_train(tmp_path):
    config = tmp_path / "two.ini"
    config.write_text(TWO_LAYER, encoding="utf-8")
    spans = traced_run(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    grid = (5, 10, 9)
    layer1, layer2 = (4, 2, 5), (3, 4, 3)
    # layer 1: 3 steps, the final breakdown and the propagation into layer 2;
    # layer 2: 2 steps, the final breakdown and its saved field, both fields
    # from stack_layers.  cli maps no field, so cli.propagate reads 0 calls.
    convolves = [convolve_counts(*layer1, grid)] * 5 + [convolve_counts(*layer2, grid)] * 4
    adjoints = [tap_adjoint_counts(*layer1, grid)] * 3 + [tap_adjoint_counts(*layer2, grid)] * 2
    assert len(spans["features.convolve"]) == len(convolves)
    for actual, expected in zip(spans["features.convolve"], convolves):
        assert_counts(actual, expected)
    assert len(spans["features.tap_adjoint"]) == len(adjoints)
    for actual, expected in zip(spans["features.tap_adjoint"], adjoints):
        assert_counts(actual, expected)
    assert len(spans["action.step"]) == 5
    assert spans["optimizer.train_layer.L1"] == [{"steps": 3}]
    assert spans["optimizer.train_layer.L2"] == [{"steps": 2}]
    assert "cli.propagate" not in spans


def test_counts_of_a_traced_check_grad():
    spans = traced_run(["check-grad", "--instances", "2"])
    shapes = [(*instance["bank"].taps.shape[:3], instance["data"].shape[:3])
              for instance in gradient_check_instances(2)]
    for name, formula in (("features.convolve", convolve_counts),
                          ("features.tap_adjoint", tap_adjoint_counts)):
        expected = [formula(*shape) for shape in shapes]
        matched = set()
        for actual in spans[name]:
            hits = [i for i, counts in enumerate(expected)
                    if actual.keys() == counts.keys()
                    and all(actual[k] == pytest.approx(v, rel=1e-12) for k, v in counts.items())]
            assert hits, f"{name} counts {actual} match no instance's bank"
            matched.update(hits)
        assert matched == {0, 1}
