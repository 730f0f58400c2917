"""The benchmark checks every operation's output with ``perfbench/workloads.py``,
which calls ``evaluate_bank``, ``stack_layers`` and ``load_bank`` on a train
tree and parses the check-grad report.  A change to those signatures or to
the report must fail here, not as failed benchmark operations.  The module is
loaded from ``perfbench/workloads.py`` read-only."""

import importlib.util
from pathlib import Path

import cogaction
from cogaction import parse_config
from cogaction.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# softmax layer 1, then a windowed linear-penalty layer 2 with exp weights
TWO_LAYER = """
[data]
source = synth
pattern = random-texture
period = 4
seed = 5
channels = 2
frames = 6
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
window = 4

[output]
dir = out
save_features = true
"""


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_train_accepts_a_two_layer_tree(tmp_path):
    workloads = load_workloads()
    config = tmp_path / "two.ini"
    config.write_text(TWO_LAYER, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    experiment = parse_config(str(config))
    assert workloads.check_train(cogaction, experiment, out, workloads.WORKLOADS["deep"]) == []
    # and it does look: a final value off by one part in 1e9 is a problem
    summary = out / "summary.csv"
    lines = summary.read_text(encoding="ascii").splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1.0 + 1e-9))
    summary.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n", encoding="ascii")
    problems = workloads.check_train(cogaction, experiment, out, workloads.WORKLOADS["deep"])
    assert len(problems) == 1 and problems[0].startswith("layer 2: summary A")


def test_check_grad_output_accepts_the_report(capsys):
    workloads = load_workloads()
    assert main(["check-grad", "--instances", str(workloads.CHECK_GRAD_INSTANCES)]) == 0
    assert workloads.check_grad_output(capsys.readouterr().out) == []
