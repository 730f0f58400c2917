"""The benchmark's workloads: the experiment each one runs and how its outputs
are checked.

Each workload is one ``cogaction`` command.  The train workloads run
``cogaction train`` on an experiment file generated here from the workload
seed; ``checkgrad`` runs ``cogaction check-grad``, whose instances are seeded
inside the program, so the workload seed does not change its inputs.

This module imports only the standard library at import time; the checks
receive the ``cogaction`` package from the caller, which has already imported
it from the checkout.
"""

import csv
import random
import re
from dataclasses import dataclass

# A3 descent gates and the A5 oracle bound, as the acceptance suite states them.
DESCENT_RISE = 1e-9
INDEX_SLACK = 1e-6
SUMMARY_TOL = 1e-12
GRAD_TOL = 1e-5
CHECK_GRAD_INSTANCES = 20

DESK_STEPS = 200
DEEP_STEPS = 4

_TRAIN_KEYS = """step_size = 1.0
lambda_m = 1.0
lambda_p = 0.001
lambda_k = 0.001
seed = {train_seed}
init_scale = 0.1"""

_SINGLE_LAYER = """[data]
source = synth
pattern = random-texture
period = 8
seed = {data_seed}
channels = 1
frames = 16
height = 32
width = 32
velocity = {velocity}

[flow]
source = ground-truth

[train]
steps = """ + str(DESK_STEPS) + """
""" + _TRAIN_KEYS + """

[layer1]
n = 4
k = 3

[output]
dir = out
save_features = false
"""

_DEEP = """[data]
source = synth
pattern = random-texture
period = 8
seed = {data_seed}
channels = 3
frames = 16
height = 64
width = 64
velocity = 1.0 0.5

[flow]
source = horn-schunck
alpha = 1.0
iters = 200

[train]
steps = """ + str(DEEP_STEPS) + """
""" + _TRAIN_KEYS + """

[layer1]
n = 8
k = 5
mode = softmax

[layer2]
n = 8
k = 3
mode = linear-penalty
lambda_c = 1.0
weights = exp:0.9

[output]
dir = out
save_features = true
"""


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each exists."""

    name: str
    template: str | None      # experiment file, or None for check-grad
    seed_varies_inputs: bool
    # grid shape and rounds of the reference kernel (run.reference_s): the
    # objective's grid on desk, or check-grad's small grids, where per-call
    # overhead dominates; either takes about 0.1 s on the machine it was tuned on
    reference: tuple = ((16, 32, 32, 4), 40)

    @property
    def trains(self) -> bool:
        return self.template is not None

    def experiment_text(self, seed: int) -> str:
        """The experiment file for this seed: texture seed and [train] seed
        both derive from it."""
        rng = random.Random(seed)
        return self.template.format(data_seed=rng.randrange(2**31),
                                    train_seed=rng.randrange(2**31))


WORKLOADS = {w.name: w for w in (
    Workload("desk", _SINGLE_LAYER.replace("{velocity}", "1.0 0.0"), True),
    Workload("subpixel", _SINGLE_LAYER.replace("{velocity}", "0.5 0.25"), True),
    Workload("deep", _DEEP, True),
    Workload("checkgrad", None, False, reference=((6, 8, 8, 3), 1200)),
)}


def _rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def check_train(cog, experiment, out_dir, workload: Workload) -> list[str]:
    """Problems found in a train output tree; empty when it is correct.

    Every final summary row is recomputed with ``evaluate_bank`` on the saved
    bank and must agree to the A5 bound.  ``desk`` must also meet the A3
    descent gates.
    """
    from cogaction.optimizer import build_weights

    problems = []
    summary = _rows(out_dir / "summary.csv")
    clip, truth = experiment.build_clip()
    flow = experiment.build_flow(clip, truth)
    banks = [cog.load_bank(out_dir / f"layer{z}_bank.txt")
             for z in range(1, len(experiment.layers) + 1)]
    grids = [clip.data] + cog.stack_layers(banks[:-1], clip)
    fields = ("S_Y", "S_cond", "I", "M", "P", "K", "C_pen", "A")
    for z, (plan, bank, grid) in enumerate(zip(experiment.layers, banks, grids), start=1):
        config = plan.config
        trace = _rows(out_dir / f"layer{z}_trace.csv")
        if len(trace) != config.steps:
            problems.append(f"layer {z}: {len(trace)} trace rows, expected {config.steps}")
        window = grid.shape[0] if config.window is None else config.window
        again = cog.evaluate_bank(bank, grid[:window], cog.VelocityField(flow.data[:window]),
                                  build_weights(config.weighting, window), config.lam,
                                  config.effective_dtau())
        final = [r for r in summary if r["layer"] == str(z) and r["phase"] == "final"]
        if len(final) != 1:
            problems.append(f"layer {z}: {len(final)} final summary rows")
            continue
        for name, value in zip(fields, again.values()):
            written = float(final[0][name])
            if not abs(written - value) <= SUMMARY_TOL * max(1.0, abs(value)):
                problems.append(f"layer {z}: summary {name} {written!r} != recomputed {value!r}")
        if workload.name == "desk":
            problems.extend(_descent_problems(trace, summary))
    return problems


def _descent_problems(trace, summary) -> list[str]:
    totals = [float(r["A"]) for r in trace]
    worst = max(b - a for a, b in zip(totals, totals[1:]))
    initial = next(r for r in summary if r["phase"] == "initial")
    final = next(r for r in summary if r["phase"] == "final")
    problems = []
    if not worst <= DESCENT_RISE:
        problems.append(f"A rose by {worst!r} in one step (> {DESCENT_RISE})")
    if not float(final["M"]) <= 0.5 * float(initial["M"]):
        problems.append(f"M {initial['M']} -> {final['M']}: not halved")
    if not float(final["I"]) >= float(initial["I"]) - INDEX_SLACK:
        problems.append(f"I fell {initial['I']} -> {final['I']}")
    return problems


def check_grad_output(text: str) -> list[str]:
    """Problems in the printed check-grad report; empty when it is correct."""
    problems = []
    instances = re.findall(r"^instance\s+\d+ .* (ok|FAIL)$", text, flags=re.MULTILINE)
    if len(instances) != CHECK_GRAD_INSTANCES or "FAIL" in instances:
        problems.append(f"check-grad reported {instances.count('ok')} ok of "
                        f"{CHECK_GRAD_INSTANCES} instances")
    worst = re.search(r"^max relative error: (\S+)$", text, flags=re.MULTILINE)
    if worst is None or not float(worst.group(1)) <= GRAD_TOL:
        problems.append(f"max relative error {worst and worst.group(1)} above {GRAD_TOL}")
    return problems
