"""The benchmark's tracer patches names inside ``cogaction`` by name; a
refactor that drops or renames one must fail here, not as failed benchmark
operations.  The tracer is loaded from ``perfbench/tracing.py`` read-only."""

import importlib.util
from pathlib import Path

import cogaction

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_and_restores_it():
    tracing = load_tracing()
    owners = [cogaction.action, cogaction.action._WarpPlan, cogaction.cli, cogaction.config,
              cogaction.features, cogaction.optimizer]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, cogaction)  # KeyError: a patched name is gone
        patched = [(owner, name) for owner, names in zip(owners, before)
                   for name, value in names.items() if vars(owner)[name] is not value]
    finally:
        tracer.restore()
    assert len(patched) > 0
    for owner, names in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in names.items())
